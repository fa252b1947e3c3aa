"""Exception types shared across the package, and how their messages show
integers of any length."""

import sys
from math import log10


class InvalidInputError(ValueError):
    """Raised when arguments violate a documented precondition."""


class QuotientLoopsError(ValueError):
    """Raised when a requested quotient would put a loop on some vertex."""


class CertificationError(RuntimeError):
    """Raised when certificate construction cannot validate its own witnesses."""


def _past_str_limit(n: int) -> bool:
    """Whether str(n) has more digits than the interpreter converts
    (sys.get_int_max_str_digits(); Python 3.10 has no such limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # 10**limit > 2**(3 * limit), so a shorter number cannot reach it
    return bool(limit) and n.bit_length() > 3 * limit and abs(n) >= 10**limit


def _brief(value) -> str:
    """An int, or a tuple of ints, as an error message shows it: in decimal,
    except that an integer of more than 100 digits is named by its leading
    digits and its digit count, so one error line stays short whatever
    the input."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_brief, value)) + ")"
    magnitude = abs(value)
    if magnitude < 10**100:
        return str(value)
    # the digit count is this estimate or one more
    digits = int(magnitude.bit_length() * log10(2))
    if magnitude >= 10**digits:
        digits += 1
    sign = "-" if value < 0 else ""
    return f"{sign}{magnitude // 10**(digits - 12)}... ({digits} digits)"
