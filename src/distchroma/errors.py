"""Exception types shared across the package, the digit bound, and how
error messages show integers of any length.

The library's input contract: a public function that takes a number
requires an int (``bool`` refused) and raises InvalidInputError for
anything else, as for any other broken precondition.  CertificationError
is raised only for valid input that has no witness.  No integer of more
than MAX_DIGITS digits is read from text or written as text; inputs that
would need one are invalid input.  The interpreter's own int-to-str limit
(sys.set_int_max_str_digits) must be 0 or at least MAX_DIGITS, as its
default is.
"""

from math import log10


class InvalidInputError(ValueError):
    """Raised when arguments violate a documented precondition."""


class CertificationError(RuntimeError):
    """Raised when certificate construction cannot validate its own witnesses."""


# The most decimal digits an integer may have where the package reads it
# from text or writes it as text: Python's default int-to-str limit, fixed
# here, so answers do not depend on the interpreter or on
# sys.set_int_max_str_digits().
MAX_DIGITS = 4300
_PAST_MAX_DIGITS = 10**MAX_DIGITS  # the least integer with more digits


def _past_max_digits(n: int) -> bool:
    """Whether n has more than MAX_DIGITS decimal digits."""
    return abs(n) >= _PAST_MAX_DIGITS


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
