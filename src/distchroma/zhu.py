"""Distance triples and Zhu's chromatic-number classification.

The integer distance graph on a set {a, b, c} of coprime positive
distances has chromatic number 2 when all three are odd, 4 when
(a, b) = (1, 2) with 3 | c or when a + b = c with a and b in different
residue classes mod 3, and 3 otherwise.  This module normalizes raw
triples, evaluates the classification with an explicit branch witness,
and orients triples for the relation-matrix pipeline.

Raw distances must be positive ints (``bool`` refused) whose normalized
b + c has at most MAX_DIGITS digits; normalize_triple raises
InvalidInputError for anything else.  A DistanceTriple is checked in full
by its constructor, so every function here that takes one can trust it.
"""

from dataclasses import dataclass, fields
from enum import Enum
from itertools import permutations
from math import gcd

from .errors import MAX_DIGITS, InvalidInputError, _brief, _past_max_digits


class ChiBranch(Enum):
    """Which classification case produced the chromatic number."""

    ALL_ODD = "ALL_ODD"
    A1_B2_3DIVC = "A1_B2_3DIVC"
    SUM_NOT_CONG_MOD3 = "SUM_NOT_CONG_MOD3"
    OTHERWISE = "OTHERWISE"


@dataclass(frozen=True, init=False, slots=True)
class DistanceTriple:
    """Normalized distance set: 1 <= a <= b <= c, coprime, with ``scale``
    recording the gcd divided out of the raw input.

    The constructor requires every field to be an int (``bool`` refused)
    and then checks the order, the gcd and the scale.  Equality, hashing,
    ``repr`` and immutability are the dataclass's.
    """

    a: int
    b: int
    c: int
    scale: int = 1

    def __init__(self, a, b, c, scale=1):
        if type(a) is not int or type(b) is not int or type(c) is not int or type(scale) is not int:
            raise InvalidInputError("distances and scale must be integers")
        if not (1 <= a <= b <= c):
            raise InvalidInputError("distances must satisfy 1 <= a <= b <= c")
        if gcd(a, b, c) != 1:
            raise InvalidInputError("distances must be coprime; normalize first")
        if scale < 1:
            raise InvalidInputError("scale must be positive")
        _set_a(self, a)
        _set_b(self, b)
        _set_c(self, c)
        _set_scale(self, scale)

    def distances(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def _slot_setters(cls) -> list:
    """The setter of each field's slot, in field order.  They write the
    fields of a frozen instance, whose own __setattr__ refuses, at less
    cost than object.__setattr__."""
    return [getattr(cls, f.name).__set__ for f in fields(cls)]


_set_a, _set_b, _set_c, _set_scale = _slot_setters(DistanceTriple)


def normalize_triple(raw_a: int, raw_b: int, raw_c: int) -> DistanceTriple:
    """Sort the raw distances and divide out their gcd.

    Scaling every distance by d splits the graph into d isomorphic copies,
    so the chromatic number depends only on the normalized triple.

    Every distance must be an int (``bool`` refused) and positive.  A
    triple whose b + c has more than MAX_DIGITS digits is refused, so every
    number derived from the triple up to b + c can be printed.  Each
    refusal raises InvalidInputError.
    """
    if not (
        type(raw_a) is type(raw_b) is type(raw_c) is int and raw_a > 0 and raw_b > 0 and raw_c > 0
    ):
        raise InvalidInputError("distances must be positive integers")
    g = gcd(raw_a, raw_b, raw_c)
    a, b, c = sorted((raw_a // g, raw_b // g, raw_c // g))
    if _past_max_digits(b + c):
        raise InvalidInputError(
            f"b + c = {_brief(b + c)} has more than MAX_DIGITS = {MAX_DIGITS} digits"
        )
    return DistanceTriple(a, b, c, g)


def orient_for_matrix(t: DistanceTriple) -> tuple[int, int, int]:
    """Deterministic signed arrangement (a1, a2, a3) of the triple with
    3 | a1 + a2, -a1 <= a2 and |a1| <= |a2|.

    Among any three integers some pair has its sum or difference divisible
    by 3, so a valid arrangement always exists.  The fixed scan (descending
    permutations with p1 <= p2, then a1 = +-p1 and a2 = +-p2, + before -)
    tries 24 candidates; no condition reads a3, so it keeps its + sign.
    """
    for p1, p2, p3 in permutations(sorted(t.distances(), reverse=True)):
        if p1 <= p2:
            for a1, a2 in ((p1, p2), (p1, -p2), (-p1, p2), (-p1, -p2)):
                if (a1 + a2) % 3 == 0 and -a1 <= a2:
                    return (a1, a2, p3)
    raise AssertionError("unreachable: a valid orientation always exists")


def chi_formula(t: DistanceTriple) -> tuple[int, ChiBranch]:
    """Chromatic number of the distance graph, with the branch that fired.

    The four cases are checked in a fixed order, so a triple matching more
    than one (such as (1, 2, 3)) reports the earliest branch.
    """
    a, b, c = t.a, t.b, t.c
    if a & b & c & 1:
        return (2, ChiBranch.ALL_ODD)
    if a == 1 and b == 2 and c % 3 == 0:
        return (4, ChiBranch.A1_B2_3DIVC)
    if a + b == c and a % 3 != b % 3:
        return (4, ChiBranch.SUM_NOT_CONG_MOD3)
    return (3, ChiBranch.OTHERWISE)


def is_bipartite(t: DistanceTriple) -> bool:
    """True when every distance is odd, so colors can alternate by parity.

    Equivalently: both column sums of the triple's relation matrix are even.
    """
    return t.a & t.b & t.c & 1 == 1
