"""Exact integer matrices that carry generator labels.

Questions about the infinite three-distance graph reduce to finite
circulants through transformations of a small relation matrix.  A
``LabeledMatrix`` couples the matrix with the images of the standard
generators under the defining group map (the label vector) and with the
modulus of the ambient group (0 for the integers, n >= 2 for Z_n).  The
defining invariant is that the label annihilates every column, so the
columns stay relations among the generator images and every transformation
here leaves the represented graph unchanged.  All arithmetic is exact.
"""

from dataclasses import dataclass
from math import gcd
from operator import add, mul, sub

from .errors import InvalidInputError
from .zhu import _slot_setters


@dataclass(frozen=True, init=False, slots=True)
class LabeledMatrix:
    """Integer matrix plus generator labels and ambient modulus.

    ``entries`` holds 2 or 3 row tuples of width 1 or 2, ``label`` gives the
    group image of each row's generator, and ``modulus`` is 0 over the
    integers or n >= 2 over Z_n (labels then reduced into [0, n)).  Rows and
    label given as other sequences are stored as tuples.  Every matrix,
    each reduced matrix and quotient included, is checked in full by the
    constructor, in this order: rows and label are sequences, every entry
    and label is an int, the shape, the label length, the modulus, reduced labels, and label
    annihilation (label . column == 0 modulo the modulus for every column).
    Equality, hashing, ``repr`` and immutability are the dataclass's.
    """

    entries: tuple[tuple[int, ...], ...]
    label: tuple[int, ...]
    modulus: int = 0

    def __init__(self, entries, label, modulus=0):
        try:
            if type(entries) is not tuple:
                entries = tuple(entries)
            for row in entries:
                if type(row) is not tuple:
                    entries = tuple(map(tuple, entries))
                    break
            if type(label) is not tuple:
                label = tuple(label)
        except TypeError:  # something that is not a sequence
            raise InvalidInputError("matrix rows and label must be sequences") from None
        # Exact int types, as verify_periodic requires: a coerced 1.7 would
        # pass the annihilation check as 1, and bool is an int subclass.
        for v in label:
            if type(v) is not int:
                raise InvalidInputError("matrix entries and labels must be integers")
        for row in entries:
            for v in row:
                if type(v) is not int:
                    raise InvalidInputError("matrix entries and labels must be integers")
        if len(entries) not in (2, 3):
            raise InvalidInputError("matrix must have 2 or 3 rows")
        width = len(entries[0])
        if width not in (1, 2):
            raise InvalidInputError("matrix must have 1 or 2 columns of equal width")
        for row in entries:
            if len(row) != width:
                raise InvalidInputError("matrix must have 1 or 2 columns of equal width")
        if len(label) != len(entries):
            raise InvalidInputError("label length must match the row count")
        # A bool modulus passes isinstance and falls to the range message.
        if not isinstance(modulus, int):
            raise InvalidInputError("modulus must be an integer")
        if type(modulus) is not int or modulus < 0 or modulus == 1:
            raise InvalidInputError("modulus must be 0 or at least 2")
        if modulus:
            for lab in label:
                if not 0 <= lab < modulus:
                    raise InvalidInputError("labels must be reduced into [0, modulus)")
        for j in range(width):
            total = 0
            for lab, row in zip(label, entries):
                total += lab * row[j]
            if (total % modulus if modulus else total) != 0:
                raise InvalidInputError(f"label does not annihilate column {j}")
        _set_entries(self, entries)
        _set_label(self, label)
        _set_modulus(self, modulus)

    def label_column_products(self) -> tuple[int, ...]:
        """Raw dot products label . column, one per column, before reduction."""
        return tuple(sum(map(mul, self.label, column)) for column in zip(*self.entries))

    def to_json_dict(self) -> dict:
        return {
            "entries": [list(row) for row in self.entries],
            "label": list(self.label),
            "modulus": self.modulus,
        }


_set_entries, _set_label, _set_modulus = _slot_setters(LabeledMatrix)


def build_heuberger_matrix(a1: int, a2: int, a3: int) -> LabeledMatrix:
    """Relation matrix of the three-distance graph for an oriented triple.

    For nonzero a1, a2, a3 with gcd 1, returns the 3x2 matrix with rows
    (g, 0), (-a3*v, -a1/g), (-a3*u, a2/g) labelled (a3, a2, a1) over the
    integers, where g = gcd(a1, a2) and a1*u + a2*v = g.  The Bezout pair is
    pinned: v is the balanced inverse of a2/g modulo n = |a1|/g, with
    -n < 2v <= n, and u follows as (g - a2*v) / a1.  The first column is
    annihilated by the relation a1*(a3*u) + a2*(a3*v) = a3*g, the second
    identically.
    """
    if type(a1) is not int or type(a2) is not int or type(a3) is not int:
        raise InvalidInputError("oriented distances must be integers")
    if a1 == 0 or a2 == 0 or a3 == 0:
        raise InvalidInputError("oriented distances must be nonzero")
    if gcd(a1, a2, a3) != 1:
        raise InvalidInputError("oriented distances must be coprime")
    g = gcd(a1, a2)
    n = abs(a1) // g
    v = pow(a2 // g, -1, n)
    if 2 * v > n:
        v -= n
    u = (g - a2 * v) // a1
    rows = ((g, 0), (-a3 * v, -(a1 // g)), (-a3 * u, a2 // g))
    return LabeledMatrix(rows, (a3, a2, a1), 0)


def hermite_reduce_step(m: LabeledMatrix) -> tuple[int, int, LabeledMatrix]:
    """One division step toward the reduced (Hermite-style) column form.

    Requires the builder's shape: row one is (g, 0) and the column-two pivot
    sits at row two.  Writes entry (row 2, col 1) as q*pivot + r with the
    remainder window -|pivot| < r <= 0, then clears it to r by adding -q
    times column two to column one: each row (x, y) becomes (x - q*y, y).
    That unimodular column move keeps the column span, the label and the
    modulus, and the constructor re-checks annihilation.  Returns
    (q, r, reduced_matrix).
    """
    if len(m.entries) != 3 or len(m.entries[0]) != 2 or m.entries[0][1] != 0:
        raise InvalidInputError("matrix does not have the reduced builder shape")
    pivot = m.entries[1][1]
    if pivot == 0:
        raise InvalidInputError("zero pivot below the leading entry")
    below = m.entries[1][0]
    r = below % abs(pivot)
    if r:
        r -= abs(pivot)
    q = (below - r) // pivot
    rows = tuple((x - q * y, y) for x, y in m.entries)
    return q, r, LabeledMatrix(rows, m.label, m.modulus)


def _collapse(m: LabeledMatrix, i: int, j: int, sign: int) -> "LabeledMatrix | str":
    """Rows i and j of m merged into row i, over Z_n with
    n = |label_i - sign*label_j| and checked by the constructor like any
    other matrix; or, when reducing modulo n puts a loop on the graph (n < 2,
    or n divides a label), the reason as a string."""
    label = m.label
    n = abs(label[i] - sign * label[j])
    if n < 2:
        return f"quotient modulus {n} is degenerate"
    for lab in label:
        if lab % n == 0:
            return f"distance {lab} vanishes modulo {n}"
    merged = tuple(map(add if sign == 1 else sub, m.entries[i], m.entries[j]))
    k = 3 - i - j
    if i < k:
        rows, labels = (merged, m.entries[k]), (label[i] % n, label[k] % n)
    else:
        rows, labels = (m.entries[k], merged), (label[k] % n, label[i] % n)
    return LabeledMatrix(rows, labels, n)


# The six row collapses of a 3-row matrix as (i, j, sign): each row pair
# i < j, subtracted then added.
COLLAPSE_MOVES = ((0, 1, -1), (0, 1, 1), (0, 2, -1), (0, 2, 1), (1, 2, -1), (1, 2, 1))


def collapses(m: LabeledMatrix) -> list[tuple[int, int, int, "LabeledMatrix | str"]]:
    """Every row collapse of the 3-row integer matrix ``m`` as
    (i, j, sign, result), in COLLAPSE_MOVES order.

    Row i becomes row_i + sign*row_j and row j is deleted.  sign = -1
    (subtract) reduces the ambient group modulo label_i + label_j; sign = +1
    (add) reduces modulo |label_i - label_j|.  Surviving labels are reduced
    into [0, n), and result is the relation matrix of the circulant on Z_n
    with those labels.  A quotient that would place a loop on the graph
    (n < 2, or n dividing any label entry) is rejected, and result is then
    the reason as a string.
    """
    if len(m.entries) != 3 or m.modulus != 0:
        raise InvalidInputError("row collapse requires a 3-row matrix over the integers")
    return [(i, j, sign, _collapse(m, i, j, sign)) for i, j, sign in COLLAPSE_MOVES]


def admissible_collapses(m: LabeledMatrix) -> list[tuple[int, int, int, LabeledMatrix]]:
    """The loop-free entries of collapses(m): (i, j, sign, quotient) for
    each move it does not reject, in COLLAPSE_MOVES order."""
    return [move for move in collapses(m) if type(move[3]) is not str]
