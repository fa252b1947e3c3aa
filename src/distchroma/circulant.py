"""Circulant graphs on Z_n and exact coloring search.

The periodic constructor falls back to this search only when no rotation
word exists, which includes every request for fewer colors than the
chromatic number: there the exhausted search is the refutation.  Those
answers must be exact, so the search is plain backtracking: no heuristics
beyond pinning vertex 0 and introducing new colors in increasing order,
and every coloring the search emits is re-checked against the adjacency
lists before it is returned.
"""

from dataclasses import dataclass

from .errors import InvalidInputError, QuotientLoopsError


@dataclass(frozen=True)
class Circulant:
    """Cayley graph on Z_n with a symmetric, loop-free connection set."""

    n: int
    conn: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "conn", frozenset(self.conn))
        if self.n < 2:
            raise InvalidInputError("circulant modulus must be at least 2")
        for s in self.conn:
            if not 0 < s < self.n:
                raise InvalidInputError("connection residues must lie in [1, n-1]")
            if (self.n - s) not in self.conn:
                raise InvalidInputError("connection set must be closed under negation")

    def adjacency(self) -> list[list[int]]:
        return [sorted((v + s) % self.n for s in self.conn) for v in range(self.n)]


@dataclass(frozen=True)
class Coloring:
    """Proper coloring witness: one color per vertex, drawn from [0, k)."""

    colors: tuple[int, ...]
    k: int


def make_circulant(n: int, gens: list[int]) -> Circulant:
    """Reduce the generators mod n and close under negation.

    A generator divisible by n would be a loop, which no proper coloring
    tolerates, so it is rejected outright.
    """
    if n < 2:
        raise InvalidInputError("circulant modulus must be at least 2")
    conn = set()
    for g in gens:
        r = g % n
        if r == 0:
            raise QuotientLoopsError(f"generator {g} vanishes modulo {n}")
        conn.add(r)
        conn.add(n - r)
    return Circulant(n, frozenset(conn))


def is_proper(adjacency: list[list[int]], colors) -> bool:
    """Check a coloring against adjacency lists, vertex by vertex."""
    return all(
        colors[v] != colors[u] for v in range(len(adjacency)) for u in adjacency[v]
    )


def backtrack_coloring(adjacency: list[list[int]], k: int) -> "list[int] | None":
    """Exact k-coloring of an adjacency-list graph, or None.

    Vertex 0 is pinned to color 0, and a vertex may use at most one color
    index beyond those already placed; that removes color permutations from
    the search space without losing completeness.
    """
    n = len(adjacency)
    if n == 0:
        return []
    if k < 1:
        return None
    colors = [-1] * n
    colors[0] = 0

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        taken = {colors[u] for u in adjacency[v] if colors[u] >= 0}
        for c in range(min(k - 1, used) + 1):
            if c in taken:
                continue
            colors[v] = c
            if extend(v + 1, max(used, c + 1)):
                return True
        colors[v] = -1
        return False

    return colors if extend(1, 1) else None


def exists_coloring(c: Circulant, k: int) -> "Coloring | None":
    """A proper k-coloring of the circulant, or None when none exists."""
    adjacency = c.adjacency()
    found = backtrack_coloring(adjacency, k)
    if found is None:
        return None
    if not is_proper(adjacency, found):
        raise RuntimeError("internal error: search produced an improper coloring")
    return Coloring(tuple(found), k)


def chromatic_number(c: Circulant) -> tuple[int, Coloring]:
    """Smallest k admitting a proper coloring, with a witness.

    Starts at k = 2 (a loop-free circulant with edges is never
    1-colorable) and succeeds by k = n at the latest; failure at k - 1 is
    certified by the exhausted search.
    """
    for k in range(2, c.n + 1):
        witness = exists_coloring(c, k)
        if witness is not None:
            return (k, witness)
    raise AssertionError("unreachable: n colors always suffice")
