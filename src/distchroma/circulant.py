"""Circulant graphs on Z_n and the exact coloring solver.

backtrack_coloring decides whether a segment of the distance graph can be
colored with one color fewer than the chromatic number; that exhausted
search is the lower-bound witness, so the solver is exact: it prunes only
by forward checking, unit propagation and the interchangeability of unused
colors, never by a heuristic cut-off.  It orders vertices by fewest
remaining colors (DSatur), with a scan that stops at min(k, 2) colors,
the fewest unit propagation leaves, and keeps its state on explicit
stacks.  The circulants, exists_coloring and chromatic_number are an
exact oracle for the tests, not part of any certificate; every coloring
exists_coloring emits is re-checked against the adjacency lists.
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

    Each vertex keeps its remaining colors as a bitmask.  Placing a color
    strikes it from every uncolored neighbor (forward checking); a neighbor
    left with one color takes it at once (unit propagation) and one left
    with none refutes the branch.  Every change is logged on a trail and
    undone on backtracking, and the search runs on an explicit stack, so
    depth is bounded by memory, not by the interpreter's recursion limit.

    The next vertex to branch on has the fewest remaining colors, ties going
    to the lowest index (DSatur).  An ascending scan stops at the first
    uncolored vertex with min(k, 2) colors, as propagation leaves none with
    fewer.  Colors no vertex uses yet are interchangeable, so a branch tries
    the colors in use and only the lowest unused one: vertex 0 gets color 0
    and no color permutation is searched twice.  Completeness is kept, so
    None means no proper k-coloring exists.
    """
    n = len(adjacency)
    if n == 0:
        return []
    if k < 1:
        return None
    full = (1 << k) - 1
    domain = [full] * n
    colors = [-1] * n
    # Undo log: u * k + c for color c struck from u, ~v for v colored.
    trail = []
    used = 0  # bitmask of the colors placed so far
    # Propagation colors or refutes every vertex left with fewer than
    # min(k, 2) colors, so the scan stops at the first with that many.
    floor = min(k, 2)

    def next_vertex() -> int:
        best, fewest = -1, k + 1
        for v, color in enumerate(colors):
            if color < 0:
                left = domain[v].bit_count()
                if left < fewest:
                    best, fewest = v, left
                    if left == floor:
                        break
        return best

    def undo(mark: int) -> None:
        while len(trail) > mark:
            entry = trail.pop()
            if entry < 0:
                colors[~entry] = -1
            else:
                v, c = divmod(entry, k)
                domain[v] |= 1 << c

    def propagate(vertex: int) -> bool:
        """Strike the colors of vertex, and of every vertex it forces, from
        their neighbors; False on a conflict."""
        nonlocal used
        pending = [vertex]
        while pending:
            v = pending.pop()
            c = colors[v]
            bit = 1 << c
            used |= bit
            for u in adjacency[v]:
                if colors[u] >= 0:
                    if colors[u] == c:
                        return False
                    continue
                d = domain[u]
                if d & bit:
                    d ^= bit
                    domain[u] = d
                    trail.append(u * k + c)
                    left = d.bit_count()
                    if left == 0:
                        return False
                    if left == 1:
                        colors[u] = d.bit_length() - 1
                        trail.append(~u)
                        pending.append(u)
        return True

    # Branch frames: [vertex, colors left to try, trail mark, colors in use].
    stack = []
    while True:
        vertex = next_vertex()
        if vertex < 0:
            return colors
        fresh = full & ~used
        options = domain[vertex] & (used | (fresh & -fresh))
        stack.append([vertex, options, len(trail), used])
        while True:
            if not stack:
                return None
            frame = stack[-1]
            vertex, options, mark, used = frame
            undo(mark)
            if not options:
                stack.pop()
                continue
            bit = options & -options
            frame[1] = options ^ bit
            colors[vertex] = bit.bit_length() - 1
            trail.append(~vertex)
            if propagate(vertex):
                break


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
