"""The exact coloring solver for adjacency-list graphs.

No program path runs it: periodic.segment_colorable refutes a segment by
its forced-equal classes alone.  backtrack_coloring is the reference the
tests check that refutation against, on whole uncontracted segments.  A
reference must be exact, so it prunes only by forward checking, unit
propagation and the interchangeability of unused colors, never by a
heuristic cut-off.  It orders vertices by fewest remaining colors (DSatur), with a
scan that stops at min(k, 2) colors, the fewest unit propagation leaves,
and keeps its state on explicit stacks.  exists_coloring is the same
search with every coloring it returns re-checked against the adjacency
lists.
"""


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


def exists_coloring(adjacency: list[list[int]], k: int) -> "list[int] | None":
    """A proper k-coloring of the adjacency-list graph, or None when none
    exists; the solver's answer is re-checked edge by edge."""
    found = backtrack_coloring(adjacency, k)
    if found is not None and any(
        found[v] == found[u] for v, near in enumerate(adjacency) for u in near
    ):
        raise RuntimeError("internal error: search produced an improper coloring")
    return found
