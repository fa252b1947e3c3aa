"""Test oracles, written once and imported by the test modules as a plain
module, as ``cli_golden`` is.

Graphs are built here from their definitions as adjacency lists, and
checks are recomputed from scratch, so that a test can re-derive an answer
without the package code that produced it.  The only package code used is
the exact solver in ``circulant`` and the ``LabeledMatrix`` constructor.
"""

from distchroma.circulant import exists_coloring
from distchroma.intmat import LabeledMatrix


def circulant_adjacency(n, gens):
    # Adjacency lists of the circulant on Z_n generated by +-gens.
    conn = {r for g in gens for r in (g % n, -g % n)}
    return [sorted((v + s) % n for s in conn) for v in range(n)]


def segment_adjacency(distances, length):
    # Adjacency lists of vertices 0..length joined at the given distances,
    # each list in the order the distances are given.
    adjacency = [[] for _ in range(length + 1)]
    for v in range(length + 1):
        for s in distances:
            if v + s <= length:
                adjacency[v].append(v + s)
                adjacency[v + s].append(v)
    return adjacency


def properly_colored(n, gens, colors) -> bool:
    # Re-derived from the generators, independent of circulant_adjacency;
    # for a periodic word, n is its period and gens are the distances.
    return all(colors[v] != colors[(v + g) % n] for v in range(n) for g in gens)


def chromatic_number(adjacency):
    # Smallest k with a proper k-coloring, and the coloring found for it.
    for k in range(1, len(adjacency) + 1):
        colors = exists_coloring(adjacency, k)
        if colors is not None:
            return k, colors


def small_modulus_scan(distances, k, limit):
    # The two-loop scan that find_periodic_coloring's first step replaced:
    # the first (m, j), every modulus m = 2 .. min(b + c, limit) with every
    # multiplier j = 1 .. m // 2 in that order, that moves each distance s
    # into the window ceil(m/k) <= j*s mod m <= m - ceil(m/k), or None.
    a, b, c = distances
    for m in range(2, min(b + c, limit) + 1):
        ra, rb, rc = a % m, b % m, c % m
        if not (ra and rb and rc):
            continue  # a loop on Z_m
        lo = -(-m // k)
        hi = m - lo
        for j in range(1, m // 2 + 1):
            if lo <= j * ra % m <= hi and lo <= j * rb % m <= hi and lo <= j * rc % m <= hi:
                return m, j
    return None


def annihilation_residues(m: LabeledMatrix) -> list[int]:
    # Recomputed from scratch so tests do not lean on the constructor check.
    out = []
    for j in range(len(m.entries[0])):
        total = sum(lab * row[j] for lab, row in zip(m.label, m.entries))
        out.append(total if m.modulus == 0 else total % m.modulus)
    return out


def column_move(m: LabeledMatrix, dst: int, factor: int) -> LabeledMatrix:
    # Add factor times the other column to column dst; the constructor re-checks annihilation.
    rows = tuple((x + factor * y, y) if dst == 0 else (x, y + factor * x) for x, y in m.entries)
    return LabeledMatrix(rows, m.label, m.modulus)
