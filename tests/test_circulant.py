"""Tests for the exact coloring search, on circulants and small graphs."""

from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import chromatic_number, circulant_adjacency, properly_colored, segment_adjacency

from distchroma.circulant import backtrack_coloring, exists_coloring


# ------------------------------------------------------------- search

def test_exists_coloring_golden():
    k5 = circulant_adjacency(5, [1, 2])
    assert exists_coloring(k5, 4) is None
    k4 = circulant_adjacency(4, [1, 2, 3])
    assert exists_coloring(k4, 4) == [0, 1, 2, 3]

    c7 = circulant_adjacency(7, [1, 2])
    assert exists_coloring(c7, 3) is None
    witness = exists_coloring(c7, 4)
    assert witness is not None
    assert properly_colored(7, [1, 2], witness)


def test_exists_coloring_monotone_in_k():
    c7 = circulant_adjacency(7, [1, 2])
    assert exists_coloring(c7, 4) is not None
    assert exists_coloring(c7, 5) is not None


def test_search_pins_vertex_zero_and_orders_colors():
    c6 = circulant_adjacency(6, [1])
    assert exists_coloring(c6, 2) == [0, 1, 0, 1, 0, 1]


def test_exists_coloring_rechecks_the_solver(monkeypatch):
    triangle = [[1, 2], [0, 2], [0, 1]]
    monkeypatch.setattr("distchroma.circulant.backtrack_coloring", lambda adjacency, k: [0, 0, 0])
    with pytest.raises(RuntimeError, match="improper coloring"):
        exists_coloring(triangle, 3)


def test_backtrack_coloring_edge_cases():
    assert backtrack_coloring([], 1) == []
    assert backtrack_coloring([[]], 1) == [0]
    assert backtrack_coloring([[1], [0]], 1) is None
    assert backtrack_coloring([[1], [0]], 0) is None


def brute_force_colorable(n, edges, k) -> bool:
    # Reference answer: try every assignment of k colors to n vertices.
    return any(
        all(colors[u] != colors[v] for u, v in edges)
        for colors in product(range(k), repeat=n)
    )


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [pair for pair, kept in zip(pairs, keep) if kept]


# Few small graphs force a backtrack, so the search needs many examples to
# exercise the undo path; the explicit examples each need one.
@settings(max_examples=500, deadline=None)
@given(small_graphs(), st.integers(0, 4))
@example((6, [(0, 1), (0, 2), *combinations(range(1, 6), 2)]), 4)
@example(
    (6, [(0, 2), (0, 3), (1, 2), (1, 4), (1, 5), (2, 3), (3, 4), (3, 5), (4, 5)]), 3
)
@example(
    (7, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2),
         (1, 3), (1, 5), (3, 4), (3, 6), (4, 6), (5, 6)]),
    3,
)
def test_backtrack_coloring_matches_brute_force(graph, k):
    n, edges = graph
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    found = backtrack_coloring(adjacency, k)
    assert (found is not None) == brute_force_colorable(n, edges, k)
    if found is not None:
        assert len(found) == n
        assert all(0 <= color < k for color in found)
        assert all(found[u] != found[v] for u, v in edges)


def test_backtrack_coloring_long_odd_cycle():
    # Deeper than the interpreter's recursion limit.
    n = 5001
    adjacency = [[(v - 1) % n, (v + 1) % n] for v in range(n)]
    assert backtrack_coloring(adjacency, 2) is None
    found = backtrack_coloring(adjacency, 3)
    assert found is not None
    assert all(0 <= color < 3 for color in found)
    assert all(found[v] != found[(v + 1) % n] for v in range(n))


# First colorings found with DSatur order (fewest colors left, ties to the
# lowest index).  Branching on the lowest uncolored index instead returns a
# different coloring for each, so a change of vertex order shows here.
@pytest.mark.parametrize(
    "adjacency, k, expected",
    [
        (segment_adjacency((2, 5, 9), 14), 3,
         [0, 1, 1, 0, 0, 1, 2, 0, 1, 1, 0, 0, 1, 2, 0]),
        (segment_adjacency((1, 3, 4), 6), 4, [0, 1, 2, 1, 2, 0, 3]),
        (circulant_adjacency(13, [1, 5]), 4,
         [0, 1, 0, 1, 2, 1, 2, 1, 2, 0, 2, 0, 3]),
    ],
    ids=["segment-2-5-9", "segment-1-3-4", "circulant-13"],
)
def test_backtrack_coloring_branching_order_golden(adjacency, k, expected):
    assert backtrack_coloring(adjacency, k) == expected


def test_exists_coloring_large_circulant():
    c = circulant_adjacency(1500, [1, 2, 3])
    witness = exists_coloring(c, 4)
    assert witness is not None
    assert properly_colored(1500, [1, 2, 3], witness)
    assert exists_coloring(c, 3) is None  # vertices 0..3 form a 4-clique


# --------------------------------------------------- chromatic number

def test_chromatic_number_golden():
    assert chromatic_number(circulant_adjacency(5, [1, 2]))[0] == 5
    assert chromatic_number(circulant_adjacency(6, [1]))[0] == 2
    # Quotient used for the (1, 2, 6) distance graph: must be four-chromatic.
    assert chromatic_number(circulant_adjacency(8, [1, 2, 6]))[0] == 4


@pytest.mark.parametrize("n", range(3, 31))
def test_cycles(n):
    k, witness = chromatic_number(circulant_adjacency(n, [1]))
    assert k == (2 if n % 2 == 0 else 3)
    assert properly_colored(n, [1], witness)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_complete_graph_needs_n_colors(n):
    k, witness = chromatic_number(circulant_adjacency(n, list(range(1, n))))
    assert k == n
    assert witness == list(range(n))


@settings(deadline=None)
@given(st.integers(3, 16), st.lists(st.integers(1, 15), min_size=1, max_size=3))
def test_witnesses_are_always_proper(n, gens):
    if any(g % n == 0 for g in gens):
        return
    c = circulant_adjacency(n, gens)
    k, witness = chromatic_number(c)
    assert properly_colored(n, gens, witness)
    assert max(witness) + 1 <= k
    assert exists_coloring(c, k - 1) is None
