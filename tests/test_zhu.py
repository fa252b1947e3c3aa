"""Tests for triple normalization, orientation, and the classification."""

from dataclasses import FrozenInstanceError
from itertools import permutations, product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from distchroma.errors import InvalidInputError
from distchroma.intmat import build_heuberger_matrix
from distchroma.zhu import (
    ChiBranch,
    DistanceTriple,
    chi_formula,
    is_bipartite,
    normalize_triple,
    orient_for_matrix,
)

triples = st.tuples(
    st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)
).map(lambda raw: normalize_triple(*raw))


# ------------------------------------------------------ normalization

@pytest.mark.parametrize(
    "raw, expected, scale",
    [
        ((3, 1, 5), (1, 3, 5), 1),
        ((2, 4, 6), (1, 2, 3), 2),
        ((7, 7, 7), (1, 1, 1), 7),
    ],
)
def test_normalize_golden(raw, expected, scale):
    t = normalize_triple(*raw)
    assert t.distances() == expected
    assert t.scale == scale


def test_normalize_rejects_nonpositive():
    with pytest.raises(InvalidInputError):
        normalize_triple(0, 2, 3)
    with pytest.raises(InvalidInputError):
        normalize_triple(1, -2, 3)


def test_triple_constructor_validates():
    with pytest.raises(InvalidInputError):
        DistanceTriple(2, 1, 3)
    with pytest.raises(InvalidInputError):
        DistanceTriple(2, 4, 6)
    with pytest.raises(InvalidInputError):
        DistanceTriple(1, 2, 3, scale=0)
    # Exact int types: True would reach a certificate's JSON as true, and a
    # float or a string would escape as a raw TypeError from the checks.
    for args in ((True, 2, 3), (1, True, 3), (1, 2, 3.0), (1.5, 2, 3), ("1", 2, 3)):
        with pytest.raises(InvalidInputError, match="must be integers"):
            DistanceTriple(*args)
    for scale in (True, 2.0, "2"):
        with pytest.raises(InvalidInputError, match="must be integers"):
            DistanceTriple(1, 2, 3, scale=scale)


def test_triple_value_semantics():
    t = DistanceTriple(2, 3, 7, scale=5)
    assert t == DistanceTriple(2, 3, 7, 5) and hash(t) == hash(DistanceTriple(2, 3, 7, 5))
    assert t != DistanceTriple(2, 3, 7) and len({t, DistanceTriple(2, 3, 7, 5)}) == 1
    assert repr(t) == "DistanceTriple(a=2, b=3, c=7, scale=5)"
    for field in ("a", "b", "c", "scale"):
        with pytest.raises(FrozenInstanceError):
            setattr(t, field, 1)
    assert t.distances() == (2, 3, 7) and t.scale == 5


@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30))
def test_normalize_postconditions(x, y, z):
    t = normalize_triple(x, y, z)
    assert 1 <= t.a <= t.b <= t.c
    assert gcd(t.a, t.b, t.c) == 1
    assert sorted((x, y, z)) == [t.scale * v for v in t.distances()]


# -------------------------------------------------------- orientation

@pytest.mark.parametrize(
    "raw, expected",
    [
        ((1, 2, 3), (1, 2, 3)),
        ((2, 2, 5), (-2, 5, 2)),
        ((1, 3, 5), (1, 5, 3)),
    ],
)
def test_orient_golden(raw, expected):
    assert orient_for_matrix(normalize_triple(*raw)) == expected


@given(triples)
def test_orient_postconditions(t):
    a1, a2, a3 = orient_for_matrix(t)
    assert sorted((abs(a1), abs(a2), abs(a3))) == list(t.distances())
    assert (a1 + a2) % 3 == 0
    assert -a1 <= a2
    assert abs(a1) <= abs(a2)
    # repeated calls give identical matrices downstream
    assert orient_for_matrix(t) == (a1, a2, a3)


def old_orient_scan(t):
    # Reference: all 48 signed arrangements, descending value permutations
    # first, then sign patterns with + before -.
    for perm in permutations(sorted(t.distances(), reverse=True)):
        for signs in product((1, -1), repeat=3):
            a1, a2, a3 = (s * v for s, v in zip(signs, perm))
            if (a1 + a2) % 3 == 0 and -a1 <= a2 and abs(a1) <= abs(a2):
                return (a1, a2, a3)
    raise AssertionError("no orientation")


_huge = st.integers(1, 10**15)


@given(st.tuples(_huge, _huge, _huge).map(lambda raw: normalize_triple(*raw)))
def test_orient_matches_old_scan_large(t):
    assert orient_for_matrix(t) == old_orient_scan(t)


def test_orient_matches_old_scan_exhaustive():
    for c in range(1, 41):
        for b in range(1, c + 1):
            for a in range(1, b + 1):
                if gcd(a, b, c) == 1:
                    t = DistanceTriple(a, b, c)
                    assert orient_for_matrix(t) == old_orient_scan(t), t


# ----------------------------------------------------- classification

@pytest.mark.parametrize(
    "raw, chi, branch",
    [
        ((1, 3, 5), 2, ChiBranch.ALL_ODD),
        ((1, 2, 6), 4, ChiBranch.A1_B2_3DIVC),
        ((2, 3, 5), 4, ChiBranch.SUM_NOT_CONG_MOD3),
        ((3, 4, 7), 4, ChiBranch.SUM_NOT_CONG_MOD3),
        ((1, 2, 4), 3, ChiBranch.OTHERWISE),
    ],
)
def test_chi_golden(raw, chi, branch):
    assert chi_formula(normalize_triple(*raw)) == (chi, branch)


def test_chi_overlapping_conditions_report_first_branch():
    # (1, 2, 3) satisfies both four-color conditions; the earlier one wins.
    assert chi_formula(normalize_triple(1, 2, 3)) == (4, ChiBranch.A1_B2_3DIVC)


@given(triples)
def test_chi_range_and_branch_chain(t):
    chi, branch = chi_formula(t)
    assert chi in (2, 3, 4)
    a, b, c = t.distances()
    conditions = [
        (ChiBranch.ALL_ODD, a % 2 == b % 2 == c % 2 == 1),
        (ChiBranch.A1_B2_3DIVC, a == 1 and b == 2 and c % 3 == 0),
        (ChiBranch.SUM_NOT_CONG_MOD3, a + b == c and a % 3 != b % 3),
        (ChiBranch.OTHERWISE, True),
    ]
    first = next(tag for tag, holds in conditions if holds)
    assert branch == first


@given(triples, st.integers(1, 5))
def test_chi_scaling_invariance(t, d):
    scaled = normalize_triple(d * t.a, d * t.b, d * t.c)
    assert chi_formula(scaled)[0] == chi_formula(t)[0]


# ------------------------------------------------------- bipartiteness

@pytest.mark.parametrize(
    "raw, expected",
    [((1, 3, 5), True), ((1, 2, 3), False), ((3, 5, 7), True)],
)
def test_is_bipartite_golden(raw, expected):
    assert is_bipartite(normalize_triple(*raw)) is expected


@given(triples)
def test_bipartite_iff_two_colors_iff_even_column_sums(t):
    chi, _ = chi_formula(t)
    m = build_heuberger_matrix(*orient_for_matrix(t))
    sums_even = all(
        sum(row[j] for row in m.entries) % 2 == 0 for j in range(len(m.entries[0]))
    )
    assert is_bipartite(t) == (chi == 2) == sums_even
