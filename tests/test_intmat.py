"""Exact-arithmetic and invariant tests for the labeled-matrix core."""

import hashlib
import json
import random
from dataclasses import FrozenInstanceError
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import annihilation_residues, column_move

from distchroma.errors import InvalidInputError, QuotientLoopsError
from distchroma.intmat import (
    COLLAPSE_MOVES,
    LabeledMatrix,
    admissible_collapses,
    build_heuberger_matrix,
    collapse_rows,
    collapses,
    hermite_reduce_step,
)
from distchroma.zhu import normalize_triple, orient_for_matrix


triples = st.tuples(
    st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)
).map(lambda raw: normalize_triple(*raw))


# ----------------------------------------------------- Bezout pair

def bezout_pair(a1: int, a2: int, a3: int) -> tuple[int, int, int]:
    # The builder's rows are (g, 0), (-v, -a1/g), (-u, a2/g) with
    # a1*u + a2*v == a3*g; read (g, u, v) back off the first column.
    (g, _), (minus_v, _), (minus_u, _) = build_heuberger_matrix(a1, a2, a3).entries
    return g, -minus_u, -minus_v


@given(st.integers(-40, 40).filter(bool), st.integers(-40, 40).filter(bool), st.integers(-40, 40).filter(bool))
def test_solve_bezout_satisfies_relation(a1, a2, a3):
    assume(gcd(a1, a2, a3) == 1)
    g, u, v = bezout_pair(a1, a2, a3)
    assert g == gcd(a1, a2)
    assert a1 * u + a2 * v == a3 * g


@pytest.mark.parametrize(
    "args, expected",
    [
        ((1, 2, 3), (1, 3, 0)),
        ((-1, 4, 2), (1, -2, 0)),
        ((5, 5, 7), (5, 7, 0)),
        # a3 = 1 leaves the unscaled pair.
        ((1, 2, 1), (1, 1, 0)),
        ((12, 20, 1), (4, 2, -1)),
        ((-1, 4, 1), (1, -1, 0)),
        ((5, 5, 1), (5, 1, 0)),
    ],
)
def test_solve_bezout_golden(args, expected):
    assert bezout_pair(*args) == expected


# Small entries hit the edge cases; matrix-verify sends distances up to 10**12.
_bezout_entries = st.one_of(st.integers(-60, 60), st.integers(-10**15, 10**15)).filter(bool)


@given(_bezout_entries, _bezout_entries, st.integers(-7, 7).filter(bool))
def test_bezout_identity_and_balanced_window(a1, a2, a3):
    assume(gcd(a1, a2, a3) == 1)
    g, u, v = bezout_pair(a1, a2, a3)
    assert g == gcd(a1, a2) > 0
    assert a1 * u + a2 * v == a3 * g
    # Before scaling by a3, v sits in the balanced residue window modulo
    # |a1|/g, ties positive.
    assert u % a3 == 0 and v % a3 == 0
    n = abs(a1) // g
    assert -n < 2 * (v // a3) <= n
    assert bezout_pair(a1, a2, a3) == (g, u, v)  # deterministic


# ------------------------------------------------------ LabeledMatrix

def test_constructor_rejects_broken_annihilation():
    with pytest.raises(InvalidInputError):
        LabeledMatrix(((1, 0), (0, 1), (1, 1)), (1, 1, 1), 0)
    # Non-integers are refused rather than truncated: 1*1.7 - 1*1.2 != 0,
    # though int() would make both rows (1, 0); True is not the integer 1.
    for entries in (((1.7, 0), (1.2, 0)), ((True, 0), (1, 0))):
        with pytest.raises(InvalidInputError):
            LabeledMatrix(entries, (1, -1), 0)
    with pytest.raises(InvalidInputError):
        LabeledMatrix(((1, 0), (1, 0)), (True, -1), 0)


def test_constructor_rejects_modulus_one_and_unreduced_labels():
    with pytest.raises(InvalidInputError):
        LabeledMatrix(((1, 0), (0, 1)), (1, 1), 1)
    with pytest.raises(InvalidInputError):
        LabeledMatrix(((5, 0), (0, 5)), (5, 5), 5)


_SQUARE = ((1, 0), (1, 0))  # annihilated by (1, 1) modulo 2
_MESSAGE_INT = "entries and labels must be integers"
_MESSAGE_MODULUS = "modulus must be 0 or at least 2"
_MESSAGE_REDUCED = r"labels must be reduced into \[0, modulus\)"
_MESSAGE_SEQUENCE = "matrix rows and label must be sequences"


@pytest.mark.parametrize(
    "entries, label, modulus, message",
    [
        pytest.param(((1, 0), (1.0, 0)), (1, -1), 0, _MESSAGE_INT, id="float-entry"),
        pytest.param(((1, 0),) * 4, (1, -1, 1, -1), 0, "2 or 3 rows", id="four-rows"),
        pytest.param(((1, 0), (1,)), (1, -1), 0, "equal width", id="ragged"),
        pytest.param(((1, 2, 3), (1, 2, 3)), (1, -1), 0, "equal width", id="three-columns"),
        pytest.param(_SQUARE, (1, -1, 0), 0, "label length", id="label-length"),
        pytest.param(_SQUARE, (1, 1), 1, _MESSAGE_MODULUS, id="modulus-one"),
        pytest.param(_SQUARE, (1, 1), -2, _MESSAGE_MODULUS, id="modulus-negative"),
        pytest.param(_SQUARE, (1, 1), True, _MESSAGE_MODULUS, id="modulus-true"),
        pytest.param(_SQUARE, (0, 0), False, _MESSAGE_MODULUS, id="modulus-false"),
        pytest.param(_SQUARE, (1, 1), 2.0, "modulus must be an integer", id="modulus-float"),
        pytest.param(_SQUARE, (1, 1), "2", "modulus must be an integer", id="modulus-str"),
        pytest.param(_SQUARE, (1, 3), 2, _MESSAGE_REDUCED, id="label-too-large"),
        pytest.param(_SQUARE, (1, -1), 2, _MESSAGE_REDUCED, id="label-negative"),
        pytest.param(((1, 0), (0, 1), (1, 1)), (1, 1, 1), 0, "annihilate column 0", id="column-0"),
        pytest.param(((1, 1), (1, 0)), (1, 1), 2, "annihilate column 1", id="column-1"),
        # Wrong in two ways: the earlier check's message wins.
        pytest.param(((1, 0), (1.5, 0)), (1, -1, 0), "2", _MESSAGE_INT, id="float-and-length"),
        pytest.param(((1, 0), (0, 1), (1, 1)), (1, 1), 0, "label length", id="length-and-column"),
        pytest.param(_SQUARE, (1, 1, 1), 2.0, "label length", id="length-and-modulus"),
        pytest.param(_SQUARE, (1, 5), 2.0, "modulus must be an integer", id="modulus-and-label"),
        pytest.param(((1, 1), (1, 0)), (1, 5), 3, _MESSAGE_REDUCED, id="label-and-column"),
        # Not sequences: each once escaped as a raw TypeError.
        pytest.param((1, 2), (1, 1), 0, _MESSAGE_SEQUENCE, id="int-rows"),
        pytest.param(_SQUARE, 5, 0, _MESSAGE_SEQUENCE, id="int-label"),
        pytest.param(None, (1, 1), 0, _MESSAGE_SEQUENCE, id="no-rows"),
    ],
)
def test_constructor_error_precedence(entries, label, modulus, message):
    with pytest.raises(InvalidInputError, match=message):
        LabeledMatrix(entries, label, modulus)


def test_matrix_value_semantics():
    m = build_heuberger_matrix(1, 2, 3)
    # Rows and label given as lists are stored as tuples.
    same = LabeledMatrix([[1, 0], [0, -1], [-3, 2]], [3, 2, 1])
    assert same.entries == ((1, 0), (0, -1), (-3, 2)) and same.label == (3, 2, 1)
    assert type(same.entries) is tuple and all(type(row) is tuple for row in same.entries)
    assert type(same.label) is tuple
    assert same == m and hash(same) == hash(m) and len({m, same}) == 1
    assert m != LabeledMatrix(m.entries, (-3, -2, -1))
    assert repr(m) == "LabeledMatrix(entries=((1, 0), (0, -1), (-3, 2)), label=(3, 2, 1), modulus=0)"
    for field in ("entries", "label", "modulus"):
        with pytest.raises(FrozenInstanceError):
            setattr(m, field, getattr(m, field))


def test_json_shape():
    m = build_heuberger_matrix(1, 2, 3)
    assert m.to_json_dict() == {
        "entries": [[1, 0], [0, -1], [-3, 2]],
        "label": [3, 2, 1],
        "modulus": 0,
    }


# ------------------------------------------------------------ builder

def test_build_golden_1_2_3():
    m = build_heuberger_matrix(1, 2, 3)
    assert m.entries == ((1, 0), (0, -1), (-3, 2))
    assert m.label == (3, 2, 1)
    assert m.modulus == 0


def test_build_golden_neg1_4_2():
    m = build_heuberger_matrix(-1, 4, 2)
    assert m.entries == ((1, 0), (0, 1), (2, 4))
    assert m.label == (2, 4, -1)


def test_build_rejects_common_factor_and_zero():
    with pytest.raises(InvalidInputError):
        build_heuberger_matrix(2, 4, 6)
    with pytest.raises(InvalidInputError):
        build_heuberger_matrix(0, 1, 2)


@pytest.mark.parametrize("args", [(6, 0, 1), (0, 7, 1), (0, -7, 1), (0, 0, 1), (1, 2, 0)])
def test_build_rejects_zero_distance(args):
    # The Bezout step divides by a1 and inverts a2/g modulo |a1|/g, so a
    # zero distance must be refused before it.
    with pytest.raises(InvalidInputError, match="nonzero"):
        build_heuberger_matrix(*args)


def test_build_matches_alternative_published_form():
    # The same graph is also represented, for the a=1, b=2, 3|c family at
    # c=3, by rows (1,0),(0,-1),(3,2).  Two graph-preserving moves take our
    # matrix there: negate column one, then negate row one together with its
    # label (relabelling that generator by its inverse).
    ours = build_heuberger_matrix(1, 2, 3)
    negated_col = tuple((-row[0], row[1]) for row in ours.entries)
    entries = ((-negated_col[0][0], -negated_col[0][1]),) + negated_col[1:]
    label = (-ours.label[0],) + ours.label[1:]
    alternative = LabeledMatrix(entries, label, 0)
    assert alternative.entries == ((1, 0), (0, -1), (3, 2))
    assert alternative.label == (-3, 2, 1)
    assert annihilation_residues(alternative) == [0, 0]


@given(triples)
def test_build_from_orientation_annihilates(t):
    m = build_heuberger_matrix(*orient_for_matrix(t))
    assert annihilation_residues(m) == [0, 0]
    assert sorted(abs(v) for v in m.label) == list(t.distances())
    assert all(any(e != 0 for e in row) for row in m.entries)


# ------------------------------------------------------- reduce step

def test_reduce_step_golden_windows():
    # (row 2, col 1) = -5 against pivot -3: -5 = 1*(-3) + (-2).
    m = LabeledMatrix(((1, 0), (-5, -3), (1, 1)), (2, 1, 3), 0)
    q, r, reduced = hermite_reduce_step(m)
    assert (q, r) == (1, -2)
    assert reduced.entries == ((1, 0), (-2, -3), (0, 1))
    # 6 against pivot -3: exact division, remainder zero.
    m = LabeledMatrix(((1, 0), (6, -3), (-3, 1)), (3, 1, 3), 0)
    q, r, reduced = hermite_reduce_step(m)
    assert (q, r) == (-2, 0)
    assert reduced.entries == ((1, 0), (0, -3), (-1, 1))


def test_reduce_step_already_reduced_is_identity():
    m = build_heuberger_matrix(1, 2, 3)
    q, r, reduced = hermite_reduce_step(m)
    assert (q, r) == (0, 0)
    assert reduced == m


def test_reduce_step_rejects_wrong_shape():
    broken = LabeledMatrix(((1, 1), (0, -1), (-3, -1)), (3, 2, 1), 0)  # entry (0,1) nonzero
    with pytest.raises(InvalidInputError):
        hermite_reduce_step(broken)
    quotient = collapse_rows(LabeledMatrix(((2, -3), (-1, 0), (0, 1)), (1, 2, 3), 0), 1, 2, -1)
    with pytest.raises(InvalidInputError):
        hermite_reduce_step(quotient)
    zero_pivot = LabeledMatrix(((1, 0), (-1, 0), (0, 0)), (1, 1, 2), 0)  # builder shape, pivot 0
    with pytest.raises(InvalidInputError, match="zero pivot below the leading entry"):
        hermite_reduce_step(zero_pivot)


@given(triples)
def test_reduce_step_window_and_uniqueness(t):
    m = build_heuberger_matrix(*orient_for_matrix(t))
    q, r, reduced = hermite_reduce_step(m)
    pivot = m.entries[1][1]
    below = m.entries[1][0]
    assert -abs(pivot) < r <= 0
    assert below == q * pivot + r
    assert reduced.entries[1][0] == r
    assert annihilation_residues(reduced) == [0, 0]
    # Unique (q, r) with the remainder in the half-open window.
    hits = [
        rr for rr in range(-abs(pivot) + 1, 1) if (below - rr) % pivot == 0
    ]
    assert hits == [r]


# ------------------------------------------------------ row collapse

def test_collapse_golden_modulus_five():
    m = LabeledMatrix(((2, -3), (-1, 0), (0, 1)), (1, 2, 3), 0)
    q = collapse_rows(m, 1, 2, -1)
    assert q.modulus == 5
    assert q.label == (1, 2)
    assert q.entries == ((2, -3), (-1, -1))
    assert annihilation_residues(q) == [0, 0]


def test_collapse_rejects_loops_and_degenerate_modulus():
    m = LabeledMatrix(((2, -3), (-1, 0), (0, 1)), (1, 2, 3), 0)
    with pytest.raises(QuotientLoopsError):
        collapse_rows(m, 0, 1, -1)  # modulus 3 divides the third label
    z = LabeledMatrix(((2, -6), (-1, 0), (0, 1)), (1, 2, 6), 0)
    with pytest.raises(QuotientLoopsError):
        collapse_rows(z, 0, 1, 1)  # modulus |1-2| = 1


def test_collapse_golden_modulus_eight():
    z = LabeledMatrix(((2, -6), (-1, 0), (0, 1)), (1, 2, 6), 0)
    q = collapse_rows(z, 1, 2, -1)
    assert q.modulus == 8
    assert q.label == (1, 2)
    # Reduction mod 8 commutes with the row merge on all three generators:
    # the deleted generator maps to minus the merged one.
    for k in range(3):
        lhs = z.label[k] % 8
        rhs = (-q.label[1]) % 8 if k == 2 else q.label[k] % 8
        assert lhs == rhs


def test_collapse_argument_validation():
    m = LabeledMatrix(((2, -3), (-1, 0), (0, 1)), (1, 2, 3), 0)
    with pytest.raises(InvalidInputError):
        collapse_rows(m, 1, 1, -1)
    with pytest.raises(InvalidInputError):
        collapse_rows(m, 0, 3, -1)
    with pytest.raises(InvalidInputError):
        collapse_rows(m, 0, 1, 2)
    q = collapse_rows(m, 1, 2, -1)
    with pytest.raises(InvalidInputError):
        collapse_rows(q, 0, 1, -1)  # already collapsed: 2 rows, modulus set


@given(triples)
def test_collapse_modulus_formula(t):
    m = build_heuberger_matrix(*orient_for_matrix(t))
    for i, j, sign, quotient in admissible_collapses(m):
        expected = abs(m.label[i] - sign * m.label[j])
        assert quotient.modulus == expected >= 2
        assert len(quotient.entries) == 2
        assert all(0 <= lab < expected for lab in quotient.label)
        assert annihilation_residues(quotient) == [0, 0]


def _collapses_by_raising(m: LabeledMatrix) -> list:
    # Each move's quotient from collapse_rows, or the text of the
    # QuotientLoopsError it raises, checked against the loop rule recomputed
    # here: a rejected move has n < 2 or n dividing a label.
    found = []
    for i, j, sign in COLLAPSE_MOVES:
        n = abs(m.label[i] - sign * m.label[j])
        loops = n < 2 or any(lab % n == 0 for lab in m.label)
        try:
            quotient = collapse_rows(m, i, j, sign)
        except QuotientLoopsError as exc:
            assert loops
            found.append((i, j, sign, str(exc)))
            continue
        assert not loops
        found.append((i, j, sign, quotient))
    return found


def _assert_collapse_paths_agree(m: LabeledMatrix) -> None:
    found = _collapses_by_raising(m)
    assert collapses(m) == found
    assert admissible_collapses(m) == [move for move in found if type(move[3]) is not str]


def _oriented_matrices(t):
    m = build_heuberger_matrix(*orient_for_matrix(t))
    return m, hermite_reduce_step(m)[2]


def test_collapse_paths_agree_small_triples():
    for c in range(1, 31):
        for b in range(1, c + 1):
            for a in range(1, b + 1):
                if gcd(a, b, c) == 1:
                    for m in _oriented_matrices(normalize_triple(a, b, c)):
                        _assert_collapse_paths_agree(m)


@given(st.tuples(*[st.integers(1, 10**15)] * 3).map(lambda raw: normalize_triple(*raw)))
def test_collapse_paths_agree_large_triples(t):
    for m in _oriented_matrices(t):
        _assert_collapse_paths_agree(m)


@settings(max_examples=60)
@given(triples, st.integers(-6, 6), st.permutations([0, 1]))
def test_random_column_moves_preserve_annihilation(t, factor, cols):
    m = build_heuberger_matrix(*orient_for_matrix(t))
    moved = column_move(m, cols[1], factor)
    assert annihilation_residues(moved) == [0, 0]
    assert moved.label == m.label
    assert moved.modulus == m.modulus


# ------------------------------------------------------ golden pipeline

def _pipeline_record(t) -> str:
    orient = orient_for_matrix(t)
    m = build_heuberger_matrix(*orient)
    q, r, reduced = hermite_reduce_step(m)
    collapses = [
        [i, j, sign, quotient.to_json_dict()]
        for i, j, sign, quotient in admissible_collapses(m)
    ]
    return json.dumps(
        [list(orient), m.to_json_dict(), q, r, reduced.to_json_dict(), collapses],
        sort_keys=True,
    )


def test_pipeline_golden_digest():
    # One hash over every stage's output: each coprime triple with c <= 30,
    # then 2,000 triples with entries up to 10**15 from a fixed seed.
    small = [
        normalize_triple(a, b, c)
        for c in range(1, 31)
        for b in range(1, c + 1)
        for a in range(1, b + 1)
        if gcd(a, b, c) == 1
    ]
    rng = random.Random(20240517)
    large = [normalize_triple(*(rng.randint(1, 10**15) for _ in range(3))) for _ in range(2000)]
    digest = hashlib.sha256()
    for t in small + large:
        digest.update(_pipeline_record(t).encode())
        digest.update(b"\n")
    assert len(small) == 4027
    assert digest.hexdigest() == "d405c6a4807c3a18dae741dc4a95145f8e4e20cf8e3eb2508e9f2eaed435625a"
