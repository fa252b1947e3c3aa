"""The library's input contract: a public function that takes a number
returns a value or raises InvalidInputError, whatever the argument's type.
CertificationError means only that a valid number of colors (a positive
int) has no witness; QuotientLoopsError only that valid row indices and
sign give a quotient with a loop.  No other exception escapes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distchroma.errors import MAX_DIGITS, CertificationError, InvalidInputError, QuotientLoopsError
from distchroma.intmat import build_heuberger_matrix, collapse_rows
from distchroma.periodic import (
    MAX_WORD_LENGTH,
    find_periodic_coloring,
    lower_bound,
    segment_colorable,
    upper_bound,
)
from distchroma.zhu import DistanceTriple, normalize_triple

# Anything a caller might pass where a number is expected.
values = st.one_of(
    st.integers(-3, 40),
    st.integers(-(10**40), 10**40),
    st.integers(10 ** (MAX_DIGITS - 1), 10 ** (MAX_DIGITS + 1)),
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
    st.none(),
)
triples = st.tuples(
    st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)
).map(lambda raw: normalize_triple(*raw))


def valid_colors(k) -> bool:
    return type(k) is int and k >= 1


def outcome(fn, *args):
    """The function's value, or the type of the library error it raised."""
    try:
        return fn(*args)
    except (InvalidInputError, CertificationError, QuotientLoopsError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(values, values, values)
def test_triples_take_ints_only(x, y, z):
    for fn in (normalize_triple, DistanceTriple, build_heuberger_matrix):
        result = outcome(fn, x, y, z)
        assert result is InvalidInputError or not isinstance(result, type), fn
        if not isinstance(result, type):
            assert type(x) is type(y) is type(z) is int


@settings(max_examples=300, deadline=None)
@given(triples, values)
def test_colors_take_ints_only(t, k):
    for fn in (find_periodic_coloring, upper_bound, lower_bound):
        result = outcome(fn, t, k)
        if result is CertificationError:
            assert valid_colors(k), fn
        else:
            assert result is InvalidInputError or not isinstance(result, type), fn
        if not isinstance(result, type) and result is not None:
            assert type(k) is int


@settings(max_examples=300, deadline=None)
@given(triples, values, values)
def test_segment_takes_ints_only(t, length, k):
    # past MAX_WORD_LENGTH a segment is refused before memory is allocated
    result = outcome(segment_colorable, t, length, k)
    assert result is InvalidInputError or type(result) is bool
    if type(result) is bool:
        assert type(length) is type(k) is int and k == 3


@settings(max_examples=200, deadline=None)
@given(values, values, values)
def test_collapse_takes_ints_only(i, j, sign):
    m = build_heuberger_matrix(1, 2, 3)
    result = outcome(collapse_rows, m, i, j, sign)
    if result is QuotientLoopsError or not isinstance(result, type):
        assert type(i) is type(j) is type(sign) is int
    else:
        assert result is InvalidInputError


@pytest.mark.parametrize(
    "call",
    [
        lambda: normalize_triple("1", 2, 3),
        lambda: normalize_triple(1.5, 2, 3),
        lambda: normalize_triple(None, 2, 3),
        lambda: normalize_triple(True, 2, 3),
        lambda: build_heuberger_matrix(1.0, 2, 3),
        lambda: lower_bound(normalize_triple(1, 2, 4), 2.0),
        lambda: lower_bound(normalize_triple(1, 2, 4), "1"),
        lambda: upper_bound(normalize_triple(1, 2, 4), 2.5),
        lambda: upper_bound(normalize_triple(1, 2, 4), True),
        lambda: upper_bound(normalize_triple(1, 2, 4), 0),
        lambda: find_periodic_coloring(normalize_triple(1, 2, 4), 3.0),
        lambda: collapse_rows(build_heuberger_matrix(1, 2, 3), 0.0, 1, 1),
        lambda: segment_colorable(normalize_triple(2, 3, 5), 8, 3.0),
        lambda: segment_colorable(normalize_triple(2, 3, 5), 8, "3"),
        lambda: segment_colorable(normalize_triple(2, 3, 5), 8.0, 3),
        lambda: segment_colorable(normalize_triple(2, 3, 5), MAX_WORD_LENGTH + 1, 3),
    ],
    ids=[
        "normalize-str",
        "normalize-float",
        "normalize-none",
        "normalize-bool",
        "matrix-float",
        "lower-float",
        "lower-str",
        "upper-float",
        "upper-bool",
        "upper-zero",
        "find-float",
        "collapse-float-row",
        "segment-float-colors",
        "segment-str-colors",
        "segment-float-length",
        "segment-past-envelope",
    ],
)
def test_known_escapes_are_invalid_input(call):
    # Each of these once escaped: it returned a value, or raised TypeError
    # or CertificationError.
    with pytest.raises(InvalidInputError):
        call()
