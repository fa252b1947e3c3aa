"""The certificate writer, ``ChiCertificate.to_json``, against
``json.dumps(indent=2)``: directly, and through ``chi --json``."""

import json
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distchroma.cli import iter_triples, main
from distchroma.periodic import LOWER_PARITY, LOWER_SEGMENT, LOWER_TRIVIAL, certify
from distchroma.zhu import ChiBranch, normalize_triple

# The upper-witness cliff (a word of 3^9 colors) and the lower-bound cliffs,
# among them the longest segment the envelope admits.
CLIFF_TRIPLES = [
    (1, 6561, 13122),
    (19, 20, 39),
    (29, 30, 59),
    (35, 141, 176),
    (72, 295, 367),
    (9663, 9851, 19514),
    (1, 2, 999996),
]


def _chi_json(capsys, distances) -> str:
    assert main(["chi", *map(str, distances), "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def _dumped(distances) -> str:
    cert = certify(normalize_triple(*distances))
    return json.dumps(cert.to_json_dict(), indent=2) + "\n"


@pytest.mark.parametrize("scale", [1, 10**39 + 7])
def test_chi_json_is_json_dumps_for_every_small_triple(capsys, scale):
    for t in iter_triples(40):
        distances = [scale * d for d in t.distances()]
        assert _chi_json(capsys, distances) == _dumped(distances), distances


@pytest.mark.parametrize("distances", CLIFF_TRIPLES)
def test_chi_json_is_json_dumps_on_cost_cliffs(capsys, distances):
    assert _chi_json(capsys, distances) == _dumped(distances)


# Coprime triples with c <= 2000, times a scale up to 10**40, in any order.
SCALED_TRIPLES = st.tuples(
    st.tuples(st.integers(1, 2000), st.integers(1, 2000), st.integers(1, 2000)).filter(
        lambda t: gcd(*t) == 1
    ),
    st.integers(1, 10**40),
).flatmap(lambda ts: st.permutations([ts[1] * d for d in ts[0]]))


# Every branch and every lower-bound kind: (1, 3, 5) is ALL_ODD with a
# trivial bound, (1, 2, 4) OTHERWISE with a parity bound, (1, 2, 6)
# A1_B2_3DIVC and (2, 3, 5) SUM_NOT_CONG_MOD3 with segment bounds at
# L = a + b + c = 9 and 10, and (3, 5, 8) with one at L = a + b + c = 16.
@settings(max_examples=200, deadline=None)
@given(SCALED_TRIPLES)
@example([1, 3, 5])
@example([14, 10, 6])
@example([4, 2, 1])
@example([6, 1, 2])
@example([10**40 * 2, 10**40 * 5, 10**40 * 3])
@example([8 * 7, 3 * 7, 5 * 7])
def test_writer_matches_json_dumps(distances):
    cert = certify(normalize_triple(*distances))
    assert cert.to_json() == json.dumps(cert.to_json_dict(), indent=2)


@pytest.mark.parametrize(
    "identifier", [branch.value for branch in ChiBranch] + [LOWER_TRIVIAL, LOWER_PARITY, LOWER_SEGMENT]
)
def test_certificate_identifiers_need_no_escaping(identifier):
    # The writer puts the branch and the lower-bound kind between quotes as
    # they are.
    assert json.dumps(identifier) == f'"{identifier}"'
