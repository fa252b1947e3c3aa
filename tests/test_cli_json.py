"""The certificate writer behind ``chi --json`` against ``json.dumps(indent=2)``."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distchroma.cli import _to_json, iter_triples, main
from distchroma.periodic import certify
from distchroma.zhu import normalize_triple

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


# What the writer accepts: ints, strs, lists of ints, and dicts with str keys
# of any of these, nested.
JSON_VALUES = st.recursive(
    st.one_of(st.integers(), st.text(), st.lists(st.integers())),
    lambda inner: st.dictionaries(st.text(), inner),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({})
@example([])
@example("")
@example({"a": {}, "b": [], "c": {"d": {"e": [0, -1, 10**40]}}})
@example({'"quoted"\\': "it's \"here\"", "naïve ☃": "é\U0001f600\n\t\x00"})
def test_writer_matches_json_dumps(value):
    assert _to_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        True,
        None,
        1.5,
        [1, "a"],
        [0, True],
        [0, None],
        [0, 1.0],
        [[0]],
        {"a": False},
        {"a": None},
        {"a": 0.5},
        {"a": [0, "1"]},
        {"a": {"b": None}},
        {1: 2},
    ],
)
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        _to_json(value)
