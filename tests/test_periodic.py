"""Tests for periodic colorings, lower-bound witnesses, and certificates."""

import json
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import properly_colored, segment_adjacency, small_modulus_scan

from distchroma import periodic
from distchroma.circulant import backtrack_coloring
from distchroma.cli import iter_triples, main
from distchroma.errors import MAX_DIGITS, CertificationError, InvalidInputError
from distchroma.periodic import (
    ChiCertificate,
    LOWER_PARITY,
    LOWER_SEGMENT,
    LOWER_TRIVIAL,
    MAX_WORD_LENGTH,
    SMALL_MODULUS_LIMIT,
    PeriodicColoring,
    _collapse_multiplier,
    _least_multiple_in,
    certify,
    find_periodic_coloring,
    lower_bound,
    segment_colorable,
    upper_bound,
    verify_periodic,
    word_is_proper,
)
from distchroma.zhu import ChiBranch, DistanceTriple, chi_formula, normalize_triple

triples = st.tuples(
    st.integers(1, 20), st.integers(1, 20), st.integers(1, 20)
).map(lambda raw: normalize_triple(*raw))


# ------------------------------------------------ coloring construction

def test_find_periodic_coloring_golden():
    pc = find_periodic_coloring(normalize_triple(1, 3, 5), 2)
    assert (pc.period, pc.colors) == (2, (0, 1))
    pc = find_periodic_coloring(normalize_triple(1, 2, 3), 4)
    assert (pc.period, pc.colors) == (4, (0, 1, 2, 3))
    pc = find_periodic_coloring(normalize_triple(1, 2, 4), 3)
    assert (pc.period, pc.colors) == (3, (0, 1, 2))


def test_rotation_word_golden():
    pc = find_periodic_coloring(normalize_triple(2, 3, 5), 4)
    assert (pc.period, pc.colors) == (4, (0, 1, 2, 3))
    # x -> floor(4 * (3x mod 7) / 7); no modulus below 7 admits a word
    pc = find_periodic_coloring(normalize_triple(1, 3, 4), 4)
    assert (pc.period, pc.colors) == (7, (0, 1, 3, 1, 2, 0, 2))


def test_rotation_word_found_without_search():
    # Every coprime triple up to c = 60 has a rotation word with period
    # <= b + c at the chromatic number and one color above it, found at a
    # small modulus or a sum modulus.
    for t in iter_triples(60):
        chi, _ = chi_formula(t)
        for k in (chi, chi + 1):
            pc = find_periodic_coloring(t, k)
            assert 2 <= pc.period <= t.b + t.c
            assert all(0 <= color < k for color in pc.colors)
            assert word_is_proper(t.distances(), pc.colors)
            assert_no_difference_modulus_comes_first(t, k, pc.period)


def assert_no_difference_modulus_comes_first(t, k, period):
    # Past the small moduli only the sums s + t are tried.  A difference
    # |s - t| below the word's period that admitted a multiplier would have
    # given an earlier word; none does, so trying them changes no answer.
    a, b, c = t.distances()
    for m in {b - a, c - a, c - b}:
        if SMALL_MODULUS_LIMIT < m < period:
            folded = sorted({min(r, m - r) for r in (a % m, b % m, c % m)})
            assert _collapse_multiplier(m, k, folded[0], folded[-1]) is None, (t.distances(), k, m)


def assert_small_moduli_match_the_scan(t, k):
    # Step 1 of find_periodic_coloring returns the word of the first (m, j)
    # the two-loop scan finds; when the scan finds none, any word comes from
    # a sum modulus above SMALL_MODULUS_LIMIT.
    hit = small_modulus_scan(t.distances(), k, SMALL_MODULUS_LIMIT)
    try:
        pc = find_periodic_coloring(t, k)
    except InvalidInputError as exc:
        assert hit is None and "MAX_WORD_LENGTH" in str(exc)
        return
    if hit is None:
        assert pc is None or pc.period > SMALL_MODULUS_LIMIT
    else:
        m, j = hit
        assert (pc.period, pc.colors) == (m, tuple(k * (j * x % m) // m for x in range(m)))


def test_small_moduli_match_the_scan():
    for t in iter_triples(60):
        for k in range(1, 7):
            assert_small_moduli_match_the_scan(t, k)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(*[st.integers(1, 10**12)] * 3),
    # 63 and 64 read their own tables, 65 and 10**40 the table of 64
    st.integers(1, 8) | st.sampled_from([63, 64, 65, 10**40]),
)
def test_small_moduli_match_the_scan_for_large_distances(raw, k):
    assert_small_moduli_match_the_scan(normalize_triple(*raw), k)


def test_rotation_word_at_collapse_modulus():
    # No modulus up to 64 admits a 3-coloring word; the sum modulus
    # b + c = 69 = 3 * 23 does, though no distance is a unit mod 69.
    t = normalize_triple(3, 23, 46)
    pc = find_periodic_coloring(t, 3)
    assert pc.period == 69
    assert verify_periodic(t, pc)


def brute_force_multipliers(m, k, r1, r2):
    arc = -(-m // k)
    return [j for j in range(1, m) if arc <= j * r1 % m <= m - arc and arc <= j * r2 % m <= m - arc]


@st.composite
def residue_cases(draw):
    m = draw(st.integers(2, 300))
    k = draw(st.integers(2, 5))
    # a shared factor with m makes a residue a non-unit
    factors = st.sampled_from([1, 2, 3, 4, 5, 6, 9])
    r1 = draw(factors) * draw(st.integers(0, m - 1)) % m
    r2 = draw(factors) * draw(st.integers(0, m - 1)) % m
    return m, k, r1, r2


@settings(max_examples=1000, deadline=None)
@given(residue_cases())
def test_collapse_multiplier_matches_brute_force(case):
    m, k, r1, r2 = case
    j = _collapse_multiplier(m, k, r1, r2)
    expected = brute_force_multipliers(m, k, r1, r2)
    if j is None:
        assert expected == []
    else:
        assert j in expected
        word = tuple(k * (j * x % m) // m for x in range(m))
        assert word_is_proper((r1, r2), word)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 300).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, 2 * m), st.integers(0, m - 1), st.integers(0, m - 1))
))
def test_least_multiple_in_matches_brute_force(case):
    m, a, lo, hi = case
    lo, hi = min(lo, hi), max(lo, hi)
    expected = next((x for x in range(m) if lo <= a * x % m <= hi), None)
    assert _least_multiple_in(a, m, lo, hi) == expected


def test_word_envelope(monkeypatch):
    # the first word of (1, 3, 4) has period 7; it is shared before the
    # envelope shrinks, and the envelope is still checked first
    t = normalize_triple(1, 3, 4)
    assert find_periodic_coloring(t, 4).period == 7
    monkeypatch.setattr("distchroma.periodic.MAX_WORD_LENGTH", 6)
    with pytest.raises(InvalidInputError, match=r"\(1, 3, 4\) has period 7"):
        find_periodic_coloring(t, 4)


def test_tables_and_shared_words_stay_bounded():
    triples = list(iter_triples(40))
    for k in range(1, 71):
        # words are shared only for k <= 4; past it a few triples reach
        # the table of k, which the first call builds whole
        for t in triples if k <= 4 else triples[::500]:
            find_periodic_coloring(t, k)
    # the bounds _COLOR_TABLES and _SHARED_WORDS state: one table per k up
    # to SMALL_MODULUS_LIMIT, entry m of each a list of m masks
    tables = periodic._COLOR_TABLES
    assert sorted(tables) == list(range(2, SMALL_MODULUS_LIMIT + 1))
    for table in tables.values():
        assert len(table) == SMALL_MODULUS_LIMIT + 1
        assert all(len(table[m]) == m for m in range(2, SMALL_MODULUS_LIMIT + 1))
    # every k past SMALL_MODULUS_LIMIT reads its table, and adds none
    for k in (SMALL_MODULUS_LIMIT + 1, 10**40):
        assert periodic._color_tables(k) is tables[SMALL_MODULUS_LIMIT]
    assert len(tables) == 63
    assert len(periodic._SHARED_WORDS) <= 3072
    for (m, j, k), word in periodic._SHARED_WORDS.items():
        assert 2 <= m <= SMALL_MODULUS_LIMIT and 1 <= j <= m // 2 and 2 <= k <= 4
        assert (word.period, word.k) == (m, k)


@st.composite
def large_triples(draw):
    # Free triples, and the shapes whose words sit at a sum modulus:
    # (x, y, x + y) and (x, y, 2y), as in (1, 3^n, 2 * 3^n).
    x = draw(st.integers(1, 5 * 10**11))
    y = draw(st.integers(1, 5 * 10**11))
    z = draw(st.sampled_from([None, x + y, 2 * y]))
    return normalize_triple(x, y, draw(st.integers(1, 10**12)) if z is None else z)


@settings(max_examples=300, deadline=None)
@given(large_triples())
def test_rotation_word_found_for_large_triples(t):
    # Without an exact search behind it, the word constructor must find a
    # word at the chromatic number for every triple, or refuse it as too long.
    chi, _ = chi_formula(t)
    try:
        pc = find_periodic_coloring(t, chi)
    except InvalidInputError as exc:
        assert "MAX_WORD_LENGTH" in str(exc)
        return
    assert pc is not None
    assert 2 <= pc.period <= t.b + t.c
    assert word_is_proper(t.distances(), pc.colors)
    assert_no_difference_modulus_comes_first(t, chi, pc.period)


def test_find_periodic_coloring_fails_below_chromatic_number():
    assert find_periodic_coloring(normalize_triple(1, 2, 3), 3) is None
    assert find_periodic_coloring(normalize_triple(1, 2, 4), 2) is None


def test_find_periodic_coloring_needs_a_color():
    assert find_periodic_coloring(normalize_triple(1, 2, 4), 0) is None


@settings(max_examples=60, deadline=None)
@given(triples, st.integers(2, 4))
def test_pullback_soundness(t, k):
    # Any circulant coloring returned by the search verifies as a periodic
    # coloring of the distance graph: the two verifiers compose.
    pc = find_periodic_coloring(t, k)
    if pc is None:
        return
    assert pc.period == pc.modulus_origin <= t.b + t.c
    assert verify_periodic(t, pc)


# ----------------------------------------------------------- lemma L
#
# If every distance is +-u or +-2u modulo m for a unit u, then
# j = floor(m/3) * u^-1 mod m moves each distance to +-y or +-2y with
# y = floor(m/3), and the window of k colors is symmetric; so the rotation
# word of (m, j) is proper as soon as y and 2y lie in that window.  The
# tests below check the lemma without calling the package's search.


def in_window(m, k, r):
    # ceil(m/k) <= r <= m - ceil(m/k), the window of the rotation k-word
    lo = -(-m // k)
    return lo <= r <= m - lo


def test_lemma_l_window_inequality():
    # y = floor(m/3) and 2y lie in the 4-color window for every m >= 3 but
    # 5, and in the 3-color window whenever 3 divides m.
    misses = []
    for m in range(3, 10**5 + 1):
        y = m // 3
        if not (in_window(m, 4, y) and in_window(m, 4, 2 * y)):
            misses.append(m)
        if m % 3 == 0:
            assert in_window(m, 3, y) and in_window(m, 3, 2 * y), m
    assert misses == [5]


def lemma_l_modulus(t):
    # Lemma L's modulus m and unit u for Zhu's two chi = 4 families: every
    # distance of (1, 2, 3k) is +-1 or 2 modulo a + c = 3k + 1, which also
    # covers (1, 2, 3), and every distance of (a, b, a + b) is +-b or -2b
    # modulo b + c = a + 2b.
    a, b, c = t.distances()
    if (a, b) == (1, 2) and c % 3 == 0:
        return a + c, 1
    assert c == a + b and a % 3 != b % 3, t
    return b + c, b


def assert_lemma_l_window(t):
    # The lemma's hypothesis and conclusion for its (m, j), by arithmetic
    # alone: returns (m, j).
    m, u = lemma_l_modulus(t)
    assert 3 <= m <= t.b + t.c and m != 5
    assert {d % m for d in t.distances()} <= {u % m, -u % m, 2 * u % m, -2 * u % m}
    j = m // 3 * pow(u, -1, m) % m
    assert all(in_window(m, 4, j * d % m) for d in t.distances())
    return m, j


def test_lemma_l_words_for_every_small_chi_four_triple():
    cases = [t for t in iter_triples(60) if chi_formula(t)[0] == 4]
    assert len(cases) == 433
    for t in cases:
        m, j = assert_lemma_l_window(t)
        word = [4 * (j * x % m) // m for x in range(m)]
        assert properly_colored(m, t.distances(), word), t


@st.composite
def chi_four_family_triples(draw):
    # (1, 2, 3k) and coprime (a, b, a + b) with a, b not congruent mod 3,
    # with b + c of up to MAX_DIGITS digits
    digits = draw(st.integers(1, MAX_DIGITS - 1))
    x = draw(st.integers(1, 10**digits))
    if draw(st.booleans()):
        return normalize_triple(1, 2, 3 * x)
    y = draw(st.integers(1, 10**digits))
    g = gcd(x, y)
    a, b = sorted((x // g, y // g))
    assume(a % 3 != b % 3)
    return normalize_triple(a, b, a + b)


@settings(max_examples=200, deadline=None)
@given(chi_four_family_triples())
def test_lemma_l_window_for_large_triples(t):
    assert chi_formula(t)[0] == 4
    assert_lemma_l_window(t)


# -------------------------------------------------------- verification

def test_verify_periodic_golden():
    t = normalize_triple(1, 3, 5)
    assert verify_periodic(t, PeriodicColoring(2, (0, 1), 2, 2))
    t = normalize_triple(1, 2, 3)
    assert verify_periodic(t, PeriodicColoring(4, (0, 1, 2, 3), 4, 4))
    # vertices 0 and 3 are three apart yet share color 0
    assert not verify_periodic(t, PeriodicColoring(5, (0, 1, 2, 0, 1), 3, 5))
    # proper words that use colors outside [0, k) prove nothing about k
    t = normalize_triple(1, 2, 4)
    assert not verify_periodic(t, PeriodicColoring(5, (0, 1, 2, 3, 4), 3, 5))
    t = normalize_triple(1, 3, 5)
    assert not verify_periodic(t, PeriodicColoring(2, (-1, 0), 2, 2))
    # (2, 3, 5) has chi = 4; its 4-color word must not certify chi = 3
    data = certify(normalize_triple(2, 3, 5)).to_json_dict()
    data.update(chi=3, branch=ChiBranch.OTHERWISE.value, lower={"type": "parity"})
    forged = ChiCertificate.from_json_dict(data)
    assert not verify_periodic(forged.triple, forged.upper)
    # k and the colors must be integers: a fractional word may not certify
    # chi = 2 for (1, 2, 3), whose chi is 4, nor k = 2.5 a 3-word
    t = normalize_triple(1, 2, 3)
    assert not verify_periodic(t, PeriodicColoring(4, (0, 0.5, 1, 1.5), 2, 4))
    data = certify(t).to_json_dict()
    data.update(chi=2, branch=ChiBranch.ALL_ODD.value, lower={"type": "trivial"},
                period=4, colors=[0, 0.5, 1, 1.5])
    forged = ChiCertificate.from_json_dict(data)
    assert not verify_periodic(forged.triple, forged.upper)
    assert not verify_periodic(
        normalize_triple(1, 2, 4), PeriodicColoring(3, (0, 1, 2), 2.5, 3)
    )
    t = normalize_triple(1, 3, 5)
    assert not verify_periodic(t, PeriodicColoring(2, (0, 1), 2.0, 2))
    assert not verify_periodic(t, PeriodicColoring(2, (0, 1), "2", 2))
    assert not verify_periodic(t, PeriodicColoring(2, ("a", "b"), 2, 2))
    data = certify(t).to_json_dict()
    data.update(colors=["a", "b"])
    forged = ChiCertificate.from_json_dict(data)
    assert not verify_periodic(forged.triple, forged.upper)


def test_verify_periodic_refuses_bools():
    # (False, True) is a proper word for (1, 3, 5) read as (0, 1), and
    # k = True reads as 1, but neither is an int
    t = normalize_triple(1, 3, 5)
    assert verify_periodic(t, PeriodicColoring(2, (0, 1), 2, 2))
    assert not verify_periodic(t, PeriodicColoring(2, (False, True), 2, 2))
    assert not verify_periodic(t, PeriodicColoring(2, (0, True), 2, 2))
    assert not verify_periodic(t, PeriodicColoring(2, (0, 0), True, 2))
    assert not verify_periodic(t, PeriodicColoring(2, (0, 1), True, 2))

def test_verify_periodic_rejects_malformed_word():
    t = normalize_triple(1, 2, 3)
    assert not verify_periodic(t, PeriodicColoring(4, (0, 1, 2), 3, 4))
    assert not verify_periodic(t, PeriodicColoring(0, (), 3, 0))


def test_word_is_proper_distance_divisible_by_period():
    # A distance that is a multiple of the period compares a residue with
    # itself, so the word can never be proper.
    assert not word_is_proper((2, 6, 10), (0, 1))


def test_word_is_proper_empty_word():
    assert not word_is_proper((1, 2, 3), ())


# ------------------------------------------------------------ segments

def test_segment_golden():
    t = normalize_triple(1, 2, 3)
    assert not segment_colorable(t, 3, 3)  # vertices 0..3 form a 4-clique
    # the refutation is defined for three colors only
    for k in (0, 1, 2, 4):
        with pytest.raises(InvalidInputError, match="3 colors"):
            segment_colorable(t, 3, k)


def raw_segment_colorable(t, length, k):
    """The segment 0..length solved as it stands, with no contraction."""
    return backtrack_coloring(segment_adjacency(set(t.distances()), length), k) is not None


def test_segment_contraction_is_exact():
    # Merging the common neighbors of each edge must not refute a
    # 3-colorable segment, and, with no search behind it, an edge inside a
    # class must be found on every segment that is not 3-colorable.
    for t in iter_triples(12):
        for length in range(2 * (t.b + t.c) + 3):
            assert segment_colorable(t, length, 3) == raw_segment_colorable(t, length, 3), (
                t.distances(), length
            )


def test_segment_uncolorable_for_1_2_6():
    t = normalize_triple(1, 2, 6)
    assert not segment_colorable(t, 48, 3)
    assert raw_segment_colorable(t, 48, 4)


# The four-chromatic coprime triples with c <= 20 whose segment 0..b+c is
# 3-colorable, recorded with the exact solver rather than the refutation
# under test; the other 36 of the 51 are refuted already at b + c.  A
# refutation that declared a segment uncolorable too early would refute
# one of these.
STANDING_AT_B_PLUS_C = {
    (3, 5, 8), (3, 10, 13), (3, 14, 17), (4, 9, 13), (4, 11, 15),
    (5, 7, 12), (5, 9, 14), (5, 12, 17), (5, 13, 18), (6, 11, 17),
    (6, 13, 19), (7, 9, 16), (7, 11, 18), (7, 12, 19), (9, 11, 20),
}


def four_chromatic(max_c):
    # Every chi = 4 coprime triple with c <= max_c: the only chi = 4 families
    # are (1, 2, c) and (a, b, a + b), so these candidates hold them all.
    candidates = {
        DistanceTriple(a, b, c)
        for c in range(3, max_c + 1)
        for a, b in [(1, 2)] + [(a, c - a) for a in range(1, c // 2 + 1)]
        if gcd(a, b, c) == 1
    }
    return [t for t in candidates if chi_formula(t)[0] == 4]


def test_segment_length_golden():
    four = [t for t in iter_triples(20) if chi_formula(t)[0] == 4]
    assert len(four) == 51
    assert {t.distances() for t in four if segment_colorable(t, t.b + t.c, 3)} == STANDING_AT_B_PLUS_C


def test_segment_length_is_a_plus_b_plus_c():
    # Every four-chromatic coprime triple with c <= 60 is certified at the
    # one length lower_bound tries ...
    count = 0
    for t in iter_triples(60):
        if chi_formula(t)[0] == 4:
            cert = certify(t)
            assert (cert.lower.kind, cert.lower.length) == (LOWER_SEGMENT, t.a + t.b + t.c), t
            count += 1
    assert count == 433
    # ... and every one with c <= 200 is refuted there.
    four = four_chromatic(200)
    assert len(four) == 4639
    for t in four:
        assert not segment_colorable(t, t.a + t.b + t.c, 3), t


def test_segment_family_a_a1_2a1():
    # (a, a + 1, 2a + 1) has chi = 4, and three colors fail already on
    # 0..b+c; the plain search doubled its cost with each step of a.
    for a in range(17, 41):
        t = normalize_triple(a, a + 1, 2 * a + 1)
        assert not segment_colorable(t, t.b + t.c, 3)
        cert = certify(t)
        assert (cert.lower.kind, cert.lower.length) == (LOWER_SEGMENT, t.a + t.b + t.c)


@pytest.mark.parametrize("raw", [(35, 141, 176), (34, 339, 373), (17, 373, 390), (58, 231, 289)])
def test_segment_witness_off_the_family(raw):
    # Each of these ran past 30 s under the plain segment search.
    cert = certify(normalize_triple(*raw))
    assert (cert.chi, cert.lower.kind) == (4, LOWER_SEGMENT)


def test_no_program_path_runs_the_solver(monkeypatch, capsys):
    # Forced-equal classes alone refute every segment that lower_bound
    # keeps; the exact solver is the tests' reference and nothing more.
    def solver(adjacency, k):
        raise AssertionError("the exact solver ran")

    monkeypatch.setattr("distchroma.periodic.backtrack_coloring", solver)
    monkeypatch.setattr("distchroma.circulant.backtrack_coloring", solver)
    for t in iter_triples(40):
        chi, _ = chi_formula(t)
        assert certify(t).chi == chi
        for k in range(1, chi):
            assert main(["color", *map(str, t.distances()), "--k", str(k)]) == 1
    capsys.readouterr()
    # at L = b + c the classes leave the segment standing; a + b + c refutes it
    t = normalize_triple(9663, 9851, 19514)
    assert segment_colorable(t, t.b + t.c, 3)
    cert = certify(t)
    assert (cert.lower.kind, cert.lower.length) == (LOWER_SEGMENT, 39028)


@settings(deadline=None)
@given(triples, st.sampled_from([(0, 1), (1, 1), (0, 2)]))
def test_segment_monotone_in_k(t, coefficients):
    # The refutation agrees with the uncontracted solver at the lengths
    # lower_bound tries, b + c and a + b + c, and at 2(b + c), and a
    # segment that three colors cover is covered by four.
    x, y = coefficients
    length = x * t.a + y * (t.b + t.c)
    colorable = raw_segment_colorable(t, length, 3)
    assert segment_colorable(t, length, 3) == colorable
    if colorable:
        assert raw_segment_colorable(t, length, 4)


# --------------------------------------------------------- lower bounds

def test_lower_bound_kinds():
    t = normalize_triple(1, 2, 3)
    assert lower_bound(t, 1).kind == LOWER_TRIVIAL
    assert lower_bound(t, 2).kind == LOWER_PARITY
    assert lower_bound(t, 3) == type(lower_bound(t, 1))(LOWER_SEGMENT, 6)


def test_lower_bound_is_the_certificate_lower_bound():
    for t in iter_triples(12):
        chi, _ = chi_formula(t)
        assert certify(t).lower == lower_bound(t, chi - 1)


def test_lower_bound_refuses_unsound_witnesses():
    with pytest.raises(CertificationError):
        lower_bound(normalize_triple(1, 3, 5), 2)  # all odd: 2-colorable
    with pytest.raises(
        InvalidInputError, match=r"^segment stage for \(1, 2, 3\): refutation is defined for 3 colors, not 4$"
    ):
        lower_bound(normalize_triple(1, 2, 3), 4)
    with pytest.raises(InvalidInputError, match="number of colors must be positive"):
        lower_bound(normalize_triple(1, 2, 3), 0)


def test_segment_envelope(monkeypatch):
    # segment_colorable itself refuses a segment past the envelope, naming
    # the triple and L; lower_bound passes that refusal on.
    with pytest.raises(
        InvalidInputError, match=rf"^segment stage for \(2, 3, 5\): L = {MAX_WORD_LENGTH + 1} exceeds"
    ):
        segment_colorable(normalize_triple(2, 3, 5), MAX_WORD_LENGTH + 1, 3)
    # For (1, 2, 999), a + b + c = 1002 lies past this envelope, so
    # lower_bound tries b + c = 1001 first, and that is refused too.
    monkeypatch.setattr("distchroma.periodic.MAX_WORD_LENGTH", 1000)
    with pytest.raises(InvalidInputError, match=r"segment.*\(1, 2, 999\).*L = 1001"):
        certify(normalize_triple(1, 2, 999))


def test_lower_bound_refuses_when_its_segment_stands(monkeypatch):
    tried = []

    def never_refuted(t, length, k):
        tried.append(length)
        # no segment is refuted; past the envelope the real stage refuses
        return length <= periodic.MAX_WORD_LENGTH or segment_colorable(t, length, k)

    monkeypatch.setattr("distchroma.periodic.segment_colorable", never_refuted)
    # inside the envelope one segment is built, at a + b + c
    with pytest.raises(
        CertificationError, match=r"^no uncolorable segment at L = 10 for \(2, 3, 5\)$"
    ):
        lower_bound(normalize_triple(2, 3, 5), 3)
    assert tried == [10]
    # past it b + c is tried first; when it stands, a + b + c is refused
    tried.clear()
    monkeypatch.setattr("distchroma.periodic.MAX_WORD_LENGTH", 9)
    with pytest.raises(InvalidInputError, match=r"^segment stage for \(2, 3, 5\): L = 10 exceeds"):
        lower_bound(normalize_triple(2, 3, 5), 3)
    assert tried == [8, 10]


def test_lower_bound_stays_inside_the_envelope(monkeypatch):
    # a + b + c = 10 lies past the envelope, so b + c = 8 is tried first and
    # refutes three colors; without that guard the triple would be refused.
    monkeypatch.setattr("distchroma.periodic.MAX_WORD_LENGTH", 9)
    assert certify(normalize_triple(2, 3, 5)).lower.length == 8
    # Every chi = 4 triple with a + b + c past an envelope of 500 and b + c
    # inside it: 68 are refuted at b + c, (1, 2, 498) among them, and the
    # rest are refused with the envelope's error, which names a + b + c.
    monkeypatch.setattr("distchroma.periodic.MAX_WORD_LENGTH", 500)
    window = [t for t in four_chromatic(500) if t.b + t.c <= 500 < t.a + t.b + t.c]
    assert len(window) == 2395
    answered = 0
    for t in window:
        try:
            witness = lower_bound(t, 3)
        except InvalidInputError as exc:
            assert f"L = {t.a + t.b + t.c} exceeds" in str(exc), t
        else:
            assert witness.length == t.b + t.c, t
            answered += 1
    assert answered == 68


# --------------------------------------------------------- certificates

def test_certify_all_odd():
    cert = certify(normalize_triple(1, 3, 5))
    assert cert.chi == 2
    assert cert.branch == ChiBranch.ALL_ODD
    assert (cert.upper.period, cert.upper.colors) == (2, (0, 1))
    assert cert.lower.kind == LOWER_TRIVIAL


def test_certify_three_colors_uses_parity():
    cert = certify(normalize_triple(1, 2, 4))
    assert cert.chi == 3
    assert cert.upper.period == 3
    assert cert.lower.kind == LOWER_PARITY
    assert not all(v % 2 == 1 for v in cert.triple.distances())


def test_certify_four_colors_uses_segment():
    cert = certify(normalize_triple(2, 3, 5))
    assert cert.chi == 4
    assert cert.upper.period == 4
    assert cert.upper.period <= 8
    assert cert.lower.kind == LOWER_SEGMENT
    assert cert.lower.length == 10 == cert.triple.a + cert.triple.b + cert.triple.c
    assert not segment_colorable(cert.triple, cert.lower.length, 3)


def test_certify_first_quotient_for_1_2_3_is_the_4_clique():
    cert = certify(normalize_triple(1, 2, 3))
    assert cert.upper.period == 4
    assert cert.upper.colors == (0, 1, 2, 3)
    assert cert.lower == type(cert.lower)(LOWER_SEGMENT, 6)


@settings(max_examples=40, deadline=None)
@given(triples)
def test_certify_is_internally_consistent(t):
    cert = certify(t)
    assert cert.chi == chi_formula(t)[0]
    assert cert.upper.k == cert.chi
    assert cert.upper.period <= t.b + t.c
    assert verify_periodic(t, cert.upper)


def test_certificate_json_round_trip():
    for raw in [(1, 3, 5), (1, 2, 4), (2, 3, 5), (2, 4, 6)]:
        cert = certify(normalize_triple(*raw))
        payload = json.dumps(cert.to_json_dict())
        assert ChiCertificate.from_json_dict(json.loads(payload)) == cert


def test_certificate_json_field_order():
    cert = certify(normalize_triple(1, 2, 4))
    assert list(cert.to_json_dict()) == [
        "a", "b", "c", "scale", "chi", "branch", "period", "colors", "lower",
    ]


def test_certify_error_is_loud(monkeypatch):
    # If the upper search ever came back empty the certificate must abort,
    # not degrade; force that path to check the failure mode.
    import distchroma.periodic as periodic_mod

    monkeypatch.setattr(periodic_mod, "find_periodic_coloring", lambda t, k: None)
    with pytest.raises(CertificationError):
        periodic_mod.certify(normalize_triple(1, 2, 4))


def test_upper_bound_is_the_search_word():
    for t in iter_triples(8):
        chi, _ = chi_formula(t)
        for k in (chi, chi + 1):
            assert upper_bound(t, k) == find_periodic_coloring(t, k)


@pytest.mark.parametrize(
    "word",
    [
        None,
        PeriodicColoring(10, (0, 1) * 5, 2, 10),  # proper, but longer than b + c = 8
        PeriodicColoring(2, (0, 0), 2, 2),  # short, but improper
    ],
)
def test_upper_bound_refuses_a_missing_long_or_improper_word(monkeypatch, word):
    monkeypatch.setattr("distchroma.periodic.find_periodic_coloring", lambda t, k: word)
    with pytest.raises(
        CertificationError,
        match=r"^no verified rotation 2-coloring word with period <= 8 for \(1, 3, 5\)$",
    ):
        upper_bound(normalize_triple(1, 3, 5), 2)
