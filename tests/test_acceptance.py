"""Acceptance suite: every criterion at its stated tolerance (all exact).

Each test prints one pass line; a pytest failure is the fail line.
"""

import random

import pytest
from oracles import (
    annihilation_residues,
    chromatic_number,
    circulant_adjacency,
    column_move,
    properly_colored,
    segment_adjacency,
)

from distchroma.circulant import backtrack_coloring, exists_coloring
from distchroma.cli import iter_triples, sweep_rows
from distchroma.errors import InvalidInputError
from distchroma.intmat import (
    admissible_collapses,
    build_heuberger_matrix,
    collapses,
    hermite_reduce_step,
)
from distchroma.periodic import (
    LOWER_PARITY,
    LOWER_SEGMENT,
    LOWER_TRIVIAL,
    certify,
    segment_colorable,
    verify_periodic,
)
from distchroma.zhu import ChiBranch, chi_formula, normalize_triple, orient_for_matrix


def _passed(number: int, label: str) -> None:
    print(f"[acceptance] criterion {number} ({label}): PASS")


@pytest.fixture(scope="module")
def desk_triples():
    return list(iter_triples(12))


def test_criterion_1_full_cross_validation(desk_triples):
    assert len(desk_triples) > 200  # a few hundred triples at this scale
    for t in desk_triples:
        chi, _ = chi_formula(t)
        cert = certify(t)
        assert cert.chi == chi
        # (i) verified periodic chi-coloring with period <= b + c
        assert cert.upper.k == chi
        assert cert.upper.period <= t.b + t.c
        assert verify_periodic(t, cert.upper)
        # ... re-checked without periodic: chi colors, and no distance joins
        # two vertices of one color
        word = cert.upper.colors
        assert len(word) == cert.upper.period and set(word) <= set(range(chi))
        assert properly_colored(cert.upper.period, t.distances(), word)
        # (ii) verified lower bound
        if chi == 2:
            assert cert.lower.kind == LOWER_TRIVIAL
        elif chi == 3:
            assert cert.lower.kind == LOWER_PARITY
            assert not all(v % 2 == 1 for v in t.distances())
        else:
            assert cert.lower.kind == LOWER_SEGMENT
            assert cert.lower.length == t.a + t.b + t.c
            assert not segment_colorable(t, cert.lower.length, chi - 1)
            # ... re-checked without periodic: the exact solver finds no
            # 3-coloring of the segment as it stands, with no contraction
            segment = segment_adjacency(t.distances(), cert.lower.length)
            assert backtrack_coloring(segment, chi - 1) is None
    _passed(1, "full cross-validation, c <= 12")


def test_criterion_2_bipartiteness_equivalence(desk_triples):
    for t in desk_triples:
        chi, _ = chi_formula(t)
        all_odd = all(v % 2 == 1 for v in t.distances())
        m = build_heuberger_matrix(*orient_for_matrix(t))
        sums_even = all(
            sum(row[j] for row in m.entries) % 2 == 0 for j in range(len(m.entries[0]))
        )
        assert (chi == 2) == all_odd == sums_even
    _passed(2, "bipartiteness equivalence")


def test_criterion_3_named_cases():
    expected = {
        (1, 3, 5): (2, ChiBranch.ALL_ODD),
        (1, 2, 3): (4, ChiBranch.A1_B2_3DIVC),
        (1, 2, 6): (4, ChiBranch.A1_B2_3DIVC),
        (2, 3, 5): (4, ChiBranch.SUM_NOT_CONG_MOD3),
        (3, 4, 7): (4, ChiBranch.SUM_NOT_CONG_MOD3),
        (1, 2, 4): (3, ChiBranch.OTHERWISE),
    }
    for raw, (chi, branch) in expected.items():
        assert chi_formula(normalize_triple(*raw)) == (chi, branch)
    _passed(3, "named cases")


def test_criterion_4_period_bound_improvement():
    rows = sweep_rows(12)
    for row in rows:
        assert row.agree
        assert row.period is not None and row.ees_bound is not None
        assert row.period <= row.b + row.c
        if row.c >= 2:
            assert row.period < row.ees_bound  # q*chi^q with q = c, exact ints
    _passed(4, "certified period <= b+c, below the q*k^q bound")


def test_criterion_5_label_annihilation_randomized():
    rng = random.Random(0x5EED)
    applied = 0
    for _ in range(1000):
        t = normalize_triple(
            rng.randint(1, 30), rng.randint(1, 30), rng.randint(1, 30)
        )
        m = build_heuberger_matrix(*orient_for_matrix(t))
        assert not any(annihilation_residues(m))
        for _ in range(rng.randint(1, 6)):
            op = rng.choice(("combine", "reduce", "collapse"))
            try:
                if op == "combine":
                    _, dst = rng.sample((0, 1), 2)
                    m = column_move(m, dst, rng.randint(-5, 5))
                elif op == "reduce":
                    m = hermite_reduce_step(m)[2]
                else:
                    quotient = rng.choice(collapses(m))[3]
                    if type(quotient) is str:
                        continue  # a move collapses rejects; skip
                    m = quotient
            except InvalidInputError:
                continue  # op not applicable to the current shape; skip
            applied += 1
            assert not any(annihilation_residues(m))
    assert applied > 2000  # the sequences genuinely exercised the operations
    _passed(5, "label annihilation over 1000 random op sequences")


def test_criterion_6_collapse_diagram_commutes():
    rng = random.Random(0xD1A6)
    checked = 0
    for _ in range(100):
        t = normalize_triple(
            rng.randint(1, 50), rng.randint(1, 50), rng.randint(1, 50)
        )
        m = build_heuberger_matrix(*orient_for_matrix(t))
        for i, j, sign, quotient in admissible_collapses(m):
            n = quotient.modulus
            survivors = [k for k in range(3) if k != j]
            # Reduction mod n after the original labels must agree with the
            # quotient labels after the row merge, on all three generators;
            # the deleted generator maps to sign times the merged one.
            for k in range(3):
                lhs = m.label[k] % n
                if k == j:
                    rhs = (sign * quotient.label[survivors.index(i)]) % n
                else:
                    rhs = quotient.label[survivors.index(k)] % n
                assert lhs == rhs
            checked += 1
    assert checked > 100
    _passed(6, "collapse diagram commutativity on random triples")


def test_criterion_7_circulant_oracle_sanity():
    # The oracle is exists_coloring on the circulant's adjacency lists.
    k, witness = chromatic_number(circulant_adjacency(5, [1, 2]))
    assert k == 5 and properly_colored(5, [1, 2], witness)
    k, witness = chromatic_number(circulant_adjacency(4, [1, 2, 3]))
    assert k == 4 and properly_colored(4, [1, 2, 3], witness)
    for n in range(3, 31):
        cycle = circulant_adjacency(n, [1])
        k, witness = chromatic_number(cycle)
        assert k == (2 if n % 2 == 0 else 3)
        assert properly_colored(n, [1], witness)
        assert exists_coloring(cycle, k - 1) is None
    _passed(7, "circulant oracle sanity")


def test_criterion_8_scaling_invariance():
    for t in iter_triples(8):
        base, _ = chi_formula(t)
        for d in range(1, 6):
            scaled = normalize_triple(d * t.a, d * t.b, d * t.c)
            assert chi_formula(scaled)[0] == base
    _passed(8, "scaling invariance for d in [1, 5]")
