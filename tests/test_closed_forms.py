"""Closed-form family formulas, checked against the engine throughout."""

from itertools import combinations, product
from math import gcd

import pytest
from test_same_length import _refuse_search

from monofact import same_length
from monofact.catenary import ceq
from monofact.closed_forms import (
    AlmostArithmeticFamily,
    _ceq_printed_form,
    _ceq_proof_form,
    ArithmeticFamily,
    UniqueBettiShiftFamily,
    ceq_almost_arithmetic_report,
    ceq_unique_betti_shift,
    lset_almost_arithmetic,
    lset_arithmetic,
    lset_unique_betti_shift,
    normalized_presentation_transforms,
)
from monofact.errors import HypothesisViolated, InvalidScalar
from monofact.ideal import Binomial, groebner, lattice_ideal
from monofact.monoid import numerical, presentation
from monofact.oracle import f2l_bruteforce
from monofact.same_length import (
    _apery_residues,
    _below_residue_bounds,
    f2l,
    integers_outside_l_set,
    l_set,
)


def test_arithmetic_lset():
    ideal = lset_arithmetic(ArithmeticFamily(3, 1, 3), verified=True)
    assert [g.free[0] for g in ideal.generators] == [8]
    ideal5 = lset_arithmetic(ArithmeticFamily(17, 3, 5), verified=True)
    assert [g.free[0] for g in ideal5.generators] == [40, 43, 46, 49, 52]
    # two generators: L is empty
    assert lset_arithmetic(ArithmeticFamily(3, 2, 2), verified=True) is None


def _almost_arithmetic_grid():
    """Every valid family with m1 in 3..15, e in 1..4, n in 2..4, b in 2..39."""
    for m1 in range(3, 16):
        for e in range(1, 5):
            for n in range(2, 5):
                for b in range(2, 40):
                    try:
                        yield AlmostArithmeticFamily(m1, e, n, b)
                    except HypothesisViolated:
                        pass


def test_ceq_forms_differ_exactly_as_the_report_says():
    # ceq_almost_arithmetic_report: the printed and proof forms differ exactly when b
    # is m or M and d(n-1) divides M-m-d or M-m-d-1; for an interior b
    # both are e/d even when d(n-1) divides one of them
    families = interior_divisible = 0
    for f in _almost_arithmetic_grid():
        families += 1
        q = f.d * (f.n - 1)
        divides = (f.M - f.m - f.d) % q == 0 or (f.M - f.m - f.d - 1) % q == 0
        extreme = f.b in (f.m, f.M)
        assert (_ceq_proof_form(f) != _ceq_printed_form(f)) == (extreme and divides)
        interior_divisible += divides and not extreme
    assert families == 1639
    assert interior_divisible == 101


def test_lset_almost_arithmetic_matches_the_engine_on_the_grid():
    """Every 4th family of the grid: the published L_S generators and the
    engine's l_set generate one ideal.  Budget 5 s; on 2 vCPUs with
    Python 3.11 it takes about 1.6 s, 1 s of it drawing up the grid, and
    checking all 1,639 families would add 1.9 s."""
    families = list(_almost_arithmetic_grid())[::4]
    assert len(families) == 410
    for f in families:
        lset_almost_arithmetic(f, verified=True)


def test_almost_arithmetic_interior_b():
    fam = AlmostArithmeticFamily(17, 3, 5, 7)
    assert fam.generators == (7, 17, 20, 23, 26, 29)
    assert (fam.m, fam.M, fam.d, fam.beta) == (7, 29, 1, 5)
    la = lset_almost_arithmetic(fam, verified=True)
    assert [g.free[0] for g in la.generators] == [40, 43, 46, 49, 52, 102, 105]
    assert _ceq_proof_form(fam) == ceq(fam.presentation()) == 6


def test_almost_arithmetic_report_splits_formula_forms():
    rep = ceq_almost_arithmetic_report(AlmostArithmeticFamily(17, 3, 5, 7))
    assert rep == {
        "engine": 6,
        "proof_form": 6,
        "printed_form": 5,
        "forms_agree": False,
        "engine_matches_proof": True,
        "engine_matches_printed": False,
    }


def test_almost_arithmetic_b_equals_M():
    fm = AlmostArithmeticFamily(17, 3, 5, 33)
    assert fm.b == fm.M
    assert (fm.M - fm.m) % (fm.d * 4) == 0
    lm = lset_almost_arithmetic(fm, verified=True)
    assert [g.free[0] for g in lm.generators] == [40, 43, 46, 49, 52, 116]
    assert ceq(fm.presentation()) == fm.beta + 1 == 4
    rep = ceq_almost_arithmetic_report(fm)
    assert rep["forms_agree"] and rep["engine_matches_printed"]


def test_almost_arithmetic_case_two():
    fi = AlmostArithmeticFamily(7, 3, 3, 8)
    assert fi.generators == (7, 8, 10, 13)
    li = lset_almost_arithmetic(fi, verified=True)
    assert [g.free[0] for g in li.generators] == [20, 24]
    assert _ceq_proof_form(fi) == 3
    assert ceq_almost_arithmetic_report(fi)["engine"] == 3


def test_almost_arithmetic_three_generated():
    f3g = AlmostArithmeticFamily(5, 2, 2, 3)
    l3g = lset_almost_arithmetic(f3g, verified=True)
    assert [g.free[0] for g in l3g.generators] == [(f3g.beta + 1) * 5]


def test_almost_arithmetic_rejects_bad_data():
    for bad in [(4, 2, 3, 9), (17, 3, 5, 34)]:
        with pytest.raises(HypothesisViolated):
            AlmostArithmeticFamily(*bad)


def test_unique_betti_shift_17_29_37_47():
    ub = UniqueBettiShiftFamily(17, 2, (5, 3, 2))
    assert ub.generators == (17, 29, 37, 47)
    lu = lset_unique_betti_shift(ub, verified=True)
    assert [g.free[0] for g in lu.generators] == [111]
    assert lu.is_principal
    assert ceq_unique_betti_shift(ub, verified=True) == 5


def test_unique_betti_shift_three_generated():
    ub = UniqueBettiShiftFamily(3, 1, (2, 1))
    assert ub.generators == (3, 4, 5)
    assert [g.free[0] for g in lset_unique_betti_shift(ub, verified=True).generators] == [8]
    assert ceq_unique_betti_shift(ub, verified=True) == 2


def test_unique_betti_shift_multipliers():
    ub = UniqueBettiShiftFamily(5, 1, (7, 2), (3,))
    assert ub.m_values == (6, 7)
    lset_unique_betti_shift(ub, verified=True)
    assert ceq_unique_betti_shift(ub, verified=True) == 7


def _unique_betti_grid(bs, ts, multipliers=False):
    """Every valid family with b in ``bs``, t in ``ts`` and c a strictly
    decreasing pair or triple from 7..1; the default f, or with
    ``multipliers`` every f from 1..6 but the default."""
    families = []
    for b in bs:
        for t in ts:
            for c in [*combinations(range(7, 0, -1), 2), *combinations(range(7, 0, -1), 3)]:
                fs = [None]
                if multipliers:
                    fs = [f for f in product(range(1, 7), repeat=len(c) - 1) if set(f) != {1}]
                for f in fs:
                    try:
                        families.append(UniqueBettiShiftFamily(b, t, c, f))
                    except HypothesisViolated:
                        pass
    return families


def test_unique_betti_shift_matches_the_engine_on_the_grid():
    """b in 3..15, t in 1..3 and c every strictly decreasing pair or triple
    from 7..1: L_S and c_eq from the formulas agree with the engine on
    every valid family.  Budget 5 s; the 584 families take about 1 s on 2
    vCPUs with Python 3.11."""
    families = _unique_betti_grid(range(3, 16), range(1, 4))
    assert len(families) == 584
    for f in families:
        # the formula's degrees and the engine's are trimmed with no
        # factorization search; only the verifying ideal comparison searches
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(same_length, "member", _refuse_search)
            formula = lset_unique_betti_shift(f)
            l_set(f.presentation())
        assert lset_unique_betti_shift(f, verified=True) == formula
        ceq_unique_betti_shift(f, verified=True)


def _gaps(values):
    """Gaps of the numerical semigroup generated by ``values``: the x >= 0
    with x < w_{x mod a} over the residue table."""
    return _below_residue_bounds(_apery_residues(values))


def test_a_principal_l_set_shifts_the_frobenius_number_on_the_grid():
    """The paper's result (3) on the 584 families of the grid above: L_S
    is principal, L_S = g + S, so F_2l = g + F(S), and the integers
    outside L_S are [0, g) together with g + gaps(S)."""
    for f in _unique_betti_grid(range(3, 16), range(1, 4)):
        p = f.presentation()
        (g,) = [x.free[0] for x in l_set(p).generators]
        holes = _gaps(f.generators)
        assert f2l(p) == g + max(holes)
        assert integers_outside_l_set(p) == tuple(range(g)) + tuple(g + x for x in holes)


def test_three_generated_l_sets_are_principal_on_the_grid():
    """Chapman, Garcia-Sanchez, Llena and Marshall (Canad. Math. Bull. 54,
    2011), the case n = 3 that the paper generalizes: the lattice of S~
    has rank 1, spanned by gamma = (a2 - a3, a3 - a1, a1 - a2)/gcd, so L_S
    is principal, generated by the degree of gamma^+ = ((a3 - a1)/gcd) e_2.
    Every triple 3 <= a1 < a2 < a3 <= 30 with gcd 1."""
    checked = 0
    for a1, a2, a3 in combinations(range(3, 31), 3):
        if gcd(a1, a2, a3) == 1:
            ideal = l_set(numerical([a1, a2, a3]))
            gamma_plus = (a3 - a1) // gcd(a2 - a3, a3 - a1, a1 - a2)
            assert [g.free[0] for g in ideal.generators] == [a2 * gamma_plus], (a1, a2, a3)
            checked += 1
    assert checked == 2779


def test_f2l_matches_the_oracle_on_families_with_multipliers():
    """With some f_i > 1, L_S need not be principal (5 of these 136
    families): F_2l from the residue bounds agrees with the brute-force
    oracle, whose weight cap 1000 is above every F_2l here."""
    families = _unique_betti_grid(range(3, 8), (1, 2), multipliers=True)
    assert len(families) == 136
    assert sum(not l_set(f.presentation()).is_principal for f in families) == 5
    for f in families:
        p = f.presentation()
        assert f2l(p) == f2l_bruteforce(p, 1000)


def test_unique_betti_shift_rejects_bad_data():
    for bad in [
        dict(b=17, t=2, c=(6, 3, 2)),  # c_1 and c_3 not coprime
        dict(b=17, t=2, c=(3, 5, 2)),  # not strictly decreasing
        dict(b=4, t=2, c=(5, 3, 2)),  # b and t not coprime
        dict(b=17, t=2, c=(5, 3, 2), f=(1, 3)),  # (b) gcd(f_2, c_2) = 3
    ]:
        with pytest.raises(HypothesisViolated):
            UniqueBettiShiftFamily(**bad)


def test_transform_chain_preserves_ideal():
    stages = normalized_presentation_transforms(
        [17, 20, 23, 26, 29], [("subtract", 17), ("divide", 3)]
    )
    assert len(stages) == 3
    final = stages[-1]
    assert [tuple(g.free) for g in final.generators] == [
        (0, 1),
        (1, 1),
        (2, 1),
        (3, 1),
        (4, 1),
    ]
    # the first stage is a numerical semigroup, the last has a zero value
    assert min(g.free[0] for g in stages[0].generators) > 0
    assert min(g.free[0] for g in stages[-1].generators) == 0
    ideals = [lattice_ideal(s) for s in stages]
    for a, b in zip(ideals, ideals[1:]):
        assert a == b


def test_transform_reflect():
    ref = normalized_presentation_transforms([17, 20, 23, 26, 29, 33], [("reflect", 33)])
    assert [g.free[0] for g in ref[-1].generators] == [16, 13, 10, 7, 4, 0]
    assert lattice_ideal(ref[0]) == lattice_ideal(ref[1])


def test_transform_rejects_bad_scalar():
    with pytest.raises(InvalidScalar):
        normalized_presentation_transforms([3, 5], [("subtract", 4)])
    with pytest.raises(InvalidScalar):
        normalized_presentation_transforms([10, 15], [("divide", 4)])


def _rational_normal_curve_relations(n):
    """The 2x2-minor binomials x_i x_j - x_{i-1} x_{j+1}, 2 <= i <= j <= n-1.

    These cut out the ideal of <(0,1), (1,1), ..., (n-1,1)> and, degree
    for degree, of any arithmetic progression lifted the same way.
    """
    out = []
    for i in range(2, n):
        for j in range(i, n):
            plus, minus = [0] * n, [0] * n
            plus[i - 1] += 1
            plus[j - 1] += 1
            minus[i - 2] += 1
            minus[j] += 1
            out.append(Binomial(tuple(plus), tuple(minus)))
    return out


def _arithmetic_with_zero_relations(m1, e, n):
    """Generators of the ideal of <(m_1,1), ..., (m_n,1), (0,1)>.

    The curve relations above, plus a second block of k relations
    x_1^alpha x_i - x_{n-k+i} x_n^(alpha-e) x_{n+1}^e, with
    alpha = floor((m_n - 1)/(n - 1)) and k = n - 1 - ((m_1 - 1) mod (n - 1)).
    The zero generator is the last variable.
    """
    mn = m1 + (n - 1) * e
    k = (1 - mn) % (n - 1) if n > 2 else 0
    if k == 0:
        k = n - 1
    alpha = (mn - 1) // (n - 1)
    out = [Binomial(b.plus + (0,), b.minus + (0,)) for b in _rational_normal_curve_relations(n)]
    for i in range(1, k + 1):
        plus, minus = [0] * (n + 1), [0] * (n + 1)
        plus[0] += alpha
        plus[i - 1] += 1
        minus[n - k + i - 1] += 1
        minus[n - 1] += alpha - e
        minus[n] += e
        out.append(Binomial(tuple(plus), tuple(minus)))
    return out


def _adjoin_generator_split(values, b, alpha):
    """The extra relation that adjoining b to <0, a_2, ..., a_n> costs.

    With B = gcd(a_2..a_n), gcd(B, b) = 1 and B*b = sum(alpha_i a_i),
    sum(alpha) <= B, the ideal of the extended monoid is the old ideal
    plus the single binomial x_{n+1}^B - x_1^(B - sum(alpha)) * prod
    x_i^alpha_i, where x_1 is the zero generator and the adjoined
    variable comes last.
    """
    B = gcd(*values)
    plus = [0] * (len(values) + 1) + [B]
    return Binomial(tuple(plus), (B - sum(alpha), *alpha, 0))


def _lifted(values):
    return presentation(2, (), [(v, 1) for v in values])


def test_rational_normal_curve_relations():
    assert len(_rational_normal_curve_relations(3)) == 1
    assert _rational_normal_curve_relations(3)[0] == Binomial((0, 2, 0), (1, 0, 1))
    assert len(_rational_normal_curve_relations(4)) == 3
    assert len(_rational_normal_curve_relations(5)) == 6
    curve = _rational_normal_curve_relations(4)
    pcurve = presentation(2, (), [(0, 1), (1, 1), (2, 1), (3, 1)])
    assert groebner(curve) == lattice_ideal(pcurve)


def test_adjoin_generator_split():
    assert _adjoin_generator_split([10, 15], 6, [0, 2]) == Binomial((0, 0, 0, 5), (3, 0, 2, 0))
    cases = [
        ([10, 15], 6, [0, 2]),
        ([10, 15], 3, [0, 1]),
        ([4, 6], 5, [1, 1]),
        ([6, 9, 12], 7, [0, 1, 1]),
    ]
    for values, b, alpha in cases:
        old = lattice_ideal(_lifted([0, *values]))
        gens = [Binomial(g.plus + (0,), g.minus + (0,)) for g in old.elements]
        gens.append(_adjoin_generator_split(values, b, alpha))
        assert groebner(gens) == lattice_ideal(_lifted([0, *values, b])), values


def test_arithmetic_with_zero_relations_generate_t_ideal():
    for (m1, e, n) in [(10, 3, 5), (5, 2, 4), (7, 1, 3), (3, 4, 2)]:
        rels = _arithmetic_with_zero_relations(m1, e, n)
        pt = _lifted([m1 + i * e for i in range(n)] + [0])
        assert groebner(rels) == lattice_ideal(pt), (m1, e, n)


def test_closed_forms_match_engine_ceq():
    assert ceq(numerical([7, 17, 20, 23, 26, 29])) == 6
    assert ceq(numerical([17, 29, 37, 47])) == 5
