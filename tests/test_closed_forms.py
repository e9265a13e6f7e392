"""Closed-form family formulas, checked against the engine throughout."""

import time
from itertools import combinations, product
from math import gcd

import pytest

from monofact import cli, closed_forms, monoid
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
from monofact.errors import CrossCheckError, HypothesisViolated, InvalidScalar
from monofact.ideal import Binomial, groebner, lattice_ideal
from monofact.monoid import numerical, presentation
from monofact.oracle import f2l_bruteforce
from monofact.same_length import (
    MonoidIdeal,
    _apery_residues,
    _below_residue_bounds,
    f2l,
    integers_outside_l_set,
    l_set,
    monoid_ideals_equal,
)


def _no_search(*args):
    raise AssertionError("a closed form is verified with no factorization search")


def _with_factorizations(formula, f, verified=False):
    """``formula(f, verified)`` and the factorizations it hands to its one
    check, ``closed_forms._formula_ideal``."""
    seen = []
    real = closed_forms._formula_ideal

    def spy(tag, p, facts, *rest, **options):
        seen.extend(facts)
        return real(tag, p, facts, *rest, **options)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closed_forms, "_formula_ideal", spy)
        return formula(f, verified), seen


def _published_values(f):
    """The published L_S generators of an arithmetic or almost-arithmetic
    family as values, from the formulas as the paper states them: H, plus
    for an almost-arithmetic family the extras decided by where b sits."""
    h = [2 * f.m1 + lam * f.e for lam in range(2, 2 * f.n - 3)]
    if isinstance(f, ArithmeticFamily):
        return h
    if f.b in (f.m, f.M):
        anchor, step = (f.m1, f.e) if f.b == f.m else (f.arithmetic_part[-1], -f.e)
        extras = [(f.beta + 1) * anchor]
        if (f.M - f.m) % (f.d * (f.n - 1)) != 0:
            extras.append((f.beta + 1) * anchor + step)
    else:
        extras = [(f.e // f.d) * f.b]
    return sorted(set(h + extras))


def _assert_factorizations_give_the_published_generators(ideal, facts, f):
    # each factorization is one of the generators' coefficient vectors,
    # and its degree is a published generator
    values = [] if ideal is None else [g.free[0] for g in ideal.generators]
    assert all(len(x) == len(f.generators) and min(x) >= 0 for x in facts)
    degrees = sorted({sum(map(int.__mul__, x, f.generators)) for x in facts})
    if isinstance(f, UniqueBettiShiftFamily):
        # the published generators are the trim of the degrees c_i (b + t m_i)
        assert degrees == sorted({c * (f.b + f.t * m) for c, m in zip(f.c, f.m_values[:-1])})
        assert set(values) <= set(degrees)
    else:
        assert degrees == values == _published_values(f)


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


def _arithmetic_grid():
    """Every family with m1 in 2..39, e in 1..6 coprime to it, n in 2..6."""
    for m1 in range(2, 40):
        for e in range(1, 7):
            for n in range(2, 7):
                if gcd(m1, e) == 1:
                    yield ArithmeticFamily(m1, e, n)


def test_lset_almost_arithmetic_matches_the_engine_on_the_grid():
    """The whole grid, 1,639 families, and an arithmetic grid of 720: the
    published L_S generators and the engine's l_set generate one ideal,
    each formula factorization evaluates to a published generator, and
    the check searches no factorization.  Budget 10 s; on 2 vCPUs with
    Python 3.11 it takes about 2.3 s, 0.5 s of it drawing up the grid."""
    families = list(_almost_arithmetic_grid()) + list(_arithmetic_grid())
    assert len(families) == 1639 + 720
    t0 = time.perf_counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monoid, "_search", _no_search)
        for f in families:
            formula = lset_arithmetic if isinstance(f, ArithmeticFamily) else lset_almost_arithmetic
            _assert_factorizations_give_the_published_generators(
                *_with_factorizations(formula, f, verified=True), f
            )
    assert time.perf_counter() - t0 < 10.0


def test_ceq_almost_arithmetic_matches_the_engine_on_the_grid():
    """The proof form of c_eq is the engine's on the whole grid of 1,639
    families.  Budget 10 s; on a 2-vCPU x86-64 machine with Python 3.11.7
    the test takes about 1.5 s, 0.9 s of it drawing up the grid."""
    families = list(_almost_arithmetic_grid())
    assert len(families) == 1639
    t0 = time.perf_counter()
    for f in families:
        assert ceq_almost_arithmetic_report(f)["engine_matches_proof"], f
    assert time.perf_counter() - t0 < 10.0


def test_the_paper_shape_verifies_with_no_search(monkeypatch):
    """<1009, 1040, ..., 1164, 1500>: checking the published generators by
    mutual membership searched 115205 - 2080 = 113125 and 115205 itself,
    each past 40 s.  The trim of the formula's degrees searches nothing.
    Only the family's minimality check searches, so it is built first."""
    f = AlmostArithmeticFamily(1009, 31, 6, 1500)
    monkeypatch.setattr(monoid, "_search", _no_search)
    monkeypatch.setattr(MonoidIdeal, "contains", _no_search)
    t0 = time.perf_counter()
    verified = lset_almost_arithmetic(f, verified=True)
    assert time.perf_counter() - t0 < 20.0
    assert verified == lset_almost_arithmetic(f)
    assert [g.free[0] for g in verified.generators] == [
        2080, 2111, 2142, 2173, 2204, 2235, 2266, 115205, 115236
    ]


def _spoil(monkeypatch, spoil):
    # every formula hands spoil(p, its factorizations) to its check instead
    real = closed_forms._formula_ideal

    def spoiled(tag, p, facts, *rest, **options):
        return real(tag, p, spoil(p, list(facts)), *rest, **options)

    monkeypatch.setattr(closed_forms, "_formula_ideal", spoiled)


def _drop_first(p, facts):
    return facts[1:]


def _add_first_generator(p, facts):
    return facts + [(1,) + (0,) * (p.n - 1)]


_ALMOST = ("almost", '{"m1":17,"e":3,"n":5,"b":7}')


@pytest.mark.parametrize(
    "spoil, family, params, message",
    [
        # 40 = 2m1 + 2e, an H generator, dropped: 40 is not in the ideal
        (_drop_first, *_ALMOST, "formula generators [43, 46, 49, 52, 102, 105]"),
        # 7, the least generator, is not in L_S
        (_add_first_generator, *_ALMOST, "formula generators [7, 40, 43, 46,"),
        (_add_first_generator, "unique-betti", '{"b":17,"t":2,"c":[5,3,2]}',
         "formula generators [17]"),
        # <3, 4, 5> has L_S = 8 + S; <3, 5> has L_S empty
        (_drop_first, "arithmetic", '{"m1":3,"e":1,"n":3}', "disagree on emptiness"),
        (_add_first_generator, "arithmetic", '{"m1":3,"e":2,"n":2}', "disagree on emptiness"),
    ],
    ids=["almost-drop-h", "almost-add-outside", "unique-betti-add-outside",
         "arithmetic-drop-only", "arithmetic-add-to-empty"],
)
def test_a_wrong_formula_fails_its_check(capsys, monkeypatch, spoil, family, params, message):
    _spoil(monkeypatch, spoil)
    argv = ["closed-form", "--family", family, "--params", params]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(argv + ["--verified"]) == 5
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: lset_") and message in out.err
    assert "Traceback" not in out.err
    if family == "almost":  # the library raises the same error
        with pytest.raises(CrossCheckError, match="span different ideals"):
            lset_almost_arithmetic(AlmostArithmeticFamily(17, 3, 5, 7), verified=True)


def test_the_trim_agrees_with_mutual_membership_on_a_sample():
    """Every 20th family of the grids, its published factorizations, each
    of them dropped and each generator added: the check raises exactly
    when mutual membership (``monoid_ideals_equal``, the search it
    replaced) says the ideal is not L_S."""
    families = list(_almost_arithmetic_grid())[::20] + list(_arithmetic_grid())[::20]
    families += _unique_betti_grid(range(3, 16), range(1, 4))[::20]
    checked = raised = 0
    for f in families:
        formula = {
            ArithmeticFamily: lset_arithmetic,
            AlmostArithmeticFamily: lset_almost_arithmetic,
            UniqueBettiShiftFamily: lset_unique_betti_shift,
        }[type(f)]
        p = f.presentation()
        facts = _with_factorizations(formula, f)[1]
        units = [tuple(int(i == k) for i in range(p.n)) for k in range(p.n)]
        variants = [facts] + [facts[:k] + facts[k + 1 :] for k in range(len(facts))]
        variants += [facts + [u] for u in units]
        engine = l_set(p)
        for variant in variants:
            degrees = tuple({p.evaluate(x): x for x in variant})
            if not degrees or engine is None:
                continue
            equal = monoid_ideals_equal(MonoidIdeal(p, degrees), engine)
            try:
                closed_forms._formula_ideal("sample", p, variant, True)
            except CrossCheckError:
                raised += 1
                assert not equal, (f, variant)
            else:
                assert equal, (f, variant)
            checked += 1
    assert checked > 400 and 0 < raised < checked


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
        # the formula's degrees and the engine's are trimmed, and compared,
        # with no factorization search; each factorization evaluates to
        # c_i (b + t m_i)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(monoid, "_search", _no_search)
            formula = lset_unique_betti_shift(f)
            verified, facts = _with_factorizations(lset_unique_betti_shift, f, verified=True)
        assert verified == formula
        _assert_factorizations_give_the_published_generators(verified, facts, f)
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
