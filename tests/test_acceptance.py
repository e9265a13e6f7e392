"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single `criterion N: PASS|FAIL` line (run with -s to
see them on success; pytest shows the captured output on failure).  All
comparisons are exact; the stated runtime budgets are asserted.
"""

import random
import time
from math import gcd

import pytest
from test_intlinalg import _lattices_equal

from monofact import oracle
from monofact.apery import apery_is_finite, apery_set
from monofact.catenary import ceq, ceq_element_bruteforce, ceq_upper_bound_numerical
from monofact.closed_forms import (
    AlmostArithmeticFamily,
    ceq_almost_arithmetic_report,
    lset_almost_arithmetic,
)
from monofact.ideal import (
    Binomial,
    KernelLattice,
    groebner,
    kernel_lattice,
    lattice_ideal,
    minimal_generators,
)
from monofact.monoid import is_minimal_generating, numerical, presentation
from monofact.oracle import (
    lset_bruteforce,
    monoid_elements,
    tset_bruteforce,
)
from monofact.orders import GREVLEX, LEX, wgrevlex
from monofact.same_length import (
    f2l,
    l_set,
    l_set_complement,
    l_set_complement_is_finite,
    monoid_ideals_equal,
    t_set,
)

RANK2 = presentation(2, (), [(0, 2), (1, 2), (1, 1), (3, 2), (4, 2)])
W22122 = wgrevlex((2, 2, 1, 2, 2))
TORSION = presentation(1, (2,), [(2, 0), (3, 1), (4, 1)])
COUNT_CAP = 5 * 10**7


def _fibers(p, cap):
    # the corpus walks more vectors than the library's listing cap allows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_LISTING_CAP", COUNT_CAP)
        return monoid_elements(p, cap)


def _criterion(num, body, budget=None):
    ok = False
    detail = ""
    t0 = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - t0
        ok = budget is None or elapsed < budget
        if not ok:
            detail = f"{elapsed:.2f}s over the {budget}s budget"
    finally:
        elapsed = time.perf_counter() - t0
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    if not ok:
        pytest.fail(f"criterion {num}: {detail}")


def test_criterion_1_rank2_ideal_and_enlarged_leads():
    def body():
        gb = lattice_ideal(RANK2, order=W22122)
        relations = [
            Binomial.difference((0, 0, 0, 2, 0), (0, 0, 2, 0, 1)),
            Binomial.difference((0, 0, 2, 1, 0), (0, 1, 0, 0, 1)),
            Binomial.difference((0, 1, 0, 1, 0), (1, 0, 0, 0, 1)),
            Binomial.difference((0, 0, 4, 0, 0), (1, 0, 0, 0, 1)),
            Binomial.difference((0, 1, 2, 0, 0), (1, 0, 0, 1, 0)),
            Binomial.difference((0, 2, 0, 0, 0), (1, 0, 2, 0, 0)),
        ]
        assert gb == groebner(relations, W22122)
        jb = groebner(
            list(gb.elements)
            + [
                Binomial.monomial((0, 3, 0, 0, 0)),
                Binomial.monomial((0, 1, 0, 1, 0)),
                Binomial.monomial((0, 0, 0, 3, 0)),
            ],
            W22122,
        )
        leads = sorted(b.oriented(W22122)[0] for b in jb.elements)
        assert leads == sorted(
            [
                (2, 0, 0, 1, 0),
                (1, 0, 0, 0, 1),
                (0, 2, 0, 0, 0),
                (0, 1, 2, 0, 0),
                (0, 1, 0, 1, 0),
                (0, 1, 0, 0, 2),
                (0, 0, 4, 0, 0),
                (0, 0, 2, 1, 0),
                (0, 0, 0, 2, 0),
            ]
        )

    _criterion(1, body, budget=1.0)


def test_criterion_2_torsion_kernel_ideal_and_apery():
    def body():
        lat = kernel_lattice(TORSION)
        expected = KernelLattice(basis=((1, 2, -2), (0, 8, -6)), nvars=3)
        assert len(lat.basis) == len(expected.basis) == 2
        assert _lattices_equal(lat.basis, expected.basis)
        hand = groebner(
            [
                Binomial.difference((1, 2, 0), (0, 0, 2)),
                Binomial.difference((3, 0, 0), (0, 2, 0)),
                Binomial.difference((0, 4, 0), (2, 0, 2)),
            ],
            GREVLEX,
        )
        assert lattice_ideal(TORSION) == hand
        res = apery_set(TORSION, [[12, 0]])
        assert res.finite and res.count == 24
        listed = {(x, 0) for x in [0, 2, 4, 6, 7, 8, 9, 10, 11, 13, 15, 17]} | {
            (x, 1) for x in range(3, 15)
        }
        assert {(e.free[0], e.torsion[0]) for e in res.elements} == listed

    _criterion(2, body, budget=1.0)


def test_criterion_3_homogenized_degrees_and_l_generators():
    def body():
        t0 = time.perf_counter()
        h = RANK2.lift
        mins = minimal_generators(lattice_ideal(h), h)
        degs = sorted(b.degree(h).free[:2] for b in mins.elements)
        assert degs == sorted([(3, 6), (4, 4), (9, 6), (6, 6)])
        l = l_set(RANK2)
        assert sorted(g.free for g in l.generators) == [(3, 6), (4, 4), (9, 6)]
        first = time.perf_counter() - t0
        t1 = time.perf_counter()
        lt = l_set(TORSION)
        assert [(g.free[0], g.torsion[0]) for g in lt.generators] == [(12, 0)]
        second = time.perf_counter() - t1
        assert first < 1.0 and second < 1.0

    _criterion(3, body)


_C4 = {}


def _criterion4_triples():
    if "data" not in _C4:
        rng = random.Random(4)
        out = []
        while len(out) < 100:
            a1, a2, a3 = sorted(rng.sample(range(2, 201), 3))
            if gcd(gcd(a1, a2), a3) != 1:
                continue
            p = numerical([a1, a2, a3])
            if not is_minimal_generating(p):
                continue
            out.append((a1, a2, a3, p))
        _C4["data"] = out
    return _C4["data"]


def test_criterion_4_three_generator_formulas():
    def body():
        for a1, a2, a3, p in _criterion4_triples():
            t = gcd(a2 - a1, a3 - a1)
            assert [g.free[0] for g in l_set(p).generators] == [a2 * (a3 - a1) // t]
            assert ceq(p) == (a3 - a1) // t

    _criterion(4, body, budget=30.0)


def test_criterion_5_almost_arithmetic_family():
    def body():
        fam = AlmostArithmeticFamily(17, 3, 5, 7)
        formula = lset_almost_arithmetic(fam)
        vals = sorted(g.free[0] for g in formula.generators)
        assert vals == [40, 43, 46, 49, 52, 102, 105]
        engine = l_set(fam.presentation())
        assert sorted(g.free[0] for g in engine.generators) == [40, 43, 46, 49, 52]
        assert monoid_ideals_equal(formula, engine)

    _criterion(5, body, budget=5.0)


def test_criterion_6_principal_l_set_invariants():
    def body():
        p = numerical([17, 29, 37, 47])
        assert [g.free[0] for g in l_set(p).generators] == [111]
        assert f2l(p) == 218
        assert ceq(p) == 5
        assert ceq_element_bruteforce(p, 145) == 5

    _criterion(6, body, budget=5.0)


_CORPUS = {}


def _corpus_records(reduced, numerical_list):
    """Engine and brute-force data for the shared random corpus.

    Computed once; the first caller pays (and is timed for) the work.
    """
    if "recs" not in _CORPUS:
        recs = []
        for p in list(reduced) + list(numerical_list):
            maxw = max(p.weights)
            fibers = _fibers(p, 5 * maxw)
            recs.append(
                {
                    "p": p,
                    "maxw": maxw,
                    "elements": tuple(fibers),
                    "lbrute": lset_bruteforce(fibers),
                    "tbrute": tset_bruteforce(fibers),
                    "l": l_set(p),
                    "t": t_set(p),
                }
            )
        _CORPUS["recs"] = recs
    return _CORPUS["recs"]


def _ideal_members(ideal, elements, universe):
    # x lies in the ideal iff x - g stays in the monoid for some generator
    # g; the universe is weight-complete, so membership is a set lookup
    if ideal is None:
        return set()
    gens = ideal.generators
    return {x for x in elements if any((x - g) in universe for g in gens)}


def test_criterion_7_brute_force_agreement(reduced_instances, numerical_instances):
    def body():
        for rec in _corpus_records(reduced_instances, numerical_instances):
            universe = set(rec["elements"])
            assert _ideal_members(rec["l"], rec["elements"], universe) == rec["lbrute"]
            assert _ideal_members(rec["t"], rec["elements"], universe) == rec["tbrute"]

    _criterion(7, body, budget=300.0)


def test_criterion_8_order_independent_degrees(reduced_instances, numerical_instances):
    def body():
        for rec in _corpus_records(reduced_instances, numerical_instances):
            p = rec["p"]
            mg = minimal_generators(lattice_ideal(p, GREVLEX), p)
            ml = minimal_generators(lattice_ideal(p, LEX), p)
            dg = sorted(p.evaluate(b.plus).sort_key() for b in mg.elements)
            dl = sorted(p.evaluate(b.plus).sort_key() for b in ml.elements)
            assert dg == dl

    _criterion(8, body)


def _enumerated_complement(p, cap, rec):
    if cap <= 5 * rec["maxw"]:
        elements = [x for x in rec["elements"] if p.weight_of(x) <= cap]
        lbrute = rec["lbrute"]
    else:
        elements = _fibers(p, cap)
        lbrute = lset_bruteforce(elements)
    return [x for x in elements if x not in lbrute]


def test_criterion_9_finiteness_verdicts(reduced_instances, numerical_instances):
    def body():
        for rec in _corpus_records(reduced_instances, numerical_instances):
            p = rec["p"]
            assert apery_is_finite(p, list(p.generators))
            assert apery_set(p, list(p.generators)).finite
            single = [p.generators[0]]
            res_single = apery_set(p, single, limit=1)
            assert res_single.finite == apery_is_finite(p, single)

            fin_claim = l_set_complement_is_finite(p)
            window = rec["maxw"]
            if rec["l"] is None:
                # empty L: the complement is all of S, which is infinite
                assert not fin_claim
                cap = 3 * window
                comp = [x for x in rec["elements"] if p.weight_of(x) <= cap]
                assert any(cap - window < p.weight_of(x) <= cap for x in comp)
                continue
            res = l_set_complement(p, limit=1)
            assert res.finite == fin_claim
            if fin_claim:
                claimed = set(res.elements)
                cap = max(p.weight_of(x) for x in claimed) + 2 * window
                comp = _enumerated_complement(p, cap, rec)
                assert set(comp) == claimed
            else:
                # an infinite complement puts an element in every window
                # of width maxw, in particular in the top one
                cap = 3 * window
                comp = _enumerated_complement(p, cap, rec)
                assert any(cap - window < p.weight_of(x) <= cap for x in comp)

    _criterion(9, body)


def test_criterion_10_bounds_and_formula_reports(numerical_instances):
    def body():
        for _, _, _, p in _criterion4_triples():
            assert ceq(p) <= ceq_upper_bound_numerical(p)
        for p in numerical_instances:
            if p.n >= 3:
                assert ceq(p) <= ceq_upper_bound_numerical(p)
        families = [
            AlmostArithmeticFamily(17, 3, 5, 7),
            AlmostArithmeticFamily(17, 3, 5, 33),
            AlmostArithmeticFamily(7, 3, 3, 8),
            AlmostArithmeticFamily(11, 3, 4, 27),
        ]
        seen_disagreement = False
        for f in families:
            rep = ceq_almost_arithmetic_report(f)
            engine = ceq(f.presentation())
            assert rep["engine"] == engine
            assert rep["forms_agree"] == (rep["proof_form"] == rep["printed_form"])
            assert rep["engine_matches_proof"] == (engine == rep["proof_form"])
            assert rep["engine_matches_printed"] == (engine == rep["printed_form"])
            if not (rep["engine_matches_proof"] and rep["engine_matches_printed"]):
                seen_disagreement = True
        assert seen_disagreement
        known = ceq_almost_arithmetic_report(AlmostArithmeticFamily(17, 3, 5, 7))
        assert known["engine"] == 6 and known["printed_form"] == 5
        assert not known["engine_matches_printed"] and known["engine_matches_proof"]
        agree = ceq_almost_arithmetic_report(AlmostArithmeticFamily(17, 3, 5, 33))
        assert agree["engine"] == 4 and agree["forms_agree"] and agree["engine_matches_proof"]

    _criterion(10, body)
