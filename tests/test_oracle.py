"""The brute-force reference path, checked on its own terms."""

import ast
import time
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import monofact
from monofact import oracle
from monofact.catenary import ceq_element_bruteforce, ceq_of_factorizations
from monofact.errors import BudgetExceeded, InvalidInput, NotReduced, NotStabilized
from monofact.ideal import Binomial, groebner, lattice_ideal, minimal_generators
from monofact.monoid import all_factorizations, numerical, presentation, validate_reduced
from monofact.oracle import (
    _Tally,
    check,
    f2l_bruteforce,
    ideal_members,
    lset_bruteforce,
    monoid_elements,
    tset_bruteforce,
)
from monofact.orders import GREVLEX, LEX
from monofact.same_length import _minimalize_degrees, l_set, t_set


def test_the_oracle_reaches_no_groebner_code():
    # the oracle decides disagreements with the engine, so neither it nor
    # a module it imports may use the Groebner side; only ``check``, which
    # sets the two against each other, imports the engine, in its body
    src = Path(monofact.__file__).parent
    seen, todo = set(), ["oracle"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
            if name == "oracle":
                checks = [f for f in tree.body if getattr(f, "name", None) == "check"]
                assert len(checks) == 1
                tree.body.remove(checks[0])
            todo += [
                node.module
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            ]
    assert "monoid" in seen
    assert not seen & {"ideal", "same_length", "apery"}


def test_monoid_elements_fibers_are_complete():
    p = numerical([3, 5, 7])
    fibers = monoid_elements(p, 30)
    zero = p.zero()
    assert fibers[zero] == [(0, 0, 0)]
    for el, facs in fibers.items():
        assert sorted(facs) == sorted(tuple(f) for f in all_factorizations(p, el))
    assert p.element((4,)) not in fibers
    assert max(e.free[0] for e in fibers) == 30


def test_lset_bruteforce_357():
    p = numerical([3, 5, 7])
    got = sorted(e.free[0] for e in lset_bruteforce(monoid_elements(p, 30)))
    assert got == [10 + s for s in range(21) if s not in (1, 2, 4)]


def test_tset_contains_lset():
    p = numerical([3, 5, 7])
    fibers = monoid_elements(p, 30)
    ls = lset_bruteforce(fibers)
    ts = tset_bruteforce(fibers)
    assert ls <= ts
    tvals = sorted(e.free[0] for e in ts)
    assert min(tvals) == 10
    assert 11 not in tvals


def test_two_generator_lset_empty_tset_not():
    p = numerical([3, 5])
    fibers = monoid_elements(p, 25)
    assert lset_bruteforce(fibers) == set()
    got = sorted(e.free[0] for e in tset_bruteforce(fibers))
    assert got == [15, 18, 20, 21, 23, 24, 25]


def test_rank2_brute_and_engine_agree_both_ways():
    pt = presentation(2, (), [(0, 2), (1, 2), (1, 1), (3, 2), (4, 2)])
    universe = monoid_elements(pt, 5 * max(pt.weights))
    brute_l = lset_bruteforce(universe)
    brute_t = tset_bruteforce(universe)
    li, ti = l_set(pt), t_set(pt)
    for el in universe:
        assert li.contains(el) == (el in brute_l)
        assert ti.contains(el) == (el in brute_t)


@st.composite
def _small_presentations(draw):
    if draw(st.booleans()):
        vals = draw(
            st.lists(st.integers(3, 25), min_size=3, max_size=4, unique=True).filter(
                lambda v: gcd(*v) == 1
            )
        )
        return numerical(sorted(vals))
    t = draw(st.integers(2, 4))
    gens = draw(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, t - 1)).filter(any),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    return presentation(1, (t,), sorted(gens))


def _ideal_members(ideal, universe):
    # the comparison of acceptance criterion 7: x lies in the ideal iff
    # x - g stays in the monoid for some generator g, and the universe is
    # weight-complete, so membership is a set lookup
    if ideal is None:
        return set()
    return {x for x in universe if any((x - g) in universe for g in ideal.generators)}


@given(_small_presentations())
@settings(max_examples=30, deadline=None)
def test_engine_sets_match_the_oracle_on_generated_presentations(p):
    try:
        p = validate_reduced(p)
    except NotReduced:
        assume(False)
    fibers = monoid_elements(p, 5 * max(p.weights))
    universe = set(fibers)
    assert _ideal_members(t_set(p), universe) == tset_bruteforce(fibers)
    assert _ideal_members(l_set(p), universe) == lset_bruteforce(fibers)


def _frozen_fiber_map(p, cap):
    # the fiber walk as it was before it carried flat rows: each step adds
    # the generator as a GroupElement, which reduces the residues at once
    weights = p.weights
    n = p.n
    tally = _Tally()
    out = {}
    coeffs = [0] * n

    def rec(i, remaining, el):
        if i == n:
            tally.tick()
            out.setdefault(el, []).append(tuple(coeffs))
            return
        c = 0
        while c * weights[i] <= remaining:
            coeffs[i] = c
            rec(i + 1, remaining - c * weights[i], el)
            el = el + p.generators[i]
            c += 1
        coeffs[i] = 0

    rec(0, cap, p.zero())
    return out


_TORSION_CASE = presentation(1, (3,), [(-4, 2), (-3, 2), (-2, 1), (-1, 1)])


@st.composite
def _report_shaped(draw):
    # the small-report recipe: rank 1-2, n <= 4, |entries| <= 6, mostly with
    # a torsion modulus 2-6; a cap of up to 8 lightest generators makes raw
    # residue sums pass the modulus, so vectors merge only once reduced
    rank = draw(st.integers(1, 2))
    torsion = (draw(st.integers(2, 6)),) if draw(st.integers(0, 4)) else ()
    entry = st.tuples(*[st.integers(-6, 6)] * rank, *[st.integers(0, t - 1) for t in torsion])
    gens = draw(st.lists(entry.filter(any), min_size=1, max_size=4, unique=True))
    try:
        p = validate_reduced(presentation(rank, torsion, sorted(gens)))
    except NotReduced:
        assume(False)
    return p, min(p.weights) * draw(st.integers(1, 8))


@given(_report_shaped())
@example((_TORSION_CASE, 40))
@settings(max_examples=60, deadline=None)
def test_flat_fiber_walk_matches_the_group_element_walk(case):
    p, cap = case
    frozen = _frozen_fiber_map(p, cap)
    assert list(monoid_elements(p, cap).items()) == list(frozen.items())
    vectors = sum(map(len, frozen.values()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_LISTING_CAP", vectors)
        monoid_elements(p, cap)
        if vectors > 1:
            mp.setattr(oracle, "_LISTING_CAP", vectors - 1)
            with pytest.raises(BudgetExceeded):
                monoid_elements(p, cap)


def test_torsion_fibers_merge_unreduced_residues():
    # 6 (-1, 1), 3 (-2, 1) and (-4, 2) + (-2, 1) reach free part -6 with raw
    # residues 6, 3 and 3: one element, residue 0 mod 3, and one fiber
    fibers = monoid_elements(_TORSION_CASE, 40)
    assert fibers[_TORSION_CASE.element((-6,), (0,))] == [(0, 0, 0, 6), (0, 0, 3, 0), (1, 0, 1, 0)]


@given(_report_shaped())
@example((_TORSION_CASE, 40))
@settings(max_examples=40, deadline=None)
def test_the_lset_and_tset_walk_keeps_the_length_of_each_vector(case):
    # the L_S and T_S checks keep one length per vector in walk order, and
    # read off it the sets the full vectors give
    p, cap = case
    fibers = monoid_elements(p, cap)
    lengths = oracle._fiber_map(p, cap, lengths=True)
    assert list(lengths.items()) == [(el, [sum(f) for f in facs]) for el, facs in fibers.items()]
    assert tset_bruteforce(lengths) == tset_bruteforce(fibers)
    assert {el for el, ks in lengths.items() if len(set(ks)) < len(ks)} == lset_bruteforce(fibers)


@given(_report_shaped())
@example((_TORSION_CASE, 40))
@settings(max_examples=40, deadline=None)
def test_ideal_members_matches_ideal_contains(case):
    p, cap = case
    fibers = monoid_elements(p, cap)
    for ideal in (l_set(p), t_set(p)):
        if ideal is not None:
            got = ideal_members(fibers, ideal.generators)
            assert got == {x for x in fibers if ideal.contains(x)}


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@given(p=_small_presentations(), data=st.data())
@settings(max_examples=30, deadline=None)
def test_apery_feed_order_leaves_the_reduced_basis_unchanged(order, p, data):
    # apery_set feeds the monomials of B before the reduced basis of I_S;
    # the reduced Groebner basis of the sum is unique, so the feed order
    # cannot change it
    try:
        p = validate_reduced(p)
    except NotReduced:
        assume(False)
    exps = st.lists(st.integers(0, 3), min_size=p.n, max_size=p.n).filter(any)
    monomials = [Binomial.monomial(e) for e in data.draw(st.lists(exps, min_size=1, max_size=3))]
    basis = list(lattice_ideal(p, order).elements)
    reduced = groebner(monomials + basis, order)
    assert reduced == groebner(basis + monomials, order)
    assert all(b.plus == b.oriented(order)[0] for b in reduced.elements)


def _minimal_generator_degrees(p, q, order):
    # reference route: the S-degrees of the minimal generators of I_q,
    # trimmed as an ideal of p (q is p for T_S and S~ for L_S)
    mins = minimal_generators(lattice_ideal(q, order), q)
    return tuple(_minimalize_degrees(p, {p.evaluate(b.plus): b.plus for b in mins.elements}))


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@given(p=_small_presentations())
@settings(max_examples=30, deadline=None)
def test_engine_sets_match_the_minimal_generator_route(order, p):
    try:
        p = validate_reduced(p)
    except NotReduced:
        assume(False)
    for engine, q in ((t_set, p), (l_set, p.lift)):
        ideal = engine(p)
        got = ideal.generators if ideal is not None else ()
        assert got == _minimal_generator_degrees(p, q, order)


@pytest.mark.parametrize(
    "p",
    [numerical([3, 5, 7]), presentation(1, (2,), [(2, 0), (3, 1), (4, 1)])],
    ids=["3-5-7", "torsion"],
)
def test_ceq_of_a_fiber_matches_the_element_search(p):
    # the CLI c_eq check reads fibers instead of searching each element
    for el, facs in monoid_elements(p, 40).items():
        assert ceq_of_factorizations(facs) == ceq_element_bruteforce(p, el)


@pytest.mark.parametrize(
    "gens, cap, value",
    [([10, 27, 32, 34, 39], 234, 7), ([17, 18, 27, 28, 38], 228, 10)],
    ids=["10-27-32-34-39", "17-18-27-28-38"],
)
def test_the_ceq_witness_is_read_off_the_grevlex_minimal_generators(gens, cap, value):
    # the first top-degree GREVLEX minimal generator weighs past the cap
    # (238 and 270); the lightest top-degree pair of ceq's own trim (214
    # and 180) would read covered
    assert check(numerical(gens), "ceq", cap) == {
        "what": "ceq", "cap": cap, "ok": True,
        "engine": value, "oracle": value, "witness_covered": False,
    }


def test_f2l_bruteforce_values():
    assert f2l_bruteforce(numerical([17, 29, 37, 47]), 400) == 218
    assert f2l_bruteforce(numerical([3, 5, 7]), 80) == 14


def test_f2l_bruteforce_stops_at_the_first_full_window():
    # 15, 16 and 17 each have two factorizations of one length, so the
    # scan ends at b = 17; a walk up to the weight cap would not finish
    start = time.perf_counter()
    assert f2l_bruteforce(numerical([3, 5, 7]), 10**9) == 14
    assert time.perf_counter() - start < 1.0


def test_f2l_bruteforce_guards():
    with pytest.raises(InvalidInput):
        f2l_bruteforce(presentation(2, (), [(1, 0), (1, 1)]), 50)
    # <3,5> never reaches two equal-length factorizations
    with pytest.raises(NotStabilized):
        f2l_bruteforce(numerical([3, 5]), 50)


def test_budget_guards(monkeypatch):
    p = numerical([3, 5, 7])
    for walk in (monoid_elements, f2l_bruteforce):
        for cap in (0, -1):
            with pytest.raises(InvalidInput, match="budget caps must be positive"):
                walk(p, cap)
        for cap in (True, 2.5, 30.0):
            with pytest.raises(InvalidInput):
                walk(p, cap)
    # every walk counts the vectors it visits against the library's listing cap
    monkeypatch.setattr(oracle, "_LISTING_CAP", 5)
    with pytest.raises(BudgetExceeded):
        monoid_elements(p, 30)
    with pytest.raises(BudgetExceeded):
        f2l_bruteforce(p, 80)


def test_check_refuses_an_unknown_what():
    with pytest.raises(InvalidInput):
        check(numerical([3, 5, 7]), "apery", 40)
