"""Apery sets relative to a finite subset B, finite and truncated."""

import json
from itertools import product
from math import gcd
from typing import get_type_hints

import pytest
from hypothesis import assume, event, given, settings, strategies as st
from test_oracle import _small_presentations
from test_same_length import _presentations_up_to_rank_3

from monofact import apery, cli, ideal, monoid
from monofact.apery import AperyResult, apery_is_finite, apery_set
from monofact.errors import (
    BudgetExceeded,
    CrossCheckError,
    InfiniteWithoutLimit,
    InvalidInput,
    NotInMonoid,
    NotReduced,
)
from monofact.ideal import Binomial, groebner, lattice_ideal
from monofact.monoid import (
    GroupElement,
    MonoidPresentation,
    member,
    numerical,
    presentation,
    presentation_from_data,
    validate_reduced,
)
from monofact.orders import GREVLEX, LEX, block, wgrevlex
from monofact.same_length import l_set, l_set_complement

RANK2 = presentation(2, (), [(0, 2), (1, 2), (1, 1), (3, 2), (4, 2)])
W = wgrevlex((2, 2, 1, 2, 2))
B3 = [[3, 6], [4, 4], [9, 6]]


def test_rank2_ideal_matches_six_relations():
    gb = lattice_ideal(RANK2, order=W)
    relations = [
        Binomial.difference((0, 0, 0, 2, 0), (0, 0, 2, 0, 1)),
        Binomial.difference((0, 0, 2, 1, 0), (0, 1, 0, 0, 1)),
        Binomial.difference((0, 1, 0, 1, 0), (1, 0, 0, 0, 1)),
        Binomial.difference((0, 0, 4, 0, 0), (1, 0, 0, 0, 1)),
        Binomial.difference((0, 1, 2, 0, 0), (1, 0, 0, 1, 0)),
        Binomial.difference((0, 2, 0, 0, 0), (1, 0, 2, 0, 0)),
    ]
    assert gb == groebner(relations, W)


def test_rank2_apery_is_infinite_for_b3():
    assert not apery_is_finite(RANK2, B3)
    with pytest.raises(InfiniteWithoutLimit):
        apery_set(RANK2, B3, order=W)


def test_rank2_enlarged_ideal_leads():
    gb = lattice_ideal(RANK2, order=W)
    jb = groebner(
        list(gb.elements)
        + [
            Binomial.monomial((0, 3, 0, 0, 0)),
            Binomial.monomial((0, 1, 0, 1, 0)),
            Binomial.monomial((0, 0, 0, 3, 0)),
        ],
        W,
    )
    leads = sorted(b.oriented(W)[0] for b in jb.elements)
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


def _family_truncation(limit):
    """The degree-capped standard monomials listed for the running
    example, evaluated to monoid elements."""
    gens = [(0, 2), (1, 2), (1, 1), (3, 2), (4, 2)]

    def deg(exp):
        x = (0, 0)
        for e, g in zip(exp, gens):
            x = (x[0] + e * g[0], x[1] + e * g[1])
        return x

    mons = set()
    for a in range(limit + 1):
        for c in range(4):
            if a + c <= limit:
                mons.add((a, 0, c, 0, 0))
                mons.add((0, 0, c, 0, a))
    for a in range(limit):
        for c in range(2):
            if a + 1 + c <= limit:
                mons.add((a, 1, c, 0, 0))
                mons.add((0, 0, c, 1, a))
    mons.update({(1, 0, 0, 1, 0), (0, 1, 0, 0, 1), (1, 0, 1, 1, 0), (0, 1, 1, 0, 1)})
    mons = {m for m in mons if sum(m) <= limit}
    return sorted(deg(m) for m in mons)


def test_rank2_truncation_matches_family_enumeration():
    res = apery_set(RANK2, B3, order=W, limit=4)
    assert not res.finite and res.limit == 4
    assert res.count == 42
    assert sorted(e.free for e in res.elements) == _family_truncation(4)


def test_rank2_truncation_count_depends_on_order():
    # the truncation is an order artifact; under grevlex the degree-4
    # staircase slice is larger
    res = apery_set(RANK2, B3, order=GREVLEX, limit=4)
    assert not res.finite
    assert res.count == 46


def test_torsion_apery_finite_24():
    q = presentation(1, (2,), [(2, 0), (3, 1), (4, 1)])
    assert apery_is_finite(q, [[12, 0]])
    res = apery_set(q, [[12, 0]])
    assert res.finite and res.limit is None
    listed = {(x, 0) for x in [0, 2, 4, 6, 7, 8, 9, 10, 11, 13, 15, 17]} | {
        (x, 1) for x in range(3, 15)
    }
    assert {(e.free[0], e.torsion[0]) for e in res.elements} == listed
    assert res.count == 24


def test_numerical_apery_of_single_generator():
    p = numerical([3, 5, 7])
    res = apery_set(p, [3])
    assert res.finite
    assert sorted(e.free[0] for e in res.elements) == [0, 5, 7]
    assert res.count == 3


@pytest.mark.parametrize("values", [[3, 5, 7], [4, 6, 9], [6, 10, 15], [4, 6]])
def test_a_numerical_apery_set_is_refused_from_its_count(monkeypatch, values):
    # Ap_S(b) of a numerical S with gcd d holds b/d elements: a cap equal
    # to that count changes nothing, one below it refuses before any
    # member search for b
    p = numerical(values)
    d = gcd(*values)
    for b in range(d, 40, d):
        if member(p, p.element((b,))) is None:
            continue
        res = apery_set(p, [[b]])
        assert res.count == b // d
        with monkeypatch.context() as mp:
            mp.setattr(apery, "_LISTING_CAP", b // d)
            assert apery_set(p, [[b]]) == res
            mp.setattr(apery, "_LISTING_CAP", b // d - 1)
            mp.setattr(apery, "require_member", None)
            with pytest.raises(BudgetExceeded):
                apery_set(p, [[b]])



@pytest.mark.parametrize(
    "data, limit",
    [
        ({"rank": 2, "torsion": [5], "generators": [[-5, -4, 2], [-5, 6, 1], [-4, -3, 4], [1, 1, 4]]}, 2),
        ({"rank": 1, "torsion": [3], "generators": [[-4, 2], [-3, 2], [-2, 1], [-1, 1]]}, None),
    ],
    ids=["truncated", "finite"],
)
def test_the_staircase_walk_stops_exactly_past_the_listing_cap(monkeypatch, data, limit):
    # both walks count the monomials they keep (15 here): a cap equal to
    # that count changes nothing, one below it refuses
    p = presentation_from_data(data)
    res = l_set_complement(p, limit=limit)
    assert res.count == 15 and res.finite == (limit is None)
    monkeypatch.setattr(apery, "_LISTING_CAP", 15)
    assert l_set_complement(p, limit=limit) == res
    monkeypatch.setattr(apery, "_LISTING_CAP", 14)
    with pytest.raises(BudgetExceeded, match="more than 14 monomials"):
        l_set_complement(p, limit=limit)

def test_apery_b_must_lie_in_monoid():
    p = numerical([3, 5, 7])
    with pytest.raises(NotInMonoid):
        apery_set(p, [4])
    with pytest.raises(InvalidInput):
        apery_set(p, [0])
    with pytest.raises(InvalidInput):
        apery_set(p, [10], factorizations=[(1, 0, 0)])
    with pytest.raises(InvalidInput):
        apery_set(p, [10], factorizations=[])


@pytest.mark.parametrize(
    "p, b, order, limit",
    [
        (RANK2, B3, W, 4),
        (presentation(1, (2,), [(2, 0), (3, 1), (4, 1)]), [[12, 0]], GREVLEX, None),
    ],
    ids=["truncated", "torsion-finite"],
)
def test_the_walk_evaluates_no_monomial(monkeypatch, p, b, order, limit):
    # the walk carries each degree, so at most a factorization of each b
    # is evaluated, never a walked monomial
    calls = []
    evaluate = MonoidPresentation.evaluate

    def counted(self, coeffs):
        calls.append(coeffs)
        return evaluate(self, coeffs)

    monkeypatch.setattr(MonoidPresentation, "evaluate", counted)
    res = apery_set(p, b, order=order, limit=limit)
    assert len(calls) <= len(b)
    monkeypatch.undo()
    assert res.finite == (limit is None) and res.count == len(res.elements) > 0
    for e in res.elements:
        built = p.element(list(e.free), list(e.torsion))
        assert e == built and hash(e) == hash(built)


@pytest.mark.parametrize(
    "p, limit",
    [
        (numerical([3, 5, 8]), None),
        (presentation(2, (3,), [(1, 0, 1), (0, 1, 1), (1, 1, 2), (2, 1, 0)]), None),
        (presentation(2, (3,), [(1, 0, 1), (0, 1, 1), (1, 1, 2), (2, 1, 0)]), 3),
    ],
    ids=["numerical", "torsion-finite", "torsion-truncated"],
)
def test_generators_in_b_factor_as_unit_vectors(monkeypatch, p, limit):
    # a generator that is a sum of others has a searched factorization
    # other than its unit vector; both give the same J
    p = validate_reduced(p)
    b = list(p.generators) if limit is None else [p.generators[2]]
    searched = [member(p, g) for g in b]
    assert (0, 0, 1) + (0,) * (p.n - 3) not in searched
    expected = apery_set(p, b, factorizations=searched, limit=limit)

    def no_search(p, x):
        raise AssertionError("a generator of B was searched for")

    monkeypatch.setattr(apery, "require_member", no_search)
    assert apery_set(p, b, limit=limit) == expected
    monkeypatch.undo()
    with pytest.raises(NotInMonoid):
        apery_set(p, b + [p.element((-1,) + (0,) * (p.rank - 1), (0,) * len(p.torsion))])


@pytest.mark.parametrize("fac", [(1.9, 0, 0), (True, 0, 0)], ids=["float", "bool"])
def test_apery_refuses_non_integer_factorizations(fac):
    # int() would read both as (1, 0, 0), a factorization of 3
    with pytest.raises(InvalidInput):
        apery_set(numerical([3, 5, 7]), [3], factorizations=[fac])
    assert apery_set(numerical([3, 5, 7]), [3], factorizations=[("1", 0, 0)]).count == 3


@pytest.mark.parametrize("fac", [(1, 1), (5, 0, -1)], ids=["short", "negative"])
def test_apery_refuses_a_malformed_factorization(fac):
    # (1, 1) is the true (1, 1, 0) cut short, and (5, 0, -1) sums to
    # 15 - 7 = 8 all the same: only the shape check refuses them
    with pytest.raises(InvalidInput, match="malformed factorization"):
        apery_set(numerical([3, 5, 7]), [8], factorizations=[fac])


def test_an_order_that_does_not_fit_is_refused_on_every_branch():
    # a finite set reads no basis under the order, and Ap_S(all
    # generators) reads none at all; the order is checked all the same
    p = numerical([3, 5, 7])
    for b in (p.generators, [3], [10]):
        with pytest.raises(InvalidInput, match="weight vector"):
            apery_set(p, b, order=wgrevlex((1, 2)))
    with pytest.raises(InvalidInput, match="split"):
        apery_set(RANK2, B3, order=block(6, GREVLEX, LEX), limit=2)


def test_apery_shares_the_memoized_lattice_ideal():
    p = numerical([3, 5, 7])
    gb = lattice_ideal(p)
    res = apery_set(p, [3])
    assert lattice_ideal(p) is gb
    assert sorted(e.free[0] for e in res.elements) == [0, 5, 7]


def test_finite_verdict_matches_cone_criterion(numerical_instances):
    for p in numerical_instances[:10]:
        b_all = [g.free[0] for g in p.generators]
        assert apery_is_finite(p, b_all)
        res = apery_set(p, b_all)
        assert res.finite


# (presentation data, B, limit, forced cone verdict): the lie sends a truly
# infinite set down the finite path and a finite one down the truncated path
_LYING_CONES = [
    ({"rank": 2, "generators": [[0, 2], [1, 2], [1, 1], [3, 2], [4, 2]]}, B3, 4, True),
    ({"numerical": [3, 5, 7]}, [3], 2, False),
]


@pytest.mark.parametrize(
    "data, b, limit, verdict", _LYING_CONES, ids=["says-finite", "says-infinite"]
)
def test_a_cone_verdict_the_staircase_contradicts_raises(
    monkeypatch, capsys, data, b, limit, verdict
):
    p = presentation_from_data(data)
    assert apery_is_finite(p, b) is not verdict
    rays = () if verdict else ((1,),)
    monkeypatch.setattr(apery, "uncovered_rays", lambda p, elements: rays)
    with pytest.raises(CrossCheckError):
        apery_set(p, b, limit=limit)
    argv = ["apery", "--input", json.dumps(data), "--b", json.dumps(b), "--limit", str(limit)]
    assert cli.main(argv) == 5
    assert capsys.readouterr().err.startswith("error:")


def test_a_covered_ray_called_uncovered_raises(monkeypatch):
    # B = [3] covers the one ray of <3, 5, 7>; a cone test that lies on
    # both counts must still be caught by the truncated path's check
    p = numerical([3, 5, 7])
    monkeypatch.setattr(apery, "uncovered_rays", lambda p, elements: ((1,),))
    with pytest.raises(CrossCheckError):
        apery_set(p, [3], limit=3)


def test_an_uncovered_ray_bounded_in_the_staircase_raises(monkeypatch):
    # the truncated path's check needs some generator on each uncovered ray
    # without a pure-power lead in the I_S basis
    monkeypatch.setattr(apery, "_pure_power_variables", lambda leads: set(range(RANK2.n)))
    with pytest.raises(CrossCheckError):
        apery_set(RANK2, B3, order=W, limit=4)


def test_apery_result_annotations_resolve():
    hints = get_type_hints(AperyResult)
    assert hints["elements"] == tuple[GroupElement, ...]


@st.composite
def _rank2_presentations(draw):
    # rank 1 makes every nonzero B cover the cone; rank 2 has truncated sets
    gens = draw(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    return presentation(2, (), sorted(gens))


@st.composite
def _rank2_torsion_presentations(draw):
    # the small-report shape that takes the truncated path: negative
    # entries and one torsion modulus, pointed by a drawn functional w
    t = draw(st.integers(2, 6))
    w = draw(st.sampled_from([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b]))
    gens = draw(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(0, t - 1)).filter(
                lambda g: w[0] * g[0] + w[1] * g[1] >= 1
            ),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    return presentation(2, (t,), sorted(gens))


def _divides(lead, exp):
    return all(a <= b for a, b in zip(lead, exp))


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@given(
    p=st.one_of(_small_presentations(), _rank2_presentations(), _rank2_torsion_presentations()),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_staircase_walk_matches_an_unpruned_filter(order, p, data):
    try:
        p = validate_reduced(p)
    except NotReduced:
        assume(False)
    exps = st.lists(st.integers(0, 2), min_size=p.n, max_size=p.n).filter(any)
    facts = data.draw(st.lists(exps, min_size=1, max_size=2))
    limit = data.draw(st.integers(0, 4))
    elems = [p.evaluate(f) for f in facts]
    res = apery_set(p, elems, factorizations=facts, order=order, limit=limit)
    gens = [Binomial.monomial(f) for f in facts] + list(lattice_ideal(p, order).elements)
    leads = [b.oriented(order)[0] for b in groebner(gens, order).elements]
    powers = {}
    for lead in leads:
        support = [i for i, e in enumerate(lead) if e]
        if len(support) == 1:
            i = support[0]
            powers[i] = min(powers.get(i, lead[i]), lead[i])
    finite = len(powers) == p.n
    if finite:
        box = product(*(range(powers[i]) for i in range(p.n)))
    else:
        box = (e for e in product(range(limit + 1), repeat=p.n) if sum(e) <= limit)
    standard = [e for e in box if not any(_divides(lead, e) for lead in leads)]
    assert res.finite == finite
    assert res.limit == (None if finite else limit)
    assert res.elements == tuple(sorted((p.evaluate(e) for e in standard), key=GroupElement.sort_key))


def _groebner_route(p, facts, order):
    """A finite Ap_S(B) from the reduced basis of I_S + <x^beta> under
    ``order``, built by ``groebner`` from the ordered basis of I_S, its
    standard monomials listed in the box of its pure powers."""
    gens = [Binomial.monomial(f) for f in facts] + list(lattice_ideal(p, order).elements)
    leads = [b.plus for b in groebner(gens, order).elements]
    powers = {}
    for lead in leads:
        support = [i for i, e in enumerate(lead) if e]
        if len(support) == 1:
            i = support[0]
            powers[i] = min(powers.get(i, lead[i]), lead[i])
    assert len(powers) == p.n
    box = product(*(range(powers[i]) for i in range(p.n)))
    standard = [e for e in box if not any(_divides(lead, e) for lead in leads)]
    return tuple(sorted((p.evaluate(e) for e in standard), key=GroupElement.sort_key))


@pytest.mark.parametrize(
    "order", [GREVLEX, LEX, block(1, LEX, GREVLEX)], ids=["grevlex", "lex", "block"]
)
@given(
    p=st.one_of(_small_presentations(), _rank2_presentations(), _rank2_torsion_presentations()),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_eliminated_generators_match_the_groebner_route(order, p, data):
    # B = {one generator}, B = every generator (no Buchberger at all), and
    # generators mixed with other elements, whose factorizations are searched
    try:
        p = validate_reduced(p)
    except NotReduced:
        assume(False)
    n = p.n
    one = data.draw(st.integers(0, n - 1))
    some = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    exps = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda e: sum(e) >= 2)
    others = [tuple(e) for e in data.draw(st.lists(exps, min_size=1, max_size=2))]
    for idxs, extra in (([one], []), (range(n), []), (some, others)):
        facts = [tuple(int(j == i) for j in range(n)) for i in idxs] + extra
        elems = [p.evaluate(f) for f in facts]
        if not apery_is_finite(p, elems):
            continue
        res = apery_set(p, elems, order=order)
        assert res.finite
        assert res.elements == _groebner_route(p, facts, order)


def _bounded(n, limit):
    """Every exponent vector of n entries with total degree at most
    ``limit``."""
    if n == 0:
        yield ()
        return
    for e in range(limit + 1):
        for rest in _bounded(n - 1, limit - e):
            yield (e, *rest)


def _search_cut(p, elems, order, limit):
    """A truncated Ap_S(B) under the walk's former cut, one member search
    per (standard monomial, b): the degrees s of the standard monomials of
    I_S under ``order`` of total degree at most ``limit`` with s - b
    outside S for every b.  Kept here unchanged as the reference."""
    leads = [b.plus for b in lattice_ideal(p, order).elements]
    degrees = {
        p.evaluate(e) for e in _bounded(p.n, limit) if not any(_divides(l, e) for l in leads)
    }
    kept = (s for s in degrees if all(member(p, s - b) is None for b in elems))
    return tuple(sorted(kept, key=GroupElement.sort_key))


def _no_search(p, x, find_all):
    raise AssertionError("a truncated Apery set ran a factorization search")


@pytest.mark.parametrize("kind", ["grevlex", "lex", "wgrevlex"])
@given(p=_presentations_up_to_rank_3(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_the_engine_cut_matches_the_search_cut(kind, p, data):
    # every truncation at limits 0-6, of S \ L_S and of Ap_S(b) for one
    # drawn b given with its factorization, keeps what one member search
    # per (monomial, b) kept, and the library runs no search at all
    order = {"grevlex": GREVLEX, "lex": LEX, "wgrevlex": wgrevlex(tuple(range(1, p.n + 1)))}[kind]
    f = data.draw(st.lists(st.integers(0, 2), min_size=p.n, max_size=p.n).filter(any))
    b = p.evaluate(f)
    truncated = 0
    for limit in range(7):
        answers = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(monoid, "_search", _no_search)
            answers.append(([b], apery_set(p, [b], [f], order=order, limit=limit)))
            ls = l_set(p)
            if ls is not None:
                answers.append((ls.generators, l_set_complement(p, limit=limit, order=order)))
        for elems, res in answers:
            if not res.finite:
                truncated += 1
                assert res.limit == limit
                assert res.elements == _search_cut(p, elems, order, limit)
    event("some truncation compared" if truncated else "every set finite")


@pytest.mark.parametrize("p", [numerical([3, 5, 7]), RANK2], ids=["rank-1", "rank-2"])
def test_an_empty_b_cuts_nothing(p):
    # with no b, J = I_S holds no monomial: the truncation is every degree
    # of the I_S staircase up to the limit
    res = apery_set(p, [], limit=2)
    assert not res.finite and res.limit == 2
    assert res.elements == _search_cut(p, [], GREVLEX, 2)
    if p.rank == 1:
        assert [e.free[0] for e in res.elements] == [0, 3, 5, 6, 7, 8, 10, 12, 14]


def test_a_truncated_walk_past_the_packed_fields_restarts_wider(monkeypatch):
    # the x^beta and the saturated generators fit in 4-bit fields, so with
    # no larger least width the cut's run starts there; the walk to total
    # degree 20 asks about exponents past 15, and the run restarts at 8 bits
    q = presentation(2, (), [g.free for g in RANK2.generators])
    res = apery_set(q, B3, order=W, limit=20)
    assert res.count == 234
    widths = []
    layout = ideal._layout

    def spy(order, n, width):
        widths.append(width)
        return layout(order, n, width)

    monkeypatch.setattr(ideal, "_MIN_WIDTH", 1)
    monkeypatch.setattr(ideal, "_layout", spy)
    assert apery_set(q, B3, order=W, limit=20) == res
    assert widths == [4, 8]
    monkeypatch.undo()
    assert res.elements == _search_cut(q, [q.element(b) for b in B3], W, 20)
