"""T_S, L_S, complements, and the numerical invariants built on them."""

import time
from itertools import product
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from test_ideal import _stacked_kernel

from monofact import apery, catenary, ideal, monoid, same_length
from monofact.apery import apery_set
from monofact.catenary import ceq
from monofact.errors import (
    BudgetExceeded,
    CrossCheckError,
    DimensionMismatch,
    EmptyLSet,
    InfiniteWithoutLimit,
    InvalidInput,
    NotReduced,
    UndefinedForN2,
)
from monofact.ideal import lattice_ideal, minimal_generators
from monofact.monoid import (
    is_minimal_generating,
    member,
    numerical,
    presentation,
    primitive,
    uncovered_rays,
    validate_reduced,
)
from monofact.orders import GREVLEX, LEX, block, wgrevlex
from monofact.same_length import (
    MonoidIdeal,
    f2l,
    integers_outside_l_set,
    l_set,
    l_set_complement,
    l_set_complement_is_finite,
    monoid_ideals_equal,
    t_set,
)


def test_357_t_and_l():
    p = numerical([3, 5, 7])
    t = t_set(p)
    assert sorted(g.free[0] for g in t.generators) == [10, 12, 14]
    l = l_set(p)
    assert [g.free[0] for g in l.generators] == [10]
    assert l.is_principal
    comp = l_set_complement(p)
    vals = sorted(e.free[0] for e in comp.elements)
    assert comp.finite and vals == [0, 3, 5, 6, 7, 8, 9, 11, 12, 14]
    assert f2l(p) == 14
    assert l_set_complement_is_finite(p)


# Two presentations left out of the small-report corpus for their cost, with
# T_S as it was before the search solved its last coefficients by Cramer's
# rule: almost every T_S candidate here is trimmed by a failing search.
_SLOW_T_SETS = [
    (
        (2, (3,), [(-6, -5, 1), (-4, -5, 0), (2, -6, 1), (2, -3, 0)]),
        [(-2, -11, 1), (-134, -173, 0), (-140, -175, 0), (-126, -174, 0),
         (-118, -175, 0), (-110, -176, 0), (-102, -177, 0), (-94, -178, 0),
         (-86, -179, 0), (-78, -180, 0), (-70, -181, 0), (-62, -182, 0), (-54, -183, 0),
         (-46, -184, 0), (-38, -185, 0), (-30, -186, 0), (-22, -187, 0), (-14, -188, 0),
         (-6, -189, 0), (2, -190, 0), (10, -191, 0), (18, -192, 0), (26, -193, 0),
         (34, -194, 0), (42, -195, 0), (50, -196, 0), (58, -197, 0), (66, -198, 0)],
    ),
    (
        (2, (6,), [(-2, 3, 2), (-1, 2, 4), (4, 5, 0), (5, 5, 2)]),
        [(1, 11, 0), (92, 115, 0), (86, 113, 2), (78, 114, 0), (70, 115, 4),
         (62, 116, 2), (54, 117, 0), (46, 118, 4), (38, 119, 2), (30, 120, 0),
         (22, 121, 4), (14, 122, 2), (6, 123, 0), (-2, 124, 4), (-10, 125, 2),
         (-18, 126, 0), (-26, 127, 4), (-34, 128, 2), (-42, 129, 0), (-50, 130, 4),
         (-58, 131, 2), (-66, 132, 0)],
    ),
]


@pytest.mark.parametrize("data, expected", _SLOW_T_SETS, ids=["excluded-11", "excluded-14"])
def test_t_set_of_presentations_with_many_failing_searches(data, expected):
    t = t_set(presentation(*data))
    assert [tuple(g.free + g.torsion) for g in t.generators] == expected


def test_two_generators_have_empty_l_set():
    p = numerical([3, 5])
    assert [g.free[0] for g in t_set(p).generators] == [15]
    assert l_set(p) is None
    assert not l_set_complement_is_finite(p)
    with pytest.raises(UndefinedForN2):
        f2l(p)
    with pytest.raises(EmptyLSet):
        l_set_complement(p)


def test_17_29_37_47_principal():
    p = numerical([17, 29, 37, 47])
    l = l_set(p)
    assert [g.free[0] for g in l.generators] == [111]
    assert l.is_principal
    assert f2l(p) == 218


def test_rank2_example_t_l_and_infinite_complement():
    p = presentation(2, (), [(0, 2), (1, 2), (1, 1), (3, 2), (4, 2)])
    t = t_set(p)
    assert sorted(g.free for g in t.generators) == [(2, 4), (3, 4), (4, 4), (5, 4), (6, 4)]
    l = l_set(p)
    assert sorted(g.free for g in l.generators) == [(3, 6), (4, 4), (9, 6)]
    assert not l_set_complement_is_finite(p)
    assert not l.is_principal
    comp = l_set_complement(p, limit=4, order=wgrevlex((2, 2, 1, 2, 2)))
    assert not comp.finite and comp.count == 42
    # the finiteness verdict has to survive an order change
    assert not l_set_complement(p, limit=4).finite


def test_torsion_example_l_and_complement():
    p = presentation(1, (2,), [(2, 0), (3, 1), (4, 1)])
    l = l_set(p)
    assert [(g.free[0], g.torsion[0]) for g in l.generators] == [(12, 0)]
    assert l_set_complement_is_finite(p)
    comp = l_set_complement(p)
    assert comp.finite and comp.count == 24


@pytest.mark.parametrize(
    "rank, generators, count",
    [
        (1, [(1, 0), (1, 1)], 4),
        (2, [(1, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1)], 7),
        (2, [(1, 0, 0), (1, 0, 1), (0, 1, 0), (1, 1, 0)], None),
    ],
    ids=["rank1", "rank2", "rank2-one-ray-bare"],
)
def test_a_ray_with_two_generators_of_equal_free_part_is_covered(rank, generators, count):
    # criterion (2.a): two generators with equal free parts, differing in
    # their torsion, make a ray carry an L_S generator; in the last case
    # the ray (0, 1) carries one generator only, and (1, 1) is not extremal
    p = presentation(rank, (2,), generators)
    assert l_set_complement_is_finite(p) is (count is not None)
    if count is None:
        with pytest.raises(InfiniteWithoutLimit):
            l_set_complement(p)
    else:
        comp = l_set_complement(p)
        assert comp.finite and comp.count == count


def test_l_set_complement_rejects_a_negative_limit():
    with pytest.raises(InvalidInput, match="limit"):
        l_set_complement(numerical([3, 5, 7]), limit=-1)


def test_almost_arithmetic_engine_minimalizes_family():
    p = numerical([7, 17, 20, 23, 26, 29])
    l = l_set(p)
    got = sorted(g.free[0] for g in l.generators)
    assert got == [40, 43, 46, 49, 52]
    # the longer seven-term family generates the same monoid ideal
    fam = [40, 43, 46, 49, 52, 102, 105]
    assert all(l.contains(p.element((f,))) for f in fam)
    assert all(
        any(member(p, p.element((g - f,))) is not None for f in fam if f <= g)
        for g in got
    )


def test_almost_arithmetic_premultiset_of_ideal_degrees():
    # before monoid-ideal minimalization the homogenized ideal has nine
    # minimal generators; their degrees include the redundant tail
    p = numerical([7, 17, 20, 23, 26, 29])
    h = p.lift
    mins = minimal_generators(lattice_ideal(h), h)
    degs = sorted(b.degree(h).free[0] for b in mins.elements)
    assert degs == [40, 43, 46, 46, 49, 52, 102, 105, 108]


def test_arithmetic_five_generators():
    p = numerical([17, 20, 23, 26, 29])
    assert sorted(g.free[0] for g in l_set(p).generators) == [40, 43, 46, 49, 52]


def test_345_principal():
    assert [g.free[0] for g in l_set(numerical([3, 4, 5])).generators] == [8]


def test_homogenize_appends_length_coordinate(monkeypatch):
    p = validate_reduced(presentation(1, (2,), [(2, 0), (3, 1), (4, 1)]))

    def refuse(vectors):
        raise AssertionError("S~ solved a pointing LP")

    monkeypatch.setattr(monoid, "positive_functional", refuse)
    h = p.lift
    # S~ is kept on its presentation and drops back to p's generators
    assert p.lift is h
    assert [(g.free[:-1], g.torsion) for g in h.generators] == [
        (g.free, g.torsion) for g in p.generators
    ]
    assert [(g.free, g.torsion) for g in h.generators] == [
        ((2, 1), (0,)),
        ((3, 1), (1,)),
        ((4, 1), (1,)),
    ]
    # S~ carries its pointing from the start: no LP proves it reduced
    assert h.pointing == (0, 1) and validate_reduced(h) is h


@st.composite
def _numerical_values(draw):
    # 2-5 distinct generators up to 60 with gcd 1; some are a m - 1 or
    # a m - 3 for the smallest a, the steps -1 and -3 mod a, which walk
    # the residue classes downward
    a = draw(st.integers(2, 30))
    values = {a, *draw(st.lists(st.integers(a + 1, 60), max_size=4))}
    for k in draw(st.lists(st.sampled_from([1, 3]), max_size=2)):
        values.add(a * draw(st.integers(2, 61 // a)) - k)
    values = sorted(v for v in values if a <= v <= 60)[:5]
    assume(len(values) >= 2 and gcd(*values) == 1)
    return values


@given(_numerical_values())
@settings(max_examples=150, deadline=None)
def test_apery_residues_are_the_least_members_of_their_classes(values):
    # the membership search is an oracle independent of the round robin:
    # w_r lies in S, and since S + a lies in S, w_r - a outside S (or
    # negative) means no smaller x = r mod a lies in S
    w = same_length._apery_residues(values)
    p = numerical(values)
    a = values[0]
    assert len(w) == a
    for r, x in enumerate(w):
        assert x % a == r
        assert member(p, p.element((x,))) is not None
        assert x < a or member(p, p.element((x - a,))) is None


def _relaxed_residues(values):
    """``_apery_residues`` as it was before the round robin: relax every
    residue class by every generator until nothing changes, kept verbatim
    as the reference."""
    vals = sorted(set(values))
    a = vals[0]
    w = [0] + [a * vals[-1]] * (a - 1)
    changed = True
    while changed:
        changed = False
        for r in range(a):
            for v in vals[1:]:
                s = (r + v) % a
                if w[r] + v < w[s]:
                    w[s], changed = w[r] + v, True
    return w


@st.composite
def _residue_inputs(draw):
    # smallest generator a in 1-40 (1 and 2 included), the others up to
    # 12 a, some a m - 1 or a m - 3 (the steps -1 and -3 mod a), repeated
    # values, and any order
    a = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 40)))
    values = [a] + draw(st.lists(st.integers(a + 1, 12 * a + 1), max_size=4))
    for k in draw(st.lists(st.sampled_from([1, 3]), max_size=2)):
        m = draw(st.integers(2, 12))
        if a * m - k > a:
            values.append(a * m - k)
    values += draw(st.lists(st.sampled_from(values), max_size=2))
    values = draw(st.permutations(values))
    assume(gcd(*values) == 1)
    return values


@example([1])
@example([2, 3])
@example([7, 13, 13, 11])
@given(_residue_inputs())
@settings(max_examples=300, deadline=None)
def test_round_robin_residues_match_the_relaxation(values):
    assert same_length._apery_residues(values) == _relaxed_residues(values)


def test_residues_of_a_large_smallest_generator_take_linear_time():
    # steps -1 and -3 mod 10007: the relaxation took 13.8 s here
    start = time.perf_counter()
    w = same_length._apery_residues([10007, 20013, 20011])
    assert time.perf_counter() - start < 2.0
    assert len(w) == 10007 and w[0] == 0
    assert w[10006] == 20013 and w[10005] == 2 * 20013 and w[10004] == 20011


def test_f2l_needs_numerical_gcd_one():
    with pytest.raises(InvalidInput):
        f2l(presentation(2, (), [(1, 0), (0, 1), (1, 1)]))
    with pytest.raises(InvalidInput, match="gcd 1"):
        f2l(numerical([6, 10, 14]))


def test_monoid_ideal_validation():
    p = numerical([3, 5, 7])
    with pytest.raises(InvalidInput):
        MonoidIdeal(p, ())
    with pytest.raises(InvalidInput):
        MonoidIdeal(p, (p.zero(),))
    ideal = MonoidIdeal(p, (p.element((10,)),))
    assert ideal.is_principal
    assert ideal.contains(10) and ideal.contains(13)
    assert not ideal.contains(11)
    assert ideal.to_data() == {"generators": [10], "minimalized": False}


def test_apery_residues_refuse_a_table_past_the_cap(monkeypatch):
    # the cap counts entries, one per residue modulo the smallest generator
    monkeypatch.setattr(same_length, "_RESIDUE_CAP", 5)
    assert same_length._apery_residues([5, 6, 7]) == [0, 6, 7, 13, 14]
    with pytest.raises(BudgetExceeded, match="residue table of 6 entries"):
        same_length._apery_residues([6, 7, 8])


def test_the_l_set_trim_joins_only_the_base_its_weights_need(monkeypatch):
    # I_S of <10001, 10003, 10005, 10007> has 340 saturated generators, and
    # only 3 weigh at most 20010, the heaviest L_S candidate: those 3 join
    # the truncated run, then the 3 candidates are asked about
    p = numerical([10001, 10003, 10005, 10007])
    base = ideal.saturated_generators(p)
    ideal.saturated_generators(p.lift)  # the candidates, built before counting
    light = [a for a, _ in base if sum(map(int.__mul__, a, p.weights)) <= 20010]
    assert (len(base), len(light)) == (340, 3)
    adds = []
    real = ideal._engine

    def counting(lay, weights=None):
        add, complete, reduced = real(lay, weights)

        def counted(el, keep=True):
            adds.append(el)
            return add(el, keep)

        return counted, complete, reduced

    monkeypatch.setattr(ideal, "_engine", counting)
    assert [g.free[0] for g in l_set(p).generators] == [20006, 20008, 20010]
    assert len(adds) == len(light) + 3


def test_monoid_ideals_equal_and_dimension_guard():
    p = numerical([3, 5, 7])
    a = MonoidIdeal(p, (p.element((10,)),))
    b = MonoidIdeal(p, (p.element((10,)), p.element((13,))))
    assert monoid_ideals_equal(a, b)
    c = MonoidIdeal(p, (p.element((12,)),))
    assert not monoid_ideals_equal(a, c)
    # 10 + S lies inside (10 + S) ∪ (11 + S) but not the other way round
    # (11 - 10 = 1 is not in S): one inclusion is not equality
    d = MonoidIdeal(p, (p.element((10,)), p.element((11,))))
    assert not monoid_ideals_equal(a, d)
    assert not monoid_ideals_equal(d, a)
    # ambient groups that differ in rank only, then in torsion only
    rank2 = presentation(2, (), [(1, 0), (1, 1)])
    torsion2 = presentation(1, (2,), [(1, 0), (1, 1)])
    for other in (
        MonoidIdeal(rank2, (rank2.element((1, 1)),)),
        MonoidIdeal(torsion2, (torsion2.element((1,), (1,)),)),
    ):
        with pytest.raises(DimensionMismatch):
            monoid_ideals_equal(a, other)
        with pytest.raises(DimensionMismatch):
            monoid_ideals_equal(other, a)


def test_l_subset_t_on_random_instances(reduced_instances):
    for p in reduced_instances[:15]:
        l = l_set(p)
        t = t_set(p)
        if l is None:
            continue
        assert t is not None
        for g in l.generators:
            assert t.contains(g)


def test_f2l_rejects_an_infinite_complement(monkeypatch):
    # a numerical semigroup with n >= 3 has a nonempty L_S, so a finite
    # complement; the guard is a typed error, so it also holds under python -O
    monkeypatch.setattr(same_length, "l_set", lambda p, order=None: None)
    with pytest.raises(CrossCheckError):
        f2l(numerical([3, 5, 7]))


def test_f2l_rejects_an_l_set_generator_outside_s(monkeypatch):
    # the gap 1 cannot generate part of L_S; the residue bounds would be wrong
    def gap_generator(p, order=None):
        return MonoidIdeal(p, (p.element((1,)),))

    monkeypatch.setattr(same_length, "l_set", gap_generator)
    with pytest.raises(CrossCheckError):
        f2l(numerical([3, 5, 7]))


_minimal_numerical = (
    st.lists(st.integers(3, 40), min_size=3, max_size=5, unique=True)
    .map(sorted)
    .filter(lambda vals: gcd(*vals) == 1)
    .map(numerical)
    .filter(is_minimal_generating)
)


def _gaps(values):
    """Gaps of the numerical semigroup generated by ``values``: the x >= 0
    with x < w_{x mod a} over the residue table."""
    return same_length._below_residue_bounds(same_length._apery_residues(values))


@settings(max_examples=30, deadline=None)
@given(_minimal_numerical)
def test_integers_outside_l_set_match_the_apery_complement(p):
    # the residue bounds against the staircase walk of S \ L_S plus the gaps
    expected = set(_gaps([g.free[0] for g in p.generators]))
    expected |= {e.free[0] for e in l_set_complement(p).elements}
    assert integers_outside_l_set(p) == tuple(sorted(expected))
    # F_2l is read off the residue bounds without listing them
    assert f2l(p) == max(expected)


def test_f2l_lists_no_complement():
    # the complement of L_S here has 16.7 million integers; listing them
    # took 5.9 s and about 780 MB
    p = numerical([10007, 10009, 10013])
    t0 = time.perf_counter()
    assert f2l(p) == 33423384
    assert time.perf_counter() - t0 < 1.0


def test_f2l_past_the_listing_cap():
    # 1,667,166,685 integers lie outside L_S; F_2l needs none of them, and
    # the listing is refused from its count alone
    assert f2l(numerical([100003, 100005, 100009])) == 3334000019
    with pytest.raises(BudgetExceeded):
        integers_outside_l_set(numerical([10007, 10009, 10013]))


@settings(max_examples=30, deadline=None)
@given(_minimal_numerical)
def test_listing_cap_counts_exactly(p):
    # the count taken before listing is the listing's length: a cap equal
    # to it changes nothing and one below it refuses
    full = integers_outside_l_set(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(same_length, "_LISTING_CAP", len(full))
        assert integers_outside_l_set(p) == full
        mp.setattr(same_length, "_LISTING_CAP", len(full) - 1)
        with pytest.raises(BudgetExceeded):
            integers_outside_l_set(p)


def _search_only_minimalize(p, witnesses):
    """The trimming by factorization searches alone: one member search per
    (degree, kept degree) pair.  Kept here unchanged as the reference."""
    kept = {}
    for d in sorted(witnesses, key=lambda d: (p.weight_of(d), d.sort_key())):
        if all(member(p, d - e) is None for e in kept):
            kept[d] = witnesses[d]
    return kept


@st.composite
def _presentations_up_to_rank_2(draw):
    rank = draw(st.integers(1, 2))
    moduli = draw(st.lists(st.integers(2, 4), max_size=1))
    entry = st.tuples(
        *[st.integers(-3, 6)] * rank, *[st.integers(0, t - 1) for t in moduli]
    ).filter(lambda g: any(g[:rank]))
    gens = draw(st.lists(entry, min_size=2, max_size=4, unique=True))
    return presentation(rank, moduli, sorted(gens))


@st.composite
def _presentations_up_to_rank_3(draw):
    """Rank 1-3, at most one torsion modulus, 1-5 generators pointed by a
    drawn functional: many with independent free parts (ker S = 0), and
    some whose kernel is one row of nonzero sum (ker S~ = 0)."""
    rank = draw(st.integers(1, 3))
    moduli = draw(st.lists(st.integers(2, 5), max_size=1))
    w = draw(st.sampled_from([w for w in product((-1, 0, 1), repeat=rank) if any(w)]))
    entry = st.tuples(
        *[st.integers(-4, 5)] * rank, *[st.integers(0, t - 1) for t in moduli]
    ).filter(lambda g: sum(a * b for a, b in zip(w, g)) >= 1)
    gens = draw(st.lists(entry, min_size=1, max_size=5, unique=True))
    return validate_reduced(presentation(rank, moduli, sorted(gens)))


def _refuse_search(p, x):
    raise AssertionError("T_S and L_S are trimmed with no factorization search")


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@settings(max_examples=25, deadline=None)
@given(st.one_of(_presentations_up_to_rank_2(), _presentations_up_to_rank_3()))
def test_degree_generators_match_the_search_only_trimming(order, p):
    # the one truncated Buchberger run must keep the degrees, witnesses
    # and their order the searches alone give on the generators read (the
    # saturated generators of I_S for T_S and of I_{S~} for L_S), and run
    # no search itself; the basis under any order trims to the same degrees
    try:
        p = validate_reduced(p)
    except NotReduced:
        assume(False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(same_length, "member", _refuse_search)
        ideals = t_set(p), l_set(p)
        trimmed = [same_length._degree_generators(p, lifted) for lifted in (False, True)]
    for answer, got, q in zip(ideals, trimmed, (p, p.lift)):
        assert [d for d, _ in got] == ([] if answer is None else list(answer.generators))
        for o in (order, GREVLEX):
            basis = lattice_ideal(q, o)
            expected = _search_only_minimalize(
                p, {p.evaluate(b.plus): b.plus for b in basis.elements}
            )
            assert [d for d, _ in got] == list(expected)
        # the witnesses are those of the saturated generators, trimmed last
        expected = _search_only_minimalize(
            p, {p.evaluate(plus): plus for plus, _ in ideal.saturated_generators(q)}
        )
        assert got == tuple(expected.items())


@settings(max_examples=40, deadline=None)
@given(_presentations_up_to_rank_2(), st.data())
def test_finite_sets_are_read_off_grevlex_bases_under_every_order(p, data):
    # a finite Ap_S(B), B covering the cone, and a finite S \ L_S are the
    # same sets under every order, and only GREVLEX bases are built for them
    try:
        p = validate_reduced(p)
    except NotReduced:
        assume(False)
    b = []
    for ray in uncovered_rays(p, ()):
        b.append(data.draw(st.sampled_from([g for g in p.generators if primitive(g.free) == ray])))
    exps = st.lists(st.integers(0, 2), min_size=p.n, max_size=p.n).filter(any)
    b += [p.evaluate(e) for e in data.draw(st.lists(exps, max_size=2))]
    finite_complement = l_set_complement_is_finite(p) and l_set(p) is not None

    def answers(order=GREVLEX):
        comp = l_set_complement(p, order=order) if finite_complement else None
        return apery_set(p, b, order=order), comp

    expected = answers()
    orders = (LEX, GREVLEX, wgrevlex(tuple(range(1, p.n + 1))), block(1, GREVLEX, LEX))
    seen = []

    def seeing(module, name):
        real = getattr(module, name)

        def wrapper(arg, order=GREVLEX, *rest):
            seen.append(order)
            return real(arg, order, *rest)

        return mock.patch.object(module, name, wrapper)

    with seeing(ideal, "_lattice_ideal"), seeing(apery, "_buchberger"):
        for order in orders:
            assert answers(order) == expected
    assert set(seen) <= {GREVLEX}


@settings(max_examples=60, deadline=None)
@given(_presentations_up_to_rank_2())
def test_the_answers_without_an_order_are_the_same_under_every_order(p):
    # t_set, l_set, ceq and a finite apery_set read the saturated
    # generators; the basis under any order must give the same degrees,
    # the same c_eq (graded Nakayama) and the same finite Apery set
    try:
        p = validate_reduced(p)
    except NotReduced:
        assume(False)
    lifted = p.lift
    orders = (LEX, GREVLEX, wgrevlex(tuple(range(1, p.n + 1))), block(1, GREVLEX, LEX))
    for is_lift, q in ((False, p), (True, lifted)):
        keys = [d for d, _ in same_length._degree_generators(p, is_lift)]
        for order in orders:
            basis = lattice_ideal(q, order)
            witnesses = {p.evaluate(b.plus): b.plus for b in basis.elements}
            assert list(same_length._minimalize_degrees(p, witnesses)) == keys
    expected = apery_set(p, p.generators).elements
    for order in orders:
        mins = minimal_generators(lattice_ideal(lifted, order), lifted)
        assert max((b.total_degree() for b in mins.elements), default=0) == ceq(p)
        assert apery_set(p, p.generators, order=order).elements == expected


def _l_set_answers(p):
    try:
        complement = l_set_complement(p, limit=2)
    except EmptyLSet:
        complement = None
    return (
        l_set(p),
        ceq(p),
        complement,
    )


@settings(max_examples=80, deadline=None)
@given(_presentations_up_to_rank_3())
@example(presentation(2, (), [(1, 0), (0, 1)]))  # independent free parts
@example(numerical([3, 5]))  # ker S = <(5, -3)>, of sum 2
@example(presentation(2, (), [(1, 0), (1, 1), (1, 2)]))  # ker S = <(1, -2, 1)>, of sum 0
@example(presentation(1, (2,), [(1, 0), (1, 1)]))  # ker S = <(2, -2)>, through the torsion
def test_zero_kernels_read_off_ranks_match_the_lift_and_the_walk(p):
    # ker S = 0 is read off the rank of the free parts, and ker S~ = 0 off
    # the kernel of S, with no lift built; both must agree with the stacked
    # kernel and with an explicitly built lift, and Ap_S of every generator
    # with the walked staircase of J = <x_1, ..., x_n>
    assert (p.kernel == ()) == (_stacked_kernel(p) == [])
    zero = same_length._lift_kernel_is_zero(p)
    got = _l_set_answers(p)
    assert ("lift" in p.__dict__) != zero
    # the same presentation as a fresh object, every answer read off its lift
    q = presentation(p.rank, p.torsion, [g.free + g.torsion for g in p.generators])
    assert (q.lift.kernel == ()) == zero
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(same_length, "_lift_kernel_is_zero", lambda p: False)
        mp.setattr(catenary, "_lift_kernel_is_zero", lambda p: False)
        assert _l_set_answers(q) == got
    leads = [apery._unit(p.n, i) for i in range(p.n)]
    rows = [g.free + g.torsion for g in p.generators]
    walked = [deg for _, deg in apery._standard_monomials(leads, rows, None)]
    assert [e.free + e.torsion for e in apery_set(p, p.generators).elements] == walked
