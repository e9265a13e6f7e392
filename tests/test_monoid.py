"""Presentations, reducedness, membership, and factorization search."""

from decimal import Decimal
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from monofact import monoid, oracle
from monofact.apery import apery_set
from monofact.catenary import ceq_element_bruteforce
from monofact.errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidInput,
    NotInMonoid,
    NotReduced,
)
from monofact.intlinalg import matrix_rank
from monofact.monoid import (
    GroupElement,
    MonoidPresentation,
    _search,
    all_factorizations,
    element_from_data,
    is_minimal_generating,
    member,
    numerical,
    presentation,
    presentation_from_data,
    primitive,
    require_member,
    uncovered_rays,
    validate_reduced,
)
from monofact.oracle import monoid_elements
from monofact.ratlp import in_cone, positive_functional, zero_combination


def test_numerical_rejects_nonpositive():
    with pytest.raises(InvalidInput):
        numerical([3, 0, 5])
    with pytest.raises(InvalidInput):
        numerical([-2, 3])


def test_generator_length_must_match_rank_and_torsion():
    with pytest.raises(DimensionMismatch):
        presentation(2, (), [(1, 2, 3)])
    with pytest.raises(DimensionMismatch):
        presentation(1, (2,), [(1,)])


_TORSION_2 = GroupElement((1,), (1,), (2,))  # an element of Z + Z/2


@pytest.mark.parametrize(
    "make, error, match",
    [
        (lambda: presentation(-1), InvalidInput, "rank must be nonnegative"),
        (lambda: presentation(1), InvalidInput, "at least one generator"),
        (lambda: MonoidPresentation(1, (), (_TORSION_2,)), DimensionMismatch, "generator shape"),
        (lambda: numerical([3, 5]).element((1, 2)), DimensionMismatch, "free part"),
        (lambda: element_from_data(numerical([3, 5]), _TORSION_2), DimensionMismatch, "ambient group"),
        (lambda: member(numerical([3, 5]), _TORSION_2), DimensionMismatch, "element shape"),
    ],
    ids=[
        "negative-rank",
        "no-generators",
        "generator-of-another-group",
        "long-free-part",
        "element-data-of-another-group",
        "member-of-another-group",
    ],
)
def test_shapes_that_do_not_fit_the_presentation_are_refused(make, error, match):
    with pytest.raises(error, match=match):
        make()


def test_torsion_moduli_must_be_at_least_two():
    with pytest.raises(InvalidInput):
        presentation(1, (1,), [(2, 0)])


def test_duplicate_generators_rejected():
    p = presentation(1, (), [(3,), (3,)])
    with pytest.raises(InvalidInput):
        validate_reduced(p)


def test_element_refuses_floats_and_bools():
    p = numerical([3, 5, 7])
    for bad in (1.5, True):
        with pytest.raises(InvalidInput):
            p.element((bad,))
    q = presentation(1, (3,), [(1, 0), (1, 1)])
    with pytest.raises(InvalidInput):
        q.element((1,), (2.0,))
    assert p.element(("4",)) == p.element((4,)) == GroupElement((4,), (), ())


def test_pure_torsion_generator_is_a_unit():
    p = presentation(1, (2,), [(0, 1), (3, 0)])
    with pytest.raises(NotReduced) as err:
        validate_reduced(p)
    assert err.value.generator is not None
    assert all(a == 0 for a in err.value.generator.free)


def test_unpointed_cone_witnessed_by_zero_combination():
    # 2 and -3 generate a group, not a reduced monoid
    p = presentation(1, (), [(2,), (-3,)])
    with pytest.raises(NotReduced) as err:
        validate_reduced(p)
    comb = err.value.combination
    assert comb is not None and any(c > 0 for c in comb)
    assert sum(c * g for c, g in zip(comb, [2, -3])) == 0


def test_validate_accepts_mixed_signs_when_pointed():
    p = presentation(2, (), [(-2, 1), (-1, 1), (0, 1), (1, 1), (2, 1)])
    assert validate_reduced(p) is p and "pointing" in vars(p)
    # the pointing vector is strictly positive on every generator
    w = p.pointing
    for g in p.generators:
        assert sum(a * b for a, b in zip(w, g.free)) > 0


def _lp_first_pointing(p):
    # validate_reduced and pointing as they were before the kernel proof:
    # every presentation proved by the pointing LP, kept here as the reference
    seen = set()
    for g in p.generators:
        if (g.free, g.torsion) in seen:
            raise InvalidInput(f"duplicate generator {g.to_data()}")
        seen.add((g.free, g.torsion))
    for i, g in enumerate(p.generators):
        if all(a == 0 for a in g.free):
            raise NotReduced(f"generator {i} lies in the torsion subgroup", generator=g)
    free_parts = [g.free for g in p.generators]
    w = positive_functional(free_parts)
    if w is None:
        witness = zero_combination(free_parts)
        raise NotReduced("cone of free parts is not pointed", combination=tuple(witness))
    return tuple(w)


@st.composite
def _presentations_to_prove(draw):
    # rank 1-3, n <= 5, with and without torsion, mostly n <= rank + 1
    # where the kernel may decide; on purpose some copy a generator, add a
    # torsion-only one or add minus a sum of free parts (a cone that is not
    # pointed)
    rank = draw(st.integers(1, 3))
    extra = draw(st.sampled_from(["none", "duplicate", "torsion-only", "unpointed"]))
    moduli = draw(st.sampled_from([(2,), (3,), (2, 3)] + [()] * (extra != "torsion-only")))
    frees = draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * rank).filter(any), min_size=1, max_size=min(4, rank + 2))
    )

    def residues():
        return tuple(draw(st.integers(0, t - 1)) for t in moduli)

    gens = [v + residues() for v in frees]
    if extra == "duplicate":
        gens.append(draw(st.sampled_from(gens)))
    elif extra == "torsion-only":
        gens.append((0,) * rank + draw(st.tuples(*[st.integers(0, t - 1) for t in moduli]).filter(any)))
    elif extra == "unpointed":
        summed = draw(st.lists(st.sampled_from(frees), min_size=1, max_size=3))
        gen = tuple(-sum(col) for col in zip(*summed)) + residues()
        if any(gen):
            gens.append(gen)
    return presentation(rank, moduli, draw(st.permutations(gens)))


@example(numerical([5, 5]))  # a duplicate: gamma = (1, -1) has both signs
@example(presentation(1, (2,), [(0, 1), (1, 0)]))  # torsion-only: gamma = (2, 0)
@example(presentation(2, (), [(1, 0), (-2, 0), (0, 1)]))  # gamma = (2, 1, 0), not pointed
@example(presentation(2, (5,), [(1, 0, 1), (0, 1, 2), (1, 1, 0)]))  # gamma = (5, 5, -5)
@given(_presentations_to_prove())
@settings(max_examples=300, deadline=None)
def test_the_kernel_proof_agrees_with_the_lp_first_proof(p):
    # same verdict, error type, message and witness as the LP-first
    # reference, and pointing read afterwards is the reference's vertex
    # (or raises as it does)
    kernel_rank = p.n - matrix_rank([g.free for g in p.generators])
    event(f"rank(ker S) = {min(kernel_rank, 2)}{'+' * (kernel_rank >= 2)}")
    try:
        want = _lp_first_pointing(p)
    except (InvalidInput, NotReduced) as exc:
        event(type(exc).__name__)
        for read in (validate_reduced, lambda q: q.pointing):
            with pytest.raises(type(exc)) as err:
                read(p)
            assert type(err.value) is type(exc) and str(err.value) == str(exc)
            if isinstance(exc, NotReduced):
                assert (err.value.generator, err.value.combination) == (exc.generator, exc.combination)
    else:
        assert validate_reduced(p) is p
        assert p.pointing == want


def test_is_minimal_generating():
    assert is_minimal_generating(numerical([3, 5, 7]))
    assert not is_minimal_generating(numerical([3, 5, 8]))


def _minimal_by_sub_presentations(p):
    # the former check: each generator searched in the monoid of the others
    gens = p.generators
    for i in range(p.n):
        rest = gens[:i] + gens[i + 1 :]
        if rest and member(monoid._pointed(p.rank, p.torsion, rest, p.pointing), gens[i]):
            return False
    return True


def test_is_minimal_generating_searches_differences_in_p_itself(
    monkeypatch, reduced_instances, numerical_instances
):
    # a_i lies in the monoid of the others exactly when some a_i - a_j lies
    # in S: the answers are those of the sub-presentation searches, and no
    # sub-presentation is built
    cases = reduced_instances + numerical_instances + [
        numerical([1]),
        numerical([4, 6, 9, 10, 15]),
        presentation(2, (), [(1, 0), (0, 1), (1, 1)]),
        presentation(2, (), [(2, -1), (0, 1), (3, 1), (4, 3)]),
        presentation(1, (2,), [(1, 0), (1, 1), (2, 1)]),
        presentation(1, (3,), [(1, 1), (2, 2), (3, 0)]),
    ]
    expected = [_minimal_by_sub_presentations(p) for p in cases]
    assert 20 < expected.count(False) < len(cases) - 20
    assert expected[-6:] == [True, False, False, False, False, False]

    def refuse(*args):
        raise AssertionError("is_minimal_generating builds no sub-presentation")

    monkeypatch.setattr(monoid, "_pointed", refuse)
    assert [is_minimal_generating(p) for p in cases] == expected


def test_member_finds_factorization():
    p = numerical([3, 5, 7])
    f = member(p, p.element((12,)))
    assert f is not None
    assert sum(c * g for c, g in zip(f, [3, 5, 7])) == 12
    assert member(p, p.element((4,))) is None
    with pytest.raises(NotInMonoid):
        require_member(p, p.element((4,)))


def test_member_handles_torsion():
    p = presentation(1, (2,), [(2, 0), (3, 1), (4, 1)])
    # 5 with residue 1 = 2 + 3
    assert member(p, p.element((5,), (1,))) is not None
    # 5 with residue 0 has no factorization
    assert member(p, p.element((5,), (0,))) is None


def test_all_factorizations_complete():
    p = numerical([3, 5, 7])
    facs = {tuple(f) for f in all_factorizations(p, p.element((10,)))}
    assert facs == {(1, 0, 1), (0, 2, 0)}
    assert all_factorizations(p, p.element((1,))) == []


def test_member_and_all_factorizations_return_the_search_tuples():
    # the coefficient tuples _search builds, passed on as they are
    n, q = numerical([3, 5, 7]), presentation(1, (2,), [(2, 0), (3, 1), (4, 1)])
    for p, x in [(n, n.element((60,))), (q, q.element((17,), (1,)))]:
        found, every = member(p, x), all_factorizations(p, x)
        assert type(found) is tuple and found == _search(p, x, False)[0]
        assert require_member(p, x) == found
        assert every == sorted(_search(p, x, True)) and len(every) > 1
        assert all(type(f) is tuple for f in every)


def test_listing_all_factorizations_stops_at_the_listing_cap(monkeypatch):
    # 60 has 22 factorizations in <3, 5, 7>; member still finds one
    p = numerical([3, 5, 7])
    x = p.element((60,))
    monkeypatch.setattr(monoid, "_LISTING_CAP", 22)
    assert len(all_factorizations(p, x)) == 22
    monkeypatch.setattr(monoid, "_LISTING_CAP", 21)
    with pytest.raises(BudgetExceeded):
        all_factorizations(p, x)
    with pytest.raises(BudgetExceeded):
        ceq_element_bruteforce(p, x)
    monkeypatch.setattr(monoid, "_LISTING_CAP", 0)
    assert member(p, x) is not None


def test_element_from_data_shapes():
    p = numerical([3, 5, 7])
    assert element_from_data(p, 12).free == (12,)
    assert element_from_data(p, "12").free == (12,)
    with pytest.raises(InvalidInput):
        element_from_data(p, True)
    q = presentation(1, (2,), [(2, 0), (3, 1)])
    e = element_from_data(q, [5, 1])
    assert e.free == (5,) and e.torsion == (1,)
    with pytest.raises(InvalidInput):
        element_from_data(q, 5)  # scalar needs rank 1 without torsion
    with pytest.raises(InvalidInput):
        element_from_data(q, [5])


def test_presentation_from_data():
    p = presentation_from_data({"numerical": [3, 5, 7]})
    assert p.is_numerical and p.weights == (3, 5, 7)
    q = presentation_from_data(
        {"rank": 1, "torsion": [2], "generators": [[2, 0], [3, 1], [4, 1]]}
    )
    assert q.rank == 1 and q.torsion == (2,)
    with pytest.raises(InvalidInput):
        presentation_from_data({"numerical": []})
    with pytest.raises(InvalidInput):
        presentation_from_data([3, 5, 7])
    with pytest.raises(InvalidInput):
        presentation_from_data({"rank": 1})
    with pytest.raises(InvalidInput, match="unknown presentation keys"):
        presentation_from_data({"numerical": [3, 5, 7], "rank": 1})


@pytest.mark.parametrize(
    "parse",
    [
        lambda: numerical([3.5, 5, 7]),
        lambda: numerical([True, 5, 7]),
        lambda: numerical(["abc", 5]),
        lambda: presentation(1, (2.9,), [(1, 0), (1, 1)]),
        lambda: presentation(1, (), [(3.0,), (5,)]),
        lambda: presentation_from_data({"rank": 1.5, "generators": [[3], [5]]}),
        lambda: presentation_from_data(
            {"rank": 1, "torsion": [2], "generators": [[3, False], [5, 1]]}
        ),
        lambda: element_from_data(presentation(1, (2,), [(2, 0), (3, 1)]), [12.9, 0]),
        lambda: element_from_data(presentation(1, (2,), [(2, 0), (3, 1)]), [12, True]),
        lambda: numerical([Fraction(35, 2), 29, 37, 47]),
        lambda: numerical([Decimal("17.9"), 29, 37, 47]),
        lambda: numerical([Decimal("17"), 29, 37, 47]),
        lambda: numerical(["\u0661\u0667", 29, 37, 47]),
        lambda: numerical([17, "2_9", 37, 47]),
        lambda: numerical([17, 29, " 37\n", 47]),
        lambda: numerical([17, 29, "+-37", 47]),
        lambda: numerical([17, 29, "", 47]),
        lambda: element_from_data(numerical([3, 5, 7]), "1_2"),
        lambda: element_from_data(numerical([3, 5, 7]), True),
        lambda: GroupElement((17.5,)),
        lambda: GroupElement(("\u0661\u0667",)),
        lambda: numerical("357"),
        lambda: apery_set(presentation(2, (), [(1, 0), (0, 1)]), [[1, 0]], limit=1.5),
        lambda: apery_set(presentation(2, (), [(1, 0), (0, 1)]), [[1, 0]], limit=True),
        lambda: ceq_element_bruteforce(numerical([3, 5, 7]), 30, cap=True),
        lambda: apery_set(numerical([3, 5, 7]), "37"),
    ],
    ids=[
        "float-generator",
        "bool-generator",
        "word-generator",
        "float-modulus",
        "float-coordinate",
        "float-rank",
        "bool-residue",
        "float-element",
        "bool-element",
        "fraction-generator",
        "decimal-generator",
        "integral-decimal-generator",
        "non-ascii-digits",
        "underscore-digits",
        "padded-digits",
        "two-signs",
        "empty-string",
        "underscore-scalar-element",
        "bool-scalar-element",
        "float-group-element",
        "non-ascii-group-element",
        "string-row",
        "float-limit",
        "bool-limit",
        "bool-cap",
        "string-element-list",
    ],
)
def test_non_integer_input_is_rejected_not_truncated(parse):
    with pytest.raises(InvalidInput):
        parse()


def test_decimal_strings_are_integers():
    assert numerical(["3", 5, "7"]) == numerical([3, 5, 7])
    q = presentation_from_data({"rank": "1", "torsion": ["2"], "generators": [["2", 0], [3, "1"]]})
    assert q == presentation(1, (2,), [(2, 0), (3, 1)])
    assert element_from_data(q, ["12", "1"]) == q.element((12,), (1,))


def test_signed_digit_strings_and_index_types_are_integers():
    class Index:
        def __index__(self):
            return 5

    assert numerical(["+3", Index(), "7"]) == numerical([3, 5, 7])
    assert presentation(1, (), [("-2",), ("+3",)]).generators[0].free == (-2,)
    assert element_from_data(numerical([3, 5, 7]), "+12") == numerical([3, 5, 7]).element((12,))


def test_group_element_arithmetic_reduces_torsion():
    a = GroupElement((2,), (1,), (2,))
    b = GroupElement((3,), (1,), (2,))
    s = a + b
    assert s.free == (5,) and s.torsion == (0,)
    assert (a + a).torsion == (0,)
    with pytest.raises(DimensionMismatch):
        a + GroupElement((1, 1))


@example([0, 0])
@example([-4, 6, 0])
@example([7])
@given(st.lists(st.one_of(st.integers(-12, 12), st.integers(-(10**20), 10**20)), min_size=1, max_size=4))
def test_primitive_divides_by_the_gcd_of_the_entries(vector):
    g = 0
    for a in vector:
        g = gcd(g, a)
    assert primitive(vector) == (tuple(a // g for a in vector) if g else tuple(vector))
    assert primitive(list(vector)) == primitive(tuple(vector))


def test_extremal_rays_of_flat_cone():
    vectors = [(-2, 1), (-1, 1), (0, 1), (1, 1), (2, 1)]
    rays = uncovered_rays(presentation(2, (), vectors), ())
    assert rays == _extremal_rays_one_lp_per_vector(vectors) == ((-2, 1), (2, 1))


def _extremal_rays_one_lp_per_vector(vectors):
    """The extremal rays of the cone of ``vectors``, primitive and sorted,
    as computed before the LPs ran over the distinct primitives, kept
    verbatim as the reference."""
    prims = []
    for v in vectors:
        if any(a != 0 for a in v):
            pv = primitive(v)
            if pv not in prims:
                prims.append(pv)
    rays = []
    for pv in prims:
        others = [v for v in vectors if any(a != 0 for a in v) and primitive(v) != pv]
        if not in_cone(others, pv):
            rays.append(pv)
    return tuple(sorted(rays))


@st.composite
def _pointed_vectors_with_repeats(draw):
    # rank 1-3 vectors positive on a drawn functional w, then positive
    # multiples of some of them (repeats when the factor is 1) and perhaps
    # a zero vector, all shuffled
    rank = draw(st.integers(1, 3))
    w = draw(st.tuples(*[st.integers(-1, 1)] * rank).filter(any))
    vectors = draw(
        st.lists(
            st.tuples(*[st.integers(-3, 3)] * rank).filter(
                lambda v: sum(a * b for a, b in zip(w, v)) >= 1
            ),
            min_size=1,
            max_size=5,
        )
    )
    picks = draw(st.lists(st.tuples(st.sampled_from(vectors), st.integers(1, 3)), max_size=3))
    vectors += [tuple(k * a for a in v) for v, k in picks]
    if draw(st.booleans()):
        vectors.append((0,) * rank)
    return draw(st.permutations(vectors))


@example([(1, 2), (2, 4), (-1, 1)])
@example([(3,), (1,), (2,)])
@given(_pointed_vectors_with_repeats())
@settings(max_examples=60, deadline=None)
def test_extremal_rays_match_one_lp_per_vector(vectors):
    # each nonzero vector is the free part of its own generator, told apart
    # by a distinct torsion residue, so that repeated vectors stay distinct
    # generators; the cone of the presentation is the rays B = () leaves
    nonzero = [v for v in vectors if any(v)]
    gens = [v + (i,) for i, v in enumerate(nonzero)]
    p = presentation(len(vectors[0]), (len(nonzero) + 1,), gens)
    assert uncovered_rays(p, ()) == _extremal_rays_one_lp_per_vector(vectors)


@st.composite
def _pointed_presentations_and_b(draw):
    # rank 1-3 free parts positive on a drawn functional, then positive
    # multiples of some (parallel directions), copies with another torsion
    # residue (repeated free parts) and B: some generator multiples and
    # some free vectors on no generator direction, zero ones included
    rank = draw(st.integers(1, 3))
    w = draw(st.tuples(*[st.integers(-1, 1)] * rank).filter(any))
    moduli = draw(st.sampled_from([(), (2,), (3,), (2, 3)]))
    frees = draw(
        st.lists(
            st.tuples(*[st.integers(-3, 3)] * rank).filter(
                lambda v: sum(a * b for a, b in zip(w, v)) >= 1
            ),
            min_size=1,
            max_size=5,
        )
    )
    picks = draw(st.lists(st.tuples(st.sampled_from(frees), st.integers(1, 3)), max_size=3))
    frees += [tuple(k * a for a in v) for v, k in picks]
    gens = [v + tuple(draw(st.integers(0, t - 1)) for t in moduli) for v in frees]
    p = validate_reduced(presentation(rank, moduli, sorted(set(gens))))
    b = [
        p.element(tuple(k * a for a in g.free), g.torsion)
        for g, k in draw(st.lists(st.tuples(st.sampled_from(p.generators), st.integers(1, 3)), max_size=4))
    ]
    others = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * rank), max_size=2))
    b += [p.element(v, (0,) * len(moduli)) for v in others]
    return p, draw(st.permutations(b))


@example((validate_reduced(presentation(2, (), [(-2, 1), (-1, 1), (0, 1), (1, 1), (2, 1)])), []))
@given(_pointed_presentations_and_b())
@settings(max_examples=80, deadline=None)
def test_uncovered_rays_match_extremal_rays_filtered_by_b(case):
    # the definition before extremality was decided per uncovered
    # direction: every extremal ray of the generators, minus B's directions
    p, b = case
    covered = {primitive(e.free) for e in b if any(e.free)}
    rays = _extremal_rays_one_lp_per_vector([g.free for g in p.generators])
    assert uncovered_rays(p, b) == tuple(r for r in rays if r not in covered)
    assert uncovered_rays(p, ()) == rays


def test_cones_equal_checks_ray_coverage():
    p = validate_reduced(presentation(2, (), [(-2, 1), (-1, 1), (0, 1), (1, 1), (2, 1)]))
    covering = [p.element((-4, 2)), p.element((2, 1))]
    assert not uncovered_rays(p, covering)
    assert uncovered_rays(p, [p.element((0, 1)), p.element((2, 1))])


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_evaluate_then_member_round_trip(coeffs):
    p = numerical([3, 5, 7])
    x = p.evaluate(tuple(coeffs))
    f = member(p, x)
    assert f is not None
    assert p.evaluate(tuple(f)) == x


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3),
    st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_weights_are_additive(ca, cb):
    p = presentation(1, (2,), [(2, 0), (3, 1), (4, 1)])
    xa, xb = p.evaluate(tuple(ca)), p.evaluate(tuple(cb))
    w = p.weights
    wa = sum(c * x for c, x in zip(ca, w))
    wb = sum(c * x for c, x in zip(cb, w))
    assert p.weight_of(xa + xb) == wa + wb


def test_search_witnesses_and_edge_cases():
    # values recorded before the search worked on flat integer rows: the
    # depth-first order (weight descending, c ascending) picks these witnesses
    p = numerical([3, 5, 7])
    thirty = p.element((30,))
    assert member(p, thirty) == (10, 0, 0)
    assert len(all_factorizations(p, thirty)) == 7
    q = presentation(1, (2,), [(2, 0), (3, 1), (4, 1)])
    assert member(q, q.element((17,), (1,))) == (7, 1, 0)
    r = validate_reduced(presentation(2, (3,), [(-3, 1, 1), (1, 2, 0), (2, 1, 2), (0, 1, 1)]))
    x = r.evaluate((2, 3, 1, 4))
    assert member(r, x) == (1, 0, 1, 11)
    assert len(all_factorizations(r, x)) == 4
    single = numerical([4])
    assert member(single, single.element((12,))) == (3,)
    assert member(single, single.element((13,))) is None
    assert member(r, r.zero()) == (0, 0, 0, 0)
    # r points along (0, 1): (5, 0) and the torsion unit of q have weight 0
    assert member(r, r.element((5, 0), (0,))) is None
    assert member(q, q.element((0,), (1,))) is None
    assert member(p, p.element((-3,))) is None


def test_evaluate_sums_columns_and_checks_length():
    r = presentation(2, (3,), [(-3, 1, 1), (1, 2, 0), (2, 1, 2), (0, 1, 1)])
    assert r.evaluate((2, 3, 1, 4)) == GroupElement((-1, 13), (2,), (3,))
    assert r.evaluate((0, 0, 0, 0)) == r.zero()
    with pytest.raises(DimensionMismatch):
        r.evaluate((1, 2, 3))


@st.composite
def _small_report_presentations(draw):
    # the shapes the small-report corpus draws: rank 1-2, at most one torsion
    # modulus in 2..6, up to four generators with entries in -6..6
    rank = draw(st.integers(1, 2))
    moduli = draw(st.lists(st.integers(2, 6), max_size=1))
    entries = [st.integers(-6, 6)] * rank + [st.integers(0, t - 1) for t in moduli]
    gens = draw(st.lists(st.tuples(*entries), min_size=2, max_size=4))
    assume(len(set(gens)) == len(gens) and all(any(g[:rank]) for g in gens))
    try:
        return validate_reduced(presentation(rank, moduli, gens))
    except NotReduced:
        assume(False)


@given(_small_report_presentations())
@settings(max_examples=40, deadline=None)
def test_search_matches_the_oracle_fibers(p):
    cap = 3 * max(p.weights)
    try:
        # each search below walks up to as many vectors as this enumeration,
        # so a small listing cap keeps the quadratic check cheap
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_LISTING_CAP", 600)
            fibers = monoid_elements(p, cap)
    except BudgetExceeded:
        assume(False)
    for x, fiber in fibers.items():
        assert all_factorizations(p, x) == sorted(fiber)
        assert member(p, x) is not None
    # neighbours of members, one unit away in a free or torsion coordinate;
    # the fibers are complete below the cap, so the map decides membership
    for x in fibers:
        flat = x.free + x.torsion
        for i in range(len(flat)):
            for step in (1, -1):
                v = list(flat)
                v[i] += step
                y = p.element(v[: p.rank], v[p.rank :])
                if p.weight_of(y) < cap:
                    assert (member(p, y) is None) == (y not in fibers)


def _one_leaf_search(p, x, find_all):
    """The factorization search as it was before its leaf solved more than
    the last coefficient, kept verbatim as the reference."""
    total = p.weight_of(x)
    results = []
    if total < 0:
        return results
    weights = p.weights
    n = p.n
    m = p.rank
    moduli = p.torsion
    idxs = sorted(range(n), key=lambda i: (-weights[i], i))
    rows = [p.generators[i].free + p.generators[i].torsion for i in idxs]
    us = [weights[i] for i in idxs]
    last = n - 1
    coeffs = [0] * n

    def rec(pos, rem, rem_weight):
        if pos == last:
            c, r = divmod(rem_weight, us[pos])
            if r:
                return False
            left = [a - c * b for a, b in zip(rem, rows[pos])]
            if any(left[:m]) or any(a % t for a, t in zip(left[m:], moduli)):
                return False
            coeffs[pos] = c
            out = [0] * n
            for k, i in enumerate(idxs):
                out[i] = coeffs[k]
            results.append(tuple(out))
            return not find_all
        row = rows[pos]
        u = us[pos]
        cur = rem
        for c in range(rem_weight // u + 1):
            coeffs[pos] = c
            if rec(pos + 1, cur, rem_weight - c * u):
                return True
            cur = tuple(a - b for a, b in zip(cur, row))
        return False

    rec(0, x.free + x.torsion, total)
    return results


@st.composite
def _rank_2_3_presentations(draw):
    # rank 2-3, up to two torsion moduli, 1-5 generators with entries of
    # both signs; a drawn flag adds a twin of the lightest generator, with
    # the same free part when there is torsion, so the last two searched
    # are parallel
    rank = draw(st.integers(2, 3))
    moduli = draw(st.lists(st.integers(2, 5), max_size=2))
    entries = [st.integers(-4, 4)] * rank + [st.integers(0, t - 1) for t in moduli]
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*entries), min_size=n, max_size=n, unique=True))
    assume(all(any(g[:rank]) for g in gens))
    try:
        p = validate_reduced(presentation(rank, moduli, gens))
        if draw(st.booleans()):
            g = gens[min(range(p.n), key=lambda i: (p.weights[i], -i))]
            twin = g[:rank] + tuple((r + 1) % t for r, t in zip(g[rank:], moduli))
            if twin == g:
                twin = tuple(2 * a for a in g[:rank])
            assume(twin not in gens)
            p = validate_reduced(presentation(rank, moduli, gens + [twin]))
    except NotReduced:
        assume(False)
    return p


# weights (4, 1, 1, 1) under the pointing (1, 0): the last two searched are parallel
_PARALLEL_LIGHTEST = presentation(2, (3,), [(4, 1, 2), (1, 4, 0), (1, 1, 0), (1, 1, 1)])
_FEWER_THAN_RANK = presentation(3, (2,), [(1, 0, -1, 1), (0, 2, 1, 0)])
_ONE_PER_COORDINATE = presentation(2, (), [(2, 1), (-1, 3)])


@example(_PARALLEL_LIGHTEST, [[0, 1, 2, 3], [2, 2, 0, 1]])
@example(_FEWER_THAN_RANK, [[3, 1], [0, 4]])
@example(_ONE_PER_COORDINATE, [[2, 5], [1, 0]])
@given(
    _rank_2_3_presentations(),
    st.lists(st.lists(st.integers(0, 3), min_size=6, max_size=6), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_solved_leaf_matches_the_one_coefficient_leaf(p, draws):
    p = validate_reduced(p)
    # the lightest generator costs the reference at most 2^(n-1) nodes, so
    # every example compares at least that one element
    lightest = [0] * p.n
    lightest[min(range(p.n), key=lambda i: p.weights[i])] = 1
    xs = set()
    for coeffs in [lightest] + draws:
        x = p.evaluate(coeffs[: p.n])
        xs.add(x)
        # one unit away in a free or torsion coordinate: mostly non-members
        flat = x.free + x.torsion
        for i in range(len(flat)):
            for step in (1, -1):
                v = list(flat)
                v[i] += step
                xs.add(p.element(v[: p.rank], v[p.rank :]))
    us = sorted(p.weights, reverse=True)[:-1]
    compared = 0
    for x in xs:
        # the reference walks up to this many nodes; pointing vectors with
        # large entries would make some elements cost minutes
        if prod(p.weight_of(x) // u + 1 for u in us) > 20_000:
            continue
        compared += 1
        every = _one_leaf_search(p, x, True)
        assert _search(p, x, True) == every
        first = _one_leaf_search(p, x, False)
        assert member(p, x) == (first[0] if first else None)
        assert all_factorizations(p, x) == sorted(every)
    assert compared >= 1
    event("every element compared" if compared == len(xs) else "some elements skipped")


def test_search_plan_solves_as_many_coefficients_as_independence_allows():
    # s: the lightest generators whose free parts are independent, <= rank
    assert validate_reduced(_PARALLEL_LIGHTEST)._search_plan[3] == 1
    assert validate_reduced(_FEWER_THAN_RANK)._search_plan[3] == 2
    assert validate_reduced(_ONE_PER_COORDINATE)._search_plan[3] == 2
    assert numerical([3, 5, 7])._search_plan[3] == 1


@st.composite
def _torsion_presentations(draw):
    # rank 1-2 with one or two torsion moduli, entries of both signs
    rank = draw(st.integers(1, 2))
    moduli = draw(st.lists(st.integers(2, 5), min_size=1, max_size=2))
    entries = [st.integers(-4, 4)] * rank + [st.integers(0, t - 1) for t in moduli]
    gens = draw(st.lists(st.tuples(*entries), min_size=1, max_size=4, unique=True))
    assume(all(any(g[:rank]) for g in gens))
    try:
        return validate_reduced(presentation(rank, moduli, gens))
    except NotReduced:
        assume(False)


@given(_torsion_presentations(), st.lists(st.integers(0, 3), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_torsion_search_matches_the_one_coefficient_leaf(p, coeffs):
    x = p.evaluate(coeffs[: p.n])
    # and one unit off in the first free coordinate: mostly a non-member
    y = p.element((x.free[0] + 1,) + x.free[1:], x.torsion)
    for z in (x, y):
        for find_all in (True, False):
            assert _search(p, z, find_all) == _one_leaf_search(p, z, find_all)
