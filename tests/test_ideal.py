"""Kernel lattices, Buchberger, saturation, and minimal generators."""

from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st
from test_engine import _FAR
from test_intlinalg import _lattice_contains, _lattices_equal

from monofact.errors import InvalidInput, NotHomogeneous
from monofact import ideal
from monofact.ideal import (
    Binomial,
    BinomialBasis,
    _buchberger,
    _buchberger_packed,
    _passes,
    _widening,
    groebner,
    in_ideal,
    kernel_lattice,
    lattice_ideal,
    minimal_generators,
    saturate,
    saturated_generators,
)
from monofact.intlinalg import kernel_basis, lll_reduce
from monofact.monoid import numerical, presentation, validate_reduced
from monofact.orders import GREVLEX, LEX, block, cheapest_last, grevlex, lex, wgrevlex


def test_kernel_lattice_of_357():
    p = numerical([3, 5, 7])
    lat = kernel_lattice(p)
    assert len(lat.basis) == 2
    assert _lattice_contains(lat.basis, (1, -2, 1))
    assert _lattice_contains(lat.basis, (-4, 1, 1))
    assert not _lattice_contains(lat.basis, (1, 0, 0))
    # the kernel stays in echelon form; only lattice_ideal reduces it
    assert lat.basis == ((1, -2, 1), (0, 7, -5))


@pytest.mark.parametrize(
    "p",
    [
        numerical([3, 5, 7]),
        numerical([5, 7, 8, 9]),
        numerical([17, 29, 37, 47]),
        presentation(1, (2,), [(2, 0), (3, 1), (4, 1)]),
        presentation(2, (), [(0, 2), (1, 2), (1, 1), (3, 2), (4, 2)]),
    ],
    ids=["3-5-7", "5-7-8-9", "17-29-37-47", "torsion", "rank2"],
)
@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_lattice_ideal_equals_saturation_of_the_echelon_basis(p, order):
    # lattice_ideal starts from an LLL-reduced basis; saturating the
    # echelon basis kernel_lattice returns must give the same reduced basis
    p = validate_reduced(p)
    gens = [
        Binomial(tuple(max(a, 0) for a in g), tuple(max(-a, 0) for a in g))
        for g in kernel_lattice(p).basis
    ]
    expected = saturate(gens, order, weights=p.weights)
    assert lattice_ideal(p, order).elements == expected.elements


def test_kernel_lattice_with_torsion():
    q = presentation(1, (2,), [(2, 0), (3, 1), (4, 1)])
    lat = kernel_lattice(q)
    # 3*(2;0) - 2*(3;1): free part 0, torsion residue 0
    assert _lattice_contains(lat.basis, (3, -2, 0))
    # 2*(2;0) - (4;1) kills the free part but leaves residue 1
    assert not _lattice_contains(lat.basis, (2, 0, -1))


def test_lattice_ideal_357_not_complete_intersection():
    p = numerical([3, 5, 7])
    gb = lattice_ideal(p)
    for b in gb.elements:
        assert p.evaluate(b.plus) == p.evaluate(b.minus)
    mg = minimal_generators(gb, p)
    assert len(mg.elements) == 3
    degs = sorted(p.evaluate(b.plus).free[0] for b in mg.elements)
    assert degs == [10, 12, 14]


def test_membership_in_lattice_ideal():
    gb = lattice_ideal(numerical([3, 5, 7]))
    assert in_ideal(Binomial.difference((0, 2, 0), (1, 0, 1)), gb)
    assert not in_ideal(Binomial.difference((1, 1, 0), (0, 0, 1)), gb)


def test_torsion_lattice_ideal_matches_hand_generators():
    q = presentation(1, (2,), [(2, 0), (3, 1), (4, 1)])
    gbq = lattice_ideal(q)
    expected = groebner(
        [
            Binomial.difference((1, 2, 0), (0, 0, 2)),
            Binomial.difference((3, 0, 0), (0, 2, 0)),
            Binomial.difference((0, 4, 0), (2, 0, 2)),
        ],
        GREVLEX,
    )
    assert gbq == expected


def test_lex_and_grevlex_agree_as_ideals():
    q = presentation(1, (2,), [(2, 0), (3, 1), (4, 1)])
    gbq = lattice_ideal(q)
    gbq_lex = lattice_ideal(q, order=LEX)
    assert gbq == groebner(list(gbq_lex.elements), GREVLEX)


def test_rank2_ideal_contains_curve_relations():
    r = presentation(2, (), [(-2, 1), (-1, 1), (0, 1), (1, 1), (2, 1)])
    gbr = lattice_ideal(r)
    # x_i x_j - x_{i-1} x_{j+1} for the consecutive-difference pattern
    n = 5
    for i in range(1, n - 1):
        for j in range(i, n - 1):
            plus = [0] * n
            plus[i] += 1
            plus[j] += 1
            minus = [0] * n
            minus[i - 1] += 1
            minus[j + 1] += 1
            assert in_ideal(Binomial.difference(tuple(plus), tuple(minus)), gbr), (i, j)


def test_in_ideal_needs_groebner_flag():
    # the same elements, flagged as a generating set only, are refused
    gb = lattice_ideal(numerical([3, 5, 7]))
    f = Binomial.difference((0, 2, 0), (1, 0, 1))
    assert in_ideal(f, gb)
    plain = BinomialBasis(tuple(gb.elements), gb.order, groebner=False)
    with pytest.raises(InvalidInput, match="Groebner basis"):
        in_ideal(f, plain)


def test_principal_ideal_single_generator():
    p = numerical([3, 5])
    gh = lattice_ideal(p)
    mg = minimal_generators(gh, p)
    assert len(mg.elements) == 1
    assert p.evaluate(mg.elements[0].plus).free[0] == 15


def test_saturating_a_monomial_gives_the_unit_ideal():
    # x1 x2 in I puts 1 in I : (x1 x2)^infty
    one = Binomial.monomial((0, 0))
    assert saturate([Binomial.monomial((1, 1))], weights=(1, 1)).elements == (one,)
    gens = [Binomial((1, 0), (0, 1)), Binomial.monomial((2, 0))]
    assert saturate(gens, weights=(1, 1)).elements == (one,)


def test_saturate_rejects_inhomogeneous_input():
    # 1 - x1 admits no positive grading, so not the one given
    with pytest.raises(NotHomogeneous):
        saturate([Binomial((0,), (1,))], weights=(1,))


def test_minimal_generators_rejects_wrong_grading():
    p = numerical([3, 5, 7])
    basis = BinomialBasis((Binomial.difference((1, 0, 0), (0, 1, 0)),), GREVLEX, groebner=False)
    with pytest.raises(NotHomogeneous):
        minimal_generators(basis, p)


def test_binomial_basics():
    b = Binomial((3, 0, 0), (0, 2, 0))
    assert b.text() == "x1^3 - x2^2"
    assert not b.is_monomial and not b.is_zero
    m = Binomial.monomial((0, 1, 1))
    assert m.is_monomial and m.text() == "x2*x3"
    z = Binomial((1, 0, 0), (1, 0, 0))
    assert z.is_zero
    with pytest.raises(InvalidInput):
        Binomial((1, -1, 0), (0, 0, 0))
    with pytest.raises(InvalidInput):
        Binomial((1, 0), (0, 0, 1))
    # shared support is factored out by difference, not by the constructor
    d = Binomial.difference((2, 1, 0), (1, 0, 1))
    assert d == Binomial((1, 1, 0), (0, 0, 1))


def test_groebner_is_reduced_and_order_dependent_leads():
    gens = [
        Binomial.difference((0, 2, 0), (1, 0, 1)),
        Binomial.difference((4, 0, 0), (0, 1, 1)),
    ]
    g1 = groebner(gens, GREVLEX)
    assert g1.groebner
    g2 = groebner(gens, wgrevlex((3, 5, 7)))
    assert groebner(g2.elements, GREVLEX) == g1


def test_random_instances_lattice_ideal_is_homogeneous(reduced_instances):
    for p in reduced_instances[:12]:
        gb = lattice_ideal(p)
        for b in gb.elements:
            assert p.evaluate(b.plus) == p.evaluate(b.minus)


def _reference_saturate(gens, order, weights):
    """The saturation loop before covered variables were skipped: one
    Buchberger pass per variable, then the final pass.  Kept here unchanged
    as the reference for binomial generators; returns (lead, tail) pairs."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    n = gens[0].nvars
    current = [(b.plus, b.minus) for b in gens]
    for i in range(n):
        current = _buchberger(current, wgrevlex(weights, perm=cheapest_last(n, i)), n)
        stripped = []
        for lead, tail in current:
            c = min(lead[i], tail[i]) if tail is not None else 0
            if c > 0:
                lead = tuple(a - c if j == i else a for j, a in enumerate(lead))
                tail = tuple(a - c if j == i else a for j, a in enumerate(tail))
            stripped.append((lead, tail))
        current = stripped
    return _buchberger(current, order, n)


def _todays_passes(gens):
    """The passes before the closure over all generators: none for one
    binomial with disjoint supports, else every variable of a generator
    outside the largest supp(a) \\ supp(b) of one non-monomial generator.
    Kept here unchanged as the bound the closure must never exceed."""
    one = gens[0]
    if len(gens) == 1 and one.minus is not None and not any(map(min, one.plus, one.minus)):
        return []
    used = {i for g in gens for side in (g.plus, g.minus or ()) for i, e in enumerate(side) if e}
    covered = max(
        (
            {i for i, (x, y) in enumerate(zip(a, b)) if x and not y}
            for g in gens
            if g.minus is not None
            for a, b in ((g.plus, g.minus), (g.minus, g.plus))
        ),
        key=len,
        default=set(),
    )
    return sorted(used - covered)


def _pairs(gens):
    """The (plus, minus) pairs the engine takes, as ``saturate`` reads them."""
    return [(g.plus, g.minus) for g in gens]


def _kernel_binomials(q):
    """The binomials of the LLL-reduced kernel basis, lattice_ideal's start."""
    return [
        Binomial(tuple(max(a, 0) for a in g), tuple(max(-a, 0) for a in g))
        for g in lll_reduce(kernel_lattice(q).basis)
    ]


@st.composite
def _homogeneous_generators(draw):
    """Positive weights w and generators homogeneous for w: binomials built
    from the moves w_j e_i - w_i e_j, some times a common monomial factor,
    and at times a monomial.  Some draws leave variables out of every
    generator, and some are one binomial, with disjoint supports or not:
    the inputs for which saturate skips passes beyond the covered ones."""
    n = draw(st.integers(2, 4))
    w = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    unused = draw(st.sets(st.integers(0, n - 1), max_size=n - 2))
    live = [i for i in range(n) if i not in unused]
    moves = [
        tuple(w[j] if k == i else -w[i] if k == j else 0 for k in range(n))
        for i in live
        for j in live
        if i < j
    ]
    single = draw(st.booleans())
    exps = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
        lambda e: [0 if k in unused else a for k, a in enumerate(e)]
    )
    gens = []
    for coeffs in draw(
        st.lists(
            st.lists(st.integers(-1, 1), min_size=len(moves), max_size=len(moves)),
            min_size=1,
            max_size=1 if single else 3,
        )
    ):
        u = [sum(c * m[k] for c, m in zip(coeffs, moves)) for k in range(n)]
        common = draw(exps) if draw(st.booleans()) else [0] * n
        gens.append(
            Binomial(
                tuple(max(a, 0) + c for a, c in zip(u, common)),
                tuple(max(-a, 0) + c for a, c in zip(u, common)),
            )
        )
    if not single:
        gens += [Binomial.monomial(e) for e in draw(st.lists(exps.filter(any), max_size=1))]
    return w, gens


_ORDERS = {
    "lex": lambda n: LEX,
    "grevlex": lambda n: GREVLEX,
    "wgrevlex": lambda n: wgrevlex(range(n, 0, -1)),
    "block": lambda n: block(1, LEX, GREVLEX),
}


@pytest.mark.parametrize("kind", list(_ORDERS))
@given(case=_homogeneous_generators())
@settings(max_examples=25, deadline=None)
def test_saturate_matches_the_full_variable_sweep(kind, case):
    # passes at the variables one binomial covers are skipped; the reduced
    # basis must be the one every pass gives, whatever grading is used
    w, gens = case
    n = len(w)
    order = _ORDERS[kind](n)
    if any(g.is_monomial for g in gens):
        # x^a in I makes 1 = x^a / x^a lie in the saturation; the reference
        # loop never stripped monomials, so it is no reference here
        expected = [((0,) * n, None)]
    else:
        expected = _reference_saturate(gens, order, w)
    for weights in (w, tuple(2 * a for a in w)):
        got = saturate(gens, order, weights=weights)
        assert [(b.plus, b.minus) for b in got.elements] == expected
    nonzero = [g for g in gens if not g.is_zero]
    if nonzero:
        assert len(_passes(_pairs(nonzero))) <= len(_todays_passes(nonzero))


@st.composite
def _presentations_with_torsion(draw):
    """Rank 1-2, at most one torsion modulus, 1-5 generators pointed by a
    drawn functional w: kernels of rank 0 (for S, or only for S~)
    included."""
    rank = draw(st.integers(1, 2))
    moduli = draw(st.lists(st.integers(2, 6), max_size=1))
    w = draw(st.sampled_from([w for w in product((-1, 0, 1), repeat=rank) if any(w)]))
    entry = st.tuples(
        *[st.integers(-5, 6)] * rank, *[st.integers(0, t - 1) for t in moduli]
    ).filter(lambda g: sum(a * b for a, b in zip(w, g)) >= 1)
    n = draw(st.sampled_from((5, 4, 3, 2, 1)))
    gens = draw(st.lists(entry, min_size=n, max_size=n, unique=True))
    return validate_reduced(presentation(rank, moduli, sorted(gens)))


def _stacked_kernel(q):
    """The kernel of the integer matrix of q's free rows stacked with its
    torsion rows augmented by their moduli, cut to the n generator
    coordinates: the route every presentation took before a lift read its
    kernel off its base, and a kernel of rank 1 off maximal minors."""
    n, k = q.n, len(q.torsion)
    rows = [[g.free[d] for g in q.generators] + [0] * k for d in range(q.rank)]
    for j, t in enumerate(q.torsion):
        rows.append([g.torsion[j] for g in q.generators] + [t * (i == j) for i in range(k)])
    return [r[:n] for r in kernel_basis(rows)]


@given(_presentations_with_torsion())
@settings(max_examples=60, deadline=None)
def test_the_lifted_kernel_spans_the_kernel_of_the_lifted_matrix(p):
    # C B, read off the kernel B of S, against the full kernel of S~'s matrix
    lifted = p.lift
    derived = kernel_lattice(lifted)
    direct = _stacked_kernel(lifted)
    assert derived.nvars == p.n and len(derived.basis) == len(direct)
    assert _lattices_equal(derived.basis, direct)
    assert all(sum(v) == 0 and _lattice_contains(kernel_lattice(p).basis, v) for v in derived.basis)


@pytest.mark.parametrize("kind", list(_ORDERS))
@given(p=_presentations_with_torsion())
@settings(max_examples=25, deadline=None)
def test_the_lifted_lattice_ideal_matches_the_stacked_kernel_route(kind, p):
    # the reduced basis is unique, so the derived kernel must give the basis
    # the full kernel of S~ gave, saturated at every variable
    lifted = p.lift
    order = _ORDERS[kind](p.n)
    gens = [
        Binomial(tuple(max(a, 0) for a in g), tuple(max(-a, 0) for a in g))
        for g in lll_reduce(_stacked_kernel(lifted))
    ]
    expected = _reference_saturate(gens, order, lifted.weights)
    got = lattice_ideal(lifted, order)
    assert [(b.plus, b.minus) for b in got.elements] == expected


@pytest.mark.parametrize("kind", list(_ORDERS))
@given(p=_presentations_with_torsion())
@settings(max_examples=25, deadline=None)
def test_lattice_ideal_matches_the_full_sweep_in_no_more_passes(kind, p):
    # one Buchberger run from the kept saturated generators gives the
    # reduced basis every pass gives, for S and S~, and the closure never
    # picks more passes than the one-generator rule did
    order = _ORDERS[kind](p.n)
    for q in (p, p.lift):
        gens = _kernel_binomials(q)
        expected = _reference_saturate(gens, order, q.weights)
        assert [(b.plus, b.minus) for b in lattice_ideal(q, order).elements] == expected
        if gens:
            assert len(_passes(_pairs(gens))) <= len(_todays_passes(gens))


def test_the_closure_drops_passes_on_a_seven_generator_semigroup(monkeypatch):
    # <65, 73, 81, 107, 158, 191, 194>: the one-generator rule leaves 4
    # passes on I_S and 3 on I_{S~}; one seed variable closes over all
    # seven for each, and the reduced basis is the full sweep's
    p = numerical([65, 73, 81, 107, 158, 191, 194])
    rounds = []
    real = ideal._buchberger

    def counting(pairs, order, n):
        if order.perm is not None:  # a round order: x_i cheapest, i last
            rounds.append(order.perm[-1])
        return real(pairs, order, n)

    monkeypatch.setattr(ideal, "_buchberger", counting)
    for q, passes, before in ((p, [1], 4), (p.lift, [3], 3)):
        rounds.clear()
        saturated_generators(q)
        assert rounds == passes
        gens = _kernel_binomials(q)
        assert len(_todays_passes(gens)) == before
        expected = _reference_saturate(gens, GREVLEX, q.weights)
        assert [(b.plus, b.minus) for b in lattice_ideal(q).elements] == expected


@st.composite
def _one_generator(draw):
    """One pair (a, b) of exponent vectors on 1-4 variables: a binomial
    with or without a common factor, a zero binomial or a monomial, in
    either orientation, its exponents at times past the first packing
    width."""
    n = draw(st.integers(1, 4))
    exp = st.one_of(st.integers(0, 3), st.integers(250, 300), st.integers(2**20, 2**20 + 3))
    a = tuple(draw(st.lists(exp, min_size=n, max_size=n)))
    shape = draw(st.sampled_from(["binomial", "common", "zero", "monomial"]))
    if shape == "monomial":
        return (a, None), n
    if shape == "zero":
        return (a, a), n
    b = tuple(draw(st.lists(exp, min_size=n, max_size=n)))
    if shape == "binomial":  # disjoint supports
        a, b = (
            tuple(x if x > y else 0 for x, y in zip(a, b)),
            tuple(y if y >= x else 0 for x, y in zip(a, b)),
        )
    return (a, b), n


@pytest.mark.parametrize("kind", list(_ORDERS))
@given(case=_one_generator())
@settings(max_examples=60, deadline=None)
def test_one_generator_is_the_engines_reduced_basis(kind, case):
    # a principal ideal skips the engine loop: the pair comes back
    # oriented exactly as the full Buchberger run leaves it
    pair, n = case
    order = _ORDERS[kind](n)
    assert _buchberger([pair], order, n) == _widening([pair], order, n, _buchberger_packed)


def _oriented_by_keys(b, order):
    """``Binomial.oriented`` as it was before it read ``_principal``, kept
    here unchanged as the reference: the order's key tuples compared
    whole."""
    if b.minus is None:
        return (b.plus, None)
    ka, kb = order.key(b.plus), order.key(b.minus)
    if ka == kb:
        return None
    return (b.plus, b.minus) if ka > kb else (b.minus, b.plus)


@st.composite
def _binomial_and_order(draw, kind):
    """A binomial, a zero binomial or a monomial on 1-4 variables, and an
    order of ``kind`` on them, with or without a significance perm."""
    n = draw(st.integers(1, 4))
    perm = draw(st.none() | st.permutations(range(n)))
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    plus = draw(exps)
    shape = draw(st.sampled_from(["binomial", "zero", "monomial"]))
    minus = {"binomial": draw(exps), "zero": plus, "monomial": None}[shape]
    if kind == "lex":
        order = lex(perm)
    elif kind == "grevlex":
        order = grevlex(perm)
    elif kind == "wgrevlex":
        order = wgrevlex(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), perm)
    else:
        inner = st.sampled_from([LEX, GREVLEX])
        order = block(draw(st.integers(0, n)), draw(inner), draw(inner), perm)
    return Binomial(plus, minus), order


@pytest.mark.parametrize("kind", ["lex", "grevlex", "wgrevlex", "block"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_oriented_matches_the_key_comparison(kind, data):
    # oriented compares row by row (_principal); the key tuples compared
    # whole must pick the same lead, and None for a zero binomial
    b, order = data.draw(_binomial_and_order(kind))
    assert b.oriented(order) == _oriented_by_keys(b, order)


def _todays_minimal_generators(basis, q):
    # minimal_generators as it was before it skipped heavier candidates:
    # each candidate is tested against every other live element
    order = basis.order

    def weight(b):
        return sum(a * c for a, c in zip(q.weights, b.plus))

    elements = sorted(
        (b for b in basis.elements if not b.is_zero),
        key=lambda b: (weight(b), order.key(b.oriented(order)[0])),
    )
    alive = [True] * len(elements)
    for i in range(len(elements)):
        others = [elements[j] for j in range(len(elements)) if j != i and alive[j]]
        if others and in_ideal(elements[i], groebner(others, GREVLEX)):
            alive[i] = False
    return tuple(b for b, a in zip(elements, alive) if a)


_X1_5, _X2_3, _X1X2X3 = (5, 0, 0), (0, 3, 0), (1, 1, 1)
_TRIPLE = [Binomial(_X1_5, _X2_3), Binomial(_X1_5, _X1X2X3), Binomial(_X2_3, _X1X2X3)]


@pytest.mark.parametrize("kind", ["lex", "grevlex"])
@pytest.mark.parametrize(
    "gens",
    [
        _TRIPLE,
        [*_TRIPLE, _TRIPLE[0]],
        [*_TRIPLE, Binomial((0, 2, 0), (1, 0, 1))],
    ],
    ids=["dependent-triple", "repeated-x1^5-x2^3", "with-x2^2-x1x3"],
)
def test_minimal_generators_keeps_what_the_all_others_loop_keeps(kind, gens):
    # 15 in <3,5,7> has the factorizations x1^5, x2^3 and x1*x2*x3, so the
    # triple spans a plane: which two survive, and in which order, follows
    # the sorted positions, also with a repeat and with x2^2 - x1*x3 of
    # degree 10, which x2^3 - x1*x2*x3 is a multiple of
    q = numerical([3, 5, 7])
    basis = BinomialBasis(tuple(gens), _ORDERS[kind](3), groebner=False)
    assert minimal_generators(basis, q).elements == _todays_minimal_generators(basis, q)


@st.composite
def _presentations_to_rank_3(draw):
    """Rank 1-3, at most one torsion modulus, 2-5 generators pointed by a
    drawn functional w."""
    rank = draw(st.integers(1, 3))
    moduli = draw(st.lists(st.integers(2, 4), max_size=1))
    w = draw(st.sampled_from([w for w in product((-1, 0, 1), repeat=rank) if any(w)]))
    entry = st.tuples(
        *[st.integers(-3, 4)] * rank, *[st.integers(0, t - 1) for t in moduli]
    ).filter(lambda g: sum(a * b for a, b in zip(w, g)) >= 1)
    n = draw(st.integers(2, 5))
    gens = draw(st.lists(entry, min_size=n, max_size=n, unique=True))
    return validate_reduced(presentation(rank, moduli, sorted(gens)))


@pytest.mark.parametrize("kind", ["lex", "grevlex"])
@given(p=_presentations_to_rank_3())
@example(p=numerical([11, 15, 32, 36]))
@example(p=presentation(1, (3,), [(-4, 2), (-3, 2), (-2, 1), (-1, 1)]))
@settings(max_examples=30, deadline=None)
def test_minimal_generators_matches_the_all_others_loop(kind, p):
    # a candidate is tested only against live elements of weight at most its
    # own; the kept tuple must be the one the test against all of them kept
    order = _ORDERS[kind](p.n)
    for q in (p, p.lift):
        basis = lattice_ideal(q, order)
        assert minimal_generators(basis, q).elements == _todays_minimal_generators(basis, q)


@pytest.mark.parametrize("kind", ["lex", "grevlex"])
def test_minimal_generators_restart_the_trim_at_a_wider_width(kind, monkeypatch):
    # x2 - x3^16 is kept first; reducing x1 - x2^16 by it reaches x3^256,
    # past the 8-bit fields the candidates fit in, so the whole trim
    # restarts at 16 bits and keeps both
    widths = []
    layout = ideal._layout

    def spy(order, n, width):
        widths.append(width)
        return layout(order, n, width)

    monkeypatch.setattr(ideal, "_layout", spy)
    q = numerical([256, 16, 1])
    basis = BinomialBasis(tuple(_FAR), _ORDERS[kind](3), groebner=False)
    got = minimal_generators(basis, q).elements
    assert widths == [8, 16]
    monkeypatch.undo()
    assert got == _todays_minimal_generators(basis, q)
    assert len(got) == 2


def test_minimal_generators_build_no_groebner_basis_and_test_no_membership(monkeypatch):
    def refuse(*args):
        raise AssertionError("minimal_generators called groebner or in_ideal")

    # under lex the trim drops 10 of the 19 candidates
    q = numerical([7, 17, 20, 23, 26, 29]).lift
    bases = [lattice_ideal(q, order) for order in (GREVLEX, LEX)]
    expected = [_todays_minimal_generators(basis, q) for basis in bases]
    monkeypatch.setattr(ideal, "groebner", refuse)
    monkeypatch.setattr(ideal, "in_ideal", refuse)
    assert [minimal_generators(basis, q).elements for basis in bases] == expected
