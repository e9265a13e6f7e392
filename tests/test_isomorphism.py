"""T_S, L_S, c_eq, Apery sets and the finiteness of S \\ L_S are
invariants of the monoid, not of how it is written down.  An
automorphism phi of Z^m + T carries a presentation S to phi(S); with the
generators shuffled too, t_set(phi S) = phi(t_set S), l_set(phi S) =
phi(l_set S), Ap(phi S, phi B) = phi(Ap(S, B)), and c_eq and the
finiteness verdict are unchanged.  The check needs no oracle and no
weight cap, so it reaches rank 3 and two torsion factors.

A truncated Apery set keeps the standard monomials of total degree at
most the limit.  Under GREVLEX, whose first row is the total degree, the
standard monomial of a fiber is a shortest factorization, so the
truncation keeps the elements whose shortest factorization is that
short; phi and the shuffle keep factorization lengths, so the truncated
sets correspond too.  Under lex they need not."""

from math import gcd

from hypothesis import event, given, settings, strategies as st

from monofact.apery import apery_set
from monofact.catenary import ceq
from monofact.monoid import GroupElement, presentation
from monofact.same_length import l_set, l_set_complement_is_finite, t_set


@st.composite
def _reduced_presentations(draw):
    # a positive first coordinate on every generator points the monoid,
    # so each draw is reduced; phi then mixes the coordinates
    rank = draw(st.integers(1, 3))
    moduli = draw(st.lists(st.integers(2, 4), max_size=2))
    coordinate = [st.integers(1, 4)] + [st.integers(-3, 3)] * (rank - 1)
    coordinate += [st.integers(0, t - 1) for t in moduli]
    n = draw(st.integers(rank + 1, 4 if rank == 3 else rank + 3))
    gens = draw(st.lists(st.tuples(*coordinate), min_size=n, max_size=n, unique=True))
    return presentation(rank, moduli, gens)


@st.composite
def _automorphisms(draw, rank, moduli):
    """(U, units, shear): x -> U x on Z^m, t_j -> units[j] * t_j + shear[j] . x
    on Z/moduli[j].  U is a signed permutation matrix after a few row
    additions, so det U = +-1."""
    perm = draw(st.permutations(range(rank)))
    u = [[draw(st.sampled_from((1, -1))) * (perm[i] == j) for j in range(rank)] for i in range(rank)]
    index = st.integers(0, rank - 1)
    for i, j, c in draw(st.lists(st.tuples(index, index, st.integers(-2, 2)), max_size=4)):
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    units = [draw(st.sampled_from([a for a in range(1, t) if gcd(a, t) == 1])) for t in moduli]
    shear = [[draw(st.integers(0, t - 1)) for _ in range(rank)] for t in moduli]
    return u, units, shear


def _image(phi, x):
    u, units, shear = phi
    free = [sum(a * b for a, b in zip(row, x.free)) for row in u]
    torsion = [
        a * r + sum(c * b for c, b in zip(row, x.free))
        for a, r, row in zip(units, x.torsion, shear)
    ]
    return GroupElement(free, torsion, x.moduli)


@given(p=_reduced_presentations(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_the_invariants_are_unchanged_by_an_automorphism(p, data):
    phi = data.draw(_automorphisms(p.rank, p.torsion))
    gens = data.draw(st.permutations([_image(phi, g) for g in p.generators]))
    q = presentation(p.rank, p.torsion, [g.free + g.torsion for g in gens])
    for invariant in (t_set, l_set):
        before, after = invariant(p), invariant(q)
        assert (before is None) == (after is None)
        if after is not None:
            assert {_image(phi, g) for g in before.generators} == set(after.generators)
    assert ceq(q) == ceq(p)
    assert l_set_complement_is_finite(q) == l_set_complement_is_finite(p)


@given(p=_reduced_presentations(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_apery_sets_are_carried_by_an_automorphism(p, data):
    # B is a nonempty set of generators: finite when it covers every
    # extremal ray of the cone, truncated at the limit otherwise
    phi = data.draw(_automorphisms(p.rank, p.torsion))
    images = [_image(phi, g) for g in p.generators]
    gens = data.draw(st.permutations(images))
    q = presentation(p.rank, p.torsion, [g.free + g.torsion for g in gens])
    b = data.draw(st.sets(st.integers(0, p.n - 1), min_size=1))
    limit = data.draw(st.integers(0, 3))
    before = apery_set(p, [p.generators[i] for i in sorted(b)], limit=limit)
    after = apery_set(q, [images[i] for i in sorted(b)], limit=limit)
    event("finite" if before.finite else "truncated")
    assert after.finite == before.finite
    assert set(after.elements) == {_image(phi, e) for e in before.elements}
