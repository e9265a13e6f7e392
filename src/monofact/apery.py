"""Apery sets of reduced monoids relative to a finite subset.

Ap_S(B) = {s in S : s - b not in S for every b in B}.  With a factorization
beta_i of each b_i, the quotient K[x]/J, J = I_S + <x^beta_1, ..., x^beta_s>,
has the standard monomials as a basis, and the degree map
x^alpha -> sum alpha_i a_i restricts to a bijection from those onto
Ap_S(B).  J is graded by S: J_s = (I_S)_s when s is in Ap_S(B), since no
multiple of an x^beta_i has degree s, and J_s = K[x]_s otherwise, since all
monomials of one degree agree modulo I_S.  The lead of an element of J is
the lead of one of its graded parts, so

    std(J) = {x^alpha in std(I_S) : deg(alpha) in Ap_S(B)}.

The set is finite exactly when every extremal ray of the cone of S carries
some element of B (the cone criterion).  Then the reduced Groebner basis of
J is built, every variable has a pure power among its leads, and one walk
lists its whole staircase; the pure powers are what end the walk, and their
presence is the staircase side of the cross-check.  The set is the same
under every term order, so that basis is one GREVLEX Buchberger run from
the x^beta_i, first so that they reduce the binomials before any S-pair of
those is formed, and the saturated generators of I_S kept on the
presentation (``ideal.saturated_generators``), whatever order is asked
for; no ordered basis of I_S is built.  Otherwise a
truncation degree is required, and no basis of J is built: the walk runs
over the staircase of the memoized I_S, under the order asked for, up to
that total degree and cuts a branch at a monomial of J, a condition that
only gets truer for multiples.  Its cross-check is that some extremal ray
carries no b and that each such ray carries a generator with no
pure-power lead in the I_S basis.

The cut searches no factorization.  One truncated Buchberger run
(``ideal._truncated``) from the same generators as the finite J, under
the graded reverse-lex order of the presentation's weights, serves the
whole walk: before a walked x^alpha is tested it is advanced to the
weight of x^alpha, where its rules decide membership in J.  The run
starts at the first monomial that weighs at least the lightest
x^beta_i, and a lighter one is never tested: J is graded by S, so each
of its monomials has a degree b_i + s and weighs at least b_i.  With no
b, J = I_S holds no monomial and nothing is cut.

A b that is the generator a_u has the factorization e_u, so x_u lies in J.
When every variable does, B holds every generator and J = <x_1, ..., x_n>,
whose staircase is {1}: Ap_S(B) = {0}, returned once B is checked to lie
in S, with no cone test, no I_S and no walk.

The walk carries each monomial's degree as a flat row (free coordinates,
then unreduced torsion residues): a child's degree is its parent's plus
one generator's row, so no monomial is evaluated.  The residues are
reduced once per kept monomial, and a ``GroupElement`` is built only for
the elements returned.
"""

from __future__ import annotations

from math import gcd, inf
from operator import add

from ._frozen import Frozen
from .errors import BudgetExceeded, CrossCheckError, InfiniteWithoutLimit, InvalidInput
from .ideal import _buchberger, _truncated, lattice_ideal, saturated_generators
from .intlinalg import dot
from .monoid import (
    _LISTING_CAP,
    GroupElement,
    MonoidPresentation,
    _integer,
    _integers,
    _is_row,
    _reduced,
    element_from_data,
    primitive,
    require_member,
    uncovered_rays,
    validate_reduced,
)
from .orders import GREVLEX, TermOrder


class AperyResult(Frozen):
    """Outcome of an Apery set computation.

    ``elements`` is the full set when ``finite``, otherwise the truncation
    to standard monomials of total degree at most ``limit``.
    """

    __slots__ = ("finite", "elements", "count", "limit")
    finite: bool
    elements: tuple[GroupElement, ...]
    count: int
    limit: int | None

    def to_data(self):
        return {
            "finite": self.finite,
            "count": self.count,
            "limit": self.limit,
            "elements": [e.to_data() for e in self.elements],
        }


def apery_is_finite(p: MonoidPresentation, elements) -> bool:
    """True when Ap_S(B) is finite: every extremal ray of the cone of S
    must carry some member of B."""
    validate_reduced(p)
    elems = _b_elements(p, elements)
    _b_factorizations(p, elems, None)  # B must lie in S
    return not uncovered_rays(p, elems)


def _pure_power_variables(leads):
    """The variables x_i with some pure power x_i^d among the leads."""
    out = set()
    for lead in leads:
        support = [i for i, e in enumerate(lead) if e > 0]
        if len(support) == 1:
            out.add(support[0])
    return out


def _standard_monomials(leads, rows, limit, outside=None):
    """Each exponent vector avoiding every lead, of total degree at most
    ``limit`` unless it is None, and failing ``outside`` when it is given,
    paired with its degree: the flat row sum(e_i rows[i]), which the walk
    carries from parent to child.

    A lead x^l cuts the walk at its topmost variable i: once the prefix
    (e_0, ..., e_{i-1}) dominates that of l, every e_i >= l_i is
    divisible, so each node stops at the smallest such l_i, and ``limit``
    caps that stop.  ``outside`` takes the exponent vector, a list the
    walk goes on to change, and its degree, must hold for every multiple
    of a monomial it holds for, and cuts the same way.  Without
    a limit every variable needs a pure-power lead, which ends its loop.
    The walk counts the monomials it keeps and raises BudgetExceeded once
    it holds more than ``_LISTING_CAP``.
    """
    cap = _LISTING_CAP
    n = len(rows)
    by_top = [[] for _ in range(n)]
    for l in leads:
        if limit is None or sum(l) <= limit:  # a larger lead divides nothing walked
            support = [(j, v) for j, v in enumerate(l) if v > 0]
            top, power = support.pop()
            by_top[top].append((power, support))
    out = []
    exp = [0] * n

    def walk(i, deg, remaining):
        if i == n:
            out.append((tuple(exp), deg))
            if len(out) > cap:
                raise BudgetExceeded(f"more than {cap} monomials to list")
            return
        stop = None if remaining is None else remaining + 1
        for power, prefix in by_top[i]:
            if (stop is None or power < stop) and all(exp[j] >= v for j, v in prefix):
                stop = power
        # e = 0 repeats the monomial its parent already tested
        walk(i + 1, deg, remaining)
        row = rows[i]
        for e in range(1, stop):
            deg = tuple(map(add, deg, row))
            exp[i] = e
            if outside is not None and outside(exp, deg):
                break
            walk(i + 1, deg, None if remaining is None else remaining - e)
        exp[i] = 0

    try:
        walk(0, (0,) * len(rows[0]), limit)
    finally:
        del walk  # walk is in its own closure: clearing that cell leaves no cycle
    return out


def _unbounded_on_uncovered_rays(p, elems, leads) -> bool:
    """The staircase side of an infinite Ap_S(B): some extremal ray rho of
    the cone of S carries no b, and every such ray carries a generator x_i
    with no pure power among ``leads``, the leads of the I_S basis.  Each
    ray ``uncovered_rays`` names is checked against the free parts of B
    here, since the second condition holds on covered rays as well.

    Why this must hold: rho is a face, so a functional that vanishes on rho
    and is positive on the rest of the cone shows that every factorization
    of an element on rho uses only the generators R on rho.  A basis
    element x_i^d - x^c with i in R therefore has x^c in K[x_R] as well, and
    lies in I_S & K[x_R] = I_rho, the lattice ideal of the monoid S_rho that
    R generates.  If each x_i, i in R, led such an element, K[x_R]/I_rho
    would have finitely many standard monomials; but it is K[S_rho], of
    Krull dimension 1 and with the infinite basis S_rho.
    """
    rays = uncovered_rays(p, elems)
    covered = {primitive(b.free) for b in elems}
    powers = _pure_power_variables(leads)
    return bool(rays) and all(
        ray not in covered
        and any(primitive(g.free) == ray and i not in powers for i, g in enumerate(p.generators))
        for ray in rays
    )


def _unit(n, i) -> tuple[int, ...]:
    """The exponent vector of x_i among n variables."""
    return (0,) * i + (1,) + (0,) * (n - i - 1)


def _b_elements(p, elements):
    """B as nonzero group elements."""
    if not _is_row(elements):
        raise InvalidInput(f"expected a list of elements, got {elements!r}")
    elems = [element_from_data(p, b) for b in elements]
    if any(e.is_zero for e in elems):
        raise InvalidInput("members of B must be nonzero")
    return elems


def _b_factorizations(p, elems, factorizations):
    """One factorization of each b: the caller's, checked, or else the
    unit vector of a b that is a generator and a ``member`` search for
    any other b.  Any factorization serves, since all those of one b
    agree modulo I_S and so give the same J."""
    facts = []
    if factorizations is None:
        index = {g: i for i, g in enumerate(p.generators)}
        for elem in elems:
            i = index.get(elem)
            if i is None:
                facts.append(require_member(p, elem))
            else:
                facts.append(_unit(p.n, i))
    else:
        if len(factorizations) != len(elems):
            raise InvalidInput("one factorization per element required")
        for elem, fac in zip(elems, factorizations):
            fac = _integers(fac)
            if len(fac) != p.n or any(c < 0 for c in fac):
                raise InvalidInput("malformed factorization")
            if p.evaluate(fac) != elem:
                raise InvalidInput(f"{fac} does not factor {elem.to_data()}")
            facts.append(fac)
    return facts


def _refuse_a_long_numerical_listing(p, elems) -> None:
    """A numerical S = d<a_1/d, ..., a_n/d> and one b in S: Ap_S(b) holds
    one element per residue of S modulo b, b/d of them.  More than
    ``_LISTING_CAP`` raise BudgetExceeded before any search or walk."""
    if p.is_numerical and len(elems) == 1:
        count = elems[0].free[0] // gcd(*(g.free[0] for g in p.generators))
        if count > _LISTING_CAP:
            raise BudgetExceeded(
                f"Ap(S, b) holds {count} elements, more than the cap of {_LISTING_CAP}"
            )


def apery_set(
    p: MonoidPresentation,
    elements,
    factorizations=None,
    order: TermOrder = GREVLEX,
    limit: int | None = None,
) -> AperyResult:
    """Ap_S(B) for B given by ``elements`` (members of S).

    Factorizations are searched for when not supplied.  For an infinite
    Apery set a ``limit`` is required and the result truncates to the
    standard monomials under ``order`` of total degree at most ``limit``,
    which must not be negative.  A finite set is the same under every
    order, and is read off GREVLEX bases whatever ``order`` is; an order
    that does not fit the n variables is refused either way.  When the
    factorizations of B include every unit vector, B holds every
    generator, the set is {0} and nothing is built (see the module
    docstring).  Otherwise the cone criterion decides finiteness,
    and the staircase cross-checks it on every call:

    - finite: the leads of the reduced GREVLEX basis of J = I_S + <x^beta>
      include a pure power of every variable, and their staircase is the
      set;
    - infinite: each extremal ray that carries no b carries a generator
      with no pure-power lead in the I_S basis (see
      ``_unbounded_on_uncovered_rays`` for why), and the set is read off
      the I_S staircase by std(J) = {x^a in std(I_S) : deg(a) in Ap_S(B)},
      with no basis of J: a walked x^a is cut once one truncated engine
      run finds it in J.  Without a limit this raises
      ``InfiniteWithoutLimit`` before any walk.
    """
    if limit is not None:
        limit = _integer(limit)
        if limit < 0:
            raise InvalidInput("limit must be nonnegative")
    validate_reduced(p)
    order.rows(p.n)  # raises InvalidInput for an order that does not fit
    elems = _b_elements(p, elements)
    _refuse_a_long_numerical_listing(p, elems)
    facts = _b_factorizations(p, elems, factorizations)
    if len({f.index(1) for f in facts if sum(f) == 1}) == p.n:  # J = <x_1, ..., x_n>
        return AperyResult(True, (p.zero(),), 1, None)
    rows = [g.free + g.torsion for g in p.generators]
    gens = [(f, None) for f in facts] + list(saturated_generators(p))
    if not uncovered_rays(p, elems):
        limit = None
        leads = [lead for lead, _ in _buchberger(gens, GREVLEX, p.n)]
        if len(_pure_power_variables(leads)) != p.n:
            raise CrossCheckError("cone criterion says finite, the staircase of J is unbounded")
        monomials = _standard_monomials(leads, rows, None)
    else:
        leads = [b.plus for b in lattice_ideal(p, order).elements]
        if not _unbounded_on_uncovered_rays(p, elems, leads):
            raise CrossCheckError("cone criterion says infinite, the I_S staircase is bounded")
        if limit is None:
            raise InfiniteWithoutLimit("Apery set is infinite; pass a truncation degree")

        weights = p.weights
        lightest = min((dot(weights, f) for f in facts), default=inf)
        # each degree row ends in the weight, which the cut and the run read
        rows = [row + (u,) for row, u in zip(rows, weights)]

        def walk(holds):
            return _standard_monomials(
                leads, rows, limit, lambda exp, deg: deg[-1] >= lightest and holds(deg[-1], exp)
            )

        monomials = _truncated(gens, p, walk)
    rank, moduli = p.rank, p.torsion
    degs = {}
    for mono, deg in monomials:
        deg = deg[:rank] + _reduced(deg[rank:], moduli)  # the zip drops a trailing weight
        if deg in degs:
            raise CrossCheckError(f"standard monomials {degs[deg]} and {mono} share a degree")
        degs[deg] = mono
    # the free part has a fixed length, so flat order is sort_key order
    out = tuple(GroupElement._made(d[:rank], d[rank:], moduli) for d in sorted(degs))
    return AperyResult(limit is None, out, len(out), limit)
