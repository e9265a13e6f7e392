"""Apery sets of reduced monoids relative to a finite subset.

Ap_S(B) = {s in S : s - b not in S for every b in B}.  With a factorization
beta_i of each b_i, the quotient K[x]/(I_S + <x^beta_1, ..., x^beta_s>) has
the standard monomials as a basis, and the degree map x^alpha -> sum alpha_i a_i
restricts to a bijection from those onto Ap_S(B).  Finiteness is equivalent
to every extremal ray of the cone of S carrying some element of B; the
staircase view gives the same answer through pure powers in the initial
ideal, and the two verdicts are compared on every run.
"""

from __future__ import annotations

from ._frozen import Frozen, init_field
from .errors import CrossCheckError, InfiniteSet, InfiniteWithoutLimit, InvalidInput
from .ideal import Binomial, BinomialBasis, groebner, lattice_ideal
from .monoid import (
    GroupElement,
    MonoidPresentation,
    _validated,
    cones_equal,
    element_from_data,
    require_member,
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

    def __init__(self, finite, elements, count, limit=None):
        init_field(self, "finite", finite)
        init_field(self, "elements", elements)
        init_field(self, "count", count)
        init_field(self, "limit", limit)

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
    p = _validated(p)
    elems = [element_from_data(p, b) for b in elements]
    if any(e.is_zero for e in elems):
        raise InvalidInput("members of B must be nonzero")
    for e in elems:
        require_member(p, e)
    return cones_equal(p, elems)


def _leads(basis: BinomialBasis):
    out = []
    for b in basis.elements:
        lead, _ = b.oriented(basis.order)
        out.append(lead)
    return out


def _pure_power_bounds(leads, n):
    """bounds[i] = least d with x_i^d in the lead ideal, None if there is none."""
    bounds = [None] * n
    for lead in leads:
        support = [i for i, e in enumerate(lead) if e > 0]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or lead[i] < bounds[i]:
                bounds[i] = lead[i]
    return bounds


def _standard_in_box(leads, bounds):
    """All exponent vectors below ``bounds`` avoiding every lead.

    Leads are checked as soon as their topmost variable is assigned, and
    larger exponents at that position only stay divisible, so the walk can
    cut the whole branch.
    """
    n = len(bounds)
    by_top = [[] for _ in range(n)]
    for l in leads:
        by_top[max(j for j, v in enumerate(l) if v > 0)].append(l)
    out = []
    exp = [0] * n

    def walk(i):
        if i == n:
            out.append(tuple(exp))
            return
        for e in range(bounds[i]):
            exp[i] = e
            if any(all(exp[j] >= l[j] for j in range(i + 1)) for l in by_top[i]):
                break
            walk(i + 1)
        exp[i] = 0

    walk(0)
    return out


def _standard_to_degree(leads, n, limit):
    """All exponent vectors of total degree <= limit avoiding every lead."""
    out = []
    exp = [0] * n

    def divisible():
        return any(all(exp[j] >= l[j] for j in range(n)) for l in leads)

    def walk(i, remaining):
        if divisible():
            return
        if i == n:
            out.append(tuple(exp))
            return
        for e in range(remaining + 1):
            exp[i] = e
            walk(i + 1, remaining - e)
        exp[i] = 0

    walk(0, limit)
    return out


def _resolve_b(p, elements, factorizations):
    elems = [element_from_data(p, b) for b in elements]
    if any(e.is_zero for e in elems):
        raise InvalidInput("members of B must be nonzero")
    facts = []
    if factorizations is None:
        for elem in elems:
            facts.append(tuple(require_member(p, elem)))
    else:
        if len(factorizations) != len(elems):
            raise InvalidInput("one factorization per element required")
        for elem, fac in zip(elems, factorizations):
            fac = tuple(int(c) for c in fac)
            if len(fac) != p.n or any(c < 0 for c in fac):
                raise InvalidInput("malformed factorization")
            if p.evaluate(fac) != elem:
                raise InvalidInput(f"{fac} does not factor {elem.to_data()}")
            facts.append(fac)
    return elems, facts


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
    standard monomials of total degree at most ``limit``, which must not be
    negative.  The staircase finiteness verdict is cross-checked against
    the cone criterion.
    """
    if limit is not None and limit < 0:
        raise InvalidInput("limit must be nonnegative")
    p = _validated(p)
    elems, facts = _resolve_b(p, elements, factorizations)
    # monomials first: the reduced basis of I_S then never re-forms its own S-pairs
    gens = [Binomial.monomial(f) for f in facts] + list(lattice_ideal(p, order).elements)
    j_basis = groebner(gens, order)
    leads = _leads(j_basis)
    n = p.n
    bounds = _pure_power_bounds(leads, n)
    staircase_finite = all(b is not None for b in bounds)
    cone_finite = cones_equal(p, elems)
    if staircase_finite != cone_finite:
        raise CrossCheckError(
            f"staircase says finite={staircase_finite}, cone criterion says finite={cone_finite}"
        )
    if staircase_finite:
        monomials = _standard_in_box(leads, bounds)
        used_limit = None
    else:
        if limit is None:
            raise InfiniteWithoutLimit("Apery set is infinite; pass a truncation degree")
        monomials = _standard_to_degree(leads, n, limit)
        used_limit = limit
    degs = {}
    for mono in monomials:
        d = p.evaluate(mono)
        if d in degs:
            raise CrossCheckError(f"standard monomials {degs[d]} and {mono} share a degree")
        degs[d] = mono
    out = tuple(sorted(degs, key=lambda e: e.sort_key()))
    return AperyResult(staircase_finite, out, len(out), used_limit)


def apery_count(
    p: MonoidPresentation,
    elements,
    factorizations=None,
    order: TermOrder = GREVLEX,
) -> int:
    """Cardinality of a finite Apery set; InfiniteSet when it is not."""
    p = _validated(p)
    elems, facts = _resolve_b(p, elements, factorizations)
    if not cones_equal(p, elems):
        raise InfiniteSet("Apery set is infinite")
    res = apery_set(p, elems, factorizations=facts, order=order)
    return res.count
