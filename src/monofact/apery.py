"""Apery sets of reduced monoids relative to a finite subset.

Ap_S(B) = {s in S : s - b not in S for every b in B}.  With a factorization
beta_i of each b_i, the quotient K[x]/(I_S + <x^beta_1, ..., x^beta_s>) has
the standard monomials as a basis, and the degree map x^alpha -> sum alpha_i a_i
restricts to a bijection from those onto Ap_S(B).  One walk lists the
standard monomials from the leads of the reduced Groebner basis: the whole
staircase when the set is finite, its slice of total degree at most a limit
otherwise.  The set is finite exactly when every variable has a pure power
among the leads; that verdict is compared on every run with the cone
criterion, under which every extremal ray of the cone of S must carry some
element of B.
"""

from __future__ import annotations

from ._frozen import Frozen, init_field
from .errors import CrossCheckError, InfiniteSet, InfiniteWithoutLimit, InvalidInput
from .ideal import Binomial, groebner, lattice_ideal
from .monoid import (
    GroupElement,
    MonoidPresentation,
    _integer,
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
    elems, _ = _resolve_b(p, elements, None)
    return cones_equal(p, elems)


def _pure_power_variables(leads):
    """The variables x_i with some pure power x_i^d among the leads."""
    out = set()
    for lead in leads:
        support = [i for i, e in enumerate(lead) if e > 0]
        if len(support) == 1:
            out.add(support[0])
    return out


def _standard_monomials(leads, n, limit):
    """All exponent vectors avoiding every lead, of total degree at most
    ``limit`` unless it is None.

    Leads are checked as soon as their topmost variable is assigned, and
    larger exponents at that position only stay divisible, so the walk can
    cut the whole branch.  Without a limit every variable needs a pure-power
    lead, which ends its loop.
    """
    by_top = [[] for _ in range(n)]
    for l in leads:
        by_top[max(j for j, v in enumerate(l) if v > 0)].append(l)
    out = []
    exp = [0] * n

    def walk(i, remaining):
        if i == n:
            out.append(tuple(exp))
            return
        e = 0
        while remaining is None or e <= remaining:
            exp[i] = e
            if any(all(exp[j] >= l[j] for j in range(i + 1)) for l in by_top[i]):
                break
            walk(i + 1, None if remaining is None else remaining - e)
            e += 1
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
            fac = tuple(_integer(c) for c in fac)
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
    leads = [b.plus for b in groebner(gens, order).elements]
    staircase_finite = len(_pure_power_variables(leads)) == p.n
    cone_finite = cones_equal(p, elems)
    if staircase_finite != cone_finite:
        raise CrossCheckError(
            f"staircase says finite={staircase_finite}, cone criterion says finite={cone_finite}"
        )
    if staircase_finite:
        limit = None
    elif limit is None:
        raise InfiniteWithoutLimit("Apery set is infinite; pass a truncation degree")
    degs = {}
    for mono in _standard_monomials(leads, p.n, limit):
        d = p.evaluate(mono)
        if d in degs:
            raise CrossCheckError(f"standard monomials {degs[d]} and {mono} share a degree")
        degs[d] = mono
    out = tuple(sorted(degs, key=lambda e: e.sort_key()))
    return AperyResult(staircase_finite, out, len(out), limit)


def apery_count(
    p: MonoidPresentation,
    elements,
    factorizations=None,
    order: TermOrder = GREVLEX,
) -> int:
    """Cardinality of a finite Apery set; InfiniteSet when it is not."""
    try:
        return apery_set(p, elements, factorizations, order).count
    except InfiniteWithoutLimit:
        raise InfiniteSet("Apery set is infinite") from None
