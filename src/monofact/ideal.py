"""Lattice ideals through a Groebner engine specialized to binomials.

The ideal I_S of a presented monoid is the kernel of x_i -> t^{a_i}.  It
is generated by pure differences of monomials, and every object Buchberger's
algorithm produces from pure differences is again a pure difference or a
single monomial, so the engine below never touches general polynomial
arithmetic: an element is an exponent pair (lead, tail) or (lead, None).

The pipeline for I_S:

  1. kernel_lattice: a Z-basis of ker(Z^n -> Z^m + T), computed via an
     integer kernel of the free rows stacked with torsion rows augmented
     by their moduli.
  2. lll_reduce: an LLL-reduced basis of the same lattice.  The echelon
     basis has entries as large as the generators; the reduced one has
     small entries, which keeps every saturation pass small.  The change of
     basis is unimodular, so the lattice, its lattice ideal I_S and hence
     the unique reduced Groebner basis under any order are unchanged.
  3. The basis vectors gamma give binomials x^{gamma+} - x^{gamma-}.
  4. saturate: I_S = (those binomials : (x_1 ... x_n)^infty), done one
     variable at a time with a weighted reverse-lex trick: under a grading
     that makes the input homogeneous, a reduced Groebner basis for the
     revlex order with x_i cheapest saturates at x_i by dividing each
     element by the largest power of x_i it contains.  Quotienting by
     each variable in turn equals quotienting by their product, so one
     sweep over the variables saturates completely.

Graded Nakayama holds for these ideals, so trimming a homogeneous
generating set in ascending degree yields minimal generators whose
S-degree multiset is order independent.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from operator import add as _add, le as _le, sub as _sub

from .errors import CrossCheckError, InvalidInput, NotHomogeneous
from .intlinalg import dot, kernel_basis, lattice_contains, lll_reduce, matrix_rank
from .monoid import MonoidPresentation, _validated
from .orders import GREVLEX, TermOrder, cheapest_last, wgrevlex
from .ratlp import solve_nonneg


@dataclass(frozen=True)
class Binomial:
    """x^plus - x^minus, or the monomial x^plus when ``minus`` is None.

    Lattice ideal operations always return canonical binomials (common
    monomial factor stripped, so the supports are disjoint); the raw
    constructor also accepts unstripped pairs for general ideals.
    """

    plus: tuple[int, ...]
    minus: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "plus", tuple(int(a) for a in self.plus))
        if any(a < 0 for a in self.plus):
            raise InvalidInput("exponents must be nonnegative")
        if self.minus is not None:
            object.__setattr__(self, "minus", tuple(int(a) for a in self.minus))
            if len(self.minus) != len(self.plus):
                raise InvalidInput("exponent vectors differ in length")
            if any(a < 0 for a in self.minus):
                raise InvalidInput("exponents must be nonnegative")

    @classmethod
    def difference(cls, a, b) -> "Binomial":
        """Canonical pure difference: strips the common monomial factor."""
        a = tuple(int(x) for x in a)
        b = tuple(int(x) for x in b)
        common = tuple(min(x, y) for x, y in zip(a, b))
        return cls(tuple(x - c for x, c in zip(a, common)), tuple(y - c for y, c in zip(b, common)))

    @classmethod
    def monomial(cls, a) -> "Binomial":
        return cls(tuple(int(x) for x in a), None)

    @property
    def is_monomial(self) -> bool:
        return self.minus is None

    @property
    def is_zero(self) -> bool:
        return self.minus is not None and self.plus == self.minus

    @property
    def nvars(self) -> int:
        return len(self.plus)

    def oriented(self, order: TermOrder):
        """(lead, tail) under ``order``; None for the zero binomial."""
        if self.minus is None:
            return (self.plus, None)
        return _orient(self.plus, self.minus, order)

    def degree(self, p: MonoidPresentation):
        """S-degree: the monoid element both sides map to."""
        return p.evaluate(self.plus)

    def total_degree(self) -> int:
        return sum(self.plus)

    def to_data(self):
        return {
            "plus": list(self.plus),
            "minus": None if self.minus is None else list(self.minus),
        }

    def text(self) -> str:
        def side(exp):
            parts = [
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e > 0
            ]
            return "*".join(parts) if parts else "1"

        if self.minus is None:
            return side(self.plus)
        return f"{side(self.plus)} - {side(self.minus)}"


@dataclass(frozen=True)
class BinomialBasis:
    """An ordered list of binomials with the term order used to produce it."""

    elements: tuple[Binomial, ...]
    order: TermOrder
    is_groebner: bool = False
    is_reduced: bool = False
    is_minimal_generating: bool = False

    @property
    def is_zero_ideal(self) -> bool:
        return not self.elements

    def to_data(self):
        return {
            "order": self.order.describe(),
            "elements": [b.to_data() for b in self.elements],
            "groebner": self.is_groebner,
            "reduced": self.is_reduced,
            "minimal_generating": self.is_minimal_generating,
        }


@dataclass(frozen=True)
class KernelLattice:
    """Z-basis of the factorization-difference lattice ker(rho)."""

    basis: tuple[tuple[int, ...], ...]
    nvars: int

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, vector) -> bool:
        return lattice_contains([list(r) for r in self.basis], list(vector))

    def to_data(self):
        return {"basis": [list(r) for r in self.basis], "nvars": self.nvars}


# ---------------------------------------------------------------------------
# engine internals: elements are (lead, tail) exponent pairs, tail None for
# monomials; lead strictly exceeds tail in the active order.


def _orient(a, b, order):
    ka, kb = order.key(a), order.key(b)
    if ka == kb:
        return None
    return (a, b) if ka > kb else (b, a)


def _divides(a, b) -> bool:
    return all(map(_le, a, b))


class _Reducers:
    """Reduction rules kept as an antichain of leads, sorted by leading key.

    A divisor never exceeds its multiple in a monomial order, so a scan for
    a divisor of m can stop at the first lead whose key passes key(m).  A
    rule whose lead becomes divisible by a newer lead is retired: anything
    it could top-reduce the newer rule also top-reduces.
    """

    __slots__ = ("order", "keys", "rules")

    def __init__(self, order, elements=()):
        self.order = order
        self.keys = []
        self.rules = []
        for el in elements:
            self.add(el)

    def add(self, el):
        keys, rules = self.keys, self.rules
        lead, tail = el
        k = self.order.key(lead)
        j = bisect_left(keys, k)
        i = j
        while j < len(rules):
            if _divides(lead, rules[j][0]):
                del keys[j]
                del rules[j]
            else:
                j += 1
        delta = None if tail is None else tuple(map(_sub, tail, lead))
        keys.insert(i, k)
        rules.insert(i, (lead, tail, delta))

    def reduce_monomial(self, m):
        """Normal form of the monomial x^m; None when a monomial rule kills
        it."""
        keys, rules = self.keys, self.rules
        keyf = self.order.key
        km = keyf(m)
        progress = True
        while progress:
            progress = False
            for idx in range(bisect_right(keys, km)):
                rule = rules[idx]
                if _divides(rule[0], m):
                    delta = rule[2]
                    if delta is None:
                        return None
                    m = tuple(map(_add, m, delta))
                    km = keyf(m)
                    progress = True
                    break
        return m


def _reduce_pair(el, red: _Reducers):
    """Fully reduce an element modulo the rule set; None when it drops to 0."""
    lead, tail = el
    u = red.reduce_monomial(lead)
    if tail is None:
        return None if u is None else (u, None)
    v = red.reduce_monomial(tail)
    if u is None and v is None:
        return None
    if u is None:
        return (v, None)
    if v is None:
        return (u, None)
    return _orient(u, v, red.order)


def _spair(f, g):
    lf, tf = f
    lg, tg = g
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    if tf is None and tg is None:
        return None
    if tf is None:
        return (tuple(l - a + b for l, a, b in zip(lcm, lg, tg)), None)
    if tg is None:
        return (tuple(l - a + b for l, a, b in zip(lcm, lf, tf)), None)
    a = tuple(l - x + y for l, x, y in zip(lcm, lf, tf))
    b = tuple(l - x + y for l, x, y in zip(lcm, lg, tg))
    if a == b:
        return None
    return (b, a)  # orientation fixed by caller


def _buchberger(elements, order):
    """Reduced Groebner basis of the ideal generated by ``elements``.

    Elements are (lead, tail) pairs; the result is sorted by leading key.
    """
    red = _Reducers(order)
    basis = []  # full append history; queued pairs index into it
    leads = []
    alive = []  # indices that still form pairs with newcomers
    queue = {}  # pending pairs (i, j) -> lcm of their leads
    counter = 0
    heap = []

    def append(el):
        nonlocal counter, alive
        m = len(basis)
        lead_m = el[0]
        basis.append(el)
        leads.append(lead_m)

        # Gebauer-Moller update: among the candidate pairs keep only those
        # whose lcm no kept candidate lcm divides; ascending-degree order
        # means a potential divisor is always seen first.  Coprime-lead
        # pairs stay just long enough to block others, then drop
        cand = []
        for g in alive:
            L = tuple(map(max, leads[g], lead_m))
            cand.append((sum(L), L, g))
        cand.sort()
        picked = []
        kept_lcms = []
        for _, L, g in cand:
            coprime = L == tuple(map(_add, leads[g], lead_m))
            if coprime or not any(_divides(L2, L) for L2 in kept_lcms):
                picked.append((g, L, coprime))
                kept_lcms.append(L)
        # pending pairs the new lead makes redundant
        for (i, j), Lij in list(queue.items()):
            if (
                _divides(lead_m, Lij)
                and tuple(map(max, leads[i], lead_m)) != Lij
                and tuple(map(max, leads[j], lead_m)) != Lij
            ):
                del queue[(i, j)]
        for g, L, coprime in picked:
            if coprime:
                continue
            queue[(g, m)] = L
            counter += 1
            heapq.heappush(heap, (order.key(L), counter, g, m))
        alive = [g for g in alive if not _divides(lead_m, leads[g])]
        alive.append(m)
        red.add(el)

    for el in elements:
        if el is None:
            continue
        r = _reduce_pair(el, red)
        if r is not None:
            append(r)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in queue:
            continue
        del queue[(i, j)]
        s = _spair(basis[i], basis[j])
        if s is None:
            continue
        if s[1] is not None:
            s = _orient(s[0], s[1], order)
            if s is None:
                continue
        r = _reduce_pair(s, red)
        if r is not None:
            append(r)

    # the surviving rules carry the minimal lead antichain; tail-reduce for
    # the unique reduced basis (a rule's own lead sits strictly above its
    # tail in the order, so it can never apply to it)
    out = []
    for lead, tail, _ in list(red.rules):
        if tail is not None:
            tail = red.reduce_monomial(tail)
        out.append((lead, tail))
    return out


def _pairs_from_binomials(binomials, order):
    pairs = []
    for b in binomials:
        if b.is_zero:
            continue
        pairs.append(b.oriented(order))
    return pairs


def _binomials_from_pairs(pairs) -> tuple[Binomial, ...]:
    out = []
    for lead, tail in pairs:
        if tail is None:
            out.append(Binomial.monomial(lead))
        else:
            out.append(Binomial(lead, tail))
    return tuple(out)


def groebner(gens, order: TermOrder = GREVLEX) -> BinomialBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``."""
    pairs = _buchberger(_pairs_from_binomials(gens, order), order)
    return BinomialBasis(_binomials_from_pairs(pairs), order, is_groebner=True, is_reduced=True)


def normal_form(f: Binomial, basis: BinomialBasis) -> Binomial:
    """Fully reduced form of ``f`` modulo a Groebner basis.

    The result is zero exactly when f lies in the ideal; monomial
    remainders are reported with positive sign.
    """
    if not basis.is_groebner:
        raise InvalidInput("normal_form needs a Groebner basis")
    order = basis.order
    rules = _Reducers(order, (b.oriented(order) for b in basis.elements if not b.is_zero))
    el = f.oriented(order)
    if el is None:
        n = f.nvars
        return Binomial((0,) * n, (0,) * n)
    red = _reduce_pair(el, rules)
    if red is None:
        n = f.nvars
        return Binomial((0,) * n, (0,) * n)
    lead, tail = red
    if tail is None:
        return Binomial.monomial(lead)
    return Binomial(lead, tail)


def in_ideal(f: Binomial, basis: BinomialBasis) -> bool:
    return normal_form(f, basis).is_zero


def ideals_equal(basis_a: BinomialBasis, basis_b: BinomialBasis) -> bool:
    """Mutual membership of generating sets (both must be Groebner)."""
    return all(in_ideal(b, basis_b) for b in basis_a.elements) and all(
        in_ideal(b, basis_a) for b in basis_b.elements
    )


# ---------------------------------------------------------------------------
# kernel lattice and saturation


def kernel_lattice(p: MonoidPresentation) -> KernelLattice:
    """Z-basis of {gamma : sum gamma_i a_i = 0 in Z^m + T}.

    Torsion congruences become exact rows with one auxiliary unknown per
    modulus; the kernel of the stacked integer matrix projects bijectively
    onto its first n coordinates.
    """
    p = _validated(p)
    n = p.n
    m = p.rank
    moduli = p.torsion.moduli
    k = len(moduli)
    rows = []
    for d in range(m):
        rows.append([g.free[d] for g in p.generators] + [0] * k)
    for j, t in enumerate(moduli):
        row = [g.torsion[j] for g in p.generators] + [0] * k
        row[n + j] = t
        rows.append(row)
    full = kernel_basis(rows)
    projected = [tuple(r[:n]) for r in full]
    free_rows = [[g.free[d] for g in p.generators] for d in range(m)]
    if len(projected) != n - matrix_rank(free_rows):
        raise CrossCheckError("kernel rank differs from n minus the rank of the free rows")
    return KernelLattice(tuple(projected), n)


def _grading_for(gens):
    """Strictly positive integer weights making every pure difference in
    ``gens`` weight-homogeneous; None if no such grading exists."""
    if not gens:
        return None
    n = gens[0].nvars
    diffs = []
    for b in gens:
        if b.is_monomial or b.is_zero:
            continue
        diffs.append([x - y for x, y in zip(b.plus, b.minus)])
    # u = 1 + s with s >= 0 and u . diff = 0  <=>  s . diff = -(1 . diff)
    rows = diffs
    rhs = [-sum(d) for d in diffs]
    sol = solve_nonneg(rows, rhs) if rows else ([0] * n, 1)
    if sol is None:
        return None
    s, D = sol
    g = gcd(D, *s)  # u = 1 + s scaled by the lcm of its denominators, D / g
    return tuple((D + a) // g for a in s)


def saturate(
    gens,
    order: TermOrder = GREVLEX,
    weights: tuple[int, ...] | None = None,
) -> BinomialBasis:
    """Groebner basis of (<gens> : (x_1 ... x_n)^infty) under ``order``.

    ``gens`` must be homogeneous for some strictly positive grading
    (``weights`` when supplied, otherwise one is derived exactly); the
    saturation walks the variables once, dividing each out of a graded
    reverse-lex basis that makes it cheapest.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return BinomialBasis((), order, is_groebner=True, is_reduced=True)
    n = gens[0].nvars
    if weights is None:
        weights = _grading_for(gens)
        if weights is None:
            raise NotHomogeneous("no positive grading makes the generators homogeneous")
    else:
        for b in gens:
            if not b.is_monomial and dot(weights, b.plus) != dot(weights, b.minus):
                raise NotHomogeneous("generators are not homogeneous for the given weights")

    current = [b.oriented(GREVLEX) for b in gens if b.oriented(GREVLEX) is not None]
    # quotienting by each variable in turn equals quotienting by their
    # product, so a single pass saturates completely
    for i in range(n):
        round_order = wgrevlex(weights, perm=cheapest_last(n, i))
        current = _buchberger(current, round_order)
        stripped = []
        for lead, tail in current:
            c = min(lead[i], tail[i]) if tail is not None else 0
            if c > 0:
                lead = tuple(a - c if j == i else a for j, a in enumerate(lead))
                tail = tuple(a - c if j == i else a for j, a in enumerate(tail))
            stripped.append((lead, tail))
        current = stripped
    final = _buchberger(current, order)
    return BinomialBasis(_binomials_from_pairs(final), order, is_groebner=True, is_reduced=True)


# one session works on a presentation and its homogenization, a few orders each
_CACHE_SIZE = 8


def lattice_ideal(p: MonoidPresentation, order: TermOrder = GREVLEX) -> BinomialBasis:
    """Reduced Groebner basis of I_S under ``order``.

    Memoized per (presentation, order) in a bounded cache; the basis is
    immutable, so callers share it.
    """
    return _lattice_ideal(_validated(p), order)


@lru_cache(maxsize=_CACHE_SIZE)
def _lattice_ideal(p: MonoidPresentation, order: TermOrder) -> BinomialBasis:
    # any basis of the lattice gives the same I_S; a short one saturates fast
    gens = []
    for gamma in lll_reduce(kernel_lattice(p).basis):
        plus = tuple(a if a > 0 else 0 for a in gamma)
        minus = tuple(-a if a < 0 else 0 for a in gamma)
        gens.append(Binomial(plus, minus))
    if not gens:
        return BinomialBasis((), order, is_groebner=True, is_reduced=True)
    return saturate(gens, order=order, weights=p.weights)


def minimal_generators(
    basis, p: MonoidPresentation, order: TermOrder | None = None
) -> BinomialBasis:
    """Trim a homogeneous generating set to minimal generators.

    Candidates are processed in ascending (weight of S-degree, leading key)
    order; one is dropped exactly when it lies in the ideal generated by
    all the others still alive.  By graded Nakayama the surviving S-degree
    multiset does not depend on the term order.
    """
    p = _validated(p)
    if isinstance(basis, BinomialBasis):
        elements = list(basis.elements)
        order = order or basis.order
    else:
        elements = list(basis)
        order = order or GREVLEX
    elements = [b for b in elements if not b.is_zero]
    for b in elements:
        if b.is_monomial:
            raise NotHomogeneous("monomials cannot appear in a lattice ideal")
        if p.evaluate(b.plus) != p.evaluate(b.minus):
            raise NotHomogeneous(f"{b.text()} is not homogeneous for the monoid grading")
    if not elements:
        return BinomialBasis((), order, is_minimal_generating=True)

    def weight(b):
        # plus is a factorization of the S-degree, so generator weights apply
        return dot(p.weights, b.plus)

    elements.sort(key=lambda b: (weight(b), order.key(b.oriented(order)[0])))
    alive = [True] * len(elements)
    for i in range(len(elements)):
        others = [elements[j] for j in range(len(elements)) if j != i and alive[j]]
        if not others:
            continue
        # membership does not depend on the order, so test under the
        # cheapest one whatever the ambient order is
        gb = groebner(others, GREVLEX)
        if in_ideal(elements[i], gb):
            alive[i] = False
    kept = tuple(b for b, a in zip(elements, alive) if a)
    return BinomialBasis(kept, order, is_minimal_generating=True)
