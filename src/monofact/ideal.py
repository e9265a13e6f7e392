"""Lattice ideals through a Groebner engine specialized to binomials.

The ideal I_S of a presented monoid is the kernel of x_i -> t^{a_i}.  It
is generated by pure differences of monomials, and every object Buchberger's
algorithm produces from pure differences is again a pure difference or a
single monomial, so the engine below never touches general polynomial
arithmetic: an element is a pair (lead, tail) of monomials, or (lead, None).
Inside the engine every monomial is one int (Monagan-Pearce packed
exponents, see _Layout): a monomial product is an add, divisibility a
subtraction and a mask, and the term order an int comparison.  Exponents
that outgrow their fields restart the call with wider ones, so the result
never depends on the packing.  Outside the engine a binomial is a pair
(a, b) of exponent tuples, b None for a monomial, from the kernel basis
to the saturated generators and the Apery leads; Binomial and
BinomialBasis wrap them only where a public function takes or returns
them.

The pipeline for I_S:

  1. kernel_lattice: a Z-basis of ker(Z^n -> Z^m + T), computed once per
     presentation (MonoidPresentation.kernel); the rank of the free rows
     picks the path.  At rank n the kernel is 0, read off that rank with
     no echelon.  At rank n - 1 it is spanned by one vector: the signed
     maximal minors of n - 1 independent free rows over their gcd, times
     the order of their torsion image, again with no echelon.  Below
     that it is the integer kernel of the free rows stacked with torsion
     rows augmented by their moduli, one echelon of the whole.  For the
     length lift S~ of S (MonoidPresentation.lift) it is read off the
     basis B of S instead: ker S~ = {gamma in ker S : sum gamma_i = 0} has
     the basis C B, C a basis of the integer kernel of the one row (sum v
     for v in B).  Its rank is len(B), less 1 when some row of B has a
     nonzero sum, so L_S and c_eq answer a zero ker S~ with no lift.
  2. lll_reduce: an LLL-reduced basis of the same lattice.  The kernel
     basis has entries as large as the generators; the reduced one has
     small entries, which keeps every saturation pass small.  The change of
     basis is unimodular, so the lattice, its lattice ideal I_S and hence
     the unique reduced Groebner basis under any order are unchanged.
  3. The basis vectors gamma give binomials x^{gamma+} - x^{gamma-}.
  4. saturate: I_S = (those binomials : (x_1 ... x_n)^infty), done one
     variable at a time with a weighted reverse-lex trick: under a grading
     that makes the input homogeneous, a reduced Groebner basis for the
     revlex order with x_i cheapest saturates at x_i by dividing each
     element by the largest power of x_i it contains (Bayer-Stillman), and
     the divided basis is again a Groebner basis for that order.
     Quotienting by each variable in turn equals quotienting by their
     product, and a pass is needed only at a seed whose closure covers
     every variable of the generators: a generator x^a - x^b with supp(b)
     saturated makes supp(a) saturated too, transitively (Hosten and
     Sturmfels, IPCO 1995).  The smallest seed of one or two variables is
     taken, else the variables outside the largest supp(a) \\ supp(b) of
     one generator; a single generator x^a - x^b with disjoint supports,
     the whole input of a rank-1 lattice, needs no pass at all (see
     saturate for the proofs).  The saturated generators, the divided last
     pass or the LLL binomials when no pass ran, are kept on the
     presentation (``saturated_generators``): T_S reads their degrees
     directly, L_S the degrees of those of S~, and a finite Apery set
     builds its ideal J from those of S.  ``lattice_ideal(p, order)`` is
     one final Buchberger run from them, built only when an ordered basis
     is asked for.  A principal ideal needs no engine loop there: it is
     its own reduced basis, so one generator comes back oriented under the
     order.

Graded Nakayama holds for these ideals, so trimming a homogeneous
generating set in ascending degree yields minimal generators whose
S-degree multiset is order independent.  The trimming is one Buchberger
run driven in steps (``_engine``), the homogeneous Buchberger algorithm
(Kreuzer and Robbiano, Computational Commutative Algebra 2, ch. 4): the
candidates join it in ascending weight under the graded reverse-lex order
of the presentation's weights, and before one of weight w is tested every
S-pair whose lcm weighs at most w is reduced.  Its rules are then a
w-truncated Groebner basis of the candidates kept so far, so a weight-w
candidate reduces to 0 exactly when their ideal holds it.  One driver,
``_truncated``, runs that engine beside a caller that asks whether an
element lies in the ideal so far.  With the saturated generators of I_S
in the run it decides membership in a monoid ideal of S with no
factorization search: d lies in the ideal generated by e_1, ..., e_k
exactly when x^{f_d} lies in I_S + <x^{f_e_1}, ..., x^{f_e_k}>, for any
factorizations f (see the ``apery`` module).  So ``_trim`` trims the
generators of T_S and L_S, d dropped when it lies in e + S for a kept e,
and the truncated Apery walk cuts at the monomials of
J = I_S + <x^beta_i> (``apery.apery_set``).  With no base, ``_trim``
trims binomials themselves: the ``--minimal`` payloads
(``minimal_generators``), and c_eq, the top total degree of the
saturated generators of I_{S~} that it keeps (``catenary.ceq``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from heapq import heappop, heappush
from itertools import count
from operator import mul

from ._frozen import Frozen, init_field, kept
from .errors import InvalidInput, NotHomogeneous
from .intlinalg import dot, lll_reduce
from .monoid import MonoidPresentation, _integers, validate_reduced
from .orders import GREVLEX, TermOrder, cheapest_last, wgrevlex


class Binomial(Frozen):
    """x^plus - x^minus, or the monomial x^plus when ``minus`` is None.

    Lattice ideal operations always return canonical binomials (common
    monomial factor stripped, so the supports are disjoint); the raw
    constructor also accepts unstripped pairs for general ideals.
    """

    __slots__ = ("plus", "minus")
    plus: tuple[int, ...]
    minus: tuple[int, ...] | None

    def __init__(self, plus, minus=None):
        plus = _integers(plus)
        if plus and min(plus) < 0:
            raise InvalidInput("exponents must be nonnegative")
        if minus is not None:
            minus = _integers(minus)
            if len(minus) != len(plus):
                raise InvalidInput("exponent vectors differ in length")
            if minus and min(minus) < 0:
                raise InvalidInput("exponents must be nonnegative")
        init_field(self, "plus", plus)
        init_field(self, "minus", minus)

    @classmethod
    def difference(cls, a, b) -> "Binomial":
        """Canonical pure difference: strips the common monomial factor."""
        a = _integers(a)
        b = _integers(b)
        common = tuple(min(x, y) for x, y in zip(a, b))
        return cls(tuple(x - c for x, c in zip(a, common)), tuple(y - c for y, c in zip(b, common)))

    @classmethod
    def monomial(cls, a) -> "Binomial":
        return cls(a, None)

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
        """(lead, tail) under ``order``, the larger term leading as in
        ``_principal``; None for the zero binomial."""
        basis = _principal(self.plus, self.minus, order, self.nvars)
        return basis[0] if basis else None

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


def _stored(plus, minus) -> Binomial:
    """A Binomial of exponent tuples built here, stored without the checks
    of ``Binomial.__init__``: they are nonnegative ints of one length by
    construction."""
    b = Binomial.__new__(Binomial)
    init_field(b, "plus", plus)
    init_field(b, "minus", minus)
    return b


class BinomialBasis(Frozen):
    """An ordered list of binomials with the term order used to produce it:
    the reduced Groebner basis when ``groebner`` (``groebner``,
    ``saturate``, ``lattice_ideal``), else a minimal generating set
    (``minimal_generators``)."""

    __slots__ = ("elements", "order", "groebner")
    elements: tuple[Binomial, ...]
    order: TermOrder
    groebner: bool

    def to_data(self):
        return {
            "order": self.order.describe(),
            "elements": [b.to_data() for b in self.elements],
            "groebner": self.groebner,
            "reduced": self.groebner,
            "minimal_generating": not self.groebner,
        }


class KernelLattice(Frozen):
    """Z-basis of the factorization-difference lattice ker(rho)."""

    __slots__ = ("basis", "nvars")
    basis: tuple[tuple[int, ...], ...]
    nvars: int

    def to_data(self):
        return {"basis": [list(r) for r in self.basis], "nvars": self.nvars}


# ---------------------------------------------------------------------------
# engine internals: a monomial is one int (see _Layout) and an element is a
# pair (lead, tail) of them, tail None for monomials, lead > tail.


class _Overflow(Exception):
    """An exponent outgrew its field; the call restarts with wider fields."""


class _Layout:
    """Monomials of n variables under one term order, packed into ints.

    Exponent i sits in bits [i(W+1), i(W+1) + W), with a guard bit above
    it.  Above the exponent fields sit signed fields, one per row of the
    order's matrix, the first row topmost, each wide enough that all the
    bits below it span less than one of its units.  Packing is linear,
    pack(e) = sum e_i U_i, so while every exponent fits in W bits:

      * a product, and a reduction step m + (tail - lead), is one add;
      * a | b iff b - a sets no guard bit: a borrow out of a field sets its
        guard bit, and borrows only travel upward;
      * a < b as ints iff x^a < x^b in the order, since the rows decide it;
      * lcm is a masked fieldwise max of the exponent fields.

    A sum that sets a guard bit has overflowed W; the engine raises
    _Overflow and starts again with wider fields.
    """

    __slots__ = ("width", "field", "shifts", "units", "guards", "exps")

    def __init__(self, rows, n, width):
        step = width + 1
        self.width = width
        self.field = (1 << width) - 1
        self.shifts = tuple(range(0, n * step, step))
        units = [1 << s for s in self.shifts]
        shift = n * step
        for row in reversed(rows):
            for i, c in enumerate(row):
                units[i] += c << shift
            shift += (self.field * sum(map(abs, row))).bit_length()
        self.units = tuple(units)
        self.guards = sum(1 << (s + width) for s in self.shifts)
        self.exps = self.guards - sum(1 << s for s in self.shifts)

    def pack(self, exp) -> int:
        return sum(map(mul, exp, self.units))

    def unpack(self, m) -> tuple[int, ...]:
        field = self.field
        return tuple((m >> s) & field for s in self.shifts)

    def lcm(self, a, b) -> int:
        """Exponent fields of lcm(a, b), given the exponent fields of a and
        b (``m & exps``); order fields zero."""
        guards = self.guards
        ge = ((a | guards) - b) & guards  # guard bit of field i: a_i >= b_i
        ge -= ge >> self.width  # ... widened to the whole field
        return b ^ ((a ^ b) & ge)


# a session builds a handful of orders per presentation, each at one or two
# widths; a miss costs about 16 us on 4 variables, rows included
@lru_cache(maxsize=128)
def _layout(order: TermOrder, n: int, width: int) -> _Layout:
    return _Layout(order.rows(n), n, width)


# widths are powers of two from 8, so that the layout cache sees few of
# them; over every second small-report session, 3 of 13k bases outgrew
# their first width
_MIN_WIDTH = 8


def _widening(pairs, order, n, work, fit=()):
    """``work(layout, elements)`` over ``pairs`` of exponent vectors packed
    and oriented (None for a zero binomial), at the least width that holds
    every exponent of ``pairs`` and of the pairs ``fit``, doubled on every
    overflow.  The result never depends on the width."""
    pairs_fit = (v for pair in (*pairs, *fit) for v in pair if v is not None)
    top = max((max(v, default=0) for v in pairs_fit), default=0)
    width = _MIN_WIDTH
    while width < top.bit_length():
        width *= 2
    while True:
        lay = _layout(order, n, width)
        pack = lay.pack
        elements = [
            (pack(a), None) if b is None else _orient(pack(a), pack(b)) for a, b in pairs
        ]
        try:
            return work(lay, elements)
        except _Overflow:
            width *= 2


def _orient(a, b):
    if a == b:
        return None
    return (a, b) if a > b else (b, a)


class _Reducers:
    """Reduction rules kept as an antichain of leads in ascending order.

    A divisor never exceeds its multiple in a monomial order, so a scan for
    a divisor of m can stop at the first lead above m.  A rule whose lead
    becomes divisible by a newer lead is retired: anything it could
    top-reduce the newer rule also top-reduces.
    """

    __slots__ = ("guards", "leads", "steps")

    def __init__(self, guards):
        self.guards = guards
        self.leads = []
        self.steps = []  # tail - lead; None for monomial rules

    def add(self, lead, tail):
        leads, guards = self.leads, self.guards
        i = j = bisect_left(leads, lead)
        while j < len(leads):
            if (leads[j] - lead) & guards:
                j += 1
            else:
                del leads[j], self.steps[j]
        leads.insert(i, lead)
        self.steps.insert(i, None if tail is None else tail - lead)

    def reduce_monomial(self, m):
        """Normal form of the monomial m; None when a monomial rule kills
        it."""
        leads, steps, guards = self.leads, self.steps, self.guards
        while True:
            for idx in range(bisect_right(leads, m)):
                if not ((m - leads[idx]) & guards):
                    step = steps[idx]
                    if step is None:
                        return None
                    m += step
                    if m & guards:
                        raise _Overflow
                    break
            else:
                return m


def _reduce_pair(el, red: _Reducers):
    """Fully reduce an element modulo the rule set; None when it drops to 0."""
    lead, tail = el
    u = red.reduce_monomial(lead)
    if tail is None:
        return None if u is None else (u, None)
    v = red.reduce_monomial(tail)
    if u is None:
        return None if v is None else (v, None)
    if v is None:
        return (u, None)
    return _orient(u, v)


def _spair(f, g, lcm, guards):
    """S-pair of two elements whose leads have the packed lcm ``lcm``."""
    (lf, tf), (lg, tg) = f, g
    if tf is None and tg is None:
        return None
    a = lcm if tf is None else lcm - lf + tf
    b = lcm if tg is None else lcm - lg + tg
    if (a | b) & guards:
        raise _Overflow
    if tf is None:
        return (b, None)
    if tg is None:
        return (a, None)
    return _orient(a, b)


def _buchberger(pairs, order, n):
    """Reduced Groebner basis of the ideal generated by ``pairs``.

    Elements are pairs (a, b) of exponent vectors for x^a - x^b, b None for
    the monomial x^a, in either orientation.  The result is (lead, tail)
    pairs sorted by lead in ``order``.  One generator is its own reduced
    basis, oriented (see ``_principal``).
    """
    if not pairs:
        return []
    if len(pairs) == 1:
        return _principal(*pairs[0], order, n)
    return _widening(pairs, order, n, _buchberger_packed)


def _principal(a, b, order, n):
    """The reduced basis of one generator x^a - x^b (x^a when b is None):
    itself with its larger term leading, and nothing for a zero binomial.
    No tail term of x^a - x^b, a > b, is a multiple of the lead, a
    multiple never being smaller, so nothing reduces it.  The terms are
    compared row by row of the order's matrix, with no packing: the first
    row that tells them apart decides, and its rows have full column rank,
    so only a = b ties on all of them."""
    if b is None:
        return [(a, None)]
    for row in order.rows(n):
        d = sum(map(mul, row, a)) - sum(map(mul, row, b))
        if d:
            return [(a, b) if d > 0 else (b, a)]
    return []


def _buchberger_packed(lay: _Layout, elements):
    add, complete, reduced = _engine(lay)
    for el in elements:
        add(el)
    complete()
    return reduced()


def _engine(lay: _Layout, weights=None):
    """One Buchberger run under ``lay``'s order, driven in three steps:

      * ``add(el, keep=True) -> bool`` reduces a packed element (None for
        zero) by the rules so far and says whether it is left nonzero; with
        ``keep`` such an element joins the rules, with its new pairs;
      * ``complete(limit=None)`` reduces the queued S-pairs, least lcm in
        the order first: all of them, or while that lcm weighs at most
        ``limit`` under ``weights``, the first row of the order;
      * ``reduced()`` is the reduced basis of the rules, as (lead, tail)
        exponent tuples sorted by lead.
    """
    guards, exps, width, lcm = lay.guards, lay.exps, lay.width, lay.lcm
    field, unpack = lay.field, lay.unpack
    # a queued pair's heap key is its lcm packed with the order fields,
    # pack(unpack(L)), summed straight from the exponent fields of L
    packing = tuple(zip(lay.shifts, lay.units))
    red = _Reducers(guards)
    basis = []  # full append history; queued pairs index into it
    leads = []  # exponent fields of the leads
    alive = []  # indices that still form pairs with newcomers
    queue = {}  # pending pairs (i, j) -> exponent fields of the lcm of their leads
    heap = []
    tick = count()

    def add(el, keep=True) -> bool:
        el = None if el is None else _reduce_pair(el, red)
        if el is None or not keep:
            return el is not None
        m = len(basis)
        lead_m = el[0] & exps
        basis.append(el)
        leads.append(lead_m)

        # pending pairs the new lead makes redundant
        for ij in [ij for ij, L in queue.items() if not ((L - lead_m) & guards)]:
            i, j = ij
            L = queue[ij]
            if lcm(leads[i], lead_m) != L and lcm(leads[j], lead_m) != L:
                del queue[ij]
        # Gebauer-Moller update: among the candidate pairs keep only those
        # whose lcm no kept candidate lcm divides; ascending order means a
        # potential divisor is always seen first.  Coprime-lead pairs stay
        # just long enough to block others, then drop.  The lcm is lay.lcm
        # inlined: this loop is the engine's hottest
        high = lead_m | guards
        cand = []
        for g in alive:
            b = leads[g]
            ge = (high - b) & guards
            cand.append((b ^ ((lead_m ^ b) & (ge - (ge >> width))), g))
        cand.sort()
        kept_lcms = []
        for L, g in cand:
            if L == leads[g] + lead_m:  # coprime leads
                kept_lcms.append(L)
                continue
            for L2 in kept_lcms:
                if not ((L - L2) & guards):
                    break
            else:
                kept_lcms.append(L)
                queue[(g, m)] = L
                key = sum([(L >> s & field) * u for s, u in packing])
                heappush(heap, (key, next(tick), g, m))
        alive[:] = [g for g in alive if (leads[g] - lead_m) & guards]
        alive.append(m)
        red.add(*el)
        return True

    def complete(limit=None):
        while heap:
            L, _, i, j = heap[0]
            if limit is not None and sum(map(mul, weights, unpack(L))) > limit:
                return
            heappop(heap)
            if queue.pop((i, j), None) is not None:
                add(_spair(basis[i], basis[j], L, guards))

    def reduced():
        # the surviving rules carry the minimal lead antichain; tail-reduce
        # for the unique reduced basis (a rule's own lead sits strictly above
        # its tail in the order, so it can never apply to it)
        out = []
        for lead, step in zip(red.leads, red.steps):
            tail = None if step is None else red.reduce_monomial(lead + step)
            out.append((unpack(lead), None if tail is None else unpack(tail)))
        return out

    return add, complete, reduced


def _reduced_basis(pairs, order: TermOrder, n: int) -> BinomialBasis:
    """The reduced Groebner basis of ``pairs`` (see ``_buchberger``) under
    ``order``, each lead its element's ``plus``."""
    basis = _buchberger(pairs, order, n)
    return BinomialBasis(tuple(_stored(lead, tail) for lead, tail in basis), order, groebner=True)


def groebner(gens, order: TermOrder = GREVLEX) -> BinomialBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Each element's ``plus`` is its lead term under ``order``.
    """
    pairs = [(b.plus, b.minus) for b in gens]
    return _reduced_basis(pairs, order, len(pairs[0][0]) if pairs else 0)


def in_ideal(f: Binomial, basis: BinomialBasis) -> bool:
    """True when ``f`` lies in the ideal of the Groebner basis ``basis``:
    exactly when the rules of the basis reduce it to 0."""
    if not basis.groebner:
        raise InvalidInput("in_ideal needs a Groebner basis")
    pairs = [(b.plus, b.minus) for b in basis.elements]
    pairs.append((f.plus, f.minus))

    def reduces_to_zero(lay, elements):
        *rules, el = elements
        red = _Reducers(lay.guards)
        for rule in rules:
            if rule is not None:
                red.add(*rule)
        return el is None or _reduce_pair(el, red) is None

    return _widening(pairs, basis.order, f.nvars, reduces_to_zero)


# ---------------------------------------------------------------------------
# kernel lattice and saturation


def kernel_lattice(p: MonoidPresentation) -> KernelLattice:
    """Z-basis of {gamma : sum gamma_i a_i = 0 in Z^m + T}, memoized on
    the presentation (``MonoidPresentation.kernel``).  The lattice of a
    lift p.lift is read off the basis of p, so its rows may differ
    from those of the same S~ built from data; the lattice, and every
    ideal built from it, is the same."""
    return KernelLattice(validate_reduced(p).kernel, p.n)


def _covered(gens) -> frozenset:
    """The largest supp(a) \\ supp(b) over the non-monomial generators
    (a, b) for x^a - x^b of ``gens``, in both orientations: variables at
    which the saturation of the others already saturates (see saturate)."""
    best = frozenset()
    for plus, minus in gens:
        if minus is None:
            continue
        for a, b in ((plus, minus), (minus, plus)):
            k = frozenset(j for j, (x, y) in enumerate(zip(a, b)) if x and not y)
            if len(k) > len(best):
                best = k
    return best


def _mask(exp) -> int:
    """The support of x^exp as a bit mask, bit i for x_i."""
    return sum(1 << i for i, e in enumerate(exp) if e)


def _passes(gens) -> list[int]:
    """The variables ``_saturated`` runs a pass at, ascending: none for one
    binomial with disjoint supports, else the smallest seed of one or two
    variables whose closure covers every variable of ``gens``, else every
    such variable outside ``_covered(gens)``.  The closure of a seed adds
    supp(a) for each non-monomial generator x^a - x^b, in either
    orientation, with supp(b) inside it, until nothing more is added (see
    saturate for why the seed's passes then saturate at all of it).
    ``gens`` are pairs (a, b) for x^a - x^b, b None for a monomial."""
    plus, minus = gens[0]
    if len(gens) == 1 and minus is not None and not any(map(min, plus, minus)):
        return []
    used = 0
    rules = []  # (supp(b), supp(a)): once supp(b) is saturated, so is supp(a)
    for plus, minus in gens:
        a = _mask(plus)
        used |= a
        if minus is not None:
            b = _mask(minus)
            used |= b
            rules += ((b, a), (a, b))

    def covers(seed):
        done = seed
        while done != used:
            grown = done
            for need, give in rules:
                if not need & ~grown:
                    grown |= give
            if grown == done:
                return False
            done = grown
        return True

    live = [i for i in range(len(gens[0][0])) if used >> i & 1]
    for i in live:
        if covers(1 << i):
            return [i]
    for k, i in enumerate(live):
        for j in live[k + 1 :]:
            if covers(1 << i | 1 << j):
                return [i, j]
    return sorted(set(live) - _covered(gens))


def _saturated(gens, passes, weights):
    """Generators of (<gens> : (x_1 ... x_n)^infty), each of them and of
    ``gens`` a pair (a, b) for x^a - x^b, b None for a monomial: the
    ``passes``, those of ``_passes(gens)``, each a Buchberger run under
    ``weights``' graded reverse-lex order with its variable cheapest and
    that variable then divided out.  The last pass leaves a Groebner basis
    for its own order, and with no pass the generators come back as they
    are.  ``gens`` are nonzero and homogeneous for the positive integer
    ``weights``, which only a pass reads."""
    n = len(gens[0][0])
    current = gens
    for i in passes:
        round_order = TermOrder._made("wgrevlex", weights, cheapest_last(n, i))
        current = _buchberger(current, round_order, n)
        stripped = []
        for lead, tail in current:
            c = lead[i] if tail is None else min(lead[i], tail[i])
            if c > 0:
                lead = tuple(a - c if j == i else a for j, a in enumerate(lead))
                if tail is not None:
                    tail = tuple(a - c if j == i else a for j, a in enumerate(tail))
            stripped.append((lead, tail))
        current = stripped
    return current


def saturate(gens, order: TermOrder = GREVLEX, *, weights: tuple[int, ...]) -> BinomialBasis:
    """Groebner basis of (<gens> : (x_1 ... x_n)^infty) under ``order``.

    ``gens`` must be homogeneous for the strictly positive grading
    ``weights`` (``NotHomogeneous`` otherwise).  The saturation divides
    one variable at a time out of a graded reverse-lex basis that makes it
    cheapest, and ends with one Buchberger run under ``order``.

    Passes are needed only at a seed of variables whose closure covers
    every variable of the generators (``_passes``), by a lemma of Hosten
    and Sturmfels (IPCO 1995) applied to all generators at once.  Let
    I = <gens> and let J, with I inside J inside I : (x_1 ... x_n)^infty,
    be saturated at each variable of a set T.  Take a non-monomial
    generator x^a - x^b with supp(b) in T, j in supp(a), and f with
    f x_j^k in J.  Since x_j^k divides x^{ka}, f x^{ka} lies in J;
    x^{ka} = x^{kb} modulo I, so f x^{kb} lies in J, and then so does f,
    J being saturated at every variable of b.  So J is saturated at
    supp(a) too, and by induction at the closure of T.  The passes at a
    seed sigma give J = I : (x_sigma)^infty, saturated at sigma; once the
    closure of sigma holds every variable of the generators, and the
    others need no pass (below), J is saturated at every variable, hence
    at their product, and J = I : (x_1 ... x_n)^infty.  A monomial
    generator adds nothing: the argument needs the other side x^b.  The
    variables outside the largest supp(a) \\ supp(b) of one generator form
    such a seed, since its closure takes in that supp(a) at once; that
    seed is the fallback, and every seed of one and two variables is tried
    first, so no input gets more passes than under the one-generator rule.

    Two more rules skip passes.  A variable x_i in no generator needs
    none: I, and so its saturation J at the other variables, is extended
    from K[x_{-i}], so K[x]/J = (K[x_{-i}]/J_0)[x_i], where x_i divides
    no zero.  A single binomial x^a - x^b with disjoint supports needs no
    pass at all: no x_i divides it, so in the factorial ring K[x] it
    divides g whenever it divides x_i g.
    """
    gens = [(g.plus, g.minus) for g in gens if not g.is_zero]
    if not gens:
        return BinomialBasis((), order, groebner=True)
    for plus, minus in gens:
        if minus is not None and dot(weights, plus) != dot(weights, minus):
            raise NotHomogeneous("generators are not homogeneous for the given weights")
    weights = wgrevlex(weights).weights  # read and checked once for every pass
    return _reduced_basis(_saturated(gens, _passes(gens), weights), order, len(gens[0][0]))


def saturated_generators(p: MonoidPresentation) -> tuple:
    """Generators of I_S as pairs (a, b) for x^a - x^b, saturated once
    per presentation (``_saturated``) from an LLL-reduced kernel basis and
    kept on it under the key ("saturated",); every ordered basis
    ``lattice_ideal`` builds starts from them."""
    return kept(validate_reduced(p), ("saturated",), _saturated_generators, p)


def _saturated_generators(p: MonoidPresentation) -> tuple:
    # any basis of the lattice gives the same I_S; a short one saturates fast
    gens = [
        (tuple(a if a > 0 else 0 for a in gamma), tuple(-a if a < 0 else 0 for a in gamma))
        for gamma in lll_reduce(p.kernel)  # saturated_generators proved p reduced
    ]
    if not gens:
        return ()
    # kernel vectors are homogeneous for the presentation's own positive
    # weights, so saturate's checks have nothing to find; only a pass reads
    # them, so with none the pointing LP is not solved for them
    passes = _passes(gens)
    return tuple(_saturated(gens, passes, p.weights if passes else None))


def lattice_ideal(p: MonoidPresentation, order: TermOrder = GREVLEX) -> BinomialBasis:
    """Reduced Groebner basis of I_S under ``order``: one Buchberger run
    from the saturated generators (``saturated_generators``).

    Built once per order and kept on the presentation object, under the
    key ("ideal", order); the basis is immutable, so callers share it.
    An equal but distinct presentation object builds its own.
    """
    return kept(validate_reduced(p), ("ideal", order), _lattice_ideal, p, order)


def _lattice_ideal(p: MonoidPresentation, order: TermOrder) -> BinomialBasis:
    order.rows(p.n)  # raises InvalidInput for an order that does not fit
    return _reduced_basis(saturated_generators(p), order, p.n)


def minimal_generators(basis: BinomialBasis, p: MonoidPresentation) -> BinomialBasis:
    """Trim a homogeneous generating set to minimal generators, kept under
    ``basis.order``.

    Candidates are sorted by (weight of S-degree, leading key).  One pass
    walks the weight classes in ascending weight, each from its last
    position to its first, and keeps a candidate unless it lies in the
    ideal of those kept so far; the kept ones come back in sorted order.
    In a graded expression of a candidate each element is multiplied by a
    monomial of nonnegative weight, and one of weight 0 is 1 (S is
    reduced), so only lighter elements and those of the same S-degree
    enter it.  Within one S-degree the candidates are thus vectors modulo
    the ideal of the lighter ones.  Dropping, in sorted order, each
    candidate that the other survivors generate drops, by the exchange
    argument, exactly those spanned by the candidates after them; keeping
    greedily from the end keeps the same set.  By graded Nakayama the
    surviving S-degree multiset does not depend on the term order.

    The pass is one truncated Buchberger run (``_trim`` with no base)
    under the graded reverse-lex order of ``p.weights``; the candidates
    are homogeneous for those weights, so before one of weight w is
    tested the run's rules decide membership at weight w (see
    ``_truncated``).  A candidate that does not reduce to 0 is kept, and
    its remainder joins the run.  One candidate is kept with no run.
    """
    validate_reduced(p)
    order = basis.order
    elements = [b for b in basis.elements if not b.is_zero]
    for b in elements:
        if b.is_monomial:
            raise NotHomogeneous("monomials cannot appear in a lattice ideal")
        if p.evaluate(b.plus) != p.evaluate(b.minus):
            raise NotHomogeneous(f"{b.text()} is not homogeneous for the monoid grading")

    def weight(b):
        # plus is a factorization of the S-degree, so generator weights apply
        return dot(p.weights, b.plus)

    elements.sort(key=lambda b: (weight(b), order.key(b.oriented(order)[0])))
    if len(elements) > 1:
        kept = _trim((), [(b.plus, b.minus) for b in elements], p)
        elements = [elements[i] for i in kept]
    return BinomialBasis(tuple(elements), order, groebner=False)


def _trim(base, candidates, p: MonoidPresentation) -> list[int]:
    """The indices, ascending, of the ``candidates`` kept by one truncated
    Buchberger run (``_truncated``) from ``base``: the candidates are
    tested each weight class from its last position to its first, and one
    is kept, joining the run, unless the ideal of ``base`` and of the
    candidates kept so far holds it (see ``minimal_generators``).  Both
    are pairs (a, b) for x^a - x^b, b None for a monomial, homogeneous
    for ``p.weights``; the candidates may come in any order, since they
    are tested by weight."""
    ws = [dot(p.weights, a) for a, _ in candidates]
    tested = sorted(range(len(ws)), key=lambda i: (ws[i], -i))

    def work(holds):
        return sorted(i for i in tested if not holds(ws[i], *candidates[i], True))

    return _truncated(base, p, work, candidates)


def _truncated(base, p: MonoidPresentation, work, fit=()):
    """``work(holds)`` beside one Buchberger run (``_engine``) under the
    graded reverse-lex order of ``p.weights``, from the pairs ``base`` (a,
    b) for x^a - x^b, b None for a monomial, homogeneous for the weights.

    ``holds(w, a, b=None, keep=False)`` says whether x^a - x^b (x^a when
    b is None), homogeneous too and of weight w, which the caller has at
    hand, lies in the ideal of ``base`` and of the elements kept so far;
    with ``keep`` one that does not joins the run.
    ``base`` joins by weight, lightest first: before x^a is tested, every
    pair of ``base`` that weighs at most w, the weight of x^a, joins, so a
    ``work`` that asks nothing starts no run, and a heavier pair never
    joins one that asks only below it.  The ideal is homogeneous, so its
    part of weight at most w is generated by its generators of weight at
    most w, and no S-pair with a heavier element has an lcm of weight at
    most w.  Then every S-pair whose lcm weighs at most w is reduced, the
    pairs this makes as well: the heap pops the lightest lcm first, and
    every pair and remainder of homogeneous elements is homogeneous.  The
    weights are positive, so only rules of weight at most w divide a
    monomial of weight w, and the rules are then a w-truncated Groebner
    basis of the ideal: an element of weight w reduces to 0 exactly when
    the ideal holds it.  The first width holds the exponents of ``base``
    and of the pairs ``fit``, those to be asked about when they are known;
    an asked exponent past the packed fields raises ``_Overflow``, and
    ``_widening`` runs ``work`` again at a wider width."""
    weights = p.weights
    # heaviest first, so that the lightest pair yet to join is the last
    base = sorted(base, key=lambda pair: dot(weights, pair[0]), reverse=True)
    heights = [dot(weights, a) for a, _ in base]

    def run(lay, packed):
        add, complete, _ = _engine(lay, weights)
        field, pack = lay.field, lay.pack

        def holds(w, a, b=None, keep=False):
            if max(a) > field or b is not None and max(b) > field:
                raise _Overflow
            while packed and heights[len(packed) - 1] <= w:
                add(packed.pop())
            complete(w)
            return not add((pack(a), None) if b is None else _orient(pack(a), pack(b)), keep)

        return work(holds)

    return _widening(base, TermOrder._made("wgrevlex", weights), p.n, run, fit)
