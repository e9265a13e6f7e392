"""Brute-force reference implementations.

Everything here recomputes answers by direct enumeration of coefficient
vectors, sharing nothing with the Groebner machinery it is used to
check.  A coefficient vector lambda has weight sum(lambda_i * u_i) with
u_i the pointing weight of the i-th generator, which equals the weight
of the element it factors; walking all vectors below a weight cap
therefore produces the complete fiber of every element below the cap.
:func:`monoid_elements` is that one walk; the brute-force L_S and T_S
read the fiber map it returns and enumerate nothing themselves.  The walk
carries each vector's degree as a flat integer row, the free coordinates
followed by the unreduced torsion residues, and builds one element per
fiber at the end.

Each walk takes its weight cap as a positive integer and counts the
vectors it visits against ``monoid._LISTING_CAP`` (10^6), the library's
one listing cap.  The fiber map of :func:`monoid_elements` stores every
vector, up to about 300 bytes each when the fibers are singletons, so
an oversized walk ends in BudgetExceeded before it exhausts memory.
The L_S and T_S checks read only the length of each vector and the
size of each fiber, so their walk keeps one length per vector.

The same map decides membership in an ideal g_1 + S u ... u g_s + S with
nonzero g_j in S: x is a member iff some x - g_j lies in S, and x - g_j
weighs less than x, so below the cap it lies in S iff it is a key of the
map (:func:`ideal_members`).

F_2l is computed with a certified scan (:func:`f2l_bruteforce`): for a
numerical semigroup, having two factorizations of one length survives
adding the smallest generator a_1, so a run of a_1 consecutive
successes proves every larger value succeeds and the largest failure
seen so far is the answer.

:func:`check` sets the engine against all of this below one weight cap.
L_S and T_S compare as sets of elements: the brute-force set against
the members of the engine's ideal.  The engine's c_eq is a degree of a
minimal generator of I_{S~}; when the cap covers the weight of one such
generator of that degree (``witness_covered``) the largest c_eq of an
element below the cap must equal it, otherwise it may only fall short.
F_2l compares with :func:`f2l_bruteforce`.  ``check`` imports the engine
inside its body, so the brute force itself loads without the Groebner
machinery.
"""

from __future__ import annotations

from operator import add, sub

from .errors import BudgetExceeded, InvalidInput, NotStabilized
from .monoid import _LISTING_CAP, GroupElement, MonoidPresentation, _integer, validate_reduced


def _weight_cap(cap) -> int:
    """The weight cap of a walk, read as an integer and refused when not
    positive."""
    cap = _integer(cap)
    if cap <= 0:
        raise InvalidInput("budget caps must be positive")
    return cap


class _Tally:
    """Counts the vectors of one walk against ``_LISTING_CAP``."""

    __slots__ = ("left",)

    def __init__(self):
        self.left = _LISTING_CAP

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("enumeration budget exhausted")


def _fiber_map(p: MonoidPresentation, weight_cap, lengths=False):
    """element -> all its factorizations, complete below the weight cap.

    The walk carries the degree of the coefficient vector as a flat row,
    the free coordinates followed by the torsion residues, and each step
    adds the generator's row.  Residues are reduced mod t_j at the leaf,
    where vectors of one element meet under one key; an element is built
    once per key, at the end.  Keys come in the order the walk first
    reaches them, and each fiber lists its vectors in walk order.

    With ``lengths`` each vector is kept as its length alone, all that
    the L_S and T_S checks read of it.
    """
    weight_cap = _weight_cap(weight_cap)
    weights = p.weights
    n = p.n
    rank, moduli = p.rank, p.torsion
    rows = [g.free + g.torsion for g in p.generators]
    tally = _Tally()
    flat: dict[tuple, list] = {}
    coeffs = [0] * n

    def rec(i, remaining, deg):
        if i == n:
            tally.tick()
            if moduli:
                deg = deg[:rank] + tuple([r % t for r, t in zip(deg[rank:], moduli)])
            flat.setdefault(deg, []).append(sum(coeffs) if lengths else tuple(coeffs))
            return
        row = rows[i]
        c = 0
        while c * weights[i] <= remaining:
            coeffs[i] = c
            rec(i + 1, remaining - c * weights[i], deg)
            deg = tuple(map(add, deg, row))
            c += 1
        coeffs[i] = 0

    try:
        rec(0, weight_cap, (0,) * (rank + len(moduli)))
    finally:
        del rec  # rec is in its own closure: clearing that cell leaves no cycle
    return {GroupElement._made(d[:rank], d[rank:], moduli): facs for d, facs in flat.items()}


def monoid_elements(p: MonoidPresentation, weight_cap):
    """element -> list of factorizations for every element of S below
    ``weight_cap``, zero included.  The fibers are complete."""
    return _fiber_map(p, weight_cap)


def lset_bruteforce(fibers):
    """The elements of a fiber map from :func:`monoid_elements` having two
    equal-length factorizations: L_S below its weight cap."""
    return {el for el, facs in fibers.items() if len({sum(f) for f in facs}) < len(facs)}


def tset_bruteforce(fibers):
    """The elements of a fiber map from :func:`monoid_elements` having two
    factorizations: T_S below its weight cap.  Only the size of each
    fiber is read, so a map of lengths (``_fiber_map``) serves too."""
    return {el for el, facs in fibers.items() if len(facs) >= 2}


def ideal_members(fibers, generators):
    """The elements x of a fiber map from :func:`monoid_elements` with
    x - g a key for some g of ``generators``.  When each g is a nonzero
    element of S these are exactly the members, below the weight cap, of
    the ideal the g generate (see the module docstring)."""
    keys = {x.free + x.torsion for x in fibers}
    gens = [(g.free, g.torsion) for g in generators]
    out = set()
    for x in fibers:
        for free, torsion in gens:
            row = tuple(map(sub, x.free, free))
            if x.moduli:
                row += tuple([(a - b) % t for a, b, t in zip(x.torsion, torsion, x.moduli)])
            if row in keys:
                out.add(x)
                break
    return out


def _has_enough(vals, b, tally) -> bool:
    """Whether b has two factorizations of one length, stopping at the
    second one found."""
    lengths = set()
    last = len(vals) - 1

    def rec(idx, remaining, length):
        v = vals[idx]
        if idx == last:
            tally.tick()
            if remaining % v:
                return False
            full = length + remaining // v
            if full in lengths:
                return True
            lengths.add(full)
            return False
        c = 0
        while c * v <= remaining:
            if rec(idx + 1, remaining - c * v, length + c):
                return True
            c += 1
        return False

    try:
        return rec(0, b, 0)
    finally:
        del rec  # rec is in its own closure: clearing that cell leaves no cycle


def f2l_bruteforce(p: MonoidPresentation, weight_cap) -> int:
    """F_2l by brute force: the largest b without two factorizations of
    one length.

    Certified by a_1 consecutive successes right above the returned
    value; NotStabilized when the weight cap runs out first.
    """
    weight_cap = _weight_cap(weight_cap)
    validate_reduced(p)
    if p.rank != 1 or p.torsion:
        raise InvalidInput("F_2l is defined for numerical semigroups")
    vals = [g.free[0] for g in p.generators]
    window = min(vals)
    unit = p.weight_of(p.element((1,)))
    b_max = weight_cap // unit
    tally = _Tally()
    last_fail = None
    streak = 0
    for b in range(b_max + 1):
        if _has_enough(vals, b, tally):
            streak += 1
            if streak == window:
                # b = 0 always fails, so a full window pins the maximum
                return last_fail
        else:
            last_fail = b
            streak = 0
    raise NotStabilized(
        f"no run of {window} successes below weight {weight_cap}"
    )


def check(p: MonoidPresentation, what: str, cap: int) -> dict:
    """The engine's answer for ``what`` (lset, tset, ceq or f) against the
    brute force below the weight ``cap``: the dict ``monofact
    oracle-check`` prints, whose "ok" is False on a disagreement (see the
    module docstring).  The engine answers before the walk starts."""
    from .catenary import ceq, ceq_of_factorizations
    from .ideal import lattice_ideal, minimal_generators
    from .same_length import f2l, l_set, t_set

    cap = _integer(cap)
    if what in ("lset", "tset"):
        ideal = l_set(p) if what == "lset" else t_set(p)
        # element -> the length of each factorization; T_S reads only their number
        fibers = _fiber_map(p, cap, lengths=True)
        if what == "lset":
            brute = {el for el, lengths in fibers.items() if len(set(lengths)) < len(lengths)}
        else:
            brute = tset_bruteforce(fibers)
        engine = set() if ideal is None else ideal_members(fibers, ideal.generators)
        missing = sorted(brute - engine, key=GroupElement.sort_key)
        extra = sorted(engine - brute, key=GroupElement.sort_key)
        return {
            "what": what, "cap": cap, "ok": not missing and not extra,
            "engine_count": len(engine), "oracle_count": len(brute),
            "missing_from_engine": [e.to_data() for e in missing],
            "extra_in_engine": [e.to_data() for e in extra],
        }
    if what == "ceq":
        engine = ceq(p)
        # the witness is the first top-degree element of the GREVLEX minimal
        # generators of I_{S~}, as oracle-check has always reported it: the
        # first or lightest top-degree pair of ceq's trim may be lighter (219
        # and 214 against 238 for <10,27,32,34,39>) and flip witness_covered
        gens = minimal_generators(lattice_ideal(p.lift), p.lift).elements
        witness = next((p.evaluate(b.plus) for b in gens if b.total_degree() == engine), None)
        # below the cap every fiber is complete, so it is all_factorizations(p, el)
        fibers = monoid_elements(p, cap)
        best = max(map(ceq_of_factorizations, fibers.values()))
        covered = witness is None or p.weight_of(witness) <= cap
        ok = best == engine if covered else best <= engine
        return {
            "what": what, "cap": cap, "ok": ok,
            "engine": engine, "oracle": best, "witness_covered": covered,
        }
    if what == "f":
        engine = f2l(p)
        oracle = f2l_bruteforce(p, cap)
        return {
            "what": what, "cap": cap, "ok": engine == oracle, "engine": engine, "oracle": oracle,
        }
    raise InvalidInput(f"no oracle check for {what!r}; expected lset, tset, ceq or f")
