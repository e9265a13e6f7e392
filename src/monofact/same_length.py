"""The sets T_S and L_S and friends.

T_S collects the elements with two distinct factorizations, L_S those with
two distinct factorizations of the same length.  Both are monoid ideals
when nonempty: T_S is generated by the S-degrees of any binomial
generating set of I_S, and L_S, the projection of T_{S~} for the
homogenized monoid S~ = <(a_i, 1)> whose extra coordinate tracks length,
by the S-degrees of any generating set of I_{S~}.  Each is read off the
saturated generators kept on its presentation
(``ideal.saturated_generators`` of S and of S~ = ``p.lift``), so neither
waits for a final Buchberger run.  Both are trimmed as monoid ideals of
S by the truncated Buchberger run that trims minimal binomial generators
(``ideal._trim``): d lies in e + S exactly when x^{f_d} lies in
I_S + <x^{f_e}>, f_d and f_e any factorizations, so the saturated
generators of I_S join the run as its weight reaches them, and one
monomial per degree is tested, with no factorization search.  The
``closed_forms`` formulas are checked by that same trim of their
degrees, and the equal catenary degree (``catenary.ceq``) is read off
that same trim of the saturated generators of S~.  Each trimming of
degrees is kept on the presentation too, so every reader of L_S shares
one; minimal binomial generators serve only the ``--minimal`` payloads
and the c_eq witness of ``oracle.check``.  S~ is built only when its
kernel is nonzero.  The rank of ker S~ shows in the kernel basis B of S: it is
len(B), less 1 when some row of B has a nonzero sum
(``_lift_kernel_is_zero``).  When it is 0, L_S is empty, c_eq is 0 and
no lift, saturation or basis of S~ is built.  The complement S \\ L_S
is the Apery set of S relative to the L_S generators, walked through
the staircase machinery.
F_2l needs no staircase: with w_r the least element of a numerical S
congruent to r modulo its smallest generator a, the table behind the
gaps, x lies in L_S iff x >= m_{x mod a}, m_r = min_g (g + w_{(r - g) mod a})
over the L_S generators g.

None of T_S, L_S and F_2l depends on a term order: the first two are
ideals of S and the third is read off L_S.  Their functions take no
order.  Nor do the witness factorizations of the L_S generators need
one: all factorizations of one degree give the same Apery ideal
J = I_S + <x^beta>.  The order matters only for which monomials a
truncated ``l_set_complement`` keeps, so only it takes one.
"""

from __future__ import annotations

from math import gcd

from ._frozen import Frozen, kept
from .apery import AperyResult, apery_set
from .errors import BudgetExceeded, CrossCheckError, EmptyLSet
from .errors import InvalidInput, UndefinedForN2
from .ideal import _trim, saturated_generators
from .monoid import (
    _LISTING_CAP,
    GroupElement,
    MonoidPresentation,
    _integers,
    primitive,
    validate_reduced,
)
from .orders import GREVLEX, TermOrder


class MonoidIdeal(Frozen):
    """The ideal (b_1 + S) ∪ ... ∪ (b_s + S) of a monoid S."""

    __slots__ = ("presentation", "generators", "minimalized")
    presentation: MonoidPresentation
    generators: tuple[GroupElement, ...]
    minimalized: bool

    def __init__(self, presentation, generators, minimalized=False):
        if not generators:
            raise InvalidInput("a monoid ideal needs at least one generator")
        if any(g.is_zero for g in generators):
            raise InvalidInput("ideal generators must be nonzero")
        super().__init__(presentation, generators, minimalized)

    @property
    def is_principal(self) -> bool:
        return len(self.generators) == 1

    def to_data(self):
        return {
            "generators": [g.to_data() for g in self.generators],
            "minimalized": self.minimalized,
        }


def _minimalize_degrees(p: MonoidPresentation, witnesses: dict) -> dict:
    """Keep the degrees (keys of ``witnesses``, each mapped to one of its
    factorizations f_d) that do not lie in another degree plus S, ascending
    by weight.  d lies in e + S exactly when x^{f_d} lies in the Apery
    ideal I_S + <x^{f_e}>, whatever factorizations are picked, so one
    truncated Buchberger run trims them all (``ideal._trim``): the
    saturated generators of I_S join it as its weight reaches theirs, the
    monomials x^{f_d} are tested in ascending weight, and a degree is kept
    when its monomial does not reduce to 0 modulo I_S and the monomials
    kept before it.  Absorption
    only happens from strictly smaller weight, so the order within one
    weight does not matter.  One degree is kept as it is, with no weight
    read and no I_S built.
    """
    if len(witnesses) < 2:
        return witnesses
    ascending = sorted(witnesses, key=lambda d: (p.weight_of(d), d.sort_key()))
    kept = _trim(saturated_generators(p), [(witnesses[d], None) for d in ascending], p)
    return {ascending[i]: witnesses[ascending[i]] for i in kept}


def _lift_kernel_is_zero(p: MonoidPresentation) -> bool:
    """Whether ker S~ = 0, read off the basis B of ker S with no lift
    built: ker S~ is the kernel of gamma -> sum gamma_i on ker S, of rank
    len(B) less 1 when some row of B has a nonzero sum, else len(B)."""
    b = p.kernel
    return len(b) == (1 if any(map(sum, b)) else 0)


def _degree_generators(p: MonoidPresentation, lifted: bool) -> tuple:
    """The minimal S-degrees of a binomial generating set of I_q over the
    generators of p, q = S~ (p.lift) when ``lifted`` and q = p otherwise,
    ascending by weight, each paired with a witness factorization (the
    ``plus`` of the last generator of that degree); empty when I_q = 0,
    which for q = S~ is read off the kernel of S with no lift built
    (``_lift_kernel_is_zero``).  Both read the saturated generators of
    I_q (``saturated_generators``), so T_S and L_S wait for no ordered
    basis.  Any binomial generating set would do, since the degrees are
    minimalized here (``_minimalize_degrees``, which reads I_S for either
    q once there are two degrees), and any witness would do, since all
    factorizations of one degree give the same Apery set.  Built once and
    kept on p under the key ("degrees", lifted), so every reader of L_S
    shares one trimming; the pairs are immutable."""
    return kept(p, ("degrees", lifted), _trimmed_degrees, p, lifted)


def _trimmed_degrees(p: MonoidPresentation, lifted: bool) -> tuple:
    if lifted and _lift_kernel_is_zero(validate_reduced(p)):
        return ()
    gens = saturated_generators(p.lift if lifted else p)
    witnesses = {p.evaluate(plus): plus for plus, _ in gens}
    return tuple(_minimalize_degrees(p, witnesses).items())


def t_set(p: MonoidPresentation) -> MonoidIdeal | None:
    """Generators of T_S = {x : at least two factorizations}; None when
    every element factors uniquely (I_S = 0)."""
    degrees = _degree_generators(validate_reduced(p), False)
    return MonoidIdeal(p, tuple(d for d, _ in degrees), minimalized=True) if degrees else None


def l_set(p: MonoidPresentation) -> MonoidIdeal | None:
    """Generators of L_S = {x : two distinct factorizations of equal
    length}; None when I of the homogenized monoid is zero."""
    degrees = _degree_generators(p, True)
    return MonoidIdeal(p, tuple(d for d, _ in degrees), minimalized=True) if degrees else None


def l_set_complement(
    p: MonoidPresentation,
    limit: int | None = None,
    order: TermOrder = GREVLEX,
) -> AperyResult:
    """S \\ L_S as the Apery set relative to the L_S generators, each
    with the witness factorization that trimmed it.  A finite complement
    is the same set under every order; ``order`` picks the staircase a
    truncated one is read off (see ``apery_set``)."""
    witnesses = _degree_generators(p, True)
    if not witnesses:
        raise EmptyLSet("L_S is empty; the complement is all of S")
    elements, facts = zip(*witnesses)
    return apery_set(p, elements, facts, order=order, limit=limit)


def l_set_complement_is_finite(p: MonoidPresentation) -> bool:
    """Ray criterion: finite iff every extremal ray of the cone of S
    carries two generators with equal free parts (2.a) or three
    generators (2.b).  No ideal computation involved, and extremality is
    tested only for the directions that carry neither."""
    validate_reduced(p)
    for d in p.directions:
        on_ray = [g for g in p.generators if primitive(g.free) == d]
        if len(on_ray) >= 3:
            continue
        if len(on_ray) == 2 and on_ray[0].free == on_ray[1].free:
            continue
        if p.is_extremal(d):
            return False
    return True


# The most entries of the residue table behind F_2l, one per residue modulo
# the smallest generator a: the table of <30000001, 30000003, 30000007>
# no longer fits in 2 GB of address space.
_RESIDUE_CAP = 10**7


def _apery_residues(values) -> list[int]:
    """[w_0, ..., w_{a-1}]: w_r is the least element of S = <values>
    congruent to r modulo its smallest generator a, i.e. Ap(S, a), by the
    round-robin algorithm of Boecker and Liptak (Algorithmica 48, 2007) in
    O(a n) steps for n generators.

    The table starts as that of <a> and takes in one generator v at a
    time.  Adding v splits the residues into d = gcd(a, v) cycles r, r + v,
    r + 2v, ... (mod a) of a / d residues each.  On a cycle, the new value
    at r + v is the smaller of the old one and the new value at r plus v;
    the least old value on the cycle is already final, so one walk round
    the cycle from there settles all of it.  A table of more than
    ``_RESIDUE_CAP`` entries raises BudgetExceeded before it is built."""
    vals = sorted(set(_integers(values)))
    if gcd(*vals) != 1:
        raise InvalidInput("generators must have gcd 1")
    a = vals[0]
    if a > _RESIDUE_CAP:
        raise BudgetExceeded(f"a residue table of {a} entries, more than the cap of {_RESIDUE_CAP}")
    # above every w_r, a sum of fewer than a generators other than a: among
    # a of them some nonempty subsum is a multiple of a, and dropping it
    # would leave a smaller member of the class
    top = a * vals[-1]
    w = [0] + [top] * (a - 1)
    for v in vals[1:]:
        d = gcd(a, v)
        for start in range(d):
            m = min(w[start::d])
            if m == top:  # no element of the cycle is reached yet
                continue
            r = m % a
            for _ in range(a // d - 1):
                m += v
                r = (r + v) % a
                if w[r] < m:
                    m = w[r]
                else:
                    w[r] = m
    return w


def _below_residue_bounds(bounds) -> tuple[int, ...]:
    """The x >= 0 with x < bounds[x mod len(bounds)], ascending: one
    range per residue, whose lengths are summed before anything is listed.
    More than ``_LISTING_CAP`` of them raise BudgetExceeded."""
    a = len(bounds)
    ranges = [range(r, m, a) for r, m in enumerate(bounds)]
    count = sum(map(len, ranges))
    if count > _LISTING_CAP:
        raise BudgetExceeded(f"{count} integers to list, more than the cap of {_LISTING_CAP}")
    return tuple(sorted(x for xs in ranges for x in xs))


def _outside_l_set_bounds(p: MonoidPresentation) -> tuple[int, ...]:
    """(m_0, ..., m_{a-1}) for a numerical semigroup: the x >= 0 without
    two distinct equal-length factorizations, its gaps together with
    S \\ L_S, are the x < m_{x mod a}.  The union of the g + S holds the
    x = r mod a from m_r = min_g (g + w_{(r - g) mod a}).  Built once and
    kept on p under the key ("outside",), so ``f2l`` and
    ``integers_outside_l_set`` share one Apery table."""
    return kept(validate_reduced(p), ("outside",), _built_outside_l_set_bounds, p)


def _built_outside_l_set_bounds(p: MonoidPresentation) -> tuple[int, ...]:
    if not p.is_numerical:
        raise InvalidInput("F_2l is defined for numerical semigroups")
    w = _apery_residues(g.free[0] for g in p.generators)  # also rejects gcd > 1
    if p.n <= 2:
        raise UndefinedForN2("L_S empty for n <= 2")
    ideal = l_set(p)
    if ideal is None:
        raise CrossCheckError("L_S is empty for a numerical semigroup with n >= 3")
    a = len(w)
    gens = [g.free[0] for g in ideal.generators]
    if any(w[g % a] > g for g in gens):
        raise CrossCheckError("an L_S generator lies outside S")
    return tuple(min(g + w[(r - g) % a] for g in gens) for r in range(a))


def integers_outside_l_set(p: MonoidPresentation) -> tuple[int, ...]:
    """The nonnegative integers without two distinct equal-length
    factorizations of a numerical semigroup, ascending: its gaps together
    with S \\ L_S (see ``_outside_l_set_bounds``)."""
    return _below_residue_bounds(_outside_l_set_bounds(p))


def f2l(p: MonoidPresentation) -> int:
    """F_2l: the largest integer without two distinct equal-length
    factorizations, i.e. max(Z \\ L_S) for a numerical semigroup.  Each
    m_r = r mod a, so m_r - a is the largest x = r mod a below m_r, and
    m_0 >= a keeps the largest of them nonnegative: F_2l = max m_r - a,
    with nothing listed."""
    bounds = _outside_l_set_bounds(p)
    return max(bounds) - len(bounds)
