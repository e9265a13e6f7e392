"""Equal catenary degree.

Two equal-length factorizations of the same element are joined by an
N-chain when some sequence of equal-length factorizations connects them
with consecutive distances at most N.  The equal catenary degree of the
monoid is the largest degree in a minimal homogeneous generating set of
the ideal I_{S~} of the homogenized monoid S~ = ``p.lift``; the
per-element brute force below serves as its independent witness.  It
lists every factorization of one element and, per length, takes the
least N joining all of that length by N-chains: the largest edge of a
minimum spanning tree on them.  By graded Nakayama every minimal
homogeneous generating set has the same degrees, so c_eq does not depend
on the term order, and ``ceq`` takes none: it trims the saturated
generators of I_{S~} by the truncated Buchberger run that trims T_S and
L_S (``ideal._trim``), with no ordered basis built.
"""

from __future__ import annotations

from math import gcd, inf
from operator import sub

from .errors import BudgetExceeded, CapExceeded, InvalidInput, NotInMonoid
from .ideal import _trim, saturated_generators
from .monoid import (
    _LISTING_CAP,
    MonoidPresentation,
    _integer,
    all_factorizations,
    element_from_data,
    validate_reduced,
)
from .same_length import _lift_kernel_is_zero


def ceq(p: MonoidPresentation) -> int:
    """Equal catenary degree: the largest total degree among minimal
    generators of I_{S~}; 0 when ker S~ = 0, read off the kernel of S with
    no lift built (``same_length._lift_kernel_is_zero``).  Every weight of
    S~ is 1, so ``_trim`` tests the saturated generators in ascending
    total degree and keeps a minimal generating set of them."""
    if _lift_kernel_is_zero(validate_reduced(p)):
        return 0
    lifted = p.lift
    gens = saturated_generators(lifted)
    return max((sum(gens[i][0]) for i in _trim((), gens, lifted)), default=0)


def _class_threshold(facs):
    """Smallest N making the distance-at-most-N graph on ``facs``
    connected: the largest edge of a minimum spanning tree, since a path
    through the tree minimizes the largest step between its ends (T. C.
    Hu, Oper. Res. 9, 1961).  The tree grows by Prim from the first
    factorization: each step adds the one nearest to the tree, and each
    pair is measured once, when its first end joins.  All of ``facs``
    have one length, so the distance d(lam, nu) = sum(lam_i - min(lam_i,
    nu_i)) of two of them is the positive part of their difference, the
    same either way round."""
    rest = list(facs)
    near = [0] + [inf] * (len(rest) - 1)  # distance to the tree; the first joins at 0
    best = 0
    while rest:
        j = near.index(min(near))
        best = max(best, near.pop(j))
        f = rest.pop(j)
        near = [min(e, sum([d for d in map(sub, g, f) if d > 0])) for e, g in zip(near, rest)]
    return best


def ceq_of_factorizations(facs) -> int:
    """c_eq of an element from all of its factorizations: group them by
    length and take the worst connectivity threshold over the classes.
    Each class of k compares its k(k-1)/2 pairs, so more than
    ``_LISTING_CAP`` pairs in all raise BudgetExceeded before any is
    compared."""
    classes = {}
    for f in facs:
        classes.setdefault(sum(f), []).append(f)
    pairs = sum(len(g) * (len(g) - 1) // 2 for g in classes.values())
    if pairs > _LISTING_CAP:
        raise BudgetExceeded(f"{pairs} equal-length pairs to compare, more than the cap of {_LISTING_CAP}")
    return max((_class_threshold(g) for g in classes.values() if len(g) > 1), default=0)


def ceq_element_bruteforce(p: MonoidPresentation, b, cap: int = 10**6) -> int:
    """c_eq(b) from first principles, over every factorization of b.
    CapExceeded when the answer would be larger than ``cap``, and
    BudgetExceeded when the factorizations or their equal-length pairs
    number more than ``_LISTING_CAP``, whatever ``cap`` allows."""
    cap = _integer(cap)
    validate_reduced(p)
    b = element_from_data(p, b)
    facs = all_factorizations(p, b)
    if not facs:
        raise NotInMonoid(f"{b.to_data()} is not in the monoid")
    best = ceq_of_factorizations(facs)
    if best > cap:
        raise CapExceeded(f"equal catenary degree {best} exceeds cap {cap}")
    return best


def ceq_upper_bound_numerical(p: MonoidPresentation) -> int:
    """Regularity-type bound max (a_{i+1}-a_i + a_{j+1}-a_j) / gcd of the
    differences, over pairs i < j < n of consecutive steps."""
    validate_reduced(p)
    if not p.is_numerical:
        raise InvalidInput("the bound is stated for numerical semigroups")
    vals = sorted(g.free[0] for g in p.generators)
    n = len(vals)
    if n < 3:
        raise InvalidInput("the bound needs at least three generators")
    d = 0
    for v in vals[1:]:
        d = gcd(d, v - vals[0])
    best = 0
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            best = max(best, vals[i + 1] - vals[i] + vals[j + 1] - vals[j])
    return best // d
