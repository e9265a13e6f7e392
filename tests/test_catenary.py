"""Equal catenary degree: exact values, connectivity thresholds, and the bound."""

from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from monofact import catenary, ideal
from monofact.catenary import (
    _class_threshold,
    ceq,
    ceq_element_bruteforce,
    ceq_upper_bound_numerical,
)
from monofact.errors import BudgetExceeded, CapExceeded, InvalidInput, NotInMonoid
from monofact.monoid import numerical, presentation, presentation_from_data


def test_ceq_values():
    assert ceq(numerical([3, 5, 7])) == 2
    assert ceq(numerical([17, 29, 37, 47])) == 5
    assert ceq(numerical([17, 20, 23, 26, 29])) == 2
    assert ceq(numerical([3, 5])) == 0  # no equal-length relations at all


def test_ceq_element_refuses_past_the_pair_cap(monkeypatch):
    # 60 has 22 factorizations in <3, 5, 7>, in length classes that hold
    # 41 equal-length pairs; the listing itself stays under monoid's cap
    p = numerical([3, 5, 7])
    monkeypatch.setattr(catenary, "_LISTING_CAP", 41)
    assert ceq_element_bruteforce(p, 60) == 2
    monkeypatch.setattr(catenary, "_LISTING_CAP", 40)
    with pytest.raises(BudgetExceeded, match="^41 equal-length pairs to compare"):
        ceq_element_bruteforce(p, 60)


def test_ceq_bruteforce_agrees():
    p = numerical([3, 5, 7])
    assert ceq_element_bruteforce(p, 30) == 2
    p6 = numerical([17, 29, 37, 47])
    assert ceq_element_bruteforce(p6, 145) == 5
    with pytest.raises(NotInMonoid):
        ceq_element_bruteforce(p, 4)
    with pytest.raises(CapExceeded):
        ceq_element_bruteforce(p6, 145, cap=4)


def _distance(lam, nu):
    """d(lam, nu) = sum(lam_i - min(lam_i, nu_i)) for two factorizations
    of one length."""
    assert len(lam) == len(nu) and sum(lam) == sum(nu)
    return sum(x - min(x, y) for x, y in zip(lam, nu))


class _UnionFind:
    """The union-find the library's Kruskal threshold used, kept here for
    the bisection reference."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[ri] = rj
            return True
        return False


def _class_threshold_by_bisection(facs):
    """``_class_threshold`` as it was before it joined pairs by ascending
    distance, kept verbatim as the reference: a binary search over the
    sorted pairwise distances, rebuilding the union-find per probe."""
    k = len(facs)
    if k <= 1:
        return 0
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            pairs.append((_distance(facs[i], facs[j]), i, j))
    values = sorted({d for d, _, _ in pairs})

    def connected(bound):
        uf = _UnionFind(k)
        parts = k
        for d, i, j in pairs:
            if d <= bound and uf.union(i, j):
                parts -= 1
        return parts == 1

    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if connected(values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return values[lo]


@st.composite
def _equal_length_classes(draw):
    # up to 12 factorizations of one length over 1-4 generators, repeats allowed
    nvars = draw(st.integers(1, 4))
    length = draw(st.integers(0, 9))
    cuts = st.lists(st.integers(0, length), min_size=nvars - 1, max_size=nvars - 1).map(sorted)

    def composition(cut):
        bounds = [0, *cut, length]
        return tuple(b - a for a, b in zip(bounds, bounds[1:]))

    return draw(st.lists(cuts.map(composition), max_size=12))


@given(_equal_length_classes())
@settings(max_examples=200, deadline=None)
def test_class_threshold_matches_the_bisection(facs):
    assert _class_threshold(facs) == _class_threshold_by_bisection(facs)


def test_class_threshold_values():
    # the length-6 class of 30 in <3, 5, 7> is stepped through at distance 2
    assert _class_threshold([(0, 6, 0), (1, 4, 1), (2, 2, 2), (3, 0, 3)]) == 2
    assert _class_threshold([(0, 6, 0), (3, 0, 3)]) == 6
    assert _class_threshold([(1, 1)]) == _class_threshold([]) == 0


def test_upper_bound_values():
    # consecutive steps 2 and 2, divided by d = gcd(2, 4) = 2
    assert ceq_upper_bound_numerical(numerical([3, 5, 7])) == 2
    assert ceq_upper_bound_numerical(numerical([17, 29, 37, 47])) == 11
    assert ceq_upper_bound_numerical(numerical([17, 20, 23, 26, 29])) == 2


def _former_upper_bound(vals):
    # the double loop over pairs i < j of consecutive steps, divided by the
    # gcd of the differences to a_1, kept unchanged as the reference
    vals = sorted(vals)
    n = len(vals)
    d = 0
    for v in vals[1:]:
        d = gcd(d, v - vals[0])
    best = 0
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            best = max(best, vals[i + 1] - vals[i] + vals[j + 1] - vals[j])
    return best // d


@given(
    st.lists(st.integers(2, 200), min_size=3, max_size=7, unique=True).filter(
        lambda v: gcd(*v) == 1
    )
)
@settings(max_examples=200, deadline=None)
def test_upper_bound_matches_the_pairwise_loop(vals):
    # the largest sum of two steps is that of the two largest, and the
    # differences to a_1 have the gcd of the steps
    assert ceq_upper_bound_numerical(numerical(vals)) == _former_upper_bound(vals)


def test_upper_bound_preconditions():
    with pytest.raises(InvalidInput):
        ceq_upper_bound_numerical(numerical([3, 5]))
    with pytest.raises(InvalidInput):
        ceq_upper_bound_numerical(presentation(2, (), [(1, 0), (0, 1), (1, 1)]))


def test_ceq_below_bound_on_small_instances(numerical_instances):
    for p in numerical_instances[:12]:
        if p.n < 3:
            continue
        assert ceq(p) <= ceq_upper_bound_numerical(p)


@pytest.mark.parametrize(
    "data, value",
    [
        ({"numerical": [97, 98, 165, 169, 180, 193, 200]}, 68),
        ({"rank": 1, "torsion": [3], "generators": [[-4, 2], [-3, 2], [-2, 1], [-1, 1]]}, 6),
    ],
    ids=["seven-generators", "torsion"],
)
def test_ceq_builds_no_ordered_basis_and_no_minimal_generators(monkeypatch, data, value):
    # c_eq is the top total degree of the saturated generators of I_{S~}
    # that the truncated run keeps: no reduced basis of S~, no binomial trim
    def refuse(*args, **kwargs):
        raise AssertionError("ceq built an ordered basis or minimal generators")

    monkeypatch.setattr(ideal, "_lattice_ideal", refuse)
    monkeypatch.setattr(ideal, "minimal_generators", refuse)
    assert ceq(presentation_from_data(data)) == value
