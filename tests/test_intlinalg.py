"""Integral LLL: same lattice, reduced basis, typed failure.  Determinant,
adjugate and maximal minors against the Leibniz formula.  The fraction-free rank, the
echelon form and the kernel basis against frozen copies of the Euclidean
code they replaced or trimmed."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monofact.errors import InvalidInput
from monofact.ideal import kernel_lattice
from monofact.intlinalg import (
    adjugate,
    determinant,
    dot,
    kernel_basis,
    lll_reduce,
    matrix_rank,
    maximal_minors,
    row_echelon,
)
from monofact.monoid import numerical, presentation

RANK2 = presentation(2, (), [(0, 2), (1, 2), (1, 1), (3, 2), (4, 2)])
TORSION = presentation(1, (2,), [(2, 0), (3, 1), (4, 1)])
N5 = numerical([10, 13, 31, 35, 38])
N7 = numerical([30, 37, 41, 53, 61, 79, 83])


def _random_bases():
    rng = random.Random(20)
    out = []
    while len(out) < 30:
        n = rng.randint(2, 5)
        dim = rng.randint(n, 6)
        rows = [[rng.randint(-40, 40) for _ in range(dim)] for _ in range(n)]
        if matrix_rank(rows) == n:
            out.append(rows)
    return out


BASES = [[list(r) for r in kernel_lattice(p).basis] for p in (N5, N7, RANK2, TORSION)]
BASES += _random_bases()
IDS = ["kernel-5", "kernel-7", "kernel-rank2", "kernel-torsion"]
IDS += [f"random-{i}" for i in range(len(BASES) - len(IDS))]


def _lattice_contains(basis, vector):
    """Whether ``vector`` lies in the Z-span of ``basis``: reduce it along
    the echelon form of the rows, a pivot at a time."""
    ech, pivots = row_echelon([list(r) for r in basis])
    v = list(vector)
    for row, col in zip(ech, pivots):
        q, r = divmod(v[col], row[col])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _lattices_equal(basis_a, basis_b):
    return all(_lattice_contains(basis_b, v) for v in basis_a) and all(
        _lattice_contains(basis_a, v) for v in basis_b
    )


def _assert_lll_reduced(rows):
    # Gram-Schmidt over the rationals, independent of the integral
    # bookkeeping inside lll_reduce
    star, norms = [], []
    for k, b in enumerate(rows):
        v = [Fraction(x) for x in b]
        mu = []
        for j in range(k):
            m = dot(b, star[j]) / norms[j]
            mu.append(m)
            v = [x - m * y for x, y in zip(v, star[j])]
        assert all(abs(m) <= Fraction(1, 2) for m in mu), (k, mu)
        norm = dot(v, v)
        if k:
            assert norm >= (Fraction(3, 4) - mu[k - 1] ** 2) * norms[k - 1], k
        star.append(v)
        norms.append(norm)


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_lll_keeps_the_lattice_and_reduces(basis):
    reduced = lll_reduce(basis)
    assert len(reduced) == len(basis)
    assert _lattices_equal(basis, reduced)
    _assert_lll_reduced(reduced)


def test_lll_shortens_the_kernel_basis_of_a_seven_generator_semigroup():
    basis = kernel_lattice(N7).basis
    assert max(abs(a) for r in basis for a in r) == 83
    assert max(abs(a) for r in lll_reduce(basis) for a in r) <= 6


def test_lll_small_inputs_come_back_unchanged():
    assert lll_reduce([]) == []
    assert lll_reduce(((3, -4, 1),)) == [[3, -4, 1]]


@pytest.mark.parametrize(
    "rows",
    [[[1, 2, 3], [2, 4, 6]], [[0, 0], [1, 1]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]]],
    ids=["multiple", "zero-first", "sum"],
)
def test_lll_rejects_dependent_rows(rows):
    with pytest.raises(InvalidInput):
        lll_reduce(rows)


def _leibniz(rows):
    out = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        out += term
    return out


def test_determinant_and_adjugate_match_leibniz():
    rng = random.Random(7)
    cases = [[[0, 1], [1, 0]], [[0, 0, 1], [0, 2, 0], [3, 0, 0]], [[2, 4], [1, 2]], [[5]]]
    for _ in range(60):
        n = rng.randint(1, 4)
        cases.append([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
    for rows in cases:
        n = len(rows)
        det = determinant(rows)
        assert det == _leibniz(rows)
        adj = adjugate(rows)
        for i in range(n):
            for j in range(n):
                assert sum(rows[i][k] * adj[k][j] for k in range(n)) == (det if i == j else 0)


def _euclid_echelon(rows, pivot_cols=None):
    """``row_echelon`` as it was before its second scan per column and its
    repeated row lookups were dropped, kept verbatim as the reference."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    limit = ncols if pivot_cols is None else pivot_cols
    pivots = []
    top = 0
    for col in range(limit):
        while True:
            live = [i for i in range(top, len(work)) if work[i][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(work[i][col]))
            base = live[0]
            for i in live[1:]:
                q = work[i][col] // work[base][col]
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[base])]
        live = [i for i in range(top, len(work)) if work[i][col] != 0]
        if not live:
            continue
        i = live[0]
        work[top], work[i] = work[i], work[top]
        if work[top][col] < 0:
            work[top] = [-a for a in work[top]]
        pivots.append(col)
        top += 1
    if pivot_cols is None:
        work = work[:top]
    return work, pivots


def _euclid_rank(rows):
    """``matrix_rank`` as it was: the pivot count of the Euclidean echelon."""
    return len(_euclid_echelon([list(r) for r in rows])[1])


def _euclid_kernel(rows):
    """``kernel_basis`` as it was, on the frozen echelon."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    nrows, ncols = len(rows), len(rows[0])
    aug = [[rows[i][j] for i in range(nrows)] + [int(k == j) for k in range(ncols)] for j in range(ncols)]
    ech, _ = _euclid_echelon(aug, pivot_cols=nrows)
    tails = [r[nrows:] for r in ech if all(a == 0 for a in r[:nrows])]
    return _euclid_echelon(tails)[0]


@st.composite
def _matrices(draw, entries=st.integers(-9, 9)):
    # 0-5 rows of 1-6 columns; some rows are combinations of earlier ones
    # and some columns are zero, so ranks below full come up often
    ncols = draw(st.integers(1, 6))
    zero = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if rows and draw(st.booleans()):
            cs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(cs, rows)) for j in range(ncols)])
        else:
            rows.append([0 if j in zero else draw(entries) for j in range(ncols)])
    return rows


_LARGE = st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30))


@example([])
@example([[0, 0, 0], [0, 0, 0]])
@example([[2, 4], [1, 2], [3, 7]])
@example([[10**40, 3], [10**40 + 1, 3], [1, 0]])
@given(st.one_of(_matrices(), _matrices(_LARGE)))
@settings(max_examples=300, deadline=None)
def test_bareiss_rank_matches_the_euclidean_echelon(rows):
    assert matrix_rank(rows) == _euclid_rank(rows)


@example([], None)
@example([[0, 4, 6], [0, 6, 9], [0, -2, 3]], None)
@example([[3, 5, 1, 0], [7, 2, 0, 1]], 2)
@given(st.one_of(_matrices(), _matrices(_LARGE)), st.one_of(st.none(), st.integers(0, 6)))
@settings(max_examples=300, deadline=None)
def test_row_echelon_and_kernel_match_frozen_copies(rows, pivot_cols):
    if rows and pivot_cols is not None:
        pivot_cols = min(pivot_cols, len(rows[0]))
    assert row_echelon(rows, pivot_cols) == _euclid_echelon(rows, pivot_cols)
    assert kernel_basis(rows) == _euclid_kernel(rows)


@st.composite
def _wide_matrices(draw):
    # k rows of length k + 1, entries small or huge, some rows dependent
    k = draw(st.integers(0, 4))
    entries = draw(st.sampled_from([st.integers(-6, 6), _LARGE]))
    rows = []
    for _ in range(k):
        if rows and draw(st.booleans()):
            c = draw(st.integers(-3, 3))
            rows.append([c * a for a in draw(st.sampled_from(rows))])
        else:
            rows.append(draw(st.lists(entries, min_size=k + 1, max_size=k + 1)))
    return rows


@example([])
@example([[3, 5]])
@example([[1, 2, 3], [2, 4, 6]])
@given(_wide_matrices())
@settings(max_examples=300, deadline=None)
def test_maximal_minors_match_leibniz_and_annihilate_the_rows(rows):
    # the perpendicular and the cross product are the general formula
    # written out; every row is orthogonal to the minors, and they vanish
    # exactly when the rows are dependent
    v = maximal_minors(rows)
    assert v == [
        (-1) ** i * _leibniz([r[:i] + r[i + 1 :] for r in rows]) for i in range(len(rows) + 1)
    ]
    assert all(dot(r, v) == 0 for r in rows)
    assert any(v) == (matrix_rank(rows) == len(rows))
