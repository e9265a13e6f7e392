"""Integral LLL: same lattice, reduced basis, typed failure.  Determinant
and adjugate against the Leibniz formula."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from monofact.errors import InvalidInput
from monofact.ideal import kernel_lattice
from monofact.intlinalg import (
    adjugate,
    determinant,
    dot,
    lattices_equal,
    lll_reduce,
    matrix_rank,
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
    assert lattices_equal(basis, reduced)
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
