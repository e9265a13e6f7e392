"""Exact rational linear programming, just enough for cone geometry.

A phase-1 simplex over ``fractions.Fraction`` with Bland's rule.  Bland's
rule guarantees termination, and exact rationals make the feasibility
answers certificates rather than approximations.  Problem sizes here are a
handful of variables, so the dense tableau is fine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import CrossCheckError


def solve_nonneg(rows, rhs):
    """Find x >= 0 with (rows) x = rhs exactly.

    Returns a list of Fractions or None when infeasible.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    tab = []
    for i in range(m):
        r = [Fraction(a) for a in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            r = [-a for a in r]
            b = -b
        tab.append(r + [b])
    basis = list(range(n, n + m))  # artificial variables
    for i in range(m):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tab[i] = tab[i][:n] + art + [tab[i][n]]

    total = n + m
    while True:
        # Reduced costs for phase 1: w = sum of artificials; entering column
        # has positive column sum over rows whose basic var is artificial.
        score = [Fraction(0)] * n
        for i in range(m):
            if basis[i] >= n:
                for j in range(n):
                    score[j] += tab[i][j]
        enter = next((j for j in range(n) if score[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # Unbounded phase-1 objective cannot happen (w >= 0), but guard.
            return None
        piv = tab[leave][enter]
        tab[leave] = [a / piv for a in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        basis[leave] = enter

    if any(basis[i] >= n and tab[i][total] != 0 for i in range(m)):
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][total]
    return x


def _clear_denominators(values):
    denom = lcm(*[f.denominator for f in values]) if values else 1
    out = [int(f * denom) for f in values]
    g = 0
    for a in out:
        g = gcd(g, a)
    if g > 1:
        out = [a // g for a in out]
    return out


def nonneg_combination(vectors, target):
    """Rational c >= 0 with sum c_i v_i = target, or None."""
    if not vectors:
        return [] if all(t == 0 for t in target) else None
    dim = len(target)
    rows = [[v[d] for v in vectors] for d in range(dim)]
    return solve_nonneg(rows, list(target))


def in_cone(vectors, target) -> bool:
    return nonneg_combination(vectors, target) is not None


def positive_functional(vectors):
    """Integer w with w . v >= 1 for every v, or None (cone not pointed).

    Solved as feasibility of V(u - s) - t = 1 with u, s, t >= 0.
    """
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return []
    dim = len(vecs[0])
    rows = []
    for v in vecs:
        row = list(v) + [-a for a in v] + [0] * len(vecs)
        rows.append(row)
    for i in range(len(vecs)):
        rows[i][2 * dim + i] = -1
    sol = solve_nonneg(rows, [1] * len(vecs))
    if sol is None:
        return None
    w = [sol[j] - sol[dim + j] for j in range(dim)]
    denom = lcm(*[f.denominator for f in w]) if w else 1
    out = [int(f * denom) for f in w]
    if not all(sum(a * b for a, b in zip(out, v)) >= 1 for v in vecs):
        raise CrossCheckError("the cleared functional does not point every vector")
    return out


def zero_combination(vectors):
    """Nonzero integer c >= 0 with sum c_i v_i = 0, or None (cone pointed).

    The normalization sum c_i = 1 keeps the LP bounded; denominators are
    cleared afterwards.
    """
    vecs = [tuple(v) for v in vectors]
    if not vecs:
        return None
    dim = len(vecs[0])
    rows = [[v[d] for v in vecs] for d in range(dim)]
    rows.append([1] * len(vecs))
    sol = solve_nonneg(rows, [0] * dim + [1])
    if sol is None:
        return None
    return _clear_denominators(sol)
