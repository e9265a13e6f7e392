"""Exact rational linear programming, just enough for cone geometry.

A phase-1 simplex with Bland's rule over integers only.  The tableau is
kept as integer numerators over one positive common denominator D, the
previous pivot; by Sylvester's identity every numerator is a minor of the
input, so the integer-preserving update (Bareiss 1968, Edmonds 1967)
divides exactly.  Bland's rule guarantees termination, and exact
arithmetic makes the feasibility answers certificates rather than
approximations.  Problem sizes here are a handful of variables, so the
dense tableau is fine.
"""

from __future__ import annotations

from math import gcd

from .errors import CrossCheckError


def solve_nonneg(rows, rhs):
    """Find x >= 0 with (rows) x = rhs exactly.

    Returns ``(numerators, D)`` with x_j = numerators[j] / D and D >= 1, or
    None when infeasible.
    """
    m = len(rows)
    if m == 0:
        return [], 1
    n = len(rows[0])
    # one row per equation, rhs last, signed so that rhs >= 0; the columns
    # of the artificial variables are never read, so they are not stored
    tab = [[-a for a in r] + [-b] if b < 0 else [*r, b] for r, b in zip(rows, rhs)]
    basis = list(range(n, n + m))  # artificial variables
    D = 1
    while True:
        # phase-1 reduced costs: column sums over rows whose basic variable
        # is artificial; the entering column is the first positive one
        score = map(sum, zip(*[r for r, v in zip(tab, basis) if v >= n]))
        enter = next((j for j, s in zip(range(n), score) if s > 0), None)
        if enter is None:
            break
        # minimum ratio r[n] / r[enter], compared by cross-multiplying;
        # ties go to the lowest basic index
        leave = None
        for i, r in enumerate(tab):
            a = r[enter]
            if a > 0:
                if leave is not None:
                    c = r[n] * tab[leave][enter] - tab[leave][n] * a
                    if c > 0 or (c == 0 and basis[i] > basis[leave]):
                        continue
                leave = i
        if leave is None:
            # Unbounded phase-1 objective cannot happen (w >= 0), but guard.
            return None
        # over the new denominator piv the pivot row keeps its numerators;
        # the other rows' numerators are minors, so // D is exact
        prow = tab[leave]
        piv = prow[enter]
        for i, r in enumerate(tab):
            if i != leave:
                f = r[enter]
                tab[i] = [(a * piv - f * b) // D for a, b in zip(r, prow)]
        D = piv
        basis[leave] = enter

    if any(v >= n and r[n] != 0 for r, v in zip(tab, basis)):
        return None
    x = [0] * n
    for r, v in zip(tab, basis):
        if v < n:
            x[v] = r[n]
    return x, D


def in_cone(vectors, target) -> bool:
    """Whether some c >= 0 has sum c_i v_i = target; with no vectors,
    whether the target is zero."""
    if not vectors:
        return not any(target)
    rows = [[v[d] for v in vectors] for d in range(len(target))]
    return solve_nonneg(rows, list(target)) is not None


def positive_functional(vectors):
    """Integer w with w . v >= 1 for every v, or None (cone not pointed).

    Solved as feasibility of V(u - s) - t = 1 with u, s, t >= 0; w is the
    rational u - s scaled by the lcm of its denominators.
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
    x, D = sol
    w = [x[j] - x[dim + j] for j in range(dim)]
    g = gcd(D, *w)  # the lcm of the denominators of w / D is D / g
    out = [a // g for a in w]
    if not all(sum(a * b for a, b in zip(out, v)) >= 1 for v in vecs):
        raise CrossCheckError("the cleared functional does not point every vector")
    return out


def zero_combination(vectors):
    """Nonzero integer c >= 0 with sum c_i v_i = 0, or None (cone pointed).

    The normalization sum c_i = 1 keeps the LP bounded; the primitive
    integer multiple of the solution is returned.
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
    x = sol[0]
    g = gcd(*x)
    return [a // g for a in x]
