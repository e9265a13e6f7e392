"""Exact integer linear algebra.

Everything here works on plain Python integers, so there is no overflow and
no rounding anywhere.  The central routine is an integer row echelon form
obtained by unimodular row operations (Euclidean pivoting); kernels
reduce to it, since they need the Z-span of the rows.
Each pivot column is cleared in one sweep: the rows live in that column
are found once, and a Euclid round hands on only the rows it left
nonzero there, since a row that reaches zero is never touched again.
A rank over Q needs no such span, so ``matrix_rank`` and ``determinant``
use fraction-free Bareiss elimination instead.  ``lll_reduce`` shortens a
lattice basis without changing the lattice.
"""

from __future__ import annotations

from .errors import InvalidInput


def row_echelon(rows: list[list[int]], pivot_cols: int | None = None):
    """Reduce ``rows`` to integer row echelon form in place-ish.

    Only columns ``< pivot_cols`` are eligible as pivots (``None`` means all).
    Returns ``(echelon_rows, pivots)`` where ``pivots`` is the list of pivot
    column indices, one per leading row.  Row operations are unimodular, so
    the Z-span of the rows is preserved.
    """
    work = [list(r) for r in rows]
    if not work:
        return [], []
    nrows, ncols = len(work), len(work[0])
    limit = ncols if pivot_cols is None else pivot_cols
    pivots = []
    top = 0
    for col in range(limit):
        # Euclid on the entries of this column below `top` until one remains;
        # a row that reaches zero there stays zero, so each round takes only
        # the rows the last one left nonzero, in index order for the stable sort
        live = [i for i in range(top, nrows) if work[i][col]]
        while len(live) > 1:
            live.sort(key=lambda i: abs(work[i][col]))
            base = work[live[0]]
            b = base[col]
            for i in live[1:]:
                row = work[i]
                q = row[col] // b  # nonzero: |row[col]| >= |b|
                work[i] = [x - q * y for x, y in zip(row, base)]
            live = sorted(i for i in live if work[i][col])
        if not live:
            continue
        i = live[0]
        work[top], work[i] = work[i], work[top]
        if work[top][col] < 0:
            work[top] = [-a for a in work[top]]
        pivots.append(col)
        top += 1
        if top == nrows:  # every row holds a pivot
            break
    # Drop all-zero rows beyond the echelon body only when every column was
    # eligible; with restricted pivots the tail rows carry information.
    if pivot_cols is None:
        work = work[:top]
    return work, pivots


def _bareiss(rows) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of the rows: their rank over Q
    and the last pivot, signed by the row swaps.  After k pivots every
    entry below them is a (k+1)-minor of the input (Sylvester's identity),
    so each update divides exactly by the previous pivot, and the last
    pivot of a square matrix of full rank is its determinant."""
    work = [list(r) for r in rows]
    nrows = len(work)
    rank, prev, sign = 0, 1, 1
    for col in range(len(work[0]) if work else 0):
        for i in range(rank, nrows):
            if work[i][col]:
                break
        else:
            continue
        pivot_row = work[i]
        if i != rank:
            work[i] = work[rank]
            work[rank] = pivot_row
            sign = -sign
        pivot = pivot_row[col]
        for i in range(rank + 1, nrows):
            row = work[i]
            f = row[col]
            work[i] = [(x * pivot - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
        rank += 1
        if rank == nrows:  # every row holds a pivot
            break
    return rank, sign * prev


def matrix_rank(rows) -> int:
    """Rank over Q (see _bareiss)."""
    return _bareiss(rows)[0]


def kernel_basis(rows) -> list[list[int]]:
    """Z-basis of {x : M x = 0} for the integer matrix with the given rows.

    Standard transpose-augmentation: echelonize [M^T | I] pivoting only on
    the M^T block; rows whose head vanishes have tails spanning the kernel
    lattice.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return []
    nrows = len(rows)
    ncols = len(rows[0])
    aug = [
        list(column) + [0] * j + [1] + [0] * (ncols - j - 1)
        for j, column in enumerate(zip(*rows))
    ]
    ech, pivots = row_echelon(aug, pivot_cols=nrows)
    tails = [r[nrows:] for r in ech if not any(r[:nrows])]
    basis, _ = row_echelon(tails)
    return basis


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def determinant(rows) -> int:
    """Determinant of a square integer matrix: the last Bareiss pivot at
    full rank, else 0."""
    rank, pivot = _bareiss(rows)
    return pivot if rank == len(rows) else 0


def adjugate(rows) -> list[list[int]]:
    """The integer adjugate of a square matrix M, so M adj(M) = det(M) I:
    entry (i, j) is (-1)^(i+j) times the minor of M without row j and
    column i."""
    n = len(rows)
    return [
        [
            (-1) ** (i + j)
            * determinant([r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def lll_reduce(basis) -> list[list[int]]:
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by ``basis``.

    Integral LLL of Cohen, *A Course in Computational Algebraic Number
    Theory*, Alg. 2.6.7: the Gram-Schmidt data is kept as the integers
    d_i (Gram determinants) and lambda_kj = d_j mu_kj, so every division
    is exact.  Every step is unimodular, so the output spans the same
    lattice.  Inputs of 0 or 1 rows come back unchanged, as lists; rows
    that are linearly dependent raise ``InvalidInput``.
    """
    b = [list(r) for r in basis]
    n = len(b)
    if n <= 1:
        return b
    d = [1, dot(b[0], b[0])] + [0] * (n - 1)  # d[i + 1] belongs to row i
    lam = [[0] * n for _ in range(n)]

    def red(k, l):
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) <= dl:
            return
        q = (2 * lam[k][l] + dl) // (2 * dl)  # nearest integer to lam / d
        b[k] = [x - q * y for x, y in zip(b[k], b[l])]
        lam[k][l] -= q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lm = lam[k][k - 1]
        big = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lm * t) // d[k]
            lam[i][k - 1] = (big * t + lm * lam[i][k]) // d[k + 1]
        d[k] = big

    if d[1] == 0:
        raise InvalidInput("lll_reduce needs linearly independent rows")
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = dot(b[k], b[j])
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise InvalidInput("lll_reduce needs linearly independent rows")
                else:
                    d[k + 1] = u
        red(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return b
