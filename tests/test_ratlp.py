"""The integer-only cone LPs, pinned against a Fraction simplex."""

import json
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from monofact import cli
from monofact.ratlp import positive_functional, solve_nonneg, zero_combination


def _fraction_solve_nonneg(rows, rhs):
    # the dense phase-1 Bland tableau over Fraction that the integer
    # solver replaces; the same pivots must give the same basic solution
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
        art = [Fraction(int(k == i)) for k in range(m)]
        tab.append(r + art + [b])
    basis = list(range(n, n + m))
    total = n + m
    while True:
        score = [sum(tab[i][j] for i in range(m) if basis[i] >= n) for j in range(n)]
        enter = next((j for j in range(n) if score[j] > 0), None)
        if enter is None:
            break
        leave = best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][total] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
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


def _fraction_positive_functional(vecs):
    dim, k = len(vecs[0]), len(vecs)
    rows = [list(v) + [-a for a in v] + [-int(i == r) for i in range(k)] for r, v in enumerate(vecs)]
    sol = _fraction_solve_nonneg(rows, [1] * k)
    if sol is None:
        return None
    w = [sol[j] - sol[dim + j] for j in range(dim)]
    denom = lcm(*[f.denominator for f in w])
    return [int(f * denom) for f in w]


def _fraction_zero_combination(vecs):
    rows = [[v[d] for v in vecs] for d in range(len(vecs[0]))] + [[1] * len(vecs)]
    sol = _fraction_solve_nonneg(rows, [0] * len(vecs[0]) + [1])
    if sol is None:
        return None
    denom = lcm(*[f.denominator for f in sol])
    out = [int(f * denom) for f in sol]
    g = gcd(*out)
    return [a // g for a in out]


_entries = st.integers(-40, 40)


@st.composite
def _systems(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(_entries, min_size=m, max_size=m))
    return rows, rhs


@st.composite
def _vector_lists(draw):
    dim = draw(st.integers(1, 5))
    return draw(st.lists(st.lists(_entries, min_size=dim, max_size=dim), min_size=1, max_size=7))


@given(_systems())
@settings(max_examples=400, deadline=None)
def test_solve_nonneg_matches_the_fraction_simplex(system):
    rows, rhs = system
    want = _fraction_solve_nonneg(rows, rhs)
    got = solve_nonneg(rows, rhs)
    if want is None:
        assert got is None
        return
    x, d = got
    assert d >= 1
    assert [Fraction(a, d) for a in x] == want


def test_solve_nonneg_reports_infeasible_and_fractional_systems():
    assert solve_nonneg([[1, 1]], [-1]) is None
    x, d = solve_nonneg([[2, 4], [3, 1]], [5, 5])
    assert [Fraction(a, d) for a in x] == [Fraction(3, 2), Fraction(1, 2)]


@given(_vector_lists())
@settings(max_examples=300, deadline=None)
def test_cone_lps_match_the_fraction_references(vecs):
    w = positive_functional(vecs)
    assert w == _fraction_positive_functional(vecs)
    c = zero_combination(vecs)
    assert c == _fraction_zero_combination(vecs)
    # a cone is pointed exactly when no nonzero nonnegative combination vanishes
    assert (w is None) == (c is not None)


@pytest.mark.parametrize(
    "spec, pointing, weights",
    [
        ({"numerical": [3, 5, 7]}, [1], [3, 5, 7]),
        ({"rank": 1, "torsion": [2], "generators": [[2, 0], [3, 1], [4, 1]]}, [1], [2, 3, 4]),
        (
            {"rank": 2, "torsion": [], "generators": [[0, 2], [1, 2], [1, 1], [3, 2], [4, 2]]},
            [-1, 3],
            [6, 5, 2, 3, 2],
        ),
        (
            {
                "rank": 3,
                "torsion": [4],
                "generators": [[5, -2, 1, 1], [-3, 4, 2, 3], [1, 1, -1, 0], [2, 0, 3, 2]],
            },
            [15, 19, 1],
            [38, 33, 33, 33],
        ),
    ],
    ids=["3-5-7", "torsion", "rank2", "rank3-torsion"],
)
def test_validate_pointing_payloads_are_unchanged(capsys, spec, pointing, weights):
    assert cli.main(["validate", "--input", json.dumps(spec)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["pointing"], out["weights"]) == (pointing, weights)


def test_importing_monofact_loads_no_fractions():
    src = str(Path(__file__).resolve().parent.parent / "src")
    # the CLI starts a fresh interpreter per request, so what it imports is paid every time
    cases = (("monofact", ("fractions",)), ("monofact.cli", ("dataclasses", "inspect")))
    for module, absent in cases:
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            f"print([m for m in {absent!r} if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout == "[]\n", module
