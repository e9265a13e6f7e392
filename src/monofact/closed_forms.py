"""Closed-form L_S and c_eq for structured numerical semigroups.

Three families admit explicit answers: arithmetic sequences (the
homogenized ideal is the rational normal curve ideal), almost arithmetic
sequences (one extra generator b), and shifted families b + t*m_i whose
m_i are built from pairwise coprime moduli.  The formulas rest on
presentation transforms that keep the homogenized ideal fixed, which
``normalized_presentation_transforms`` applies.

Each L_S formula gives its generators as factorizations, and its
published generators are their degrees.  Every formula operation accepts
verified=True to check the answer against the engine and raise
CrossCheckError on disagreement.  For L_S the formula's degrees are
trimmed by the truncated engine run that trims L_S
(``same_length._minimalize_degrees``) and the kept set is compared with
the generators of ``l_set``: in a reduced S two monoid ideals are equal
exactly when their minimal generating sets are, so the check is exact
and searches no factorization.  The almost-arithmetic c_eq has no such
operation, since the published closed form itself is suspect:
ceq_almost_arithmetic_report lays out both formula variants next to the
engine value.
"""

from __future__ import annotations

from math import gcd, prod

from ._frozen import Frozen, kept
from .catenary import ceq
from .errors import CrossCheckError, HypothesisViolated, InvalidInput, InvalidScalar
from .monoid import GroupElement, MonoidPresentation, _integer, _integers, is_minimal_generating
from .monoid import numerical, presentation
from .same_length import MonoidIdeal, _minimalize_degrees, l_set


def _factorization(gens, terms: dict) -> tuple[int, ...]:
    # the coefficients of sum c*g over the items g: c of terms, g among gens
    return tuple(terms.get(g, 0) for g in gens)


def _h_block(gens, arith) -> list[tuple[int, ...]]:
    # the curve-relation block 2m1 + lambda*e, lambda in [2, 2n-4], as
    # a_i + a_j over the arithmetic terms, i = min(lambda, n-1), j = lambda - i
    top = len(arith) - 1
    return [
        _factorization(gens, {arith[min(lam, top)]: 1, arith[max(lam - top, 0)]: 1})
        for lam in range(2, 2 * top - 1)
    ]


class _NumericalFamily:
    """A family object with ``generators``, whose presentation is built
    once and kept on the object: the formulas, their verification and the
    engine read the ideals of one presentation."""

    __slots__ = ("__dict__",)

    def presentation(self) -> MonoidPresentation:
        return kept(self, ("presentation",), numerical, self.generators)


class ArithmeticFamily(Frozen, _NumericalFamily):
    """m1, m1+e, ..., m1+(n-1)e with gcd(m1, e) = 1."""

    __slots__ = ("m1", "e", "n")
    m1: int
    e: int
    n: int

    def __init__(self, m1, e, n):
        m1, e, n = _integers((m1, e, n))
        if min(m1, e, n) <= 0:
            raise InvalidInput("m1, e and n must be positive")
        if n < 2:
            raise HypothesisViolated("an arithmetic family needs n >= 2 terms")
        if gcd(m1, e) != 1:
            raise HypothesisViolated("gcd(m1, e) must be 1")
        super().__init__(m1, e, n)

    @property
    def generators(self) -> tuple[int, ...]:
        return tuple(self.m1 + i * self.e for i in range(self.n))


class AlmostArithmeticFamily(Frozen, _NumericalFamily):
    """Arithmetic part m1..m1+(n-1)e plus one extra generator b."""

    __slots__ = ("m1", "e", "n", "b")
    m1: int
    e: int
    n: int
    b: int

    def __init__(self, m1, e, n, b):
        m1, e, n, b = _integers((m1, e, n, b))
        if min(m1, e, n, b) <= 0:
            raise InvalidInput("m1, e, n and b must be positive")
        if n < 2:
            raise HypothesisViolated("the arithmetic part needs n >= 2 terms")
        if gcd(m1, e) != 1:
            raise HypothesisViolated("gcd(m1, e) must be 1")
        super().__init__(m1, e, n, b)
        if self.b in self.arithmetic_part:
            raise HypothesisViolated("b coincides with an arithmetic term")
        if not is_minimal_generating(self.presentation()):
            raise HypothesisViolated("generator set is not minimal")

    @property
    def arithmetic_part(self) -> tuple[int, ...]:
        return tuple(self.m1 + i * self.e for i in range(self.n))

    @property
    def generators(self) -> tuple[int, ...]:
        return tuple(sorted(self.arithmetic_part + (self.b,)))

    # notation of the source results: extremes of the whole sequence,
    # the gcd d, and the box count beta
    @property
    def M(self) -> int:
        return max(self.generators)

    @property
    def m(self) -> int:
        return min(self.generators)

    @property
    def d(self) -> int:
        return gcd(self.b - self.m1, self.e)

    @property
    def beta(self) -> int:
        return (self.M - self.m - self.d) // (self.d * (self.n - 1))


class UniqueBettiShiftFamily(Frozen, _NumericalFamily):
    """S = <b, b+t*m_1, ..., b+t*m_n> with m_i = f_i * prod(c_j, j != i).

    The c_i are pairwise coprime and strictly decreasing (only the last
    may be 1, which covers the three-generated reduction), f_n = 1, and
    f_i * c_n < c_i keeps m_n largest.
    """

    __slots__ = ("b", "t", "c", "f")
    b: int
    t: int
    c: tuple[int, ...]
    f: tuple[int, ...] | None

    def __init__(self, b, t, c, f=None):
        b, t, c = _integer(b), _integer(t), _integers(c)
        n = len(c)
        f = (1,) * (n - 1) if f is None else _integers(f)
        if min(b, t, *c, *f) <= 0:
            raise InvalidInput("b, t and every c_i and f_i must be positive")
        if n < 2:
            raise HypothesisViolated("need at least two moduli c_i")
        if any(c[i] <= c[i + 1] for i in range(n - 1)):
            raise HypothesisViolated("moduli must decrease strictly")
        for i in range(n):
            for j in range(i + 1, n):
                if gcd(c[i], c[j]) != 1:
                    raise HypothesisViolated(
                        f"(a) c_{i + 1} and c_{j + 1} are not coprime"
                    )
        if len(f) != n - 1:
            raise InvalidInput("need one multiplier f_i per index 1..n-1")
        for i in range(n - 1):
            if gcd(f[i], c[i]) != 1:
                raise HypothesisViolated(f"(b) gcd(f_{i + 1}, c_{i + 1}) != 1")
            if f[i] * c[-1] >= c[i]:
                # equivalent to m_n > m_i
                raise HypothesisViolated(f"(c) m_{i + 1} is not below m_{len(c)}")
        if gcd(b, t) != 1:
            raise HypothesisViolated("gcd(b, t) must be 1 to stay numerical")
        super().__init__(b, t, c, f)
        if not is_minimal_generating(self.presentation()):
            raise HypothesisViolated("generator set is not minimal")

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def multipliers(self) -> tuple[int, ...]:
        # f_1..f_n with the structural f_n = 1
        return tuple(self.f) + (1,)

    @property
    def m_values(self) -> tuple[int, ...]:
        fs = self.multipliers
        total = prod(self.c)
        return tuple(fs[i] * (total // self.c[i]) for i in range(self.n))

    @property
    def generators(self) -> tuple[int, ...]:
        return (self.b,) + tuple(self.b + self.t * m for m in self.m_values)


def _formula_ideal(tag, p, facts, verified, trimmed=False) -> MonoidIdeal | None:
    """The monoid ideal generated by the degrees of the factorizations
    ``facts``, ascending, or None when there are none; with ``trimmed``
    its minimal generators, as ``_minimalize_degrees`` keeps them.  With
    ``verified`` that trim of the degrees must keep the generators of
    ``l_set(p)``, or CrossCheckError is raised."""
    degrees = {p.evaluate(f): f for f in facts}
    kept = _minimalize_degrees(p, degrees) if trimmed or verified else degrees
    result = None
    if degrees:
        gens = tuple(kept) if trimmed else tuple(sorted(degrees, key=GroupElement.sort_key))
        result = MonoidIdeal(p, gens, minimalized=trimmed)
    if verified:
        engine = l_set(p)
        if (result is None) != (engine is None):
            raise CrossCheckError(f"{tag}: formula and engine disagree on emptiness")
        if result is not None and set(kept) != set(engine.generators):
            raise CrossCheckError(
                f"{tag}: formula generators "
                f"{[g.to_data() for g in result.generators]} and engine generators "
                f"{[g.to_data() for g in engine.generators]} span different ideals"
            )
    return result


def lset_arithmetic(f: ArithmeticFamily, verified: bool = False):
    """L_S = {2m1 + lambda*e : 2 <= lambda <= 2n-4} + S; empty for n <= 2."""
    facts = _h_block(f.generators, f.generators)
    return _formula_ideal("lset_arithmetic", f.presentation(), facts, verified)


def lset_almost_arithmetic(f: AlmostArithmeticFamily, verified: bool = False) -> MonoidIdeal:
    """The case formula: H plus extras decided by where b sits, with a_k
    the arithmetic terms: (beta+1) a_0 and beta a_0 + a_1 when b = m,
    (beta+1) a_{n-1} and beta a_{n-1} + a_{n-2} when b = M (the second
    only when d(n-1) does not divide M - m), else (e/d) b.

    The returned family is the published one; it generates L_S but is not
    always minimal (the engine's l_set trims it further when some extra
    already lies in H + S).
    """
    gens, arith, beta = f.generators, f.arithmetic_part, f.beta
    facts = _h_block(gens, arith)
    if f.b in (f.m, f.M):
        a, near = (arith[0], arith[1]) if f.b == f.m else (arith[-1], arith[-2])
        facts.append(_factorization(gens, {a: beta + 1}))
        if (f.M - f.m) % (f.d * (f.n - 1)) != 0:
            facts.append(_factorization(gens, {a: beta, near: 1}))
    else:
        facts.append(_factorization(gens, {f.b: f.e // f.d}))
    return _formula_ideal("lset_almost_arithmetic", f.presentation(), facts, verified)


def _ceq_proof_form(f: AlmostArithmeticFamily) -> int:
    if f.b in (f.m, f.M):
        return f.beta + 1
    return f.e // f.d


def _ceq_printed_form(f: AlmostArithmeticFamily) -> int:
    if f.b in (f.m, f.M):
        num = f.M - f.m - f.d - 1
        q = f.d * (f.n - 1)
        return -(-num // q)
    return f.e // f.d


def ceq_almost_arithmetic_report(f: AlmostArithmeticFamily) -> dict:
    """Both published shapes of the almost-arithmetic c_eq next to the
    engine value, as the dict ``closed-form`` prints under ``ceq_forms``.
    The two shapes differ exactly when b is m or M and d(n-1) divides
    M-m-d or M-m-d-1 (for an interior b both are e/d); the engine is
    authoritative."""
    proof, printed, engine = _ceq_proof_form(f), _ceq_printed_form(f), ceq(f.presentation())
    return {
        "proof_form": proof,
        "printed_form": printed,
        "engine": engine,
        "forms_agree": proof == printed,
        "engine_matches_proof": engine == proof,
        "engine_matches_printed": engine == printed,
    }


def lset_unique_betti_shift(f: UniqueBettiShiftFamily, verified: bool = False) -> MonoidIdeal:
    """L_S = union of c_i*(b + t*m_i) + S over i < n, minimalized.

    With all f_i = 1 the minimalization collapses the union to the single
    generator c_{n-1}*(b + t*m_{n-1})."""
    # c_i*(b + t*m_i) factors as c_i times generator i + 1
    gens = f.generators
    facts = [_factorization(gens, {gens[i + 1]: f.c[i]}) for i in range(f.n - 1)]
    return _formula_ideal("lset_unique_betti_shift", f.presentation(), facts, verified, trimmed=True)


def ceq_unique_betti_shift(f: UniqueBettiShiftFamily, verified: bool = False) -> int:
    """max c_i over i < n."""
    value = max(f.c[: f.n - 1])
    if verified:
        got = ceq(f.presentation())
        if got != value:
            raise CrossCheckError(
                f"ceq_unique_betti_shift: formula {value} vs engine {got}"
            )
    return value


def normalized_presentation_transforms(values, operations):
    """Apply ideal-preserving rewrites to a numerical generator list.

    Each operation is a (name, scalar) pair with name one of subtract,
    reflect, divide, multiply.  Subtracting lam <= min(a_i) maps the
    lifted generators (a_i, 1) to (a_i - lam, 1); reflecting at
    lam >= max(a_i) to (lam - a_i, 1); divide/multiply rescale the first
    coordinate.  None of these change the lattice ideal of the lifted
    presentation, which is what makes the closed forms above tick.
    Returns the lifted presentation <(a_i, 1)> of each stage, the
    untouched values first.
    """
    vals = _integers(values)
    if not vals or any(v <= 0 for v in vals):
        raise InvalidInput("transform input must be positive integers")
    if len(set(vals)) != len(vals):
        raise InvalidInput("transform input must be distinct")
    stages = [vals]
    for op in operations:
        try:
            name, lam = op
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed transform step {op!r}: {exc}") from None
        lam = _integer(lam)
        if name == "subtract":
            if not 0 <= lam <= min(vals):
                raise InvalidScalar(f"subtract needs 0 <= {lam} <= min of the values")
            vals = [v - lam for v in vals]
        elif name == "reflect":
            if lam < max(vals):
                raise InvalidScalar(f"reflect needs {lam} >= max of the values")
            vals = [lam - v for v in vals]
        elif name == "divide":
            if lam <= 0 or any(v % lam for v in vals):
                raise InvalidScalar(f"{lam} is not a common divisor of the values")
            vals = [v // lam for v in vals]
        elif name == "multiply":
            if lam <= 0:
                raise InvalidScalar("multiply needs a positive scalar")
            vals = [v * lam for v in vals]
        else:
            raise InvalidInput(f"unknown transform {name!r}")
        stages.append(vals)
    return [presentation(2, (), [(v, 1) for v in stage]) for stage in stages]
