"""Finitely generated reduced abelian monoids and exact factorization search.

A monoid S is presented by generators a_1, ..., a_n living in Z^m + T,
where T = Z/t_1 + ... + Z/t_k is a finite torsion group.  S is *reduced*
when its only unit is 0; for these presentations that is equivalent to

  (a) no generator has zero free part, and
  (b) the cone spanned by the free parts pi(a_i) in Q^m is pointed.

When ker S has rank at most 1 its basis decides both (see
``validate_reduced``); otherwise one exact LP does.  That LP's vertex is
a *pointing vector* w in Z^m with w . pi(a_i) >= 1 for every generator,
solved the first time it is read, whatever proved S reduced.  The
integer w . pi(x) bounds the length of any factorization of x, which
makes membership and the set of all factorizations finitely searchable:
a depth-first search over exponent vectors pruned by remaining weight.
The search walks flat integer rows (free coordinates, then torsion
residues) and reduces the residues mod t_j only at the leaves.  The last
s coefficients are solved, not searched: the lightest s generators have
linearly independent free parts (s <= rank as large as they allow), so
the free equations fix those coefficients by Cramer's rule once the
others are chosen (see ``_search``).  No invariant searches: T_S, L_S,
their complements and the Apery sets decide membership in a monoid ideal
by one truncated Buchberger run (``ideal._truncated``), and the
``closed_forms`` checks trim their formulas' degrees by that run.  The
search serves ``member`` and ``all_factorizations``: a b of an Apery set
given with no factorization, ``is_minimal_generating`` (one search per
difference of two generators, on p's own search plan) and CLI
``ceq-element``.

All arithmetic is exact (Python integers only, the cone LPs included);
nothing here floats.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add, index, mul, sub

from ._frozen import Frozen, computed_once, init_field, kept
from .errors import BudgetExceeded, CrossCheckError, DimensionMismatch, InvalidInput, NotInMonoid
from .errors import NotReduced
from .intlinalg import adjugate, determinant, dot, kernel_basis, matrix_rank, maximal_minors
from .intlinalg import row_echelon
from .ratlp import in_cone, positive_functional, zero_combination

# The most items one listing holds: every factorization of one element,
# ``apery``'s Apery set of a numerical S and one b and the monomials of its
# staircase walk, ``same_length``'s integers outside L_S, the
# equal-length pairs ``catenary`` compares, and the coefficient vectors an
# ``oracle`` walk visits.  CLI f2l on <1981, 1983, 1985>
# lists 986,046 integers as 7 MB of JSON in 76 MB of RSS;
# ``same_length.f2l`` itself lists nothing; its residue table has its own
# cap, ``same_length._RESIDUE_CAP``.
_LISTING_CAP = 10**6


class GroupElement(Frozen):
    """An element of Z^m + T.  Torsion residues are kept reduced mod t_j."""

    __slots__ = ("free", "torsion", "moduli")
    free: tuple[int, ...]
    torsion: tuple[int, ...]
    moduli: tuple[int, ...]

    def __init__(self, free, torsion=(), moduli=()):
        free, torsion, moduli = _integers(free), _integers(torsion), _moduli(moduli)
        if len(torsion) != len(moduli):
            raise DimensionMismatch("torsion residue count does not match moduli")
        super().__init__(free, _reduced(torsion, moduli), moduli)

    @classmethod
    def _made(cls, free, torsion, moduli) -> "GroupElement":
        """An element from int tuples the library built itself, torsion
        already reduced: nothing is read again and nothing is checked."""
        self = object.__new__(cls)
        init_field(self, "free", free)
        init_field(self, "torsion", torsion)
        init_field(self, "moduli", moduli)
        return self

    @property
    def rank(self) -> int:
        return len(self.free)

    @property
    def is_zero(self) -> bool:
        return not (any(self.free) or any(self.torsion))

    def _check(self, other: "GroupElement"):
        if self.rank != other.rank or self.moduli != other.moduli:
            raise DimensionMismatch("elements live in different groups")

    def __add__(self, other):
        self._check(other)
        return GroupElement._made(
            tuple(map(add, self.free, other.free)),
            _reduced(map(add, self.torsion, other.torsion), self.moduli),
            self.moduli,
        )

    def __sub__(self, other):
        self._check(other)
        return GroupElement._made(
            tuple(map(sub, self.free, other.free)),
            _reduced(map(sub, self.torsion, other.torsion), self.moduli),
            self.moduli,
        )

    def sort_key(self):
        return (self.free, self.torsion)

    def to_data(self):
        """JSON shape: a bare integer for rank-1 torsion-free elements,
        otherwise the flat [free..., torsion...] list."""
        if self.rank == 1 and not self.moduli:
            return self.free[0]
        return list(self.free) + list(self.torsion)


def primitive(vector) -> tuple[int, ...]:
    g = gcd(*vector)
    if g <= 1:  # 0 for the zero vector
        return tuple(vector)
    return tuple(a // g for a in vector)


class MonoidPresentation(Frozen):
    """Generators of S inside Z^rank + T, with ``torsion`` the moduli
    (t_1, ..., t_k) of T.

    Each object proves itself reduced once, the first time
    :func:`validate_reduced` runs on it, and every operation that needs a
    reduced presentation runs it first.  That proof reads the kernel when
    rank(ker S) <= 1 decides it, and the pointing LP otherwise; the LP is
    solved anyway the first time ``pointing`` is read, by ``weights``, the
    factorization search and the CLI's ``validate``.  Minimality of the
    generating set is never silently enforced.

    The fixed geometry of S is cached on the object, each part built the
    first time it is read: the pointing (one LP), the kernel lattice, the
    length lift S~ (see :attr:`lift`), the distinct primitive
    ``directions`` of the free parts, and whether each direction is
    extremal (one cone LP per direction, and only for the directions asked
    about, see :meth:`is_extremal`).  The lattice ideals, minimal
    generators and T_S / L_S trimmings built from it are kept on the
    object too (see ``_frozen.kept``), so they live and die with it.
    """

    # __dict__ holds the computed_once values under their names and the
    # values of _frozen.kept under tuple keys; _pointed presets pointing,
    # and lift presets the kernel of S~
    __slots__ = ("rank", "torsion", "generators", "__dict__")
    rank: int
    torsion: tuple[int, ...]
    generators: tuple[GroupElement, ...]

    def __init__(self, rank, torsion, generators):
        if rank < 0:
            raise InvalidInput("rank must be nonnegative")
        if not generators:
            raise InvalidInput("at least one generator is required")
        for g in generators:
            if g.rank != rank or g.moduli != torsion:
                raise DimensionMismatch("generator shape does not match presentation")
            if g.is_zero:
                raise InvalidInput("the zero element cannot be a generator")
        super().__init__(rank, torsion, generators)

    @property
    def n(self) -> int:
        return len(self.generators)

    @property
    def is_numerical(self) -> bool:
        return self.rank == 1 and not self.torsion and all(g.free[0] > 0 for g in self.generators)

    def zero(self) -> GroupElement:
        return GroupElement._made((0,) * self.rank, (0,) * len(self.torsion), self.torsion)

    def element(self, free, torsion=()) -> GroupElement:
        x = GroupElement(free, torsion, self.torsion)
        if x.rank != self.rank:
            raise DimensionMismatch("free part has wrong length")
        return x

    def evaluate(self, coeffs) -> GroupElement:
        """The element sum(c_i a_i) of int coefficients the library built
        (exponent vectors, factorizations already read)."""
        coeffs = tuple(coeffs)
        if len(coeffs) != self.n:
            raise DimensionMismatch("coefficient vector has wrong length")
        flat = [sum(map(mul, coeffs, column)) for column in self._columns]
        rank, moduli = self.rank, self.torsion
        return GroupElement._made(tuple(flat[:rank]), _reduced(flat[rank:], moduli), moduli)

    @computed_once
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """The flat [free..., torsion...] rows of the generators, transposed:
        one tuple per coordinate, read by ``evaluate``."""
        return tuple(zip(*(g.free + g.torsion for g in self.generators)))

    @computed_once
    def pointing(self) -> tuple[int, ...]:
        """A pointing vector w, with w . pi(g) >= 1 for every generator g:
        the vertex of one LP, solved the first time it is read.  Computing
        it proves the presentation reduced.

        Raises :class:`InvalidInput` for a duplicate generator, and
        :class:`NotReduced` with a witness when S is not reduced: a
        generator whose free part vanishes, or a nonzero nonnegative
        combination of free parts summing to zero.
        """
        _refuse_duplicates(self.generators)
        for i, g in enumerate(self.generators):
            if all(a == 0 for a in g.free):
                raise NotReduced(
                    f"generator {i} lies in the torsion subgroup", generator=g
                )
        free_parts = [g.free for g in self.generators]
        w = positive_functional(free_parts)
        if w is None:
            witness = zero_combination(free_parts)
            raise NotReduced(
                "cone of free parts is not pointed", combination=tuple(witness)
            )
        return tuple(w)

    @computed_once
    def kernel(self) -> tuple[tuple[int, ...], ...]:
        """A Z-basis of ker(Z^n -> Z^rank + T), gamma -> sum gamma_i a_i,
        computed once per object.

        The rank of the free rows is taken first, and it picks the path.
        When it is n the free parts are independent, so no integer
        relation holds, torsion or not, and the kernel is () with no
        echelon.  When it is n - 1 the kernel has rank 1 and is read off
        maximal minors with no echelon (``_corank_one_kernel``).  Below
        that, torsion congruences become exact rows with one auxiliary
        unknown per modulus, and the integer kernel of the stacked matrix
        (``kernel_basis``) projects bijectively onto its first n
        coordinates.  A length lift S~ has its kernel preset by
        :attr:`lift`.
        """
        n, moduli = self.n, self.torsion
        free = [[g.free[d] for g in self.generators] for d in range(self.rank)]
        free_rank = matrix_rank(free)
        if free_rank == n:
            return ()
        if free_rank == n - 1:
            return (self._corank_one_kernel(free),)
        k = len(moduli)
        rows = [r + [0] * k for r in free]
        for j, t in enumerate(moduli):
            row = [g.torsion[j] for g in self.generators] + [0] * k
            row[n + j] = t
            rows.append(row)
        return self._checked_kernel([tuple(r[:n]) for r in kernel_basis(rows)], free_rank)

    def _corank_one_kernel(self, free) -> tuple[int, ...]:
        """The generator of ker S when the free rows ``free`` have rank
        n - 1.  The signed maximal minors of n - 1 independent free rows,
        over their gcd, give the primitive v spanning the rational kernel;
        c v lies in ker S exactly when c s_j = 0 mod t_j for the torsion
        image s_j = sum_i v_i tau_ij, so ker S is spanned by v times the
        order lcm_j t_j / gcd(t_j, s_j) of that image.  The sign makes
        the first nonzero entry positive, as ``kernel_basis`` signs its
        single row, so both paths give the same tuple.  CrossCheckError
        unless the vector is nonzero, annihilates every free row and has
        torsion image 0."""
        n, moduli = self.n, self.torsion
        picked = free if len(free) == n - 1 else _independent_rows(free, n - 1)
        v = primitive(maximal_minors(picked))
        images = [sum(map(mul, v, row)) for row in zip(*(g.torsion for g in self.generators))]
        order = lcm(*(t // gcd(t, s) for t, s in zip(moduli, images)))
        if next((a for a in v if a), 0) < 0:
            order = -order
        v = tuple(order * a for a in v)
        if (
            not any(v)
            or any(sum(map(mul, r, v)) for r in free)
            or any(order * s % t for t, s in zip(moduli, images))
        ):
            raise CrossCheckError("the maximal minors do not span the kernel")
        return v

    def _checked_kernel(self, basis, free_rank) -> tuple[tuple[int, ...], ...]:
        """``basis`` as a tuple, once its rank is checked against n minus
        ``free_rank``, the rank of the free rows."""
        if len(basis) != self.n - free_rank:
            raise CrossCheckError("kernel rank differs from n minus the rank of the free rows")
        return tuple(basis)

    @computed_once
    def _reduced(self) -> bool:
        """True once S is proved reduced; :func:`validate_reduced` reads
        it, and raises what ``pointing`` raises when S is not reduced."""
        if "pointing" not in self.__dict__:  # a pointing already read is the proof
            _refuse_duplicates(self.generators)
            # rank(ker S) >= n - rank: past rank + 1 generators the kernel cannot decide
            if self.n > self.rank + 1 or not _kernel_proves_reduced(self.kernel):
                self.pointing
        return True

    @computed_once
    def lift(self) -> "MonoidPresentation":
        """S~ = <(a_1, 1), ..., (a_n, 1)>, the length coordinate appended
        to the free part, built once :func:`validate_reduced` proves S
        reduced; that proof solves no LP when rank(ker S) <= 1 decides it.

        S~ is always reduced: the new coordinate is a pointing, so S~
        carries pointing (0, ..., 0, 1) from the start and no LP proves it;
        its generators are distinct and never torsion-only because S has
        none such.  Its kernel is preset from that of S: ker S~ is
        {gamma in ker S : sum gamma_i = 0}, so with B the basis of ker S
        and C a basis of the integer kernel of the row (sum v for v in B),
        the rows of C B are a basis of ker S~, B having independent rows.
        That basis spans the lattice of S~ built from data, not
        necessarily with the same rows.  Its rank is checked as for S.
        The rank of ker S~ is len(B), less 1 when some row of B has a
        nonzero sum, so a zero ker S~ shows in B itself: L_S and c_eq read
        it there and build no lift (``same_length._lift_kernel_is_zero``).
        """
        self._reduced  # proves S reduced, as validate_reduced does
        gens = [GroupElement._made(g.free + (1,), g.torsion, g.moduli) for g in self.generators]
        lifted = _pointed(self.rank + 1, self.torsion, tuple(gens), (0,) * self.rank + (1,))
        b = self.kernel
        lifted.__dict__["kernel"] = lifted._checked_kernel([
            tuple(sum(c * v[i] for c, v in zip(cs, b)) for i in range(self.n))
            for cs in kernel_basis([[sum(v) for v in b]])
        ], matrix_rank([[g.free[d] for g in gens] for d in range(self.rank + 1)]))
        return lifted

    @computed_once
    def weights(self) -> tuple[int, ...]:
        w = self.pointing
        return tuple(dot(w, g.free) for g in self.generators)

    @computed_once
    def _search_plan(self) -> tuple:
        """What ``_search`` reads of the generators, built once.

        ``idxs`` is the search order (weight descending, then index) and
        ``rows`` the flat [free..., torsion...] row of each generator in
        that order, ``us`` its weight.  The last ``s`` generators have
        linearly independent free parts, 1 <= s <= rank as large as
        possible.  On s picked free coordinates their s x s minor M is
        nonsingular; ``det`` = |det M| and ``adj`` is adj(M) times the sign
        of det M, its columns spread to the picked coordinates of a flat
        row and zero elsewhere, so adj r / det solves M c = y for the
        picked coordinates y of r.  ``checks`` lists every other
        coordinate as (index, modulus or 0 for a free one, the entries of
        the last s rows there).
        """
        weights = self.weights
        idxs = sorted(range(self.n), key=lambda i: (-weights[i], i))
        rows = [self.generators[i].free + self.generators[i].torsion for i in idxs]
        us = [weights[i] for i in idxs]
        frees = [self.generators[i].free for i in idxs]
        s = 1
        while s < min(self.rank, self.n) and matrix_rank(frees[-s - 1 :]) == s + 1:
            s += 1
        # row operations keep the column dependencies, so the pivot columns
        # of an echelon form are independent columns of the last s rows
        _, pick = row_echelon(frees[-s:])
        minor = [[r[k] for r in rows[-s:]] for k in pick]
        det = determinant(minor)
        adj = adjugate(minor)
        if det < 0:
            det, adj = -det, [[-a for a in r] for r in adj]
        moduli = (0,) * self.rank + self.torsion
        # spread rows let the leaf dot the remainder with no gather; for
        # rank 1 that keeps it about as cheap as dividing the remaining weight
        col = {k: j for j, k in enumerate(pick)}
        adj = [[r[col[k]] if k in col else 0 for k in range(len(moduli))] for r in adj]
        checks = [
            (k, moduli[k], [r[k] for r in rows[-s:]])
            for k in range(len(moduli))
            if k not in pick
        ]
        return idxs, rows, us, s, adj, det, checks

    @computed_once
    def directions(self) -> tuple[tuple[int, ...], ...]:
        """The distinct primitive vectors of the nonzero free parts, in
        generator order: the directions that may span extremal rays."""
        return tuple(dict.fromkeys(primitive(g.free) for g in self.generators if any(g.free)))

    def is_extremal(self, direction: tuple[int, ...]) -> bool:
        """Whether ``direction``, one of ``directions``, spans an extremal
        ray of the cone of the free parts.  One LP decides it the first
        time it is asked on this object; the answer is kept."""
        return kept(self, ("extremal", direction), _is_extremal, self.directions, direction)

    def weight_of(self, x: GroupElement) -> int:
        return dot(self.pointing, x.free)


def _integer(value) -> int:
    """An integer read from input data: an integer type other than bool,
    or a string of ASCII digits with an optional sign (the CLI's encoding
    past 64 bits).  ``int`` would read ``true`` as 1, truncate 3.5,
    Fraction(35, 2) and Decimal("17.9") to 3, 17 and 17, and read "١٧",
    "2_9" and " 37\\n" as 17, 29 and 37, so all of those are refused."""
    if isinstance(value, str):
        digits = value[1:] if value[:1] in "+-" else value
        if digits.isascii() and digits.isdigit():
            try:
                return int(value)
            except ValueError:  # more digits than int() reads
                pass
    elif not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise InvalidInput(f"expected an integer, got {value!r}")


def _is_row(values) -> bool:
    """Whether input data is a row of entries: an iterable, but neither a
    mapping nor a string, which would be read character by character
    ("357" as (3, 5, 7))."""
    return hasattr(values, "__iter__") and not isinstance(values, (str, bytes, dict))


def _integers(values) -> tuple[int, ...]:
    """A row of integers, each read by ``_integer``."""
    if not _is_row(values):
        raise InvalidInput(f"expected a list of integers, got {values!r}")
    return tuple(map(_integer, values))


def _moduli(values) -> tuple[int, ...]:
    """Torsion moduli read from input data, each by ``_integer``; all >= 2."""
    moduli = _integers(values)
    if any(t < 2 for t in moduli):
        raise InvalidInput("torsion moduli must all be >= 2")
    return moduli


def _reduced(residues, moduli) -> tuple[int, ...]:
    """Torsion residues reduced mod their moduli."""
    return tuple([r % t for r, t in zip(residues, moduli)])


def _keys(obj: dict, required: set, optional: set, what: str) -> None:
    """Refuse a JSON object with a key outside ``required`` and
    ``optional``, or without one of ``required``."""
    unknown = set(obj) - required - optional
    if unknown:
        raise InvalidInput(f"unknown {what}: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise InvalidInput(f"missing {what}: {sorted(missing)}")


def presentation(rank: int, torsion=(), generators=()) -> MonoidPresentation:
    """Build a presentation from raw integer data, not yet proved reduced.

    Each generator is a flat sequence: ``rank`` free coordinates followed by
    one residue per torsion modulus.  Entries are ints or decimal strings.
    """
    rank, moduli = _integer(rank), _moduli(torsion)
    k = len(moduli)
    gens = []
    for raw in generators:
        raw = _integers(raw)
        if len(raw) != rank + k:
            raise DimensionMismatch(
                f"generator {raw} has length {len(raw)}, expected {rank + k}"
            )
        gens.append(GroupElement._made(raw[:rank], _reduced(raw[rank:], moduli), moduli))
    return MonoidPresentation(rank, moduli, tuple(gens))


def numerical(values) -> MonoidPresentation:
    """Rank-1 torsion-free presentation from positive integers."""
    vals = _integers(values)
    if any(v <= 0 for v in vals):
        raise InvalidInput("numerical generators must be positive")
    return presentation(1, (), [(v,) for v in vals])


def presentation_from_data(obj) -> MonoidPresentation:
    """Parse the JSON input shapes.

    Accepts ``{"numerical": [a1, ...]}`` or
    ``{"rank": m, "torsion": [t1, ...], "generators": [[...], ...]}``.
    """
    if not isinstance(obj, dict):
        raise InvalidInput("presentation must be a JSON object")
    if "numerical" in obj:
        _keys(obj, {"numerical"}, set(), "presentation keys")
        vals = obj["numerical"]
        if not isinstance(vals, list) or not vals:
            raise InvalidInput("numerical presentation needs a nonempty list")
        return numerical(vals)
    _keys(obj, {"rank", "generators"}, {"torsion"}, "presentation keys")
    gens = obj["generators"]
    if not isinstance(gens, list) or not gens or not all(isinstance(g, list) for g in gens):
        raise InvalidInput("generators must be a nonempty list of lists")
    return presentation(obj["rank"], obj.get("torsion", ()), gens)


def element_from_data(p: MonoidPresentation, obj) -> GroupElement:
    """GroupElement from its serialized form.

    A bare integer (or decimal string) works for a rank-1 torsion-free
    monoid; otherwise a flat [free..., torsion...] list is expected.
    """
    if isinstance(obj, GroupElement):
        if len(obj.free) != p.rank or obj.moduli != p.torsion:
            raise DimensionMismatch("element belongs to a different ambient group")
        return obj
    k = len(p.torsion)
    if not _is_row(obj):
        if p.rank == 1 and k == 0:
            return p.element((obj,))
        raise InvalidInput("scalar element data needs a rank-1 torsion-free monoid")
    vals = tuple(obj)
    if len(vals) != p.rank + k:
        raise InvalidInput("element data has wrong length")
    return p.element(vals[: p.rank], vals[p.rank :])


def validate_reduced(p: MonoidPresentation) -> MonoidPresentation:
    """Prove the presentation reduced and return it, once per object.

    A duplicate generator raises :class:`InvalidInput` first.  Then the
    kernel decides where its rank is at most 1, with no LP.  Its rank is
    n minus the rank of the free parts (``kernel`` checks that), so
    ker S (x) Q is the kernel of the free parts over Q.  When ker S = 0
    the free parts are independent: none is zero, and their cone is
    simplicial, hence pointed.  When ker S is spanned by one gamma, every
    nonzero c >= 0 with sum c_i pi(a_i) = 0 is a rational multiple of
    gamma, and a zero free part pi(a_i) would make e_i one; so S is
    reduced exactly when gamma has a negative and a positive entry.  In
    every other case, a single-signed gamma or a kernel of rank 2 or
    more, reading ``p.pointing`` is the proof, and its errors and
    witnesses are the ones raised (see there).  A duplicate makes
    gamma = e_i - e_j, which has both signs, hence the check first.
    """
    p._reduced
    return p


def _independent_rows(rows, k) -> list:
    """The first k rows of ``rows`` that are linearly independent, each
    kept when it raises the rank of those kept before it; ``rows`` have
    rank at least k."""
    picked = []
    for r in rows:
        if matrix_rank(picked + [r]) > len(picked):
            picked.append(r)
            if len(picked) == k:
                break
    return picked


def _refuse_duplicates(generators) -> None:
    """Raise :class:`InvalidInput` for a generator listed twice."""
    seen = set()
    for g in generators:
        if (g.free, g.torsion) in seen:
            raise InvalidInput(f"duplicate generator {g.to_data()}")
        seen.add((g.free, g.torsion))


def _kernel_proves_reduced(basis) -> bool:
    """Whether a basis of ker S, no duplicate generator given, proves S
    reduced by itself: it is empty, or one row with both signs (see
    :func:`validate_reduced`)."""
    return not basis or len(basis) == 1 and min(basis[0]) < 0 < max(basis[0])


def _pointed(rank, torsion, generators, w) -> MonoidPresentation:
    """A presentation whose pointing vector ``w`` is already known: it is
    cached on the new object, so reading ``pointing`` solves no LP and runs
    none of its checks.  The caller vouches that the generators are
    distinct and that w . pi(g) >= 1 for each of them."""
    out = MonoidPresentation(rank, torsion, generators)
    out.__dict__["pointing"] = tuple(w)
    return out


def _is_extremal(prims, direction) -> bool:
    """Whether ``direction``, one of the distinct primitive vectors
    ``prims`` of a pointed cone, spans an extremal ray of their cone: it
    is not a nonnegative combination of the others."""
    return not in_cone([q for q in prims if q != direction], direction)


def uncovered_rays(p: MonoidPresentation, elements) -> tuple[tuple[int, ...], ...]:
    """The extremal rays of the cone of S that carry the free part of no
    element of ``elements``, sorted; with no elements, every extremal ray
    of the cone.  None is left exactly when the cone of B is the cone of
    S.  Only the generator directions that B leaves uncovered are tested
    for extremality, so a B that covers all of them solves no LP."""
    validate_reduced(p)
    covered = {primitive(b.free) for b in elements if any(b.free)}
    return tuple(
        sorted(d for d in p.directions if d not in covered and p.is_extremal(d))
    )


def _search(p: MonoidPresentation, x: GroupElement, find_all: bool):
    """Factorizations of x in ``p``, once ``p`` is proved reduced and x is
    checked to live in its group.  The search runs depth first over the
    flat rows (free coordinates, then torsion residues) of the generators
    in ``_search_plan`` order, with c ascending at each position.

    The last s coefficients are solved, not searched.  Their generators
    have linearly independent free parts, so once the others are fixed
    the free equations admit at most one (c_1, ..., c_s) in Q^s; the leaf
    computes it by Cramer's rule, adj(M) y / det(M) on the picked
    coordinates y of the remainder, and keeps it when it is integral,
    nonnegative and matches the other free coordinates and the torsion
    residues, reduced mod t_j there.  A kept solution matches the free
    part, so its weight is the remaining weight, and the loops it
    replaces (c ascending, up to the remaining weight) would have reached
    it.  Those loops could complete a prefix in at most this one way, so
    results come in the same order as from searching every position.
    Listing every factorization raises BudgetExceeded past
    ``_LISTING_CAP``.
    """
    total = dot(p.pointing, x.free)  # proves p reduced before x is checked
    if x.rank != p.rank or x.moduli != p.torsion:
        raise DimensionMismatch("element shape does not match presentation")
    results: list[tuple[int, ...]] = []
    if total < 0:
        return results
    idxs, rows, us, s, adj, det, checks = p._search_plan
    n = p.n
    split = n - s
    coeffs = [0] * n

    def found() -> bool:
        out = [0] * n
        for k, i in enumerate(idxs):
            out[i] = coeffs[k]
        results.append(tuple(out))
        if find_all and len(results) > _LISTING_CAP:
            raise BudgetExceeded(f"more than {_LISTING_CAP} factorizations to list")
        return not find_all

    def leaf(rem: tuple) -> bool:
        cs = []
        for arow in adj:
            c, r = divmod(sum(map(mul, arow, rem)), det)
            if r or c < 0:
                return False
            cs.append(c)
        for k, t, col in checks:
            left = rem[k] - sum(map(mul, cs, col))
            if left % t if t else left:
                return False
        coeffs[split:] = cs
        return found()

    def rec(pos: int, rem: tuple, rem_weight: int) -> bool:
        if pos == split:
            return leaf(rem)
        row = rows[pos]
        u = us[pos]
        cur = rem
        for c in range(rem_weight // u + 1):
            coeffs[pos] = c
            if rec(pos + 1, cur, rem_weight - c * u):
                return True
            cur = tuple(map(sub, cur, row))
        return False

    try:
        rec(0, x.free + x.torsion, total)
    finally:
        del rec  # rec is in its own closure: clearing that cell leaves no cycle
    return results


def member(p: MonoidPresentation, x: GroupElement):
    """Some factorization of x over the generators, its coefficient
    tuple, or None."""
    found = _search(p, x, find_all=False)
    return found[0] if found else None


def all_factorizations(p: MonoidPresentation, x: GroupElement) -> list[tuple[int, ...]]:
    """Every factorization of x, its coefficient tuples in lexicographic
    order."""
    return sorted(_search(p, x, find_all=True))


def require_member(p: MonoidPresentation, x: GroupElement) -> tuple[int, ...]:
    f = member(p, x)
    if f is None:
        raise NotInMonoid(f"{x.to_data()} is not in the monoid")
    return f


def is_minimal_generating(p: MonoidPresentation) -> bool:
    """Whether no generator lies in the monoid spanned by the others.

    In a reduced S, a_i does exactly when a_i - a_j lies in S for some
    j != i: a factorization of a_i - a_j that used a_i would leave a_j
    plus an element of S summing to 0.  So each difference is searched in
    p itself, on its one search plan, and one of negative weight returns
    at once.  The heaviest a_i, the likeliest to be redundant, are tried
    first."""
    gens, weights = p.generators, p.weights
    heaviest = sorted(range(p.n), key=lambda i: (weights[i], gens[i].sort_key()), reverse=True)
    return all(member(p, gens[i] - gens[j]) is None for i in heaviest for j in range(p.n) if j != i)
