"""Monomial term orders on exponent vectors, as integer matrices.

``order.rows(n)`` returns the rows of an integer matrix M, one tuple of n
entries per row.  A monomial x^e is ranked by the tuple M e, compared
lexicographically, with 1 minimal; ``order.key(exp)`` returns that tuple.
The Groebner engine packs the same rows into one int per monomial
(``ideal._Layout``), so both read one definition of each order:

  lex        the unit rows, most significant variable first
  grevlex    the all-ones row, then -e_i from the least significant
             variable to the most significant
  wgrevlex   the weight row, then the grevlex tiebreak rows
  block      the first inner order's rows on the first ``split``
             variables by significance, then the second's on the rest

``perm`` lists variable indices by significance (most significant first);
identity when omitted.  Weighted orders need strictly positive integer
weights to stay monomial orders that pack into integer fields.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from ._frozen import Frozen, init_field
from .errors import InvalidInput
from .monoid import _integer, _integers


class TermOrder(Frozen):
    # _hash is not a field: the hash of the fields, stored on first use
    __slots__ = ("kind", "weights", "perm", "split", "inner", "_hash")
    kind: str
    weights: tuple[int, ...] | None
    perm: tuple[int, ...] | None
    split: int | None
    inner: tuple["TermOrder", "TermOrder"] | None

    def __init__(self, kind, weights=None, perm=None, split=None, inner=None):
        if kind not in ("lex", "grevlex", "wgrevlex", "block"):
            raise InvalidInput(f"unknown term order kind {kind!r}")
        weights, perm = (None if v is None else _integers(v) for v in (weights, perm))
        split = None if split is None else _integer(split)
        if kind == "wgrevlex" and (not weights or min(weights) <= 0):
            raise InvalidInput("wgrevlex needs strictly positive integer weights")
        if kind == "block":
            if split is None or inner is None:
                raise InvalidInput("block order needs a split and two inner orders")
            if split < 0:
                raise InvalidInput("block split must be a nonnegative integer")
        super().__init__(kind, weights, perm, split, inner)

    @classmethod
    def _made(cls, kind, weights=None, perm=None, split=None, inner=None) -> "TermOrder":
        """An order from int tuples the library built itself, such as the
        round orders of ``ideal._saturated``: nothing is read again and
        nothing is checked."""
        self = object.__new__(cls)
        Frozen.__init__(self, kind, weights, perm, split, inner)
        return self

    def rows(self, n: int) -> tuple[tuple[int, ...], ...]:
        """The order's matrix for n variables; raises InvalidInput when the
        order does not fit n variables."""
        return _rows(self, n)

    def key(self, exp):
        return tuple(sum(map(mul, row, exp)) for row in _rows(self, len(exp)))

    def describe(self) -> str:
        if self.kind == "wgrevlex":
            return "wgrevlex:" + ",".join(str(w) for w in self.weights)
        if self.kind == "block":
            return f"block:{self.split}:{self.inner[0].describe()}:{self.inner[1].describe()}"
        return self.kind


def _order_hash(self: TermOrder) -> int:
    """The hash of the fields, computed once per object: an order keys the
    ideals kept on a presentation and the memoized layouts and matrix
    rows, and is hashed on every lookup."""
    try:
        return self._hash
    except AttributeError:
        value = hash((self.kind, self.weights, self.perm, self.split, self.inner))
        init_field(self, "_hash", value)
        return value


# Frozen.__init_subclass__ installs the field hash over any __hash__ of the
# class body, so this one goes in after the class is built
TermOrder.__hash__ = _order_hash


# a session uses a few dozen (order, n) pairs: saturation builds one order
# per variable for each presentation it sees
@lru_cache(maxsize=256)
def _rows(order: TermOrder, n: int) -> tuple[tuple[int, ...], ...]:
    if order.perm is None:
        sig = tuple(range(n))
    elif len(order.perm) != n or sorted(order.perm) != list(range(n)):
        raise InvalidInput("perm must permute the variable indices")
    else:
        sig = order.perm

    def spread(row, coords):
        out = [0] * n
        for c, i in zip(row, coords):
            out[i] = c
        return tuple(out)

    if order.kind == "lex":
        return tuple(spread((1,), (i,)) for i in sig)
    if order.kind == "block":
        k = order.split
        if k > n:
            raise InvalidInput(f"block split {k} exceeds the {n} variables")
        first, second = order.inner
        return tuple(spread(r, sig[:k]) for r in first.rows(k)) + tuple(
            spread(r, sig[k:]) for r in second.rows(n - k)
        )
    if order.kind == "grevlex":
        top = (1,) * n
    elif len(order.weights) != n:
        raise InvalidInput("weight vector length does not match variables")
    else:
        top = order.weights
    return (top,) + tuple(spread((-1,), (i,)) for i in reversed(sig))


LEX = TermOrder("lex")
GREVLEX = TermOrder("grevlex")


def lex(perm=None) -> TermOrder:
    return TermOrder("lex", perm=perm)


def grevlex(perm=None) -> TermOrder:
    return TermOrder("grevlex", perm=perm)


def wgrevlex(weights, perm=None) -> TermOrder:
    return TermOrder("wgrevlex", weights=weights, perm=perm)


def block(split: int, inner_first: TermOrder, inner_second: TermOrder, perm=None) -> TermOrder:
    return TermOrder("block", split=split, inner=(inner_first, inner_second), perm=perm)


def cheapest_last(n: int, i: int) -> tuple[int, ...]:
    """Significance permutation keeping natural order but pushing x_i last."""
    return tuple([j for j in range(n) if j != i] + [i])


def parse_order(descriptor: str | None) -> TermOrder:
    """CLI order descriptors: lex | grevlex | wgrevlex:w1,w2,... | block:k"""
    if descriptor is None or descriptor == "grevlex":
        return GREVLEX
    if descriptor == "lex":
        return LEX
    if descriptor.startswith("wgrevlex:"):
        return wgrevlex(descriptor.split(":", 1)[1].split(","))
    if descriptor.startswith("block:"):
        return block(descriptor.split(":", 1)[1], GREVLEX, GREVLEX)
    raise InvalidInput(f"unknown term order {descriptor!r}")
