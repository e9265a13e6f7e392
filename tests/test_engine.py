"""The packed Buchberger engine against a tuple reference.

``_reference_buchberger`` is the tuple engine the packed one replaced, kept
here unchanged as the reference: exponent vectors are tuples, the order is
the nested-tuple key below, divisibility is a fieldwise comparison.  The
packed engine must return the same reduced basis, element for element, and
its primitives must agree with the tuple operations they stand for.
"""

import heapq
from bisect import bisect_left, bisect_right
from operator import add as _add, le as _le, sub as _sub

import pytest
from hypothesis import given, settings, strategies as st

from monofact import ideal
from monofact.ideal import _MIN_WIDTH, Binomial, _layout, groebner, in_ideal
from monofact.orders import GREVLEX, LEX, block, grevlex, lex, wgrevlex


def _reference_key(order, exp):
    """The order as nested key tuples, as orders were defined before they
    became matrix rows."""
    n = len(exp)
    sig = tuple(range(n)) if order.perm is None else order.perm
    if order.kind == "lex":
        return tuple(exp[i] for i in sig)
    if order.kind == "grevlex":
        return (sum(exp), tuple(-exp[i] for i in reversed(sig)))
    if order.kind == "wgrevlex":
        deg = sum(w * e for w, e in zip(order.weights, exp))
        return (deg, tuple(-exp[i] for i in reversed(sig)))
    first = tuple(exp[i] for i in sig[: order.split])
    second = tuple(exp[i] for i in sig[order.split :])
    return (_reference_key(order.inner[0], first), _reference_key(order.inner[1], second))


class _Keyed:
    def __init__(self, order):
        self.order = order

    def key(self, exp):
        return _reference_key(self.order, exp)


def _orient(a, b, order):
    ka, kb = order.key(a), order.key(b)
    if ka == kb:
        return None
    return (a, b) if ka > kb else (b, a)


def _divides(a, b):
    return all(map(_le, a, b))


class _Reducers:
    def __init__(self, order):
        self.order = order
        self.keys = []
        self.rules = []

    def add(self, el):
        keys, rules = self.keys, self.rules
        lead, tail = el
        k = self.order.key(lead)
        j = bisect_left(keys, k)
        i = j
        while j < len(rules):
            if _divides(lead, rules[j][0]):
                del keys[j]
                del rules[j]
            else:
                j += 1
        delta = None if tail is None else tuple(map(_sub, tail, lead))
        keys.insert(i, k)
        rules.insert(i, (lead, tail, delta))

    def reduce_monomial(self, m):
        keys, rules = self.keys, self.rules
        keyf = self.order.key
        km = keyf(m)
        progress = True
        while progress:
            progress = False
            for idx in range(bisect_right(keys, km)):
                rule = rules[idx]
                if _divides(rule[0], m):
                    delta = rule[2]
                    if delta is None:
                        return None
                    m = tuple(map(_add, m, delta))
                    km = keyf(m)
                    progress = True
                    break
        return m


def _reduce_pair(el, red):
    lead, tail = el
    u = red.reduce_monomial(lead)
    if tail is None:
        return None if u is None else (u, None)
    v = red.reduce_monomial(tail)
    if u is None and v is None:
        return None
    if u is None:
        return (v, None)
    if v is None:
        return (u, None)
    return _orient(u, v, red.order)


def _spair(f, g):
    lf, tf = f
    lg, tg = g
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    if tf is None and tg is None:
        return None
    if tf is None:
        return (tuple(l - a + b for l, a, b in zip(lcm, lg, tg)), None)
    if tg is None:
        return (tuple(l - a + b for l, a, b in zip(lcm, lf, tf)), None)
    a = tuple(l - x + y for l, x, y in zip(lcm, lf, tf))
    b = tuple(l - x + y for l, x, y in zip(lcm, lg, tg))
    if a == b:
        return None
    return (b, a)


def _reference_buchberger(elements, order):
    """Reduced Groebner basis of oriented tuple pairs, sorted by lead."""
    red = _Reducers(order)
    basis = []
    leads = []
    alive = []
    queue = {}
    counter = 0
    heap = []

    def append(el):
        nonlocal counter, alive
        m = len(basis)
        lead_m = el[0]
        basis.append(el)
        leads.append(lead_m)
        cand = []
        for g in alive:
            L = tuple(map(max, leads[g], lead_m))
            cand.append((sum(L), L, g))
        cand.sort()
        picked = []
        kept_lcms = []
        for _, L, g in cand:
            coprime = L == tuple(map(_add, leads[g], lead_m))
            if coprime or not any(_divides(L2, L) for L2 in kept_lcms):
                picked.append((g, L, coprime))
                kept_lcms.append(L)
        for (i, j), Lij in list(queue.items()):
            if (
                _divides(lead_m, Lij)
                and tuple(map(max, leads[i], lead_m)) != Lij
                and tuple(map(max, leads[j], lead_m)) != Lij
            ):
                del queue[(i, j)]
        for g, L, coprime in picked:
            if coprime:
                continue
            queue[(g, m)] = L
            counter += 1
            heapq.heappush(heap, (order.key(L), counter, g, m))
        alive = [g for g in alive if not _divides(lead_m, leads[g])]
        alive.append(m)
        red.add(el)

    for el in elements:
        if el is None:
            continue
        r = _reduce_pair(el, red)
        if r is not None:
            append(r)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in queue:
            continue
        del queue[(i, j)]
        s = _spair(basis[i], basis[j])
        if s is None:
            continue
        if s[1] is not None:
            s = _orient(s[0], s[1], order)
            if s is None:
                continue
        r = _reduce_pair(s, red)
        if r is not None:
            append(r)

    out = []
    for lead, tail, _ in list(red.rules):
        if tail is not None:
            tail = red.reduce_monomial(tail)
        out.append((lead, tail))
    return out


def _reference_groebner(gens, order):
    keyed = _Keyed(order)
    pairs = [(b.plus, None) if b.minus is None else _orient(b.plus, b.minus, keyed) for b in gens]
    return tuple(
        Binomial.monomial(lead) if tail is None else Binomial(lead, tail)
        for lead, tail in _reference_buchberger(pairs, keyed)
    )


# ---------------------------------------------------------------------------
# strategies


def _simple_orders(n):
    perms = st.permutations(range(n)).map(tuple)
    orders = st.builds(lex, st.none() | perms) | st.builds(grevlex, st.none() | perms)
    if n == 0:  # an empty block of a block order
        return orders
    weights = st.lists(st.integers(1, 5), min_size=n, max_size=n).map(tuple)
    return orders | st.builds(wgrevlex, weights, st.none() | perms)


@st.composite
def _orders(draw, n):
    if n >= 2 and draw(st.booleans()):
        k = draw(st.integers(0, n))
        perm = draw(st.none() | st.permutations(range(n)).map(tuple))
        return block(k, draw(_simple_orders(k)), draw(_simple_orders(n - k)), perm=perm)
    return draw(_simple_orders(n))


@st.composite
def _binomial_sets(draw):
    n = draw(st.integers(2, 5))
    homogeneous = draw(st.booleans())
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        a = list(draw(exps))
        if draw(st.integers(0, 9)) == 0:
            gens.append(Binomial.monomial(a))
            continue
        b = list(draw(exps))
        if homogeneous:
            lighter = a if sum(a) < sum(b) else b
            lighter[draw(st.integers(0, n - 1))] += abs(sum(a) - sum(b))
        gens.append(Binomial.difference(a, b))
    return n, gens, draw(_orders(n))


@given(_binomial_sets())
@settings(max_examples=300, deadline=None)
def test_groebner_matches_the_tuple_reference(case):
    n, gens, order = case
    assert groebner(gens, order).elements == _reference_groebner(gens, order)


# x1 - x2^16, x2 - x3^16: the reduced basis holds x1 - x3^256, whose exponent
# needs more bits than the input's do, so the first layout overflows
_FAR = [Binomial((1, 0, 0), (0, 16, 0)), Binomial((0, 1, 0), (0, 0, 16))]


@pytest.mark.parametrize(
    "order",
    [LEX, wgrevlex((256, 16, 1)), block(2, LEX, GREVLEX)],
    ids=["lex", "wgrevlex", "block"],
)
def test_widening_restart_keeps_the_basis(order):
    assert 16 < 1 << _MIN_WIDTH <= 256
    got = groebner(_FAR, order).elements
    assert got == (Binomial((0, 1, 0), (0, 0, 16)), Binomial((1, 0, 0), (0, 0, 256)))
    assert got == _reference_groebner(_FAR, order)


@pytest.fixture
def widths(monkeypatch):
    """The width of every layout the engine asks for, in order."""
    seen = []

    def spying(order, n, width):
        seen.append(width)
        return _layout(order, n, width)

    monkeypatch.setattr(ideal, "_layout", spying)
    return seen


def test_in_ideal_widens_too(widths):
    # x1 - x3^200 reduces x1^2 to x3^400
    gb = groebner([Binomial((1, 0, 0), (0, 0, 200))], LEX)
    assert in_ideal(Binomial((2, 0, 0), (0, 0, 400)), gb)
    assert not in_ideal(Binomial((2, 0, 0), (0, 0, 399)), gb)
    # x1^2 alone fits the 8-bit fields, the x3^400 it reduces to does not
    del widths[:]
    assert not in_ideal(Binomial.monomial((2, 0, 0)), gb)
    assert widths == [8, 16]


def test_an_spair_past_its_fields_restarts_wider(monkeypatch, widths):
    # both inputs fit 8-bit fields, but the S-pair of their lex leads x1^5
    # and x1^4*x2^200 is x2^450 - x1*x3, which outgrows them inside _spair
    gens = [Binomial((5, 0, 0), (0, 250, 0)), Binomial((4, 200, 0), (0, 0, 1))]
    got = groebner(gens, LEX).elements
    assert widths == [8, 16]
    assert len(got) == 7 and got[0] == Binomial((0, 2000, 0), (0, 0, 5))
    monkeypatch.setattr(ideal, "_MIN_WIDTH", 16)
    assert groebner(gens, LEX).elements == got


# ---------------------------------------------------------------------------
# packed primitives


@st.composite
def _layouts_and_monomials(draw):
    n = draw(st.integers(1, 5))
    order = draw(_orders(n))
    width = draw(st.sampled_from([1, 2, 3, 8]))
    top = (1 << width) - 1
    # a field at its largest value is drawn as often as any other value
    exps = st.lists(st.just(top) | st.integers(0, top), min_size=n, max_size=n).map(tuple)
    return order, width, draw(exps), draw(exps), draw(exps)


@given(_layouts_and_monomials())
@settings(max_examples=200, deadline=None)
def test_packed_primitives_match_tuple_arithmetic(case):
    order, width, a, b, c = case
    n = len(a)
    lay = _layout(order, n, width)
    pa, pb, pc = lay.pack(a), lay.pack(b), lay.pack(c)
    assert lay.unpack(pa) == a
    # divisibility
    assert (not ((pb - pa) & lay.guards)) == _divides(a, b)
    # order comparison, against the matrix rows and the nested keys
    below = _reference_key(order, a) < _reference_key(order, b)
    assert (pa < pb) == (order.key(a) < order.key(b)) == below
    assert (pa == pb) == (a == b)
    # lcm on the exponent fields
    lcm = tuple(map(max, a, b))
    assert lay.lcm(pa & lay.exps, pb & lay.exps) == lay.pack(lcm) & lay.exps
    # product: one add, and a guard bit exactly when a field overflows
    total = tuple(map(_add, a, b))
    if max(total) < 1 << width:
        assert pa + pb == lay.pack(total)
        assert not ((pa + pb) & lay.guards)
    else:
        assert (pa + pb) & lay.guards
    # a reduction step m + (tail - lead): lead b divides m = b + c, tail a
    m = tuple(map(_add, b, c))
    if max(m) < 1 << width:
        assert lay.pack(m) + (pa - pb) == lay.pack(tuple(map(_add, a, c)))
