"""Term orders reject what their matrix rows cannot represent; the
orders the library builds itself skip the reader; an order hashes as its
fields."""

import copy
import pickle

import pytest

from monofact import orders
from monofact.errors import InvalidInput
from monofact.ideal import Binomial, lattice_ideal, saturate
from monofact.monoid import numerical
from monofact.orders import GREVLEX, LEX, TermOrder, block, cheapest_last, lex, parse_order, wgrevlex


@pytest.mark.parametrize(
    "make",
    [
        lambda: block(-1, GREVLEX, GREVLEX),
        lambda: wgrevlex((1.5, 2.5, 1)),
        lambda: wgrevlex((1, True, 1)),
        lambda: TermOrder("block", split=1.0, inner=(GREVLEX, GREVLEX)),
        lambda: lex(perm=(1.0, 0)).rows(2),
        lambda: parse_order("block:\u0661"),
        lambda: parse_order("wgrevlex: 1,2_0,3"),
        lambda: parse_order("wgrevlex:1,2_0,3"),
    ],
    ids=[
        "negative-split",
        "float-weights",
        "bool-weight",
        "float-split",
        "float-perm",
        "non-ascii-split",
        "padded-weight",
        "underscore-weight",
    ],
)
def test_orders_reject_what_they_cannot_represent(make):
    with pytest.raises(InvalidInput):
        make()


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: TermOrder("bogus"), "unknown term order kind"),
        (lambda: TermOrder("wgrevlex", weights=(1, 0)), "strictly positive"),
        (lambda: TermOrder("block"), "needs a split and two inner orders"),
        (lambda: lex(perm=(0, 0)).rows(2), "perm must permute"),
        (lambda: parse_order("revlex"), "unknown term order 'revlex'"),
    ],
    ids=["unknown-kind", "zero-weight", "bare-block", "repeated-perm", "unknown-descriptor"],
)
def test_orders_refuse_ill_formed_descriptions(make, match):
    with pytest.raises(InvalidInput, match=match):
        make()


def test_block_split_past_the_variables_is_rejected():
    with pytest.raises(InvalidInput):
        lattice_ideal(numerical([3, 5, 7]), block(4, GREVLEX, GREVLEX))
    # split == n is the first inner order alone
    assert lattice_ideal(numerical([3, 5, 7]), block(3, GREVLEX, LEX)).elements == (
        lattice_ideal(numerical([3, 5, 7]), GREVLEX).elements
    )


@pytest.fixture
def reads(monkeypatch):
    calls = []
    real = orders._integers

    def counting(values):
        calls.append(values)
        return real(values)

    monkeypatch.setattr(orders, "_integers", counting)
    return calls


def test_a_made_order_is_the_read_order_without_the_reader(reads):
    made = TermOrder._made("wgrevlex", (5, 3, 2, 7), cheapest_last(4, 2))
    assert reads == []
    read = wgrevlex((5, 3, 2, 7), perm=(0, 1, 3, 2))
    assert made == read and hash(made) == hash(read)
    assert made.rows(4) == read.rows(4)


def test_saturate_reads_its_grading_once(reads):
    # one pass, at x_1: x1^2 - x2 x4 then saturates x_2 and x_4, and
    # x1 x4 - x2 x3 then x_3; one read of the weights for the pass and the
    # final run
    gens = [Binomial((1, 0, 0, 1), (0, 1, 1, 0)), Binomial((2, 0, 0, 0), (0, 1, 0, 1))]
    assert saturate(gens, weights=(1, 1, 1, 1)).order == GREVLEX
    assert reads == [(1, 1, 1, 1)]


@pytest.mark.parametrize(
    "order",
    [
        LEX,
        GREVLEX,
        wgrevlex((5, 3, 2), perm=(2, 0, 1)),
        block(1, LEX, wgrevlex((1, 2))),
        TermOrder._made("wgrevlex", (5, 3, 2, 7), cheapest_last(4, 2)),
    ],
    ids=["lex", "grevlex", "wgrevlex", "block", "made"],
)
def test_an_order_hashes_as_its_fields(order):
    # the hash is computed once per object, and is the one of the field tuple
    fields = (order.kind, order.weights, order.perm, order.split, order.inner)
    assert hash(order) == hash(fields)
    twin = TermOrder(*fields)
    assert twin == order and hash(twin) == hash(order)
    for other in (pickle.loads(pickle.dumps(order)), copy.copy(order), copy.deepcopy(order)):
        assert other == order and hash(other) == hash(order)
