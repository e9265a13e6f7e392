"""Term orders reject what their matrix rows cannot represent."""

import pytest

from monofact.errors import InvalidInput
from monofact.ideal import lattice_ideal
from monofact.monoid import numerical
from monofact.orders import GREVLEX, LEX, TermOrder, block, lex, parse_order, wgrevlex


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


def test_block_split_past_the_variables_is_rejected():
    with pytest.raises(InvalidInput):
        lattice_ideal(numerical([3, 5, 7]), block(4, GREVLEX, GREVLEX))
    # split == n is the first inner order alone
    assert lattice_ideal(numerical([3, 5, 7]), block(3, GREVLEX, LEX)).elements == (
        lattice_ideal(numerical([3, 5, 7]), GREVLEX).elements
    )
