"""Value semantics of the immutable result and input types: equality,
hashing, repr, immutability and constructor checks."""

import copy
import pickle

import pytest

from monofact._frozen import Frozen, computed_once
from monofact.errors import DimensionMismatch, InvalidInput
from monofact.apery import AperyResult, apery_set
from monofact.ideal import Binomial, BinomialBasis, KernelLattice, kernel_lattice, lattice_ideal
from monofact.monoid import (
    _pointed,
    GroupElement,
    MonoidPresentation,
    numerical,
    presentation,
    validate_reduced,
)
from monofact.oracle import monoid_elements
from monofact.orders import GREVLEX, LEX, TermOrder


# one field each: a key of one field is still a 1-tuple
class _Single(Frozen):
    __slots__ = ("value",)
    value: tuple


class _Twin(Frozen):
    __slots__ = ("value",)
    value: tuple


def test_hash_is_the_hash_of_the_field_tuple():
    assert hash(GroupElement((3,), (), ())) == hash(((3,), (), ()))
    assert hash(_Single((1, 2))) == hash(((1, 2),))
    assert hash(Binomial((1, 0), (0, 1))) == hash(((1, 0), (0, 1)))


def test_equality_is_per_class():
    g = GroupElement((3,), (), ())
    assert g == GroupElement((3,), (), ()) and not g != GroupElement((3,), (), ())
    assert g != GroupElement((4,), (), ())
    assert g.__eq__(((3,), (), ())) is NotImplemented
    # equal field tuples, different classes
    assert _Single((3,)).__eq__(_Twin((3,))) is NotImplemented and _Single((3,)) != _Twin((3,))
    assert g != ((3,), (), ())


def test_validate_reduced_returns_the_presentation_itself():
    p = presentation(1, (2,), [(1, 0), (1, 1), (2, 1)])
    before = hash(p)
    assert validate_reduced(p) is p
    # the cached proof takes no part in equality or hashing
    fresh = presentation(1, (2,), [(1, 0), (1, 1), (2, 1)])
    assert p == fresh and hash(p) == hash(fresh) == before


def test_presentations_take_no_validated_flag():
    p = numerical([3, 5, 7])
    with pytest.raises(TypeError):
        MonoidPresentation(p.rank, p.torsion, p.generators, validated=True)
    with pytest.raises(TypeError):
        MonoidPresentation(p.rank, p.torsion, p.generators, True)


@pytest.mark.parametrize("name", ["elements", "order", "groebner"])
def test_cached_results_are_immutable(name):
    basis = lattice_ideal(numerical([3, 5, 7]))
    with pytest.raises(AttributeError):
        setattr(basis, name, None)
    with pytest.raises(AttributeError):
        delattr(basis, name)
    with pytest.raises(AttributeError):
        basis.extra = 1


def test_repr_text():
    assert repr(GroupElement((1, -2), (5,), (3,))) == (
        "GroupElement(free=(1, -2), torsion=(2,), moduli=(3,))"
    )
    assert repr(Binomial((2, 0))) == "Binomial(plus=(2, 0), minus=None)"
    assert repr(TermOrder("block", split=1, inner=(GREVLEX, LEX))) == (
        "TermOrder(kind='block', weights=None, perm=None, split=1, inner=("
        "TermOrder(kind='grevlex', weights=None, perm=None, split=None, inner=None), "
        "TermOrder(kind='lex', weights=None, perm=None, split=None, inner=None)))"
    )


def test_keyword_construction_and_defaults():
    order = TermOrder("wgrevlex", weights=(1, 2), perm=(1, 0))
    fields = (order.kind, order.weights, order.perm, order.split, order.inner)
    assert fields == ("wgrevlex", (1, 2), (1, 0), None, None)
    b = Binomial((1, 0), (0, 1))
    # one field: a reduced Groebner basis or a minimal generating set
    flags = ("groebner", "reduced", "minimal_generating")
    basis = BinomialBasis((b,), GREVLEX, groebner=True)
    assert [basis.to_data()[k] for k in flags] == [True, True, False]
    basis = BinomialBasis((b,), GREVLEX, groebner=False)
    assert [basis.to_data()[k] for k in flags] == [False, False, True]
    assert BinomialBasis(elements=(b,), order=GREVLEX, groebner=False) == BinomialBasis(
        (b,), GREVLEX, False
    )


def test_field_constructor_takes_each_field_once():
    lattice = KernelLattice(((1, -2, 1),), 3)
    assert lattice == KernelLattice(nvars=3, basis=((1, -2, 1),))
    assert lattice == KernelLattice(((1, -2, 1),), nvars=3)
    assert repr(lattice) == "KernelLattice(basis=((1, -2, 1),), nvars=3)"
    for args, kwargs in [
        ((((1, -2, 1),),), {}),  # nvars missing
        ((((1, -2, 1),), 3, 4), {}),  # one argument too many
        ((((1, -2, 1),), 3), {"rank": 1}),  # no such field
        ((((1, -2, 1),), 3), {"nvars": 3}),  # nvars twice
        ((), {}),
    ]:
        with pytest.raises(TypeError):
            KernelLattice(*args, **kwargs)
    result = AperyResult(True, (GroupElement((0,)),), 1, None)
    assert (result.finite, result.count, result.limit) == (True, 1, None)
    with pytest.raises(TypeError):
        AperyResult(True, (), 0)


def test_constructors_read_integers_without_truncating():
    # int() would truncate 1.5 and 2.9 and read True as 1
    for bad in [(2.9,), (True,)]:
        with pytest.raises(InvalidInput):
            presentation(1, bad, [(1, 0)])
        with pytest.raises(InvalidInput):
            GroupElement((1,), (0,), bad)
    for cap in [True, 2.5, 5.0]:
        with pytest.raises(InvalidInput):
            monoid_elements(numerical([3, 5, 7]), cap)
    assert presentation(1, ("3",), [(1, 0)]).torsion == (3,)
    assert GroupElement((1,), (0,), ("3",)).moduli == (3,)


def test_constructor_checks_keep_their_order():
    # the moduli are read before the residues are counted against them
    for build in (lambda: presentation(1, (1,), [(1,)]), lambda: GroupElement((1,), (), (1,))):
        with pytest.raises(InvalidInput, match="torsion moduli must all be >= 2"):
            build()
    with pytest.raises(DimensionMismatch):
        GroupElement((1,), (1,), ())
    # plus is checked before minus, and the length of minus before its signs
    with pytest.raises(InvalidInput, match="nonnegative"):
        Binomial((-1, 0), (0,))
    with pytest.raises(InvalidInput, match="differ in length"):
        Binomial((1, 0), (-1,))


def test_binomial_exponents_are_read_as_integers():
    # int() would truncate 1.5 to 1 and read True as 1
    for bad in ((1.5, 0), (True, 0)):
        with pytest.raises(InvalidInput):
            Binomial(bad, (0, 0))
        with pytest.raises(InvalidInput):
            Binomial((0, 0), bad)
        with pytest.raises(InvalidInput):
            Binomial.monomial(bad)
        with pytest.raises(InvalidInput):
            Binomial.difference(bad, (0, 1))
    assert Binomial(("2", "0"), ("0", "10")) == Binomial((2, 0), (0, 10))
    assert Binomial.monomial(("3", 1)).plus == (3, 1)


def test_pickle_and_copy_rebuild_equal_values():
    p = validate_reduced(numerical([3, 5, 7]))
    values = (
        p,
        GroupElement((1, -2), (5,), (3,)),
        lattice_ideal(p),
        kernel_lattice(p),
        apery_set(p, [p.element((3,))]),
    )
    for value in values:
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value
    copied = pickle.loads(pickle.dumps(p))
    assert copied == p and copied.pointing == p.pointing


def test_computed_values_are_kept_and_presets_win():
    # a value preset in __dict__ is read before any computation
    p = numerical([3, 5, 7])
    assert "pointing" not in p.__dict__
    w = p.pointing
    assert p.__dict__["pointing"] is w and p.pointing is w
    assert _pointed(1, p.torsion, p.generators, (2,)).pointing == (2,)
    lifted = p.lift
    assert {"pointing", "kernel"} <= lifted.__dict__.keys()  # preset by the lift
    assert lifted.pointing == (0, 1) and lifted.kernel == ((1, -2, 1),)
    assert MonoidPresentation.pointing.__doc__ and MonoidPresentation.lift.__doc__


def test_a_computation_that_raises_keeps_nothing():
    class Flaky:
        def __init__(self):
            self.calls = 0

        @computed_once
        def value(self):
            self.calls += 1
            if self.calls == 1:
                raise ValueError("first read")
            return self.calls

    obj = Flaky()
    with pytest.raises(ValueError):
        obj.value
    assert "value" not in obj.__dict__
    assert obj.value == 2 and obj.value == 2 and obj.calls == 2
    assert isinstance(Flaky.value, computed_once)
