"""No library call leaves reference cycles behind.

What a call keeps lives in the memos of its presentation; everything else
must be freed by reference counting when the call returns, so that a long
session never waits on the cyclic collector.  A recursive walk written as
a closure that calls itself is the usual culprit: the function and its
cell refer to each other and hold every list the walk touches.
"""

import gc

from monofact import monoid, oracle
from monofact.apery import apery_set
from monofact.catenary import ceq, ceq_element_bruteforce
from monofact.errors import BudgetExceeded
from monofact.monoid import all_factorizations, member, presentation_from_data
from monofact.same_length import (
    f2l,
    integers_outside_l_set,
    l_set,
    l_set_complement,
    t_set,
)

_NUMERICAL = {"numerical": [3, 5, 7]}
_FINITE = {"rank": 1, "torsion": [3], "generators": [[-4, 2], [-3, 2], [-2, 1], [-1, 1]]}
_INFINITE = {"rank": 2, "torsion": [5], "generators": [[-5, -4, 2], [-5, 6, 1], [-4, -3, 4], [1, 1, 4]]}


def _every_walk(monkeypatch):
    """One call of each searching or walking entry point, each on a fresh
    presentation, so every memo is built and dropped inside the window."""
    p = presentation_from_data(_NUMERICAL)
    x = p.element((60,))
    assert member(p, x) is not None
    assert len(all_factorizations(p, x)) == 22
    assert member(p, p.element((4,))) is None
    monkeypatch.setattr(monoid, "_LISTING_CAP", 21)
    for listing in (all_factorizations, ceq_element_bruteforce):
        try:
            listing(p, x)
        except BudgetExceeded:  # no ExceptionInfo: it would be a cycle of its own
            pass
        else:
            raise AssertionError("the listing cap did not stop the search")
    monkeypatch.undo()

    p = presentation_from_data(_NUMERICAL)
    assert t_set(p) is not None and l_set(p) is not None and ceq(p) == 2
    assert l_set_complement(p).finite
    assert apery_set(p, [p.element((3,))]).count == 3
    assert f2l(p) == 14 and integers_outside_l_set(p)[-1] == 14
    assert ceq_element_bruteforce(p, 60) == 2

    q = presentation_from_data(_FINITE)
    assert l_set_complement(q).count == 15
    r = presentation_from_data(_INFINITE)
    assert l_set_complement(r, limit=2).count == 15

    for what, cap in (("lset", 30), ("tset", 40), ("ceq", 40), ("f", 40)):
        assert oracle.check(presentation_from_data(_NUMERICAL), what, cap)["ok"]
    assert oracle.check(presentation_from_data(_FINITE), "ceq", 40)["ok"]


def test_no_library_call_leaves_cyclic_garbage(monkeypatch):
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        _every_walk(monkeypatch)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
