"""Spans around monofact's public functions, installed from outside the package.

Each target function is replaced at every ``monofact`` module binding that
holds it, so a call through ``from .ideal import groebner`` in another module
is caught as well as a call inside ``ideal`` itself.  Spans stay in memory;
:meth:`Recorder.summary` folds them into additive per-name totals when the
interpreter is done, and the benchmark sums those over a run.

A target that no longer exists raises :class:`MissingTarget`: a renamed
function must fail the traced run, not report a silent zero.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# module -> functions timed as spans; span names are "<module>.<function>"
SPANNED = {
    "ideal": (
        "kernel_lattice",
        "lattice_ideal",
        "saturate",
        "groebner",
        "in_ideal",
        "minimal_generators",
    ),
    "apery": ("apery_set",),
    "monoid": ("validate_reduced", "member", "all_factorizations"),
    "ratlp": ("solve_nonneg", "positive_functional"),
    "same_length": ("t_set", "l_set", "l_set_complement", "f2l"),
    "catenary": ("ceq", "ceq_element_bruteforce"),
    "oracle": ("monoid_elements", "lset_bruteforce", "tset_bruteforce"),
    "cli": ("main",),
}

# functions only counted, so that their time stays in the caller's self time
COUNTED = {("oracle", "_fiber_map"): "oracle.fiber_maps"}


class MissingTarget(RuntimeError):
    pass


class Recorder:
    """Spans of one interpreter; a request boundary is marked with
    :meth:`new_request`."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.built: set = set()  # (presentation, order) ideals built in this request

    def new_request(self) -> None:
        self.built.clear()

    def summary(self) -> dict:
        """Additive totals: ``<span>.calls``, ``<span>.self_s`` and counters."""
        out = Counter(self.counts)
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
                if self.names[parent] == "ideal.minimal_generators" and self.names[i] == "ideal.groebner":
                    out["ideal.minimal_generators.groebner_calls"] += 1
        for i, name in enumerate(self.names):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += self.ends[i] - self.starts[i] - child_time[i]
        return dict(out)


def _after_lattice_ideal(rec, args, out):
    key = (args["p"], args["order"])  # presentations compare without their validated flag
    if key in rec.built:
        rec.counts["ideal.lattice_ideal.repeat_calls"] += 1
    rec.built.add(key)


def _after_minimal_generators(rec, args, out):
    basis = args["basis"]
    elements = basis.elements if hasattr(basis, "elements") else list(basis)
    rec.counts["ideal.minimal_generators.candidates"] += sum(1 for b in elements if not b.is_zero)
    rec.counts["ideal.minimal_generators.kept"] += len(out.elements)


def _after_apery_set(rec, args, out):
    rec.counts["apery.apery_set.elements"] += out.count


AFTER = {
    "ideal.lattice_ideal": _after_lattice_ideal,
    "ideal.minimal_generators": _after_minimal_generators,
    "apery.apery_set": _after_apery_set,
}


def _spanned(rec: Recorder, name: str, fn):
    after = AFTER.get(name)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = len(rec.names)
        rec.names.append(name)
        rec.parents.append(rec.stack[-1] if rec.stack else -1)
        rec.ends.append(0.0)
        rec.stack.append(i)
        rec.starts.append(perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.ends[i] = perf_counter()
            rec.stack.pop()
        if after is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            after(rec, bound.arguments, out)
        return out

    return wrapper


def _counted(rec: Recorder, counter: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def _target(module: str, function: str):
    try:
        home = sys.modules["monofact." + module]
        fn = getattr(home, function)
    except (KeyError, AttributeError):
        raise MissingTarget(f"monofact.{module}.{function} no longer exists") from None
    if not callable(fn):
        raise MissingTarget(f"monofact.{module}.{function} is not a function")
    return fn


def install() -> Recorder:
    """Import monofact, wrap every target at each binding and return the
    recorder the wrappers write to."""
    import monofact.cli  # noqa: F401  (loads every submodule)

    modules = [m for n, m in sys.modules.items() if n == "monofact" or n.startswith("monofact.")]
    rec = Recorder()
    wrappers = {}
    for module, functions in SPANNED.items():
        for function in functions:
            fn = _target(module, function)
            wrappers[id(fn)] = (fn, _spanned(rec, f"{module}.{function}", fn))
    for (module, function), counter in COUNTED.items():
        fn = _target(module, function)
        wrappers[id(fn)] = (fn, _counted(rec, counter, fn))
    for m in modules:
        for attr, value in list(vars(m).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(m, attr, hit[1])
    return rec
