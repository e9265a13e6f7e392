"""Command line entry point.

One computation per invocation:

    monofact lset --input '{"numerical":[17,29,37,47]}'
    monofact apery --input m.json --b '[[12,0]]'
    monofact oracle-check --input '{"numerical":[3,5,7]}' --what lset --cap 60

``--input`` (and ``--b``, ``--ops``) accept either a file path or inline
JSON.  Results print as canonical JSON: sorted keys, compact separators,
integers beyond 64 bits rendered as decimal strings, one trailing
newline.  ``--format text`` prints plain lines instead.  Identical
inputs and flags produce byte-identical output.

A plain command line (the subcommand, then each of its flags spelled out
once with its value as the next token) is read off the subcommand table
by ``_read``; argparse is imported only for help, usage errors and the
other forms it accepts, such as abbreviations or ``--flag=value``.

Exit codes: 0 ok, 2 invalid input, 3 monoid not reduced, 4 infinite
answer without --limit, 5 a cross-check or oracle comparison failed.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import oracle
from .apery import apery_is_finite, apery_set
from .catenary import ceq, ceq_element_bruteforce, ceq_upper_bound_numerical
from .errors import BudgetExceeded, CrossCheckError, EmptyLSet, InvalidInput, MonoidError
from .ideal import Binomial, kernel_lattice, lattice_ideal, minimal_generators
from .monoid import _integer, _keys, element_from_data, presentation_from_data, validate_reduced
from .monoid import is_minimal_generating as _gens_minimal
from .orders import parse_order
from .same_length import (
    f2l,
    integers_outside_l_set,
    l_set,
    l_set_complement,
    l_set_complement_is_finite,
    t_set,
)

_INT64 = 1 << 63


def _load_json(raw: str, flag: str):
    """Path-or-inline JSON."""
    if os.path.exists(raw):
        try:
            with open(raw, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInput(f"{flag} names an unreadable file: {exc}") from None
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{flag} is neither a readable file nor valid JSON: {exc}") from None


def _jsonable(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) >= _INT64 else value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _flat(value) -> str:
    return json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":"))


def _nested(value) -> bool:
    """A dict, or a list holding a dict or list: rendered over several lines."""
    return isinstance(value, dict) or (
        isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value)
    )


def _render_text(value, indent=""):
    lines = []
    if isinstance(value, dict):
        if set(value) == {"plus", "minus"}:
            return [indent + Binomial(value["plus"], value["minus"]).text()]
        for key in sorted(value):
            item = value[key]
            if _nested(item):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_text(item, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {_flat(item)}")
    elif isinstance(value, list):
        for item in value:
            if _nested(item):
                lines.extend(_render_text(item, indent))
            else:
                lines.append(indent + _flat(item))
    else:
        lines.append(indent + _flat(value))
    return lines


def _emit(data, args) -> None:
    if args.format == "json":
        sys.stdout.write(_flat(data) + "\n")
    else:
        sys.stdout.write("\n".join(_render_text(data)) + "\n")


def _presentation(args):
    return validate_reduced(presentation_from_data(_load_json(args.input, "--input")))


def _elements(p, args):
    obj = _load_json(args.b, "--b")
    if not isinstance(obj, list) or not obj:
        raise InvalidInput("--b must be a nonempty JSON list of elements")
    return [element_from_data(p, e) for e in obj]


def _ideal_payload(ideal) -> dict:
    if ideal is None:
        return {"empty": True}
    return {
        "generators": [g.to_data() for g in ideal.generators],
        "principal": ideal.is_principal,
    }


# --- subcommand handlers ---------------------------------------------------


def _cmd_validate(args):
    p = _presentation(args)
    return {
        "valid": True,
        "rank": p.rank,
        "torsion": list(p.torsion),
        "n": p.n,
        "numerical": p.is_numerical,
        "minimal": _gens_minimal(p),
        "pointing": list(p.pointing),
        "weights": list(p.weights),
    }


def _basis_payload(basis, p=None) -> dict:
    data = basis.to_data()
    if p is not None:
        data["degrees"] = [b.degree(p).to_data() for b in basis.elements]
    return data


def _cmd_ideal(args):
    p = _presentation(args)
    order = parse_order(args.order)
    gb = lattice_ideal(p, order=order)
    if args.minimal:
        return _basis_payload(minimal_generators(gb, p), p)
    return _basis_payload(gb)


def _cmd_tilde_ideal(args):
    p = _presentation(args)
    order = parse_order(args.order)
    lifted = p.lift
    if args.minimal:
        return _basis_payload(minimal_generators(lattice_ideal(lifted, order), lifted), lifted)
    return _basis_payload(lattice_ideal(lifted, order=order))


def _cmd_kernel(args):
    return kernel_lattice(_presentation(args)).to_data()


def _cmd_apery(args):
    p = _presentation(args)
    res = apery_set(p, _elements(p, args), order=parse_order(args.order), limit=args.limit)
    return res.to_data()


def _cmd_apery_finite(args):
    p = _presentation(args)
    return {"finite": apery_is_finite(p, _elements(p, args))}


def _cmd_tset(args):
    return _ideal_payload(t_set(_presentation(args)))


def _cmd_lset(args):
    return _ideal_payload(l_set(_presentation(args)))


def _cmd_lset_complement(args):
    p = _presentation(args)
    return l_set_complement(p, limit=args.limit, order=parse_order(args.order)).to_data()


def _cmd_lset_finite(args):
    return {"finite": l_set_complement_is_finite(_presentation(args))}


def _cmd_principal(args):
    ideal = l_set(_presentation(args))
    if ideal is None:
        raise EmptyLSet("L_S is empty")
    if ideal.is_principal:
        return {"principal": True, "generator": ideal.generators[0].to_data()}
    return {"principal": False, "generators": [g.to_data() for g in ideal.generators]}


def _cmd_f2l(args):
    # past the listing cap the complement is left out (null): F_2l itself
    # is read off the residue bounds at any size
    p = _presentation(args)
    value = f2l(p)
    try:
        complement = list(integers_outside_l_set(p))
    except BudgetExceeded:
        complement = None
    return {"value": value, "complement": complement}


def _cmd_ceq(args):
    return {"value": ceq(_presentation(args))}


def _cmd_ceq_bound(args):
    return {"value": ceq_upper_bound_numerical(_presentation(args))}


def _cmd_ceq_element(args):
    p = _presentation(args)
    b = element_from_data(p, _load_json(args.b, "--b"))
    return {"value": ceq_element_bruteforce(p, b, cap=args.cap)}


_FAMILY_KEYS = {
    "arithmetic": ({"m1", "e", "n"}, set()),
    "almost": ({"m1", "e", "n", "b"}, set()),
    "unique-betti": ({"b", "t", "c"}, {"f"}),
}


def _family_params(args) -> dict:
    params = _load_json(args.params, "--params")
    if not isinstance(params, dict):
        raise InvalidInput("--params must be a JSON object")
    _keys(params, *_FAMILY_KEYS[args.family], f"params for {args.family}")
    return params


def _cmd_closed_form(args):
    from . import closed_forms

    params = _family_params(args)
    if args.family == "arithmetic":
        fam = closed_forms.ArithmeticFamily(params["m1"], params["e"], params["n"])
        ideal = closed_forms.lset_arithmetic(fam, verified=args.verified)
        return {
            "family": "arithmetic",
            "generators": list(fam.generators),
            "lset": _ideal_payload(ideal),
        }
    if args.family == "almost":
        fam = closed_forms.AlmostArithmeticFamily(
            params["m1"], params["e"], params["n"], params["b"]
        )
        ideal = closed_forms.lset_almost_arithmetic(fam, verified=args.verified)
        # the engine value is authoritative for c_eq; the report carries
        # both formula forms so disagreements are visible, not guessed
        report = closed_forms.ceq_almost_arithmetic_report(fam)
        return {
            "family": "almost",
            "generators": list(fam.generators),
            "lset": _ideal_payload(ideal),
            "ceq": report["engine"],
            "ceq_forms": report,
        }
    fam = closed_forms.UniqueBettiShiftFamily(
        params["b"], params["t"], params["c"], params.get("f")
    )
    ideal = closed_forms.lset_unique_betti_shift(fam, verified=args.verified)
    value = closed_forms.ceq_unique_betti_shift(fam, verified=args.verified)
    return {
        "family": "unique-betti",
        "generators": list(fam.generators),
        "m_values": list(fam.m_values),
        "lset": _ideal_payload(ideal),
        "ceq": value,
    }


def _cmd_transform(args):
    from . import closed_forms

    p = _presentation(args)
    if not p.is_numerical:
        raise InvalidInput("transform expects a numerical presentation")
    ops = _load_json(args.ops, "--ops")
    if not isinstance(ops, list):
        raise InvalidInput("--ops must be a JSON list of [name, scalar] pairs")
    values = [g.free[0] for g in p.generators]
    stages = closed_forms.normalized_presentation_transforms(values, ops)
    order = parse_order(args.order)
    payload = []
    bases = []
    for stage in stages:
        gb = lattice_ideal(stage, order=order)
        bases.append(gb)
        payload.append(
            {
                "values": [g.free[0] for g in stage.generators],
                "ideal": _basis_payload(gb),
            }
        )
    # a reduced Groebner basis under one order is unique, so equal ideals
    # have equal bases
    for prev, cur in zip(bases, bases[1:]):
        if prev != cur:
            raise CrossCheckError("transform stages generate different ideals")
    return {"stages": payload, "ideals_equal": True}


def _cmd_oracle_check(args):
    data = oracle.check(_presentation(args), args.what, args.cap)
    return data, (0 if data["ok"] else 5)


# --- parser ----------------------------------------------------------------


def _integer_flag(raw: str) -> int:
    """``--limit`` and ``--cap``, read by the library's one integer reader
    (``monoid._integer``); a refused string is argparse's usage error,
    exit 2."""
    try:
        return _integer(raw)
    except InvalidInput as exc:
        import argparse

        raise argparse.ArgumentTypeError(str(exc)) from None


# each spec is written once; a row may override some of its fields
_FLAGS = {
    "--input": {"required": True, "help": "file path or inline JSON"},
    "--format": {"choices": ("json", "text"), "default": "json"},
    "--order": {"default": None, "help": "lex | grevlex | wgrevlex:w1,w2,..."},
    "--limit": {"type": _integer_flag, "default": None, "help": "truncation degree for infinite sets"},
    "--b": {"required": True, "help": "JSON list of elements (path or inline)"},
    "--minimal": {"action": "store_true", "help": "trim to minimal generators"},
    "--cap": {"type": _integer_flag},
}

# name, help, handler, flags in help order: a key of _FLAGS or (key, overrides)
_COMMANDS = (
    ("validate", "check reducedness, report the pointing data", _cmd_validate,
     ("--input", "--format")),
    ("ideal", "Groebner basis of the lattice ideal", _cmd_ideal,
     ("--input", "--format", "--order", "--minimal")),
    ("tilde-ideal", "Groebner basis of the length-homogenized lattice ideal", _cmd_tilde_ideal,
     ("--input", "--format", "--order", "--minimal")),
    ("kernel", "Z-basis of the factorization-difference lattice", _cmd_kernel,
     ("--input", "--format")),
    ("apery", "Apery set relative to --b", _cmd_apery,
     ("--input", "--format", "--order", "--limit", "--b")),
    ("apery-finite", "cone test for Apery finiteness", _cmd_apery_finite,
     ("--input", "--format", "--b")),
    ("tset", "generators of the two-factorizations ideal", _cmd_tset,
     ("--input", "--format")),
    ("lset", "generators of the equal-length ideal", _cmd_lset,
     ("--input", "--format")),
    ("lset-complement", "complement of the equal-length ideal", _cmd_lset_complement,
     ("--input", "--format", "--order", "--limit")),
    ("lset-finite", "ray test for complement finiteness", _cmd_lset_finite,
     ("--input", "--format")),
    ("principal", "is the equal-length ideal principal", _cmd_principal,
     ("--input", "--format")),
    ("f2l", "largest integer without two equal-length factorizations", _cmd_f2l,
     ("--input", "--format")),
    ("ceq", "equal catenary degree", _cmd_ceq,
     ("--input", "--format")),
    ("ceq-bound", "consecutive-steps upper bound (numerical)", _cmd_ceq_bound,
     ("--input", "--format")),
    ("ceq-element", "equal catenary degree of one element", _cmd_ceq_element,
     ("--input", "--format", ("--b", {"help": "the element (path or inline JSON)"}),
      ("--cap", {"default": 10**6}))),
    ("closed-form", "family formulas, optionally engine-verified", _cmd_closed_form,
     (("--family", {"required": True, "choices": tuple(_FAMILY_KEYS)}),
      ("--params", {"required": True, "help": "JSON object (path or inline)"}),
      ("--verified", {"action": "store_true", "help": "cross-check against the engine"}),
      "--format")),
    ("transform", "ideal-preserving rewrites of a numerical presentation", _cmd_transform,
     ("--input", "--format", "--order",
      ("--ops", {"required": True, "help": 'JSON list like [["subtract",7],["divide",3]]'}))),
    ("oracle-check", "engine vs brute force under a weight cap", _cmd_oracle_check,
     ("--input", "--format",
      ("--what", {"required": True, "choices": ("lset", "tset", "ceq", "f")}),
      ("--cap", {"required": True}))),
)


def _spec(flag) -> tuple[str, dict]:
    """A row's flag entry as the flag and its ``add_argument`` keywords."""
    flag, overrides = (flag, {}) if isinstance(flag, str) else flag
    return flag, {**_FLAGS.get(flag, {}), **overrides}


def _parser():
    import argparse

    top = argparse.ArgumentParser(
        prog="monofact",
        description="factorization invariants of reduced monoids, exactly",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, helptext, handler, flags in _COMMANDS:
        sp = sub.add_parser(name, help=helptext)
        sp.set_defaults(handler=handler)
        for flag, spec in map(_spec, flags):
            sp.add_argument(flag, **spec)
    return top


def _read(argv):
    """The namespace ``_parser()`` gives a plain command line, read off the
    table without argparse: an exact command name, then exact flags of
    that command, each at most once, each value flag followed by a value
    that does not start with "-", lies in the flag's choices and, for
    ``--limit`` and ``--cap``, passes ``monoid._integer``, and every
    required flag present.  Anything else is None and goes to argparse,
    which keeps help, abbreviations, ``--flag=value``, repeats, "--" and
    every usage error with its message and exit code."""
    row = next((r for r in _COMMANDS if argv[:1] == [r[0]]), None)
    if row is None:
        return None
    name, _, handler, flags = row
    specs = dict(map(_spec, flags))
    values = {f: s.get("default", False if "action" in s else None) for f, s in specs.items()}
    seen = set()
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = specs.get(flag)
        if spec is None or flag in seen:
            return None
        seen.add(flag)
        if "action" in spec:  # store_true
            values[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        if "type" in spec:
            try:
                value = _integer(value)
            except InvalidInput:
                return None
        values[flag] = value
    if any(s.get("required") and f not in seen for f, s in specs.items()):
        return None
    fields = {f[2:].replace("-", "_"): v for f, v in values.items()}
    return SimpleNamespace(command=name, handler=handler, **fields)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read(argv) or _parser().parse_args(argv)
        out = args.handler(args)
        data, code = out if isinstance(out, tuple) else (out, 0)
        _emit(data, args)
        return code
    except MonoidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
