"""The table-built parser against a frozen copy of the hand-written one.

``_reference_parser`` is the parser as it was before the subcommands moved
into one table, kept verbatim apart from the handler prefixes, ``--order``, and the
type of ``--limit`` and ``--cap``: argparse's ``int`` there read "٥" as 5
and "3_0" as 30, and both flags now go through the library's integer
reader (``cli._integer_flag``), here as in the CLI.  ``closed-form --order`` had no help and then read like every
other ``--order``; it is gone now, with the ``--order`` of ``tset``,
``lset``, ``principal``, ``f2l``, ``ceq`` and ``oracle-check``, whose
answers no term order changes.  Help texts, argparse errors and parsed namespaces must not
tell the two apart.  The texts are compared with each other, never with
pinned strings, because argparse wording differs between Python versions.

A plain command line is read by ``cli._read`` without argparse; whatever
it accepts must parse to the reference parser's namespace, and whatever
the reference parser refuses it must leave to argparse.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from monofact import cli

COMMANDS = (
    "validate",
    "ideal",
    "tilde-ideal",
    "kernel",
    "apery",
    "apery-finite",
    "tset",
    "lset",
    "lset-complement",
    "lset-finite",
    "principal",
    "f2l",
    "ceq",
    "ceq-bound",
    "ceq-element",
    "closed-form",
    "transform",
    "oracle-check",
)


def _reference_add_common(sp, order=True, limit=False):
    sp.add_argument("--input", required=True, help="file path or inline JSON")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    if order:
        sp.add_argument("--order", default=None, help="lex | grevlex | wgrevlex:w1,w2,...")
    if limit:
        sp.add_argument("--limit", type=cli._integer_flag, default=None, help="truncation degree for infinite sets")


def _reference_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="monofact",
        description="factorization invariants of reduced monoids, exactly",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check reducedness, report the pointing data")
    sp.set_defaults(handler=cli._cmd_validate)
    _reference_add_common(sp, order=False)

    for name, helptext, handler in (
        ("ideal", "Groebner basis of the lattice ideal", cli._cmd_ideal),
        ("tilde-ideal", "Groebner basis of the length-homogenized lattice ideal", cli._cmd_tilde_ideal),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.set_defaults(handler=handler)
        _reference_add_common(sp)
        sp.add_argument("--minimal", action="store_true", help="trim to minimal generators")

    sp = sub.add_parser("kernel", help="Z-basis of the factorization-difference lattice")
    sp.set_defaults(handler=cli._cmd_kernel)
    _reference_add_common(sp, order=False)

    sp = sub.add_parser("apery", help="Apery set relative to --b")
    sp.set_defaults(handler=cli._cmd_apery)
    _reference_add_common(sp, limit=True)
    sp.add_argument("--b", required=True, help="JSON list of elements (path or inline)")

    sp = sub.add_parser("apery-finite", help="cone test for Apery finiteness")
    sp.set_defaults(handler=cli._cmd_apery_finite)
    _reference_add_common(sp, order=False)
    sp.add_argument("--b", required=True, help="JSON list of elements (path or inline)")

    sp = sub.add_parser("tset", help="generators of the two-factorizations ideal")
    sp.set_defaults(handler=cli._cmd_tset)
    _reference_add_common(sp, order=False)
    sp = sub.add_parser("lset", help="generators of the equal-length ideal")
    sp.set_defaults(handler=cli._cmd_lset)
    _reference_add_common(sp, order=False)

    sp = sub.add_parser("lset-complement", help="complement of the equal-length ideal")
    sp.set_defaults(handler=cli._cmd_lset_complement)
    _reference_add_common(sp, limit=True)

    sp = sub.add_parser("lset-finite", help="ray test for complement finiteness")
    sp.set_defaults(handler=cli._cmd_lset_finite)
    _reference_add_common(sp, order=False)

    sp = sub.add_parser("principal", help="is the equal-length ideal principal")
    sp.set_defaults(handler=cli._cmd_principal)
    _reference_add_common(sp, order=False)

    sp = sub.add_parser("f2l", help="largest integer without two equal-length factorizations")
    sp.set_defaults(handler=cli._cmd_f2l)
    _reference_add_common(sp, order=False)

    sp = sub.add_parser("ceq", help="equal catenary degree")
    sp.set_defaults(handler=cli._cmd_ceq)
    _reference_add_common(sp, order=False)

    sp = sub.add_parser("ceq-bound", help="consecutive-steps upper bound (numerical)")
    sp.set_defaults(handler=cli._cmd_ceq_bound)
    _reference_add_common(sp, order=False)

    sp = sub.add_parser("ceq-element", help="equal catenary degree of one element")
    sp.set_defaults(handler=cli._cmd_ceq_element)
    _reference_add_common(sp, order=False)
    sp.add_argument("--b", required=True, help="the element (path or inline JSON)")
    sp.add_argument("--cap", type=cli._integer_flag, default=10**6)

    sp = sub.add_parser("closed-form", help="family formulas, optionally engine-verified")
    sp.set_defaults(handler=cli._cmd_closed_form)
    sp.add_argument("--family", required=True, choices=("arithmetic", "almost", "unique-betti"))
    sp.add_argument("--params", required=True, help="JSON object (path or inline)")
    sp.add_argument("--verified", action="store_true", help="cross-check against the engine")
    sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = sub.add_parser("transform", help="ideal-preserving rewrites of a numerical presentation")
    sp.set_defaults(handler=cli._cmd_transform)
    _reference_add_common(sp)
    sp.add_argument("--ops", required=True, help='JSON list like [["subtract",7],["divide",3]]')

    sp = sub.add_parser("oracle-check", help="engine vs brute force under a weight cap")
    sp.set_defaults(handler=cli._cmd_oracle_check)
    _reference_add_common(sp, order=False)
    sp.add_argument("--what", required=True, choices=("lset", "tset", "ceq", "f"))
    sp.add_argument("--cap", type=cli._integer_flag, required=True)

    return top


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    # argparse wraps help at the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")


def _exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def _both(argv, capsys):
    new = _exit(cli.main, argv, capsys)
    old = _exit(_reference_parser().parse_args, argv, capsys)
    return new, old


@pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"] for c in COMMANDS])
def test_help_matches_the_reference_parser(capsys, argv):
    new, old = _both(argv, capsys)
    assert new == old
    assert new[0] == 0 and new[1].startswith("usage: monofact")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["lset"],
        ["apery", "--input", "{}"],
        ["lset", "--input", "{}", "--format", "xml"],
        ["oracle-check", "--input", "{}", "--what", "gaps", "--cap", "9"],
        ["oracle-check", "--input", "{}", "--what", "f", "--cap", "many"],
        ["lset-complement", "--input", "{}", "--limit", "2.5"],
        ["closed-form", "--family", "geometric", "--params", "{}"],
        ["lset", "--input", "{}", "--frobnicate"],
        ["tset", "--input", "{}", "--order", "lex"],
        ["lset", "--input", "{}", "--order", "lex"],
        ["principal", "--input", "{}", "--order", "lex"],
        ["f2l", "--input", "{}", "--order", "lex"],
        ["ceq", "--input", "{}", "--order", "lex"],
        ["closed-form", "--family", "almost", "--params", "{}", "--order", "lex"],
        ["oracle-check", "--input", "{}", "--what", "f", "--cap", "9", "--order", "lex"],
        ["ceq-element", "--input", "{}", "--b", "7", "--cap", "\u0665"],
        ["oracle-check", "--input", "{}", "--what", "lset", "--cap", "3_0"],
        ["apery", "--input", "{}", "--b", "[7]", "--limit", " 2"],
    ],
    ids=[
        "no-command",
        "unknown-command",
        "missing-input",
        "missing-b",
        "bad-format",
        "bad-what",
        "bad-cap",
        "bad-limit",
        "bad-family",
        "unknown-flag",
        "tset-order",
        "lset-order",
        "principal-order",
        "f2l-order",
        "ceq-order",
        "closed-form-order",
        "oracle-check-order",
        "non-ascii-cap",
        "underscore-cap",
        "padded-limit",
    ],
)
def test_argparse_errors_match_the_reference_parser(capsys, argv):
    new, old = _both(argv, capsys)
    assert new == old
    assert new[0] == 2 and new[1] == "" and "error:" in new[2]


_PLAIN = [
    ["validate", "--input", "x"],
    ["ideal", "--input", "x", "--minimal", "--order", "lex"],
    ["tilde-ideal", "--input", "x", "--format", "text"],
    ["kernel", "--input", "x"],
    ["apery", "--input", "x", "--b", "y", "--limit", "3"],
    ["apery-finite", "--input", "x", "--b", "y"],
    ["tset", "--input", "x"],
    ["lset", "--input", "x", "--format", "text"],
    ["lset-complement", "--input", "x"],
    ["lset-finite", "--input", "x"],
    ["principal", "--input", "x"],
    ["f2l", "--input", "x"],
    ["ceq", "--input", "x"],
    ["ceq-bound", "--input", "x"],
    ["ceq-element", "--input", "x", "--b", "y"],
    ["closed-form", "--family", "almost", "--params", "{}", "--verified"],
    ["transform", "--input", "x", "--ops", "[]"],
    ["oracle-check", "--input", "x", "--what", "f", "--cap", "7"],
]


@pytest.mark.parametrize(
    "argv",
    _PLAIN,
    ids=COMMANDS,
)
def test_parsed_arguments_match_the_reference_parser(argv):
    # defaults, types and the handler of each subcommand
    assert vars(cli._parser().parse_args(argv)) == vars(_reference_parser().parse_args(argv))


# each command's flags with values its spec takes, and the forms and
# values only argparse reads, or nothing reads
_OWN_FLAGS = {
    name: {
        flag: () if "action" in spec  # store_true
        else spec.get("choices") or (("7", "+7") if "type" in spec else ("x", "{}", ""))
        for flag, spec in map(cli._spec, flags)
    }
    for name, _, _, flags in cli._COMMANDS
}
_ALL_FLAGS = sorted({f for flags in _OWN_FLAGS.values() for f in flags})
_OTHER_TOKENS = ["--inp", "--form", "--input=x", "--format=json", "-h", "--help", "--", "-i"]
_VALUES = ["x", "", "-3", "3_0", "\u0665", "json", "xml", "7", "lex"]


@st.composite
def _argv(draw):
    """A command, then its flags in shuffled order, most with a value its
    spec takes, sometimes with another value, a missing value or flag,
    another command's flag, an abbreviation, a repeat or a token only
    argparse reads."""
    command = draw(st.sampled_from(COMMANDS + ("frobnicate", "lse", "-h", "")))
    own = _OWN_FLAGS.get(command, {})
    flags = [f for f in draw(st.permutations(sorted(own))) if draw(st.integers(0, 7))]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        odd = draw(st.sampled_from(sorted(own) + _ALL_FLAGS + _OTHER_TOKENS))
        flags.insert(draw(st.integers(0, len(flags))), odd)
    argv = [command]
    for flag in flags:
        argv.append(flag)
        good = own.get(flag)
        if (good != ()) == bool(draw(st.integers(0, 7))):  # else a missing or stray value
            argv.append(draw(st.sampled_from(good if good and draw(st.integers(0, 3)) else _VALUES)))
    return argv


_REFERENCE = _reference_parser()


@settings(max_examples=600, deadline=None)
@given(_argv())
def test_the_reader_agrees_with_the_reference_parser(argv):
    read = cli._read(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = _REFERENCE.parse_args(argv)
        except SystemExit:
            expected = None
    if read is not None:
        assert expected is not None and vars(read) == vars(expected)


@pytest.mark.parametrize("argv", _PLAIN, ids=COMMANDS)
def test_the_reader_takes_every_plain_command_line(argv):
    read = cli._read(argv)
    assert read is not None and vars(read) == vars(_reference_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["tset", "--help"],
        ["tset", "-h"],
        ["tset", "--inp", "x"],
        ["tset", "--input=x"],
        ["tset", "--input", "x", "--input", "y"],
        ["ideal", "--input", "x", "--minimal", "--minimal"],
        ["tset", "--", "--input", "x"],
        ["tset", "--input", "x", "--"],
        ["lset-complement", "--input", "x", "--limit", "-3"],
        ["lse", "--input", "x"],
        ["--help"],
        [],
    ],
    ids=[
        "help",
        "h",
        "abbreviation",
        "equals",
        "repeat",
        "repeated-switch",
        "double-dash",
        "trailing-double-dash",
        "dash-value",
        "command-prefix",
        "top-help",
        "empty",
    ],
)
def test_the_reader_leaves_other_forms_to_argparse(argv):
    assert cli._read(argv) is None
