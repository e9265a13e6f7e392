"""Command line surface: JSON contracts, exit codes, determinism."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from monofact import cli, oracle, same_length
from monofact.catenary import ceq
from monofact.closed_forms import (
    AlmostArithmeticFamily,
    ArithmeticFamily,
    UniqueBettiShiftFamily,
    normalized_presentation_transforms,
)
from monofact.errors import HypothesisViolated, InvalidInput, InvalidScalar, MonoidError
from monofact.monoid import numerical, presentation_from_data
from monofact.oracle import f2l_bruteforce, lset_bruteforce, monoid_elements
from monofact.same_length import f2l


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lset_canonical_json(capsys):
    code, out, err = run(capsys, "lset", "--input", '{"numerical":[17,29,37,47]}')
    assert code == 0 and err == ""
    assert out == '{"generators":[111],"principal":true}\n'


def test_repeat_runs_are_byte_identical(capsys):
    args = ("tset", "--input", '{"numerical":[3,5,7]}')
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
    assert first[1] == '{"generators":[10,12,14],"principal":false}\n'


def test_validate_fields(capsys):
    code, out, _ = run(capsys, "validate", "--input", '{"numerical":[3,5,7]}')
    assert code == 0
    assert json.loads(out) == {
        "valid": True,
        "rank": 1,
        "torsion": [],
        "n": 3,
        "numerical": True,
        "minimal": True,
        "pointing": [1],
        "weights": [3, 5, 7],
    }


def test_input_accepts_a_file_path(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text('{"numerical":[3,5,7]}')
    code, out, _ = run(capsys, "lset", "--input", str(f))
    assert code == 0
    assert out == '{"generators":[10],"principal":true}\n'


@pytest.mark.parametrize("kind", ["directory", "utf-16"])
def test_unreadable_input_file_exits_2(tmp_path, capsys, kind):
    path = tmp_path
    if kind == "utf-16":
        path = tmp_path / "m.json"
        path.write_bytes('{"numerical":[3,5,7]}'.encode("utf-16"))  # starts with \xff\xfe
    code, out, err = run(capsys, "lset", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: --input names an unreadable file")


def test_invalid_input_exits_2(capsys):
    code, _, err = run(capsys, "lset", "--input", '{"numerical":[]}')
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("lset", "--input", '{"numerical":[3.5,5,7]}'),
        ("lset", "--input", '{"numerical":[true,5,7]}'),
        ("lset", "--input", '{"numerical":["abc",5]}'),
        ("validate", "--input", '{"rank":1,"torsion":[2.9],"generators":[[2,0],[3,1]]}'),
        ("validate", "--input", '{"rank":1.0,"generators":[[3],[5]]}'),
        (
            "apery",
            "--input",
            '{"rank":1,"torsion":[2],"generators":[[2,0],[3,1],[4,1]]}',
            "--b",
            "[[12.9,0]]",
        ),
        ("lset", "--input", '{"rank":1,"torsion":5,"generators":[[1]]}'),
        ("lset", "--input", '{"rank":1,"generators":[5,7]}'),
        ("closed-form", "--family", "unique-betti", "--params", '{"b":5,"t":2,"c":[3.9,2]}'),
        ("closed-form", "--family", "unique-betti", "--params", '{"b":5,"t":2,"c":[3,true]}'),
        (
            "closed-form",
            "--family",
            "unique-betti",
            "--params",
            '{"b":5,"t":2,"c":[3,2],"f":[1.5]}',
        ),
        ("transform", "--input", '{"numerical":[3,5,7]}', "--ops", '[["subtract",2.7]]'),
        ("lset", "--input", '{"numerical":["\u0661\u0667",29,37,47]}'),
        ("lset", "--input", '{"numerical":["1_7",29,37,47]}'),
        ("lset", "--input", '{"numerical":[" 17\\n",29,37,47]}'),
        ("ceq-element", "--input", '{"numerical":[3,5,7]}', "--b", '"1_2"'),
        ("ideal", "--input", '{"numerical":[3,5,7]}', "--order", "block:\u0661"),
        ("validate", "--input", '{"numerical":[3,5,7],"rank":1}'),
        ("closed-form", "--family", "unique-betti", "--params", '{"b":5,"t":2,"c":"32"}'),
        ("closed-form", "--family", "unique-betti", "--params", '{"b":5,"t":2,"c":32}'),
    ],
    ids=[
        "float",
        "bool",
        "word",
        "float-modulus",
        "float-rank",
        "float-element",
        "scalar-torsion",
        "scalar-generator",
        "float-modulus-c",
        "bool-modulus-c",
        "float-multiplier-f",
        "float-transform-scalar",
        "non-ascii-digits",
        "underscore-digits",
        "padded-digits",
        "underscore-scalar-element",
        "non-ascii-block-split",
        "unknown-presentation-key",
        "string-modulus-row-c",
        "scalar-modulus-row-c",
    ],
)
def test_non_integer_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("ceq-element", "--input", '{"numerical":[3,5,7]}', "--b", "7", "--cap", "\u0665"),
        ("oracle-check", "--input", '{"numerical":[3,5,7]}', "--what", "lset", "--cap", "3_0"),
        ("lset-complement", "--input", '{"numerical":[3,5,7]}', "--limit", "2.0"),
    ],
    ids=["non-ascii-cap", "underscore-cap", "decimal-limit"],
)
def test_integer_flags_are_read_like_input_data(capsys, argv):
    # --limit and --cap go through the reader of every other integer, so
    # "٥" and "3_0" are refused (exit 2) instead of read as 5 and 30
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "expected an integer" in err and "Traceback" not in err
    assert run(capsys, *argv[:-1], "30" if argv[-2] == "--cap" else "2")[0] == 0


def test_closed_form_reads_decimal_strings_like_presentations(capsys):
    # "b":"7" is 7, as a presentation's "7" is; only the reader differs from "b":7
    assert AlmostArithmeticFamily(3, 2, 2, "7") == AlmostArithmeticFamily(3, 2, 2, 7)
    family = ("closed-form", "--family", "almost", "--params")
    code, out, _ = run(capsys, *family, '{"m1":3,"e":2,"n":2,"b":"7"}')
    assert (code, out) == run(capsys, *family, '{"m1":3,"e":2,"n":2,"b":7}')[:2]
    assert code == 0


def test_not_reduced_exits_3(capsys):
    code, _, err = run(
        capsys, "validate", "--input", '{"rank":1,"generators":[[2],[-3]]}'
    )
    assert code == 3
    assert "pointed" in err


def test_infinite_without_limit_exits_4(capsys):
    code, _, err = run(
        capsys,
        "apery",
        "--input",
        '{"rank":2,"generators":[[0,2],[1,2],[1,1],[3,2],[4,2]]}',
        "--b",
        "[[3,6],[4,4],[9,6]]",
    )
    assert code == 4
    assert "infinite" in err.lower()


def test_negative_limit_exits_2(capsys):
    code, out, err = run(
        capsys,
        "apery",
        "--input",
        '{"rank":2,"torsion":[],"generators":[[1,0],[0,1]]}',
        "--b",
        "[[1,0]]",
        "--limit",
        "-2",
    )
    assert code == 2 and out == ""
    assert "limit" in err


def test_f2l_on_two_generators_exits_2(capsys):
    code, _, err = run(capsys, "f2l", "--input", '{"numerical":[3,5]}')
    assert code == 2
    assert "n <= 2" in err


def test_principal_of_an_empty_l_set_exits_2(capsys):
    code, out, err = run(capsys, "principal", "--input", '{"numerical":[3,5]}')
    assert (code, out) == (2, "")
    assert "L_S is empty" in err


_FREE_2 = '{"rank":2,"generators":[[1,0],[0,1]]}'  # independent free parts: ker S = 0
_35 = '{"numerical":[3,5]}'  # ker S = <(5,-3)>, of sum 2: ker S~ = 0


@pytest.mark.parametrize(
    "data, every_generator, apery",
    [
        (_FREE_2, "[[1,0],[0,1]]", '{"count":1,"elements":[[0,0]],"finite":true,"limit":null}'),
        (_35, "[3,5]", '{"count":1,"elements":[0],"finite":true,"limit":null}'),
    ],
    ids=["free-parts-independent", "lift-kernel-zero"],
)
def test_zero_lifted_kernels_are_pinned(capsys, data, every_generator, apery):
    # L_S is empty, c_eq is 0 and I_{S~} has no minimal generator; Ap_S
    # of every generator is {0}
    assert run(capsys, "lset", "--input", data) == (0, '{"empty":true}\n', "")
    assert run(capsys, "ceq", "--input", data) == (0, '{"value":0}\n', "")
    assert run(capsys, "tilde-ideal", "--minimal", "--input", data) == (
        0,
        '{"degrees":[],"elements":[],"groebner":false,"minimal_generating":true,'
        '"order":"grevlex","reduced":false}\n',
        "",
    )
    code, out, err = run(capsys, "lset-complement", "--input", data)
    assert (code, out) == (2, "") and "L_S is empty" in err
    assert run(capsys, "apery", "--input", data, "--b", every_generator) == (0, apery + "\n", "")


@pytest.mark.parametrize("data", [_FREE_2, _35], ids=["free-parts-independent", "lift-kernel-zero"])
@pytest.mark.parametrize(
    "command", [("ideal",), ("tilde-ideal",), ("tilde-ideal", "--minimal")],
    ids=["ideal", "tilde-ideal", "tilde-ideal-minimal"],
)
def test_an_order_that_does_not_fit_a_zero_ideal_exits_2(capsys, command, data):
    # n = 2 variables against three weights: refused before the empty basis
    code, out, err = run(capsys, *command, "--input", data, "--order", "wgrevlex:1,2,3")
    assert (code, out) == (2, "")
    assert "weight vector length does not match variables" in err


@pytest.mark.parametrize("order", ["block:-1", "block:4"], ids=["negative", "past-n"])
def test_block_split_outside_the_variables_exits_2(capsys, order):
    code, out, err = run(capsys, "ideal", "--input", '{"numerical":[3,5,7]}', "--order", order)
    assert code == 2 and out == ""
    assert "split" in err


def test_block_order_ideal_is_pinned(capsys):
    code, out, _ = run(capsys, "ideal", "--input", '{"numerical":[3,5,7]}', "--order", "block:1")
    assert code == 0
    assert out == (
        '{"elements":[{"minus":[0,0,5],"plus":[0,7,0]},{"minus":[0,2,0],"plus":[1,0,1]},'
        '{"minus":[0,0,4],"plus":[1,5,0]},{"minus":[0,0,3],"plus":[2,3,0]},'
        '{"minus":[0,0,2],"plus":[3,1,0]},{"minus":[0,1,1],"plus":[4,0,0]}],'
        '"groebner":true,"minimal_generating":false,"order":"block:1:grevlex:grevlex",'
        '"reduced":true}\n'
    )


RANK2_FREE = '{"rank":2,"generators":[[-5,2],[-4,4],[1,-6],[4,-5]]}'
TORSION3 = '{"rank":1,"torsion":[3],"generators":[[-4,2],[-3,2],[-2,1],[-1,1]]}'


def test_a_truncated_complement_under_lex_is_pinned(capsys):
    # the truncation follows the order: 29 elements under lex, 35 under grevlex
    args = ("lset-complement", "--input", RANK2_FREE, "--limit", "3")
    code, out, _ = run(capsys, *args, "--order", "lex")
    assert code == 0
    assert out == (
        '{"count":29,"elements":[[-14,8],[-13,10],[-12,12],[-10,4],[-9,6],[-8,8],[-7,2],'
        "[-6,-1],[-5,1],[-5,2],[-4,3],[-4,4],[-3,-2],[-2,-8],[-1,-3],[0,-1],[0,0],[1,-7],"
        "[1,-6],[2,-12],[3,-18],[3,-8],[4,-6],[4,-5],[5,-11],[6,-17],[8,-10],[9,-16],"
        '[12,-15]],"finite":false,"limit":3}\n'
    )
    code, out, _ = run(capsys, *args)
    assert code == 0 and json.loads(out)["count"] == 35


def test_a_finite_apery_set_under_lex_is_pinned(capsys):
    args = ("apery", "--input", TORSION3, "--b", "[[-2,1]]")
    expected = (
        '{"count":6,"elements":[[-5,2],[-4,1],[-3,0],[-2,2],[-1,1],[0,0]],'
        '"finite":true,"limit":null}\n'
    )
    assert run(capsys, *args, "--order", "lex") == (0, expected, "")
    assert run(capsys, *args) == (0, expected, "")


def test_a_wgrevlex_ideal_names_its_weights(capsys):
    code, out, _ = run(
        capsys, "ideal", "--input", '{"numerical":[3,5,7]}', "--order", "wgrevlex:1,2,3"
    )
    assert code == 0
    assert out == (
        '{"elements":[{"minus":[1,0,1],"plus":[0,2,0]},{"minus":[4,0,0],"plus":[0,1,1]},'
        '{"minus":[3,1,0],"plus":[0,0,2]}],"groebner":true,"minimal_generating":false,'
        '"order":"wgrevlex:1,2,3","reduced":true}\n'
    )


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lset", "--input", "{}", "--frobnicate"])
    assert exc.value.code == 2


def test_big_integers_serialize_as_strings(capsys):
    big = 1 << 70
    code, out, _ = run(
        capsys, "kernel", "--input", json.dumps({"numerical": [big, big + 1]})
    )
    assert code == 0
    data = json.loads(out)
    flat = json.dumps(data)
    assert str(big) in flat
    # the kernel of <N, N+1> is spanned by (N+1, -N)
    assert data["basis"] == [[str(big + 1), str(-big)]]


def test_text_format_renders_binomials(capsys):
    code, out, _ = run(
        capsys, "ideal", "--input", '{"numerical":[3,5]}', "--format", "text"
    )
    assert code == 0
    assert "x1^5 - x2^3" in out


def test_apery_torsion_count(capsys):
    code, out, _ = run(
        capsys,
        "apery",
        "--input",
        '{"rank":1,"torsion":[2],"generators":[[2,0],[3,1],[4,1]]}',
        "--b",
        "[[12,0]]",
    )
    assert code == 0
    data = json.loads(out)
    assert data["finite"] is True and data["count"] == 24


def test_closed_form_report_keys(capsys):
    code, out, _ = run(
        capsys,
        "closed-form",
        "--family",
        "almost",
        "--params",
        '{"m1":17,"e":3,"n":5,"b":7}',
    )
    assert code == 0
    data = json.loads(out)
    rep = data["ceq_forms"]
    assert data["ceq"] == 6
    assert rep["engine"] == 6
    assert rep["proof_form"] == 6
    assert rep["printed_form"] == 5
    assert rep["forms_agree"] is False
    assert rep["engine_matches_proof"] is True
    assert data["lset"]["generators"] == [40, 43, 46, 49, 52, 102, 105]


_357 = '{"numerical":[3,5,7]}'
_TORSION_5 = '{"rank":2,"torsion":[5],"generators":[[-5,-3,3],[2,-3,3],[5,-5,3],[6,-4,0]]}'
_INFINITE_COMPLEMENT = (
    '{"rank":2,"torsion":[5],"generators":[[-5,-4,2],[-5,6,1],[-4,-3,4],[1,1,4]]}'
)
_PAPER = '{"numerical":[17,29,37,47]}'


def _transform_stages(*values):
    # every stage of a transform of <3,5,7> has the one lifted ideal
    return (
        '{"ideals_equal":true,"stages":['
        + ",".join(
            '{"ideal":{"elements":[{"minus":[1,0,1],"plus":[0,2,0]}],"groebner":true,'
            '"minimal_generating":false,"order":"grevlex","reduced":true},"values":%s}' % v
            for v in values
        )
        + "]}"
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("ideal", "--minimal", "--input", _357),
            '{"degrees":[10,12,14],"elements":[{"minus":[1,0,1],"plus":[0,2,0]},'
            '{"minus":[0,1,1],"plus":[4,0,0]},{"minus":[0,0,2],"plus":[3,1,0]}],'
            '"groebner":false,"minimal_generating":true,"order":"grevlex","reduced":false}',
        ),
        (
            ("tilde-ideal", "--minimal", "--input", _357),
            '{"degrees":[[10,2]],"elements":[{"minus":[1,0,1],"plus":[0,2,0]}],'
            '"groebner":false,"minimal_generating":true,"order":"grevlex","reduced":false}',
        ),
        (("kernel", "--input", _357), '{"basis":[[1,-2,1],[0,7,-5]],"nvars":3}'),
        (
            (
                "closed-form", "--family", "almost",
                "--params", '{"m1":5,"e":2,"n":3,"b":8}', "--verified",
            ),
            '{"ceq":2,"ceq_forms":{"engine":2,"engine_matches_printed":true,'
            '"engine_matches_proof":true,"forms_agree":true,"printed_form":2,"proof_form":2},'
            '"family":"almost","generators":[5,7,8,9],'
            '"lset":{"generators":[14,16],"principal":false}}',
        ),
        (
            ("transform", "--input", _357, "--ops", '[["subtract",2],["reflect",5]]'),
            _transform_stages("[3,5,7]", "[1,3,5]", "[4,2,0]"),
        ),
        (("ceq", "--input", _PAPER), '{"value":5}'),
        (("ceq-bound", "--input", _PAPER), '{"value":11}'),
        (("lset-finite", "--input", _357), '{"finite":true}'),
        (("lset-finite", "--input", _INFINITE_COMPLEMENT), '{"finite":false}'),
        (("apery-finite", "--input", _TORSION_5, "--b", "[[-5,-3,3]]"), '{"finite":false}'),
        (
            ("apery-finite", "--input", _TORSION_5, "--b", "[[-5,-3,3],[6,-4,0]]"),
            '{"finite":true}',
        ),
        (("principal", "--input", _PAPER), '{"generator":111,"principal":true}'),
        (
            ("principal", "--input", '{"numerical":[10,13,19,27,38]}'),
            '{"generators":[39,64,67],"principal":false}',
        ),
        (
            ("tilde-ideal", "--input", _TORSION_5),
            '{"elements":[{"minus":[25,0,0,70],"plus":[0,60,35,0]}],"groebner":true,'
            '"minimal_generating":false,"order":"grevlex","reduced":true}',
        ),
        (
            ("tilde-ideal", "--input", _PAPER),
            '{"elements":[{"minus":[1,0,0,2],"plus":[0,0,3,0]},'
            '{"minus":[3,0,0,2],"plus":[0,5,0,0]}],"groebner":true,'
            '"minimal_generating":false,"order":"grevlex","reduced":true}',
        ),
        (
            ("closed-form", "--family", "arithmetic", "--params", '{"m1":5,"e":2,"n":3}'),
            '{"family":"arithmetic","generators":[5,7,9],'
            '"lset":{"generators":[14],"principal":true}}',
        ),
        (
            (
                "closed-form", "--family", "unique-betti",
                "--params", '{"b":17,"t":2,"c":[5,3,2]}', "--verified",
            ),
            '{"ceq":5,"family":"unique-betti","generators":[17,29,37,47],'
            '"lset":{"generators":[111],"principal":true},"m_values":[6,10,15]}',
        ),
        (
            ("transform", "--input", _357, "--ops", '[["multiply",2]]'),
            _transform_stages("[3,5,7]", "[6,10,14]"),
        ),
    ],
    ids=[
        "ideal-minimal", "tilde-ideal-minimal", "kernel", "closed-form-report", "transform",
        "ceq", "ceq-bound", "lset-finite-true", "lset-finite-false", "apery-finite-false",
        "apery-finite-true", "principal-true", "principal-false", "tilde-ideal-torsion",
        "tilde-ideal-numerical", "closed-form-arithmetic", "closed-form-unique-betti",
        "transform-multiply",
    ],
)
def test_value_payloads_are_pinned(capsys, argv, expected):
    # each subcommand's success payload, byte for byte, in this process
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == expected + "\n"


def test_closed_form_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["closed-form", "--family", "mystery", "--params", "{}"])
    assert exc.value.code == 2


def test_closed_form_rejects_missing_params(capsys):
    code, _, err = run(capsys, "closed-form", "--family", "almost", "--params", '{"m1":17}')
    assert code == 2


def test_transform_chain(capsys):
    code, out, _ = run(
        capsys,
        "transform",
        "--input",
        '{"numerical":[17,20,23,26,29]}',
        "--ops",
        '[["subtract",17],["divide",3]]',
    )
    assert code == 0
    data = json.loads(out)
    assert data["ideals_equal"] is True
    assert [s["values"] for s in data["stages"]] == [
        [17, 20, 23, 26, 29],
        [0, 3, 6, 9, 12],
        [0, 1, 2, 3, 4],
    ]


def test_transform_bad_divisor_exits_2(capsys):
    code, _, _ = run(
        capsys, "transform", "--input", '{"numerical":[10,15]}', "--ops", '[["divide",4]]'
    )
    assert code == 2


def test_transform_stages_with_different_ideals_exit_5(capsys, monkeypatch):
    # equal ideals give equal reduced bases; here the second stage is handed
    # the basis of I_S instead of that of I_{S~}, which no working engine does
    real, calls = cli.lattice_ideal, []

    def swapped(stage, order):
        calls.append(stage)
        return real(numerical([3, 5, 7]) if len(calls) == 2 else stage, order=order)

    monkeypatch.setattr(cli, "lattice_ideal", swapped)
    code, out, err = run(capsys, "transform", "--input", _357, "--ops", '[["subtract",2]]')
    assert (code, out, err) == (5, "", "error: transform stages generate different ideals\n")
    assert len(calls) == 2


@pytest.mark.parametrize(
    "ops, error, message",
    [
        ([["multiply", 0]], InvalidScalar, "multiply needs a positive scalar"),
        ([["multiply", -1]], InvalidScalar, "multiply needs a positive scalar"),
        ([["reflect", 6]], InvalidScalar, "reflect needs 6 >= max of the values"),
        ([["subtract"]], InvalidInput, "malformed transform step ['subtract']: "),
        ([["subtract", 1, 2]], InvalidInput, "malformed transform step ['subtract', 1, 2]: "),
        ([5], InvalidInput, "malformed transform step 5: "),
        ([["rotate", 2]], InvalidInput, "unknown transform 'rotate'"),
    ],
    ids=[
        "multiply-zero", "multiply-negative", "reflect-below-max", "step-too-short",
        "step-too-long", "step-not-a-pair", "unknown-op",
    ],
)
def test_transform_refusals_exit_2(capsys, ops, error, message):
    # the message starts as given; a malformed step adds Python's unpacking text
    code, out, err = run(capsys, "transform", "--input", _357, "--ops", json.dumps(ops))
    with pytest.raises(error) as exc:
        normalized_presentation_transforms([3, 5, 7], ops)
    assert str(exc.value).startswith(message)
    assert (code, out, err) == (2, "", f"error: {exc.value}\n")


_NOT_POSITIVE = "numerical generators must be positive"


@pytest.mark.parametrize(
    "values, cli_message, message",
    [
        ([0, 3], _NOT_POSITIVE, "transform input must be positive integers"),
        ([-3, 5], _NOT_POSITIVE, "transform input must be positive integers"),
        ([3, 3, 5], "duplicate generator 3", "transform input must be distinct"),
    ],
    ids=["zero", "negative", "repeated"],
)
def test_transform_refuses_values_not_positive_or_repeated(capsys, values, cli_message, message):
    # the CLI reads --input as a presentation, which refuses these values
    # before the transforms see them
    argv = ["transform", "--input", json.dumps({"numerical": values}), "--ops", "[]"]
    assert run(capsys, *argv) == (2, "", f"error: {cli_message}\n")
    with pytest.raises(InvalidInput) as exc:
        normalized_presentation_transforms(values, [])
    assert str(exc.value) == message


_FAMILIES = {
    "arithmetic": ArithmeticFamily,
    "almost": AlmostArithmeticFamily,
    "unique-betti": UniqueBettiShiftFamily,
}


@pytest.mark.parametrize(
    "family, params, error, message",
    [
        ("arithmetic", {"m1": 0, "e": 2, "n": 3}, InvalidInput, "m1, e and n must be positive"),
        (
            "arithmetic", {"m1": 5, "e": 2, "n": 1},
            HypothesisViolated, "an arithmetic family needs n >= 2 terms",
        ),
        ("arithmetic", {"m1": 4, "e": 2, "n": 3}, HypothesisViolated, "gcd(m1, e) must be 1"),
        (
            "almost", {"m1": 5, "e": 2, "n": 3, "b": -1},
            InvalidInput, "m1, e, n and b must be positive",
        ),
        (
            "almost", {"m1": 5, "e": 2, "n": 1, "b": 8},
            HypothesisViolated, "the arithmetic part needs n >= 2 terms",
        ),
        ("almost", {"m1": 4, "e": 2, "n": 3, "b": 9}, HypothesisViolated, "gcd(m1, e) must be 1"),
        (
            "unique-betti", {"b": 17, "t": 2, "c": [5, 0]},
            InvalidInput, "b, t and every c_i and f_i must be positive",
        ),
        (
            "unique-betti", {"b": 17, "t": 2, "c": [5]},
            HypothesisViolated, "need at least two moduli c_i",
        ),
        (
            "unique-betti", {"b": 17, "t": 2, "c": [5, 3, 2], "f": [1]},
            InvalidInput, "need one multiplier f_i per index 1..n-1",
        ),
    ],
    ids=[
        "arithmetic-not-positive", "arithmetic-n-below-2", "arithmetic-gcd",
        "almost-not-positive", "almost-n-below-2", "almost-gcd",
        "unique-betti-not-positive", "unique-betti-one-modulus", "unique-betti-multiplier-count",
    ],
)
def test_closed_form_family_hypotheses_exit_2(capsys, family, params, error, message):
    argv = ["closed-form", "--family", family, "--params", json.dumps(params)]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    with pytest.raises(error) as exc:
        _FAMILIES[family](**params)
    assert str(exc.value) == message


@pytest.mark.parametrize("what", ["lset", "tset", "ceq", "f"])
def test_oracle_check_lset_passes(capsys, what):
    code, out, _ = run(
        capsys,
        "oracle-check",
        "--input",
        '{"numerical":[3,5,7]}',
        "--what",
        what,
        "--cap",
        "40",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    p = numerical([3, 5, 7])
    if what == "lset":
        assert data["engine_count"] == data["oracle_count"] == 28
    elif what == "tset":
        assert data["engine_count"] == data["oracle_count"]
    elif what == "ceq":
        assert data["engine"] == data["oracle"] == ceq(p)
    else:
        assert data["engine"] == data["oracle"] == f2l(p)
    if what in ("lset", "tset"):
        assert data["missing_from_engine"] == [] and data["extra_in_engine"] == []


_TORSION_INPUT = '{"rank":1,"torsion":[3],"generators":[[-4,2],[-3,2],[-2,1],[-1,1]]}'


@pytest.mark.parametrize(
    "what, line",
    [
        (
            "lset",
            '{"cap":40,"engine_count":102,"extra_in_engine":[],"missing_from_engine":[],'
            '"ok":true,"oracle_count":102,"what":"lset"}',
        ),
        ("ceq", '{"cap":40,"engine":6,"ok":true,"oracle":6,"what":"ceq","witness_covered":true}'),
    ],
)
def test_oracle_check_with_torsion_is_pinned(capsys, what, line):
    # engine membership is read off the fiber map, whose residues merge mod 3
    code, out, _ = run(
        capsys, "oracle-check", "--input", _TORSION_INPUT, "--what", what, "--cap", "40"
    )
    assert code == 0
    assert out == line + "\n"


@pytest.mark.parametrize(
    "data", ['{"numerical":[3,5,7]}', _TORSION_INPUT], ids=["3-5-7", "torsion"]
)
@pytest.mark.parametrize("what", ["lset", "tset", "ceq", "f"])
def test_oracle_check_prints_the_library_check(capsys, data, what):
    # the CLI reads the input and prints oracle.check's dict; F_2l of the
    # torsion input is refused the same way by both
    code, out, err = run(capsys, "oracle-check", "--input", data, "--what", what, "--cap", "40")
    try:
        expected = oracle.check(presentation_from_data(json.loads(data)), what, 40)
    except MonoidError as exc:
        assert (what, code, out, err) == ("f", exc.exit_code, "", f"error: {exc}\n")
    else:
        assert (code, json.loads(out)) == (0 if expected["ok"] else 5, expected)


def test_oracle_check_mismatch_exits_5(capsys, monkeypatch):
    def fake(p, what, cap):
        return {"ok": False, "missing_from_engine": [7]}

    monkeypatch.setattr(oracle, "check", fake)
    code, out, _ = run(
        capsys,
        "oracle-check",
        "--input",
        '{"numerical":[3,5,7]}',
        "--what",
        "lset",
        "--cap",
        "40",
    )
    assert code == 5
    assert json.loads(out)["ok"] is False



@pytest.mark.parametrize(
    "values",
    [[5, 6, 7, 8], list(AlmostArithmeticFamily(5, 2, 3, 8).generators)],
    ids=["5-6-7-8", "almost-5-2-3-8"],
)
def test_f2l_payload_matches_brute_force(capsys, values):
    code, out, _ = run(capsys, "f2l", "--input", json.dumps({"numerical": values}))
    assert code == 0
    data = json.loads(out)
    p = numerical(values)
    assert data["value"] == f2l_bruteforce(p, 60)
    in_l = {e.free[0] for e in lset_bruteforce(monoid_elements(p, 60))}
    assert data["complement"] == [x for x in range(data["value"] + 1) if x not in in_l]


_F2L_ON_A_GENERATOR_OUTSIDE_S = """
import sys
from monofact import cli, same_length

if not sys.flags.optimize:
    sys.exit("not running under -O")
# the gap 1 as the only L_S generator: it lies outside S
same_length.l_set = lambda p, order=None: same_length.MonoidIdeal(p, (p.element((1,)),))
sys.exit(cli.main(["f2l", "--input", '{"numerical":[5,6,7,8]}']))
"""


def _one_gigabyte_of_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_in_bounds(argv, timeout):
    # a cold request under a fixed time and address space
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "monofact.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_one_gigabyte_of_address_space,
    )


def _assert_refused_in_bounds(argv, timeout):
    # exit 2, an error line and no traceback
    proc = _run_in_bounds(argv, timeout)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_f2l_past_the_listing_cap_prints_the_value_alone():
    # the complement of L_S holds 1,667,166,685 integers; they are counted,
    # not listed, and the payload carries F_2l with a null complement
    proc = _run_in_bounds(["f2l", "--input", '{"numerical":[100003,100005,100009]}'], 60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0,
        '{"complement":null,"value":3334000019}\n',
        "",
    )
    assert f2l(numerical([100003, 100005, 100009])) == 3334000019


@pytest.mark.parametrize(
    "values, expected",
    [
        (
            [2003, 2039, 2061, 2069, 2081],
            [8156, 8186, 8222, 8246, 10279, 10321, 10345, 110231, 110237, 110273, 110281, 114455],
        ),
        ([100007, 100009, 100021], [700063, 1429000027, 1429400051]),
    ],
    ids=["2003", "100007"],
)
def test_t_set_of_clustered_generators_answers_in_bounds(values, expected):
    # the paper's almost-arithmetic shape: the degrees of I_S are trimmed
    # by one truncated Buchberger run over I_S, however large they are
    proc = _run_in_bounds(["tset", "--input", json.dumps({"numerical": values})], 10)
    payload = json.dumps({"generators": expected, "principal": False}, separators=(",", ":"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, payload + "\n", "")


def test_closed_form_of_the_paper_shape_verifies_in_bounds():
    # <1009, 1040, ..., 1164, 1500>: the formula's degrees are trimmed by the
    # run that trims L_S, with no search; mutual membership ran past 120 s
    params = '{"m1":1009,"e":31,"n":6,"b":1500}'
    argv = ["closed-form", "--family", "almost", "--params", params, "--verified"]
    proc = _run_in_bounds(argv, 20)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        '{"ceq":99,"ceq_forms":{"engine":99,"engine_matches_printed":false,'
        '"engine_matches_proof":true,"forms_agree":false,"printed_form":98,"proof_form":99},'
        '"family":"almost","generators":[1009,1040,1071,1102,1133,1164,1500],'
        '"lset":{"generators":[2080,2111,2142,2173,2204,2235,2266,115205,115236],'
        '"principal":false}}\n'
    )


def test_f2l_past_the_residue_table_cap_exits_2():
    # the residue table holds one entry per residue modulo the smallest
    # generator: 100000007 of them are refused before the table is built
    argv = ["f2l", "--input", '{"numerical":[100000007,100000009,100000013]}']
    _assert_refused_in_bounds(argv, 10)



def test_f2l_leaves_out_exactly_a_complement_past_the_cap(capsys, monkeypatch):
    # <5,6,7,8> has 14 integers outside L_S: a cap of 14 lists them, 13 not
    argv = ("f2l", "--input", '{"numerical":[5,6,7,8]}')
    monkeypatch.setattr(same_length, "_LISTING_CAP", 14)
    assert run(capsys, *argv)[:2] == (
        0,
        '{"complement":[0,1,2,3,4,5,6,7,8,9,10,11,15,16],"value":16}\n',
    )
    monkeypatch.setattr(same_length, "_LISTING_CAP", 13)
    assert run(capsys, *argv)[:2] == (0, '{"complement":null,"value":16}\n')

def test_apery_past_the_listing_cap_exits_2():
    # a numerical Ap(S, b) has b elements: 10^9 are refused from that
    # count, before the member search for b and the staircase walk
    argv = ["apery", "--input", '{"numerical":[3,5,7]}', "--b", "[[1000000000]]"]
    _assert_refused_in_bounds(argv, 10)



def test_a_truncated_walk_past_the_listing_cap_exits_2():
    # Ap_S((50, 50)) in N^2 holds 100 elements of each total degree past 99:
    # the walk to total degree 10^5 stops once it keeps 10^6 monomials
    argv = ["apery", "--input", '{"rank":2,"generators":[[1,0],[0,1]]}', "--b", "[[50,50]]"]
    _assert_refused_in_bounds([*argv, "--limit", "100000"], 60)


def test_a_truncated_complement_past_the_listing_cap_exits_2():
    # the truncated S \ L_S of this rank-2 torsion monoid grows with the
    # limit; each walked monomial is decided by one truncated engine run,
    # with no factorization search, so the walk to total degree 10^5 reaches
    # the cap of 10^6 monomials in seconds
    data = '{"rank":2,"torsion":[5],"generators":[[-5,-4,2],[-5,6,1],[-4,-3,4],[1,1,4]]}'
    _assert_refused_in_bounds(["lset-complement", "--limit", "100000", "--input", data], 60)


def test_oracle_past_its_count_cap_exits_2():
    # the weight cap 10^8 admits about 10^21 coefficient vectors of <3,5,7>;
    # the walk stores each one, and stops at the listing cap of 10^6
    argv = ["oracle-check", "--input", '{"numerical":[3,5,7]}', "--what", "lset"]
    _assert_refused_in_bounds([*argv, "--cap", "100000000"], 30)


def test_ceq_element_past_the_listing_cap_exits_2():
    # 10^5 has about 4.8e7 factorizations in <3,5,7>; listing them stops
    # at the cap of 10^6, a few seconds in, whatever --cap allows
    argv = ["ceq-element", "--input", '{"numerical":[3,5,7]}', "--b", "100000"]
    _assert_refused_in_bounds(argv, 60)


def test_ceq_element_past_the_pair_cap_exits_2():
    # 4000 has 76,477 factorizations in <3,5,7>, under the listing cap, but
    # their length classes hold 10,177,921 pairs: counted, not sorted
    argv = ["ceq-element", "--input", '{"numerical":[3,5,7]}', "--b", "4000"]
    _assert_refused_in_bounds(argv, 60)


_ONE_REQUEST = """
import sys
sys.path.insert(0, sys.argv[1])
from monofact import cli
code = cli.main(sys.argv[2:])
sys.stdout.flush()
loaded = [m for m in ("argparse", "monofact.closed_forms") if m in sys.modules]
sys.stderr.write(" ".join(loaded))
sys.exit(code)
"""


def test_a_plain_request_imports_neither_argparse_nor_closed_forms():
    # a plain command line is read off the table; an abbreviation goes
    # through argparse, and both answer with the same bytes
    src = str(Path(__file__).resolve().parents[1] / "src")
    plain, abbreviated = [
        subprocess.run(
            [sys.executable, "-I", "-c", _ONE_REQUEST, src, "tset", flag, '{"numerical":[3,5,7]}'],
            capture_output=True,
            timeout=60,
        )
        for flag in ("--input", "--inp")
    ]
    assert (plain.returncode, plain.stderr) == (0, b"")
    assert (abbreviated.returncode, abbreviated.stderr) == (0, b"argparse")
    assert plain.stdout == abbreviated.stdout == b'{"generators":[10,12,14],"principal":false}\n'


def test_cli_cross_check_holds_under_python_O():
    # asserts vanish under -O; the F_2l guard is a typed error and must not
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _F2L_ON_A_GENERATOR_OUTSIDE_S],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("error:")
