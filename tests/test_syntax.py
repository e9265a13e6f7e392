"""Every source file parses as Python 3.10, the oldest version the
package supports (``requires-python``), so syntax new in 3.11 fails here
before it fails on a 3.10 install.  Parsing does not catch a name that is
new in 3.11 (a module, a module attribute or a builtin), so those are
refused by a walk of each module's syntax tree."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "monofact").glob("*.py"))

# Names added in Python 3.11, by module; None stands for the whole module.
NEW_IN_3_11 = {
    "tomllib": None,
    "wsgiref.types": None,
    "asyncio": {"Barrier", "BrokenBarrierError", "Runner", "TaskGroup", "Timeout", "timeout", "timeout_at"},
    "contextlib": {"chdir"},
    "datetime": {"UTC"},
    "enum": {
        "EnumCheck", "FlagBoundary", "ReprEnum", "StrEnum", "global_enum", "member",
        "nonmember", "property", "show_flag_values", "verify",
    },
    "hashlib": {"file_digest"},
    "inspect": {"getmembers_static"},
    "logging": {"getLevelNamesMapping"},
    "math": {"cbrt", "exp2"},
    "operator": {"call"},
    "typing": {
        "LiteralString", "Never", "NotRequired", "Required", "Self", "TypeVarTuple", "Unpack",
        "assert_never", "assert_type", "clear_overloads", "dataclass_transform",
        "get_overloads", "reveal_type",
    },
}
NEW_BUILTINS = {"BaseExceptionGroup", "ExceptionGroup"}
NEW_METHODS = {"add_note"}  # BaseException.add_note


def names_new_in_3_11(source: str) -> list[str]:
    """The 3.11 names that ``source`` uses, as "module.name" or "name"."""
    nodes = list(ast.walk(ast.parse(source)))
    # local name -> the module it is bound to, wherever it is imported
    modules = {
        alias.asname or alias.name: alias.name
        for node in nodes
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if NEW_IN_3_11.get(a.name, ()) is None]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            new = NEW_IN_3_11.get(node.module, ())
            for alias in node.names:
                if new is None or alias.name in new:
                    found.append(f"{node.module}.{alias.name}")
                if NEW_IN_3_11.get(f"{node.module}.{alias.name}", ()) is None:
                    found.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                module = modules[node.value.id]
                if node.attr in (NEW_IN_3_11.get(module) or ()):
                    found.append(f"{module}.{node.attr}")
            if node.attr in NEW_METHODS:
                found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in NEW_BUILTINS:
            found.append(node.id)
        elif isinstance(node, getattr(ast, "TryStar", ())):
            found.append("except*")
    return found


def test_the_package_sources_are_found():
    assert ROOT / "src" / "monofact" / "cli.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_uses_no_name_new_in_python_3_11(path):
    assert names_new_in_3_11(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, name",
    [
        ("import tomllib", "tomllib"),
        ("from tomllib import loads", "tomllib.loads"),
        ("from wsgiref import types", "wsgiref.types"),
        ("raise ExceptionGroup('x', [ValueError()])", "ExceptionGroup"),
        ("from typing import Self", "typing.Self"),
        ("import typing\nx: typing.Self", "typing.Self"),
        ("import enum\nclass A(enum.StrEnum): pass", "enum.StrEnum"),
        ("import datetime as dt\nnow = dt.UTC", "datetime.UTC"),
        ("import hashlib\nhashlib.file_digest", "hashlib.file_digest"),
        ("from math import cbrt", "math.cbrt"),
        ("import math\nmath.exp2(3)", "math.exp2"),
        ("from operator import call", "operator.call"),
        ("import contextlib\nwith contextlib.chdir('/'): pass", "contextlib.chdir"),
        ("def f():\n    return asyncio.TaskGroup()\nimport asyncio", "asyncio.TaskGroup"),
        ("e = ValueError()\ne.add_note('x')", "add_note"),
        ("try:\n    pass\nexcept* ValueError:\n    pass", "except*"),
    ],
)
def test_the_walk_refuses_each_kind_of_3_11_name(source, name):
    if name == "except*" and not hasattr(ast, "TryStar"):
        # a 3.10 parser cannot read it at all
        with pytest.raises(SyntaxError):
            names_new_in_3_11(source)
    else:
        assert names_new_in_3_11(source) == [name]


def test_the_walk_passes_names_older_than_3_11():
    source = "import math\nfrom typing import Optional\nmath.gcd(2, 3)\nimport enum\nenum.Enum"
    assert names_new_in_3_11(source) == []
