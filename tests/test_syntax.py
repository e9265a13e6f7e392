"""Every source file parses as Python 3.10, the oldest version the
package supports (``requires-python``), so syntax new in 3.11 fails here
before it fails on a 3.10 install."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "monofact").glob("*.py"))


def test_the_package_sources_are_found():
    assert ROOT / "src" / "monofact" / "cli.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
