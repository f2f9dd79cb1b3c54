"""Every module parses under the grammar of the oldest CPython that
pyproject.toml admits, 3.10: a newer construct (``except*``, a ``type``
statement, a PEP 695 type parameter) fails here rather than only on a
3.10 interpreter.  This checks grammar only, not which stdlib APIs exist."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
MODULES = sorted([*(ROOT / "src" / "manetsim").glob("*.py"),
                  *(ROOT / "tools").glob("*.py")])


def test_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
