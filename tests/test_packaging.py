"""The package declares exactly the third-party modules that it imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent
# Import name -> distribution name, where they differ.
DISTRIBUTIONS = {"yaml": "pyyaml"}


def imported_modules() -> set[str]:
    """Top-level names of the absolute imports anywhere in ``src/llmevolve/*.py``."""
    names = set()
    for path in (ROOT / "src" / "llmevolve").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_are_exactly_the_imports():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.split(r"[\s<>=!~;\[]", entry, maxsplit=1)[0].lower() for entry in declared}
    third_party = imported_modules() - set(sys.stdlib_module_names) - {"llmevolve"}
    assert {DISTRIBUTIONS.get(name, name) for name in third_party} == declared
