"""The package is numpy-only: every module under ``src/segxfer`` imports
nothing but numpy, the standard library and ``segxfer`` itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "segxfer"
ALLOWED = {"numpy", "segxfer"} | set(sys.stdlib_module_names)


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_numpy_and_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert set(imported_roots(tree)) <= ALLOWED


def test_the_checked_directory_is_the_package():
    assert (PACKAGE / "__init__.py").is_file()
