"""The package is numpy-only: every module under ``src/segxfer`` imports
nothing but numpy, the standard library and ``segxfer`` itself.  And it
imports nothing it does not use, so a fold that removes the last use of a
name removes its import too."""

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


def imported_names(tree):
    """The names the module's imports bind, but ``from __future__``'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert set(imported_names(tree)) - used == set()
