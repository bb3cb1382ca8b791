"""The package is numpy-only: every module under ``src/segxfer`` imports
nothing but numpy, the standard library and ``segxfer`` itself.  And it
imports nothing it does not use, so a fold that removes the last use of a
name removes its import too.  And it reads and writes no files."""

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


FILE_CALLS = {"open", "numpy.load", "numpy.save", "numpy.fromfile", "json.load", "json.dump"}


def called_names(tree):
    """The dotted names the module calls, with ``import x as y`` aliases
    resolved: ``np.load(...)`` is ``numpy.load``."""
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names if alias.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            root, dot, rest = ast.unparse(node.func).partition(".")
            yield aliases.get(root, root) + dot + rest


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_does_no_file_io(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert {name for name in called_names(tree)
            if name in FILE_CALLS or name.endswith(".tofile")} == set()
    assert "pathlib" not in set(imported_roots(tree))
