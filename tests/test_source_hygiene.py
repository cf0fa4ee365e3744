"""Source hygiene that a linter would check: no unused import, no dead
private name, no change to the interpreter's digit limit.

Three AST checks over `src/qmc`:

- every name that a module other than `__init__.py` (which imports to
  re-export) binds by `import` is used in that module;
- every module-level `_private` name is referenced somewhere in `src/qmc`,
  as a name or as an attribute;
- no module names `set_int_max_str_digits`, as a name, an attribute or a
  string: qmc prints exact numbers of any length under whatever limit on
  int-to-str conversion the interpreter has, and never lifts it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qmc"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _names_read(tree: ast.AST) -> set[str]:
    """Every name and every attribute name that the tree mentions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with the line of each."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def _module_private(tree: ast.Module) -> dict[str, int]:
    """The `_private` names the module binds at top level, with their lines."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in found for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                bound[name] = node.lineno
    return bound


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _names_read(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but unused (name: line): {unused}"


def test_every_module_level_private_name_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    used = set().union(*map(_names_read, trees.values()))
    dead = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _module_private(tree).items()
        if name not in used
    ]
    assert not dead, f"private names nothing in src/qmc references: {dead}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_sets_the_digit_limit(path):
    tree = _tree(path)
    strings = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "set_int_max_str_digits" not in _names_read(tree) | imported | strings, path.name
