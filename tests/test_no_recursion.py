"""No function in the package calls itself.

A proof is as deep as its circuit is long, so a recursive walk over it fails
at the interpreter's recursion limit (about 1000 frames) on ordinary inputs.
Every traversal goes through `calculus.walk`, which keeps its own stack; this
test keeps recursion from coming back unnoticed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qmc"


def _self_calls(tree: ast.AST) -> list[str]:
    """`name` for every function or closure named `name` that calls `name(...)`,
    `self.name(...)` or `cls.name(...)` anywhere in its body."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if isinstance(callee, ast.Name) and callee.id == fn.name:
                found.append(f"{fn.name} (line {call.lineno})")
            elif (
                isinstance(callee, ast.Attribute)
                and callee.attr == fn.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            ):
                found.append(f"{fn.name} (line {call.lineno})")
    return found


def test_the_detector_sees_functions_methods_and_closures():
    source = """
def f(n):
    return f(n - 1)

class C:
    def m(self):
        return self.m()

def outer():
    def inner():
        inner()
    return inner

def fine(node):
    return [g(p) for p in node]
"""
    assert [name.split()[0] for name in _self_calls(ast.parse(source))] == [
        "f",
        "m",
        "inner",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    assert _self_calls(ast.parse(path.read_text(encoding="utf-8"))) == []
