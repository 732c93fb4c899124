"""Checks on the package source itself."""

import ast
from pathlib import Path

import propb
from propb import errors

# count_separated is the one-lane kernel the README documents for general
# hypergraphs; no command calls it.
CALLED_FROM_OUTSIDE = {"count_separated"}


def _references(node) -> set[str]:
    # a reference is a loaded name, an attribute, or an entry of a `from .x import` list
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and sub.level:
            out.update(alias.name for alias in sub.names)
    return out


def _unreferenced() -> dict[str, str]:
    """Top-level functions and classes of src/propb that no other top-level statement references, by module.

    A definition's references to itself (recursion) do not count.
    """
    defined, referenced = {}, set()
    for path in sorted(Path(propb.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            refs = _references(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
                refs.discard(node.name)
            referenced |= refs
    return {name: module for name, module in defined.items() if name not in referenced | CALLED_FROM_OUTSIDE}


def test_every_public_name_is_referenced_in_the_package():
    # slow oracles and reference versions of a kernel belong in the tests
    assert {name: module for name, module in _unreferenced().items() if not name.startswith("_")} == {}


def test_every_private_name_is_referenced_in_the_package():
    # a helper orphaned by a deleted caller fails here
    assert {name: module for name, module in _unreferenced().items() if name.startswith("_")} == {}


def _raised() -> set[str]:
    """Names of the exception classes that some `raise` statement in src/propb raises."""
    out = set()
    for path in Path(propb.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    out.add(exc.id)
    return out


def test_every_error_class_is_raised_in_the_package():
    # an error type no code path raises documents a failure no caller can meet
    declared = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.PropBError) and obj is not errors.PropBError
    }
    assert declared and declared - _raised() == set()
