"""Checks on the package source itself."""

import ast
from pathlib import Path

import propb

# count_separated is the one-lane kernel the README documents for general
# hypergraphs; no command calls it.
CALLED_FROM_OUTSIDE = {"count_separated"}


def test_every_public_name_is_referenced_in_the_package():
    # a reference is a loaded name, an attribute, or an entry of a `from .x import` list;
    # slow oracles and reference versions of a kernel belong in the tests
    defined, referenced = {}, set()
    for path in sorted(Path(propb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level:
                referenced.update(alias.name for alias in node.names)
    unreferenced = {name: module for name, module in defined.items() if name not in referenced | CALLED_FROM_OUTSIDE}
    assert unreferenced == {}
