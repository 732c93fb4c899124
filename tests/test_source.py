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


def test_commands_raise_and_only_main_reports():
    # a cmd_* function computes, writes its output and raises; main alone prints the error line and
    # picks the exit code
    tree = ast.parse((Path(propb.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    stderr = {
        f.name
        for f in functions
        for sub in ast.walk(f)
        if f.name != "main" and isinstance(sub, ast.Attribute) and sub.attr == "stderr"
        and isinstance(sub.value, ast.Name) and sub.value.id == "sys"
    }
    returning = {
        f.name
        for f in functions
        for sub in ast.walk(f)
        if f.name.startswith("cmd_") and isinstance(sub, ast.Return) and sub.value is not None
    }
    assert (stderr, returning) == (set(), set())


def test_conftest_oracles_import_no_private_kernel():
    # the oracles stay independent of the kernels they check; _edge_slots is the slot layout masks are written in
    tree = ast.parse((Path(__file__).parent / "conftest.py").read_text(encoding="utf-8"))
    private = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "propb"
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private <= {"_edge_slots"}


def test_no_module_imports_an_option_parser():
    # cli parses the command line from its own command table, so no command pays for argparse and gettext
    imported = set()
    for path in Path(propb.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert not imported & {"argparse", "optparse", "getopt"}


def _module_constants() -> set[str]:
    """Upper-case names that some module of src/propb binds at its top level."""
    names = set()
    for path in Path(propb.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name) and t.id.isupper())
    return names


def _budget_raises(node, where: str):
    """(where, raise statement) for every `raise BudgetExceeded` under node, nested functions included."""
    for child in ast.iter_child_nodes(node):
        inner = f"{where}:{child.name}" if isinstance(child, ast.FunctionDef) else where
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "BudgetExceeded":
                yield f"{inner}:{child.lineno}", child
        yield from _budget_raises(child, inner)


def test_every_budget_exit_reads_a_named_constant():
    # exit 3 means that a guard ran out, and a guard is a module constant: each raise of BudgetExceeded
    # reads one, so its message states the limit and no limit hides in a literal
    constants = _module_constants()
    literal = []
    for path in sorted(Path(propb.__file__).parent.glob("*.py")):
        for where, node in _budget_raises(ast.parse(path.read_text(encoding="utf-8")), path.stem):
            read = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            read |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
            if not read & constants:
                literal.append(where)
    assert literal == []
