"""Source hygiene: every name a library module imports is used in it, no
library module converts to float except for padic.INFINITY, and every
entry point the benchmark tracer wraps still exists."""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "padicdyn"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for each import, skipping __future__ directives."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def annotation_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def referenced_names(tree):
    """Names loaded anywhere, including inside quoted annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotation_nodes(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = referenced_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Sequence\n\ndef f(x: 'Sequence[int]'):\n    return x\n")
    used = referenced_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["os"]


def float_calls(tree):
    """(line, target) of each float(...) call; target names the assigned
    variable when the call is the whole right-hand side of an assignment."""
    targets = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            targets[id(node.value)] = node.targets[0].id
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, targets.get(id(node))


def test_no_float_outside_infinity():
    found = [
        (path.name, target, line)
        for path in sorted(SOURCE.glob("*.py"))
        for line, target in float_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert [(name, target) for name, target, _ in found] == [("padic.py", "INFINITY")], found


def test_the_guard_sees_a_float_call():
    tree = ast.parse('INFINITY = float("inf")\nx = max(1, float(2))\n')
    assert list(float_calls(tree)) == [(1, "INFINITY"), (2, None)]


def test_every_traced_entry_point_resolves():
    # a renamed entry point would otherwise be reported as 0 calls
    # executed from its source, so nothing is written under perfbench/
    path = ROOT / "perfbench" / "tracer.py"
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(tracer))
    missing = []
    for _, module, path, _ in tracer.TARGETS:
        importlib.import_module(module)
        if tracer._resolve(module, path) is None:
            missing.append(f"{module}:{path}")
    assert not missing, f"traced entry points not found: {', '.join(missing)}"
