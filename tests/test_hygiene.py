"""Source hygiene: every name a library module imports is used in it, no
library module imports inside a function, no library module converts to
float except for padic.INFINITY, every entry point the benchmark tracer
wraps still exists, shared series layer entries are never changed in place
and are read by the series module alone, only known call sites build
p-adics through the unchecked constructor, and only the series code that
packs and unpacks exponent keys reads their layout, no library function keeps process-wide
state in a module-level container except the odd-prime memo of arith, and
only series._parent finds the last variable of a monomial, the step of
every prefix-parent walk, only known series functions call the product
kernel _convolve, every private function is called by the library itself,
and every function reads each of its parameters."""

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


def function_imports(tree):
    """Line of each import statement inside a function body, at any depth."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines |= {n.lineno for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))}
    return sorted(lines)


def test_no_import_inside_a_function():
    # the library has no import cycle to break, so every import is at the top
    found = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        for line in function_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, f"imports inside functions: {', '.join(found)}"


def test_the_guard_sees_a_function_import():
    source = """
import os
from . import series


def f():
    from .arith import divisors
    return divisors


class A:
    import json

    def g(self):
        def inner():
            import math
            return math
        return inner
"""
    assert function_imports(ast.parse(source)) == [7, 16]


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


# MultiSeries shares its layer map and its layer entries, (den, {key:
# numerator}), between instances (as_polynomial, truncated, _merged),
# so no code may change them in place.  Only the constructors bind a layer
# map.
LAYER_CONSTRUCTORS = {"MultiSeries.__init__", "MultiSeries._raw"}
MUTATING_METHODS = {
    "pop", "popitem", "clear", "update", "setdefault", "__setitem__", "__delitem__",
    "append", "extend", "insert", "remove", "sort", "reverse",
}
SHARED_ATTRIBUTES = {"_packed"}


def functions(tree):
    """(qualified name, node) of every top-level function and method,
    methods as Class.name; nested functions belong to their parent."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node


def reads_layers(node, aliases):
    """True when node is shared series data: x._packed, an item or .get of
    one, either side of an or over one, a tuple holding one, or a local name
    bound to one."""
    if isinstance(node, ast.Name):
        return node.id in aliases
    if isinstance(node, ast.Attribute):
        return node.attr in SHARED_ATTRIBUTES
    if isinstance(node, ast.Subscript):
        return reads_layers(node.value, aliases)
    if isinstance(node, ast.BoolOp):
        return any(reads_layers(value, aliases) for value in node.values)
    if isinstance(node, ast.Tuple):
        return any(reads_layers(elt, aliases) for elt in node.elts)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
        return reads_layers(node.func.value, aliases)
    return False


def bound_names(target):
    """The names a target binds, through nested tuples and lists."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*(bound_names(elt) for elt in target.elts))
    return set()


def layer_aliases(function):
    """Local names bound to shared series data: by assignment, also by
    unpacking, or as the loop variables over its .values() or the value of
    its .items()."""
    aliases = set()
    changed = True
    while changed:
        before = len(aliases)
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and reads_layers(node.value, aliases):
                aliases |= set().union(*(bound_names(t) for t in node.targets))
            elif isinstance(node, (ast.For, ast.comprehension)):
                it = node.iter
                if not (isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute)):
                    continue
                if not reads_layers(it.func.value, aliases):
                    continue
                target = node.target
                if it.func.attr == "values":
                    aliases |= bound_names(target)
                elif it.func.attr == "items" and isinstance(target, ast.Tuple):
                    aliases |= bound_names(target.elts[1])
        changed = len(aliases) != before
    return aliases


def layer_mutations(tree):
    """(function, line) of each store into, or mutating call on, a layer map,
    a layer entry or its numerator dict, and of each rebinding of x._packed,
    outside the MultiSeries constructors."""
    for name, function in functions(tree):
        if name in LAYER_CONSTRUCTORS:
            continue
        aliases = layer_aliases(function)
        for node in ast.walk(function):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
                for target in targets:
                    if (isinstance(target, ast.Subscript) and reads_layers(target.value, aliases)) or (
                        isinstance(target, ast.Attribute) and target.attr in SHARED_ATTRIBUTES
                    ):
                        yield name, node.lineno
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in MUTATING_METHODS and reads_layers(node.func.value, aliases):
                    yield name, node.lineno


def test_no_layer_is_mutated_outside_the_constructors():
    found = [
        f"{path.name}:{line} ({name})"
        for path in MODULES
        for name, line in layer_mutations(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, f"shared MultiSeries layers changed in place: {', '.join(found)}"


def test_the_guard_sees_a_layer_mutation():
    source = '''
class MultiSeries:
    def __init__(self, packed):
        self._packed = packed
        self._packed[0] = (1, {})

    def bad(self, other):
        self._packed[1] = (1, {})
        other._packed[2][1][7] = 1
        den, nums = self._packed.get(3, (1, {}))
        nums[3] += 1
        for d, (den, nums) in self._packed.items():
            nums.pop(d, None)
        del self._packed[4]
        self._packed.get(5)[1].update({})
        self._packed = {}
        for entry in other._packed.values():
            entry[1].clear()
        shared = other._packed or {}
        shared.pop(3)
        mine, theirs = self._packed, other._packed
        (_, left), right = mine[1], theirs[2]
        left[0] = 1
        return [nums.popitem() for _, nums in other._packed.values()] + [right[1].clear()]

    def fine(self):
        copy = dict(self._packed)
        copy[0] = (1, {0: 1})
        copy.update(self._packed)
        den, nums = self._packed[1]
        fresh = {key: -v for key, v in nums.items()}
        fresh[0] = den
        return {d: (den, dict(nums)) for d, (den, nums) in self._packed.items()}
'''
    assert sorted(line for _, line in layer_mutations(ast.parse(source))) == [8, 9, 11, 13, 14, 15, 16, 18, 20, 23, 24, 24]


def test_only_the_series_module_reads_the_layer_map():
    # the storage format of a series is series.py's business alone: other
    # modules go through its readers, constructors and kernels
    found = [
        f"{path.name}:{line} ({name})"
        for path in MODULES
        if path.name != "series.py"
        for attribute in SHARED_ATTRIBUTES
        for name, line in name_uses(ast.parse(path.read_text(encoding="utf-8")), attribute)
    ]
    assert not found, f"series storage read outside series.py: {', '.join(found)}"


def test_the_guard_sees_a_layer_map_read():
    source = '''
from .series import MultiSeries


def denominators(phi):
    return [den for den, _ in phi._packed.values()]


class Solver:
    def step(self, comp):
        entry = comp._packed.get(2)
        return entry


FIRST = MultiSeries.zero(1, 1)._packed
'''
    assert sorted(name_uses(ast.parse(source), "_packed")) == [
        ("<module>", 15),
        ("Solver.step", 11),
        ("denominators", 6),
    ]


# padic._canonical stores its fields without checking them, so each call
# site must already hold a canonical result (padic module docstring)
CANONICAL_CALL_SITES = {
    ("padic.py", "PAdic._signed_sum"),
    ("padic.py", "_minus_multiple"),
    ("padic.py", "PAdic.__neg__"),
    ("padic.py", "PAdic.__mul__"),
    ("padic.py", "PAdic.__truediv__"),
    ("orbit.py", "iterate_in_neighbourhood"),
}


def name_uses(tree, name):
    """(function, line) of each read of name, by name or as an attribute,
    outside its definition, assignments and imports; module-level reads
    are reported as <module>."""
    owner = {}
    for function_name, function in functions(tree):
        for node in ast.walk(function):
            owner[id(node)] = function_name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name):
            if isinstance(node.ctx, ast.Load):
                yield owner.get(id(node), "<module>"), node.lineno


def test_canonical_is_called_only_at_known_sites():
    found = {
        (path.name, name)
        for path in MODULES
        for name, _ in name_uses(ast.parse(path.read_text(encoding="utf-8")), "_canonical")
    }
    assert found == CANONICAL_CALL_SITES


def test_the_guard_sees_a_canonical_call():
    source = '''
from .padic import _canonical
from . import padic


def _canonical(prime, valuation, unit_digits, precision):
    return None


class PAdic:
    def __mul__(self, other):
        return _canonical(self.prime, 0, 1, 1)

    def lift(self):
        def inner():
            return padic._canonical(3, 0, 1, 1)
        return inner()


make = _canonical
'''
    assert sorted(name_uses(ast.parse(source), "_canonical")) == [
        ("<module>", 20),
        ("PAdic.__mul__", 12),
        ("PAdic.lift", 16),
    ]


# only these functions call the product kernel _convolve: the product, the
# pivot induction, the series solve, and the power table, which builds every
# monomial power of an inner map (series module docstring), so a second
# power walk cannot return unnoticed
CONVOLVE_CALL_SITES = {
    ("series.py", "_mul"),
    ("series.py", "_graded_root"),
    ("series.py", "_PowerTable._step"),
    ("series.py", "_PowerTable.take"),
    ("series.py", "_series_solve"),
}


def test_convolve_is_called_only_at_known_sites():
    found = {
        (path.name, name)
        for path in MODULES
        for name, _ in name_uses(ast.parse(path.read_text(encoding="utf-8")), "_convolve")
    }
    assert found == CONVOLVE_CALL_SITES


def test_the_guard_sees_a_convolve_call():
    source = '''
from .series import _convolve
from . import series


class SeriesTuple:
    def compose(self, inner):
        entries = {}
        for key, (j, lower) in self.walk():
            entries[key] = _convolve(entries[lower], inner[j], self.trunc)
        return entries


def powers(a, n):
    return [series._convolve(a, a, n)]
'''
    assert sorted(name_uses(ast.parse(source), "_convolve")) == [("SeriesTuple.compose", 10), ("powers", 15)]


# the packed exponent key has one layout and one cap (series module
# docstring): the layout is read where exponent tuples are packed and
# unpacked, and the cap where a series is created
KEY_FORMAT_SITES = {
    "_key_fields": {
        ("series.py", "_packer"),
        ("series.py", "_unpacker"),
    },
    "_KEY_CAP": {("series.py", "MultiSeries.__init__"), ("series.py", "MultiSeries._raw")},
}


def test_the_key_format_is_read_only_at_known_sites():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    for name, sites in KEY_FORMAT_SITES.items():
        found = {(module, function) for module, tree in trees.items() for function, _ in name_uses(tree, name)}
        assert found == sites, name


def test_the_guard_sees_a_key_format_read():
    source = '''
from .series import _key_fields
_KEY_CAP = 1 << 16
WIDE = _KEY_CAP * 2


class MultiSeries:
    def _packer(self):
        return _key_fields(self.nvars)


def _convolve(a, b):
    return series._key_fields(2).pack(*a)
'''
    tree = ast.parse(source)
    assert sorted(name_uses(tree, "_key_fields")) == [("MultiSeries._packer", 9), ("_convolve", 13)]
    assert list(name_uses(tree, "_KEY_CAP")) == [("<module>", 4)]


# A container bound at module level, or in a class body, lives as long as the
# process, so a library function that writes one keeps state from call to
# call.  The one such memo is arith's set of accepted odd primes; per-run
# state, such as the lambda^I table of a conjugacy run, is built by the run
# and handed down through its arguments.
MODULE_STATE_WRITES = {("arith.py", "check_odd_prime", "_ODD_PRIMES")}
MUTABLE_FACTORIES = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}
WRITING_METHODS = MUTATING_METHODS | {"add", "append", "extend", "insert", "remove", "discard", "sort", "reverse"}
CACHING_DECORATORS = {"cache", "lru_cache"}


def builds_container(value):
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in MUTABLE_FACTORIES
    return False


def module_containers(tree):
    """Names bound to a mutable container at module level or in a top-level
    class body."""
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    names = set()
    for body in bodies:
        for node in body:
            if isinstance(node, ast.Assign) and builds_container(node.value):
                names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.AnnAssign) and node.value is not None and builds_container(node.value):
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
    return names


def state_writes(tree, containers):
    """(function, name, line) of each write into a named container inside a
    function: a store, delete or augmented assignment through a subscript or
    an attribute, a call of a mutating method (also on an item of it), or a
    global rebinding; a caching decorator is reported under its own name."""

    def container(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name) and node.id in containers:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in containers:
            return node.attr
        return None

    for function_name, function in functions(tree):
        for decorator in function.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
            if name in CACHING_DECORATORS:
                yield function_name, name, decorator.lineno
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                for name in node.names:
                    if name in containers:
                        yield function_name, name, node.lineno
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
                for target in targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)) and container(target):
                        yield function_name, container(target), node.lineno
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in WRITING_METHODS and container(node.func.value):
                    yield function_name, container(node.func.value), node.lineno


def test_module_state_is_written_only_at_known_sites():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    containers = set().union(*(module_containers(tree) for tree in trees.values()))
    found = {(module, function, name) for module, tree in trees.items() for function, name, _ in state_writes(tree, containers)}
    assert found == MODULE_STATE_WRITES


def test_the_guard_sees_a_module_state_write():
    source = '''
import functools
from collections import defaultdict

CACHE = {}
SEEN: set[int] = set()
ORDER = defaultdict(list)
LIMIT = (1, 2)
NAMES = [n for n in "ab"]


class Table:
    KEPT = []

    def grow(self, key):
        Table.KEPT.append(key)
        self.local = {}
        self.local[key] = 1


def remember(key, value):
    CACHE[key] = value
    SEEN.add(key)
    ORDER[key].append(value)
    local = {}
    local[key] = value
    return LIMIT[0] + CACHE.get(key) + len(NAMES)


def reset():
    global NAMES
    NAMES = []
    del CACHE[1]
    other.CACHE = {}


@functools.lru_cache(maxsize=None)
def cached(x):
    return x
'''
    tree = ast.parse(source)
    containers = module_containers(tree)
    assert containers == {"CACHE", "SEEN", "ORDER", "NAMES", "KEPT"}
    assert sorted(state_writes(tree, containers)) == [
        ("Table.grow", "KEPT", 16),
        ("cached", "lru_cache", 37),
        ("remember", "CACHE", 22),
        ("remember", "ORDER", 24),
        ("remember", "SEEN", 23),
        ("reset", "CACHE", 33),
        ("reset", "CACHE", 34),
        ("reset", "NAMES", 31),
    ]


# a walk over fixed monomials steps from I to its prefix parent
# I - e_last(I) through series._parent, and the chain walk of the power
# tables steps there where no parent of I is kept (series module
# docstring), so the last-variable search max(i for i, e in enumerate(I)
# if e) is written there alone
LAST_VARIABLE_SITES = {("series.py", "_parent")}


def last_variable_searches(tree):
    """(function, line) of each max(...) over a comprehension of enumerate
    with a condition, such as max(i for i, e in enumerate(exps) if e);
    module-level ones are reported as <module>."""
    owner = {}
    for function_name, function in functions(tree):
        for node in ast.walk(function):
            owner[id(node)] = function_name
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "max"):
            continue
        for arg in node.args:
            if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                for gen in arg.generators:
                    it = gen.iter
                    if gen.ifs and isinstance(it, ast.Call) and isinstance(it.func, ast.Name) and it.func.id == "enumerate":
                        yield owner.get(id(node), "<module>"), node.lineno


def test_the_last_variable_is_found_only_in_parent():
    found = {
        (path.name, function)
        for path in MODULES
        for function, _ in last_variable_searches(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == LAST_VARIABLE_SITES


def test_the_guard_sees_a_last_variable_search():
    source = """
def _parent(exps):
    j = max(i for i, e in enumerate(exps) if e)
    return j


class Probe:
    def steps(self, monos):
        return [max([i for i, e in enumerate(m) if e > 0]) for m in monos]


LAST = max(k for k, x in enumerate((0, 1)) if x)
top = max(e for e in (1, 2))
first = next(i for i, e in enumerate((0, 1)) if e)
widest = max(i for i, e in enumerate((0, 1)))
"""
    assert sorted(last_variable_searches(ast.parse(source))) == [
        ("<module>", 12),
        ("Probe.steps", 9),
        ("_parent", 3),
    ]


def unreferenced_private_functions(trees):
    """(module, name, line) of each function or method named with one
    leading underscore that no code outside its own body loads, by name or
    as an attribute, in any of the given {module: tree}."""
    defined, loads = [], []  # loads: (name, ids of the enclosing functions)

    def visit(node, module, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                defined.append((module, node.name, node.lineno, id(node)))
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.append((node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, module, enclosing)

    for module, tree in trees.items():
        visit(tree, module, frozenset())
    return sorted(
        (module, name, line)
        for module, name, line, node in defined
        if not any(load == name and node not in enclosing for load, enclosing in loads)
    )


def test_no_private_function_is_dead():
    # a tracer target (perfbench/tracer.py) or a test does not keep a
    # private helper alive: the library itself must call it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))}
    assert unreferenced_private_functions(trees) == []


def test_the_guard_sees_a_dead_private_function():
    used = """
def _helper(x):
    return x


def _recursive(n):
    return _recursive(n - 1) if n else 0


class Table:
    def _step(self):
        return 1

    def _unused_method(self):
        return self._step()

    def __len__(self):
        return 0


def run():
    return _helper(1) + Table()._step()
"""
    other = "from .a import _helper\n\n\ndef _dead():\n    return _helper\n"
    found = unreferenced_private_functions({"a.py": ast.parse(used), "b.py": ast.parse(other)})
    assert found == [("a.py", "_recursive", 6), ("a.py", "_unused_method", 14), ("b.py", "_dead", 4)]


def unread_parameters(trees):
    """(module, function, parameter) for each parameter that its function's
    body, nested functions included, never loads, in any of the given
    {module: tree}.  Dunder methods are exempt, since their signature is
    fixed by the protocol they implement, and so is the receiver (self or
    cls) of every other method, which an override must keep."""
    found = []

    def visit(node, module, in_class):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                args = node.args
                params = [a for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
                if in_class and not static:
                    params = params[1:]
                loaded = {
                    n.id
                    for stmt in node.body
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                found.extend((module, node.name, a.arg) for a in params if a.arg not in loaded)
        for child in ast.iter_child_nodes(node):
            visit(child, module, isinstance(node, ast.ClassDef))

    for module, tree in trees.items():
        visit(tree, module, False)
    return sorted(found)


def test_every_parameter_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))}
    assert unread_parameters(trees) == []


def test_the_guard_sees_an_unread_parameter():
    source = """
def _verify(block, projectors, ordered):
    return [block, projectors]


def reads_in_a_closure(x, unused=None):
    def inner():
        return x
    return inner


class Parser:
    def error(self, message):
        raise ValueError("usage")

    @staticmethod
    def build(spec, trunc):
        return spec

    def __exit__(self, *exc):
        return False
"""
    assert unread_parameters({"a.py": ast.parse(source)}) == [
        ("a.py", "_verify", "ordered"),
        ("a.py", "build", "trunc"),
        ("a.py", "error", "message"),
        ("a.py", "reads_in_a_closure", "unused"),
    ]
