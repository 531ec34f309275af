"""Source contracts that no run of the program can show: read from the AST."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import doleans
from doleans import girsanov, mc, paths, stochexp

TRANSCENDENTALS = {"exp", "expm1", "log1p", "log"}

#: Functions allowed ``math``'s transcendentals: ``spence`` ports Cephes,
#: whose logarithms are the C library's.
MATH_ALLOWED = {(paths, "spence")}

MODULES = sorted(m.name for m in pkgutil.iter_modules(doleans.__path__)
                 if m.name != "__init__")


def _math_transcendentals(tree: ast.AST, allowed: set[str]) -> list[int]:
    """Lines of ``math.exp``-like references outside the functions ``allowed``."""
    lines = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.FunctionDef) and node.name in allowed:
            return
        if (isinstance(node, ast.Attribute) and node.attr in TRANSCENDENTALS
                and isinstance(node.value, ast.Name) and node.value.id == "math"):
            lines.append(node.lineno)
        if (isinstance(node, ast.ImportFrom) and node.module == "math"
                and any(a.name in TRANSCENDENTALS for a in node.names)):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return lines


@pytest.mark.parametrize("module", [paths, stochexp, girsanov, mc],
                         ids=lambda m: m.__name__)
def test_one_transcendental_source(module):
    # the README's promise: exp, expm1, log1p and log come from NumPy's
    # ufuncs (doleans.transcendental), never from math
    allowed = {name for m, name in MATH_ALLOWED if m is module}
    lines = _math_transcendentals(ast.parse(inspect.getsource(module)), allowed)
    assert not lines, (f"math transcendentals at lines {lines} of "
                       f"{module.__name__}: use doleans.transcendental or np")


def test_the_source_check_sees_a_math_call():
    tree = ast.parse("import math\ndef f(x):\n    return math.log1p(x)\n"
                     "def spence(x):\n    return math.log(x)\n")
    assert _math_transcendentals(tree, {"spence"}) == [3]


def _unused_imports(tree: ast.AST) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    module = importlib.import_module(f"doleans.{name}")
    unused = _unused_imports(ast.parse(inspect.getsource(module)))
    assert not unused, f"doleans.{name} imports {unused} without using them"


def test_the_import_check_sees_an_unused_name():
    tree = ast.parse("import math\nfrom dataclasses import dataclass, field\n"
                     "@dataclass\nclass C:\n    x: float = math.pi\n")
    assert _unused_imports(tree) == ["field"]
