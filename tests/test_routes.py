"""Every public top-level name in src/loowit has a production route, and imports run one way.

A public function or class stays in the package only when some code in
src/loowit uses it outside its own definition (module-level code and
annotations count), or when loowit/__init__.py exports it. A second route
kept only to cross-check a production one belongs in tests/oracles.py.

No module imports another module's _-prefixed name: what modules share is
public. Imports run down the module order ORDER: no module imports one at or
after its own place (the package __init__ is exempt).

PENDING holds the functions the benchmark still traces (perfbench/layers.py,
TRACED) although nothing calls them; each leaves the set when it is deleted
or gains a caller, and the tests below keep the set from going stale. Every
traced name must resolve to an attribute of its loowit module.
"""

import ast
from collections import Counter
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loowit"

ORDER = ["linalg", "loo", "states", "criteria", "witness", "sweep", "cli"]

PENDING = {
    "criteria.classify_family_point",
    "criteria.ppt_check",
    "criteria.pair_correlation",
    "criteria.realignment_value",
    "criteria.perm_reduction_family",
    "linalg.partial_trace",
    "linalg.realign",
    "linalg.herm_eigvalues",
    "loo.apply_orthogonal",
    "sweep.evaluate_point",
}


def names_used(node: ast.AST) -> Counter:
    """How often each name is read in node's subtree, as a bare name or as an attribute."""
    used = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            used[child.id] += 1
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            used[child.attr] += 1
    return used


def uncalled() -> set[str]:
    """The "module.name" of each public top-level def or class that nothing in src/loowit uses or exports."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    used = sum((names_used(tree) for tree in modules.values()), Counter())
    exported = {
        alias.name for node in modules["__init__"].body if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    return {
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in exported
        and used[node.name] == names_used(node)[node.name]  # every use lies inside its own definition
    }


def traced() -> list[str]:
    """perfbench/layers.py's TRACED list, read from the file's text without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no TRACED list")


def test_every_traced_name_resolves():
    # the benchmark wraps each traced name by attribute, so a name that leaves src/ breaks its traced runs
    modules = {name: name.split(".") for name in traced()}
    missing = [name for name, (module, attr) in modules.items() if not hasattr(import_module(f"loowit.{module}"), attr)]
    assert not missing, f"traced names with no attribute in src/loowit: {missing}"


def test_every_public_name_has_a_route():
    missing = sorted(uncalled() - PENDING)
    assert not missing, f"public names with no caller in src/ and no export: {missing}; move them to tests/oracles.py"


def test_pending_names_are_traced_and_still_uncalled():
    assert sorted(PENDING - set(traced())) == []
    assert sorted(PENDING - uncalled()) == []


def relative_imports() -> list[tuple[Path, ast.ImportFrom]]:
    """Each relative ``from . import`` statement of the package, with its file."""
    return [
        (path, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
    ]


def describe(path: Path, node: ast.ImportFrom) -> str:
    names = ", ".join(alias.name for alias in node.names)
    return f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {names}"


def test_no_private_cross_module_imports():
    bad = [
        f"{describe(path, node)}: {alias.name} is private"
        for path, node in relative_imports()
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not bad, bad


def test_imports_follow_the_layer_order():
    bad = [
        f"{describe(path, node)}: {target} is not before {path.stem} in {' -> '.join(ORDER)}"
        for path, node in relative_imports()
        if path.stem != "__init__"
        for target in ([node.module] if node.module else [alias.name for alias in node.names])
        if path.stem not in ORDER or target not in ORDER or ORDER.index(target) >= ORDER.index(path.stem)
    ]
    assert not bad, bad


def test_count_bounds_live_in_require_count():
    # A lower bound on a count or dimension is one rule, linalg.require_count. A raise elsewhere whose
    # message states a bound with ">=" ("must be >= 2", "needs d >= 3") is a hand-written count check.
    rule = next(
        node
        for node in ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "require_count"
    )
    bounds = [
        (path.name, text.lineno, text.value)
        for path in sorted(PACKAGE.glob("*.py"))
        for statement in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(statement, ast.Raise)
        for text in ast.walk(statement)
        if isinstance(text, ast.Constant) and isinstance(text.value, str) and ">=" in text.value
    ]
    own = [b for b in bounds if b[0] == "linalg.py" and rule.lineno <= b[1] <= rule.end_lineno]
    assert len(own) == 1, "the guard no longer sees require_count's own message"
    assert [b for b in bounds if b not in own] == []


def readers(name: str) -> list[str]:
    """The "module.top" of each read of name in src/loowit, top being the enclosing top-level def or class."""
    return sorted(
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for path in sorted(PACKAGE.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for _ in range(names_used(top)[name])
    )


def test_weights_are_judged_by_one_rule():
    # A weights row is valid iff states.in_simplex accepts it. Its mask is read by check_weights, which
    # raises on it, and by special_slice, which hands it to the sweep to keep the valid grid points (and to
    # the PENDING sweep.evaluate_point and criteria.classify_family_point). In states.py special_slice
    # gives its weights alone, so no family constructor judges a point by a rule of its own.
    assert readers("in_simplex") == ["states.check_weights", "states.special_slice"]
    tree = ast.parse((PACKAGE / "states.py").read_text(encoding="utf-8"))

    def slice_call(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "special_slice"

    calls = [node.lineno for node in ast.walk(tree) if slice_call(node)]
    weights_only = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and slice_call(node.value) and getattr(node.slice, "value", None) == 0
    ]
    assert sorted(calls) == sorted(weights_only), "states.py reads special_slice's mask"
