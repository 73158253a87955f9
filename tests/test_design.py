"""Design rules: one thread pool in the package, none where threads do not pay;
the benchmark harness does not depend on the regressors; one function builds
a branch net; every public name has a caller besides its own unit tests."""

import ast
import threading
from pathlib import Path

import numpy as np

import vqakit
from vqakit.regressors import fit_forest

SRC = Path(vqakit.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def _imports_thread_pool(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and any(
            a.name == "ThreadPoolExecutor" for a in node.names
        ):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "ThreadPoolExecutor":
            return True
    return False


def test_one_module_imports_thread_pool():
    users = sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")
                   if _imports_thread_pool(p))
    assert users == ["_parallel.py"]


def test_fit_forest_starts_no_threads(monkeypatch):
    started = []
    orig = threading.Thread.start

    def spy(self):
        started.append(self.name)
        return orig(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    rng = np.random.default_rng(0)
    fit_forest(rng.random((30, 4)), rng.random(30), n_trees=4, seed=0, threads=4)
    assert started == []


def test_bench_harness_does_not_import_regressors():
    imported = []
    for node in ast.walk(ast.parse((SRC / "bench_harness.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.append(("." * node.level) + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert imported, "the parse found no imports at all"
    assert not [m for m in imported if "regressors" in m.split(".")]


def test_only_init_branchnet_builds_a_net():
    callers = []
    for path in SRC.rglob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                isinstance(c, ast.Call) and getattr(c.func, "id", None) == "BranchNet"
                for c in ast.walk(fn)
            ):
                callers.append(fn.name)
    assert callers == ["init_branchnet"]


def _referenced(tree: ast.AST) -> set[str]:
    """Every identifier a module names, as a variable, an attribute, an import
    or a dotted string (perfbench's span targets name functions by string)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def _public_returns(tree: ast.AST) -> set[str]:
    return {name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.returns
            for name in _referenced(node.returns)}


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            return ast.literal_eval(node.value)
    return []


def test_public_names_have_callers():
    # a caller is another module of the package (a package __init__'s
    # re-exports do not count, and a package's own __all__ needs callers
    # outside that package), perfbench or the acceptance criteria; a type
    # that a public function returns is public with it
    modules = {p: ast.parse(p.read_text()) for p in SRC.rglob("*.py")}
    outside = set().union(*(_referenced(ast.parse(p.read_text()))
                            for p in [*(REPO / "perfbench").glob("*.py"),
                                      REPO / "tests" / "test_acceptance.py"]))
    returned = set().union(*map(_public_returns, modules.values()))
    assert {"parse_y4m", "fit_forest", "krocc"} <= outside  # the scan sees perfbench
    unused = []
    for path, tree in sorted(modules.items()):
        scope = path.parent if path.name == "__init__.py" else path
        callers = outside | returned
        for other, t in modules.items():
            if other.name != "__init__.py" and scope not in (other, other.parent):
                callers |= _referenced(t)
        unused += [f"{path.relative_to(SRC)}:{n}" for n in _exported(tree) if n not in callers]
    assert unused == []
