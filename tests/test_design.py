"""Design rules: one thread pool in the package, none where threads do not pay;
the benchmark harness does not depend on the regressors; one function builds
a branch net."""

import ast
import threading
from pathlib import Path

import numpy as np

import vqakit
from vqakit.regressors import fit_forest

SRC = Path(vqakit.__file__).parent


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
