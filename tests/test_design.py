"""Design rules: one thread pool in the package, none where threads do not pay;
the benchmark harness does not depend on the regressors; one function builds
a branch net; every public name has a caller besides its own unit tests;
every bad-input raise is a VqaError."""

import ast
import threading
from pathlib import Path

import numpy as np

import vqakit
from vqakit import errors
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


def _module(path: Path) -> str:
    """The dotted name a file of the package is imported by."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _base(node: ast.ImportFrom, package: str | None) -> str:
    """The module a ``from ... import`` reads, relative imports resolved."""
    if not node.level:
        return node.module
    parent = package.split(".")[:len(package.split(".")) - node.level + 1]
    return ".".join(parent + ([node.module] if node.module else []))


def _bindings(tree: ast.AST, package: str | None) -> dict[str, str]:
    """Each name a file binds by import, and what it binds: a module's dotted
    name, or ``module.name`` for a name imported from a module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = a.name if a.asname else a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = _base(node, package)
            for a in node.names:
                bound[a.asname or a.name] = f"{base}.{a.name}"
    return bound


def _uses(tree: ast.AST, package: str | None) -> set[tuple[str, str]]:
    """The (module, name) pairs a file looks up: each name it imports from a
    module, and each attribute it reads from a module it holds. A module is
    held by an import, by an assignment from a held module, or as the value
    of a string-keyed subscript whose key is the name it is imported as
    (perfbench keeps its modules in a dict keyed so). ``getattr`` with a
    constant name, or with a comprehension variable over constant names,
    reads those names; so does a tuple of a module's dotted name and such a
    name (perfbench's span targets)."""
    bound = _bindings(tree, package)
    uses = {tuple(v.rsplit(".", 1)) for v in bound.values() if "." in v}
    loops = {}  # comprehension variable -> the constant strings it runs over
    for node in ast.walk(tree):
        if (isinstance(node, ast.comprehension) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, (ast.Tuple, ast.List))):
            loops.setdefault(node.target.id, set()).update(
                e.value for e in node.iter.elts if isinstance(e, ast.Constant))

    def held(expr):
        if isinstance(expr, ast.Name):
            return bound.get(expr.id)
        if isinstance(expr, ast.Attribute) and held(expr.value):
            return f"{held(expr.value)}.{expr.attr}"
        if isinstance(expr, ast.Subscript) and isinstance(expr.slice, ast.Constant):
            return bound.get(expr.slice.value)
        return None

    def names(expr):
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return {expr.value}
        return loops.get(expr.id, set()) if isinstance(expr, ast.Name) else set()

    assigns = [n for n in ast.walk(tree) if isinstance(n, ast.Assign)]
    for _ in range(2):  # an alias of an alias
        for node in assigns:
            for target in node.targets:
                pairs = ([(target, node.value)] if not isinstance(target, ast.Tuple) else
                         zip(target.elts, getattr(node.value, "elts", ())))
                for t, v in pairs:
                    if isinstance(t, ast.Name) and held(v):
                        bound[t.id] = held(v)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and held(node.value):
            uses.add((held(node.value), node.attr))
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2 and held(node.args[0])):
            uses |= {(held(node.args[0]), n) for n in names(node.args[1])}
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
              and isinstance(node.elts[0], ast.Constant)
              and str(node.elts[0].value).startswith("vqakit.")):
            uses |= {(node.elts[0].value, n) for n in names(node.elts[1])}
    return uses


def _public_returns(tree: ast.AST, module: str, package: str) -> set[tuple[str, str]]:
    """The (module, name) that each name in a public function's return
    annotation is bound to."""
    bound = _bindings(tree, package)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.returns:
            for n in ast.walk(node.returns):
                name = n.id if isinstance(n, ast.Name) else (
                    n.value if isinstance(n, ast.Constant) and isinstance(n.value, str) else None)
                if name:
                    out.add(tuple(bound[name].rsplit(".", 1)) if name in bound else (module, name))
    return out


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__":
            return ast.literal_eval(node.value)
    return []


def test_public_names_have_callers():
    # a name in a module's __all__ is used when a caller looks it up in that
    # module, or in one that re-exports it from there. A caller is another
    # module of the package (a package __init__'s re-exports do not count,
    # and a package's own __all__ needs callers outside that package),
    # perfbench or the acceptance criteria; a type that a public function
    # returns is public with it
    files = {p: ast.parse(p.read_text()) for p in SRC.rglob("*.py")}
    package = {p: _module(p) if p.name == "__init__.py" else _module(p).rpartition(".")[0]
               for p in files}
    # (module, name) -> (module, name) it re-exports
    reexports = {(_module(p), a.asname or a.name): (_base(node, package[p]), a.name)
                 for p, tree in files.items() for node in tree.body
                 if isinstance(node, ast.ImportFrom) for a in node.names}

    def chain(use):
        while use:
            yield use
            use = reexports.get(use)

    outside = set().union(*(_uses(ast.parse(p.read_text()), None)
                            for p in [*(REPO / "perfbench").glob("*.py"),
                                      REPO / "tests" / "test_acceptance.py"]))
    returned = set().union(*(_public_returns(t, _module(p), package[p])
                             for p, t in files.items()))
    assert {("vqakit.clip_io", "parse_y4m"), ("vqakit.regressors", "fit_forest"),
            ("vqakit.eval_metrics", "krocc")} <= outside  # the scan sees perfbench
    unused = []
    for path, tree in sorted(files.items()):
        scope = path.parent if path.name == "__init__.py" else path
        uses = outside | returned
        for other, t in files.items():
            if other.name != "__init__.py" and scope not in (other, other.parent):
                uses |= _uses(t, package[other])
        reached = {step for use in uses for step in chain(use)}
        module = _module(path)
        unused += [f"{path.relative_to(SRC)}:{n}" for n in _exported(tree)
                   if (module, n) not in reached]
    assert unused == []


# The raises that are programmer errors, not bad input, and stay built-in:
# (module, the class as written, why)
BUILTIN_RAISES = [
    ("_parallel.py", "RuntimeError", "a parallel_map nested in a task would wait on its own pool"),
    ("regressors/checkpoint.py", "TypeError", "save_model was given an object that is no model"),
    ("cli.py", "argparse.ArgumentTypeError", "argparse makes it a usage error, exit 2"),
    ("cli.py", "SystemExit", "the console script's exit code"),
]


def test_every_raise_is_a_vqa_error():
    # a bare `raise` re-raises what it caught; any other names its class
    bare, exempted = [], set()
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = ast.unparse(getattr(node.exc, "func", node.exc))
            cls = getattr(errors, name, None)
            if isinstance(cls, type) and issubclass(cls, errors.VqaError):
                continue
            if any(m == module and c == name for m, c, _ in BUILTIN_RAISES):
                exempted.add((module, name))
            else:
                bare.append(f"{module}:{node.lineno}: {name}")
    assert bare == [], "raises that are not VqaError:\n" + "\n".join(bare)
    # an exemption that matches no raise has outlived its site
    assert exempted == {(m, c) for m, c, _ in BUILTIN_RAISES}
