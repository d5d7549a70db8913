"""Checks on the repository's tooling against the library's public names."""

import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import conflap

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench" / "workloads.py"
PACKAGE = ROOT / "src" / "conflap"


def test_benchmark_calls_only_exported_names():
    # the benchmark resolves ``api.<name>`` from conflap.__all__, plus the
    # ``tracer`` it adds itself, so a renamed export must show up here
    tree = ast.parse(WORKLOADS.read_text())
    called = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "api"
    }
    assert {"solve_delaunay", "log_gamma_abs2", "tracer"} <= called
    assert sorted(called - set(conflap.__all__) - {"tracer"}) == []


def test_all_lists_each_public_name_once():
    # __all__ is built from what __init__ imports: sorted, without repeats,
    # every public non-module name of the package, and each of them defined
    # in a conflap module, so no helper import leaks in
    names = conflap.__all__
    assert names == sorted(set(names))
    public = {
        name
        for name, value in vars(conflap).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(names) == public
    assert sorted(
        name for name in names if not getattr(conflap, name).__module__.startswith("conflap.")
    ) == []


def test_every_public_name_has_a_caller_outside_tests():
    # a public name earns its place with a caller in another library module,
    # a demo or the benchmark; a helper that only its own module uses is
    # private, and one that only tests call goes
    init = PACKAGE / "__init__.py"
    callers = {
        path: path.read_text()
        for folder in (PACKAGE, ROOT / "demos", ROOT / "bench")
        for path in folder.glob("*.py")
    }
    uncalled = []
    for name in conflap.__all__:
        own = PACKAGE / f"{getattr(conflap, name).__module__.rpartition('.')[2]}.py"
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(text) for path, text in callers.items() if path not in (own, init)):
            uncalled.append(name)
    assert uncalled == []


def test_only_cylinder_and_specfun_call_gamma_logs():
    # the cylinder symbol's Gamma ratio and its digamma slope have one owner,
    # conflap.cylinder; specfun wraps scipy.special for every other module
    callers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "scipy.special":
                names = {alias.name for alias in node.names}
            else:
                names = {node.attr} if isinstance(node, ast.Attribute) else set()
            if names & {"loggamma", "psi", "digamma"}:
                callers.add(path.name)
    assert callers - {"specfun.py"} == {"cylinder.py"}


def test_no_module_calls_leggauss():
    # every Gauss rule, Gauss-Legendre included as jacobi_rule(0, 0, size),
    # comes from the one generator specfun.jacobi_rule
    callers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                names = {node.attr} if isinstance(node, ast.Attribute) else set()
            if "leggauss" in names:
                callers.add(path.name)
    assert callers == set()


def test_only_cyl_kernel_dispatches_on_float_or_int():
    # cyl_kernel alone keeps a scalar fast path, for direct lattice sums;
    # every other function in cylinder and specfun has one evaluation path
    dispatchers = set()
    for name in ("cylinder.py", "specfun.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and isinstance(node.args[1], ast.Tuple)
                    and {ast.unparse(e) for e in node.args[1].elts} == {"float", "int"}
                ):
                    dispatchers.add(f"{name}:{function.name}")
    assert dispatchers == {"cylinder.py:cyl_kernel"}


def test_only_specfun_calls_roots_jacobi():
    # the Gauss-Jacobi rule has one owner, specfun.jacobi_rule, which caches
    # it; the unit-interval rule and the sphere's quadratures come from there
    callers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                names = {node.attr} if isinstance(node, ast.Attribute) else set()
            if "roots_jacobi" in names:
                callers.add(path.name)
    assert callers == {"specfun.py"}


def test_only_toeplitz_calls_real_ffts_in_euclidean():
    # the integral route's correlation and the continuum quadrature's kernel
    # both reach the grid through one zero-padded convolution, _toeplitz
    def real_ffts(tree):
        return sum(
            (isinstance(node, ast.Attribute) and node.attr in ("rfft", "irfft"))
            or (isinstance(node, ast.Name) and node.id in ("rfft", "irfft"))
            for node in ast.walk(tree)
        )

    module = ast.parse((PACKAGE / "euclidean.py").read_text())
    (toeplitz,) = [
        f for f in module.body if isinstance(f, ast.FunctionDef) and f.name == "_toeplitz"
    ]
    assert real_ffts(module) == real_ffts(toeplitz) > 0


def test_only_params_sets_writeable():
    # params.read_only is the one place that freezes an array; caches and
    # records call it instead of setting flags.writeable themselves
    setters = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            targets = node.targets if isinstance(node, ast.Assign) else []
            if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            if any(isinstance(t, ast.Attribute) and t.attr == "writeable" for t in targets):
                setters.add(path.name)
    assert setters == {"params.py"}


def test_every_library_cache_is_bounded():
    # cached tables grow with their keys (a zonal table holds 2 r^2 floats),
    # so an unbounded functools cache would let RSS grow without end
    caches = {}
    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(f"conflap.{path.stem}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                caches[f"{path.stem}.{name}"] = value.cache_parameters()["maxsize"]
    assert {"cylinder._difference_table", "cylinder._kernel_series", "sphere._zonal_table",
            "specfun.jacobi_rule"} <= set(caches)
    assert sorted(name for name, size in caches.items() if size is None) == []


def _loaded_by(module, statements="import conflap.cli"):
    """'True' or 'False': whether ``statements`` in a fresh process load ``module``."""
    code = f"import sys\n{statements}\nprint({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_leaves_out_scipy_optimize():
    # scipy.optimize is a large import that the package no longer needs
    assert _loaded_by("scipy.optimize") == "False"


def test_cli_import_leaves_out_scipy_sparse_linalg():
    # no command, solving or not, pays for scipy.sparse.linalg: the package
    # never imports it
    assert _loaded_by("scipy.sparse.linalg") == "False"


def test_delaunay_solve_leaves_out_scipy_sparse():
    # the Newton step's GMRES and the bifurcation root finder are in-module,
    # so neither a solve nor the threshold sweep loads scipy.sparse, which
    # scipy.optimize would pull in
    solve = (
        "from conflap import FracParams, bifurcation_period, solve_delaunay\n"
        "periods = [bifurcation_period(FracParams(n, 0.7)) for n in (2, 3, 4, 5)]\n"
        "p = FracParams(3, 0.5)\n"
        "assert solve_delaunay(p, 1.5 * bifurcation_period(p)).krylov_steps > 0"
    )
    for module in ("scipy.sparse", "scipy.optimize"):
        assert _loaded_by(module, solve) == "False", module


def test_selftest_leaves_out_scipy_signal_sparse_and_optimize():
    # the commutator check's panel sums are plain FFTs; scipy.signal (whose
    # czt is the library chirp-z transform) costs seconds and tens of MB to
    # import, and scipy.sparse and scipy.optimize are not needed either
    selftest = (
        "import contextlib, io\n"
        "from conflap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['selftest']) == 0"
    )
    for module in ("scipy.signal", "scipy.sparse", "scipy.optimize"):
        assert _loaded_by(module, selftest) == "False", module


def _defined_and_used(statement):
    """Names a module-level statement binds at module level, and the names
    it reads (loads, attributes and ``from`` imports)."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        defined = {statement.name}
    else:
        targets = getattr(statement, "targets", [getattr(statement, "target", None)])
        defined = {
            node.id
            for target in targets
            if target is not None
            for node in ast.walk(target)
            if isinstance(node, ast.Name)
        }
    used = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return defined, used


def test_every_private_library_name_has_a_library_caller():
    # a module-level _name that only its own definition mentions is dead
    # code, or a helper that belongs with the tests that still call it
    statements = [
        (path.name, statement)
        for path in sorted(PACKAGE.glob("*.py"))
        for statement in ast.parse(path.read_text()).body
    ]
    scanned = [(where, *_defined_and_used(statement)) for where, statement in statements]
    dead = []
    for index, (where, defined, _) in enumerate(scanned):
        for name in sorted(defined):
            if name.startswith("_") and not name.startswith("__") and not any(
                name in used for other, (_, _, used) in enumerate(scanned) if other != index
            ):
                dead.append(f"{where}: {name}")
    assert dead == []
