"""Checks on the repository's tooling against the library's public names."""

import ast
import subprocess
import sys
from pathlib import Path

import conflap

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


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


def _loaded_by_cli_import(module):
    """'True' or 'False': whether a fresh ``import conflap.cli`` loads ``module``."""
    code = f"import sys, conflap.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_cli_import_leaves_out_scipy_optimize():
    # scipy.optimize is a large import that the package no longer needs
    assert _loaded_by_cli_import("scipy.optimize") == "False"


def test_cli_import_leaves_out_scipy_sparse_linalg():
    # the Delaunay solver imports its GMRES on first use, so commands that
    # never solve do not pay for scipy.sparse.linalg
    assert _loaded_by_cli_import("scipy.sparse.linalg") == "False"
