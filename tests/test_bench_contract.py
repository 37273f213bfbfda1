"""The names the benchmark in ``bench/`` traces and calls exist in the package.

The benchmark drives semiclassic from outside the package, so a renamed or
removed name would otherwise show only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import semiclassic
from semiclassic import cli, connection, exact_oracle, potential

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, function, layer", _load_tracing().SPANS)
def test_traced_span_resolves(module, function, layer):
    assert callable(getattr(importlib.import_module(f"semiclassic.{module}"), function))


def test_tracer_hooks_resolve():
    # The tracer swaps ScatteringProblem.v for a counting function and reads
    # the oracle's default grid size.
    assert inspect.isfunction(potential.ScatteringProblem.v)
    assert exact_oracle.OracleConfig().grid_points > 0


@pytest.mark.parametrize("name", [
    "EckartBarrier", "GaussianBump", "SquareBarrier", "ParabolicBarrier", "HarmonicWell",
    "ScatteringProblem", "PhysicalContext", "wavefunction_exact",
])
def test_workload_name_resolves(name):
    assert callable(getattr(semiclassic, name))


def test_workload_calls_bind():
    problem = object()
    inspect.signature(connection.patched_barrier_solution).bind(problem, n_per_region=100)
    inspect.signature(connection.airy_local_solution).bind(problem, 0.0, [0.0], solution="ai")
    inspect.signature(cli.main).bind(["scan"])


def _modules_the_tracer_looks_up():
    """The constant names of every ``sys.modules[...]`` lookup in the tracer."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    return sorted({
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "sys.modules"
        and isinstance(node.slice, ast.Constant)
    })


def test_tracer_modules_are_registered_on_import():
    """The tracer looks these up on entry; a lazy module counts, since it is
    registered in ``sys.modules`` at import and loads on the tracer's use."""
    names = _modules_the_tracer_looks_up()
    assert names
    src = str(Path(semiclassic.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); import semiclassic; "
         f"print([n for n in {names!r} if n not in sys.modules])"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
