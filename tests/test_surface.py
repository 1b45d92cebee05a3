"""The public surface: exported names, solver settings, the flags of each
CLI verb, what importing the package loads, the functions the
benchmark's tracer wraps, and the BLAS calls the projection path avoids.

A change that adds a knob or drops a feature has to edit these lists.
"""

import argparse
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mesoc
from mesoc.cli import build_parser

PUBLIC_NAMES = [
    "ComplementarityReport",
    "ConeId",
    "DimensionError",
    "DykstraConfig",
    "DykstraReport",
    "MadModel",
    "MadSolution",
    "MesocPoint",
    "ModelDomainError",
    "ProjectionCase",
    "ProjectionCertificate",
    "ScenarioData",
    "SolverConfig",
    "__version__",
    "abel_sum",
    "build_mad_model",
    "complementarity_check",
    "cone_contains",
    "cone_violation",
    "dual_cone_of",
    "dykstra_project",
    "load_scenarios",
    "mesoc_contains",
    "mesoc_dual_contains",
    "mesoc_dual_pieces",
    "mesoc_dual_violation",
    "mesoc_pieces",
    "mesoc_violation",
    "monotone_dual_pieces",
    "monotone_nonneg_dual_pieces",
    "monotone_nonneg_pieces",
    "monotone_pieces",
    "pava_nonincreasing",
    "piece_violation",
    "project_cone",
    "project_mesoc",
    "project_mesoc_dual",
    "project_mesoc_parts",
    "project_monotone_dual",
    "project_monotone_nonneg",
    "project_monotone_nonneg_dual",
    "project_nonneg_orthant",
    "project_piece",
    "read_returns_csv",
    "refine_jstar",
    "solve_mad",
]

VECTOR_FLAGS = ["--cone", "--file", "--help", "--inline", "--p", "--q", "-h"]
VERB_FLAGS = {
    "project": VECTOR_FLAGS,
    "check": sorted([*VECTOR_FLAGS, "--tol"]),
    "oracle-compare": ["--count", "--help", "--p", "--q", "--seed", "--tol", "-h"],
    "solve-portfolio": [
        "--c0", "--file", "--help", "--max-iter", "--probabilities-column", "--tol", "-h",
    ],
}
CONE_CHOICES = (
    "mesoc",
    "mesoc-dual",
    "monotone",
    "monotone-dual",
    "monotone-nonneg",
    "monotone-nonneg-dual",
)


def test_exported_names_unchanged():
    assert sorted(mesoc.__all__) == PUBLIC_NAMES
    for name in mesoc.__all__:
        assert getattr(mesoc, name) is not None


def test_cli_flags_unchanged():
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    parsers = sub.choices
    assert sorted(parsers) == sorted(VERB_FLAGS)
    for verb, flags in VERB_FLAGS.items():
        actions = parsers[verb]._actions
        assert sorted(o for a in actions for o in a.option_strings) == flags, verb
        cone = [a for a in actions if "--cone" in a.option_strings]
        assert [a.choices for a in cone] == ([CONE_CHOICES] if "--cone" in flags else [])


def test_solver_settings_unchanged():
    # the two values solve-portfolio sets from --max-iter and --tol
    fields = [f.name for f in dataclasses.fields(mesoc.SolverConfig)]
    assert fields == ["max_iter", "feas_tol"]


@pytest.mark.parametrize(
    "func, params",
    [
        (mesoc.refine_jstar, ["data", "c0", "cfg"]),
        (mesoc.solve_mad, ["model", "cfg"]),
        (mesoc.build_mad_model, ["data", "c0", "w0"]),
    ],
)
def test_portfolio_parameters_unchanged(func, params):
    assert list(inspect.signature(func).parameters) == params


def test_import_loads_no_scipy():
    # scipy.optimize alone costs about 0.6 s and 49 MB to import, which
    # every CLI call and benchmark process would pay
    src = str(Path(mesoc.__file__).resolve().parents[1])
    code = (
        "import sys, mesoc, mesoc.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_kernel_is_numpy_and_python_only():
    # One kernel and no hidden fallback: no compiled code reached through
    # ctypes, cffi or numba, and no scipy. numpy imports ctypes itself, so
    # a fresh interpreter blocks those modules (an entry of None makes their
    # import fail), then imports mesoc._pava and runs the kernel on both
    # sides of its threshold for the numpy rounds.
    src = str(Path(mesoc.__file__).resolve().parents[1])
    code = (
        "import json, sys\n"
        "for name in ('ctypes', '_ctypes', 'cffi', 'numba', 'scipy'):\n"
        "    sys.modules[name] = None\n"
        "import numpy as np\n"
        "from mesoc import _pava\n"
        "for n in (_pava._SMALL, 100 * _pava._SMALL):\n"
        "    assert _pava.pava_nonincreasing_kernel(np.arange(n, dtype=float)).tolist()"
        " == [(n - 1) / 2] * n\n"
        "mods = [m for k, m in sys.modules.items() if k.partition('.')[0] == 'mesoc']\n"
        "print(json.dumps([m.__file__ for m in mods]))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    files = json.loads(done.stdout)
    assert files and all(f.endswith(".py") for f in files)


def test_benchmark_trace_targets_resolve():
    # The tracer reports a target it cannot resolve as absent and goes on,
    # so a renamed function would quietly drop its per-layer metrics. A
    # fresh interpreter, with perfbench/ first on sys.path as the benchmark
    # runs it, imports perfbench/tracing.py and resolves every target.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(bench)!r})\n"
        "import tracing\n"
        "missing = []\n"
        "for target in tracing.TARGETS:\n"
        "    try:\n"
        "        tracing._resolve(target)\n"
        "    except (ImportError, AttributeError):\n"
        "        missing.append(target.span)\n"
        "print(json.dumps([len(tracing.TARGETS), missing]))\n"
    )
    src = str(Path(mesoc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    count, missing = json.loads(done.stdout)
    assert count > 0 and missing == []


BLAS_ENTRY_POINTS = [
    (np, "dot"),
    (np, "vdot"),
    (np, "inner"),
    (np, "matmul"),
    (np.linalg, "norm"),
]


@pytest.mark.parametrize("n", [5, 300])
def test_projection_path_calls_no_blas(monkeypatch, n):
    # a BLAS call wakes the BLAS thread pool, which costs more than a whole
    # projection at large n; here every numpy entry point to it raises
    def blas(*args, **kwargs):
        raise AssertionError("BLAS called on the projection path")

    for module, name in BLAS_ENTRY_POINTS:
        monkeypatch.setattr(module, name, blas)
    rng = np.random.default_rng(n)
    # shifted up, with ||w|| = 10 above the fitted z: the Interior case,
    # where complementarity_check also tests the four structural conditions
    z = rng.standard_normal(n) + 3.0
    w = rng.standard_normal(n)
    w *= 10.0 / np.sqrt(np.sum(w * w))
    cert = mesoc.project_mesoc(z, w)
    assert cert.case is mesoc.ProjectionCase.INTERIOR
    primal, dual = mesoc.project_mesoc_parts(z, w)
    mesoc.project_mesoc_dual(z, w)
    assert mesoc.complementarity_check(primal, dual).uv_antiparallel is not None
    mesoc.mesoc_violation(primal)
    mesoc.mesoc_dual_violation(dual)
    for cone in mesoc.ConeId:
        mesoc.project_cone(cone, z)
