"""The public surface: exported names, the portfolio signatures, the
flags of each CLI verb, how the result types compare, what importing the
package loads, the functions the benchmark's tracer wraps, the BLAS calls
the projection path avoids, and the README's and the demo script's
examples.

A change that adds a knob or drops a feature has to edit these lists.
"""

import argparse
import dataclasses
import inspect
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mesoc
from mesoc.cli import build_parser
from mesoc.oracle import Halfspace, Hyperplane

PUBLIC_NAMES = [
    "ComplementarityReport",
    "ConeId",
    "DimensionError",
    "DykstraReport",
    "MadModel",
    "MadSolution",
    "MesocPoint",
    "ModelDomainError",
    "ProjectionCase",
    "ProjectionCertificate",
    "ScenarioData",
    "__version__",
    "build_mad_model",
    "complementarity_check",
    "cone_contains",
    "cone_violation",
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
    "solve-portfolio": ["--c0", "--file", "--help", "--probabilities-column", "-h"],
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


def test_readme_examples_run():
    # the ```python blocks build on each other, so they run in order in one
    # namespace; a removed or renamed export fails here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)


def test_portfolio_demo_runs(monkeypatch, capsys):
    # the demo imports from mesoc as a user would; a removed or renamed
    # export, or a changed signature, fails here
    demo = Path(__file__).resolve().parents[1] / "scripts" / "portfolio_demo.py"
    argv = [str(demo), "--scenarios", "3", "--assets", "2", "--c0", "1"]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(demo), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "3 scenarios, 2 assets"
    assert len(lines) == 3 and lines[2].split()[0] == "1.00"


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


@pytest.mark.parametrize(
    "func, params",
    [
        (mesoc.refine_jstar, ["data", "c0"]),
        (mesoc.solve_mad, ["model"]),
        (mesoc.build_mad_model, ["data", "c0", "w0"]),
    ],
)
def test_portfolio_parameters_unchanged(func, params):
    assert list(inspect.signature(func).parameters) == params


_SCENARIOS = [[0.01, 0.02], [0.03, -0.01], [-0.02, 0.01]]

# each dataclass holding an ndarray, directly or in a MesocPoint, built
# from equal values on every call
ARRAY_HOLDERS = {
    mesoc.MesocPoint: lambda: mesoc.MesocPoint([2.0, 1.0], [0.5]),
    mesoc.ProjectionCertificate: lambda: mesoc.project_mesoc([0.3, -1.7, 2.2], [0.9, -0.4]),
    mesoc.DykstraReport: lambda: mesoc.dykstra_project(mesoc.mesoc_pieces(1, 1), [0.3, 0.5]),
    Halfspace: lambda: Halfspace(np.array([1.0, -1.0])),
    Hyperplane: lambda: Hyperplane(np.ones(2)),
    mesoc.ScenarioData: lambda: mesoc.load_scenarios(_SCENARIOS),
    mesoc.MadModel: lambda: mesoc.build_mad_model(mesoc.load_scenarios(_SCENARIOS), 1.0),
    mesoc.MadSolution: lambda: mesoc.refine_jstar(mesoc.load_scenarios(_SCENARIOS), 1.0),
}


def test_array_holders_listed():
    found = {
        obj
        for module in (mesoc.cones, mesoc.projection, mesoc.oracle, mesoc.portfolio)
        for obj in vars(module).values()
        if dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
        and any(
            held in str(f.type)
            for f in dataclasses.fields(obj)
            for held in ("ndarray", "MesocPoint")
        )
    }
    assert found == set(ARRAY_HOLDERS)


@pytest.mark.parametrize("cls", ARRAY_HOLDERS, ids=lambda cls: cls.__name__)
def test_array_holders_compare_by_identity(cls):
    # a generated __eq__ would compare the arrays elementwise and raise, and
    # the generated __hash__ would raise on the arrays
    a, b = ARRAY_HOLDERS[cls](), ARRAY_HOLDERS[cls]()
    assert type(a) is cls
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2
    copy = dataclasses.replace(a)
    assert type(copy) is cls and copy != a


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


def test_benchmark_trace_sees_one_kernel_call():
    # A target that resolves can still be bypassed: a projection that
    # stopped calling the named kernel would empty the pava.kernel.*
    # per-layer metrics without a word. With the tracer installed as the
    # benchmark installs it, one projection at p = q = 200 makes one
    # kernel call, on the lifted vector of p + 1 values.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(bench)!r})\n"
        "import numpy as np\n"
        "import tracing\n"
        "from mesoc import project_mesoc\n"
        "rng = np.random.default_rng(44)\n"
        "z, w = rng.standard_normal(200), rng.standard_normal(200)\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "tracer.begin_op()\n"
        "project_mesoc(z, w)\n"
        "tracer.end_op(0, 1)\n"
        "kernel = tracer.totals['pava.kernel']\n"
        "print(json.dumps([tracer.absent, kernel.calls, kernel.extra.get('elements')]))\n"
    )
    src = str(Path(mesoc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == [[], 1, 201]


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

def test_benchmark_trace_sees_the_writer():
    # The cli.format_json.* metrics read 0 if the CLI writes its JSON
    # without calling format_json. With the tracer installed, one
    # `mesoc project` at p = q = 200 spends all but its top-level keys
    # and braces inside format_json spans.
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    code = (
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {str(bench)!r})\n"
        "import numpy as np\n"
        "import tracing\n"
        "from mesoc import cli\n"
        "vec = np.random.default_rng(45).standard_normal(400)\n"
        "argv = ['project', '--p', '200', '--q', '200', '--inline=' + ','.join(map(repr, vec.tolist()))]\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "tracer.begin_op()\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    code = cli.main(argv)\n"
        "tracer.end_op(0, 1)\n"
        "writer = tracer.totals['cli.format_json']\n"
        "print(json.dumps([code, writer.calls, writer.extra.get('bytes'), len(buf.getvalue())]))\n"
    )
    src = str(Path(mesoc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    code, calls, traced, written = json.loads(done.stdout)
    assert code == 0 and calls > 0
    assert 0.99 * written < traced < written
