"""Self-tests of the benchmark itself (not of mesoc).

    python3 perfbench/selftest.py            # all tests, about two minutes
    python3 -m pytest perfbench/selftest.py  # the same under pytest

Run from the root of the source tree. The file is not named test_*.py so
that the package's own test suite does not collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import child  # noqa: E402
import inputs  # noqa: E402
import mesoc  # noqa: E402
from tracing import PER_LAYER, Tracer, nesting_errors  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_every_printed_metric_is_declared():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(child.PREPARE)
    for workload in child.PREPARE:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            result = _run(workload, trace)
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == declared, (workload, trace, set(printed) ^ set(declared))


def test_per_layer_table_matches_tracing():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == list(PER_LAYER)


def _traced(ops) -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        phase = child.measure(ops, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert phase.failed == 0, phase.errors
    return tracer


def test_spans_nest_and_self_times_fit():
    ops = child.prepare_proj_small(3, HERE).ops[:200]
    # the panel's solves take seconds each; the tiny one reaches the same layers
    tiny = child._portfolio_op("tiny", np.array(child.TINY_RETURNS), child.TINY_C0)
    tracer = _traced(ops + [tiny])
    assert tracer.spans, "no spans retained"
    assert nesting_errors(tracer.spans) == []
    assert sum(t.self_ns for t in tracer.totals.values()) <= tracer.op_ns
    # the tiny solve reaches the projection through Dykstra, three levels down
    names = {span[3] for span in tracer.spans}
    assert {"op", "portfolio.solve_mad", "oracle.dykstra_callables",
            "projection.project_mesoc_parts", "pava.kernel"} <= names


def test_nesting_errors_flags_overlap():
    spans = [
        (0, 1, None, "op", 0, 100),
        (0, 2, 1, "a", 10, 60),
        (0, 3, 1, "b", 50, 120),  # ends after its parent
    ]
    assert any("not inside" in p for p in nesting_errors(spans))
    overlapping = [(0, 1, None, "op", 0, 100), (0, 2, 1, "a", 0, 80), (0, 3, 1, "b", 20, 100)]
    assert any("self times" in p for p in nesting_errors(overlapping))


def test_families_land_in_their_case():
    for name, family in inputs.case_families(5, 2000, ("dual", "primal", "interior", "ascending")).items():
        cert = mesoc.project_mesoc(family.z, family.w)
        assert checks.classify(cert.primal.u, cert.dual_of_neg.u) == family.case, name


def test_projection_check_rejects_wrong_answers():
    family = inputs.case_families(2, 500, ("interior",))["interior"]
    cert = mesoc.project_mesoc(family.z, family.w)
    parts = [cert.primal.x, cert.primal.u, cert.dual_of_neg.x, cert.dual_of_neg.u]
    assert checks.check_projection(family.z, family.w, *parts, family.case) is None
    rising = parts[0].copy()
    rising[0], rising[-1] = rising[-1] - 1.0, rising[0]
    assert checks.check_projection(family.z, family.w, rising, *parts[1:]) is not None
    shifted = parts[2] + 1e-6
    assert checks.check_projection(family.z, family.w, parts[0], parts[1], shifted, parts[3])
    assert checks.check_projection(family.z, family.w, *parts, inputs.DUAL) is not None


def test_cli_check_is_bitwise():
    reference = np.array([1.0, 0.5, -0.0])
    text = json.dumps({"primal": [1.0, 0.5, -0.0]})
    assert checks.check_cli_output(0, text, reference) is None
    assert checks.check_cli_output(0, text, np.array([1.0, 0.5, 0.0])) is not None
    near = json.dumps({"primal": [1.0, float(np.nextafter(0.5, 1.0)), -0.0]})
    assert checks.check_cli_output(0, near, reference) is not None
    assert checks.check_cli_output(2, text, reference) is not None


def test_portfolio_check_rejects_wrong_answers():
    inst = inputs.portfolio_panel(0)[0]
    T, n = inst.returns.shape
    w = np.full(n, 1.0 / n)
    r, s = checks.mad_objective_parts(inst.returns, 0)
    y = np.full(T, s * float(np.linalg.norm(w)))
    assert checks.check_portfolio(inst.returns, inst.c0, w, y, 0) is None
    assert checks.check_portfolio(inst.returns, inst.c0, 1.01 * w, y, 0) is not None
    assert checks.check_portfolio(inst.returns, inst.c0, w, 0.9 * y, 0) is not None
    assert checks.check_portfolio(inst.returns, inst.c0, w, 1.1 * y, 0) is not None


def test_panel_symmetry_keeps_the_problem():
    a, b = inputs.portfolio_panel(1), inputs.portfolio_panel(2)
    for x, y in zip(a, b):
        assert x.returns.shape == y.returns.shape and x.c0 == y.c0
        assert not np.allclose(x.returns, y.returns)
        assert np.isclose(
            inputs.boundedness_threshold(x.returns), inputs.boundedness_threshold(y.returns)
        )
        n = x.returns.shape[1]
        # same scenario returns for the uniform portfolio, up to the row order
        assert np.allclose(np.sort(x.returns.sum(axis=1) / n), np.sort(y.returns.sum(axis=1) / n))


def test_tail_percentile_leaves_ten_samples():
    assert child.tail_percentile(19) == 100
    for n in list(range(20, 2000)) + [10_000, 123_457]:
        pct = child.tail_percentile(n)
        rank = (n - 1) * pct / 100.0
        assert n - 1 - int(rank) >= 10, n


def test_summary_uses_every_run():
    # two inputs over 30 rotations; the first is slow in 20 of them
    rotations = [[1.0, 2.0] for _ in range(30)]
    for i in range(20):
        rotations[i][0] = 10.0
    summary = child.summarize(child.Phase(rotations, failed=6, errors=[]))
    assert summary["samples"] == 60 and summary["tail_percentile"] == 83
    # rotation medians: 6.0 in the 20 slow rotations, 1.5 in the other 10
    assert np.isclose(summary["p50_ms"], (20 * 6.0 + 10 * 1.5) / 30)
    assert summary["p50_all_ms"] == 2.0  # not 1.5, the median of the inputs' fastest runs
    assert summary["tail_ms"] == 10.0
    total_ms = 10 * 1.0 + 30 * 2.0 + 20 * 10.0
    assert np.isclose(summary["ops_per_s"], 54 / (total_ms / 1e3))


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
