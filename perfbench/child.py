"""One workload in one fresh interpreter: build inputs, warm up, measure, check.

    PYTHONPATH=src python3 perfbench/child.py --workload W --seed N \
        --seconds S --trace 0|1 --workdir DIR

The load is a closed loop with one caller: each operation starts when the
previous one and its output check have finished. The loop runs whole
rotations of the workload's inputs, so every run holds the inputs in the
same proportions, and stops before a further rotation would pass the time
given. With --trace 1 the first half of the time runs untraced and the
second half traced, which gives the per-layer figures and the tracing
overhead. Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import mesoc
import mesoc.cli

import checks
import inputs
from setup_probe import TINY_C0, TINY_RETURNS
from tracing import PER_LAYER, Tracer, layer_metrics

KEEP_ERRORS = 5


@dataclass(frozen=True)
class Op:
    """One entry point call on fixed inputs, and the check of its output."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Prepared:
    ops: list[Op]  # one rotation, in order
    problems: list[str]  # input or warm-up outputs that failed their checks
    input_cases: Counter  # projection case of each distinct input, from its output


def _projection_op(family: inputs.Family) -> Op:
    z, w = family.z, family.w

    def check(cert):
        return checks.check_projection(
            z, w, cert.primal.x, cert.primal.u, cert.dual_of_neg.x, cert.dual_of_neg.u,
            family.case,
        )

    return Op(family.name, lambda: mesoc.project_mesoc(z, w), check)


def _warm_projections(families) -> tuple[list[str], Counter]:
    """Run each distinct input once; check it and record its case."""
    problems, cases = [], Counter()
    for family in families:
        cert = mesoc.project_mesoc(family.z, family.w)
        problem = _projection_op(family).check(cert)
        if problem:
            problems.append(f"{family.name}: {problem}")
        cases[checks.classify(cert.primal.u, cert.dual_of_neg.u)] += 1
    return problems, cases


def prepare_proj_small(seed: int, workdir: Path) -> Prepared:
    pool = inputs.small_pool(seed)
    problems, cases = _warm_projections(pool)
    return Prepared([_projection_op(f) for f in pool], problems, cases)


# the two single-pass families once and the two three-pass families twice
# per rotation, so that the median latency falls inside the three-pass
# cluster rather than in the gap between the clusters
LARGE_ROTATION = ("dual", "interior", "primal", "ascending", "interior", "ascending")


def prepare_proj_large(seed: int, workdir: Path) -> Prepared:
    families = inputs.case_families(seed, inputs.LARGE_DIM, ("dual", "primal", "interior", "ascending"))
    problems, cases = _warm_projections(families.values())
    ops = {name: _projection_op(f) for name, f in families.items()}
    return Prepared([ops[name] for name in LARGE_ROTATION], problems, cases)


# interior twice per rotation, for the same reason as LARGE_ROTATION
CLI_ROTATION = ("interior", "dual", "interior")


def _cli_call(argv: list[str]):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = mesoc.cli.main(argv)
    return code, buf.getvalue()


def prepare_cli_project(seed: int, workdir: Path) -> Prepared:
    dim = inputs.CLI_DIM
    families = inputs.case_families(seed, dim, ("interior", "dual"))
    problems, cases = [], Counter()
    ops = {}
    for name, family in families.items():
        path = workdir / f"cli-{name}-seed{seed}.txt"
        path.write_text(inputs.format_vector(np.concatenate([family.z, family.w])) + "\n")
        # the library's answer on exactly the doubles the CLI will parse
        vec = np.array([float(c) for c in path.read_text().split(",")])
        z, w = vec[:dim], vec[dim:]
        cert = mesoc.project_mesoc(z, w)
        problem = checks.check_projection(
            z, w, cert.primal.x, cert.primal.u, cert.dual_of_neg.x, cert.dual_of_neg.u, family.case
        )
        if problem:
            problems.append(f"library on {name}: {problem}")
        cases[checks.classify(cert.primal.u, cert.dual_of_neg.u)] += 1
        reference = np.concatenate([cert.primal.x, cert.primal.u])
        argv = ["project", "--p", str(dim), "--q", str(dim), "--file", str(path)]
        op = Op(
            name,
            lambda argv=argv: _cli_call(argv),
            lambda out, ref=reference: checks.check_cli_output(out[0], out[1], ref),
        )
        problem = op.check(op.call())
        if problem:
            problems.append(f"CLI on {name}: {problem}")
        ops[name] = op
    return Prepared([ops[name] for name in CLI_ROTATION], problems, cases)


def _portfolio_op(name: str, returns: np.ndarray, c0: float) -> Op:
    data = mesoc.load_scenarios(returns)

    def check(sol):
        return checks.check_portfolio(returns, c0, sol.w, sol.y, sol.jstar)

    return Op(name, lambda: mesoc.refine_jstar(data, c0), check)


def prepare_portfolio(seed: int, workdir: Path) -> Prepared:
    # a solve takes seconds, so the warm-up call uses the tiny set-up input
    tiny = _portfolio_op("tiny", np.array(TINY_RETURNS), TINY_C0)
    problem = tiny.check(tiny.call())
    problems = [f"tiny: {problem}"] if problem else []
    ops = [_portfolio_op(i.name, i.returns, i.c0) for i in inputs.portfolio_panel(seed)]
    return Prepared(ops, problems, Counter())


PREPARE = {
    "proj-small": prepare_proj_small,
    "proj-large": prepare_proj_large,
    "cli-project": prepare_cli_project,
    "portfolio": prepare_portfolio,
}


@dataclass
class Phase:
    rotations: list[list[float]]  # latency in ms of each operation, per rotation
    failed: int
    errors: list[str]

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rotations)


def measure(ops: list[Op], seconds: float, tracer: Tracer | None = None) -> Phase:
    """Closed loop over whole rotations of ops; only the call is timed."""
    clock = time.perf_counter_ns
    phase = Phase([], 0, [])
    start = clock()
    while True:
        rotation_start = clock()
        latencies = []
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            t0 = clock()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                out, problem = None, f"{type(exc).__name__}: {exc}"
            else:
                problem = None
            t1 = clock()
            if tracer is not None:
                tracer.end_op(t0, t1)
            latencies.append((t1 - t0) / 1e6)
            if problem is None:
                try:
                    problem = op.check(out)
                except Exception as exc:  # an output the check cannot read is wrong
                    problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem:
                phase.failed += 1
                if len(phase.errors) < KEEP_ERRORS:
                    phase.errors.append(f"{op.name}: {problem}")
        phase.rotations.append(latencies)
        now = clock()
        if (now - start) + (now - rotation_start) > seconds * 1e9:
            return phase


def tail_percentile(samples: int) -> int:
    """Highest whole percentile (from 50 up) with at least ten samples beyond it;
    100, the maximum, when fewer than 20 samples leave no such percentile."""
    if samples < 20:
        return 100
    return min(99, math.floor(100 - 1000 / samples))


def summarize(phase: Phase) -> dict:
    """Latency statistics over every operation of a phase.

    The median is taken within each rotation and averaged over the
    rotations. The host's speed switches between a fast and a slow state
    for seconds to minutes at a time; one median over the whole phase
    jumps between the two states as their shares cross one half, while
    the average of per-rotation medians moves in proportion to the shares.
    The phase-wide median is kept beside it as p50_all_ms.
    """
    samples = [ms for rotation in phase.rotations for ms in rotation]
    tail_pct = tail_percentile(len(samples))
    return {
        "rotations": len(phase.rotations),
        "ops_per_rotation": len(phase.rotations[0]),
        "samples": len(samples),
        "p50_ms": float(np.mean([np.median(rotation) for rotation in phase.rotations])),
        "p50_all_ms": float(np.percentile(samples, 50)),
        "tail_ms": float(np.percentile(samples, tail_pct)),
        "tail_percentile": tail_pct,
        "ops_per_s": (phase.attempted - phase.failed) / (sum(samples) / 1e3),
    }


def kernel_backend() -> str:
    """numba-compiled or pure-Python, read from mesoc._pava's kernel object."""
    try:
        from mesoc import _pava
    except ImportError:
        return "absent (no mesoc._pava)"
    kernel = getattr(_pava, "pava_nonincreasing_kernel", None)
    if kernel is None:
        return "absent (no mesoc._pava.pava_nonincreasing_kernel)"
    if hasattr(kernel, "py_func"):
        return "numba-compiled"
    return "pure-Python fallback"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(PREPARE), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    prepared = PREPARE[args.workload](args.seed, args.workdir)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "problems": prepared.problems,
        "input_case_share": {
            case: count / max(sum(prepared.input_cases.values()), 1)
            for case, count in prepared.input_cases.items()
        },
        "kernel_backend": kernel_backend(),
    }
    if args.trace:
        plain = measure(prepared.ops, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        traced = measure(prepared.ops, args.seconds / 2, tracer)
        phases = [plain, traced]
        overhead = summarize(traced)["p50_ms"] / summarize(plain)["p50_ms"]
        units = {name: unit for name, unit, _ in PER_LAYER}
        result["layers"] = {
            name: (value, units[name]) for name, value in layer_metrics(tracer, overhead).items()
        }
        result["absent_targets"] = tracer.absent
        spans_path = args.workdir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    else:
        plain = measure(prepared.ops, args.seconds)
        phases = [plain]
    result["attempted"] = sum(p.attempted for p in phases)
    result["failed"] = sum(p.failed for p in phases)
    result["errors"] = [e for p in phases for e in p.errors][:KEEP_ERRORS]
    result["latency"] = summarize(plain)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
