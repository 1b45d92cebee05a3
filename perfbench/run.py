"""Benchmark for mesoc: one workload, one seed, one run.

    python3 perfbench/run.py --workload proj-small --seed 1 --seconds 20 --trace 0

Run from the root of a source tree holding src/mesoc; nothing needs to be
installed. Each run starts fresh single-process interpreters with
PYTHONPATH=src: a few that only time set-up, then one that builds the
seeded inputs, warms up, measures and checks every output (perfbench/child.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones in BENCHMARK.json; with --trace 1 the per-layer ones,
taken from a traced run. Lines before it give every figure with its unit,
the failure ratio, the tail percentile and its sample count, and the
environment; the same record is written to perfbench/.work/. A run that
cannot measure (no src/mesoc, a crashed or hung child) prints no result
and exits non-zero.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"
WORKLOADS = ("proj-small", "proj-large", "cli-project", "portfolio")
SETUP_RUNS = 11
# wall-clock allowance for a run beyond its measured time: set-up probes,
# building and checking the inputs, warm-up, and the last rotation
ALLOWANCE_S = 60.0


class BenchError(Exception):
    """A run that cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # one caller, no helper threads: keep BLAS pools single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run a child interpreter to completion and return its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget used up before a child could start")
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child
        raise BenchError(f"{args[0]} did not finish within the time budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args[0]} exited {proc.returncode}")
    return lines[-1]


def setup_seconds(workload: str, deadline: float) -> list[float]:
    probe = str(HERE / "setup_probe.py")
    return [float(run_child([probe, workload], deadline)) for _ in range(SETUP_RUNS)]


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes(level: int):
    try:
        size = os.sysconf(f"SC_LEVEL{level}_CACHE_SIZE")
    except (ValueError, OSError):
        return "unknown"
    return size if size > 0 else "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "absent (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(kernel_backend: str) -> dict:
    return {
        "kernel_backend": kernel_backend,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba": _version("numba"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache_bytes": _cache_bytes(2),
        "l3_cache_bytes": _cache_bytes(3),
        "git_commit": _git_commit(),
    }


def end_to_end(child: dict, setup: list[float]) -> dict:
    lat = child["latency"]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (lat["ops_per_s"], "1/s"),
        "latency_ms_p50": (lat["p50_ms"], "ms"),
        "latency_ms_tail": (lat["tail_ms"], "ms"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (ROOT / "src" / "mesoc" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'mesoc'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + 2 * args.seconds + ALLOWANCE_S
    WORKDIR.mkdir(exist_ok=True)
    try:
        setup = setup_seconds(args.workload, deadline)
        child = json.loads(
            run_child(
                [
                    str(HERE / "child.py"),
                    "--workload", args.workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                    "--workdir", str(WORKDIR),
                ],
                deadline,
            )
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = child["layers"] if args.trace else end_to_end(child, setup)
    correct = child["failed"] == 0 and not child["problems"]
    lat = child["latency"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "fail_ratio": child["failed"] / child["attempted"],
        "errors": child["errors"],
        "problems": child["problems"],
        "setup_runs_s": setup,
        "latency": lat,
        "input_case_share": child["input_case_share"],
        "absent_targets": child.get("absent_targets", []),
        "environment": environment(child["kernel_backend"]),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (WORKDIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in record["environment"].items():
        print(f"  env {key}: {value}")
    print(f"  input case share: {record['input_case_share']}")
    print(
        f"  fail_ratio {record['fail_ratio']:.6g} ({child['failed']} of {child['attempted']});"
        f" untraced phase: {lat['rotations']} rotations of {lat['ops_per_rotation']} inputs;"
        f" the tail is p{lat['tail_percentile']} of {lat['samples']} samples;"
        f" the median over the whole phase is {lat['p50_all_ms']:.6g} ms"
    )
    for message in child["problems"] + child["errors"]:
        print(f"  FAILED {message}")
    if record["absent_targets"]:
        print(f"  absent trace targets: {', '.join(record['absent_targets'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": child["attempted"],
                "failed": child["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
