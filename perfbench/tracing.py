"""Spans around the package's module-level functions, installed from outside.

A Tracer swaps each target function for a wrapper in every mesoc module
that binds it, so calls the package makes internally are seen too. A span
records its name, start, end and parent; its self time is its duration
minus its direct children's, which never overlap because every workload
runs on one thread. Totals are folded in as spans close; the raw spans of
the first few operations stay in memory and are written out at the end.

A target missing at some commit (renamed or deleted by a refactor) is
reported as absent and its metrics are left out; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from checks import classify
from inputs import CASES

KEEP_SPANS = 20_000


def _elements(args, kwargs, out):
    return {"elements": len(args[0])}


def _json_bytes(args, kwargs, out):
    return {"bytes": len(out)}


def _cycles(args, kwargs, out):
    cycles = getattr(out, "cycles", None)
    return {"cycles": cycles, "reports": 1} if cycles is not None else None


@dataclass(frozen=True)
class Target:
    """A function to wrap: span name, defining module, attribute path."""

    span: str
    module: str
    attr: str
    # extra per-call counts taken from (args, kwargs, result); cheap only
    observe: Callable | None = None
    # results whose norm blocks are classified into a projection case when
    # the operation ends, outside every timed span
    cases: Callable | None = None
    # recursive functions get one span for the outermost call
    outermost_only: bool = False


TARGETS = (
    Target("pava.kernel", "mesoc._pava", "pava_nonincreasing_kernel", observe=_elements),
    Target("cones.as_vector", "mesoc.cones", "as_vector"),
    Target(
        "projection.project_mesoc",
        "mesoc.projection",
        "project_mesoc",
        cases=lambda cert: (cert.primal.u, cert.dual_of_neg.u),
    ),
    Target(
        "projection.project_mesoc_parts",
        "mesoc.projection",
        "project_mesoc_parts",
        cases=lambda pair: (pair[0].u, pair[1].u),
    ),
    Target("projection.to_dict", "mesoc.projection", "ProjectionCertificate.to_dict"),
    Target("cli.parse_vector", "mesoc.cli", "parse_vector"),
    Target("cli.format_json", "mesoc.cli", "format_json", observe=_json_bytes, outermost_only=True),
    Target("portfolio.build_mad_model", "mesoc.portfolio", "build_mad_model"),
    Target("portfolio.solve_mad", "mesoc.portfolio", "solve_mad"),
    Target("oracle.dykstra_callables", "mesoc.oracle", "dykstra_callables", observe=_cycles),
)


@dataclass
class Totals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    extra: dict = field(default_factory=dict)


class Tracer:
    """Span stack, per-name totals and the retained raw spans."""

    def __init__(self):
        self.totals: dict[str, Totals] = {}
        self.absent: list[str] = []
        self.ops = 0
        self.op_ns = 0
        self.cases = dict.fromkeys(CASES, 0)
        self.spans: list[tuple] = []  # (op, id, parent, name, start_ns, end_ns)
        self._stack: list[list] = []  # frames: [span id, start_ns, child_ns]
        self._next_id = 0
        self._active: dict[str, int] = {}
        self._pending_cases: list = []
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            try:
                owner, name, original = _resolve(target)
            except (ImportError, AttributeError):
                self.absent.append(target.span)
                continue
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._restore.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for module in list(sys.modules.values()):
                modname = getattr(module, "__name__", "")
                if modname != "mesoc" and not modname.startswith("mesoc."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, target: Target, original):
        name = target.span
        totals = self.totals.setdefault(name, Totals())
        stack = self._stack
        active = self._active
        active[name] = 0
        clock = time.perf_counter_ns
        observe, cases, outermost_only = target.observe, target.cases, target.outermost_only
        pending = self._pending_cases

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not stack or (outermost_only and active[name]):
                return original(*args, **kwargs)
            span_id = self._open()
            frame = [span_id, 0, 0]
            stack.append(frame)
            active[name] += 1
            frame[1] = start = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                duration = end - start
                totals.calls += 1
                totals.total_ns += duration
                totals.self_ns += duration - frame[2]
                stack[-1][2] += duration
                if span_id is not None:
                    self.spans.append((self.ops, span_id, stack[-1][0], name, start, end))
            if observe is not None:
                extra = observe(args, kwargs, out)
                if extra:
                    for key, value in extra.items():
                        totals.extra[key] = totals.extra.get(key, 0) + value
            if cases is not None:
                pending.append((cases, out))
            return out

        return wrapper

    def _open(self):
        if len(self.spans) >= KEEP_SPANS:
            return None
        self._next_id += 1
        return self._next_id

    # -- operations ---------------------------------------------------

    def begin_op(self) -> None:
        """Push the root frame; the caller times the operation itself."""
        self._stack.append([self._open(), 0, 0])

    def end_op(self, start_ns: int, end_ns: int) -> None:
        frame = self._stack.pop()
        if self._stack:
            raise RuntimeError("span stack not empty at the end of an operation")
        if frame[0] is not None:
            self.spans.append((self.ops, frame[0], None, "op", start_ns, end_ns))
        self.ops += 1
        self.op_ns += end_ns - start_ns
        for halves, out in self._pending_cases:
            try:
                u, v = halves(out)
            except (AttributeError, TypeError, IndexError):
                continue
            self.cases[classify(np.asarray(u), np.asarray(v))] += 1
        self._pending_cases.clear()

    def write(self, path) -> None:
        """Write the retained spans (one JSON object per line) and the totals."""
        with open(path, "w") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"op": op, "id": span_id, "parent": parent, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
            summary = {
                name: {"calls": t.calls, "total_ns": t.total_ns, "self_ns": t.self_ns, **t.extra}
                for name, t in self.totals.items()
            }
            fh.write(json.dumps({"totals": summary, "ops": self.ops, "op_ns": self.op_ns}) + "\n")


def _resolve(target: Target):
    """(owner, attribute name, original object) for a target."""
    module = importlib.import_module(target.module)
    owner = module
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


# name, unit, better; the README's table gives the end-to-end metric and
# workload each should move
PER_LAYER = (
    ("pava.kernel.calls_per_op", "count", "lower"),
    ("pava.kernel.ms_per_op", "ms", "lower"),
    ("pava.kernel.ns_per_element", "ns", "lower"),
    ("pava.kernel.share", "ratio", "lower"),
    ("cones.as_vector.calls_per_op", "count", "lower"),
    ("cones.as_vector.us_per_op", "us", "lower"),
    ("projection.project_mesoc.self_us_per_op", "us", "lower"),
    ("projection.case_share.Interior", "ratio", "higher"),
    ("projection.case_share.DualDominates", "ratio", "higher"),
    ("projection.case_share.PrimalDominates", "ratio", "higher"),
    ("projection.project_mesoc_parts.calls_per_op", "count", "lower"),
    ("projection.project_mesoc_parts.us_per_call", "us", "lower"),
    ("projection.to_dict.ms_per_op", "ms", "lower"),
    ("cli.parse_vector.ms_per_op", "ms", "lower"),
    ("cli.format_json.ms_per_op", "ms", "lower"),
    ("cli.format_json.bytes_per_op", "bytes", "lower"),
    ("cli.format_json.mb_per_s", "MB/s", "higher"),
    ("portfolio.build_mad_model.calls_per_op", "count", "lower"),
    ("portfolio.solve_mad.self_ms_per_op", "ms", "lower"),
    ("oracle.dykstra_callables.calls_per_op", "count", "lower"),
    ("oracle.dykstra_callables.cycles_per_call", "count", "lower"),
    ("oracle.dykstra_callables.self_ms_per_op", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, float]:
    """Per-layer values from the traced phase; absent targets are left out.

    A layer the workload never reaches reads 0 (no calls, no time).
    """
    ops = max(tracer.ops, 1)

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    values: dict[str, float] = {}
    t = tracer.totals
    if "pava.kernel" in t:
        k = t["pava.kernel"]
        values["pava.kernel.calls_per_op"] = per_op(k.calls)
        values["pava.kernel.ms_per_op"] = per_op(k.total_ns) / 1e6
        values["pava.kernel.ns_per_element"] = ratio(k.total_ns, k.extra.get("elements", 0))
        values["pava.kernel.share"] = ratio(k.total_ns, tracer.op_ns)
    if "cones.as_vector" in t:
        a = t["cones.as_vector"]
        values["cones.as_vector.calls_per_op"] = per_op(a.calls)
        values["cones.as_vector.us_per_op"] = per_op(a.total_ns) / 1e3
    if "projection.project_mesoc" in t:
        values["projection.project_mesoc.self_us_per_op"] = (
            per_op(t["projection.project_mesoc"].self_ns) / 1e3
        )
    if "projection.project_mesoc" in t or "projection.project_mesoc_parts" in t:
        seen = sum(tracer.cases.values())
        for case, count in tracer.cases.items():
            values[f"projection.case_share.{case}"] = ratio(count, seen)
    if "projection.project_mesoc_parts" in t:
        pp = t["projection.project_mesoc_parts"]
        values["projection.project_mesoc_parts.calls_per_op"] = per_op(pp.calls)
        values["projection.project_mesoc_parts.us_per_call"] = ratio(pp.total_ns, pp.calls) / 1e3
    for span in ("projection.to_dict", "cli.parse_vector", "cli.format_json"):
        if span in t:
            values[f"{span}.ms_per_op"] = per_op(t[span].total_ns) / 1e6
    if "cli.format_json" in t:
        fj = t["cli.format_json"]
        values["cli.format_json.bytes_per_op"] = per_op(fj.extra.get("bytes", 0))
        values["cli.format_json.mb_per_s"] = ratio(fj.extra.get("bytes", 0) * 1e3, fj.total_ns)
    if "portfolio.build_mad_model" in t:
        values["portfolio.build_mad_model.calls_per_op"] = per_op(t["portfolio.build_mad_model"].calls)
    if "portfolio.solve_mad" in t:
        values["portfolio.solve_mad.self_ms_per_op"] = per_op(t["portfolio.solve_mad"].self_ns) / 1e6
    if "oracle.dykstra_callables" in t:
        d = t["oracle.dykstra_callables"]
        values["oracle.dykstra_callables.calls_per_op"] = per_op(d.calls)
        values["oracle.dykstra_callables.cycles_per_call"] = ratio(
            d.extra.get("cycles", 0), d.extra.get("reports", 0)
        )
        values["oracle.dykstra_callables.self_ms_per_op"] = per_op(d.self_ns) / 1e6
    values["trace.overhead_ratio"] = overhead_ratio
    return values


def nesting_errors(spans) -> list[str]:
    """Problems with the retained spans: a child outside its parent's
    interval, or an operation whose self times sum past its duration."""
    problems = []
    by_id = {s[1]: s for s in spans}
    child_ns: dict = {}
    for op, span_id, parent, name, start, end in spans:
        if end < start:
            problems.append(f"span {span_id} ({name}) ends before it starts")
        if parent is None:
            continue
        up = by_id.get(parent)
        if up is None:
            continue  # the parent closed after the retained window filled
        if up[0] != op or start < up[4] or end > up[5]:
            problems.append(f"span {span_id} ({name}) is not inside its parent {parent}")
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    # a self time cannot be negative; overlapping children would need it to
    self_sum: dict = {}
    duration: dict = {}
    for op, span_id, parent, name, start, end in spans:
        own = max(0, (end - start) - child_ns.get(span_id, 0))
        self_sum[op] = self_sum.get(op, 0) + own
        if parent is None:
            duration[op] = end - start
    for op, total in duration.items():
        if self_sum[op] > total:
            problems.append(f"op {op}: self times sum to {self_sum[op]} ns > {total} ns")
    return problems
