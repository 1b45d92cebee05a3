"""Command-line surface: project, check, oracle-compare, solve-portfolio.

Vectors travel as comma-separated decimals with --p/--q giving the split of
the concatenated point (x then u). All verbs emit JSON on stdout; floats are
written with 17 significant digits so output round-trips doubles losslessly.

Exit codes: 0 success, 1 property violation (membership or deviation check
failed), 2 parse error, 3 dimension mismatch, 4 non-convergence (a Dykstra
run that hit its cycle cap, or a portfolio solve whose residuals exceed the
fixed feasibility tolerance 1e-7), 5 input outside the model's domain (c0
not in (0, inf), a degenerate reference scenario), 6 a result outside the
float range (a norm, a Moreau dual half, a cone violation or a
certificate residual above the largest finite double).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

import numpy as np

from .cones import ConeId, DimensionError, cone_violation, project_cone
from .oracle import dykstra_project, mesoc_pieces
from .portfolio import ModelDomainError, read_returns_csv, refine_jstar
from .projection import (
    MesocPoint,
    mesoc_dual_violation,
    mesoc_violation,
    project_mesoc,
    project_mesoc_dual,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_NONCONVERGENCE = 4
EXIT_DOMAIN = 5
EXIT_OVERFLOW = 6

_VECTOR_CONES = tuple(cone.value for cone in ConeId)
_CONE_CHOICES = ("mesoc", "mesoc-dual") + _VECTOR_CONES
# each --cone value's violation function, taking what _point returns for it
_VIOLATIONS = {"mesoc": mesoc_violation, "mesoc-dual": mesoc_dual_violation}
_VIOLATIONS.update({c: partial(cone_violation, c) for c in _VECTOR_CONES})
_ORACLE_DIM_CAP = 8
_FLOAT_TYPES = {float, np.float64}


def _floats_json(values, sep: str) -> str:
    """Floats at 17 significant digits joined by sep, in one formatting call.

    Raises OverflowError for a non-finite value: every input and flag is
    finite, so only an overflow can have produced it.
    """
    if not all(map(math.isfinite, values)):
        bad = next(x for x in values if not math.isfinite(x))
        raise OverflowError(f"non-finite value {float(bad)!r} in JSON output")
    return sep.join(["%.17g"] * len(values)) % tuple(values)


def _scalar_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _floats_json((float(value),), "")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def format_json(value, indent: int = 0) -> str:
    """Deterministic JSON with .17g floats (json.dumps cannot control that).

    A list, tuple or array holding only floats is written in one pass;
    any other list formats each item in turn.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {format_json(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        sep = ",\n" + inner
        if set(map(type, value)) <= _FLOAT_TYPES:
            items = _floats_json(value, sep)
        else:
            items = sep.join(format_json(v, indent + 1) for v in value)
        return "[\n" + inner + items + "\n" + pad + "]"
    return _scalar_json(value)


def _emit(payload) -> None:
    sys.stdout.write(format_json(payload) + "\n")


def parse_vector(text: str) -> np.ndarray:
    """Comma-separated decimals; newlines count as separators too.

    Blank cells are skipped; float() itself ignores the whitespace around
    a number.
    """
    cells = text.replace("\n", ",").split(",")
    try:
        values = list(map(float, filter(str.strip, cells)))
    except ValueError as exc:
        raise ValueError(f"malformed number in vector: {exc}") from None
    return np.asarray(values, dtype=np.float64)


def _read_vector(args) -> np.ndarray:
    if (args.inline is None) == (args.file is None):
        raise ValueError("exactly one of --inline or --file is required")
    if args.inline is not None:
        return parse_vector(args.inline)
    try:
        with open(args.file) as fh:
            return parse_vector(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read {args.file}: {exc}") from None


def _point(vec: np.ndarray, args) -> MesocPoint | np.ndarray:
    """The input split as --cone takes it: a MesocPoint, or the plain vector."""
    if args.cone in ("mesoc", "mesoc-dual"):
        return MesocPoint.from_vector(vec, args.p, args.q)
    if args.q:
        raise DimensionError(f"cone {args.cone} takes no u block; drop --q or set it to 0")
    if vec.size != args.p:
        raise DimensionError(f"vector has length {vec.size}, expected p = {args.p}")
    return vec


def cmd_project(args) -> int:
    vec = _read_vector(args)
    pt = _point(vec, args)
    if args.cone == "mesoc":
        payload = {"cone": "mesoc"}
        payload.update(project_mesoc(pt.x, pt.u).to_dict())
        _emit(payload)
        return EXIT_OK
    if args.cone == "mesoc-dual":
        proj = project_mesoc_dual(pt.x, pt.u)
        _emit(
            {
                "cone": "mesoc-dual",
                "p": args.p,
                "q": args.q,
                "input": vec.tolist(),
                "projection": proj.as_vector().tolist(),
                "violation": mesoc_dual_violation(proj),
            }
        )
        return EXIT_OK
    proj = project_cone(args.cone, pt)
    _emit(
        {
            "cone": args.cone,
            "p": args.p,
            "input": vec.tolist(),
            "projection": proj.tolist(),
            "violation": cone_violation(args.cone, proj),
        }
    )
    return EXIT_OK


def cmd_check(args) -> int:
    pt = _point(_read_vector(args), args)
    if not 0.0 <= args.tol < math.inf:
        raise ValueError("tol must be finite and nonnegative")
    violation = _VIOLATIONS[args.cone](pt)
    member = violation <= args.tol
    _emit(
        {
            "cone": args.cone,
            "member": member,
            "violation": violation,
            "tol": args.tol,
        }
    )
    return EXIT_OK if member else EXIT_VIOLATION


def cmd_oracle_compare(args) -> int:
    if not 0.0 <= args.tol < math.inf:
        raise ValueError("tol must be finite and nonnegative")
    if args.p > _ORACLE_DIM_CAP or args.q > _ORACLE_DIM_CAP:
        raise DimensionError(
            f"oracle comparison is capped at p, q <= {_ORACLE_DIM_CAP}; "
            f"got p={args.p}, q={args.q}"
        )
    if args.count < 0:
        raise DimensionError("need count >= 0")
    pieces = mesoc_pieces(args.p, args.q)
    rng = np.random.default_rng(args.seed)
    rows = []
    all_converged = True
    max_dev = 0.0
    for i in range(args.count):
        z = rng.standard_normal(args.p)
        w = rng.standard_normal(args.q)
        exact = project_mesoc(z, w).primal.as_vector()
        rep = dykstra_project(pieces, np.concatenate([z, w]))
        dev = float(np.max(np.abs(exact - rep.point))) if exact.size else 0.0
        max_dev = max(max_dev, dev)
        all_converged = all_converged and rep.converged
        rows.append(
            {
                "instance": i,
                "deviation": dev,
                "cycles": rep.cycles,
                "converged": rep.converged,
            }
        )
    _emit(
        {
            "p": args.p,
            "q": args.q,
            "count": args.count,
            "seed": args.seed,
            "tol": args.tol,
            "max_deviation": max_dev,
            "rows": rows,
        }
    )
    if max_dev > args.tol:
        return EXIT_VIOLATION
    if not all_converged:
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_solve_portfolio(args) -> int:
    if args.file is None:
        raise ValueError("--file with scenario returns is required")
    data = read_returns_csv(args.file, args.probabilities_column)
    sol = refine_jstar(data, args.c0)
    _emit(sol.to_dict())
    return EXIT_OK if sol.converged else EXIT_NONCONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesoc",
        description="Exact projections onto the monotone extended second-order cone.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_vector_flags(sp):
        sp.add_argument("--p", type=int, required=True, help="length of the ordered block")
        sp.add_argument("--q", type=int, default=0, help="length of the norm block")
        sp.add_argument("--inline", help="comma-separated input vector")
        sp.add_argument("--file", help="file containing the input vector")
        sp.add_argument("--cone", choices=_CONE_CHOICES, default="mesoc")

    sp = sub.add_parser("project", help="project a point and emit the certificate")
    add_vector_flags(sp)
    sp.set_defaults(func=cmd_project)

    sp = sub.add_parser("check", help="test cone membership of a point")
    add_vector_flags(sp)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser(
        "oracle-compare", help="compare the closed form against Dykstra on random inputs"
    )
    sp.add_argument("--p", type=int, default=4)
    sp.add_argument("--q", type=int, default=4)
    sp.add_argument("--count", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.set_defaults(func=cmd_oracle_compare)

    sp = sub.add_parser("solve-portfolio", help="solve the conic MAD model from a returns CSV")
    sp.add_argument("--file", help="CSV of scenario returns, one row per scenario")
    sp.add_argument("--c0", type=float, default=1.0, help="risk-aversion weight")
    sp.add_argument(
        "--probabilities-column",
        type=int,
        default=None,
        help="0-based CSV column holding scenario probabilities",
    )
    sp.set_defaults(func=cmd_solve_portfolio)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DimensionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except ModelDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
