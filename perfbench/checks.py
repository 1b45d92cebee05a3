"""Output checks that do not trust the program's own diagnostics.

Each check recomputes the defining inequalities of its answer from the
returned vectors and the input. None of them reads a certificate residual,
a convergence flag or the case label. Each returns None when the output
is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import DUAL, INTERIOR, PRIMAL

_EPS = np.finfo(np.float64).eps


def classify(u: np.ndarray, v: np.ndarray) -> str:
    """Projection case read off the two halves' norm blocks.

    v = 0 means the primal kept all of w (this includes q = 0 and w = 0),
    u = 0 means the dual took all of it, and both nonzero is the interior.
    """
    if not np.any(v):
        return PRIMAL
    if not np.any(u):
        return DUAL
    return INTERIOR


def _tolerance(*arrays: np.ndarray) -> float:
    """Rounding allowance: a few ulps of the largest magnitude per coordinate."""
    size = sum(a.size for a in arrays)
    scale = max((float(np.max(np.abs(a))) for a in arrays if a.size), default=0.0)
    return 8.0 * _EPS * (size + 1) * max(scale, np.finfo(np.float64).tiny)


def check_projection(z, w, x, u, y, v, expected_case=None) -> str | None:
    """(x, u) in L(p, q), (y, v) in L*(p, q) and (x, u) - (y, v) = (z, w)."""
    x, u, y, v = (np.asarray(a, dtype=np.float64) for a in (x, u, y, v))
    p, q = z.size, w.size
    if (x.size, u.size, y.size, v.size) != (p, q, p, q):
        return f"shapes {(x.size, u.size, y.size, v.size)} for p={p}, q={q}"
    if not all(np.isfinite(a).all() for a in (x, u, y, v)):
        return "non-finite output"
    tol = _tolerance(z, w, x, u, y, v)
    rise = float(np.max(np.diff(x), initial=0.0))
    if rise > tol:
        return f"primal x rises by {rise:.3e} (tol {tol:.1e})"
    u_norm = float(np.linalg.norm(u)) if q else 0.0
    if x[-1] < u_norm - tol:
        return f"primal x_p = {x[-1]!r} < ||u|| = {u_norm!r}"
    prefixes = np.cumsum(y)
    low = float(np.min(prefixes[:-1], initial=0.0))
    if low < -tol:
        return f"dual prefix sum {low:.3e} < 0 (tol {tol:.1e})"
    v_norm = float(np.linalg.norm(v)) if q else 0.0
    if prefixes[-1] < v_norm - tol:
        return f"dual sum {prefixes[-1]!r} < ||v|| = {v_norm!r}"
    gap = max(float(np.max(np.abs(x - y - z))), float(np.max(np.abs(u - v - w), initial=0.0)))
    if gap > tol:
        return f"primal - dual misses the input by {gap:.3e} (tol {tol:.1e})"
    if expected_case is not None and classify(u, v) != expected_case:
        return f"case {classify(u, v)}, built for {expected_case}"
    return None


def check_cli_output(code: int, text: str, reference_primal: np.ndarray) -> str | None:
    """Exit 0, JSON that parses, and a primal equal bit for bit to the library's."""
    if code != 0:
        return f"exit code {code}"
    try:
        # ints count as floats so that "-0" keeps its sign
        payload = json.loads(text, parse_int=float)
        primal = np.asarray(payload["primal"], dtype=np.float64)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    if primal.shape != reference_primal.shape:
        return f"primal has {primal.size} entries, library gave {reference_primal.size}"
    if not np.array_equal(primal.view(np.uint64), reference_primal.view(np.uint64)):
        diff = int(np.count_nonzero(primal.view(np.uint64) != reference_primal.view(np.uint64)))
        return f"primal differs from the library result in {diff} entries"
    return None


def mad_objective_parts(returns: np.ndarray, jstar: int):
    """Expected returns r and the cone scale s = ||U_jstar|| (uniform probabilities)."""
    r = returns.mean(axis=0)
    return r, float(np.linalg.norm(returns[jstar] - r))


def check_portfolio(returns: np.ndarray, c0: float, w, y, jstar) -> str | None:
    """Budget, cone membership of (reversed y, s w), and no worse than uniform.

    The conic objective is c0 * mean(y) - r^T w. The uniform portfolio with
    its bounds on the cone boundary, y = s ||1/n|| everywhere, is feasible,
    so the returned point must not score worse.
    """
    T, n = returns.shape
    w = np.asarray(w, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if w.shape != (n,) or y.shape != (T,):
        return f"shapes w {w.shape}, y {y.shape} for T={T}, n={n}"
    if not (np.isfinite(w).all() and np.isfinite(y).all()):
        return "non-finite output"
    budget = abs(float(w.sum()) - 1.0)
    if budget > 1e-9:
        return f"|sum(w) - 1| = {budget:.3e} > 1e-9"
    if not 0 <= int(jstar) < T:
        return f"reference scenario {jstar} out of range"
    r, s = mad_objective_parts(returns, int(jstar))
    cone_y = y[::-1]
    tol = _tolerance(cone_y, s * w)
    rise = float(np.max(np.diff(cone_y), initial=0.0))
    if rise > tol:
        return f"deviation bounds are not ordered (rise {rise:.3e})"
    bound = s * float(np.linalg.norm(w))
    if float(cone_y[-1]) < bound - tol:
        return f"smallest bound {cone_y[-1]!r} < s ||w|| = {bound!r}"
    objective = c0 * float(y.mean()) - float(r @ w)
    uniform = c0 * s / np.sqrt(n) - float(r.mean())
    if objective > uniform + 1e-9 * max(1.0, abs(uniform)):
        return f"objective {objective!r} worse than uniform {uniform!r}"
    return None
