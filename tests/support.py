"""Shared test oracles: brute-force projections and random cone members."""

import itertools
import json
import math

import numpy as np

from mesoc._pava import pava_nonincreasing_kernel
from mesoc.cones import (
    ConeId,
    as_vector,
    project_monotone_nonneg,
    project_monotone_nonneg_dual,
)
from mesoc.projection import ProjectionCase, _dot, _norm


def brute_isotonic_nonincreasing(z):
    """Minimize over all ordered block partitions, blockwise means.

    The projection onto the nonincreasing cone is blockwise constant with
    each block value the mean of its inputs, so enumerating every split
    into consecutive blocks, keeping the order-feasible candidates, and
    taking the closest one recovers it exactly. Exponential in p; use for
    p <= 12 or so.
    """
    z = np.asarray(z, dtype=np.float64)
    p = z.size
    best, best_d = None, np.inf
    for cuts in itertools.product((False, True), repeat=p - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [p]
        cand = np.empty(p)
        means = []
        for a, b in zip(bounds, bounds[1:]):
            m = z[a:b].mean()
            cand[a:b] = m
            means.append(m)
        if any(means[i] + 1e-12 < means[i + 1] for i in range(len(means) - 1)):
            continue
        d = float(np.sum((cand - z) ** 2))
        if d < best_d:
            best, best_d = cand, d
    return best


def reference_pava_nonincreasing(z):
    """Frozen stack loop of PAVA, the reference for the kernel's rounds.

    One pass left to right over unit blocks, merging a block into its left
    neighbour while the left mean is below it, with running weighted means.
    This was the whole kernel before the numpy rounds; the kernel still
    runs exactly this loop at or below `_pava._SMALL` values.
    """
    means = [np.inf]
    counts = [0]
    for m2 in np.asarray(z, dtype=np.float64).tolist():
        c2 = 1
        m1 = means[-1]
        while m1 < m2:
            means.pop()
            c1 = counts.pop()
            c = c1 + c2
            m2 = (m1 * c1 + m2 * c2) / c
            c2 = c
            m1 = means[-1]
        means.append(m2)
        counts.append(c2)
    return np.repeat(np.array(means[1:], dtype=np.float64), counts[1:])


def soc_project(t, w):
    """Closed-form projection onto the second-order cone {(t, w): t >= ||w||}."""
    w = np.asarray(w, dtype=np.float64)
    nw = float(np.linalg.norm(w))
    if nw <= t:
        return float(t), w.copy()
    if nw <= -t:
        return 0.0, np.zeros_like(w)
    a = 0.5 * (t + nw)
    return a, (a / nw) * w


def random_mesoc_member(rng, p, q, boundary=False):
    """Constructive sample of (x, u) with x_1 >= ... >= x_p >= ||u||."""
    u = rng.standard_normal(q)
    slack = 0.0 if boundary else abs(rng.standard_normal())
    x = np.empty(p)
    x[-1] = np.linalg.norm(u) + slack
    for i in range(p - 2, -1, -1):
        x[i] = x[i + 1] + abs(rng.standard_normal())
    return x, u


def random_mesoc_dual_member(rng, p, q, boundary=False):
    """Constructive sample of (y, v) with prefix sums >= 0 and sum(y) >= ||v||."""
    v = rng.standard_normal(q)
    slack = 0.0 if boundary else abs(rng.standard_normal())
    prefixes = np.abs(rng.standard_normal(p))
    prefixes[-1] = np.linalg.norm(v) + slack
    y = np.empty(p)
    y[0] = prefixes[0]
    y[1:] = np.diff(prefixes)
    return y, v


def random_weights(rng, n):
    """Moderate random weights summing to 1 exactly (no huge entries)."""
    w = rng.normal(1.0 / n, 1.0, n)
    w += (1.0 - w.sum()) / n
    return w


def feasible_portfolio_point(rng, T, s, w, collapsed=True):
    """Cone-and-hyperplane feasible (y_rev, u) with sum(u) = s.

    With collapsed=True the deviation bounds sit on the cone boundary,
    which is where the optimum lives; loose points are dominated but still
    feasible.
    """
    u = s * np.asarray(w, dtype=np.float64)
    base = float(np.linalg.norm(u))
    if collapsed:
        y_rev = np.full(T, base)
    else:
        y_rev = base + np.sort(np.abs(rng.standard_normal(T)))[::-1]
    return np.concatenate([y_rev, u])


def three_case_mesoc_projection(z, w):
    """Reference MESOC projection by the three-case analysis; (x, u, y, v, case).

    Two scalar tests on the monotone nonnegative projections of z decide
    whether the dual absorbs all of w (DualDominates), the primal keeps all
    of it (PrimalDominates, also w = 0 and q = 0), or both share it
    (Interior). In the interior case lambda comes from the lifted vector
    (z, ||w||), and the halves from one more projection of z shifted by the
    primal's and the dual's shares of ||w||. Up to three PAVA passes; kept
    as an independent reference for the one-pass implementation.
    """
    z = np.asarray(z, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    w_norm = float(np.linalg.norm(w)) if w.size else 0.0
    x = project_monotone_nonneg(z)
    y = project_monotone_nonneg_dual(-z)
    if w_norm == 0.0:
        return x, w.copy(), y, np.zeros_like(w), "PrimalDominates"
    if float(np.sum(y)) >= w_norm:
        return x, np.zeros_like(w), y, -w, "DualDominates"
    if float(x[-1]) >= w_norm:
        return x, w.copy(), y, np.zeros_like(w), "PrimalDominates"
    lam = w_norm / float(project_monotone_nonneg(np.append(z, w_norm))[-1]) - 1.0
    a = w_norm / (1.0 + lam)  # shift absorbed by the primal
    b = w_norm - a  # absorbed by the dual
    f = z - a
    f[-1] += b
    x = project_monotone_nonneg(f) + a
    y = project_monotone_nonneg_dual(-f)
    y[-1] += b
    return x, (a / w_norm) * w, y, (-b / w_norm) * w, "Interior"


def _reference_scalar_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if not np.isfinite(x):
            raise ValueError(f"non-finite value {x!r} in JSON output")
        return format(x, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def reference_format_json(value, indent: int = 0) -> str:
    """Frozen per-element copy of the CLI's JSON writer, the byte reference.

    Recurses once per list item and formats every float on its own; the
    CLI's one-pass float lists must reproduce its output exactly.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {reference_format_json(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{inner}{reference_format_json(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    return _reference_scalar_json(value)


def reference_cone_contains(cone, z, tol=0.0):
    """Frozen copy of the membership test that wrote each inequality inline.

    The library now derives membership from `cone_violation(cone, z) <= tol`;
    this copy tests the inequalities directly, as the reference for it.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    z = as_vector(z)
    cone = ConeId(cone)
    if cone is ConeId.MONOTONE:
        return bool(np.all(np.diff(z) <= tol))
    if cone is ConeId.MONOTONE_NONNEG:
        return bool(np.all(np.diff(z) <= tol) and z[-1] >= -tol)
    if cone is ConeId.NONNEG_ORTHANT:
        return bool(np.all(z >= -tol))
    prefixes = np.cumsum(z)
    if cone is ConeId.MONOTONE_DUAL:
        return bool(np.all(prefixes[:-1] >= -tol) and abs(prefixes[-1]) <= tol)
    # monotone nonnegative dual: every prefix sum, including the total
    return bool(np.all(prefixes >= -tol))


def reference_mesoc_contains(pt, tol=0.0):
    """Frozen inline test of x nonincreasing and x_p >= ||u||, within tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    x = pt.x
    if not np.all(np.diff(x) <= tol):
        return False
    return bool(x[-1] >= pt.u_norm - tol)


def reference_mesoc_dual_contains(pt, tol=0.0):
    """Frozen inline test of proper prefix sums >= 0 and sum(y) >= ||v||, within tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    prefixes = np.cumsum(pt.x)
    if not np.all(prefixes[:-1] >= -tol):
        return False
    return bool(prefixes[-1] >= pt.u_norm - tol)



def _reference_moreau_half(primal, z):
    with np.errstate(over="ignore"):
        half = primal - z
    if not np.isfinite(half).all():
        raise OverflowError("a Moreau dual half exceeds the float range")
    return half


def _reference_project_parts(z, w):
    w_norm = _norm(w)
    lifted = pava_nonincreasing_kernel(np.append(z, w_norm))
    np.maximum(lifted, 0.0, out=lifted)
    x = lifted[:-1]
    y = _reference_moreau_half(x, z)
    t = float(lifted[-1])  # the part of ||w|| the primal keeps
    if t >= w_norm:
        # includes w = 0 and q = 0; the primal keeps all of w
        return x, w.copy(), y, np.zeros_like(w), ProjectionCase.PRIMAL_DOMINATES, None
    if t == 0.0:
        return x, np.zeros_like(w), y, -w, ProjectionCase.DUAL_DOMINATES, None
    u = (t / w_norm) * w
    return x, u, y, u - w, ProjectionCase.INTERIOR, w_norm / t - 1.0


def reference_project_mesoc(z, w):
    """Frozen assembly of the projection; (x, u, y, v, case, lam, additive, ortho).

    The lifted vector through `np.append`, the dual half checked by a
    finiteness scan, and both residuals summed over every term in every
    case. The library builds the same Moreau pair and certificate with
    fewer temporaries and skips terms that are exactly zero; every output
    must match this copy bit for bit.
    """
    z = as_vector(z, "z")
    w = as_vector(w, "w", allow_empty=True)
    x, u, y, v, case, lam = _reference_project_parts(z, w)
    rx, ru = x - y - z, u - v - w
    additive = math.sqrt(_dot(rx, rx) + _dot(ru, ru))
    ortho = abs(_dot(x, y) + _dot(u, v))
    return x, u, y, v, case, lam, additive, ortho
