"""Conic mean-absolute-deviation portfolio model solved over the MESOC.

Scenario returns R (T rows, n assets) with probabilities f induce expected
returns r = f @ R and deviations U_j = R_j - r. The deviation bounds y are
relaxed into an ordered chain, which turns the model into a linear program
over a MESOC section:

    minimize    c0 * f^T y - r^T u / s
    subject to  sum(u) = s,
                (y_T, ..., y_1, u) in MESOC(T, n),

with s = ||U_{j*}|| for a reference scenario j* and portfolio weights
w = u / s. The cone stores y reversed (largest bound first); the model
pre-permutes the objective coefficients once so no other code needs to
think about the reversal.

The solver is projected subgradient with diminishing steps, projecting
onto the cone-hyperplane intersection by Dykstra alternation between the
exact MESOC projection and the hyperplane, and it keeps its best iterate.
A linear objective over this set collapses analytically (y sits on the
cone boundary, and the remaining problem in w has a closed-form KKT
solution), so the answer is whichever of the best iterate and that
closed-form point has the lower objective. The closed form exists only
when the model is bounded below; otherwise the best iterate is returned.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .cones import DimensionError, as_vector
from .oracle import dykstra_callables
from .projection import MesocPoint, mesoc_violation, project_mesoc_parts

_PROB_SUM_TOL = 1e-12
_W0_SUM_TOL = 1e-8
# subgradient step scale and step count, Dykstra stopping rule for the
# inner feasibility projection, the residual below which a solve counts as
# converged, and the cap on refine_jstar's build/solve rounds
_STEP0 = 1.0
_MAX_ITER = 200
_INNER_TOL = 1e-9
_INNER_MAX_CYCLES = 20_000
_FEAS_TOL = 1e-7
_MAX_OUTER = 10


class ModelDomainError(ValueError):
    """Well-formed data outside the model's domain (c0 outside (0, inf), degenerate j*)."""


@dataclass(frozen=True, eq=False)
class ScenarioData:
    """Validated scenario return matrix (T x n) with scenario probabilities."""

    returns: np.ndarray
    probabilities: np.ndarray

    @property
    def n_scenarios(self) -> int:
        return self.returns.shape[0]

    @property
    def n_assets(self) -> int:
        return self.returns.shape[1]


def load_scenarios(returns, probabilities=None) -> ScenarioData:
    """Validate a scenario matrix; probabilities default to uniform."""
    mat = np.asarray(returns, dtype=np.float64)
    if mat.ndim != 2:
        raise DimensionError(f"returns must be a T x n matrix, got shape {mat.shape}")
    T, n = mat.shape
    if T < 1 or n < 1:
        raise DimensionError("need at least one scenario and one asset")
    if not np.isfinite(mat).all():
        raise ValueError("returns contain NaN or Inf")
    if probabilities is None:
        probs = np.full(T, 1.0 / T)
    else:
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.shape != (T,):
            raise DimensionError(f"probabilities must have length {T}, got shape {probs.shape}")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities contain NaN or Inf")
        if np.any(probs < -_PROB_SUM_TOL) or np.any(probs > 1.0 + _PROB_SUM_TOL):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(float(probs.sum()) - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, expected 1")
    return ScenarioData(mat, probs)


def read_returns_csv(path, probabilities_column: int | None = None) -> ScenarioData:
    """Read comma-separated scenario returns, one row per scenario.

    A non-numeric first row is treated as a header. If probabilities_column
    is given (0-based), that column is split off as the scenario
    probabilities and the remaining columns are the asset returns.
    """
    with open(path, newline="") as fh:
        raw = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not raw:
        raise ValueError(f"no data rows in {path}")
    start = 0
    try:
        [float(c) for c in raw[0]]
    except ValueError:
        start = 1
    if start == len(raw):
        raise ValueError(f"no numeric rows in {path}")
    width = len(raw[start])
    parsed = np.empty((len(raw) - start, width))
    for i, row in enumerate(raw[start:]):
        if len(row) != width:
            raise DimensionError(
                f"ragged row {start + i + 1}: {len(row)} cells, expected {width}"
            )
        try:
            parsed[i] = [float(c) for c in row]
        except ValueError:
            raise ValueError(f"non-numeric cell in row {start + i + 1}") from None
    probs = None
    if probabilities_column is not None:
        if not -width <= probabilities_column < width:
            raise DimensionError(
                f"probabilities column {probabilities_column} out of range for width {width}"
            )
        probs = parsed[:, probabilities_column]
        parsed = np.delete(parsed, probabilities_column, axis=1)
    return load_scenarios(parsed, probs)


@dataclass(frozen=True, eq=False)
class MadModel:
    """Built model: expected returns, deviations, and the cone layout.

    `cone_costs` are the objective coefficients on the reversed-y block of
    the cone vector (c0 * reversed probabilities), fixed at build time.
    """

    r: np.ndarray
    U: np.ndarray
    c0: float
    jstar: int
    uscale: float
    probabilities: np.ndarray
    cone_costs: np.ndarray

    @property
    def n_scenarios(self) -> int:
        return self.U.shape[0]

    @property
    def n_assets(self) -> int:
        return self.U.shape[1]


def build_mad_model(data: ScenarioData, c0: float, w0=None) -> MadModel:
    """Pick the reference scenario for w0 and freeze the conic encoding.

    j* is the scenario whose deviation is least exposed to w0 (ties broken
    toward the smallest index); its deviation norm sets the cone scale.
    """
    if not 0 < c0 < math.inf:
        raise ModelDomainError(f"risk aversion must be positive and finite, got {c0}")
    T, n = data.returns.shape
    if w0 is None:
        w0 = np.full(n, 1.0 / n)
    else:
        w0 = as_vector(w0, "w0")
        if w0.shape != (n,):
            raise DimensionError(f"w0 must have length {n}")
        if abs(float(w0.sum()) - 1.0) > _W0_SUM_TOL:
            raise ValueError(f"w0 must sum to 1, got {w0.sum()!r}")
    f = data.probabilities
    r = f @ data.returns
    U = data.returns - r
    jstar = int(np.argmin(np.abs(U @ w0)))
    uscale = float(np.linalg.norm(U[jstar]))
    if uscale == 0.0:
        raise ModelDomainError(
            f"reference scenario {jstar} has zero deviation; model is degenerate"
        )
    return MadModel(
        r=r,
        U=U,
        c0=float(c0),
        jstar=jstar,
        uscale=uscale,
        probabilities=f,
        cone_costs=c0 * f[::-1].copy(),
    )


@dataclass(frozen=True)
class FeasibilityReport:
    sum_u_residual: float
    cone_violation: float

    @property
    def max_residual(self) -> float:
        return max(self.sum_u_residual, self.cone_violation)


@dataclass(frozen=True, eq=False)
class MadSolution:
    """Solver output: weights, deviation bounds, objectives, diagnostics.

    `objective` is the conic objective; `mad_objective` evaluates the
    original mean-absolute-deviation objective at the returned weights (the
    conic model is a relaxation, so the two are reported side by side
    rather than assumed equal). y is in natural scenario order.
    """

    w: np.ndarray
    y: np.ndarray
    objective: float
    mad_objective: float
    feasibility: FeasibilityReport
    iterations: int
    converged: bool
    jstar: int
    uscale: float
    jstar_stable: bool | None = None
    outer_iterations: int = 1

    def to_dict(self) -> dict:
        """The CLI payload; w and y are float64 copies, so editing it leaves self as is."""
        return {
            "w": self.w.copy(),
            "y": self.y.copy(),
            "objective": self.objective,
            "mad_objective": self.mad_objective,
            "residuals": {
                "sum_u": self.feasibility.sum_u_residual,
                "cone": self.feasibility.cone_violation,
            },
            "iterations": self.iterations,
            "converged": self.converged,
            "jstar": self.jstar,
            "uscale": self.uscale,
            "jstar_stable": self.jstar_stable,
            "outer_iterations": self.outer_iterations,
        }


def _cone_feasibility(v: np.ndarray, T: int, uscale: float) -> FeasibilityReport:
    sum_res = abs(float(np.sum(v[T:])) - uscale)
    cone_res = mesoc_violation(MesocPoint._computed(v[:T], v[T:]))
    return FeasibilityReport(sum_res, cone_res)


def solve_mad(model: MadModel) -> MadSolution:
    """Minimize the conic MAD objective over the MESOC section."""
    T, n = model.n_scenarios, model.n_assets
    s = model.uscale
    cost = np.concatenate([model.cone_costs, -model.r / s])
    cost_norm = float(np.linalg.norm(cost))

    def project_cone_part(vec):
        primal, _ = project_mesoc_parts(vec[:T], vec[T:])
        return primal.as_vector()

    def project_hyperplane(vec):
        out = vec.copy()
        out[T:] += (s - float(np.sum(vec[T:]))) / n
        return out

    def project_feasible(vec):
        return dykstra_callables(
            [project_cone_part, project_hyperplane], vec, _INNER_TOL, _INNER_MAX_CYCLES
        )

    # feasible start: uniform weights, deviation bounds on the cone boundary
    u = np.full(n, s / n)
    v = np.concatenate([np.full(T, float(np.linalg.norm(u))), u])

    best_v = v
    best_obj = float(np.dot(cost, v))
    for k in range(1, _MAX_ITER + 1):
        step = _STEP0 / (cost_norm * np.sqrt(k)) if cost_norm > 0 else 0.0
        v = project_feasible(v - step * cost).point
        obj = float(np.dot(cost, v))
        if obj < best_obj:
            best_obj, best_v = obj, v

    # iterates are only feasible to the inner tolerance, which would let a
    # marginally infeasible point undercut an exact one in the comparison
    # below; recentring u onto the sum constraint and collapsing y onto the
    # cone boundary restores exact feasibility without giving up objective
    # (the y costs are nonnegative, so y = ||u|| e is optimal for fixed u)
    def finished(vec):
        u_part = vec[T:] + (s - float(np.sum(vec[T:]))) / n
        return np.concatenate([np.full(T, float(np.linalg.norm(u_part))), u_part])

    candidates = [finished(best_v)]
    polished = _kkt_candidate(model)
    if polished is not None:
        candidates.append(polished)

    final_obj, final_v = min(
        ((float(np.dot(cost, vec)), vec) for vec in candidates), key=lambda t: t[0]
    )
    feas = _cone_feasibility(final_v, T, s)
    u = final_v[T:]
    w = u / s
    y_reversed = final_v[:T]
    f = model.probabilities
    mad_obj = float(model.c0 * np.dot(f, np.abs(model.U @ w)) - np.dot(model.r, w))
    return MadSolution(
        w=w,
        y=y_reversed[::-1].copy(),
        objective=final_obj,
        mad_objective=mad_obj,
        feasibility=feas,
        iterations=_MAX_ITER,
        converged=feas.max_residual <= _FEAS_TOL,
        jstar=model.jstar,
        uscale=s,
    )


def _kkt_candidate(model: MadModel) -> np.ndarray | None:
    """Closed-form stationary point of the reduced problem in w.

    With y collapsed onto the cone boundary the objective reduces to
    c0*s*||w|| - r^T w over sum(w) = 1; the stationarity condition pins
    w parallel to r - nu with ||r - nu|| = c0*s. Returns None when the
    discriminant is nonpositive (the problem is unbounded or on the
    boundary of boundedness) so the caller falls back to the best iterate.
    """
    r, s, c0 = model.r, model.uscale, model.c0
    n = r.size
    rsum = float(np.sum(r))
    disc = rsum * rsum - n * (float(np.dot(r, r)) - c0 * c0 * s * s)
    if disc <= 0.0:
        return None
    root = float(np.sqrt(disc))
    nu = (rsum - root) / n
    w = (r - nu) / root
    u = s * w
    T = model.n_scenarios
    return np.concatenate([np.full(T, float(np.linalg.norm(u))), u])


def refine_jstar(data: ScenarioData, c0: float) -> MadSolution:
    """Iterate build/solve until the reference scenario is self-consistent.

    The reference scenario depends on the weights it is meant to produce;
    this closes the loop by fixed-point iteration from the uniform
    portfolio, for at most _MAX_OUTER rounds. Cycling (a previously visited
    j* reappearing without stabilizing) returns the best-objective iterate,
    flagged.
    """
    n = data.n_assets
    w = np.full(n, 1.0 / n)
    seen: list[int] = []
    solutions: list[MadSolution] = []
    for outer in range(1, _MAX_OUTER + 1):
        model = build_mad_model(data, c0, w)
        seen.append(model.jstar)
        sol = solve_mad(model)
        solutions.append(sol)
        next_jstar = int(np.argmin(np.abs(model.U @ sol.w)))
        if next_jstar == model.jstar:
            return replace(sol, jstar_stable=True, outer_iterations=outer)
        if next_jstar in seen:
            break
        w = sol.w
    best = min(solutions, key=lambda s_: s_.objective)
    return replace(best, jstar_stable=False, outer_iterations=outer)
