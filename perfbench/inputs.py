"""Seeded input generators for the four workloads.

Only numpy is used here; nothing imports mesoc, so the program under test
receives nothing but the arrays built below. Every family that is meant to
land in one projection case is built so that it does by construction (the
margins are wide), and the workload checks the case again when it first
runs the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INTERIOR = "Interior"
DUAL = "DualDominates"
PRIMAL = "PrimalDominates"
CASES = (INTERIOR, DUAL, PRIMAL)

SMALL_POOL = 1024
LARGE_DIM = 100_000
CLI_DIM = 10_000

# one fixed scenario set, of which each seed draws symmetric copies (see
# portfolio_panel); 6 x 4 is the cheapest shape in T 6..12, n 4..6, so a
# run holds the most solves
PANEL_SEED = 20210203
PANEL_SHAPE = (6, 4)
PANEL_C0_FACTOR = 2.0
PANEL_COPIES = 2


@dataclass(frozen=True)
class Family:
    """One projection input, the case it is built to land in, and its name."""

    name: str
    z: np.ndarray
    w: np.ndarray
    case: str | None


def small_pool(seed: int) -> list[Family]:
    """p uniform in 1..32, q uniform in 0..32, standard-normal entries."""
    rng = np.random.default_rng([seed, 1])
    pool = []
    for i in range(SMALL_POOL):
        p = int(rng.integers(1, 33))
        q = int(rng.integers(0, 33))
        pool.append(Family(f"draw{i}", rng.standard_normal(p), rng.standard_normal(q), None))
    return pool


def _direction(rng, q: int, norm: float) -> np.ndarray:
    g = rng.standard_normal(q)
    return g * (norm / float(np.linalg.norm(g)))


def case_families(seed: int, dim: int, names) -> dict[str, Family]:
    """Inputs with p = q = dim, each forced into one projection case.

    With g standard normal:
      dual      z = g - 3, ||w|| = 1: the dual part of z alone sums to ~3p.
      primal    z = g + 8, ||w|| = 1: z stays positive, so the monotone fit
                is never clamped and its last entry (>= min z > 1) covers w.
      interior  z = g + 3, ||w|| = 10: no clamping, and the last fitted entry
                (a suffix mean, below 8) stays under ||w||.
      ascending sorted(g) + 3, ||w|| = 10: PAVA pools all of z into one
                block of mean ~3; interior as above.
    """
    rng = np.random.default_rng([seed, 2, dim])
    g = rng.standard_normal(dim)
    recipes = {
        "dual": (g - 3.0, 1.0, DUAL),
        "primal": (g + 8.0, 1.0, PRIMAL),
        "interior": (g + 3.0, 10.0, INTERIOR),
        "ascending": (np.sort(g) + 3.0, 10.0, INTERIOR),
    }
    out = {}
    for name in names:
        z, w_norm, case = recipes[name]
        out[name] = Family(name, z, _direction(rng, dim, w_norm), case)
    return out


def format_vector(values: np.ndarray) -> str:
    """Comma-separated decimals at 17 significant digits (round-trips doubles)."""
    return ",".join(format(float(v), ".17g") for v in values)


@dataclass(frozen=True)
class PortfolioInstance:
    name: str
    returns: np.ndarray
    c0: float


def _factor_returns(rng, T: int, n: int) -> np.ndarray:
    """Two-factor scenario returns: mean + loadings @ factors + noise."""
    mu = 0.01 * rng.standard_normal(n)
    factors = 0.05 * rng.standard_normal((T, 2))
    loadings = rng.standard_normal((n, 2))
    return mu + factors @ loadings.T + 0.02 * rng.standard_normal((T, n))


def boundedness_threshold(returns: np.ndarray) -> float:
    """||r - mean(r)|| / min_j ||U_j||: any c0 above it gives a finite optimum."""
    r = returns.mean(axis=0)
    dev = returns - r
    return float(np.linalg.norm(r - r.mean()) / np.linalg.norm(dev, axis=1).min())


def closed_form_weights(returns: np.ndarray, c0: float, jstar: int) -> np.ndarray:
    """Minimizer of c0*s*||w|| - r^T w over sum(w) = 1, s = ||U_jstar||.

    Derived here from the stationarity conditions, independently of the
    package, to predict the reference scenario when generating instances.
    """
    r = returns.mean(axis=0)
    s = float(np.linalg.norm(returns[jstar] - r))
    n = r.size
    rsum = float(r.sum())
    root = float(np.sqrt(rsum * rsum - n * (float(r @ r) - c0 * c0 * s * s)))
    return (r - (rsum - root) / n) / root


def _self_consistent(returns: np.ndarray, c0: float) -> bool:
    """The uniform portfolio's reference scenario is also the optimum's."""
    dev = returns - returns.mean(axis=0)
    n = returns.shape[1]
    j0 = int(np.argmin(np.abs(dev @ np.full(n, 1.0 / n))))
    w = closed_form_weights(returns, c0, j0)
    return int(np.argmin(np.abs(dev @ w))) == j0


def _base_instance() -> PortfolioInstance:
    """The fixed scenario set; its reference scenario needs no refinement.

    Rejecting draws whose reference scenario moves at the optimum keeps
    refine_jstar at one outer pass (201 Dykstra calls) per solve.
    """
    rng = np.random.default_rng(PANEL_SEED)
    T, n = PANEL_SHAPE
    while True:
        returns = _factor_returns(rng, T, n)
        c0 = PANEL_C0_FACTOR * boundedness_threshold(returns)
        if _self_consistent(returns, c0):
            return PortfolioInstance(f"T{T}n{n}", returns, c0)


def _sum_preserving_rotation(rng, n: int) -> np.ndarray:
    """Random orthogonal Q with Q @ 1 = 1 (a rotation of the plane sum = 0)."""
    e = np.full(n, 1.0 / np.sqrt(n))
    basis, _ = np.linalg.qr(np.column_stack([e, rng.standard_normal((n, n - 1))]))
    comp = basis[:, 1:]  # orthonormal basis of the complement of e
    g, r = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))
    g = g * np.sign(np.diag(r))
    return np.outer(e, e) + comp @ g @ comp.T


def portfolio_panel(seed: int) -> list[PortfolioInstance]:
    """Seeded copies of the fixed scenario set under symmetries of the MAD model.

    Each copy's assets are mixed by an orthogonal Q that keeps the budget
    vector (w' = Q w preserves sum(w), ||w|| and every scenario return
    R w) and its scenarios are permuted. The solver's iterates are
    equivariant under both, so every copy and every seed poses the same
    amount of work while the numbers the program receives differ. A solve
    takes over a second, so a 30 s run holds fewer than twenty; averaging
    over freshly drawn instances of unequal cost would need far more.
    """
    rng = np.random.default_rng([seed, 4])
    base = _base_instance()
    T, n = base.returns.shape
    out = []
    for i in range(PANEL_COPIES):
        q = _sum_preserving_rotation(rng, n)
        returns = base.returns[rng.permutation(T)] @ q.T
        out.append(PortfolioInstance(f"{base.name}-copy{i}", returns, base.c0))
    return out

