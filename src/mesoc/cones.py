"""Projections and membership tests for monotone cones and their duals.

The five cones handled here, all in R^p:

* monotone cone          {x : x_1 >= x_2 >= ... >= x_p}
* its dual               {y : sum(y_1..y_j) >= 0 for j < p, sum(y) = 0}
* monotone nonnegative   {x : x_1 >= ... >= x_p >= 0}
* its dual               {y : sum(y_1..y_j) >= 0 for j <= p}
* nonnegative orthant    {x : x_i >= 0 for all i}, its own dual

Each cone's defining inequalities are written once, in `cone_violation`;
membership within tol means `cone_violation(cone, z) <= tol`.

The primal projections reduce to pool-adjacent-violators isotonic
regression (nonincreasing direction, unweighted); the projection onto
the monotone nonnegative cone is the componentwise positive part of the
monotone projection. Dual projections follow from Moreau's decomposition
z = P_K(z) - P_{K*}(-z), i.e. P_{K*}(z) = z + P_K(-z).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ._pava import pava_nonincreasing_kernel


class DimensionError(ValueError):
    """Raised for empty vectors or mismatched operand dimensions."""


class ConeId(str, Enum):
    """Selector for the cones with closed-form projections in this module."""

    MONOTONE = "monotone"
    MONOTONE_DUAL = "monotone-dual"
    MONOTONE_NONNEG = "monotone-nonneg"
    MONOTONE_NONNEG_DUAL = "monotone-nonneg-dual"
    NONNEG_ORTHANT = "nonneg-orthant"


def as_vector(z, name: str = "z", allow_empty: bool = False) -> np.ndarray:
    """Validate and convert input to a finite 1-D float64 array.

    NaN/Inf are rejected eagerly: projections are undefined for them and
    letting them propagate silently corrupts downstream certificates.
    """
    arr = np.asarray(z, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0 and not allow_empty:
        raise DimensionError(f"{name} must have dimension >= 1")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf")
    return arr


def pava_nonincreasing(z) -> np.ndarray:
    """Euclidean projection onto the monotone cone {x_1 >= ... >= x_p}.

    Pool-adjacent-violators with stack-based block merging: scan left to
    right, pooling adjacent blocks whenever the left block mean falls below
    the right one. O(p), exact (no internal tolerance); the output is
    blockwise constant and each block value is the mean of its inputs.
    """
    z = as_vector(z)
    return pava_nonincreasing_kernel(z)


def project_monotone_dual(z) -> np.ndarray:
    """Projection onto the dual of the monotone cone, via Moreau."""
    z = as_vector(z)
    return z + pava_nonincreasing_kernel(-z)


def project_monotone_nonneg(z) -> np.ndarray:
    """Projection onto the monotone nonnegative cone.

    Equals the positive part of the monotone-cone projection, so a single
    PAVA pass plus a clamp suffices.
    """
    z = as_vector(z)
    return np.maximum(pava_nonincreasing_kernel(z), 0.0)


def project_monotone_nonneg_dual(z) -> np.ndarray:
    """Projection onto the dual of the monotone nonnegative cone, via Moreau."""
    z = as_vector(z)
    return z + np.maximum(pava_nonincreasing_kernel(-z), 0.0)


def project_nonneg_orthant(z) -> np.ndarray:
    """Componentwise positive part."""
    return np.maximum(as_vector(z), 0.0)


_PROJECTORS = {
    ConeId.MONOTONE: pava_nonincreasing,
    ConeId.MONOTONE_DUAL: project_monotone_dual,
    ConeId.MONOTONE_NONNEG: project_monotone_nonneg,
    ConeId.MONOTONE_NONNEG_DUAL: project_monotone_nonneg_dual,
    ConeId.NONNEG_ORTHANT: project_nonneg_orthant,
}


def project_cone(cone: ConeId, z) -> np.ndarray:
    """Dispatch to the projection for `cone`."""
    return _PROJECTORS[ConeId(cone)](z)


def cone_contains(cone: ConeId, z, tol: float = 0.0) -> bool:
    """Membership test with absolute tolerance on every defining inequality."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return cone_violation(cone, z) <= tol


def cone_violation(cone: ConeId, z) -> float:
    """Largest violation of the cone's defining inequalities (0 if member)."""
    z = as_vector(z)
    cone = ConeId(cone)
    if cone is ConeId.MONOTONE:
        return float(max(0.0, np.max(np.diff(z), initial=0.0)))
    if cone is ConeId.MONOTONE_NONNEG:
        return float(max(0.0, np.max(np.diff(z), initial=0.0), -z[-1]))
    if cone is ConeId.NONNEG_ORTHANT:
        return float(max(0.0, -np.min(z)))
    prefixes = np.cumsum(z)
    if cone is ConeId.MONOTONE_DUAL:
        return float(max(0.0, -np.min(prefixes[:-1], initial=0.0), abs(prefixes[-1])))
    return float(max(0.0, -np.min(prefixes)))


def abel_sum(x, y) -> float:
    """Inner product computed through partial summation.

    Rewrites <x, y> as sum_i (x_i - x_{i+1}) * S_i + x_p * S_p with S_i the
    prefix sums of y. Agrees with the direct dot product to machine
    precision; kept as an independent identity for tests.
    """
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    if x.size != y.size:
        raise DimensionError(f"dimension mismatch: {x.size} vs {y.size}")
    prefixes = np.cumsum(y)
    return float(np.dot(-np.diff(x), prefixes[:-1]) + x[-1] * prefixes[-1])


def dual_cone_of(cone: ConeId) -> ConeId:
    """The ConeId whose members are exactly the dual cone of `cone`."""
    pairs = {
        ConeId.MONOTONE: ConeId.MONOTONE_DUAL,
        ConeId.MONOTONE_DUAL: ConeId.MONOTONE,
        ConeId.MONOTONE_NONNEG: ConeId.MONOTONE_NONNEG_DUAL,
        ConeId.MONOTONE_NONNEG_DUAL: ConeId.MONOTONE_NONNEG,
        ConeId.NONNEG_ORTHANT: ConeId.NONNEG_ORTHANT,
    }
    return pairs[ConeId(cone)]
