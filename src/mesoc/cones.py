"""Projections and membership tests for monotone cones and their duals.

The four cones handled here, all in R^p:

* monotone cone          {x : x_1 >= x_2 >= ... >= x_p}
* its dual               {y : sum(y_1..y_j) >= 0 for j < p, sum(y) = 0}
* monotone nonnegative   {x : x_1 >= ... >= x_p >= 0}
* its dual               {y : sum(y_1..y_j) >= 0 for j <= p}

Their inequalities, and those of the MESOC pair in `projection`, are
written once: a chain x_1 >= ... >= x_p >= floor in `_chain_violation`,
and proper prefix sums >= 0 with sum(y) >= cap in `_prefix_violation`.
The monotone nonnegative cone and its dual are those rules at 0, the
MESOC pair at ||u||. Membership within tol means violation <= tol.

The primal projections reduce to pool-adjacent-violators isotonic
regression (nonincreasing direction, unweighted); the projection onto
the monotone nonnegative cone is the componentwise positive part of the
monotone projection. Dual projections follow from Moreau's decomposition
z = P_K(z) - P_{K*}(-z), i.e. P_{K*}(z) = P_K(-z) - (-z); `moreau_half`
forms that difference and reports it when it leaves the float range.
"""

from __future__ import annotations

import math
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


def moreau_half(primal: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The dual half primal - z of the Moreau pair of finite z.

    Written into `out` when it is given (a float64 array of z's shape,
    which is returned), else into a fresh array.

    Raises OverflowError when a difference of the finite operands is
    above the largest double, e.g. 1.7e308 - (-1.7e308); `out` then holds
    a partial result. A difference of finite doubles leaves the float
    range only by overflowing, so numpy's overflow flag, raised within
    this call whatever the caller's error state, reports it without a
    second scan of the result.
    """
    try:
        with np.errstate(over="raise"):
            return np.subtract(primal, z, out=out)
    except FloatingPointError:
        raise OverflowError("a Moreau dual half exceeds the float range") from None


def pava_nonincreasing(z) -> np.ndarray:
    """Euclidean projection onto the monotone cone {x_1 >= ... >= x_p}.

    Pool-adjacent-violators: above 128 values, numpy rounds first pool
    every chain of adjacent blocks whose means rise; a stack loop then
    scans the blocks left to right, pooling adjacent blocks whenever the
    left block mean falls below the right one. O(p) on every input, exact
    (no internal tolerance); the output is blockwise constant and each
    block value is the mean of its inputs.

    Raises OverflowError when a pooled block mean is above the largest
    double, e.g. for [1e308, 1.7e308].
    """
    z = as_vector(z)
    return pava_nonincreasing_kernel(z)


def project_monotone_dual(z) -> np.ndarray:
    """Projection onto the dual of the monotone cone, via Moreau.

    Raises OverflowError when a coordinate is above the largest double.
    """
    neg = -as_vector(z)
    return moreau_half(pava_nonincreasing_kernel(neg), neg)


def project_monotone_nonneg(z) -> np.ndarray:
    """Projection onto the monotone nonnegative cone.

    Equals the positive part of the monotone-cone projection, so a single
    PAVA pass plus a clamp suffices.
    """
    fit = pava_nonincreasing_kernel(as_vector(z))
    # the kernel's output is a fresh array, so it is clamped in place
    return np.maximum(fit, 0.0, out=fit)


def project_monotone_nonneg_dual(z) -> np.ndarray:
    """Projection onto the dual of the monotone nonnegative cone, via Moreau.

    Raises OverflowError when a coordinate is above the largest double.
    """
    neg = -as_vector(z)
    fit = pava_nonincreasing_kernel(neg)
    return moreau_half(np.maximum(fit, 0.0, out=fit), neg)


_PROJECTORS = {
    ConeId.MONOTONE: pava_nonincreasing,
    ConeId.MONOTONE_DUAL: project_monotone_dual,
    ConeId.MONOTONE_NONNEG: project_monotone_nonneg,
    ConeId.MONOTONE_NONNEG_DUAL: project_monotone_nonneg_dual,
}


def project_cone(cone: ConeId, z) -> np.ndarray:
    """Dispatch to the projection for `cone`."""
    return _PROJECTORS[ConeId(cone)](z)


def cone_contains(cone: ConeId, z, tol: float = 0.0) -> bool:
    """Membership test with absolute tolerance on every defining inequality."""
    _check_tol(tol)
    return cone_violation(cone, z) <= tol


def _check_tol(tol: float) -> None:
    # written so that a NaN tol fails too, where `tol < 0` lets it through
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")


def _finite(violation: float) -> float:
    """The violation, or OverflowError: finite operands give inf only by overflow."""
    if not math.isfinite(violation):
        raise OverflowError("a cone violation exceeds the float range")
    return violation


# finite operands overflow only to a non-finite violation, which `_finite`
# reports, so numpy's warnings on the way there are silenced
_QUIET = np.errstate(over="ignore", invalid="ignore")


@_QUIET
def _chain_violation(x: np.ndarray, floor: float) -> float:
    """Largest violation of x_1 >= ... >= x_p >= floor (0 if it holds)."""
    return _finite(float(max(0.0, np.max(np.diff(x), initial=0.0), floor - x[-1])))


_prefix_sums = _QUIET(np.cumsum)


@_QUIET
def _prefix_violation(prefixes: np.ndarray, cap: float) -> float:
    """Largest violation of proper prefix sums >= 0 and sum >= cap.

    `prefixes` holds the prefix sums of y from `_prefix_sums`, so its last
    entry is sum(y).
    """
    return _finite(float(max(0.0, -np.min(prefixes[:-1], initial=0.0), cap - prefixes[-1])))


def cone_violation(cone: ConeId, z) -> float:
    """Largest violation of the cone's defining inequalities (0 if member).

    Raises OverflowError when it is above the largest double.
    """
    z = as_vector(z)
    cone = ConeId(cone)
    if cone is ConeId.MONOTONE:
        return _chain_violation(z, -math.inf)
    if cone is ConeId.MONOTONE_NONNEG:
        return _chain_violation(z, 0.0)
    prefixes = _prefix_sums(z)
    if cone is ConeId.MONOTONE_DUAL:
        # sum(y) = 0: the prefix rule at 0, and sum(y) <= 0 as well
        return _finite(max(_prefix_violation(prefixes, 0.0), float(prefixes[-1])))
    return _prefix_violation(prefixes, 0.0)
