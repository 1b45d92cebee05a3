"""Dykstra alternating-projection oracle over elementary convex pieces.

Every cone in this package can be written as an intersection of pieces
with textbook projections (halfspaces and hyperplanes through the origin,
and second-order blocks), each a cone itself, one piece per rule that
`cones` and `projection` check; the monotone nonnegative pair is the
MESOC pair at q = 0 and shares its pieces. Dykstra's method with
correction vectors converges to the exact projection onto the
intersection, which makes it a slow but independent referee for the
closed-form projections. It is also the engine behind projecting onto
MESOC-intersect-hyperplane in the portfolio solver.

`dykstra_project` stops at a correction increment below _TOL and reports
a run that reaches _MAX_CYCLES as unconverged; `dykstra_callables` takes
both from its caller, as the portfolio uses looser ones (1e-9, 20 000).

Intended for small dimensions (p, q up to ~8); the closed forms are the
production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .cones import DimensionError, as_vector

_TOL = 1e-10
_MAX_CYCLES = 200_000


@dataclass(frozen=True, eq=False)
class Halfspace:
    """{x : <a, x> >= 0}"""

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a, "a"))
        if not np.any(self.a):
            raise ValueError("halfspace normal must be nonzero")


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """{x : <a, x> = 0}"""

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a, "a"))
        if not np.any(self.a):
            raise ValueError("hyperplane normal must be nonzero")


@dataclass(frozen=True)
class LorentzBlock:
    """{x : sum(x[i] for i in scalar_indices) >= ||x[vector_indices]||}.

    With a single scalar index this is an axis-aligned second-order cone on
    a subset of coordinates. Allowing the scalar role to be played by a sum
    of coordinates covers the dual-MESOC constraint sum(y) >= ||v|| with
    one piece; the closed-form projection generalizes cleanly because the
    sum is a scaled coordinate in a rotated basis. Empty vector_indices
    degrades to the halfspace sum >= 0.
    """

    scalar_indices: tuple[int, ...]
    vector_indices: tuple[int, ...]

    def __post_init__(self):
        s = tuple(int(i) for i in self.scalar_indices)
        v = tuple(int(i) for i in self.vector_indices)
        if len(s) < 1:
            raise ValueError("need at least one scalar index")
        if len(set(s) | set(v)) != len(s) + len(v):
            raise ValueError("scalar and vector index sets must be disjoint")
        object.__setattr__(self, "scalar_indices", s)
        object.__setattr__(self, "vector_indices", v)


ConvexPiece = Union[Halfspace, Hyperplane, LorentzBlock]


@dataclass(frozen=True, eq=False)
class DykstraReport:
    """Projection result plus how hard Dykstra had to work for it."""

    point: np.ndarray
    cycles: int
    final_increment: float
    converged: bool


def project_piece(piece: ConvexPiece, z) -> np.ndarray:
    """Exact Euclidean projection onto a single piece."""
    z = as_vector(z)
    if isinstance(piece, (Halfspace, Hyperplane)):
        inner = float(np.dot(piece.a, z))
        if inner >= 0 and isinstance(piece, Halfspace):
            return z.copy()
        return z - (inner / float(np.dot(piece.a, piece.a))) * piece.a
    if isinstance(piece, LorentzBlock):
        return _project_lorentz_block(piece, z)
    raise TypeError(f"unknown piece type {type(piece)!r}")


def _project_lorentz_block(piece: LorentzBlock, z: np.ndarray) -> np.ndarray:
    s_idx = list(piece.scalar_indices)
    v_idx = list(piece.vector_indices)
    k = len(s_idx)
    s0 = float(np.sum(z[s_idx]))
    vn = float(np.linalg.norm(z[v_idx])) if v_idx else 0.0
    if s0 >= vn:
        return z.copy()
    out = z.copy()
    if s0 <= -k * vn:
        out[s_idx] -= s0 / k
        out[v_idx] = 0.0
        return out
    # boundary case: new common value of sum and norm
    rho = (k * vn + s0) / (k + 1.0)
    out[s_idx] += (rho - s0) / k
    out[v_idx] *= rho / vn
    return out


def dykstra_callables(
    projectors: Sequence[Callable[[np.ndarray], np.ndarray]],
    z: np.ndarray,
    tol: float,
    max_cycles: int,
) -> DykstraReport:
    """Dykstra's method over arbitrary exact projectors.

    Stops when the summed squared change of all correction vectors over one
    full cycle drops below tol**2. Hitting max_cycles is reported, never
    silently treated as convergence.
    """
    x = z.copy()
    corrections = [np.zeros_like(z) for _ in projectors]
    increment = np.inf
    for cycle in range(1, max_cycles + 1):
        increment = 0.0
        for i, proj in enumerate(projectors):
            y = x + corrections[i]
            x = proj(y)
            new_corr = y - x
            delta = new_corr - corrections[i]
            increment += float(np.dot(delta, delta))
            corrections[i] = new_corr
        if increment < tol * tol:
            return DykstraReport(x, cycle, float(np.sqrt(increment)), True)
    return DykstraReport(x, max_cycles, float(np.sqrt(increment)), False)


def dykstra_project(pieces: Sequence[ConvexPiece], z) -> DykstraReport:
    """Project z onto the intersection of the pieces."""
    if not pieces:
        raise ValueError("need at least one piece")
    z = as_vector(z)
    projectors = [lambda v, p=p: project_piece(p, v) for p in pieces]
    return dykstra_callables(projectors, z, _TOL, _MAX_CYCLES)


def piece_violation(piece: ConvexPiece, z) -> float:
    """How far z is from satisfying the piece's constraint (0 if satisfied)."""
    z = as_vector(z)
    if isinstance(piece, Halfspace):
        return float(max(0.0, -np.dot(piece.a, z)))
    if isinstance(piece, Hyperplane):
        return float(abs(np.dot(piece.a, z)))
    s0 = float(np.sum(z[list(piece.scalar_indices)]))
    vn = float(np.linalg.norm(z[list(piece.vector_indices)])) if piece.vector_indices else 0.0
    return float(max(0.0, vn - s0))


def _difference_halfspaces(p: int, dim: int) -> list[ConvexPiece]:
    # x_i - x_{i+1} >= 0 for i = 1..p-1, in ambient dimension dim
    pieces: list[ConvexPiece] = []
    for i in range(p - 1):
        a = np.zeros(dim)
        a[i] = 1.0
        a[i + 1] = -1.0
        pieces.append(Halfspace(a))
    return pieces


def _prefix_halfspaces(p: int, dim: int) -> list[ConvexPiece]:
    # sum(y_1..y_j) >= 0 for j = 1..p-1, in ambient dimension dim
    pieces: list[ConvexPiece] = []
    for j in range(1, p):
        a = np.zeros(dim)
        a[:j] = 1.0
        pieces.append(Halfspace(a))
    return pieces


def monotone_pieces(p: int) -> list[ConvexPiece]:
    """Pairwise difference halfspaces; empty for p = 1 (the whole line)."""
    _check_dims(p)
    return _difference_halfspaces(p, p)


def monotone_dual_pieces(p: int) -> list[ConvexPiece]:
    _check_dims(p)
    pieces = _prefix_halfspaces(p, p)
    pieces.append(Hyperplane(np.ones(p)))
    return pieces


def monotone_nonneg_pieces(p: int) -> list[ConvexPiece]:
    """The MESOC pieces at q = 0; the block is x_p >= 0."""
    return mesoc_pieces(p, 0)


def monotone_nonneg_dual_pieces(p: int) -> list[ConvexPiece]:
    """The dual MESOC pieces at q = 0; the block is sum(y) >= 0."""
    return mesoc_dual_pieces(p, 0)


def mesoc_pieces(p: int, q: int) -> list[ConvexPiece]:
    """Difference halfspaces on x plus one Lorentz block tying x_p to u."""
    _check_dims(p, q)
    pieces = _difference_halfspaces(p, p + q)
    pieces.append(LorentzBlock((p - 1,), tuple(range(p, p + q))))
    return pieces


def mesoc_dual_pieces(p: int, q: int) -> list[ConvexPiece]:
    """Prefix halfspaces on y plus the sum-dominates-norm block on (y, v)."""
    _check_dims(p, q)
    pieces = _prefix_halfspaces(p, p + q)
    pieces.append(LorentzBlock(tuple(range(p)), tuple(range(p, p + q))))
    return pieces


def _check_dims(p: int, q: int = 0):
    if p < 1:
        raise DimensionError(f"need p >= 1, got {p}")
    if q < 0:
        raise DimensionError(f"need q >= 0, got {q}")
