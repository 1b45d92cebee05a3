"""Exact projections onto the monotone extended second-order cone.

The cone orders a head block and bounds it below by the norm of a tail
block: x_1 >= ... >= x_p >= ||u||. Projections onto it, its dual, and the
related monotone cones all reduce to pool-adjacent-violators isotonic
regression, so every projector here is exact and runs in linear time.
An independent Dykstra oracle and a conic mean-absolute-deviation
portfolio solver round out the package.
"""

from .cones import (
    ConeId,
    DimensionError,
    cone_contains,
    cone_violation,
    pava_nonincreasing,
    project_cone,
    project_monotone_dual,
    project_monotone_nonneg,
    project_monotone_nonneg_dual,
)
from .oracle import (
    DykstraReport,
    dykstra_project,
    mesoc_dual_pieces,
    mesoc_pieces,
    monotone_dual_pieces,
    monotone_nonneg_dual_pieces,
    monotone_nonneg_pieces,
    monotone_pieces,
    piece_violation,
    project_piece,
)
from .portfolio import (
    MadModel,
    MadSolution,
    ModelDomainError,
    ScenarioData,
    build_mad_model,
    load_scenarios,
    read_returns_csv,
    refine_jstar,
    solve_mad,
)
from .projection import (
    ComplementarityReport,
    MesocPoint,
    ProjectionCase,
    ProjectionCertificate,
    complementarity_check,
    mesoc_contains,
    mesoc_dual_contains,
    mesoc_dual_violation,
    mesoc_violation,
    project_mesoc,
    project_mesoc_dual,
    project_mesoc_parts,
)

__version__ = "0.1.0"

__all__ = [
    "ConeId",
    "DimensionError",
    "cone_contains",
    "cone_violation",
    "pava_nonincreasing",
    "project_cone",
    "project_monotone_dual",
    "project_monotone_nonneg",
    "project_monotone_nonneg_dual",
    "DykstraReport",
    "dykstra_project",
    "mesoc_dual_pieces",
    "mesoc_pieces",
    "monotone_dual_pieces",
    "monotone_nonneg_dual_pieces",
    "monotone_nonneg_pieces",
    "monotone_pieces",
    "piece_violation",
    "project_piece",
    "MadModel",
    "MadSolution",
    "ModelDomainError",
    "ScenarioData",
    "build_mad_model",
    "load_scenarios",
    "read_returns_csv",
    "refine_jstar",
    "solve_mad",
    "ComplementarityReport",
    "MesocPoint",
    "ProjectionCase",
    "ProjectionCertificate",
    "complementarity_check",
    "mesoc_contains",
    "mesoc_dual_contains",
    "mesoc_dual_violation",
    "mesoc_violation",
    "project_mesoc",
    "project_mesoc_dual",
    "project_mesoc_parts",
    "__version__",
]
