"""The public surface: exported names and the flags of each CLI verb.

A change that adds a knob or drops a feature has to edit these lists.
"""

import argparse

import mesoc
from mesoc.cli import build_parser

PUBLIC_NAMES = [
    "ComplementarityReport",
    "ConeId",
    "DimensionError",
    "DykstraConfig",
    "DykstraReport",
    "MadModel",
    "MadSolution",
    "MesocPoint",
    "ModelDomainError",
    "ProjectionCase",
    "ProjectionCertificate",
    "ScenarioData",
    "SolverConfig",
    "__version__",
    "abel_sum",
    "build_mad_model",
    "complementarity_check",
    "cone_contains",
    "cone_violation",
    "dual_cone_of",
    "dykstra_project",
    "load_scenarios",
    "mesoc_contains",
    "mesoc_dual_contains",
    "mesoc_dual_pieces",
    "mesoc_dual_violation",
    "mesoc_pieces",
    "mesoc_violation",
    "monotone_dual_pieces",
    "monotone_nonneg_dual_pieces",
    "monotone_nonneg_pieces",
    "monotone_pieces",
    "pava_nonincreasing",
    "piece_violation",
    "project_cone",
    "project_mesoc",
    "project_mesoc_dual",
    "project_mesoc_parts",
    "project_monotone_dual",
    "project_monotone_nonneg",
    "project_monotone_nonneg_dual",
    "project_nonneg_orthant",
    "project_piece",
    "read_returns_csv",
    "refine_jstar",
    "solve_mad",
]

VECTOR_FLAGS = ["--cone", "--file", "--help", "--inline", "--p", "--q", "--tol", "-h"]
VERB_FLAGS = {
    "project": VECTOR_FLAGS,
    "check": VECTOR_FLAGS,
    "oracle-compare": ["--count", "--help", "--p", "--q", "--seed", "--tol", "-h"],
    "solve-portfolio": [
        "--c0", "--file", "--help", "--max-iter", "--probabilities-column", "--tol", "-h",
    ],
    "bench": ["--count", "--help", "--p", "--q", "--seed", "-h"],
}
CONE_CHOICES = (
    "mesoc",
    "mesoc-dual",
    "monotone",
    "monotone-dual",
    "monotone-nonneg",
    "monotone-nonneg-dual",
)


def test_exported_names_unchanged():
    assert sorted(mesoc.__all__) == PUBLIC_NAMES
    for name in mesoc.__all__:
        assert getattr(mesoc, name) is not None


def test_cli_flags_unchanged():
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    parsers = sub.choices
    assert sorted(parsers) == sorted(VERB_FLAGS)
    for verb, flags in VERB_FLAGS.items():
        actions = parsers[verb]._actions
        assert sorted(o for a in actions for o in a.option_strings) == flags, verb
        cone = [a for a in actions if "--cone" in a.option_strings]
        assert [a.choices for a in cone] == ([CONE_CHOICES] if "--cone" in flags else [])
