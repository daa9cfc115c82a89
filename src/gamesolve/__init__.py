"""Solver and verifier for Nim variants, monotonic games, and Diet Chomp."""

from .core import (
    BoundsExceeded,
    Convention,
    Family,
    GameError,
    LoopyFamily,
    MoveRecord,
    NonMonotoneInput,
    Outcome,
    Position,
    RuleSet,
    canonicalize,
    format_position,
    parse_position,
    successors,
)
from .solver import (
    Domain,
    MemoTable,
    VerificationReport,
    enumerate_positions,
    grundy,
    mex,
    outcome,
    verify_grundy_consistency,
    verify_pset,
)

__all__ = [
    "BoundsExceeded",
    "Convention",
    "Domain",
    "Family",
    "GameError",
    "LoopyFamily",
    "MemoTable",
    "MoveRecord",
    "NonMonotoneInput",
    "Outcome",
    "Position",
    "RuleSet",
    "VerificationReport",
    "canonicalize",
    "enumerate_positions",
    "format_position",
    "grundy",
    "mex",
    "outcome",
    "parse_position",
    "successors",
    "verify_grundy_consistency",
    "verify_pset",
]

__version__ = "0.1.0"
