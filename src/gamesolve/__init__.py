"""Solver and verifier for Nim variants, monotonic games, and Diet Chomp."""

from .core import (
    BoundsExceeded,
    Convention,
    Family,
    GameError,
    LoopyFamily,
    MoveRecord,
    NonMonotoneInput,
    Position,
    RuleSet,
    canonicalize,
    parse_position,
)
from .solver import (
    MemoTable,
    VerificationReport,
    grundy,
    mex,
    outcome,
    successors,
    verify_grundy_consistency,
    verify_pset,
)

__all__ = [
    "BoundsExceeded",
    "Convention",
    "Family",
    "GameError",
    "LoopyFamily",
    "MemoTable",
    "MoveRecord",
    "NonMonotoneInput",
    "Position",
    "RuleSet",
    "VerificationReport",
    "canonicalize",
    "grundy",
    "mex",
    "outcome",
    "parse_position",
    "successors",
    "verify_grundy_consistency",
    "verify_pset",
]

__version__ = "0.1.0"
