"""Solver and verifier for Nim variants, monotonic games, and Diet Chomp."""

from .core import (
    BoundsExceeded,
    Convention,
    Family,
    GameError,
    LoopyFamily,
    NonMonotoneInput,
    Position,
    RuleSet,
    canonicalize,
    parse_position,
)
from .tables import VerificationReport, mex

__all__ = [
    "BoundsExceeded",
    "Convention",
    "Family",
    "GameError",
    "LoopyFamily",
    "NonMonotoneInput",
    "Position",
    "RuleSet",
    "VerificationReport",
    "canonicalize",
    "mex",
    "parse_position",
]

__version__ = "0.1.0"
