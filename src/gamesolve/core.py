"""Position representation, play conventions, and rule-set dispatch.

Positions are plain tuples of non-negative ints.  Canonical form sorts
order-free families (Nim and friends are multisets) and strips zero
entries everywhere: a leading zero pile imposes no constraint in a
monotone game and an empty column carries no squares.  The empty tuple
is the unique terminal position for every family.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Tuple

Position = Tuple[int, ...]

# Size limits keep memo keys compact; exceeding them is a construction error.
MAX_PILES = 64
MAX_ENTRY = 2**32 - 1


class GameError(Exception):
    """Base class for rule/solver errors."""


class NonMonotoneInput(GameError):
    """An ordered-family sequence was not non-decreasing."""


class BoundsExceeded(GameError):
    """Position exceeds the configured pile-count or entry limits."""


class LoopyFamily(GameError):
    """Recursive solving requested for a family whose game graph has cycles."""


class Family(enum.Enum):
    NIM = "nim"
    SLOW_NIM = "slow-nim"
    EXTENDED_NIM = "extended-nim"
    EXTENDED_SLOW_NIM = "extended-slow-nim"
    MONOTONIC_NIM = "monotonic-nim"
    MONOTONIC_SLOW_NIM = "monotonic-slow-nim"
    DIET_CHOMP = "diet-chomp"

    @property
    def ordered(self) -> bool:
        """True if positions are ordered monotone sequences rather than multisets."""
        return self in _ORDERED_FAMILIES

    @property
    def loopy(self) -> bool:
        """True if the game graph has cycles (add-moves allowed)."""
        return self in _LOOPY_FAMILIES


_ORDERED_FAMILIES = frozenset(
    {Family.MONOTONIC_NIM, Family.MONOTONIC_SLOW_NIM, Family.DIET_CHOMP}
)
_LOOPY_FAMILIES = frozenset({Family.EXTENDED_NIM, Family.EXTENDED_SLOW_NIM})
_NEEDS_K = frozenset(
    {
        Family.SLOW_NIM,
        Family.EXTENDED_SLOW_NIM,
        Family.MONOTONIC_SLOW_NIM,
        Family.DIET_CHOMP,
    }
)


class Convention(enum.Enum):
    NORMAL = "normal"
    MISERE = "misere"


class Outcome(enum.Enum):
    P = "P"  # previous player wins
    N = "N"  # next player wins


@dataclass(frozen=True)
class RuleSet:
    """A game family plus its parameters; determines the successor function."""

    family: Family
    k: int | None = None
    add_limit: int | None = None

    def __post_init__(self):
        if self.family in _NEEDS_K:
            if self.k is None or self.k < 1:
                raise ValueError(f"{self.family.value} requires k >= 1")
        if self.family is Family.EXTENDED_NIM:
            if self.add_limit is None or self.add_limit < 1:
                raise ValueError("extended-nim requires add_limit >= 1")
        if self.family is Family.EXTENDED_SLOW_NIM and self.add_limit not in (None, self.k):
            raise ValueError("extended-slow-nim add bound equals k")

    def describe(self) -> str:
        parts = [self.family.value]
        if self.k is not None:
            parts.append(f"k={self.k}")
        if self.family is Family.EXTENDED_NIM:
            parts.append(f"add_limit={self.add_limit}")
        return " ".join(parts)


@dataclass(frozen=True)
class MoveRecord:
    """One legal move, in human-readable terms, with its resulting position."""

    kind: str  # "subtract" | "add" | "chomp"
    index: int  # 1-based pile index, or chomp column j
    amount: int  # tokens subtracted/added, or chomp height r
    result: Position


def canonicalize(
    entries: Iterable[int],
    family: Family,
    *,
    max_piles: int = MAX_PILES,
    max_entry: int = MAX_ENTRY,
) -> Position:
    """Return the canonical form of a raw entry sequence.

    Order-free families: sort non-decreasing, drop zeros.  Ordered
    families: require non-decreasing input, strip zeros from the front.
    """
    seq = tuple(entries)
    for e in seq:
        if e < 0:
            raise ValueError(f"negative entry {e}")
        if e > max_entry:
            raise BoundsExceeded(f"entry {e} exceeds limit {max_entry}")
    if family.ordered:
        if any(seq[i] > seq[i + 1] for i in range(len(seq) - 1)):
            raise NonMonotoneInput(f"sequence {seq} is not non-decreasing")
        canon = tuple(e for e in seq if e > 0)
    else:
        canon = tuple(sorted(e for e in seq if e > 0))
    if len(canon) > max_piles:
        raise BoundsExceeded(f"{len(canon)} piles exceeds limit {max_piles}")
    return canon


def successors(rules: RuleSet, p: Position) -> list[Position]:
    """Deduplicated, sorted canonical successors of p under the rule set."""
    from . import games  # dispatch target; imported late to avoid a cycle

    return games.moves(rules, p)


def parse_position(text: str) -> Position:
    """Parse the CLI text form: comma-separated decimals; '' or '0' is empty."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad position text {text!r}") from exc


def format_position(p: Position) -> str:
    return ",".join(str(e) for e in p) if p else "0"
