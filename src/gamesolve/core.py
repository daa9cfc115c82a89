"""Position representation, play conventions, and rule-set dispatch.

Positions are plain tuples of non-negative ints.  Canonical form sorts
order-free families (Nim and friends are multisets) and strips zero
entries everywhere: a leading zero pile imposes no constraint in a
monotone game and an empty column carries no squares.  The empty tuple
is the unique terminal position for every family.
"""

from __future__ import annotations

import enum
import operator
from typing import Iterable, NamedTuple, Tuple

Position = Tuple[int, ...]

# Size limits bound the input; exceeding them is a construction error.
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

    def __init__(self, value: str):
        # ordered: positions are monotone sequences rather than multisets;
        # loopy: the game graph has cycles (add-moves allowed); takes_k:
        # the rules have a parameter k (Slow Nim's and Diet Chomp's)
        self.ordered = value.startswith("monotonic-") or value == "diet-chomp"
        self.loopy = value.startswith("extended-")
        self.takes_k = value.endswith("slow-nim") or value == "diet-chomp"

    def refuse_loopy(self) -> None:  # neither the DFS nor the tables solve cycles
        if self.loopy:
            raise LoopyFamily(f"{self.value} has add-moves; use the verifiers")


class Convention(enum.Enum):
    NORMAL = "normal"
    MISERE = "misere"


class _Rules(NamedTuple):  # a NamedTuple cannot define __new__ itself
    family: Family
    k: int | None = None
    add_limit: int | None = None


class RuleSet(_Rules):
    """A game family plus its parameters; determines the successor function.
    Only the Slow Nim families and Diet Chomp take ``k``, and only
    extended-nim takes ``add_limit`` (extended-slow-nim adds up to k)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(
        cls, family: Family, k: int | None = None, add_limit: int | None = None
    ):
        if family.takes_k:
            if k is None or k < 1:
                raise ValueError(f"{family.value} requires k >= 1")
        elif k is not None:
            raise ValueError(f"{family.value} takes no k")
        if family is Family.EXTENDED_NIM:
            if add_limit is None or add_limit < 1:
                raise ValueError("extended-nim requires add_limit >= 1")
        elif add_limit is not None:
            raise ValueError(f"{family.value} takes no add_limit")
        return super().__new__(cls, family, k, add_limit)

    def describe(self) -> str:
        parts = [self.family.value]
        if self.k is not None:
            parts.append(f"k={self.k}")
        if self.add_limit is not None:
            parts.append(f"add_limit={self.add_limit}")
        return " ".join(parts)


def canonicalize(entries: Iterable[int], family: Family) -> Position:
    """Return the canonical form of a raw entry sequence.

    Order-free families: sort non-decreasing, drop zeros.  Ordered
    families: require non-decreasing input, strip zeros from the front.
    """
    seq = tuple(entries)
    if seq and (min(seq) < 0 or max(seq) > MAX_ENTRY):
        for e in seq:  # report the first bad entry
            if e < 0:
                raise ValueError(f"negative entry {e}")
            if e > MAX_ENTRY:
                raise BoundsExceeded(f"entry {e} exceeds limit {MAX_ENTRY}")
    if family.ordered:
        if not all(map(operator.le, seq, seq[1:])):
            raise NonMonotoneInput(f"sequence {seq} is not non-decreasing")
    else:
        seq = tuple(sorted(seq))
    # non-negative and non-decreasing: the zeros lead
    canon = seq[seq.count(0) :]
    if len(canon) > MAX_PILES:
        raise BoundsExceeded(f"{len(canon)} piles exceeds limit {MAX_PILES}")
    return canon


def parse_position(text: str) -> Position:
    """Parse the CLI text form: comma-separated decimals; '' or '0' is empty."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad position text {text!r}") from exc
