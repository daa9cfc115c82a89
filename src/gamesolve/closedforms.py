"""Closed-form Grundy formulas and P-position predicates, one per known
characterization, cross-checked elsewhere against the brute-force solver.

The predicates are pure arithmetic on entry sequences; the monotone-game
reduction works on the RAW caller-provided sequence because the
zero-padding step depends on raw length parity.
"""

from __future__ import annotations

from functools import reduce
from operator import le, sub, xor

from .core import Convention, Family, GameError, NonMonotoneInput, Position, RuleSet


class TooWide(GameError):
    """Narrow-board predicate called on a position with too many columns."""


def nim_grundy_formula(p: Position) -> int:
    """XOR of heap sizes; empty position -> 0."""
    return reduce(xor, p, 0)


def nim_p_misere(p: Position) -> bool:
    """Misere Nim: XOR = 0 when some heap exceeds 1, else XOR = 1
    (an odd number of one-token heaps)."""
    target = 0 if any(a > 1 for a in p) else 1
    return nim_grundy_formula(p) == target


def slow_nim_grundy_formula(k: int, p: Position) -> int:
    """XOR of heap sizes reduced mod k+1."""
    return reduce(xor, (a % (k + 1) for a in p), 0)


def slow_nim_p_misere(k: int, p: Position) -> bool:
    """Misere subtract-1..k: reduce mod k+1, then apply the misere Nim rule."""
    return nim_p_misere(tuple(a % (k + 1) for a in p))


def difference_position(raw) -> Position:
    """Pairwise differences b_i = a_{2i} - a_{2i-1} after zero-padding the
    raw sequence in front to even length."""
    seq = tuple(raw)
    if min(seq, default=0) < 0:
        raise ValueError("entries must be non-negative")
    if not all(map(le, seq, seq[1:])):
        raise NonMonotoneInput(f"sequence {seq} is not non-decreasing")
    if len(seq) % 2 == 1:
        seq = (0,) + seq
    return tuple(map(sub, seq[1::2], seq[::2]))


def difference_p(rules: RuleSet, convention: Convention, b: Position) -> bool:
    """P-position test for the monotone games via the difference reduction:
    a raw sequence is P iff the matching (Slow-)Nim predicate holds on its
    difference position b (``difference_position``)."""
    slow = rules.family is Family.MONOTONIC_SLOW_NIM
    if convention is Convention.NORMAL:
        g = slow_nim_grundy_formula(rules.k, b) if slow else nim_grundy_formula(b)
        return g == 0
    return slow_nim_p_misere(rules.k, b) if slow else nim_p_misere(b)


def diet2_normal_p(p: Position) -> bool:
    """Normal-play 2-square-limited chomp: P iff total squares = 0 mod 3."""
    return sum(p) % 3 == 0


def stairs_mod3_fact(n: int) -> int:
    """n-th triangular number mod 3; never 2, which is why a 2-square move
    is always available when the total is 2 mod 3."""
    return (n * (n + 1) // 2) % 3


def diet2_misere_p_narrow(p: Position) -> bool:
    """Misere P-test for boards of at most two columns.

    One column of height a: P iff a = 1 mod 3.  Two columns (a1, a2):
    P iff a2 - a1 = 1 mod 3.  The one-column rule is the two-column rule
    with a1 = 0, so both reduce to the same difference test.
    """
    if len(p) > 2:
        raise TooWide(f"{len(p)} columns; narrow predicate handles at most 2")
    if len(p) == 0:
        return False  # terminal is N in misere play
    a1, a2 = (0, p[0]) if len(p) == 1 else p
    return (a2 - a1) % 3 == 1


def diet2_misere_bulk_conjecture(p) -> bool:
    """The observed bulk pattern for three-column misere boards:
    a1 + a3 - a2 = 1 mod 3.  Raw formula with no validity-region guard;
    the analysis module measures where it actually holds."""
    a1, a2, a3 = p
    return (a1 + a3 - a2) % 3 == 1
