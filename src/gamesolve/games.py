"""Successor generators for each game family.

Each family has one record generator, which takes a canonical position
and lists its legal moves with human-readable annotations and canonical
results.  ``move_records`` dispatches on the rule set; ``moves`` returns
the deduplicated, lexicographically sorted successors, so output is
deterministic across platforms.
"""

from __future__ import annotations

from .core import Family, MoveRecord, Position, RuleSet, canonicalize


def nim_move_records(p: Position) -> list[MoveRecord]:
    """Reduce one heap from a to a' with 0 <= a' < a."""
    records = []
    for i, a in enumerate(p):
        for new in range(a):
            result = canonicalize(p[:i] + (new,) + p[i + 1 :], Family.NIM)
            records.append(MoveRecord("subtract", i + 1, a - new, result))
    return records


def slow_nim_move_records(k: int, p: Position) -> list[MoveRecord]:
    """Subtract s in 1..min(k, a) from one heap of size a."""
    records = []
    for i, a in enumerate(p):
        for s in range(1, min(k, a) + 1):
            result = canonicalize(p[:i] + (a - s,) + p[i + 1 :], Family.NIM)
            records.append(MoveRecord("subtract", i + 1, s, result))
    return records


def _add_records(limit: int, p: Position) -> list[MoveRecord]:
    """Add 1..limit tokens to one existing heap; no new heaps are created.
    Extended Nim adds these to the Nim moves, Extended Slow Nim (limit k)
    to the Slow-Nim moves."""
    records = []
    for i, a in enumerate(p):
        for j in range(1, limit + 1):
            result = canonicalize(p[:i] + (a + j,) + p[i + 1 :], Family.NIM)
            records.append(MoveRecord("add", i + 1, j, result))
    return records


def monotonic_move_records(k: int | None, p: Position) -> list[MoveRecord]:
    """Reduce entry i to a' with left-neighbor <= a' < a_i (neighbor of the
    first entry is 0), and with a_i - a' <= k unless k is None (Monotonic
    Nim); the result stays non-decreasing by construction."""
    records = []
    for i, a in enumerate(p):
        left = p[i - 1] if i > 0 else 0
        lo = a - k if k is not None else left
        for new in range(max(left, lo), a):
            result = canonicalize(
                p[:i] + (new,) + p[i + 1 :], Family.MONOTONIC_NIM
            )
            records.append(MoveRecord("subtract", i + 1, a - new, result))
    return records


def diet_chomp_move_records(k: int, p: Position) -> list[MoveRecord]:
    """Quadrant chomp moves removing between 1 and k squares.

    A move at (column j, height r) truncates columns 1..j to height r-1;
    columns right of j are untouched.
    """
    # Column j alone loses p[j-1]-r+1 squares, so only the top k heights
    # can be legal; p is non-decreasing, so the cut reaches leftwards
    # exactly as far as the columns of height >= r.
    records = []
    for j in range(1, len(p) + 1):
        for r in range(max(1, p[j - 1] - k + 1), p[j - 1] + 1):
            removed = 0
            i = j - 1
            while i >= 0 and p[i] >= r and removed <= k:
                removed += p[i] - r + 1
                i -= 1
            if removed <= k:
                result = canonicalize(
                    tuple(min(p[i], r - 1) for i in range(j)) + p[j:],
                    Family.DIET_CHOMP,
                )
                records.append(MoveRecord("chomp", j, r, result))
    return records


def diet_chomp2_moves_explicit(p: Position) -> list[Position]:
    """The three literal move rules for the 2-square-limited game.

    With a_0 = 0: (i) a_i -= 1 if a_i > a_{i-1}; (ii) a_i -= 2 if
    a_i > a_{i-1} + 1; (iii) a_i -= 1 and a_{i+1} -= 1 if
    a_{i+1} = a_i > a_{i-1}.
    """
    out = set()
    n = len(p)
    for i in range(n):
        left = p[i - 1] if i > 0 else 0
        if p[i] > left:
            out.add(_replace(p, i, p[i] - 1))
        if p[i] > left + 1:
            out.add(_replace(p, i, p[i] - 2))
        if i + 1 < n and p[i + 1] == p[i] > left:
            out.add(
                canonicalize(
                    p[:i] + (p[i] - 1, p[i + 1] - 1) + p[i + 2 :],
                    Family.DIET_CHOMP,
                )
            )
    return sorted(out)


def _replace(p: Position, i: int, value: int) -> Position:
    return canonicalize(p[:i] + (value,) + p[i + 1 :], Family.DIET_CHOMP)


def moves(rules: RuleSet, p: Position) -> list[Position]:
    """Deduplicated, sorted canonical successors of p under the rule set."""
    return sorted({r.result for r in move_records(rules, p)})


def move_records(rules: RuleSet, p: Position) -> list[MoveRecord]:
    f = rules.family
    if f is Family.NIM:
        return nim_move_records(p)
    if f is Family.SLOW_NIM:
        return slow_nim_move_records(rules.k, p)
    if f is Family.EXTENDED_NIM:
        return nim_move_records(p) + _add_records(rules.add_limit, p)
    if f is Family.EXTENDED_SLOW_NIM:
        return slow_nim_move_records(rules.k, p) + _add_records(rules.k, p)
    if f is Family.MONOTONIC_NIM:
        return monotonic_move_records(None, p)
    if f is Family.MONOTONIC_SLOW_NIM:
        return monotonic_move_records(rules.k, p)
    if f is Family.DIET_CHOMP:
        return diet_chomp_move_records(rules.k, p)
    raise ValueError(f"unknown family {f}")
