"""Successor generators for each game family.

Each family has one move generator, which takes a canonical position and
lists its legal moves as ``(kind, index, amount, result)`` tuples, the
fields of ``MoveRecord``.  Every legal move keeps a position's shape (a
multiset, or a non-decreasing sequence), so each result is built in
canonical form directly.  ``moves`` returns the deduplicated,
lexicographically sorted results, so output is deterministic across
platforms; ``move_records`` the annotated moves.
"""

from __future__ import annotations

from bisect import bisect

from .core import (
    MAX_ENTRY,
    BoundsExceeded,
    Family,
    MoveRecord,
    Position,
    RuleSet,
    canonicalize,
)


def nim_move_records(p: Position) -> list[tuple]:
    """Reduce one heap from a to a' with 0 <= a' < a."""
    records = []
    for i, a in enumerate(p):
        rest = p[:i] + p[i + 1 :]
        records.append(("subtract", i + 1, a, rest))
        for new in range(1, a):
            j = bisect(rest, new, 0, i)  # p is sorted and new < a
            records.append(("subtract", i + 1, a - new, rest[:j] + (new,) + rest[j:]))
    return records


def slow_nim_move_records(k: int, p: Position) -> list[tuple]:
    """Subtract s in 1..min(k, a) from one heap of size a."""
    records = []
    for i, a in enumerate(p):
        rest = p[:i] + p[i + 1 :]
        for s in range(1, min(k, a) + 1):
            new = a - s
            if new:
                j = bisect(rest, new, 0, i)  # p is sorted and new < a
                records.append(("subtract", i + 1, s, rest[:j] + (new,) + rest[j:]))
            else:
                records.append(("subtract", i + 1, s, rest))
    return records


def add_move_records(limit: int, p: Position) -> list[tuple]:
    """Add 1..limit tokens to one existing heap; no new heaps are created.
    Extended Nim adds these to the Nim moves, Extended Slow Nim (limit k)
    to the Slow-Nim moves."""
    records = []
    for i, a in enumerate(p):
        rest = p[:i] + p[i + 1 :]
        for s in range(1, limit + 1):
            new = a + s
            if new > MAX_ENTRY:
                raise BoundsExceeded(f"entry {new} exceeds limit {MAX_ENTRY}")
            j = bisect(rest, new, i)  # p is sorted and new > a
            records.append(("add", i + 1, s, rest[:j] + (new,) + rest[j:]))
    return records


def monotonic_move_records(k: int | None, p: Position) -> list[tuple]:
    """Reduce entry i to a' with left-neighbor <= a' < a_i (neighbor of the
    first entry is 0), and with a_i - a' <= k unless k is None (Monotonic
    Nim); the result stays non-decreasing by construction."""
    records = []
    for i, a in enumerate(p):
        left = p[i - 1] if i > 0 else 0
        lo = a - k if k is not None else left
        head, tail = p[:i], p[i + 1 :]
        for new in range(max(left, lo), a):
            # only the first entry can drop to 0, which canonical form strips
            result = head + (new,) + tail if new else tail
            records.append(("subtract", i + 1, a - new, result))
    return records


def diet_chomp_move_records(k: int, p: Position) -> list[tuple]:
    """Quadrant chomp moves removing between 1 and k squares.

    A move at (column j, height r) truncates columns 1..j to height r-1;
    columns right of j are untouched.
    """
    # Column j alone loses p[j-1]-r+1 squares, so only the top k heights
    # can be legal; p is non-decreasing, so the cut reaches leftwards
    # exactly as far as the columns of height >= r, and leaves the
    # columns left of those alone.
    records = []
    for j in range(1, len(p) + 1):
        tail = p[j:]
        for r in range(max(1, p[j - 1] - k + 1), p[j - 1] + 1):
            removed = 0
            i = j - 1
            while i >= 0 and p[i] >= r and removed <= k:
                removed += p[i] - r + 1
                i -= 1
            if removed <= k:
                # columns i+1..j-1 become r-1; for r = 1 every column left
                # of j is cut to nothing
                result = p[: i + 1] + (r - 1,) * (j - 1 - i) + tail if r > 1 else tail
                records.append(("chomp", j, r, result))
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
    """Deduplicated, sorted canonical successors of canonical p."""
    return sorted({r[3] for r in _records(rules, p)})


def move_records(rules: RuleSet, p: Position) -> list[MoveRecord]:
    """The legal moves of canonical p, in generator order, duplicates kept."""
    return [MoveRecord(*r) for r in _records(rules, p)]


def _records(rules: RuleSet, p: Position) -> list[tuple]:
    f = rules.family
    if f is Family.NIM:
        return nim_move_records(p)
    if f is Family.SLOW_NIM:
        return slow_nim_move_records(rules.k, p)
    if f is Family.EXTENDED_NIM:
        return nim_move_records(p) + add_move_records(rules.add_limit, p)
    if f is Family.EXTENDED_SLOW_NIM:
        return slow_nim_move_records(rules.k, p) + add_move_records(rules.k, p)
    if f is Family.MONOTONIC_NIM:
        return monotonic_move_records(None, p)
    if f is Family.MONOTONIC_SLOW_NIM:
        return monotonic_move_records(rules.k, p)
    if f is Family.DIET_CHOMP:
        return diet_chomp_move_records(rules.k, p)
    raise ValueError(f"unknown family {f}")
