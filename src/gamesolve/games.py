"""Successor generators: one per move kind.

``subtract_move_records`` lowers one entry, and serves Nim, Slow Nim and
their Monotonic and Extended versions; ``add_move_records`` raises one
heap, and the Extended games list its moves after the subtract moves;
``diet_chomp_move_records`` cuts Diet Chomp's quadrant.  Each takes a
canonical position and generates its legal moves as ``(kind, index,
amount, result)`` tuples, the fields of ``MoveRecord``.  Every legal move
keeps a position's shape (a multiset, or a non-decreasing sequence), so
each result is built in canonical form directly.  The subtract and cut
moves come lazily, so a reader that stops early builds no more of them;
the add moves come as a list, so that an add past ``MAX_ENTRY`` raises
``BoundsExceeded`` at the call.  ``move_records`` returns the annotated
moves; ``successor_stream`` the results as generated, which the local
verifiers read until a board is settled, and which ``solver.successors``
deduplicates and sorts for the DFS.
"""

from __future__ import annotations

from bisect import bisect
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .core import (
    MAX_ENTRY,
    BoundsExceeded,
    Family,
    Position,
    RuleSet,
    canonicalize,
)


class MoveRecord(NamedTuple):
    """One legal move, in human-readable terms, with its resulting position."""

    kind: str  # "subtract" | "add" | "chomp"
    index: int  # 1-based pile index, or chomp column j
    amount: int  # tokens subtracted/added, or chomp height r
    result: Position


def subtract_move_records(k: int | None, ordered: bool, p: Position) -> Iterator[tuple]:
    """Lower one entry a to a' with floor <= a' < a, and a - a' <= k unless
    k is None.  The floor is the left neighbour in an ordered family and 0
    otherwise, so a lowered entry of an ordered position never re-sorts."""
    for i, a in enumerate(p):
        rest = p[:i] + p[i + 1 :]
        lo = max(p[i - 1] if ordered and i else 0, a - k if k else 0)
        if not lo:  # canonical form strips the emptied entry
            yield ("subtract", i + 1, a, rest)
        for new in range(max(lo, 1), a):
            # p is sorted and new < a; ordered, p[:i] <= new, so j == i
            j = bisect(rest, new, 0, i)
            yield ("subtract", i + 1, a - new, rest[:j] + (new,) + rest[j:])


def add_move_records(limit: int, p: Position) -> list[tuple]:
    """Add 1..limit tokens to one existing heap; no new heaps are created.
    Extended Nim adds these to the Nim moves, Extended Slow Nim (limit k)
    to the Slow-Nim moves.  An add past ``MAX_ENTRY`` raises before any
    record is built: the top heap reaches it first, one token over."""
    if p and p[-1] + limit > MAX_ENTRY:
        raise BoundsExceeded(f"entry {MAX_ENTRY + 1} exceeds limit {MAX_ENTRY}")
    records = []
    for i, a in enumerate(p):
        rest = p[:i] + p[i + 1 :]
        for s in range(1, limit + 1):
            new = a + s
            j = bisect(rest, new, i)  # p is sorted and new > a
            records.append(("add", i + 1, s, rest[:j] + (new,) + rest[j:]))
    return records


def diet_chomp_move_records(k: int, p: Position) -> Iterator[tuple]:
    """Quadrant chomp moves removing between 1 and k squares.

    A move at (column j, height r) truncates columns 1..j to height r-1;
    columns right of j are untouched.
    """
    # Column j alone loses p[j-1]-r+1 squares, so only the top k heights
    # can be legal; p is non-decreasing, so the cut reaches leftwards
    # exactly as far as the columns of height >= r, and leaves the
    # columns left of those alone.
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
                yield ("chomp", j, r, result)


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
            out.add(_replace(p, i, p[i] - 1, p[i + 1] - 1))
    return sorted(out)


def _replace(p: Position, i: int, *values: int) -> Position:
    return canonicalize(p[:i] + values + p[i + len(values) :], Family.DIET_CHOMP)


def move_records(rules: RuleSet, p: Position) -> list[MoveRecord]:
    """The legal moves of canonical p, in generator order, duplicates kept."""
    return [MoveRecord(*r) for r in _records(rules, p)]


def successor_stream(rules: RuleSet, p: Position) -> Iterator[Position]:
    """The canonical successors of canonical p, lazily, in generator order,
    duplicates kept."""
    return map(itemgetter(3), _records(rules, p))


def _records(rules: RuleSet, p: Position) -> Iterable[tuple]:
    if rules.family is Family.DIET_CHOMP:
        return diet_chomp_move_records(rules.k, p)
    records = subtract_move_records(rules.k, rules.family.ordered, p)
    if rules.family.loopy:  # the add list is built, and checked, here
        return chain(records, add_move_records(rules.add_limit or rules.k, p))
    return records
