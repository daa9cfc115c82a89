"""Periodicity scanning on outcome lattices and P-position rasters for
three-column boards, plus PBM/ASCII rendering.  The rasters, the
translation check and the bulk check take their window's bounds, and
read each row (a1, a2) of it, a3 running, as one slice of one table
through the ``tables.reader`` that ``_window`` returns; the directional
scan reads its points through the function it is given.  The window
readers check the boards built from user options first.

Coordinates: a three-column board (a1, a2, a3) maps to raster cell
x = a2 - a1, y = a3 - a2, so the raster covers a full rectangle whose
bottom-left cell is the flat board (a1, a1, a1).
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import MAX_ENTRY, Convention, GameError, RuleSet, canonicalize
from . import tables


class InsufficientProbe(GameError):
    """Probe length too short to witness the requested period bounds twice."""


class PeriodReport(NamedTuple):
    base: tuple
    direction: tuple
    preperiod: int
    period: int | None


def directional_period(
    values_of: Callable[[list], list],
    base: Sequence[int],
    direction: Sequence[int],
    probe_length: int,
    max_period: int,
    max_preperiod: int,
) -> PeriodReport:
    """Minimal (preperiod, period), lexicographic, fitting the values that
    ``values_of`` gives the points base + t*direction, t = 0..probe_length-1."""
    base = tuple(base)
    direction = tuple(direction)
    if len(direction) != len(base):
        raise ValueError("direction arity must match base")
    if not any(direction):
        raise ValueError("direction must be nonzero")
    if probe_length < 2 * max_period + max_preperiod:
        raise InsufficientProbe(
            f"probe {probe_length} < 2*{max_period} + {max_preperiod}"
        )
    seq = values_of([
        tuple(b + t * d for b, d in zip(base, direction))
        for t in range(probe_length)
    ])
    for pre in range(max_preperiod + 1):
        for per in range(1, max_period + 1):
            if seq[pre : probe_length - per] == seq[pre + per :]:
                return PeriodReport(base, direction, pre, per)
    return PeriodReport(base, direction, 0, None)


def _window(
    rules: RuleSet, convention: Convention, probes: Iterable[tuple], top: tuple
) -> Callable:
    """The ``tables.reader`` of the outcome table over ``top``, the largest
    board of a window: ``read((a1, a2, lo), hi - lo + 1)`` is the row of
    cells (a1, a2, a3), lo <= a3 <= hi, as one slice.  ``probes`` are the
    boards from which the window's entries rise by 1 in its reader's
    listing order, so the first board of that order out of range has the
    first bad probe's error, else entry MAX_ENTRY + 1: the probes, then
    ``top`` capped at that entry, are canonicalized in order.  A loopy
    family raises next, before any table."""
    for board in (*probes, tuple(min(e, MAX_ENTRY + 1) for e in top)):
        canonicalize(board, rules.family)
    rules.family.refuse_loopy()
    return tables.reader(rules, convention, top)


def translation_period_check(
    rules: RuleSet,
    convention: Convention,
    max_a1: int,
    max_extent: int,
    periods: Sequence[int],
) -> list:
    """One report per period t, from one table: each board (a1, a2, a3)
    with a1 <= max_a1 and a3 - a1 <= max_extent against its translate by
    +t in every coordinate; the counterexamples, in lexicographic order,
    are the boards where the outcomes differ.  A row that matches its
    translate's row as bytes is not read cell by cell."""
    boards = (max_a1 + 1) * (max_extent + 1) * (max_extent + 2) // 2
    reports = [tables.VerificationReport(boards) for _ in periods]
    shift = max_a1 + max(periods)
    top = (shift, shift + max_extent, shift + max_extent)
    read = _window(rules, convention, ((t, t, t) for t in periods), top)
    for a1 in range(max_a1 + 1):
        last = a1 + max_extent
        for a2 in range(a1, last + 1):
            here = read((a1, a2, a2), last - a2 + 1)
            for t, report in zip(periods, reports):
                there = read((a1 + t, a2 + t, a2 + t), last - a2 + 1)
                if there != here:
                    for a3, x, y in zip(range(a2, last + 1), here, there):
                        if x != y:
                            shifted = (a1 + t, a2 + t, a3 + t)
                            reason = f"outcome differs from translate {shifted}"
                            report.add((a1, a2, a3), reason)
    return reports


def figure_grids(
    rules: RuleSet,
    convention: Convention,
    a1_values: Sequence[int],
    width: int,
    height: int,
    triangular: bool,
) -> list:
    """One raster per a1 of ``a1_values`` (consecutive and rising), from
    one table: rows of booleans, bottom row (y = 0) first, marking the
    P-positions with first column a1, where cell x of row y covers
    (a1, a1+x, a1+x+y): column x is the table's row (a1, a1+x).  A
    triangular raster has y = a3 - a1 instead, and its cells below the
    diagonal (y < x) are not positions."""
    hi = a1_values[-1]
    if triangular:
        top = (hi, hi + min(width, height) - 1, hi + height - 1)
    else:
        top = (hi, hi + width - 1, hi + width + height - 2)
    read = _window(rules, convention, [(a1_values[0],) * 3], top)
    grids = []
    for a1 in a1_values:
        columns = []
        for x in range(width):
            below, cells = min(x, height) if triangular else 0, b""
            if below < height:  # from the cell (a1, a1+x, a1+x), at y = below
                cells = read((a1, a1 + x, a1 + x), height - below)
            columns.append([*repeat(False, below), *map(bool, cells)])
        grids.append(tuple(zip(*columns)))
    return grids


def render_pbm(rows: tuple) -> bytes:
    """Plain PBM (P1): top row first, bit 1 = P-position (black)."""
    lines = ["P1", f"{len(rows[0])} {len(rows)}"]
    for row in reversed(rows):
        lines.append(" ".join("1" if c else "0" for c in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def render_ascii(rows: tuple) -> str:
    """'#' for P, '.' for N, top row first."""
    return "\n".join(
        "".join("#" if c else "." for c in row) for row in reversed(rows)
    ) + "\n"


class Margins(NamedTuple):
    """Exclusion margins for the bulk-formula comparison, in raster
    coordinates x = a2 - a1, y = a3 - a2."""

    bottom_rows: int = 0  # exclude y < bottom_rows
    top_diagonals: int = 0  # exclude x < top_diagonals


def bulk_formula_agreement(
    rules: RuleSet,
    convention: Convention,
    form: Callable[[tuple], bool],
    max_a1: int,
    max_extent: int,
    margins: Margins,
) -> tables.VerificationReport:
    """Compare solver outcomes against ``form``, a P-test of three-column
    boards, over the boards (a1, a2, a3) with a1 <= max_a1 and
    a3 - a1 <= max_extent outside the margins, in lexicographic order;
    those inside are skipped.  ``form`` is asked once per board, and its
    verdicts on a row (a1, a2) are compared with the table's row as bytes."""
    y0, x0 = margins
    # per a1, the n rows x = a2 - a1 = x0 .. x0 + n - 1 are checked from
    # y = a3 - a2 = y0 up, max_extent - y0 - x + 1 boards each
    n = max(0, max_extent - y0 - x0 + 1)
    checked = (max_a1 + 1) * n * (n + 1) // 2
    boards = (max_a1 + 1) * (max_extent + 1) * (max_extent + 2) // 2
    report = tables.VerificationReport(checked, boards - checked)
    if not checked:  # no table
        return report
    top = (max_a1, max_a1 + max_extent - y0, max_a1 + max_extent)
    read = _window(rules, convention, [(0, x0, x0 + y0)], top)
    for a1 in range(max_a1 + 1):
        last = a1 + max_extent
        for a2 in range(a1 + x0, a1 + x0 + n):
            boards = list(zip(repeat(a1), repeat(a2), range(a2 + y0, last + 1)))
            cells, expected = read(boards[0], len(boards)), bytes(map(form, boards))
            if expected != cells:
                for p, x, y in zip(boards, expected, cells):
                    if x != y:
                        report.add(p, "bulk formula disagrees with solver")
    return report


# Measured on the three-column misere raster (a1 <= 13, extent <= 26):
# the bulk formula is exact once the three columns nearest the flat-board
# edge (x < 3) and the three bottom rows (y < 3) are excluded; with zero
# margins it fails on those fringes only.
PINNED_BULK_MARGINS = Margins(bottom_rows=3, top_diagonals=3)
