"""Periodicity scanning on outcome lattices and P-position rasters for
three-column boards, plus PBM/ASCII rendering.

Coordinates: a three-column board (a1, a2, a3) maps to raster cell
x = a2 - a1, y = a3 - a2, so the raster covers a full rectangle whose
bottom-left cell is the flat board (a1, a1, a1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import le, mul
from typing import Callable, Iterable, Iterator, Sequence

from .core import Convention, Family, GameError, Outcome, RuleSet, canonicalize
from . import closedforms, solver


class InsufficientProbe(GameError):
    """Probe length too short to witness the requested period bounds twice."""


@dataclass(frozen=True)
class PeriodReport:
    base: tuple
    direction: tuple
    preperiod: int
    period: int | None

    def to_dict(self) -> dict:
        return {
            "base": list(self.base),
            "direction": list(self.direction),
            "preperiod": self.preperiod,
            "period": self.period,
        }


def directional_period(
    outcome_fn: Callable[[tuple], object],
    base: Sequence[int],
    direction: Sequence[int],
    probe_length: int = 60,
    max_period: int = 16,
    max_preperiod: int = 24,
) -> PeriodReport:
    """Minimal (preperiod, period), lexicographic, fitting the outcome
    sequence sampled at base + t*direction for t = 0..probe_length-1."""
    base = tuple(base)
    direction = tuple(direction)
    if not any(direction):
        raise ValueError("direction must be nonzero")
    if probe_length < 2 * max_period + max_preperiod:
        raise InsufficientProbe(
            f"probe {probe_length} < 2*{max_period} + {max_preperiod}"
        )
    seq = [
        outcome_fn(tuple(b + t * d for b, d in zip(base, direction)))
        for t in range(probe_length)
    ]
    for pre in range(max_preperiod + 1):
        for per in range(1, max_period + 1):
            if all(seq[t] == seq[t + per] for t in range(pre, probe_length - per)):
                return PeriodReport(base, direction, pre, per)
    return PeriodReport(base, direction, 0, None)


def lattice_table(
    rules: RuleSet, convention: Convention, caps: tuple, memo: solver.MemoTable
) -> tuple | None:
    """(caps, place values, bytes) of a ``solver.outcome_table`` whose caps
    cover ``caps``: the memo's, else a new one over ``caps``, kept in the
    memo.  None for other families, and for boxes of more than
    ``solver.TABLE_CELL_LIMIT`` cells, whose sweeps run the DFS."""
    held = memo.tables.get((rules, convention))
    if held and len(held[0]) == len(caps) and all(map(le, caps, held[0])):
        return held
    radix = list(accumulate([c + 1 for c in caps], mul, initial=1))
    if (
        rules.family is not Family.DIET_CHOMP
        or min(caps, default=0) < 0
        or radix[-1] > solver.TABLE_CELL_LIMIT
    ):
        return None
    held = (tuple(caps), radix, solver.outcome_table(rules, convention, caps))
    memo.tables[rules, convention] = held
    return held


def lattice_outcome_fn(
    rules: RuleSet,
    convention: Convention,
    memo: solver.MemoTable | None = None,
    caps: tuple | None = None,
) -> Callable[[tuple], Outcome]:
    """Outcome of a raw lattice point, canonicalized; one shared memo.

    ``caps`` bounds each column of the points to come, aligned on the
    last column.  Given it, the first point builds (or finds in the memo)
    a ``lattice_table`` over it, and every point inside the table is read
    from it; other points, and the families without a table, run the DFS.
    """
    if memo is None:
        memo = solver.MemoTable()
    held = None

    def fn(raw: tuple) -> Outcome:
        nonlocal held, caps
        p = canonicalize(raw, rules.family)
        if caps is not None:
            held, caps = lattice_table(rules, convention, caps, memo), None
        if held:
            box, radix, cells = held
            skip = len(box) - len(p)  # p is aligned on the last column
            if skip >= 0 and all(map(le, p, box[skip:])):
                index = sum(map(mul, p, radix[skip:]))
                return Outcome.P if cells[index] else Outcome.N
        return solver.outcome(rules, convention, p, memo)

    return fn


def three_column_domain(max_a1: int, max_extent: int) -> Iterator[tuple]:
    """Raw triples (a1, a2, a3) with a1 <= max_a1 and a3 - a1 <= max_extent."""
    for a1 in range(max_a1 + 1):
        for a2 in range(a1, a1 + max_extent + 1):
            for a3 in range(a2, a1 + max_extent + 1):
                yield (a1, a2, a3)


def translation_period_check(
    rules: RuleSet,
    convention: Convention,
    positions: Iterable[tuple],
    period: int,
    memo: solver.MemoTable | None = None,
) -> solver.VerificationReport:
    """Compare each position's outcome with the all-coordinates +period
    translate; counterexamples are the positions where they differ."""
    positions = list(positions)
    caps = tuple(max(column) + max(period, 0) for column in zip(*positions))
    fn = lattice_outcome_fn(rules, convention, memo, caps)
    report = solver.VerificationReport()
    for p in positions:
        report.checked_count += 1
        shifted = tuple(a + period for a in p)
        if fn(p) is not fn(shifted):
            report.add(p, f"outcome differs from translate {shifted}")
    return report


def figure_grid(
    rules: RuleSet,
    convention: Convention,
    a1: int,
    width: int,
    height: int,
    memo: solver.MemoTable | None = None,
    triangular: bool = False,
) -> tuple:
    """Rows of booleans, bottom row (y = 0) first, marking the P-positions
    with first column a1: cell x of row y covers (a1, a1+x, a1+x+y).  A
    triangular raster has y = a3 - a1 instead, and its cells below the
    diagonal (y < x) are not positions."""
    caps = figure_caps(a1, width, height, triangular)
    fn = lattice_outcome_fn(rules, convention, memo, caps)
    return tuple(
        tuple(
            (y >= x and fn((a1, a1 + x, a1 + y)) is Outcome.P)
            if triangular
            else fn((a1, a1 + x, a1 + x + y)) is Outcome.P
            for x in range(width)
        )
        for y in range(height)
    )


def figure_caps(a1: int, width: int, height: int, triangular: bool = False) -> tuple:
    """Per-column maxima of the boards that ``figure_grid`` reads."""
    if triangular:
        return (a1, a1 + min(width, height) - 1, a1 + height - 1)
    return (a1, a1 + width - 1, a1 + width + height - 2)


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


@dataclass(frozen=True)
class Margins:
    """Exclusion margins for the bulk-formula comparison, in raster
    coordinates x = a2 - a1, y = a3 - a2."""

    bottom_rows: int = 0  # exclude y < bottom_rows
    top_diagonals: int = 0  # exclude x < top_diagonals

    def excludes(self, p: tuple) -> bool:
        a1, a2, a3 = p
        return a3 - a2 < self.bottom_rows or a2 - a1 < self.top_diagonals


def bulk_formula_agreement(
    rules: RuleSet,
    convention: Convention,
    positions: Iterable[tuple],
    margins: Margins,
) -> solver.VerificationReport:
    """Compare solver outcomes against the three-column bulk formula over
    the positions outside the margins; those inside are skipped."""
    positions = list(positions)
    caps = tuple(map(max, zip(*positions)))
    fn = lattice_outcome_fn(rules, convention, caps=caps)
    report = solver.VerificationReport()
    for p in positions:
        if margins.excludes(p):
            report.skipped_boundary_count += 1
            continue
        report.checked_count += 1
        actual = fn(p) is Outcome.P
        if actual != closedforms.diet2_misere_bulk_conjecture(p):
            report.add(p, "bulk formula disagrees with solver")
    return report


# Measured on the three-column misere raster (a1 <= 13, extent <= 26):
# the bulk formula is exact once the three columns nearest the flat-board
# edge (x < 3) and the three bottom rows (y < 3) are excluded; with zero
# margins it fails on those fringes only.
PINNED_BULK_MARGINS = Margins(bottom_rows=3, top_diagonals=3)
