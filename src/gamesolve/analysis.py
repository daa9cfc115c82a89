"""Periodicity scanning on outcome lattices and P-position rasters for
three-column boards, plus PBM/ASCII rendering.

Coordinates: a three-column board (a1, a2, a3) maps to raster cell
x = a2 - a1, y = a3 - a2, so the raster covers a full rectangle whose
bottom-left cell is the flat board (a1, a1, a1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .core import Convention, GameError, Outcome, RuleSet, canonicalize
from . import closedforms, solver


class InsufficientProbe(GameError):
    """Probe length too short to witness the requested period bounds twice."""


@dataclass(frozen=True)
class PeriodReport:
    base: tuple
    direction: tuple
    preperiod: int
    period: int | None
    probe_length: int

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
                return PeriodReport(base, direction, pre, per, probe_length)
    return PeriodReport(base, direction, 0, None, probe_length)


def lattice_outcome_fn(
    rules: RuleSet,
    convention: Convention,
    memo: solver.MemoTable | None = None,
) -> Callable[[tuple], Outcome]:
    """Outcome of a raw lattice point, canonicalized; one shared memo."""
    if memo is None:
        memo = solver.MemoTable()

    def fn(raw: tuple) -> Outcome:
        return solver.outcome(
            rules, convention, canonicalize(raw, rules.family), memo
        )

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
    fn = lattice_outcome_fn(rules, convention, memo)
    report = solver.VerificationReport()
    for p in positions:
        report.checked_count += 1
        shifted = tuple(a + period for a in p)
        if fn(p) is not fn(shifted):
            report.add(p, f"outcome differs from translate {shifted}")
    return report


@dataclass(frozen=True)
class FigureGrid:
    """Boolean raster of P-positions; cells[y][x] covers (a1, a1+x, a1+x+y),
    or (a1, a1+x, a1+y) in a triangular raster."""

    a1: int
    width: int
    height: int
    cells: tuple  # tuple of rows, row y=0 first (bottom)

    def cell(self, x: int, y: int) -> bool:
        return self.cells[y][x]


def figure_grid(
    rules: RuleSet,
    convention: Convention,
    a1: int,
    width: int,
    height: int,
    memo: solver.MemoTable | None = None,
    triangular: bool = False,
) -> FigureGrid:
    """P-positions with first column a1.  A triangular raster has y = a3 - a1
    instead, and its cells below the diagonal (y < x) are not positions."""
    fn = lattice_outcome_fn(rules, convention, memo)
    rows = tuple(
        tuple(
            (y >= x and fn((a1, a1 + x, a1 + y)) is Outcome.P)
            if triangular
            else fn((a1, a1 + x, a1 + x + y)) is Outcome.P
            for x in range(width)
        )
        for y in range(height)
    )
    return FigureGrid(a1, width, height, rows)


def render_pbm(grid: FigureGrid) -> bytes:
    """Plain PBM (P1): top row first, bit 1 = P-position (black)."""
    lines = [f"P1", f"{grid.width} {grid.height}"]
    for y in reversed(range(grid.height)):
        lines.append(" ".join("1" if c else "0" for c in grid.cells[y]))
    return ("\n".join(lines) + "\n").encode("ascii")


def render_ascii(grid: FigureGrid) -> str:
    """'#' for P, '.' for N, top row first."""
    return "\n".join(
        "".join("#" if c else "." for c in grid.cells[y])
        for y in reversed(range(grid.height))
    ) + "\n"


def parse_pbm(data: bytes) -> FigureGrid:
    """Inverse of render_pbm (a1 is not stored in the file; set to -1)."""
    tokens = data.decode("ascii").split()
    if tokens[0] != "P1":
        raise ValueError("not a plain PBM")
    width, height = int(tokens[1]), int(tokens[2])
    bits = [t == "1" for t in tokens[3:]]
    if len(bits) != width * height:
        raise ValueError("bit count mismatch")
    rows = [
        tuple(bits[r * width : (r + 1) * width]) for r in range(height)
    ]
    rows.reverse()  # file stores top row first; cells store bottom first
    return FigureGrid(-1, width, height, tuple(rows))


@dataclass(frozen=True)
class Margins:
    """Exclusion margins for the bulk-formula comparison, in raster
    coordinates x = a2 - a1, y = a3 - a2."""

    corner_radius: int = 0  # exclude x + y < corner_radius
    bottom_rows: int = 0  # exclude y < bottom_rows
    top_diagonals: int = 0  # exclude x < top_diagonals

    def excludes(self, p: tuple) -> bool:
        a1, a2, a3 = p
        x, y = a2 - a1, a3 - a2
        return (
            x + y < self.corner_radius
            or y < self.bottom_rows
            or x < self.top_diagonals
        )


# Lattice directions whose outcome sequences reproduce the observed
# period sets: {1, 3} along ROW_DIRECTION, {1, 2} along NE_DIAGONAL_DIRECTION.
ROW_DIRECTION = (0, 0, 1)
NE_DIAGONAL_DIRECTION = (0, 1, 1)
ROW_PERIODS = frozenset({1, 3})
NE_DIAGONAL_PERIODS = frozenset({1, 2})


@dataclass
class BulkAgreement:
    compared: int
    excluded: int
    mismatches: list

    @property
    def ratio(self) -> float:
        if self.compared == 0:
            return 1.0
        return 1.0 - len(self.mismatches) / self.compared


def bulk_formula_agreement(
    rules: RuleSet,
    convention: Convention,
    positions: Iterable[tuple],
    margins: Margins,
    memo: solver.MemoTable | None = None,
) -> BulkAgreement:
    """Compare solver outcomes against the three-column bulk formula over
    the domain minus the excluded margins."""
    fn = lattice_outcome_fn(rules, convention, memo)
    compared = excluded = 0
    mismatches = []
    for p in positions:
        if margins.excludes(p):
            excluded += 1
            continue
        compared += 1
        actual = fn(p) is Outcome.P
        if actual != closedforms.diet2_misere_bulk_conjecture(p):
            mismatches.append(p)
    return BulkAgreement(compared, excluded, mismatches)


# Measured on the three-column misere raster (a1 <= 13, extent <= 26):
# the bulk formula is exact once the three columns nearest the flat-board
# edge (x < 3) and the three bottom rows (y < 3) are excluded; with zero
# margins it fails on those fringes only.
PINNED_BULK_MARGINS = Margins(corner_radius=0, bottom_rows=3, top_diagonals=3)
