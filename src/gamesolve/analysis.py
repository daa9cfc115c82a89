"""Periodicity scanning on outcome lattices and P-position rasters for
three-column boards, plus PBM/ASCII rendering.  Their lattice points are
built from user options, so ``lattice_values`` validates them first.

Coordinates: a three-column board (a1, a2, a3) maps to raster cell
x = a2 - a1, y = a3 - a2, so the raster covers a full rectangle whose
bottom-left cell is the flat board (a1, a1, a1).
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import Convention, GameError, RuleSet, canonicalize
from . import solver


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
            if all(seq[t] == seq[t + per] for t in range(pre, probe_length - per)):
                return PeriodReport(base, direction, pre, per)
    return PeriodReport(base, direction, 0, None)


def lattice_values(
    rules: RuleSet, convention: Convention | None, points: Iterable[tuple]
) -> list:
    """``solver.board_values`` of lattice points built from user options, in
    order: P-booleans under ``convention``, Grundy values when it is None.
    Each point is canonicalized first, so the first bad one (negative, or
    past ``MAX_ENTRY``) raises before any table is filled."""
    boards = [canonicalize(p, rules.family) for p in points]
    return solver.board_values(rules, convention, boards)


def three_column_domain(max_a1: int, max_extent: int) -> Iterator[tuple]:
    """Raw triples (a1, a2, a3) with a1 <= max_a1 and a3 - a1 <= max_extent,
    in lexicographic order."""
    extents = list(combinations_with_replacement(range(max_extent + 1), 2))
    return ((a1, a1 + d2, a1 + d3) for a1 in range(max_a1 + 1) for d2, d3 in extents)


def translation_period_check(
    rules: RuleSet,
    convention: Convention,
    positions: Iterable[tuple],
    period: int,
) -> solver.VerificationReport:
    """Compare each position's outcome with the all-coordinates +period
    translate; counterexamples are the positions where they differ."""
    pairs = [(p, tuple(a + period for a in p)) for p in positions]
    is_p = iter(lattice_values(rules, convention, [q for pair in pairs for q in pair]))
    report = solver.VerificationReport(checked_count=len(pairs))
    for p, shifted in pairs:
        if next(is_p) != next(is_p):
            report.add(p, f"outcome differs from translate {shifted}")
    return report


def figure_grids(
    rules: RuleSet,
    convention: Convention,
    a1_values: Sequence[int],
    width: int,
    height: int,
    triangular: bool,
) -> list:
    """One raster per a1, from one ``lattice_values`` call: rows of
    booleans, bottom row (y = 0) first, marking the P-positions with first
    column a1, where cell x of row y covers (a1, a1+x, a1+x+y).  A
    triangular raster has y = a3 - a1 instead, and its cells below the
    diagonal (y < x) are not positions."""
    points = [
        (a1, a1 + x, a1 + y if triangular else a1 + x + y)
        for a1 in a1_values
        for y in range(height)
        for x in range(width)
        if y >= x or not triangular
    ]
    is_p = iter(lattice_values(rules, convention, points))
    return [
        tuple(
            tuple(
                (y >= x or not triangular) and next(is_p)
                for x in range(width)
            )
            for y in range(height)
        )
        for _ in a1_values
    ]


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
    from . import closedforms  # only the bulk check reads a closed form

    positions = list(positions)
    inside = [p for p in positions if not margins.excludes(p)]
    report = solver.VerificationReport(
        checked_count=len(inside), skipped_boundary_count=len(positions) - len(inside)
    )
    for p, is_p in zip(inside, lattice_values(rules, convention, inside)):
        if is_p != closedforms.diet2_misere_bulk_conjecture(p):
            report.add(p, "bulk formula disagrees with solver")
    return report


# Measured on the three-column misere raster (a1 <= 13, extent <= 26):
# the bulk formula is exact once the three columns nearest the flat-board
# edge (x < 3) and the three bottom rows (y < 3) are excluded; with zero
# margins it fails on those fringes only.
PINNED_BULK_MARGINS = Margins(bottom_rows=3, top_diagonals=3)
