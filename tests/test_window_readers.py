"""The rasters, the translation check and the bulk check read their window
from one table, a row at a time.  They are checked here against the route
they replaced, which listed the window's boards, canonicalized each, read
them all through ``board_values`` and compared them one board at a time."""

from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from gamesolve import (
    BoundsExceeded,
    Convention,
    Family,
    RuleSet,
    canonicalize,
    closedforms,
    tables,
)
from gamesolve.core import MAX_ENTRY
from gamesolve.analysis import (
    Margins,
    PINNED_BULK_MARGINS,
    bulk_formula_agreement,
    figure_grids,
    translation_period_check,
)
from helpers import three_column_domain

GAMES = [
    RuleSet(Family.NIM),
    RuleSet(Family.SLOW_NIM, k=1),
    RuleSet(Family.SLOW_NIM, k=3),
    RuleSet(Family.MONOTONIC_NIM),
    RuleSet(Family.MONOTONIC_SLOW_NIM, k=2),
    RuleSet(Family.DIET_CHOMP, k=1),
    RuleSet(Family.DIET_CHOMP, k=2),
    RuleSet(Family.DIET_CHOMP, k=4),
]
games = st.sampled_from(GAMES)
BULK = closedforms.diet2_misere_bulk_conjecture
conventions = st.sampled_from(list(Convention))


def per_point_values(rules, convention, points):
    return tables.board_values(
        rules, convention, [canonicalize(p, rules.family) for p in points]
    )


def per_point_figure(rules, convention, a1_values, width, height, triangular):
    points = [
        (a1, a1 + x, a1 + y if triangular else a1 + x + y)
        for a1 in a1_values
        for y in range(height)
        for x in range(width)
        if y >= x or not triangular
    ]
    is_p = iter(per_point_values(rules, convention, points))
    return [
        tuple(
            tuple((y >= x or not triangular) and next(is_p) for x in range(width))
            for y in range(height)
        )
        for _ in a1_values
    ]


def per_point_translation(rules, convention, max_a1, max_extent, period):
    domain = three_column_domain(max_a1, max_extent)
    pairs = [(p, tuple(a + period for a in p)) for p in domain]
    points = [q for pair in pairs for q in pair]
    is_p = iter(per_point_values(rules, convention, points))
    report = tables.VerificationReport(checked_count=len(pairs))
    for p, shifted in pairs:
        if next(is_p) != next(is_p):
            report.add(p, f"outcome differs from translate {shifted}")
    return report


def per_point_bulk(rules, convention, max_a1, max_extent, margins):
    positions = list(three_column_domain(max_a1, max_extent))
    inside = [
        (a1, a2, a3) for a1, a2, a3 in positions
        if a3 - a2 >= margins.bottom_rows and a2 - a1 >= margins.top_diagonals
    ]
    report = tables.VerificationReport(
        checked_count=len(inside), skipped_boundary_count=len(positions) - len(inside)
    )
    for p, is_p in zip(inside, per_point_values(rules, convention, inside)):
        if is_p != closedforms.diet2_misere_bulk_conjecture(p):
            report.add(p, "bulk formula disagrees with solver")
    return report


@settings(max_examples=150, deadline=None)
@given(
    games, conventions,
    st.integers(0, 8), st.integers(1, 3), st.integers(1, 8), st.integers(1, 8),
    st.booleans(),
)
def test_figure_grids_match_the_per_point_route(
    rules, convention, a1, count, width, height, triangular
):
    window = range(a1, a1 + count), width, height, triangular
    grids = figure_grids(rules, convention, *window)
    assert grids == per_point_figure(rules, convention, *window)
    assert {type(cell) for grid in grids for row in grid for cell in row} == {bool}


@settings(max_examples=150, deadline=None)
@given(
    games, conventions, st.integers(0, 4), st.integers(0, 8),
    st.lists(st.integers(1, 13), min_size=1, max_size=4, unique=True),
)
def test_translation_check_matches_the_per_point_route(
    rules, convention, max_a1, max_extent, periods
):
    reports = translation_period_check(rules, convention, max_a1, max_extent, periods)
    assert [r.to_dict() for r in reports] == [
        per_point_translation(rules, convention, max_a1, max_extent, t).to_dict()
        for t in periods
    ]


@settings(max_examples=150, deadline=None)
@given(
    games, conventions, st.integers(0, 4), st.integers(0, 10),
    st.one_of(
        st.sampled_from([PINNED_BULK_MARGINS, Margins()]),
        st.builds(Margins, st.integers(0, 5), st.integers(0, 5)),
    ),
)
def test_bulk_check_matches_the_per_point_route(
    rules, convention, max_a1, max_extent, margins
):
    window = max_a1, max_extent, margins
    report = bulk_formula_agreement(rules, convention, BULK, *window)
    assert report.to_dict() == per_point_bulk(rules, convention, *window).to_dict()


def first_error(rules, points):
    """The error that canonicalizing ``points`` in order raises first, as
    (type, message), or None."""
    for p in points:
        try:
            canonicalize(p, rules.family)
        except ValueError as exc:  # negative entries
            return type(exc), str(exc)
        except BoundsExceeded as exc:
            return type(exc), str(exc)
    return None


def raised_before_any_table(read, *args):
    def refuse(*args):
        raise AssertionError("a table was built")

    with patch.object(tables, "lattice_table", refuse):
        with pytest.raises(Exception) as info:
            read(*args)
    return type(info.value), str(info.value)


near_the_limit = st.one_of(st.integers(-3, -1), st.integers(MAX_ENTRY - 40, MAX_ENTRY))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(GAMES + [RuleSet(Family.EXTENDED_NIM, add_limit=1)]),
    near_the_limit, st.integers(1, 3), st.integers(1, 8), st.integers(1, 8),
    st.booleans(),
)
def test_figure_windows_out_of_range_raise_the_per_point_error(
    rules, a1, count, width, height, triangular
):
    a1_values = range(a1, min(a1 + count, MAX_ENTRY + 1))
    points = [
        (a, a + x, a + y if triangular else a + x + y)
        for a in a1_values
        for y in range(height)
        for x in range(width)
        if y >= x or not triangular
    ]
    expected = first_error(rules, points)
    assume(expected is not None)  # a valid window this high is never filled
    window = a1_values, width, height, triangular
    assert raised_before_any_table(figure_grids, rules, Convention.MISERE, *window) == (
        expected
    )


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(GAMES + [RuleSet(Family.EXTENDED_SLOW_NIM, k=2)]),
    st.integers(0, 3), st.integers(0, 5),
    st.lists(st.integers(MAX_ENTRY - 10, MAX_ENTRY + 10), min_size=1, max_size=3),
)
def test_translation_windows_out_of_range_raise_the_per_point_error(
    rules, max_a1, max_extent, periods
):
    points = [
        q
        for p in three_column_domain(max_a1, max_extent)
        for q in [p, *(tuple(a + t for a in p) for t in periods)]
    ]
    expected = first_error(rules, points)
    assume(expected is not None)
    window = max_a1, max_extent, periods
    assert raised_before_any_table(
        translation_period_check, rules, Convention.NORMAL, *window
    ) == expected


near_or_past_the_limit = st.one_of(
    st.integers(0, 5), st.integers(MAX_ENTRY - 5, MAX_ENTRY + 5)
)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(
        [RuleSet(Family.DIET_CHOMP, k=2), RuleSet(Family.EXTENDED_NIM, add_limit=1)]
    ),
    st.integers(MAX_ENTRY - 20, MAX_ENTRY), st.integers(0, 12),
    st.one_of(
        st.just(PINNED_BULK_MARGINS),
        st.builds(Margins, near_or_past_the_limit, near_or_past_the_limit),
    ),
)
def test_bulk_windows_out_of_range_raise_the_per_point_error(
    rules, max_a1, spare, margins
):
    # spare + 1 rows (a1, a2) of each a1 lie outside the margins
    y0, x0 = margins
    max_extent = x0 + y0 + spare
    # a board with a1 + max_extent <= MAX_ENTRY is in range: listed from past those
    points = (
        (a1, a2, a3)
        for a1 in range(max(0, MAX_ENTRY - max_extent), max_a1 + 1)
        for a2 in range(a1 + x0, a1 + max_extent - y0 + 1)
        for a3 in range(a2 + y0, a1 + max_extent + 1)
    )
    expected = first_error(rules, points)
    assume(expected is not None)
    window = max_a1, max_extent, margins
    assert raised_before_any_table(
        bulk_formula_agreement, rules, Convention.MISERE, BULK, *window
    ) == expected
