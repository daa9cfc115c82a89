"""Where one family's moves are another's, their tables agree.  Each check
compares two of the tables' own move routes with each other (Slow Nim's
budget on the Nim carry, ``_monotone_drops`` with and without k, and
``_diet_chomp_drops`` against both), in Grundy values and both
conventions, with no DFS: a subtraction budget of k takes every amount
from a heap no larger than k, and a one-column Diet Chomp cut at height r
takes the v - r + 1 squares from r up."""

from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from gamesolve import Convention, Family, RuleSet
from gamesolve.tables import board_values

VALUES = [None, *Convention]  # Grundy values, then P-booleans in each convention
NIM = RuleSet(Family.NIM)


def same_values(rules, other, boards):
    return all(
        board_values(rules, c, boards) == board_values(other, c, boards) for c in VALUES
    )


def box(width, top):
    """The sorted boards of ``width`` columns with entries up to ``top``."""
    return list(combinations_with_replacement(range(top + 1), width))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 7), st.integers(0, 2))
def test_slow_nim_with_k_at_least_every_heap_is_nim(width, top, extra):
    slow_nim = RuleSet(Family.SLOW_NIM, k=top + extra)
    assert same_values(slow_nim, NIM, box(width, top))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 7), st.integers(0, 2))
def test_monotonic_slow_nim_with_k_at_least_every_entry_is_monotonic_nim(
    width, top, extra
):
    slow = RuleSet(Family.MONOTONIC_SLOW_NIM, k=top + extra)
    assert same_values(slow, RuleSet(Family.MONOTONIC_NIM), box(width, top))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_one_column_diet_chomp_is_one_heap_slow_nim(k):
    # every height below 60: the whole column, not a sample of it
    boards = [(h,) for h in range(60)]
    slow_nim = RuleSet(Family.SLOW_NIM, k=k)
    assert same_values(RuleSet(Family.DIET_CHOMP, k=k), slow_nim, boards)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=8), st.integers(1, 4))
def test_one_column_diet_chomp_with_k_past_the_height_is_nim(heights, extra):
    k = max(heights) + extra
    boards = [(h,) for h in heights]
    assert same_values(RuleSet(Family.DIET_CHOMP, k=k), NIM, boards)
