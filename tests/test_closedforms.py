from functools import partial
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from gamesolve import Convention, Family, RuleSet, canonicalize
from gamesolve.closedforms import (
    TooWide,
    diet2_misere_bulk_conjecture,
    diet2_misere_p_narrow,
    diet2_normal_p,
    difference_position,
    nim_grundy_formula,
    nim_p_misere,
    nim_value,
    slow_nim_grundy_formula,
    slow_nim_p_misere,
    stairs_mod3_fact,
)
from gamesolve.core import NonMonotoneInput
from gamesolve.solver import MemoTable, grundy, outcome
from helpers import positions


def test_nim_grundy_formula():
    assert nim_grundy_formula((1, 2, 3)) == 0
    assert nim_grundy_formula(()) == 0
    assert nim_grundy_formula((5,)) == 5


def test_nim_p_misere():
    assert nim_p_misere((1, 1, 1)) is True
    assert nim_p_misere((2, 2)) is True
    assert nim_p_misere((1, 2)) is False
    assert nim_p_misere(()) is False  # terminal is N in misere


def test_slow_nim_grundy_formula():
    assert slow_nim_grundy_formula(2, (4, 5)) == 3
    assert slow_nim_grundy_formula(1, (2, 4, 6)) == 0
    assert slow_nim_grundy_formula(3, (4,)) == 0


def test_slow_nim_p_misere_against_solver():
    # the spec's example verdicts, then the full confirmation sweep below
    assert slow_nim_p_misere(2, (3, 3)) is False
    assert slow_nim_p_misere(2, (1, 3)) is True
    assert slow_nim_p_misere(2, (2, 5, 7)) is False
    rules = RuleSet(Family.SLOW_NIM, k=2)
    memo = MemoTable()
    for p in [(3, 3), (1, 3), (2, 5, 7)]:
        canon = canonicalize(p, Family.SLOW_NIM)
        solver_p = outcome(rules, Convention.MISERE, canon, memo)
        assert slow_nim_p_misere(2, p) == solver_p


def test_difference_position():
    assert difference_position((2, 5, 7)) == (2, 2)
    assert difference_position((1, 1)) == (0,)
    assert difference_position((3, 7)) == (4,)
    assert difference_position(()) == ()
    with pytest.raises(NonMonotoneInput):
        difference_position((2, 1))
    with pytest.raises(ValueError, match="entries must be non-negative"):
        difference_position((-1, 2))


def monotonic_p(rules, convention, raw):
    """The P-test of a raw sequence of a monotone game: ``nim_value`` on
    its difference position."""
    return nim_value(rules.k, convention, difference_position(raw))


def test_monotonic_p_examples():
    nim = RuleSet(Family.MONOTONIC_NIM)
    assert monotonic_p(nim, Convention.NORMAL, (2, 2)) is True
    assert monotonic_p(nim, Convention.NORMAL, (1, 2)) is False
    assert monotonic_p(nim, Convention.MISERE, (1, 2)) is True
    memo = MemoTable()
    for raw, conv in [
        ((2, 2), Convention.NORMAL),
        ((1, 2), Convention.NORMAL),
        ((1, 2), Convention.MISERE),
    ]:
        canon = canonicalize(raw, Family.MONOTONIC_NIM)
        solver_p = outcome(nim, conv, canon, memo)
        assert monotonic_p(nim, conv, raw) == solver_p


def test_monotonic_p_raw_vs_stripped_agree():
    # zero-stripping changes length parity but not the verdict
    raws = [
        raw for n in range(5) for raw in combinations_with_replacement(range(7), n)
    ]
    for rules in [
        RuleSet(Family.MONOTONIC_NIM),
        RuleSet(Family.MONOTONIC_SLOW_NIM, k=2),
    ]:
        for conv in Convention:
            for raw in raws:
                stripped = tuple(e for e in raw if e)
                assert monotonic_p(rules, conv, raw) == monotonic_p(rules, conv, stripped)


def old_monotonic_p(rules, convention, raw):
    """``monotonic_p`` as it was before one function chose the (Slow-)Nim
    formula: the predicate computed on the difference position of a raw
    sequence."""
    b = difference_position(raw)
    slow = rules.family is Family.MONOTONIC_SLOW_NIM
    if convention is Convention.NORMAL:
        g = slow_nim_grundy_formula(rules.k, b) if slow else nim_grundy_formula(b)
        return g == 0
    return slow_nim_p_misere(rules.k, b) if slow else nim_p_misere(b)


MONOTONE_RULES = st.one_of(
    st.just(RuleSet(Family.MONOTONIC_NIM)),
    st.integers(1, 5).map(lambda k: RuleSet(Family.MONOTONIC_SLOW_NIM, k=k)),
)


@settings(max_examples=400, deadline=None)
@given(
    MONOTONE_RULES,
    st.sampled_from(list(Convention)),
    st.lists(st.integers(-3, 9), max_size=6),
)
def test_nim_value_matches_the_old_body(rules, convention, entries):
    # a raw board with zeros allowed, asked twice: no memo carries a
    # verdict from one call to the next
    raw = tuple(sorted(map(abs, entries)))
    expected = old_monotonic_p(rules, convention, raw)
    for _ in range(2):
        assert monotonic_p(rules, convention, raw) is expected
    # the entries as drawn, when negative or decreasing, raise at every call
    bad = tuple(entries)
    if bad != raw:
        error = ValueError if min(bad) < 0 else NonMonotoneInput
        for _ in range(2):
            with pytest.raises(error):
                monotonic_p(rules, convention, bad)


@pytest.mark.parametrize("conv", list(Convention))
def test_bad_raw_boards_raise_after_a_good_board_of_their_difference_position(conv):
    # (0, 1, 1, 2) and the decreasing (1, 2, 0, 1) pair up to (1, 1); (0, 3)
    # and the negative (-1, 2) to (3,)
    nim = RuleSet(Family.MONOTONIC_NIM)
    for good, bad, error in [
        ((0, 1, 1, 2), (1, 2, 0, 1), NonMonotoneInput),
        ((0, 3), (-1, 2), ValueError),
    ]:
        monotonic_p(nim, conv, good)
        for _ in range(2):
            with pytest.raises(error):
                monotonic_p(nim, conv, bad)


def test_diet2_normal_p():
    assert diet2_normal_p((1, 2, 3)) is True
    assert diet2_normal_p((1, 1)) is False
    assert diet2_normal_p(()) is True


def test_perfect_stairs():
    assert stairs_mod3_fact(4) == 1


def test_stairs_never_two_mod_three():
    assert all(stairs_mod3_fact(n) in (0, 1) for n in range(1001))


def test_diet2_misere_p_narrow():
    assert diet2_misere_p_narrow((4,)) is True
    assert diet2_misere_p_narrow((2, 6)) is True
    assert diet2_misere_p_narrow((3, 3)) is False
    assert diet2_misere_p_narrow(()) is False
    with pytest.raises(TooWide):
        diet2_misere_p_narrow((1, 2, 3))


def test_diet2_misere_bulk_conjecture_raw_formula():
    assert diet2_misere_bulk_conjecture((5, 6, 8)) is True
    assert diet2_misere_bulk_conjecture((0, 0, 1)) is True
    assert diet2_misere_bulk_conjecture((2, 3, 4)) is False


@pytest.mark.parametrize("k", [1, 2, 3])
def test_slow_nim_formulas_match_solver(k):
    rules = RuleSet(Family.SLOW_NIM, k=k)
    memo = MemoTable()
    for p in positions(3, 8):
        assert slow_nim_grundy_formula(k, p) == grundy(rules, p, memo)
        solver_p = outcome(rules, Convention.MISERE, p, memo)
        assert slow_nim_p_misere(k, p) == solver_p


def test_nim_formulas_match_solver():
    rules = RuleSet(Family.NIM)
    memo = MemoTable()
    for p in positions(3, 8):
        assert nim_grundy_formula(p) == grundy(rules, p, memo)
        solver_p = outcome(rules, Convention.MISERE, p, memo)
        assert nim_p_misere(p) == solver_p


@pytest.mark.parametrize("k", [None, 1, 2, 3])
def test_nim_value_picks_the_formula_of_its_family_and_convention(k):
    # None: Nim; else Slow Nim with that k.  A P-test is a bool, not 0 or 1
    grundy_of = partial(slow_nim_grundy_formula, k) if k else nim_grundy_formula
    misere_p = partial(slow_nim_p_misere, k) if k else nim_p_misere
    for p in positions(4, 9):
        g = grundy_of(p)
        assert nim_value(k, None, p) == g
        assert nim_value(k, Convention.NORMAL, p) is (g == 0)
        assert nim_value(k, Convention.MISERE, p) is misere_p(p)
