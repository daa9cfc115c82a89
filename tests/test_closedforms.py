import pytest

from gamesolve import Convention, Domain, Family, MemoTable, Outcome, RuleSet
from gamesolve import canonicalize, enumerate_positions, grundy, outcome
from gamesolve.closedforms import (
    TooWide,
    diet2_misere_bulk_conjecture,
    diet2_misere_p_narrow,
    diet2_normal_p,
    difference_position,
    is_perfect_stairs,
    monotonic_p,
    nim_grundy_formula,
    nim_p_misere,
    slow_nim_grundy_formula,
    slow_nim_p_misere,
    stairs_mod3_fact,
)
from gamesolve.core import NonMonotoneInput


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
        solver_p = outcome(rules, Convention.MISERE, canon, memo) is Outcome.P
        assert slow_nim_p_misere(2, p) == solver_p


def test_difference_position():
    assert difference_position((2, 5, 7)) == (2, 2)
    assert difference_position((1, 1)) == (0,)
    assert difference_position((3, 7)) == (4,)
    assert difference_position(()) == ()
    with pytest.raises(NonMonotoneInput):
        difference_position((2, 1))


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
        solver_p = outcome(nim, conv, canon, memo) is Outcome.P
        assert monotonic_p(nim, conv, raw) == solver_p


def test_monotonic_p_raw_vs_stripped_agree():
    # zero-stripping changes length parity but not the verdict
    for rules in [
        RuleSet(Family.MONOTONIC_NIM),
        RuleSet(Family.MONOTONIC_SLOW_NIM, k=2),
    ]:
        for conv in Convention:
            for raw in enumerate_positions(Domain(4, 6), lo=0):
                stripped = tuple(e for e in raw if e)
                assert monotonic_p(rules, conv, raw) == monotonic_p(
                    rules, conv, stripped
                )


def test_diet2_normal_p():
    assert diet2_normal_p((1, 2, 3)) is True
    assert diet2_normal_p((1, 1)) is False
    assert diet2_normal_p(()) is True


def test_perfect_stairs():
    assert is_perfect_stairs((1, 2, 3)) is True
    assert is_perfect_stairs((1, 2, 2)) is False
    assert is_perfect_stairs(()) is True
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
    for p in enumerate_positions(Domain(3, 8)):
        assert slow_nim_grundy_formula(k, p) == grundy(rules, p, memo)
        solver_p = outcome(rules, Convention.MISERE, p, memo) is Outcome.P
        assert slow_nim_p_misere(k, p) == solver_p


def test_nim_formulas_match_solver():
    rules = RuleSet(Family.NIM)
    memo = MemoTable()
    for p in enumerate_positions(Domain(3, 8)):
        assert nim_grundy_formula(p) == grundy(rules, p, memo)
        solver_p = outcome(rules, Convention.MISERE, p, memo) is Outcome.P
        assert nim_p_misere(p) == solver_p
