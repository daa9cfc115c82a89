from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from gamesolve import solver
from gamesolve import (
    Convention,
    Domain,
    Family,
    LoopyFamily,
    MemoTable,
    Outcome,
    RuleSet,
    enumerate_positions,
    grundy,
    mex,
    outcome,
    canonicalize,
    successors,
    verify_grundy_consistency,
    verify_pset,
)
from gamesolve.closedforms import nim_grundy_formula, slow_nim_grundy_formula


def naive_outcome(rules, convention, p):
    """Plain recursive reference solver, independent of the memoized engine."""

    @lru_cache(maxsize=None)
    def solve(q):
        succ = successors(rules, q)
        if not succ:
            return Outcome.P if convention is Convention.NORMAL else Outcome.N
        return (
            Outcome.N
            if any(solve(s) is Outcome.P for s in succ)
            else Outcome.P
        )

    return solve(p)


def naive_grundy(rules, p):
    @lru_cache(maxsize=None)
    def solve(q):
        return mex(solve(s) for s in successors(rules, q))

    return solve(p)


def test_mex_examples():
    assert mex(set()) == 0
    assert mex({0, 1, 2}) == 3
    assert mex({0, 2}) == 1


def test_grundy_examples():
    assert grundy(RuleSet(Family.NIM), (1, 2, 3)) == 0
    assert grundy(RuleSet(Family.SLOW_NIM, k=2), (4, 5)) == 3
    assert grundy(RuleSet(Family.DIET_CHOMP, k=2), (1, 1)) != 0


def test_outcome_terminal_rules():
    for rules in [RuleSet(Family.NIM), RuleSet(Family.DIET_CHOMP, k=2)]:
        assert outcome(rules, Convention.NORMAL, ()) is Outcome.P
        assert outcome(rules, Convention.MISERE, ()) is Outcome.N


def test_outcome_lemma9_base_case():
    assert (
        outcome(RuleSet(Family.DIET_CHOMP, k=2), Convention.MISERE, (1,))
        is Outcome.P
    )


@pytest.mark.parametrize(
    "rules",
    [
        RuleSet(Family.NIM),
        RuleSet(Family.SLOW_NIM, k=2),
        RuleSet(Family.MONOTONIC_NIM),
        RuleSet(Family.DIET_CHOMP, k=2),
    ],
)
def test_solver_matches_naive_reference(rules):
    memo = MemoTable()
    for conv in Convention:
        for p in enumerate_positions(Domain(3, 6)):
            assert outcome(rules, conv, p, memo) is naive_outcome(rules, conv, p)
    for p in enumerate_positions(Domain(3, 6)):
        assert grundy(rules, p, memo) == naive_grundy(rules, p)


ACYCLIC_RULES = [
    RuleSet(Family.NIM),
    RuleSet(Family.SLOW_NIM, k=2),
    RuleSet(Family.SLOW_NIM, k=3),
    RuleSet(Family.MONOTONIC_NIM),
    RuleSet(Family.MONOTONIC_SLOW_NIM, k=1),
    RuleSet(Family.MONOTONIC_SLOW_NIM, k=2),
    RuleSet(Family.DIET_CHOMP, k=1),
    RuleSet(Family.DIET_CHOMP, k=2),
    RuleSet(Family.DIET_CHOMP, k=3),
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ACYCLIC_RULES),
    st.sampled_from(list(Convention)),
    st.lists(st.integers(min_value=0, max_value=7), max_size=4),
)
def test_engine_matches_naive_on_random_positions(rules, convention, entries):
    raw = sorted(entries) if rules.family.ordered else entries
    p = canonicalize(raw, rules.family)
    assert outcome(rules, convention, p) is naive_outcome(rules, convention, p)
    assert grundy(rules, p) == naive_grundy(rules, p)


def solve_into(rules, convention, p, memo):
    """Grundy value (convention None) or outcome of p; returns the memo
    table it was written to."""
    if convention is None:
        grundy(rules, p, memo)
        return memo.grundy_values[rules]
    outcome(rules, convention, p, memo)
    return memo.outcomes[(rules, convention)]


@pytest.mark.parametrize(
    "rules, p",
    [
        (RuleSet(Family.NIM), (2, 3, 5)),
        (RuleSet(Family.MONOTONIC_SLOW_NIM, k=2), (2, 4, 6)),
        (RuleSet(Family.DIET_CHOMP, k=2), (3, 5, 7)),
    ],
)
@pytest.mark.parametrize("convention", [None, *Convention])
def test_cold_solve_expands_each_entry_once(monkeypatch, rules, p, convention):
    expanded = Counter()
    real = solver.successors

    def counting(rules, q):
        expanded[q] += 1
        return real(rules, q)

    monkeypatch.setattr(solver, "successors", counting)
    memo = MemoTable()
    table = solve_into(rules, convention, p, memo)
    assert len(table) > 10
    assert expanded == Counter(table.keys())
    assert (memo.hits, memo.misses) == (0, 1)
    # a warm query expands nothing
    solve_into(rules, convention, p, memo)
    assert sum(expanded.values()) == len(table)
    assert (memo.hits, memo.misses) == (1, 1)


def test_grundy_zero_iff_normal_p():
    memo = MemoTable()
    for rules in [RuleSet(Family.NIM), RuleSet(Family.DIET_CHOMP, k=2)]:
        for p in enumerate_positions(Domain(3, 7)):
            is_p = outcome(rules, Convention.NORMAL, p, memo) is Outcome.P
            assert (grundy(rules, p, memo) == 0) == is_p


def test_memo_clearing_is_stable():
    rules = RuleSet(Family.DIET_CHOMP, k=2)
    first = {
        p: outcome(rules, Convention.MISERE, p, MemoTable())
        for p in enumerate_positions(Domain(3, 5))
    }
    memo = MemoTable()
    second = {
        p: outcome(rules, Convention.MISERE, p, memo)
        for p in enumerate_positions(Domain(3, 5))
    }
    assert first == second
    assert memo.misses > 0


def test_loopy_families_rejected():
    with pytest.raises(LoopyFamily):
        grundy(RuleSet(Family.EXTENDED_NIM, add_limit=1), (1,))
    with pytest.raises(LoopyFamily):
        outcome(RuleSet(Family.EXTENDED_SLOW_NIM, k=2), Convention.NORMAL, (1,))


def test_enumerate_positions_examples():
    assert list(enumerate_positions(Domain(1, 2))) == [(), (1,), (2,)]
    assert list(enumerate_positions(Domain(2, 1))) == [(), (1,), (1, 1)]
    assert len(list(enumerate_positions(Domain(2, 3)))) == 10


def test_enumerate_positions_unique_and_lexicographic():
    seen = list(enumerate_positions(Domain(3, 4)))
    assert len(seen) == len(set(seen))
    assert seen == sorted(seen)


def test_enumerate_raw_sequences_allows_zeros():
    raws = list(enumerate_positions(Domain(2, 1), lo=0))
    assert raws == [(), (0,), (0, 0), (0, 1), (1,), (1, 1)]


def test_verify_pset_nim_normal():
    report = verify_pset(
        RuleSet(Family.NIM),
        Convention.NORMAL,
        lambda p: nim_grundy_formula(p) == 0,
        Domain(3, 7),
    )
    assert report.ok
    assert report.checked_count > 0


def test_verify_pset_slow_nim_misere():
    from gamesolve.closedforms import slow_nim_p_misere

    report = verify_pset(
        RuleSet(Family.SLOW_NIM, k=2),
        Convention.MISERE,
        lambda p: slow_nim_p_misere(2, p),
        Domain(3, 10),
    )
    assert report.ok


def test_verify_pset_extended_boundary_aware():
    report = verify_pset(
        RuleSet(Family.EXTENDED_SLOW_NIM, k=2),
        Convention.NORMAL,
        lambda p: slow_nim_grundy_formula(2, p) == 0,
        Domain(2, 9),
    )
    assert report.ok


def test_verify_pset_sensitivity():
    flipped_at = (1, 2, 3)

    def flipped(p):
        want = nim_grundy_formula(p) == 0
        return not want if p == flipped_at else want

    report = verify_pset(
        RuleSet(Family.NIM), Convention.NORMAL, flipped, Domain(3, 7)
    )
    assert len(report.counterexamples) >= 1


def test_verify_grundy_consistency_examples():
    ok = verify_grundy_consistency(
        RuleSet(Family.EXTENDED_SLOW_NIM, k=1),
        lambda p: slow_nim_grundy_formula(1, p),
        Domain(1, 20),
    )
    assert ok.ok and ok.checked_count > 0

    ok = verify_grundy_consistency(
        RuleSet(Family.EXTENDED_SLOW_NIM, k=3),
        lambda p: slow_nim_grundy_formula(3, p),
        Domain(2, 12),
    )
    assert ok.ok

    ok = verify_grundy_consistency(
        RuleSet(Family.EXTENDED_NIM, add_limit=2),
        nim_grundy_formula,
        Domain(2, 10),
    )
    assert ok.ok


def test_verify_grundy_consistency_sensitivity():
    def wrong(p):
        g = nim_grundy_formula(p)
        return g + 1 if p == (1, 2) else g

    report = verify_grundy_consistency(
        RuleSet(Family.EXTENDED_NIM, add_limit=1), wrong, Domain(2, 8)
    )
    assert not report.ok
