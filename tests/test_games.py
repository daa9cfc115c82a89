import itertools

import pytest
from hypothesis import given, strategies as st

from gamesolve import (
    BoundsExceeded,
    Convention,
    Family,
    RuleSet,
    canonicalize,
    games,
)
from gamesolve.core import MAX_ENTRY
from gamesolve.games import (
    MoveRecord,
    add_move_records,
    diet_chomp2_moves_explicit,
    diet_chomp_move_records,
    move_records,
)
from gamesolve.solver import MemoTable, grundy, outcome, successors

NIM = RuleSet(Family.NIM)
MONOTONIC_NIM = RuleSet(Family.MONOTONIC_NIM)


def slow_nim(k):
    return RuleSet(Family.SLOW_NIM, k=k)


def extended_nim(add_limit):
    return RuleSet(Family.EXTENDED_NIM, add_limit=add_limit)


def extended_slow_nim(k):
    return RuleSet(Family.EXTENDED_SLOW_NIM, k=k)


def monotonic_slow_nim(k):
    return RuleSet(Family.MONOTONIC_SLOW_NIM, k=k)


def diet_chomp(k):
    return RuleSet(Family.DIET_CHOMP, k=k)


def young_positions(max_cols, max_height):
    """All canonical non-decreasing positions within the box."""
    out = [()]
    for n in range(1, max_cols + 1):
        out.extend(
            p
            for p in itertools.combinations_with_replacement(
                range(1, max_height + 1), n
            )
        )
    return out


def quadrant_oracle(k, p):
    """Independent successor oracle: scan every dominated diagram q <= p and
    keep those reachable by truncating some prefix of columns to one height."""
    results = set()
    n = len(p)
    for q in itertools.product(*(range(h + 1) for h in p)):
        removed = sum(p) - sum(q)
        if not 1 <= removed <= k:
            continue
        for c in range(1, n + 1):
            if any(q[i] != p[i] for i in range(c, n)):
                continue
            h = q[c - 1]
            if all(q[i] == min(p[i], h) for i in range(c)):
                results.add(tuple(e for e in q if e))
                break
    return results


def all_cuts_records(p):
    """Every (column j, height r) cut of p in generator order, each with
    the number of squares it removes; the windowed generator must keep
    exactly the cuts removing 1..k squares."""
    for j in range(1, len(p) + 1):
        for r in range(1, p[j - 1] + 1):
            removed = sum(max(0, p[i] - (r - 1)) for i in range(j))
            result = canonicalize(
                tuple(min(p[i], r - 1) for i in range(j)) + p[j:],
                Family.DIET_CHOMP,
            )
            yield removed, MoveRecord("chomp", j, r, result)


# Slow reference generators: each builds the raw successor and canonicalizes
# it, as the generators did before they built canonical results directly
# (Diet Chomp's reference is the all-cuts enumerator above).


def ref_nim_records(p):
    records = []
    for i, a in enumerate(p):
        for new in range(a):
            result = canonicalize(p[:i] + (new,) + p[i + 1 :], Family.NIM)
            records.append(MoveRecord("subtract", i + 1, a - new, result))
    return records


def ref_slow_nim_records(k, p):
    records = []
    for i, a in enumerate(p):
        for s in range(min(k, a), 0, -1):
            result = canonicalize(p[:i] + (a - s,) + p[i + 1 :], Family.NIM)
            records.append(MoveRecord("subtract", i + 1, s, result))
    return records


def ref_add_records(limit, p):
    records = []
    for i, a in enumerate(p):
        for j in range(1, limit + 1):
            result = canonicalize(p[:i] + (a + j,) + p[i + 1 :], Family.NIM)
            records.append(MoveRecord("add", i + 1, j, result))
    return records


def ref_monotonic_records(k, p):
    records = []
    for i, a in enumerate(p):
        left = p[i - 1] if i > 0 else 0
        lo = a - k if k is not None else left
        for new in range(max(left, lo), a):
            result = canonicalize(p[:i] + (new,) + p[i + 1 :], Family.MONOTONIC_NIM)
            records.append(MoveRecord("subtract", i + 1, a - new, result))
    return records


def ref_move_records(rules, p):
    f, k = rules.family, rules.k
    if f is Family.NIM:
        return ref_nim_records(p)
    if f is Family.SLOW_NIM:
        return ref_slow_nim_records(k, p)
    if f is Family.EXTENDED_NIM:
        return ref_nim_records(p) + ref_add_records(rules.add_limit, p)
    if f is Family.EXTENDED_SLOW_NIM:
        return ref_slow_nim_records(k, p) + ref_add_records(k, p)
    if f is Family.MONOTONIC_NIM:
        return ref_monotonic_records(None, p)
    if f is Family.MONOTONIC_SLOW_NIM:
        return ref_monotonic_records(k, p)
    return [rec for removed, rec in all_cuts_records(p) if 1 <= removed <= k]


ALL_RULE_SETS = [NIM, MONOTONIC_NIM] + [
    rules
    for k in (1, 2, 3, 5)
    for rules in (
        slow_nim(k), extended_slow_nim(k), monotonic_slow_nim(k), diet_chomp(k)
    )
] + [extended_nim(n) for n in (1, 2, 3)]


@pytest.mark.parametrize("rules", ALL_RULE_SETS, ids=RuleSet.describe)
def test_canonical_generators_equal_slow_reference(rules):
    for p in young_positions(4, 8):
        expected = ref_move_records(rules, p)
        records = move_records(rules, p)
        assert records == expected, p
        assert all(type(r) is MoveRecord for r in records)
        assert successors(rules, p) == sorted({r.result for r in expected}), p


def test_a_k_as_large_as_every_entry_is_no_limit():
    # the slow games list their moves in the order their unbounded twins do
    for p in young_positions(4, 8):
        assert move_records(slow_nim(8), p) == move_records(NIM, p), p
        slow = move_records(monotonic_slow_nim(8), p)
        assert slow == move_records(MONOTONIC_NIM, p), p


@pytest.mark.parametrize(
    "rules", [NIM, MONOTONIC_NIM, diet_chomp(2)], ids=RuleSet.describe
)
def test_cold_solve_never_canonicalizes(monkeypatch, rules):
    def forbidden(*args):
        raise AssertionError(f"canonicalize{args} called")

    monkeypatch.setattr(games, "canonicalize", forbidden)
    p = (2, 3, 5, 6)
    memo = MemoTable()
    grundy(rules, p, memo)
    for convention in Convention:
        outcome(rules, convention, p, memo)
    sizes = {len(table) for table in memo.outcomes.values()}
    assert sizes == {len(memo.grundy_values[rules])}
    assert min(sizes) > 50


def test_add_moves_past_max_entry_raise_like_canonicalize():
    p = (3, MAX_ENTRY - 1)
    with pytest.raises(BoundsExceeded) as reference:
        ref_add_records(2, p)
    with pytest.raises(BoundsExceeded) as fast:
        add_move_records(2, p)
    assert str(fast.value) == str(reference.value)
    assert str(fast.value) == f"entry {MAX_ENTRY + 1} exceeds limit {MAX_ENTRY}"
    assert add_move_records(1, p) == ref_add_records(1, p)
    assert add_move_records(1, p)[-1] == ("add", 2, 1, (3, MAX_ENTRY))


def test_nim_moves_examples():
    assert successors(NIM, (2,)) == [(), (1,)]
    assert successors(NIM, (1, 1)) == [(1,)]
    assert set(successors(NIM, (1, 2))) == {(2,), (1, 1), (1,)}


def test_slow_nim_moves_examples():
    assert successors(slow_nim(2), (3,)) == [(1,), (2,)]
    assert successors(slow_nim(1), (1, 1)) == [(1,)]
    assert successors(slow_nim(3), (5,)) == [(2,), (3,), (4,)]


def test_extended_nim_moves_examples():
    assert successors(extended_nim(2), (1,)) == [(), (2,), (3,)]
    assert successors(extended_nim(1), ()) == []
    assert successors(extended_nim(1), (1, 1)) == [(1,), (1, 2)]


def test_extended_slow_nim_moves_examples():
    assert successors(extended_slow_nim(1), (1,)) == [(), (2,)]
    assert successors(extended_slow_nim(2), (2,)) == [(), (1,), (3,), (4,)]
    assert successors(extended_slow_nim(2), ()) == []


def test_monotonic_nim_moves_examples():
    assert set(successors(MONOTONIC_NIM, (1, 2))) == {(2,), (1, 1)}
    assert set(successors(MONOTONIC_NIM, (2, 2))) == {(1, 2), (2,)}
    assert successors(MONOTONIC_NIM, (1, 1)) == [(1,)]


def test_monotonic_slow_nim_moves_examples():
    assert set(successors(monotonic_slow_nim(1), (1, 2))) == {(2,), (1, 1)}
    assert set(successors(monotonic_slow_nim(2), (3, 3))) == {(1, 3), (2, 3)}
    assert successors(monotonic_slow_nim(5), (2,)) == [(), (1,)]


def test_diet_chomp_moves_examples():
    assert set(successors(diet_chomp(2), (1, 2, 2))) == {(2, 2), (1, 1, 2), (1, 1, 1)}
    assert successors(diet_chomp(1), (1, 1)) == [(1,)]
    assert set(successors(diet_chomp(100), (2, 2))) == {(2,), (1, 2), (1, 1), ()}


def test_diet_chomp2_explicit_examples():
    assert set(diet_chomp2_moves_explicit((1, 2, 2))) == {
        (2, 2),
        (1, 1, 2),
        (1, 1, 1),
    }
    assert diet_chomp2_moves_explicit((1,)) == [()]
    assert set(diet_chomp2_moves_explicit((1, 2, 3))) == {
        (2, 3),
        (1, 1, 3),
        (1, 2, 2),
    }


@pytest.mark.parametrize("k", [1, 2, 3])
def test_diet_chomp_matches_quadrant_oracle(k):
    for p in young_positions(4, 5):
        assert set(successors(diet_chomp(k), p)) == quadrant_oracle(k, p), p


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_windowed_records_equal_all_cuts(k):
    for p in young_positions(4, 9):
        expected = [rec for removed, rec in all_cuts_records(p) if 1 <= removed <= k]
        assert list(diet_chomp_move_records(k, p)) == expected, p


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_single_tall_column_has_k_records(k):
    records = move_records(diet_chomp(k), (700,))
    assert [(r.index, r.amount) for r in records] == [
        (1, r) for r in range(701 - k, 701)
    ]


def test_explicit_rules_equal_quadrant_moves():
    # exhaustive cross-check at small scale; acceptance widens the box
    for p in young_positions(4, 6):
        assert successors(diet_chomp(2), p) == diet_chomp2_moves_explicit(p), p


def test_unrestricted_k_gives_all_quadrant_cuts():
    for p in young_positions(3, 4):
        total = sum(p)
        if total:
            assert set(successors(diet_chomp(total), p)) == quadrant_oracle(total, p)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_slow_moves_are_subsets(k):
    for p in young_positions(3, 6):
        assert set(successors(slow_nim(k), p)) <= set(successors(NIM, p))
        slow = set(successors(monotonic_slow_nim(k), p))
        assert slow <= set(successors(MONOTONIC_NIM, p))


def test_slow_equals_full_when_k_covers_max():
    for p in young_positions(3, 5):
        assert successors(slow_nim(5), p) == successors(NIM, p)
        assert successors(monotonic_slow_nim(5), p) == successors(MONOTONIC_NIM, p)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_extended_slow_decreasing_part_is_slow_nim(k):
    for p in young_positions(3, 6):
        total = sum(p)
        dec = {q for q in successors(extended_slow_nim(k), p) if sum(q) < total}
        assert dec == set(successors(slow_nim(k), p))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_add_moves_reach_back(k):
    # every add-successor has a subtraction move returning to the source
    for p in young_positions(2, 6):
        total = sum(p)
        for q in successors(extended_slow_nim(k), p):
            if sum(q) > total:
                assert p in successors(slow_nim(k), q)


def test_successors_monotone_for_ordered_families():
    for rules in [
        RuleSet(Family.MONOTONIC_NIM),
        RuleSet(Family.MONOTONIC_SLOW_NIM, k=2),
        RuleSet(Family.DIET_CHOMP, k=2),
    ]:
        for p in young_positions(4, 5):
            for q in successors(rules, p):
                assert all(q[i] <= q[i + 1] for i in range(len(q) - 1))


def test_token_count_strictly_decreases_outside_add_moves():
    for rules in [
        RuleSet(Family.NIM),
        RuleSet(Family.SLOW_NIM, k=2),
        RuleSet(Family.MONOTONIC_NIM),
        RuleSet(Family.MONOTONIC_SLOW_NIM, k=2),
        RuleSet(Family.DIET_CHOMP, k=3),
    ]:
        for p in young_positions(3, 5):
            for q in successors(rules, p):
                assert sum(q) < sum(p)


def test_move_records_results_are_legal_successors():
    for rules in [
        RuleSet(Family.NIM),
        RuleSet(Family.EXTENDED_SLOW_NIM, k=2),
        RuleSet(Family.DIET_CHOMP, k=2),
    ]:
        for p in young_positions(3, 4):
            succ = set(successors(rules, p))
            for record in move_records(rules, p):
                assert record.result in succ


@given(
    st.lists(st.integers(min_value=0, max_value=8), max_size=5),
    st.integers(min_value=1, max_value=4),
)
def test_diet_chomp_output_sorted_dedup(entries, k):
    p = canonicalize(sorted(entries), Family.DIET_CHOMP)
    out = successors(diet_chomp(k), p)
    assert out == sorted(set(out))
