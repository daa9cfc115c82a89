import itertools

import pytest
from hypothesis import given, strategies as st

from gamesolve import Family, MoveRecord, RuleSet, canonicalize, successors
from gamesolve.games import (
    diet_chomp2_moves_explicit,
    diet_chomp_move_records,
    diet_chomp_moves,
    extended_nim_moves,
    extended_slow_nim_moves,
    monotonic_nim_moves,
    monotonic_slow_nim_moves,
    move_records,
    nim_moves,
    slow_nim_moves,
)


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


def test_nim_moves_examples():
    assert nim_moves((2,)) == [(), (1,)]
    assert nim_moves((1, 1)) == [(1,)]
    assert set(nim_moves((1, 2))) == {(2,), (1, 1), (1,)}


def test_slow_nim_moves_examples():
    assert slow_nim_moves(2, (3,)) == [(1,), (2,)]
    assert slow_nim_moves(1, (1, 1)) == [(1,)]
    assert slow_nim_moves(3, (5,)) == [(2,), (3,), (4,)]


def test_extended_nim_moves_examples():
    assert extended_nim_moves(2, (1,)) == [(), (2,), (3,)]
    assert extended_nim_moves(1, ()) == []
    assert extended_nim_moves(1, (1, 1)) == [(1,), (1, 2)]


def test_extended_slow_nim_moves_examples():
    assert extended_slow_nim_moves(1, (1,)) == [(), (2,)]
    assert extended_slow_nim_moves(2, (2,)) == [(), (1,), (3,), (4,)]
    assert extended_slow_nim_moves(2, ()) == []


def test_monotonic_nim_moves_examples():
    assert set(monotonic_nim_moves((1, 2))) == {(2,), (1, 1)}
    assert set(monotonic_nim_moves((2, 2))) == {(1, 2), (2,)}
    assert monotonic_nim_moves((1, 1)) == [(1,)]


def test_monotonic_slow_nim_moves_examples():
    assert set(monotonic_slow_nim_moves(1, (1, 2))) == {(2,), (1, 1)}
    assert set(monotonic_slow_nim_moves(2, (3, 3))) == {(1, 3), (2, 3)}
    assert monotonic_slow_nim_moves(5, (2,)) == [(), (1,)]


def test_diet_chomp_moves_examples():
    assert set(diet_chomp_moves(2, (1, 2, 2))) == {(2, 2), (1, 1, 2), (1, 1, 1)}
    assert diet_chomp_moves(1, (1, 1)) == [(1,)]
    assert set(diet_chomp_moves(100, (2, 2))) == {(2,), (1, 2), (1, 1), ()}


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
        assert set(diet_chomp_moves(k, p)) == quadrant_oracle(k, p), p


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_windowed_records_equal_all_cuts(k):
    for p in young_positions(4, 9):
        expected = [rec for removed, rec in all_cuts_records(p) if 1 <= removed <= k]
        assert diet_chomp_move_records(k, p) == expected, p


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_single_tall_column_has_k_records(k):
    records = diet_chomp_move_records(k, (700,))
    assert [(r.index, r.amount) for r in records] == [
        (1, r) for r in range(701 - k, 701)
    ]


def test_explicit_rules_equal_quadrant_moves():
    # exhaustive cross-check at small scale; acceptance widens the box
    for p in young_positions(4, 6):
        assert set(diet_chomp_moves(2, p)) == set(diet_chomp2_moves_explicit(p)), p


def test_unrestricted_k_gives_all_quadrant_cuts():
    for p in young_positions(3, 4):
        total = sum(p)
        if total:
            assert set(diet_chomp_moves(total, p)) == quadrant_oracle(total, p)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_slow_moves_are_subsets(k):
    for p in young_positions(3, 6):
        assert set(slow_nim_moves(k, p)) <= set(nim_moves(p))
        assert set(monotonic_slow_nim_moves(k, p)) <= set(monotonic_nim_moves(p))


def test_slow_equals_full_when_k_covers_max():
    for p in young_positions(3, 5):
        assert slow_nim_moves(5, p) == nim_moves(p)
        assert monotonic_slow_nim_moves(5, p) == monotonic_nim_moves(p)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_extended_slow_decreasing_part_is_slow_nim(k):
    for p in young_positions(3, 6):
        total = sum(p)
        dec = {q for q in extended_slow_nim_moves(k, p) if sum(q) < total}
        assert dec == set(slow_nim_moves(k, p))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_add_moves_reach_back(k):
    # every add-successor has a subtraction move returning to the source
    for p in young_positions(2, 6):
        total = sum(p)
        for q in extended_slow_nim_moves(k, p):
            if sum(q) > total:
                assert p in slow_nim_moves(k, q)


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
    out = diet_chomp_moves(k, p)
    assert out == sorted(set(out))
