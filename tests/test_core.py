import pytest
from hypothesis import given, strategies as st

from gamesolve import (
    BoundsExceeded,
    Family,
    NonMonotoneInput,
    RuleSet,
    canonicalize,
    parse_position,
)
from gamesolve.solver import successors

entries_st = st.lists(st.integers(min_value=0, max_value=20), max_size=8)


def test_canonicalize_sorts_order_free():
    assert canonicalize([3, 1, 2], Family.NIM) == (1, 2, 3)


def test_canonicalize_strips_zero_columns():
    assert canonicalize([0, 0, 5], Family.DIET_CHOMP) == (5,)


def test_canonicalize_rejects_non_monotone_ordered():
    with pytest.raises(NonMonotoneInput):
        canonicalize([2, 1], Family.MONOTONIC_NIM)


def test_canonicalize_empty_is_terminal():
    for family in Family:
        assert canonicalize([], family) == ()
        assert canonicalize([0, 0], family) == ()


@given(entries_st)
def test_canonicalize_idempotent_order_free(entries):
    once = canonicalize(entries, Family.NIM)
    assert canonicalize(once, Family.NIM) == once


@given(entries_st)
def test_canonicalize_idempotent_ordered(entries):
    once = canonicalize(sorted(entries), Family.DIET_CHOMP)
    assert canonicalize(once, Family.DIET_CHOMP) == once


@given(entries_st, st.randoms())
def test_order_free_successors_permutation_invariant(entries, rng):
    rules = RuleSet(Family.NIM)
    shuffled = list(entries)
    rng.shuffle(shuffled)
    a = successors(rules, canonicalize(entries, Family.NIM))
    b = successors(rules, canonicalize(shuffled, Family.NIM))
    assert a == b


def test_bounds_enforced():
    with pytest.raises(BoundsExceeded):
        canonicalize([1] * 65, Family.NIM)
    with pytest.raises(BoundsExceeded):
        canonicalize([2**32], Family.NIM)
    with pytest.raises(ValueError):
        canonicalize([-1], Family.NIM)


def test_successors_empty_iff_terminal():
    for rules in [
        RuleSet(Family.NIM),
        RuleSet(Family.SLOW_NIM, k=2),
        RuleSet(Family.EXTENDED_NIM, add_limit=1),
        RuleSet(Family.EXTENDED_SLOW_NIM, k=2),
        RuleSet(Family.MONOTONIC_NIM),
        RuleSet(Family.MONOTONIC_SLOW_NIM, k=2),
        RuleSet(Family.DIET_CHOMP, k=2),
    ]:
        assert successors(rules, ()) == []
        assert successors(rules, (1,)) != []


def test_ruleset_validation():
    with pytest.raises(ValueError):
        RuleSet(Family.SLOW_NIM)
    with pytest.raises(ValueError):
        RuleSet(Family.DIET_CHOMP, k=0)
    with pytest.raises(ValueError):
        RuleSet(Family.EXTENDED_NIM)
    with pytest.raises(ValueError):
        RuleSet(Family.EXTENDED_SLOW_NIM, k=2, add_limit=3)


@pytest.mark.parametrize(
    "family, params",
    [
        (Family.NIM, {"k": 2}),
        (Family.MONOTONIC_NIM, {"k": 1}),
        (Family.EXTENDED_NIM, {"k": 2, "add_limit": 1}),
        (Family.NIM, {"add_limit": 1}),
        (Family.SLOW_NIM, {"k": 2, "add_limit": 1}),
        (Family.EXTENDED_SLOW_NIM, {"k": 2, "add_limit": 2}),
        (Family.DIET_CHOMP, {"k": 2, "add_limit": 2}),
    ],
)
def test_ruleset_rejects_parameters_the_family_takes_not(family, params):
    with pytest.raises(ValueError, match="takes no"):
        RuleSet(family, **params)


def test_ruleset_value_semantics():
    rules = RuleSet(Family.SLOW_NIM, k=2)
    assert rules == RuleSet(Family.SLOW_NIM, 2) != RuleSet(Family.SLOW_NIM, k=3)
    assert hash(rules) == hash(RuleSet(Family.SLOW_NIM, k=2))
    assert {rules: 1}[RuleSet(Family.SLOW_NIM, k=2)] == 1
    assert (rules.family, rules.k, rules.add_limit) == (Family.SLOW_NIM, 2, None)
    assert rules.describe() == "slow-nim k=2"
    assert RuleSet(Family.EXTENDED_NIM, add_limit=3).describe() == (
        "extended-nim add_limit=3"
    )
    for args, message in [
        ((Family.SLOW_NIM,), "slow-nim requires k >= 1"),
        ((Family.DIET_CHOMP, 0), "diet-chomp requires k >= 1"),
        ((Family.NIM, 2), "nim takes no k"),
        ((Family.EXTENDED_NIM,), "extended-nim requires add_limit >= 1"),
        ((Family.SLOW_NIM, 2, 1), "slow-nim takes no add_limit"),
    ]:
        with pytest.raises(ValueError) as info:
            RuleSet(*args)
        assert str(info.value) == message
    with pytest.raises(ValueError, match="nim takes no k"):
        RuleSet(Family.NIM)._replace(k=5)
    assert rules._replace(k=3) == RuleSet(Family.SLOW_NIM, k=3)


def test_position_text_round_trip():
    assert parse_position("1,3,4") == (1, 3, 4)
    assert parse_position("") == ()
    assert parse_position("0") == ()
    with pytest.raises(ValueError):
        parse_position("1,x")


def test_family_flags_are_pinned_for_every_family():
    # ordered: positions are monotone sequences; loopy: add-moves make cycles
    assert {f: (f.ordered, f.loopy) for f in Family} == {
        Family.NIM: (False, False),
        Family.SLOW_NIM: (False, False),
        Family.EXTENDED_NIM: (False, True),
        Family.EXTENDED_SLOW_NIM: (False, True),
        Family.MONOTONIC_NIM: (True, False),
        Family.MONOTONIC_SLOW_NIM: (True, False),
        Family.DIET_CHOMP: (True, False),
    }
    # plain member attributes, so reading one calls no Python code
    assert all({"ordered", "loopy"} <= vars(f).keys() for f in Family)
