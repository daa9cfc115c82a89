from argparse import Namespace
import ast
import builtins
from array import array
from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb
from operator import getitem, le
from pathlib import Path
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from gamesolve import analysis, cli, solver, tables, theorems
from gamesolve import (
    Convention,
    Family,
    LoopyFamily,
    RuleSet,
    mex,
    canonicalize,
)
from gamesolve.closedforms import (
    diet2_misere_bulk_conjecture,
    nim_grundy_formula,
    nim_p_misere,
    slow_nim_grundy_formula,
)
from gamesolve.solver import (
    MemoTable,
    grundy,
    outcome,
    successors,
    verify_grundy_consistency,
    verify_pset,
)
from helpers import (
    lattice_values,
    positions,
    recording_reader,
    recursive_positions,
    table_of,
)


def naive_outcome(rules, convention, p):
    """Plain recursive reference solver, independent of the memoized engine."""

    @lru_cache(maxsize=None)
    def solve(q):
        succ = successors(rules, q)
        if not succ:
            return convention is Convention.NORMAL
        return not any(solve(s) for s in succ)

    return solve(p)


def naive_grundy(rules, p):
    @lru_cache(maxsize=None)
    def solve(q):
        return mex(solve(s) for s in successors(rules, q))

    return solve(p)


def test_successors_imports_games_at_its_first_call_alone(monkeypatch):
    nim, real = RuleSet(Family.NIM), builtins.__import__
    assert successors(nim, (1, 2)) == [(1,), (1, 1), (2,)]
    imported = []
    monkeypatch.setattr(
        builtins, "__import__",
        lambda name, *args: imported.append(name) or real(name, *args),
    )
    assert successors(nim, (1, 2)) == [(1,), (1, 1), (2,)]
    assert imported == []


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
        assert outcome(rules, Convention.NORMAL, ()) is True
        assert outcome(rules, Convention.MISERE, ()) is False


def test_outcome_lemma9_base_case():
    assert outcome(RuleSet(Family.DIET_CHOMP, k=2), Convention.MISERE, (1,)) is True


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
        for p in positions(3, 6):
            assert outcome(rules, conv, p, memo) is naive_outcome(rules, conv, p)
    for p in positions(3, 6):
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
    # a warm query expands nothing
    solve_into(rules, convention, p, memo)
    assert sum(expanded.values()) == len(table)


def test_grundy_zero_iff_normal_p():
    memo = MemoTable()
    for rules in [RuleSet(Family.NIM), RuleSet(Family.DIET_CHOMP, k=2)]:
        for p in positions(3, 7):
            is_p = outcome(rules, Convention.NORMAL, p, memo)
            assert (grundy(rules, p, memo) == 0) == is_p


def test_memo_clearing_is_stable():
    rules = RuleSet(Family.DIET_CHOMP, k=2)
    first = {
        p: outcome(rules, Convention.MISERE, p, MemoTable())
        for p in positions(3, 5)
    }
    memo = MemoTable()
    second = {
        p: outcome(rules, Convention.MISERE, p, memo)
        for p in positions(3, 5)
    }
    assert first == second


def test_loopy_families_rejected():
    with pytest.raises(LoopyFamily):
        grundy(RuleSet(Family.EXTENDED_NIM, add_limit=1), (1,))
    with pytest.raises(LoopyFamily):
        outcome(RuleSet(Family.EXTENDED_SLOW_NIM, k=2), Convention.NORMAL, (1,))


def test_enumerate_raw_sequences_allows_zeros():
    raws = list(recursive_positions(2, 1, 0))
    assert raws == [(), (0,), (0, 0), (0, 1), (1,), (1, 1)]


@pytest.mark.parametrize("domain", [(0, 3), (3, 0), (2, 12), (4, 5)])
@pytest.mark.parametrize("lo", [0])
def test_enumerate_positions_matches_brute_force(domain, lo):
    # the tests' walk of the raw sequences: every tuple over lo..max_entry
    # of every length, kept if non-decreasing
    piles, entry = domain
    expected = sorted(
        p
        for n in range(piles + 1)
        for p in product(range(lo, entry + 1), repeat=n)
        if list(p) == sorted(p)
    )
    assert list(recursive_positions(piles, entry, lo)) == expected


def test_verify_pset_nim_normal():
    report = verify_pset(
        RuleSet(Family.NIM),
        Convention.NORMAL,
        lambda p: nim_grundy_formula(p) == 0,
        positions(3, 7),
    )
    assert report.ok
    assert report.checked_count > 0


def test_verify_pset_slow_nim_misere():
    from gamesolve.closedforms import slow_nim_p_misere

    report = verify_pset(
        RuleSet(Family.SLOW_NIM, k=2),
        Convention.MISERE,
        lambda p: slow_nim_p_misere(2, p),
        positions(3, 10),
    )
    assert report.ok


def test_verify_pset_extended_boundary_aware():
    report = verify_pset(
        RuleSet(Family.EXTENDED_SLOW_NIM, k=2),
        Convention.NORMAL,
        lambda p: slow_nim_grundy_formula(2, p) == 0,
        positions(2, 9),
    )
    assert report.ok


def test_verify_pset_sensitivity():
    flipped_at = (1, 2, 3)

    def flipped(p):
        want = nim_grundy_formula(p) == 0
        return not want if p == flipped_at else want

    report = verify_pset(
        RuleSet(Family.NIM), Convention.NORMAL, flipped, positions(3, 7)
    )
    assert len(report.counterexamples) >= 1


def test_verify_grundy_consistency_examples():
    ok = verify_grundy_consistency(
        RuleSet(Family.EXTENDED_SLOW_NIM, k=1),
        lambda p: slow_nim_grundy_formula(1, p),
        positions(1, 20),
    )
    assert ok.ok and ok.checked_count > 0

    ok = verify_grundy_consistency(
        RuleSet(Family.EXTENDED_SLOW_NIM, k=3),
        lambda p: slow_nim_grundy_formula(3, p),
        positions(2, 12),
    )
    assert ok.ok

    ok = verify_grundy_consistency(
        RuleSet(Family.EXTENDED_NIM, add_limit=2),
        nim_grundy_formula,
        positions(2, 10),
    )
    assert ok.ok


def test_verify_grundy_consistency_sensitivity():
    def wrong(p):
        g = nim_grundy_formula(p)
        return g + 1 if p == (1, 2) else g

    report = verify_grundy_consistency(
        RuleSet(Family.EXTENDED_NIM, add_limit=1), wrong, positions(2, 8)
    )
    assert not report.ok


# ---------------------------------------------------------------------------
# retrograde outcome tables against the DFS

DC2 = RuleSet(Family.DIET_CHOMP, k=2)


def raw_boards(caps):
    """Every zero-padded non-decreasing board of len(caps) columns inside
    the caps, in lexicographic order: the i-th is the table's cell i."""
    boards = [()]
    for cap in caps:
        boards = [b + (x,) for b in boards for x in range(b[-1] if b else 0, cap + 1)]
    return boards


def test_ranks_number_the_sorted_boards_in_lexicographic_order():
    rng = random.Random(0)
    for _ in range(300):
        caps = tuple(sorted(rng.randrange(8) for _ in range(rng.randrange(6))))
        ranks, boards = tables._ranks(caps), raw_boards(caps)
        assert [sum(map(getitem, ranks, b)) for b in boards] == list(range(len(boards)))


def read_mismatches(read, rules, convention, tops):
    """Each (board, n) where ``read(board, n)``, for a sorted board below
    one of ``tops`` (all of one width) and any n up to the table's end, is
    not the DFS values of that board and the n - 1 sorted boards after it
    (1 for a P-board in an outcome table; 0 for a board below no top, whose
    cell is never filled), in the storage of the reader's table."""
    boards, memo = raw_boards(tuple(map(max, zip(*tops)))), MemoTable()

    def below_a_top(b):
        return any(all(map(le, b, t)) for t in tops)

    def dfs(b):
        p = canonicalize(b, rules.family)
        if convention is None:
            return grundy(rules, p, memo)
        return int(outcome(rules, convention, p, memo))

    values = [dfs(b) if below_a_top(b) else 0 for b in boards]
    cells = array("I", values) if type(read(boards[0])) is array else bytearray(values)
    return [
        (b, n)
        for i, b in enumerate(boards)
        if below_a_top(b)
        for n in range(1, len(boards) - i + 1)
        if read(b, n) != cells[i : i + n]
    ]


READER_RULES = [
    RuleSet(Family.NIM),
    RuleSet(Family.MONOTONIC_NIM),
    *(RuleSet(f, k=2) for f in (Family.SLOW_NIM, Family.MONOTONIC_SLOW_NIM)),
    RuleSet(Family.DIET_CHOMP, k=1),
    RuleSet(Family.DIET_CHOMP, k=3),
]


def random_tops(rng, width):
    """One to three sorted tops of ``width`` columns, small enough that
    every (board, n) of their table can be read."""
    cap = (0, 12, 8, 6, 4, 3)[width]
    return [
        tuple(sorted(rng.randrange(cap + 1) for _ in range(width)))
        for _ in range(rng.randrange(1, 4))
    ]


@pytest.mark.parametrize("convention", [*Convention, None])  # None: Grundy values
@pytest.mark.parametrize("rules", READER_RULES, ids=RuleSet.describe)
def test_the_reader_slices_the_dfs_values_at_every_width(rules, convention):
    rng = random.Random(f"{rules.describe()} {convention}")
    for width in range(6):
        for _ in range(2):
            tops = random_tops(rng, width)
            read = tables.reader(rules, convention, *tops)
            assert type(read((0,) * width)) is bytearray
            assert read_mismatches(read, rules, convention, tops) == []


@pytest.mark.parametrize("rules", READER_RULES[:3], ids=RuleSet.describe)
def test_the_reader_slices_wide_grundy_cells(rules):
    # the caps sum to 256, so the Grundy cells are unsigned ints; the boards
    # (1, 201..255) lie below no top
    tops = [(1, 200), (0, 255)]
    read = tables.reader(rules, None, *tops)
    assert type(read((0, 0))) is array
    assert read_mismatches(read, rules, None, tops) == []


@pytest.mark.parametrize("convention", [Convention.MISERE, None])
def test_an_off_by_one_reader_fails_the_reader_check(convention):
    tops = [(1, 3, 4), (2, 2, 3)]
    read = tables.reader(DC2, convention, *tops)
    assert read_mismatches(read, DC2, convention, tops) == []
    for wrong in (
        lambda b, n=1: read(b, n + 1)[1:],  # the board after b, onwards
        lambda b, n=1: read(b, n + 1),  # one cell too many
        lambda b, n=1: read(b, n)[:-1],  # one cell too few
    ):
        assert read_mismatches(wrong, DC2, convention, tops) != []


def assert_cells_hold_the_dfs(table, tops, reached, convention):
    """Walk every sorted board below the tops' caps (zero-padded to the
    widest top) in rank order: the table has one cell per board, a board
    in the DFS memo ``reached`` holds its value (1 for a P-board in an
    outcome table), and every other cell holds 0."""
    m = max(map(len, tops))
    caps = tuple(map(max, zip(*[(0,) * (m - len(t)) + t for t in tops])))
    canonical = [b[b.count(0):] for b in raw_boards(caps)]
    assert len(table) == len(canonical)
    assert set(reached) <= set(canonical)
    for cell, p in zip(table, canonical):
        assert cell == reached.get(p, 0), p


@pytest.mark.parametrize("caps, count", [((20, 20, 20), 1771), ((9, 9, 9, 9), 715)])
@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_outcome_table_matches_dfs(k, convention, caps, count):
    rules = RuleSet(Family.DIET_CHOMP, k=k)
    table = table_of(rules, convention, caps)
    memo = MemoTable()

    def dfs(board):
        return outcome(rules, convention, canonicalize(board, rules.family), memo)

    boards = raw_boards(caps)
    assert len(boards) == len(table) == count
    mismatches = [b for b, cell in zip(boards, table) if cell != dfs(b)]
    assert mismatches == []


TABLE_RULES = [
    RuleSet(Family.NIM),
    RuleSet(Family.MONOTONIC_NIM),
    *(
        RuleSet(family, k=k)
        for family in (Family.SLOW_NIM, Family.MONOTONIC_SLOW_NIM, Family.DIET_CHOMP)
        for k in (1, 2, 3, 5)
    ),
]


@pytest.mark.parametrize("convention", [*Convention, None])  # None: Grundy values
@pytest.mark.parametrize("rules", TABLE_RULES, ids=RuleSet.describe)
def test_lattice_tables_match_dfs_for_every_acyclic_family(rules, convention):
    caps = (9, 9, 9, 9)
    table = table_of(rules, convention, caps)
    memo = MemoTable()

    def dfs(board):
        p = canonicalize(board, rules.family)
        if convention is None:
            return grundy(rules, p, memo)
        return outcome(rules, convention, p, memo)

    boards = raw_boards(caps)
    assert len(boards) == len(table) == 715
    mismatches = [b for b, cell in zip(boards, table) if cell != dfs(b)]
    assert mismatches == []


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(TABLE_RULES),
    st.sampled_from(list(Convention)),
    st.lists(st.integers(min_value=0, max_value=8), max_size=4),
)
def test_the_dfs_answers_in_the_tables_vocabulary(rules, convention, entries):
    # the oracle and the tables give the very same values: a P-boolean
    # (not merely a truthy value) and a Grundy int
    p = canonicalize(sorted(entries), rules.family)
    is_p = outcome(rules, convention, p)
    assert type(is_p) is bool
    assert is_p is tables.board_values(rules, convention, [p])[0]
    assert grundy(rules, p) == tables.board_values(rules, None, [p])[0]


TRIPLES =list(combinations_with_replacement(range(7), 3))


def record_tables(monkeypatch):
    """Patch ``tables.reader`` to append the whole table of each reader it
    builds to the returned list."""
    built = []
    monkeypatch.setattr(tables, "reader", recording_reader(built))
    return built


@pytest.mark.parametrize(
    "rules, points, kinds",
    [
        # leading zeros canonicalize to 0- to 3-column boards, all read from
        # one table
        (DC2, TRIPLES, [bytearray]),
        (DC2, [(0, 0, 5), (0, 0, 0), (0, 1, 2)], [bytearray]),
        (DC2, [], []),
        (RuleSet(Family.MONOTONIC_NIM), TRIPLES, [bytearray]),
    ],
)
@pytest.mark.parametrize("convention", list(Convention))
def test_lattice_outcomes_match_the_dfs(monkeypatch, rules, points, kinds, convention):
    built = record_tables(monkeypatch)
    memo = MemoTable()
    canonical = [canonicalize(p, rules.family) for p in points]
    expected = [outcome(rules, convention, p, memo) for p in canonical]
    assert lattice_values(rules, convention, points) == expected
    assert list(map(type, built)) == kinds
    if built:
        reached = memo.outcomes[(rules, convention)]
        assert_cells_hold_the_dfs(built[0], canonical, reached, convention)


SLOW1 = RuleSet(Family.SLOW_NIM, k=1)


@pytest.mark.parametrize(
    "rules, points, kind",
    [
        # a mex is at most the entry sum: 255 still fits a byte, 256 takes
        # a wider cell
        (RuleSet(Family.NIM), [(255,)], bytearray),
        (RuleSet(Family.NIM), [(256,)], array),
        (SLOW1, [(0, 127, 128), (5, 6)], bytearray),
        (SLOW1, [(0, 128, 128), (5, 6)], array),
        (RuleSet(Family.NIM), TRIPLES, bytearray),
    ],
)
def test_lattice_grundy_matches_the_dfs(monkeypatch, rules, points, kind):
    built = record_tables(monkeypatch)
    memo = MemoTable()
    canonical = [canonicalize(p, rules.family) for p in points]
    expected = [grundy(rules, p, memo) for p in canonical]
    assert lattice_values(rules, None, points) == expected
    assert list(map(type, built)) == [kind]
    assert_cells_hold_the_dfs(built[0], canonical, memo.grundy_values[rules], None)


def test_grundy_tables_widen_past_a_byte():
    nim = RuleSet(Family.NIM)
    assert isinstance(table_of(nim, None, (255,)), bytearray)
    wide = table_of(nim, None, (256,))
    assert wide.typecode == "I" and list(wide) == list(range(257))
    # outcome tables stay bytes whatever the caps
    assert isinstance(table_of(nim, Convention.MISERE, (256,)), bytearray)


def test_the_tables_import_neither_games_nor_the_dfs():
    # the tables' drops are computed from the rules, never from games'
    # generators, so the DFS, which expands boards through games, stays an
    # independent oracle for them; lazy imports inside functions count too
    tree = ast.parse(Path(tables.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            names += [alias.name for alias in node.names]
            imported.update(part for name in names for part in name.split("."))
    assert "core" in imported  # the walk sees the package's own imports
    assert {"games", "solver"} & imported == set()


def test_a_table_holds_only_its_sorted_boards():
    # the box of (10,)*8 holds 11**8 > 2**24 boards, the table its 43,758
    # sorted ones, each at its rank
    table = table_of(RuleSet(Family.NIM), Convention.MISERE, (10,) * 8)
    assert isinstance(table, bytearray)
    assert len(table) == comb(18, 8) == 43_758
    boards = raw_boards((10,) * 8)
    assert list(table) == [nim_p_misere(b[b.count(0):]) for b in boards]


FIVE_FAMILIES = [
    RuleSet(Family.NIM),
    RuleSet(Family.SLOW_NIM, k=2),
    RuleSet(Family.MONOTONIC_NIM),
    RuleSet(Family.MONOTONIC_SLOW_NIM, k=2),
    DC2,
]


def dfs_answers(rules, convention, boards):
    """``cli.solve_position``'s answers, from a fresh-memo DFS per board."""
    if convention is Convention.NORMAL:
        values = [grundy(rules, p) for p in boards]
        return [{"outcome": "P" if g == 0 else "N", "grundy": g} for g in values]
    values = [outcome(rules, convention, p) for p in boards]
    return [{"outcome": "P" if v else "N", "grundy": None} for v in values]


@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("rules", FIVE_FAMILIES, ids=RuleSet.describe)
def test_solve_position_matches_a_fresh_memo_dfs(monkeypatch, rules, convention):
    built = record_tables(monkeypatch)
    # widths 0..3 interleaved; the caps (6, 6, 300) sum past 255, so in
    # normal play the table takes wide cells
    boards = sorted(positions(3, 6), key=sum) + [(300,)]
    assert cli.solve_position(rules, convention, boards) == dfs_answers(
        rules, convention, boards
    )
    wide = array if convention is Convention.NORMAL else bytearray
    assert list(map(type, built)) == [wide]
    # normal play reads a Grundy table
    read_as = None if convention is Convention.NORMAL else convention
    memo = MemoTable()
    reached = solve_into(rules, read_as, (6, 6, 6), memo)
    solve_into(rules, read_as, (300,), memo)
    assert_cells_hold_the_dfs(built[0], boards, reached, read_as)


# no board dominates another, and the corner (3, 4, 4, 4) is none of them
ANTICHAIN = [(1, 4, 4, 4), (2, 3, 4, 4), (3, 3, 3, 4)]

# a table's last column reads the moves on it from a running window of
# width k: k = 1 slides it at every cell, and k = 5 covers whole rows of
# ANTICHAIN and (5, 5, 5) but slides along (300,) and (9,)
SLOW_WINDOWS = [
    RuleSet(family, k=k)
    for family in (Family.SLOW_NIM, Family.MONOTONIC_SLOW_NIM)
    for k in (1, 5)
]


# (4,) and (9,) fill a one-column table; in the seven-column board a heap
# lowered to 0 re-sorts past six columns, so the Nim moves that each
# column carries from the one before go through every column.  (200,) and
# (5, 300) have long rows, whose Grundy cells in Nim and Monotonic Nim
# read the whole row so far; (5, 300) sums past 255, so they take 4 bytes
@pytest.mark.parametrize(
    "boards",
    [[(300,), (5, 5, 5)], ANTICHAIN, [(4,), (9,)], [(1, 2, 2, 3, 4, 5, 6)],
     [(200,)], [(5, 300)]],
)
@pytest.mark.parametrize("convention", [*Convention, None])  # None: Grundy values
@pytest.mark.parametrize("rules", FIVE_FAMILIES + SLOW_WINDOWS, ids=RuleSet.describe)
def test_one_pruned_table_fills_what_the_dfs_reaches(
    monkeypatch, rules, convention, boards
):
    built = record_tables(monkeypatch)
    memo = MemoTable()
    if convention is None:
        expected = [grundy(rules, p, memo) for p in boards]
        reached = memo.grundy_values[rules]
    else:
        expected = [outcome(rules, convention, p, memo) for p in boards]
        reached = memo.outcomes[(rules, convention)]
    assert tables.board_values(rules, convention, boards) == expected
    assert len(built) == 1
    assert_cells_hold_the_dfs(built[0], boards, reached, convention)


# 11 four-column boards of one sum (none dominates another), and narrower
# boards that some of them dominate once zero-padded and some they do not
MIXED_ANTICHAIN = [
    p for p in combinations_with_replacement(range(1, 7), 4) if sum(p) == 13
] + [(9,), (2, 8), (4, 4, 5), (1, 1, 1)]


@pytest.mark.parametrize("convention", [*Convention, None])  # None: Grundy values
@pytest.mark.parametrize("rules", FIVE_FAMILIES + SLOW_WINDOWS, ids=RuleSet.describe)
def test_many_tops_fill_what_the_dfs_reaches(monkeypatch, rules, convention):
    # each column narrows the tops above a prefix as its value grows; the
    # walk of the cells shows that no board below a top is missed and no
    # other board holds a value
    assert len(MIXED_ANTICHAIN) == 15
    memo = MemoTable()
    if convention is None:
        expected = [grundy(rules, p, memo) for p in MIXED_ANTICHAIN]
        reached = memo.grundy_values[rules]
    else:
        expected = [outcome(rules, convention, p, memo) for p in MIXED_ANTICHAIN]
        reached = memo.outcomes[(rules, convention)]
    built = record_tables(monkeypatch)
    assert tables.board_values(rules, convention, MIXED_ANTICHAIN) == expected
    assert_cells_hold_the_dfs(built[0], MIXED_ANTICHAIN, reached, convention)


# every acyclic rule set: the slow games and Diet Chomp with k in 1..5
RANDOM_RULES = st.one_of(
    st.sampled_from([RuleSet(Family.NIM), RuleSet(Family.MONOTONIC_NIM)]),
    st.builds(
        lambda family, k: RuleSet(family, k=k),
        st.sampled_from(
            [Family.SLOW_NIM, Family.MONOTONIC_SLOW_NIM, Family.DIET_CHOMP]
        ),
        st.integers(1, 5),
    ),
)
# one to six canonical boards of widths 0..4 and entries 1..6: with entries
# this small, some dominate others and some form antichains
RANDOM_BOARDS = st.lists(
    st.lists(st.integers(1, 6), max_size=4).map(lambda e: tuple(sorted(e))),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(RANDOM_RULES, st.sampled_from([*Convention, None]), RANDOM_BOARDS)
def test_board_values_match_the_dfs_on_random_boards(rules, convention, boards):
    memo = MemoTable()
    if convention is None:  # Grundy values
        expected = [grundy(rules, p, memo) for p in boards]
        reached = memo.grundy_values[rules]
    else:
        expected = [outcome(rules, convention, p, memo) for p in boards]
        reached = memo.outcomes[(rules, convention)]
    built = []
    with patch.object(tables, "reader", recording_reader(built)):
        assert tables.board_values(rules, convention, boards) == expected
    assert_cells_hold_the_dfs(built[0], boards, reached, convention)


# one to six raw boards of widths 0..4, entries 0..6 sorted, so some carry
# leading zeros, and one to four (rules, convention) pairs to read them for
RAW_BOARDS = st.lists(
    st.lists(st.integers(0, 6), max_size=4).map(lambda e: tuple(sorted(e))),
    min_size=1,
    max_size=6,
)
READ_PAIRS = st.lists(
    st.tuples(RANDOM_RULES, st.sampled_from([*Convention, None])),
    min_size=1,
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(RAW_BOARDS, READ_PAIRS)
def test_board_values_of_raw_boards_match_the_dfs_for_every_pair(boards, pairs):
    # raw boards land in their canonical boards' cells: each pair's values
    # equal the DFS on the canonical boards
    for rules, convention in pairs:
        memo = MemoTable()
        canon = [canonicalize(b, rules.family) for b in boards]
        if convention is None:  # Grundy values
            expected = [grundy(rules, p, memo) for p in canon]
        else:
            expected = [outcome(rules, convention, p, memo) for p in canon]
        assert tables.board_values(rules, convention, boards) == expected


def test_board_values_of_no_boards_builds_no_table(monkeypatch):
    built = record_tables(monkeypatch)
    for rules, convention in [(DC2, Convention.MISERE), (RuleSet(Family.NIM), None)]:
        assert tables.board_values(rules, convention, []) == []
    assert built == []


LOOPY_RULES = [
    RuleSet(Family.EXTENDED_NIM, add_limit=1), RuleSet(Family.EXTENDED_SLOW_NIM, k=2)
]


@pytest.mark.parametrize("boards", [[], [(1, 2), (3,)]])
@pytest.mark.parametrize("rules", LOOPY_RULES, ids=RuleSet.describe)
def test_board_values_rejects_loopy_families_before_any_table(
    monkeypatch, rules, boards
):
    built = record_tables(monkeypatch)
    for convention in [*Convention, None]:
        with pytest.raises(LoopyFamily):
            tables.board_values(rules, convention, boards)
    assert built == []


@pytest.mark.parametrize("rules", LOOPY_RULES, ids=RuleSet.describe)
def test_lattice_table_rejects_loopy_families(rules):
    # a loopy rule set has no table: its add-moves are not index drops, so
    # a fill would give the values of the game without them
    message = f"^{rules.family.value} has add-moves; use the verifiers$"
    for convention in [*Convention, None]:
        for tops in [((3, 5),), ((1, 2), (0, 4)), ((),)]:
            with pytest.raises(LoopyFamily, match=message):
                tables.reader(rules, convention, *tops)


def pairwise_tops(boards):
    """The tops that ``board_values`` hands its table, by definition and
    pair by pair: the box corner alone when it is a board, else the
    zero-padded boards that no other board dominates."""
    m = max(map(len, boards))
    padded = {(0,) * (m - len(b)) + b for b in boards}
    caps = tuple(map(max, zip(*padded)))
    if caps in padded:
        return [caps]
    return sorted(
        b for b in padded if not any(b != t and all(map(le, b, t)) for t in padded)
    )


def random_batch(rng):
    return [
        tuple(sorted(rng.randrange(9) for _ in range(rng.randrange(1, 5))))
        for _ in range(rng.randrange(1, 40))
    ]


# 200 random batches of widths 1..4 with leading zeros; the box corner
# given twice over boards of one sum below it; an antichain of one sum with
# duplicates; an antichain of one sum; and narrower boards padded under
# wider ones
TOP_BATCHES = [random_batch(random.Random(seed)) for seed in range(200)] + [
    [(2, 3, 4), (1, 2, 4), (2, 2, 3), (2, 3, 4), (1, 3, 3), (3, 4)],
    [(1, 5), (2, 4), (6,), (3, 3), (2, 4), (0, 6), (1, 5)],
    [p for p in combinations_with_replacement(range(1, 34), 4) if sum(p) == 36],
    MIXED_ANTICHAIN,
]


def test_board_values_hands_its_table_the_undominated_boards(monkeypatch):
    handed = []
    monkeypatch.setattr(
        tables, "reader",
        lambda rules, convention, *tops: handed.append(tops) or (lambda b: [0]),
    )
    assert len(TOP_BATCHES[-2]) == 351
    for boards in TOP_BATCHES:
        tables.board_values(DC2, None, boards)
        assert sorted(handed.pop()) == pairwise_tops(boards), boards


def lattice_sweeps():
    """The lattice sweeps that read tables, as comparable values."""
    return [
        analysis.figure_grids(DC2, Convention.MISERE, [a1], 9, 7, tri)[0]
        for a1 in (0, 5)
        for tri in (False, True)
    ] + [
        analysis.translation_period_check(
            DC2, Convention.MISERE, 4, 10, [period]
        )[0].to_dict()
        for period in (12, 3)
    ] + [
        analysis.bulk_formula_agreement(
            DC2, Convention.MISERE, diet2_misere_bulk_conjecture, 4, 10, margins
        ).to_dict()
        for margins in (analysis.PINNED_BULK_MARGINS, analysis.Margins())
    ]


def forbid_the_dfs(monkeypatch):
    def forbidden(*args):
        raise AssertionError(f"DFS called with {args}")

    monkeypatch.setattr(solver, "successors", forbidden)
    monkeypatch.setattr(solver, "_solve", forbidden)


MIXED_BATCH = "1,2,3\n4,4\n7\n2,5,6\n3\n1,1,1,1\n0\n"


def test_sweep_tables_hold_the_dfs_value_in_every_cell(monkeypatch, capsys, tmp_path):
    # each table that the lattice sweeps and a batch build, walked in rank
    # order against a DFS from the tops it was handed
    mixed = tmp_path / "mixed.txt"
    mixed.write_text(MIXED_BATCH)
    handed, built = [], []
    record = recording_reader(built)
    monkeypatch.setattr(
        tables, "reader", lambda *args: handed.append(args) or record(*args)
    )
    sweeps = lattice_sweeps()
    assert cli.main(["batch", "--game", "diet-chomp", "--convention", "misere",
                     "--input", str(mixed)]) == 0
    capsys.readouterr()
    assert len(handed) == len(built) == len(sweeps) + 1
    for (rules, convention, *tops), table in zip(handed, built):
        memo = MemoTable()
        for top in tops:
            reached = solve_into(rules, convention, canonicalize(top, rules.family), memo)
        assert_cells_hold_the_dfs(table, tops, reached, convention)


def test_lattice_sweeps_read_one_table_and_never_expand(monkeypatch, tmp_path):
    forbid_the_dfs(monkeypatch)
    builds = []
    real = tables.reader

    def counting(rules, convention, *tops):
        builds.append(tops)
        return real(rules, convention, *tops)

    monkeypatch.setattr(tables, "reader", counting)

    def tops():
        found = list(builds)
        builds.clear()
        return found

    # one table per sweep, below its box corner alone; a1 = 0 puts leading
    # zeros in the figure and translation points
    sweeps = lattice_sweeps()
    assert sweeps[4]["ok"] and not sweeps[5]["ok"] and sweeps[6]["ok"]
    assert list(map(len, tops())) == [1] * len(sweeps)
    for name in ("lemma8", "lemma9"):
        report = theorems.verify_theorem(name, Namespace(max_piles=4, max_entry=12))
        assert report.ok and report.checked_count >= 91
        assert list(map(len, tops())) == [1]
    commands = [
        ("figure", "--a1", "0..3", "--width", "8", "--height", "8",
         "--out", str(tmp_path)),
        ("figure", "--a1", "0..3", "--width", "8", "--height", "5",
         "--triangular", "--out", str(tmp_path)),
        ("period", "--translation", "12", "--max-a1", "3", "--max-extent", "8"),
        ("period", "--base", "2,3,3", "--direction", "0,1,1"),
        ("verify", "--theorem", "bulk-conjecture", "--max-a1", "5",
         "--max-extent", "10"),
        ("outcome", "--game", "nim", "--position", "3,5,6"),
        ("outcome", "--game", "diet-chomp", "--convention", "misere",
         "--position", "2,4,4,9"),
    ]
    for args in commands:
        assert cli.main(list(args)) == 0
        assert list(map(len, tops())) == [1], args
    # a batch: one table below the lines that no other line dominates,
    # zero-padded to 4 columns
    mixed = tmp_path / "mixed.txt"
    mixed.write_text(MIXED_BATCH)
    for convention in Convention:
        assert cli.main(["batch", "--game", "diet-chomp", "--convention",
                         convention.value, "--input", str(mixed)]) == 0
        [found] = tops()
        assert sorted(found) == [(0, 0, 0, 7), (0, 2, 5, 6), (1, 1, 1, 1)]
    # the Nim-family sweeps: one table per case
    for name, cases in (("thm1", 1), ("thm3", 1), ("thm4", 3), ("thm5", 3),
                        ("thm7", 8)):
        assert cli.main(["verify", "--theorem", name, "--max-entry", "7"]) == 0
        assert list(map(len, tops())) == [1] * cases, name


def test_each_table_builds_its_ranks_once(monkeypatch):
    # the caps' G_c serve both the table's size check and every read, so a
    # reader builds them once: through board_values, through analysis's
    # window (each lattice sweep), and in a value sweep's one case
    calls = Counter()
    for name in ("reader", "_ranks"):
        real = getattr(tables, name)
        monkeypatch.setattr(
            tables, name,
            lambda *args, name=name, real=real: calls.update([name]) or real(*args),
        )
    nim, opts = RuleSet(Family.NIM), Namespace(max_piles=3, max_entry=6)
    for route, count in [
        (lambda: tables.board_values(DC2, Convention.MISERE, [(1, 2, 3), (4,)]), 1),
        (lambda: tables.board_values(nim, None, [(3, 5), (7,)]), 1),
        (lambda: theorems.verify_theorem("thm1", opts), 1),
        (lattice_sweeps, 8),  # 4 rasters, 2 translation and 2 bulk checks
    ]:
        calls.clear()
        route()
        assert calls == {"reader": count, "_ranks": count}


# ---------------------------------------------------------------------------
# the local verifiers against their eager references


def ref_verify_pset(rules, convention, claimed_p, domain):
    """``verify_pset`` as it read every board's sorted, deduplicated
    successors: the reference that the lazy verifier must match."""
    report = tables.VerificationReport()
    terminal_is_p = convention is Convention.NORMAL
    labels = {p: claimed_p(p) for p in domain}
    for p, is_p in labels.items():
        report.checked_count += 1
        succ = successors(rules, p)
        if not succ:
            if is_p != terminal_is_p:
                report.add(p, "terminal label disagrees with convention")
            continue
        if is_p:
            for q in succ:
                if q in labels and labels[q]:
                    report.add(p, f"move to claimed P-position {q}")
                    break
        else:
            if any(q in labels and labels[q] for q in succ):
                continue
            if any(q not in labels for q in succ):
                report.skipped_boundary_count += 1
            else:
                report.add(p, "claimed N-position with no P-successor")
    return report


def ref_verify_grundy_consistency(ext_rules, labeling, domain):
    """``verify_grundy_consistency`` over sorted, deduplicated successors."""
    report = tables.VerificationReport()
    labels = {p: labeling(p) for p in domain}
    for p, label in labels.items():
        succ = successors(ext_rules, p)
        if any(q not in labels for q in succ):
            report.skipped_boundary_count += 1
            continue
        report.checked_count += 1
        expected = mex(labels[q] for q in succ)
        if expected != label:
            report.add(p, f"mex of successor labels {expected} != label {label}")
    return report


# acyclic rule sets, and the extended ones, whose adds leave a small domain
# at its top entry, so their boards there are skipped or counted as such
VERIFIER_RULES = st.one_of(
    RANDOM_RULES,
    st.builds(lambda a: RuleSet(Family.EXTENDED_NIM, add_limit=a), st.integers(1, 3)),
    st.builds(lambda k: RuleSet(Family.EXTENDED_SLOW_NIM, k=k), st.integers(1, 4)),
)
SMALL_DOMAINS = st.builds(positions, st.integers(0, 3), st.integers(0, 6))


def base_rules(rules):
    """The acyclic game under ``rules``: the extended games without adds."""
    if rules.family is Family.EXTENDED_NIM:
        return RuleSet(Family.NIM)
    if rules.family is Family.EXTENDED_SLOW_NIM:
        return RuleSet(Family.SLOW_NIM, k=rules.k)
    return rules


@settings(max_examples=300, deadline=None)
@given(
    VERIFIER_RULES,
    st.sampled_from(list(Convention)),
    SMALL_DOMAINS,
    st.sampled_from([0.0, 0.1, 0.5]),
    st.randoms(use_true_random=False),
)
def test_verify_pset_matches_the_eager_reference(
    rules, convention, domain, flip_rate, rng
):
    # the base game's true P-set (Theorem 6 keeps it for the extended
    # games), flipped at random boards
    memo, base = MemoTable(), base_rules(rules)
    flipped = {p for p in domain if rng.random() < flip_rate}

    def claimed_p(p):
        return outcome(base, convention, p, memo) != (p in flipped)

    expected = ref_verify_pset(rules, convention, claimed_p, domain).to_dict()
    assert verify_pset(rules, convention, claimed_p, domain).to_dict() == expected


@settings(max_examples=300, deadline=None)
@given(
    VERIFIER_RULES,
    SMALL_DOMAINS,
    st.sampled_from([0.0, 0.1, 0.5]),
    st.randoms(use_true_random=False),
)
def test_verify_grundy_consistency_matches_the_eager_reference(
    rules, domain, flip_rate, rng
):
    # the base game's Grundy values, raised by 1 or 2 at random boards
    memo, base = MemoTable(), base_rules(rules)
    raised = {
        p: rng.choice((1, 2))
        for p in domain
        if rng.random() < flip_rate
    }

    def labeling(p):
        return grundy(base, p, memo) + raised.get(p, 0)

    expected = ref_verify_grundy_consistency(rules, labeling, domain).to_dict()
    assert verify_grundy_consistency(rules, labeling, domain).to_dict() == expected
