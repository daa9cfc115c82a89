"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with pytest -s to see them) and enforcing the stated domain
bounds and time budgets."""

import time
from argparse import Namespace

from gamesolve import Convention, Family, RuleSet, canonicalize, theorems
from gamesolve.analysis import (
    Margins,
    PINNED_BULK_MARGINS,
    bulk_formula_agreement,
    directional_period,
    figure_grids,
    render_pbm,
    translation_period_check,
)
from gamesolve.closedforms import (
    diet2_misere_bulk_conjecture,
    diet2_misere_p_narrow,
    diet2_normal_p,
    nim_grundy_formula,
    nim_p_misere,
    slow_nim_p_misere,
)
from gamesolve.games import diet_chomp2_moves_explicit
from gamesolve.solver import MemoTable, outcome, successors, verify_pset
from helpers import positions

DC2 = RuleSet(Family.DIET_CHOMP, k=2)

# Lattice directions whose outcome sequences reproduce the observed
# period sets: {1, 3} along ROW_DIRECTION, {1, 2} along NE_DIAGONAL_DIRECTION.
ROW_DIRECTION = (0, 0, 1)
NE_DIAGONAL_DIRECTION = (0, 1, 1)
ROW_PERIODS = frozenset({1, 3})
NE_DIAGONAL_PERIODS = frozenset({1, 2})


def opts(**kwargs):
    defaults = dict(
        max_piles=None, max_entry=None, k=None, add_limit=None,
        convention=None, max_a1=None, max_extent=None,
    )
    defaults.update(kwargs)
    return Namespace(**defaults)


def check(n, desc, ok, elapsed, limit):
    in_time = elapsed < limit
    verdict = "PASS" if (ok and in_time) else "FAIL"
    print(f"{verdict} criterion {n}: {desc} ({elapsed:.1f}s, limit {limit}s)")
    assert ok, f"criterion {n} failed: {desc}"
    assert in_time, f"criterion {n} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_nim_grundy_closed_form():
    t0 = time.perf_counter()
    report = theorems.verify_theorem("thm1", opts(max_piles=4, max_entry=15))
    check(1, "Nim Grundy = XOR, <=4 heaps <=15", report.ok, time.perf_counter() - t0, 5)


def test_criterion_2_misere_nim():
    t0 = time.perf_counter()
    report = theorems.verify_theorem("thm3", opts(max_piles=4, max_entry=15))
    check(2, "misere Nim outcomes match predicate", report.ok, time.perf_counter() - t0, 5)


def test_criterion_3_slow_nim_closed_forms():
    t0 = time.perf_counter()
    r4 = theorems.verify_theorem("thm4", opts(max_piles=3, max_entry=15))
    r5 = theorems.verify_theorem("thm5", opts(max_piles=3, max_entry=15))
    check(
        3, "k-Slow Nim Grundy/misere closed forms, k in 1..3",
        r4.ok and r5.ok, time.perf_counter() - t0, 10,
    )


def test_criterion_4_extended_games():
    t0 = time.perf_counter()
    rg = theorems.verify_theorem("thm6-grundy", opts(max_piles=2, max_entry=12))
    rp = theorems.verify_theorem("thm6-pset", opts(max_piles=2, max_entry=12))
    check(
        4, "extended games keep labels/P-sets (boundary-aware)",
        rg.ok and rp.ok, time.perf_counter() - t0, 10,
    )


def test_criterion_5_monotonic_reduction():
    t0 = time.perf_counter()
    report = theorems.verify_theorem("thm7", opts(max_piles=4, max_entry=12))
    check(
        5, "monotone games match difference reduction, both conventions",
        report.ok, time.perf_counter() - t0, 30,
    )


def test_criterion_6_diet_chomp_normal():
    t0 = time.perf_counter()
    report = theorems.verify_theorem("lemma8", opts(max_piles=4, max_entry=12))
    check(
        6, "2-Diet Chomp normal P iff total divisible by 3; stairs fact",
        report.ok, time.perf_counter() - t0, 10,
    )


def test_criterion_7_diet_chomp_misere_narrow():
    t0 = time.perf_counter()
    report = theorems.verify_theorem("lemma9", opts(max_entry=30))
    check(
        7, "misere narrow boards match difference-mod-3 rule",
        report.ok, time.perf_counter() - t0, 5,
    )


def test_criterion_8_translation_period_12_minimal():
    t0 = time.perf_counter()
    *smaller, twelve = translation_period_check(
        DC2, Convention.MISERE, 12, 20, range(1, 13)
    )
    ok = twelve.ok
    smaller_all_fail = all(not report.ok for report in smaller)
    check(
        8, "translation period 12 holds and 1..11 fail",
        ok and smaller_all_fail, time.perf_counter() - t0, 30,
    )


def test_criterion_9_figure_rasters_and_directional_periods():
    t0 = time.perf_counter()
    memo = MemoTable()
    size = 16
    renders_ok = True
    for a1 in range(12):
        grid = figure_grids(DC2, Convention.MISERE, [a1], size, size, False)[0]
        again = figure_grids(DC2, Convention.MISERE, [a1], size, size, False)[0]
        shifted = figure_grids(DC2, Convention.MISERE, [a1 + 12], size, size, False)[0]
        renders_ok &= render_pbm(grid) == render_pbm(again)
        renders_ok &= grid == shifted

    def fn(points):  # a per-point DFS over one memo: no table per scan
        return [
            outcome(DC2, Convention.MISERE, canonicalize(p, DC2.family), memo)
            for p in points
        ]

    periods_ok = True
    for a1 in range(12):
        for dx in range(13):
            base = (a1, a1 + dx, a1 + dx)
            row = directional_period(fn, base, ROW_DIRECTION, 60, 16, 24)
            diag = directional_period(fn, base, NE_DIAGONAL_DIRECTION, 60, 16, 24)
            periods_ok &= row.period in ROW_PERIODS
            periods_ok &= diag.period in NE_DIAGONAL_PERIODS
    check(
        9, "12 rasters deterministic, +12 translate equal, periods {1,3}/{1,2}",
        renders_ok and periods_ok, time.perf_counter() - t0, 60,
    )


def test_criterion_10_bulk_formula_margins():
    t0 = time.perf_counter()
    pinned = bulk_formula_agreement(
        DC2, Convention.MISERE, diet2_misere_bulk_conjecture, 11, 20,
        PINNED_BULK_MARGINS,
    )
    bare = bulk_formula_agreement(
        DC2, Convention.MISERE, diet2_misere_bulk_conjecture, 11, 20, Margins()
    )
    check(
        10, "bulk formula exact inside pinned margins, not without",
        pinned.ok and pinned.checked_count > 0 and not bare.ok,
        time.perf_counter() - t0, 30,
    )


def test_criterion_10_bulk_formula_wide_window():
    # the README's computed observation, read from one retrograde table
    t0 = time.perf_counter()
    report = bulk_formula_agreement(
        DC2, Convention.MISERE, diet2_misere_bulk_conjecture, 40, 80,
        PINNED_BULK_MARGINS,
    )
    counts = (report.checked_count, report.skipped_boundary_count)
    check(
        10, "bulk formula exact inside pinned margins, a1 <= 40, extent <= 80",
        report.ok and counts == (116_850, 19_311), time.perf_counter() - t0, 30,
    )


def test_criterion_11_generator_cross_check():
    t0 = time.perf_counter()
    ok = all(
        successors(DC2, p) == diet_chomp2_moves_explicit(p)
        for p in positions(5, 10)
    )
    check(
        11, "quadrant generator equals explicit rules, <=5 cols <=10",
        ok, time.perf_counter() - t0, 30,
    )


def test_criterion_12_verifier_sensitivity():
    t0 = time.perf_counter()

    def flip(pred, at):
        return lambda p: (not pred(p)) if p == at else pred(p)

    cases = [
        (RuleSet(Family.NIM), Convention.NORMAL,
         lambda p: nim_grundy_formula(p) == 0, (1, 2, 3), positions(3, 7)),
        (RuleSet(Family.NIM), Convention.MISERE,
         nim_p_misere, (1, 1, 1), positions(3, 7)),
        (RuleSet(Family.SLOW_NIM, k=2), Convention.MISERE,
         lambda p: slow_nim_p_misere(2, p), (1, 3), positions(3, 8)),
        (DC2, Convention.NORMAL, diet2_normal_p, (1, 2, 3), positions(4, 6)),
        (DC2, Convention.MISERE, diet2_misere_p_narrow, (4,), positions(2, 12)),
    ]
    ok = True
    for rules, convention, pred, at, window in cases:
        assert pred(at) is True  # flip a genuine P-position label
        report = verify_pset(rules, convention, flip(pred, at), window)
        ok &= len(report.counterexamples) >= 1
        unflipped = verify_pset(rules, convention, pred, window)
        ok &= unflipped.ok
    check(
        12, "flipping one predicate label is always detected",
        ok, time.perf_counter() - t0, 30,
    )
