"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with pytest -s to see them) and enforcing the stated domain
bounds and time budgets."""

import time
from argparse import Namespace

from gamesolve import (
    Convention,
    Domain,
    Family,
    MemoTable,
    Outcome,
    RuleSet,
    verify_pset,
)
from gamesolve import cli
from gamesolve.analysis import (
    Margins,
    NE_DIAGONAL_DIRECTION,
    NE_DIAGONAL_PERIODS,
    PINNED_BULK_MARGINS,
    ROW_DIRECTION,
    ROW_PERIODS,
    bulk_formula_agreement,
    directional_period,
    figure_grid,
    lattice_outcome_fn,
    render_pbm,
    three_column_domain,
    translation_period_check,
)
from gamesolve.closedforms import (
    diet2_misere_p_narrow,
    diet2_normal_p,
    nim_grundy_formula,
    nim_p_misere,
    slow_nim_p_misere,
)
from gamesolve.games import diet_chomp2_moves_explicit, moves
from gamesolve.solver import enumerate_positions

DC2 = RuleSet(Family.DIET_CHOMP, k=2)


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
    report = cli.verify_theorem("thm1", opts(max_piles=4, max_entry=15))
    check(1, "Nim Grundy = XOR, <=4 heaps <=15", report.ok, time.perf_counter() - t0, 5)


def test_criterion_2_misere_nim():
    t0 = time.perf_counter()
    report = cli.verify_theorem("thm3", opts(max_piles=4, max_entry=15))
    check(2, "misere Nim outcomes match predicate", report.ok, time.perf_counter() - t0, 5)


def test_criterion_3_slow_nim_closed_forms():
    t0 = time.perf_counter()
    r4 = cli.verify_theorem("thm4", opts(max_piles=3, max_entry=15))
    r5 = cli.verify_theorem("thm5", opts(max_piles=3, max_entry=15))
    check(
        3, "k-Slow Nim Grundy/misere closed forms, k in 1..3",
        r4.ok and r5.ok, time.perf_counter() - t0, 10,
    )


def test_criterion_4_extended_games():
    t0 = time.perf_counter()
    rg = cli.verify_theorem("thm6-grundy", opts(max_piles=2, max_entry=12))
    rp = cli.verify_theorem("thm6-pset", opts(max_piles=2, max_entry=12))
    check(
        4, "extended games keep labels/P-sets (boundary-aware)",
        rg.ok and rp.ok, time.perf_counter() - t0, 10,
    )


def test_criterion_5_monotonic_reduction():
    t0 = time.perf_counter()
    report = cli.verify_theorem("thm7", opts(max_piles=4, max_entry=12))
    check(
        5, "monotone games match difference reduction, both conventions",
        report.ok, time.perf_counter() - t0, 30,
    )


def test_criterion_6_diet_chomp_normal():
    t0 = time.perf_counter()
    report = cli.verify_theorem("lemma8", opts(max_piles=4, max_entry=12))
    check(
        6, "2-Diet Chomp normal P iff total divisible by 3; stairs fact",
        report.ok, time.perf_counter() - t0, 10,
    )


def test_criterion_7_diet_chomp_misere_narrow():
    t0 = time.perf_counter()
    report = cli.verify_theorem("lemma9", opts(max_entry=30))
    check(
        7, "misere narrow boards match difference-mod-3 rule",
        report.ok, time.perf_counter() - t0, 5,
    )


def test_criterion_8_translation_period_12_minimal():
    t0 = time.perf_counter()
    domain = list(three_column_domain(12, 20))
    memo = MemoTable()
    ok = translation_period_check(DC2, Convention.MISERE, domain, 12, memo).ok
    smaller_all_fail = all(
        not translation_period_check(DC2, Convention.MISERE, domain, per, memo).ok
        for per in range(1, 12)
    )
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
        grid = figure_grid(DC2, Convention.MISERE, a1, size, size, memo)
        again = figure_grid(DC2, Convention.MISERE, a1, size, size, MemoTable())
        shifted = figure_grid(DC2, Convention.MISERE, a1 + 12, size, size, memo)
        renders_ok &= render_pbm(grid) == render_pbm(again)
        renders_ok &= grid.cells == shifted.cells
    fn = lattice_outcome_fn(DC2, Convention.MISERE, memo)
    periods_ok = True
    for a1 in range(12):
        for dx in range(13):
            base = (a1, a1 + dx, a1 + dx)
            row = directional_period(fn, base, ROW_DIRECTION, 60)
            diag = directional_period(fn, base, NE_DIAGONAL_DIRECTION, 60)
            periods_ok &= row.period in ROW_PERIODS
            periods_ok &= diag.period in NE_DIAGONAL_PERIODS
    check(
        9, "12 rasters deterministic, +12 translate equal, periods {1,3}/{1,2}",
        renders_ok and periods_ok, time.perf_counter() - t0, 60,
    )


def test_criterion_10_bulk_formula_margins():
    t0 = time.perf_counter()
    domain = list(three_column_domain(11, 20))
    pinned = bulk_formula_agreement(
        DC2, Convention.MISERE, domain, PINNED_BULK_MARGINS
    )
    bare = bulk_formula_agreement(DC2, Convention.MISERE, domain, Margins())
    check(
        10, "bulk formula exact inside pinned margins, not without",
        pinned.ratio == 1.0 and pinned.compared > 0 and bare.ratio < 1.0,
        time.perf_counter() - t0, 30,
    )


def test_criterion_11_generator_cross_check():
    t0 = time.perf_counter()
    ok = all(
        set(moves(DC2, p)) == set(diet_chomp2_moves_explicit(p))
        for p in enumerate_positions(Domain(5, 10))
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
         lambda p: nim_grundy_formula(p) == 0, (1, 2, 3), Domain(3, 7)),
        (RuleSet(Family.NIM), Convention.MISERE,
         nim_p_misere, (1, 1, 1), Domain(3, 7)),
        (RuleSet(Family.SLOW_NIM, k=2), Convention.MISERE,
         lambda p: slow_nim_p_misere(2, p), (1, 3), Domain(3, 8)),
        (DC2, Convention.NORMAL, diet2_normal_p, (1, 2, 3), Domain(4, 6)),
        (DC2, Convention.MISERE, diet2_misere_p_narrow, (4,), Domain(2, 12)),
    ]
    ok = True
    for rules, convention, pred, at, domain in cases:
        assert pred(at) is True  # flip a genuine P-position label
        report = verify_pset(rules, convention, flip(pred, at), domain)
        ok &= len(report.counterexamples) >= 1
        unflipped = verify_pset(rules, convention, pred, domain)
        ok &= unflipped.ok
    check(
        12, "flipping one predicate label is always detected",
        ok, time.perf_counter() - t0, 30,
    )
