"""Command-line front end: solve positions, verify the known closed
forms against the brute-force engine, scan periodicity, emit figures.

Exit codes: 0 success/verified, 1 counterexamples found, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import analysis, closedforms, games, solver
from .core import (
    Convention,
    Family,
    GameError,
    Outcome,
    RuleSet,
    canonicalize,
    parse_position,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLES = 1
EXIT_USAGE = 2


def build_rules(game: str, k: int | None, add_limit: int | None) -> RuleSet:
    family = Family(game)
    kwargs = {}
    if family in (
        Family.SLOW_NIM,
        Family.EXTENDED_SLOW_NIM,
        Family.MONOTONIC_SLOW_NIM,
        Family.DIET_CHOMP,
    ):
        kwargs["k"] = k if k is not None else 2
    if family is Family.EXTENDED_NIM:
        kwargs["add_limit"] = add_limit if add_limit is not None else 1
    return RuleSet(family, **kwargs)


def solve_position(
    rules: RuleSet, convention: Convention, p, memo: solver.MemoTable | None = None
) -> dict:
    """Outcome (and Grundy value for normal play) of a canonical position.

    The loopy extended families are answered via their non-extended
    closed forms, which the verify sweeps certify; everything else runs
    through the brute-force engine, with ``memo`` shared across calls.
    A normal-play position is P iff its Grundy value is 0.
    """
    if rules.family.loopy:
        slow = rules.family is Family.EXTENDED_SLOW_NIM
        g = (
            closedforms.slow_nim_grundy_formula(rules.k, p)
            if slow
            else closedforms.nim_grundy_formula(p)
        )
        if convention is Convention.NORMAL:
            out = Outcome.P if g == 0 else Outcome.N
            return {"outcome": out.value, "grundy": g}
        is_p = (
            closedforms.slow_nim_p_misere(rules.k, p)
            if slow
            else closedforms.nim_p_misere(p)
        )
        return {"outcome": "P" if is_p else "N", "grundy": None}
    if memo is None:
        memo = solver.MemoTable()
    if convention is Convention.NORMAL:
        g = solver.grundy(rules, p, memo)
        return {"outcome": "P" if g == 0 else "N", "grundy": g}
    out = solver.outcome(rules, convention, p, memo)
    return {"outcome": out.value, "grundy": None}


# ---------------------------------------------------------------------------
# theorem verification sweeps

DEFAULT_KS = (1, 2, 3)
DEFAULT_ADD_LIMITS = (1, 2)


def _merge(into: solver.VerificationReport, sub: solver.VerificationReport, tag: str):
    into.checked_count += sub.checked_count
    into.skipped_boundary_count += sub.skipped_boundary_count
    for p, reason in sub.counterexamples:
        into.add(p, f"{tag}: {reason}")


def _compare_sweep(report, domain, tag, expected_fn, actual_fn):
    for p in solver.enumerate_positions(domain):
        report.checked_count += 1
        expected = expected_fn(p)
        actual = actual_fn(p)
        if expected != actual:
            report.add(p, f"{tag}: closed form {expected} != solver {actual}")


def verify_thm1(opts) -> solver.VerificationReport:
    """Normal-play Nim Grundy values equal the XOR of heap sizes."""
    report = solver.VerificationReport()
    domain = solver.Domain(opts.max_piles or 4, opts.max_entry or 15)
    rules = RuleSet(Family.NIM)
    memo = solver.MemoTable()
    _compare_sweep(
        report,
        domain,
        "nim grundy",
        closedforms.nim_grundy_formula,
        lambda p: solver.grundy(rules, p, memo),
    )
    return report


def verify_cor2(opts) -> solver.VerificationReport:
    """Normal-play Nim P-positions are exactly the XOR-zero positions."""
    domain = solver.Domain(opts.max_piles or 4, opts.max_entry or 15)
    return solver.verify_pset(
        RuleSet(Family.NIM),
        Convention.NORMAL,
        lambda p: closedforms.nim_grundy_formula(p) == 0,
        domain,
    )


def verify_thm3(opts) -> solver.VerificationReport:
    """Misere Nim outcomes match the XOR rule with the all-ones twist."""
    report = solver.VerificationReport()
    domain = solver.Domain(opts.max_piles or 4, opts.max_entry or 15)
    rules = RuleSet(Family.NIM)
    memo = solver.MemoTable()
    _compare_sweep(
        report,
        domain,
        "misere nim",
        closedforms.nim_p_misere,
        lambda p: solver.outcome(rules, Convention.MISERE, p, memo) is Outcome.P,
    )
    return report


def verify_thm4(opts) -> solver.VerificationReport:
    """Subtract-1..k Grundy values equal XOR of entries mod k+1."""
    report = solver.VerificationReport()
    domain = solver.Domain(opts.max_piles or 3, opts.max_entry or 15)
    for k in (opts.k,) if opts.k else DEFAULT_KS:
        rules = RuleSet(Family.SLOW_NIM, k=k)
        memo = solver.MemoTable()
        _compare_sweep(
            report,
            domain,
            f"slow-nim k={k}",
            lambda p, k=k: closedforms.slow_nim_grundy_formula(k, p),
            lambda p: solver.grundy(rules, p, memo),
        )
    return report


def verify_thm5(opts) -> solver.VerificationReport:
    """Misere subtract-1..k outcomes match the mod-(k+1) misere rule."""
    report = solver.VerificationReport()
    domain = solver.Domain(opts.max_piles or 3, opts.max_entry or 15)
    for k in (opts.k,) if opts.k else DEFAULT_KS:
        rules = RuleSet(Family.SLOW_NIM, k=k)
        memo = solver.MemoTable()
        _compare_sweep(
            report,
            domain,
            f"misere slow-nim k={k}",
            lambda p, k=k: closedforms.slow_nim_p_misere(k, p),
            lambda p: solver.outcome(rules, Convention.MISERE, p, memo)
            is Outcome.P,
        )
    return report


def _extended_rule_sets(opts):
    pairs = []
    for k in (opts.k,) if opts.k else DEFAULT_KS:
        pairs.append(
            (
                RuleSet(Family.EXTENDED_SLOW_NIM, k=k),
                lambda p, k=k: closedforms.slow_nim_grundy_formula(k, p),
                f"extended-slow-nim k={k}",
            )
        )
    for limit in (opts.add_limit,) if opts.add_limit else DEFAULT_ADD_LIMITS:
        pairs.append(
            (
                RuleSet(Family.EXTENDED_NIM, add_limit=limit),
                closedforms.nim_grundy_formula,
                f"extended-nim add_limit={limit}",
            )
        )
    return pairs


def verify_thm6_grundy(opts) -> solver.VerificationReport:
    """The non-extended Grundy labeling stays mex-consistent when the
    add-moves are included."""
    report = solver.VerificationReport()
    domain = solver.Domain(opts.max_piles or 2, opts.max_entry or 12)
    for rules, labeling, tag in _extended_rule_sets(opts):
        _merge(report, solver.verify_grundy_consistency(rules, labeling, domain), tag)
    return report


def verify_thm6_pset(opts) -> solver.VerificationReport:
    """The extended games keep the non-extended P-sets (normal play),
    boundary-aware over a finite window."""
    report = solver.VerificationReport()
    domain = solver.Domain(opts.max_piles or 2, opts.max_entry or 12)
    for rules, labeling, tag in _extended_rule_sets(opts):
        sub = solver.verify_pset(
            rules, Convention.NORMAL, lambda p: labeling(p) == 0, domain
        )
        _merge(report, sub, tag)
    return report


def verify_thm7(opts) -> solver.VerificationReport:
    """Monotone-game outcomes match the difference-position reduction,
    both conventions, over raw (zero-allowed) sequences."""
    report = solver.VerificationReport()
    max_len = opts.max_piles or 4
    max_entry = opts.max_entry or 12
    conventions = (
        (Convention(opts.convention),) if opts.convention else tuple(Convention)
    )
    variants = [RuleSet(Family.MONOTONIC_NIM)] + [
        RuleSet(Family.MONOTONIC_SLOW_NIM, k=k)
        for k in ((opts.k,) if opts.k else DEFAULT_KS)
    ]
    raws = list(solver.enumerate_raw_sequences(max_len, max_entry))
    for rules in variants:
        for convention in conventions:
            memo = solver.MemoTable()
            tag = f"{rules.describe()} {convention.value}"
            for raw in raws:
                report.checked_count += 1
                expected = closedforms.monotonic_p(rules, convention, raw)
                canon = canonicalize(raw, rules.family)
                actual = (
                    solver.outcome(rules, convention, canon, memo) is Outcome.P
                )
                if expected != actual:
                    report.add(
                        raw, f"{tag}: closed form {expected} != solver {actual}"
                    )
    return report


def verify_lemma8(opts) -> solver.VerificationReport:
    """Normal-play 2-square chomp is P exactly at totals divisible by 3,
    and triangular numbers are never 2 mod 3."""
    report = solver.VerificationReport()
    domain = solver.Domain(opts.max_piles or 4, opts.max_entry or 12)
    rules = RuleSet(Family.DIET_CHOMP, k=2)
    memo = solver.MemoTable()
    _compare_sweep(
        report,
        domain,
        "diet-chomp-2 normal",
        closedforms.diet2_normal_p,
        lambda p: solver.outcome(rules, Convention.NORMAL, p, memo) is Outcome.P,
    )
    for n in range(1001):
        report.checked_count += 1
        if closedforms.stairs_mod3_fact(n) == 2:
            report.add((n,), "triangular number is 2 mod 3")
    return report


def verify_lemma9(opts) -> solver.VerificationReport:
    """Misere 2-square chomp on one or two columns matches the
    difference-mod-3 rule."""
    report = solver.VerificationReport()
    domain = solver.Domain(2, opts.max_entry or 30)
    rules = RuleSet(Family.DIET_CHOMP, k=2)
    memo = solver.MemoTable()
    _compare_sweep(
        report,
        domain,
        "diet-chomp-2 misere narrow",
        closedforms.diet2_misere_p_narrow,
        lambda p: solver.outcome(rules, Convention.MISERE, p, memo) is Outcome.P,
    )
    return report


def verify_bulk(opts) -> solver.VerificationReport:
    """Bulk three-column formula exact away from the pinned margins."""
    report = solver.VerificationReport()
    positions = analysis.three_column_domain(
        opts.max_a1 if opts.max_a1 is not None else 11,
        opts.max_extent if opts.max_extent is not None else 20,
    )
    result = analysis.bulk_formula_agreement(
        RuleSet(Family.DIET_CHOMP, k=2),
        Convention.MISERE,
        positions,
        analysis.PINNED_BULK_MARGINS,
    )
    report.checked_count = result.compared
    report.skipped_boundary_count = result.excluded
    for p in result.mismatches:
        report.add(p, "bulk formula disagrees with solver")
    return report


THEOREMS = {
    "thm1": verify_thm1,
    "cor2": verify_cor2,
    "thm3": verify_thm3,
    "thm4": verify_thm4,
    "thm5": verify_thm5,
    "thm6-grundy": verify_thm6_grundy,
    "thm6-pset": verify_thm6_pset,
    "thm7": verify_thm7,
    "lemma8": verify_lemma8,
    "lemma9": verify_lemma9,
    "bulk-conjecture": verify_bulk,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_game_args(p: argparse.ArgumentParser, default_game=None):
    p.add_argument(
        "--game",
        choices=[f.value for f in Family],
        default=default_game,
        required=default_game is None,
    )
    p.add_argument("--k", type=int)
    p.add_argument("--add-limit", type=int, dest="add_limit")
    p.add_argument(
        "--convention",
        choices=[c.value for c in Convention],
        default="normal",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamesolve",
        description="Solve and verify Nim variants, monotonic games, and Diet Chomp.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("outcome", help="outcome/Grundy value of one position")
    _add_game_args(p)
    p.add_argument("--position", required=True)
    p.add_argument("--moves", action="store_true", help="also list legal moves")

    p = sub.add_parser("verify", help="check a closed form against the solver")
    p.add_argument("--theorem", required=True, choices=sorted(THEOREMS))
    p.add_argument(
        "--max-piles",
        "--max-cols",
        "--max-heaps",
        type=int,
        dest="max_piles",
    )
    p.add_argument("--max-height", "--max-entry", type=int, dest="max_entry")
    p.add_argument("--k", type=int)
    p.add_argument("--add-limit", type=int, dest="add_limit")
    p.add_argument("--convention", choices=[c.value for c in Convention])
    p.add_argument("--max-a1", type=int, dest="max_a1")
    p.add_argument("--max-extent", type=int, dest="max_extent")

    p = sub.add_parser("figure", help="emit P-position rasters")
    _add_game_args(p, default_game="diet-chomp")
    p.set_defaults(convention="misere")
    p.add_argument("--a1", required=True, help="single value or lo..hi range")
    p.add_argument("--width", type=int, default=30)
    p.add_argument("--height", type=int, default=30)
    p.add_argument("--format", choices=["pbm", "ascii"], default="pbm")
    p.add_argument("--out", default=".")
    p.add_argument(
        "--triangular",
        action="store_true",
        help="render on (a2-a1, a3-a1) axes instead of (a2-a1, a3-a2)",
    )

    p = sub.add_parser("period", help="directional/translation periodicity")
    _add_game_args(p, default_game="diet-chomp")
    p.set_defaults(convention="misere")
    p.add_argument("--base")
    p.add_argument("--direction")
    p.add_argument("--probe", type=int, default=60)
    p.add_argument("--max-period", type=int, default=16, dest="max_period")
    p.add_argument("--max-preperiod", type=int, default=24, dest="max_preperiod")
    p.add_argument("--translation", type=int)
    p.add_argument("--max-a1", type=int, default=12, dest="max_a1")
    p.add_argument("--max-extent", type=int, default=20, dest="max_extent")

    p = sub.add_parser("batch", help="solve one position per input line")
    _add_game_args(p)
    p.add_argument("--input", required=True)
    p.add_argument(
        "--threads",
        type=int,
        help="worker processes (default: $GAMESOLVE_THREADS, else 1)",
    )

    return parser


# ---------------------------------------------------------------------------
# commands


def cmd_outcome(opts) -> int:
    rules = build_rules(opts.game, opts.k, opts.add_limit)
    convention = Convention(opts.convention)
    raw = parse_position(opts.position)
    p = canonicalize(raw, rules.family)
    result = {"position": list(p)}
    result.update(solve_position(rules, convention, p))
    if opts.moves:
        result["moves"] = [
            {
                "kind": r.kind,
                "index": r.index,
                "amount": r.amount,
                "result": list(r.result),
            }
            for r in games.move_records(rules, p)
        ]
    print(json.dumps(result))
    return EXIT_OK


def cmd_verify(opts) -> int:
    for name in ("max_piles", "max_entry", "k", "add_limit"):
        value = getattr(opts, name)
        if value is not None and value < 1:
            print(f"error: --{name.replace('_', '-')} must be >= 1", file=sys.stderr)
            return EXIT_USAGE
    report = THEOREMS[opts.theorem](opts)
    print(json.dumps({"theorem": opts.theorem, **report.to_dict()}))
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLES


def _parse_a1_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"empty --a1 range {text!r}")
        return values
    return [int(text)]


def cmd_figure(opts) -> int:
    rules = build_rules(opts.game, opts.k, opts.add_limit)
    convention = Convention(opts.convention)
    a1_values = _parse_a1_range(opts.a1)
    out_dir = Path(opts.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output dir: {exc}", file=sys.stderr)
        return EXIT_USAGE
    memo = solver.MemoTable()
    for a1 in a1_values:
        if opts.triangular:
            grid = _triangular_grid(rules, convention, a1, opts.width, opts.height, memo)
        else:
            grid = analysis.figure_grid(
                rules, convention, a1, opts.width, opts.height, memo
            )
        ext = "pbm" if opts.format == "pbm" else "txt"
        path = out_dir / f"fig-a1-{a1}.{ext}"
        try:
            if opts.format == "pbm":
                path.write_bytes(analysis.render_pbm(grid))
            else:
                path.write_text(analysis.render_ascii(grid))
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(path)
    return EXIT_OK


def _triangular_grid(rules, convention, a1, width, height, memo):
    # Alternative axes for visual comparison: x = a2-a1, y = a3-a1; cells
    # below the diagonal (a3 < a2) are not positions and render as 0.
    fn = analysis.lattice_outcome_fn(rules, convention, memo)
    rows = tuple(
        tuple(
            y >= x and fn((a1, a1 + x, a1 + y)) is Outcome.P
            for x in range(width)
        )
        for y in range(height)
    )
    return analysis.FigureGrid(a1, width, height, rows)


def cmd_period(opts) -> int:
    rules = build_rules(opts.game, opts.k, opts.add_limit)
    convention = Convention(opts.convention)
    if opts.translation is not None:
        if opts.translation < 1:
            print("error: --translation must be >= 1", file=sys.stderr)
            return EXIT_USAGE
        positions = analysis.three_column_domain(opts.max_a1, opts.max_extent)
        report = analysis.translation_period_check(
            rules, convention, positions, opts.translation
        )
        print(json.dumps({"translation": opts.translation, **report.to_dict()}))
        return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLES
    if not opts.direction or not opts.base:
        print("error: need --base and --direction (or --translation)", file=sys.stderr)
        return EXIT_USAGE
    base = parse_position(opts.base)
    direction = tuple(int(t) for t in opts.direction.split(","))
    if len(direction) != len(base):
        print("error: direction arity must match base", file=sys.stderr)
        return EXIT_USAGE
    fn = analysis.lattice_outcome_fn(rules, convention)
    report = analysis.directional_period(
        fn, base, direction, opts.probe, opts.max_period, opts.max_preperiod
    )
    print(json.dumps(report.to_dict()))
    return EXIT_OK


def _solve_lines(rules: RuleSet, convention: Convention, lines: list) -> list:
    """One result dict per line; all lines share one memo."""
    memo = solver.MemoTable()
    results = []
    for line in lines:
        try:
            p = canonicalize(parse_position(line), rules.family)
        except (GameError, ValueError) as exc:
            results.append({"input": line, "error": f"{type(exc).__name__}: {exc}"})
            continue
        result = {"input": line, "position": list(p)}
        result.update(solve_position(rules, convention, p, memo))
        results.append(result)
    return results


def _thread_count(opts) -> int:
    """Worker count asked for: --threads, else $GAMESOLVE_THREADS, else 1."""
    if opts.threads is not None:
        source, text = "--threads", str(opts.threads)
    else:
        source = "GAMESOLVE_THREADS"
        text = os.environ.get(source, "1")
    if not text.isdecimal() or int(text) < 1:
        raise ValueError(f"{source} must be a positive integer, not {text!r}")
    return int(text)


def cmd_batch(opts) -> int:
    rules = build_rules(opts.game, opts.k, opts.add_limit)
    convention = Convention(opts.convention)
    threads = _thread_count(opts)
    try:
        lines = Path(opts.input).read_text().splitlines()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    work = [
        line.strip()
        for line in lines
        if line.strip() and not line.strip().startswith("#")
    ]
    workers = min(threads, os.cpu_count() or 1, len(work))
    if workers > 1:
        # one interleaved shard, and so one memo, per worker; reassembled
        # in input order
        shards = [work[i::workers] for i in range(workers)]
        results = [None] * len(work)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            solved = pool.map(
                _solve_lines, [rules] * workers, [convention] * workers, shards
            )
            for i, shard_results in enumerate(solved):
                results[i::workers] = shard_results
    else:
        results = _solve_lines(rules, convention, work)
    errored = False
    for result in results:
        print(json.dumps(result))
        if "error" in result:
            errored = True
    return EXIT_COUNTEREXAMPLES if errored else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)
    handlers = {
        "outcome": cmd_outcome,
        "verify": cmd_verify,
        "figure": cmd_figure,
        "period": cmd_period,
        "batch": cmd_batch,
    }
    try:
        return handlers[opts.command](opts)
    except (GameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
