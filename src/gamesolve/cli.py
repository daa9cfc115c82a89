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
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

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
    if family is Family.EXTENDED_NIM:
        return RuleSet(family, add_limit=add_limit if add_limit is not None else 1)
    if family in (Family.NIM, Family.MONOTONIC_NIM):
        return RuleSet(family)
    return RuleSet(family, k=k if k is not None else 2)


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
        if rules.family is Family.EXTENDED_SLOW_NIM:
            grundy_of = partial(closedforms.slow_nim_grundy_formula, rules.k)
            is_p = partial(closedforms.slow_nim_p_misere, rules.k)
        else:
            grundy_of, is_p = closedforms.nim_grundy_formula, closedforms.nim_p_misere
        if convention is Convention.NORMAL:
            g = grundy_of(p)
            return {"outcome": "P" if g == 0 else "N", "grundy": g}
        return {"outcome": "P" if is_p(p) else "N", "grundy": None}
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
NIM = RuleSet(Family.NIM)
DC2 = RuleSet(Family.DIET_CHOMP, k=2)


def _check_case(check, rules, convention, form, bounds) -> solver.VerificationReport:
    """One (rules, convention, closed form) case, checked as ``check`` says."""
    if check == "bulk":  # the formula is the one bulk_formula_agreement applies
        positions = analysis.three_column_domain(bounds["max_a1"], bounds["max_extent"])
        result = analysis.bulk_formula_agreement(
            rules, convention, positions, analysis.PINNED_BULK_MARGINS
        )
        reason = "bulk formula disagrees with solver"
        return solver.VerificationReport(
            result.compared, result.excluded, [(p, reason) for p in result.mismatches]
        )
    domain = solver.Domain(**bounds)
    if check == "pset":  # the closed form is a Grundy labeling: P iff it is 0
        return solver.verify_pset(rules, convention, lambda p: form(p) == 0, domain)
    if check == "labels":
        return solver.verify_grundy_consistency(rules, form, domain)
    # closed form vs engine at each position, one memo per case; "monotone"
    # reads raw sequences (zeros allowed), as the difference map does
    report = solver.VerificationReport()
    memo = solver.MemoTable()
    raw = check == "monotone"
    for p in solver.enumerate_positions(domain, lo=0 if raw else 1):
        report.checked_count += 1
        expected = form(p)
        if check == "grundy":
            actual = solver.grundy(rules, p, memo)
        else:
            q = canonicalize(p, rules.family) if raw else p
            actual = solver.outcome(rules, convention, q, memo) is Outcome.P
        if expected != actual:
            report.add(p, f"closed form {expected} != solver {actual}")
    return report


class Theorem(NamedTuple):
    """One ``verify --theorem`` sweep.  ``cases(opts)`` lists the (tag, rules,
    convention, closed form) checked, in order; a counterexample's reason is
    prefixed with its case's tag, if any.  ``check`` compares a closed form
    with the engine's Grundy values ("grundy") or outcomes ("outcome"; and
    "monotone", on raw sequences), locally as the loopy games need ("pset":
    ``verify_pset``; "labels": ``verify_grundy_consistency``), or through
    ``analysis.bulk_formula_agreement`` ("bulk")."""

    check: str
    bounds: dict  # each domain option the sweep reads -> its default
    cases: Callable
    fixed: dict = {}  # domain sizes that no option changes
    fact: tuple | None = None  # (reason, positions, holds), checked last


def _ks(opts):
    return (opts.k,) if opts.k else DEFAULT_KS


def _extended_cases(opts):
    # each extended game against its non-extended Grundy labeling
    limits = (opts.add_limit,) if opts.add_limit else DEFAULT_ADD_LIMITS
    variants = [RuleSet(Family.EXTENDED_SLOW_NIM, k=k) for k in _ks(opts)]
    variants += [RuleSet(Family.EXTENDED_NIM, add_limit=n) for n in limits]
    return [
        (r.describe(), r, Convention.NORMAL,
         partial(closedforms.slow_nim_grundy_formula, r.k) if r.k
         else closedforms.nim_grundy_formula)
        for r in variants
    ]


def _monotone_cases(opts):
    conventions = [Convention(opts.convention)] if opts.convention else list(Convention)
    variants = [RuleSet(Family.MONOTONIC_NIM)]
    variants += [RuleSet(Family.MONOTONIC_SLOW_NIM, k=k) for k in _ks(opts)]
    return [
        (f"{r.describe()} {c.value}", r, c, partial(closedforms.monotonic_p, r, c))
        for r in variants
        for c in conventions
    ]


EXTENDED_DOMAIN = {"max_piles": 2, "max_entry": 12}

THEOREMS = {
    # Nim Grundy values are the XOR of the heap sizes
    "thm1": Theorem("grundy", {"max_piles": 4, "max_entry": 15}, lambda opts: [
        ("nim grundy", NIM, None, closedforms.nim_grundy_formula),
    ]),
    # normal-play Nim P-positions are exactly the XOR-zero positions
    "cor2": Theorem("pset", {"max_piles": 4, "max_entry": 15}, lambda opts: [
        (None, NIM, Convention.NORMAL, closedforms.nim_grundy_formula),
    ]),
    # misere Nim: the XOR rule with the all-ones twist
    "thm3": Theorem("outcome", {"max_piles": 4, "max_entry": 15}, lambda opts: [
        ("misere nim", NIM, Convention.MISERE, closedforms.nim_p_misere),
    ]),
    # subtract-1..k Grundy values are the XOR of the entries mod k+1
    "thm4": Theorem("grundy", {"max_piles": 3, "max_entry": 15}, lambda opts: [
        (f"slow-nim k={k}", RuleSet(Family.SLOW_NIM, k=k), None,
         partial(closedforms.slow_nim_grundy_formula, k))
        for k in _ks(opts)
    ]),
    # misere subtract-1..k: the misere Nim rule on the entries mod k+1
    "thm5": Theorem("outcome", {"max_piles": 3, "max_entry": 15}, lambda opts: [
        (f"misere slow-nim k={k}", RuleSet(Family.SLOW_NIM, k=k), Convention.MISERE,
         partial(closedforms.slow_nim_p_misere, k))
        for k in _ks(opts)
    ]),
    # the non-extended Grundy labeling stays mex-consistent with add-moves
    "thm6-grundy": Theorem("labels", EXTENDED_DOMAIN, _extended_cases),
    # the extended games keep the non-extended normal-play P-sets,
    # boundary-aware over a finite window
    "thm6-pset": Theorem("pset", EXTENDED_DOMAIN, _extended_cases),
    # monotone games follow the difference-position reduction, both
    # conventions, over raw (zero-allowed) sequences
    "thm7": Theorem("monotone", {"max_piles": 4, "max_entry": 12}, _monotone_cases),
    # normal-play 2-Diet Chomp is P exactly at totals divisible by 3, and
    # triangular numbers are never 2 mod 3
    "lemma8": Theorem("outcome", {"max_piles": 4, "max_entry": 12}, lambda opts: [
        ("diet-chomp-2 normal", DC2, Convention.NORMAL, closedforms.diet2_normal_p),
    ], fact=(
        "triangular number is 2 mod 3",
        [(n,) for n in range(1001)],
        lambda p: closedforms.stairs_mod3_fact(p[0]) != 2,
    )),
    # misere 2-Diet Chomp on one or two columns: the difference-mod-3 rule
    "lemma9": Theorem("outcome", {"max_entry": 30}, lambda opts: [
        ("diet-chomp-2 misere narrow", DC2, Convention.MISERE,
         closedforms.diet2_misere_p_narrow),
    ], fixed={"max_piles": 2}),
    # the bulk three-column formula is exact away from the pinned margins
    "bulk-conjecture": Theorem("bulk", {"max_a1": 11, "max_extent": 20}, lambda opts: [
        (None, DC2, Convention.MISERE, None),
    ]),
}


def verify_theorem(name: str, opts) -> solver.VerificationReport:
    """Run the THEOREMS entry ``name``; each domain bound is the option's
    value, else the entry's default."""
    theorem = THEOREMS[name]
    bounds = dict(theorem.fixed)
    for option, default in theorem.bounds.items():
        value = getattr(opts, option)
        bounds[option] = default if value is None else value
    report = solver.VerificationReport()
    for tag, rules, convention, form in theorem.cases(opts):
        sub = _check_case(theorem.check, rules, convention, form, bounds)
        report.checked_count += sub.checked_count
        report.skipped_boundary_count += sub.skipped_boundary_count
        for p, reason in sub.counterexamples:
            report.add(p, f"{tag}: {reason}" if tag else reason)
    if theorem.fact is not None:
        reason, positions, holds = theorem.fact
        for p in positions:
            report.checked_count += 1
            if not holds(p):
                report.add(p, reason)
    return report


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


def _check_minimums(opts, minimums: dict) -> None:
    """Reject each given option that is below its minimum."""
    for name, least in minimums.items():
        value = getattr(opts, name)
        if value is not None and value < least:
            raise ValueError(f"--{name.replace('_', '-')} must be >= {least}")


def cmd_verify(opts) -> int:
    _check_minimums(
        opts,
        {"max_piles": 1, "max_entry": 1, "k": 1, "add_limit": 1, "max_a1": 0,
         "max_extent": 0},
    )
    report = verify_theorem(opts.theorem, opts)
    print(json.dumps({"theorem": opts.theorem, **report.to_dict()}))
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLES


def _parse_a1_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(text)]
    if not values:
        raise ValueError(f"empty --a1 range {text!r}")
    if values[0] < 0:
        raise ValueError(f"--a1 must be >= 0, not {text!r}")
    return values


def cmd_figure(opts) -> int:
    _check_minimums(opts, {"width": 1, "height": 1})
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
        grid = analysis.figure_grid(
            rules, convention, a1, opts.width, opts.height, memo, opts.triangular
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


def cmd_period(opts) -> int:
    _check_minimums(
        opts,
        {"translation": 1, "max_a1": 0, "max_extent": 0, "max_period": 1,
         "max_preperiod": 0},
    )
    rules = build_rules(opts.game, opts.k, opts.add_limit)
    convention = Convention(opts.convention)
    if opts.translation is not None:
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
