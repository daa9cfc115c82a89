"""The ``verify --theorem`` sweeps: each closed form the paper states, the
rule sets and conventions it covers, and how it is checked against the
engine (``THEOREMS``; ``verify_theorem`` runs one).
"""

from __future__ import annotations

from functools import partial
from itertools import chain, combinations_with_replacement, islice
from typing import Callable, NamedTuple

from . import closedforms, tables
from .core import MAX_ENTRY, MAX_PILES, BoundsExceeded, Convention, Family, RuleSet

DEFAULT_KS = (1, 2, 3)
DEFAULT_ADD_LIMITS = (1, 2)
NIM = RuleSet(Family.NIM)
DC2 = RuleSet(Family.DIET_CHOMP, k=2)


CHUNK = 256  # points compared with their cells at a time


def _case_checker(check: str, bounds: dict) -> Callable:
    """The function that checks one (rules, convention, closed form) case
    of a sweep as ``check`` says.  What the cases share is built here, once
    per sweep: for "pset" and "labels" the list of canonical positions
    that the local verifier checks, and for "monotone" each raw sequence's
    difference position.  The value sweeps list no positions."""
    if check == "bulk":
        from . import analysis

        window = bounds["max_a1"], bounds["max_extent"], analysis.PINNED_BULK_MARGINS
        return lambda rules, convention, form: analysis.bulk_formula_agreement(
            rules, convention, form, *window
        )
    m, top = bounds["max_piles"], bounds["max_entry"]
    if check in ("pset", "labels"):  # in lexicographic order, as reports list them
        from . import solver  # the local verifiers expand boards through games

        entries = range(1, top + 1)
        runs = (combinations_with_replacement(entries, n) for n in range(m + 1))
        positions = sorted(chain.from_iterable(runs))
    if check == "pset":  # the closed form is a Grundy labeling: P iff it is 0
        return lambda rules, convention, form: solver.verify_pset(
            rules, convention, lambda p: form(p) == 0, positions
        )
    if check == "labels":
        return lambda rules, convention, form: solver.verify_grundy_consistency(
            rules, form, positions
        )
    # closed form vs engine, from one table per case over the caps
    # (max_entry,) * max_piles, whose cells in rank order are the sorted
    # boards below the caps in lexicographic order.  The board with m - L
    # zeros in front is the canonical position of its L other entries, so
    # "values" reads the positions of length 0, 1, ..., m from consecutive
    # cells; "monotone" reads the raw sequences of each length L (zeros
    # allowed, as the difference map reads them) from cells 0, 1, ...
    caps, lo = (top,) * m, int(check == "values")  # lo: the least entry
    # "monotone": the closed form reads difference positions.  Each raw
    # sequence is mapped to its own once per sweep, kept as the index of
    # that position in ``differences``, and each case asks the closed form
    # once per distinct position
    differences, indices = {}, []  # indices: one array per length
    if check == "monotone":
        from array import array

        for length in range(m + 1):
            raws = combinations_with_replacement(range(top + 1), length)
            found = map(closedforms.difference_position, raws)
            run = (differences.setdefault(b, len(differences)) for b in found)
            indices.append(array("I", run))

    def check_values(rules, convention, form) -> tables.VerificationReport:
        table, failures, checked = tables.lattice_table(rules, convention, caps), [], 0
        verdicts = list(map(form, differences))
        for length in range(m + 1):
            start = checked if lo else 0
            points = combinations_with_replacement(range(lo, top + 1), length)
            while chunk := list(islice(points, CHUNK)):
                stop = start + len(chunk)
                if lo:
                    expected = list(map(form, chunk))
                else:  # the verdict of each raw sequence's difference position
                    run = indices[length][start:stop]
                    expected = list(map(verdicts.__getitem__, run))
                cells = table[start:stop]
                if expected != list(cells):  # agreement, the usual case, is in C
                    failures += [
                        (p, x, y) for p, x, y in zip(chunk, expected, cells) if x != y
                    ]
                checked, start = checked + len(chunk), stop
        # counterexamples in lexicographic order, as the local verifiers
        # list them: a case fails at most once per point, so points decide
        report = tables.VerificationReport(checked_count=checked)
        for p, expected, cell in sorted(failures):
            actual = cell if convention is None else cell == 1
            report.add(p, f"closed form {expected} != solver {actual}")
        return report

    return check_values


class Theorem(NamedTuple):
    """One ``verify --theorem`` sweep.  ``cases(opts)`` lists the (tag, rules,
    convention, closed form) checked, in order; a counterexample's reason is
    prefixed with its case's tag, if any.  ``check`` compares a closed form
    with the engine's values ("values": Grundy values where the convention
    is None, else P-booleans; "monotone": P-booleans on raw sequences,
    the closed form reading their difference positions),
    locally as the loopy games need ("pset": ``verify_pset``; "labels":
    ``verify_grundy_consistency``), or with P-booleans of three-column boards
    outside the pinned margins ("bulk": ``analysis.bulk_formula_agreement``)."""

    check: str
    bounds: dict  # each domain option the sweep reads -> its default
    cases: Callable
    params: tuple = ()  # each of k, add_limit, convention that cases reads
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
        (f"{r.describe()} {c.value}", r, c, partial(closedforms.difference_p, r, c))
        for r in variants
        for c in conventions
    ]


EXTENDED_DOMAIN = {"max_piles": 2, "max_entry": 12}

THEOREMS = {
    # Nim Grundy values are the XOR of the heap sizes
    "thm1": Theorem("values", {"max_piles": 4, "max_entry": 15}, lambda opts: [
        ("nim grundy", NIM, None, closedforms.nim_grundy_formula),
    ]),
    # normal-play Nim P-positions are exactly the XOR-zero positions
    "cor2": Theorem("pset", {"max_piles": 4, "max_entry": 15}, lambda opts: [
        (None, NIM, Convention.NORMAL, closedforms.nim_grundy_formula),
    ]),
    # misere Nim: the XOR rule with the all-ones twist
    "thm3": Theorem("values", {"max_piles": 4, "max_entry": 15}, lambda opts: [
        ("misere nim", NIM, Convention.MISERE, closedforms.nim_p_misere),
    ]),
    # subtract-1..k Grundy values are the XOR of the entries mod k+1
    "thm4": Theorem("values", {"max_piles": 3, "max_entry": 15}, lambda opts: [
        (f"slow-nim k={k}", RuleSet(Family.SLOW_NIM, k=k), None,
         partial(closedforms.slow_nim_grundy_formula, k))
        for k in _ks(opts)
    ], ("k",)),
    # misere subtract-1..k: the misere Nim rule on the entries mod k+1
    "thm5": Theorem("values", {"max_piles": 3, "max_entry": 15}, lambda opts: [
        (f"misere slow-nim k={k}", RuleSet(Family.SLOW_NIM, k=k), Convention.MISERE,
         partial(closedforms.slow_nim_p_misere, k))
        for k in _ks(opts)
    ], ("k",)),
    # the non-extended Grundy labeling stays mex-consistent with add-moves
    "thm6-grundy": Theorem(
        "labels", EXTENDED_DOMAIN, _extended_cases, ("k", "add_limit")
    ),
    # the extended games keep the non-extended normal-play P-sets,
    # boundary-aware over a finite window
    "thm6-pset": Theorem(
        "pset", EXTENDED_DOMAIN, _extended_cases, ("k", "add_limit")
    ),
    # monotone games follow the difference-position reduction, both
    # conventions, over raw (zero-allowed) sequences
    "thm7": Theorem(
        "monotone", {"max_piles": 4, "max_entry": 12}, _monotone_cases,
        ("k", "convention"),
    ),
    # normal-play 2-Diet Chomp is P exactly at totals divisible by 3, and
    # triangular numbers are never 2 mod 3
    "lemma8": Theorem("values", {"max_piles": 4, "max_entry": 12}, lambda opts: [
        ("diet-chomp-2 normal", DC2, Convention.NORMAL, closedforms.diet2_normal_p),
    ], fact=(
        "triangular number is 2 mod 3",
        [(n,) for n in range(1001)],
        lambda p: closedforms.stairs_mod3_fact(p[0]) != 2,
    )),
    # misere 2-Diet Chomp on one or two columns: the difference-mod-3 rule
    "lemma9": Theorem("values", {"max_entry": 30}, lambda opts: [
        ("diet-chomp-2 misere narrow", DC2, Convention.MISERE,
         closedforms.diet2_misere_p_narrow),
    ], fixed={"max_piles": 2}),
    # the bulk three-column formula is exact away from the pinned margins
    "bulk-conjecture": Theorem("bulk", {"max_a1": 11, "max_extent": 20}, lambda opts: [
        (None, DC2, Convention.MISERE, closedforms.diet2_misere_bulk_conjecture),
    ]),
}


def verify_theorem(name: str, opts) -> tables.VerificationReport:
    """Run the THEOREMS entry ``name``; each domain bound is the option's
    value, else the entry's default.  A pile count or entry past its limit
    (``MAX_PILES``, ``MAX_ENTRY``), which no position has, raises first."""
    theorem = THEOREMS[name]
    bounds = dict(theorem.fixed)
    for option, default in theorem.bounds.items():
        value = getattr(opts, option)
        bounds[option] = default if value is None else value
    if bounds.get("max_piles", 0) > MAX_PILES:
        raise BoundsExceeded(f"{bounds['max_piles']} piles exceeds limit {MAX_PILES}")
    if bounds.get("max_entry", 0) > MAX_ENTRY:
        raise BoundsExceeded(f"entry {bounds['max_entry']} exceeds limit {MAX_ENTRY}")
    check, report = _case_checker(theorem.check, bounds), tables.VerificationReport()
    for tag, rules, convention, form in theorem.cases(opts):
        sub = check(rules, convention, form)
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
