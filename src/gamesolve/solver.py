"""Brute-force ground truth: memoized Grundy values and outcomes, plus the
local verifiers that make the loopy extended families checkable.

Grundy/outcome recursion is only defined for the acyclic families; the
extended (add-move) families are handled exclusively by ``verify_pset``
and ``verify_grundy_consistency``, which check local consistency of a
claimed labeling without ever solving the loopy graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul
from typing import Callable, Iterable, Iterator

from .core import Convention, LoopyFamily, Outcome, Position, RuleSet
from .games import moves as successors


def mex(values: Iterable[int]) -> int:
    """Smallest non-negative integer absent from the set."""
    present = set(values)
    g = 0
    while g in present:
        g += 1
    return g


@dataclass
class MemoTable:
    """Write-once cache of solved positions: ``grundy_values`` holds one
    position-keyed dict per rule set, ``outcomes`` one per (rule set,
    convention).  ``hits``/``misses`` count top-level queries."""

    grundy_values: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0


def _solve(rules: RuleSet, p: Position, memo: MemoTable, tables: dict, key, value):
    """Value of p in ``tables[key]``, solving what it needs first.

    Iterative post-order over the (acyclic) game DAG, so large domains
    never hit the interpreter recursion limit.  A frame keeps its
    successor list, so each position is expanded once, when pushed, and
    valued by ``value`` over its successors' values once none is
    left unsolved.  A position on the stack is an ancestor of the top,
    so without cycles none is pushed twice.
    """
    if rules.family.loopy:
        raise LoopyFamily(f"{rules.family.value} has add-moves; use the verifiers")
    table = tables.setdefault(key, {})
    if p in table:
        memo.hits += 1
        return table[p]
    memo.misses += 1
    succ = successors(rules, p)
    stack = [(p, succ, iter(succ))]
    while stack:
        cur, succ, unvisited = stack[-1]
        for s in unvisited:
            if s not in table:
                nxt = successors(rules, s)
                stack.append((s, nxt, iter(nxt)))
                break
        else:
            table[cur] = value([table[s] for s in succ])
            stack.pop()
    return table[p]


def grundy(rules: RuleSet, p: Position, memo: MemoTable | None = None) -> int:
    """Grundy value of p: mex over successor values, terminal -> 0."""
    if memo is None:
        memo = MemoTable()
    return _solve(rules, p, memo, memo.grundy_values, rules, mex)


def outcome(
    rules: RuleSet,
    convention: Convention,
    p: Position,
    memo: MemoTable | None = None,
) -> Outcome:
    """P/N outcome of p under the given convention.

    Terminal is P in normal play and N in misere play (the previous
    player made the last move); a nonterminal position is N iff some
    successor is P.
    """
    if memo is None:
        memo = MemoTable()
    terminal = Outcome.P if convention is Convention.NORMAL else Outcome.N

    def node_value(values: list) -> Outcome:
        if not values:
            return terminal
        return Outcome.N if Outcome.P in values else Outcome.P

    return _solve(rules, p, memo, memo.outcomes, (rules, convention), node_value)


# One byte per cell: a table of 2**24 cells takes 16 MiB.  Sweeps over a
# larger box run the DFS instead.
TABLE_CELL_LIMIT = 2**24


def outcome_table(rules: RuleSet, convention: Convention, caps: tuple) -> bytearray:
    """Outcomes (1 = P) of the raw, zero-padded, non-decreasing k-Diet Chomp
    boards of len(caps) columns with column c at most caps[c].  Board a
    sits at index sum(a_c * R_c), where R_c is the product of caps[i] + 1
    over i < c; the cells of other boards hold 0.

    A cut at (column j, height r) lowers the columns i..j of height >= r
    to r - 1, so its successor sits sum((a_c - r + 1) * R_c) lower.  As in
    ``games.diet_chomp_move_records``, only the top k heights of a column
    can be legal.  A move lowers columns and raises none, so filling the
    boards in lexicographic order fills every successor first: one pass,
    with no stack and no hashing.
    """
    k, m = rules.k, len(caps)
    radix = list(accumulate([c + 1 for c in caps], mul, initial=1))
    table = bytearray(radix[m])
    table[0] = convention is Convention.NORMAL  # the empty board

    def fill(a: tuple, index: int, offsets: list) -> None:
        # a: the columns before c; offsets: the index drops of their cuts
        c = len(a)
        for v in range(a[-1] if a else 0, caps[c] + 1):
            here, cuts = index + v * radix[c], offsets[:]
            for r in range(max(1, v - k + 1), v + 1):
                removed, drop, i = v - r + 1, (v - r + 1) * radix[c], c - 1
                while i >= 0 and a[i] >= r and removed <= k:
                    removed += a[i] - r + 1
                    drop += (a[i] - r + 1) * radix[i]
                    i -= 1
                if removed <= k:
                    cuts.append(drop)
            if c + 1 < m:
                fill(a + (v,), here, cuts)
            elif here:  # P iff no move reaches a P-board
                table[here] = not any([table[here - d] for d in cuts])

    if m:
        fill((), 0, [])
    return table


@dataclass(frozen=True)
class Domain:
    """Finite set of canonical positions: length <= max_piles, entries in
    1..max_entry (canonical forms carry no zeros)."""

    max_piles: int
    max_entry: int

    def __contains__(self, p: Position) -> bool:
        return len(p) <= self.max_piles and all(
            1 <= e <= self.max_entry for e in p
        )


def enumerate_positions(domain: Domain, lo: int = 1) -> Iterator[Position]:
    """Every non-decreasing sequence of at most max_piles entries in
    lo..max_entry, once, in lexicographic order: with lo = 1 the canonical
    positions of the domain (for ordered and order-free families alike),
    with lo = 0 the raw sequences that the monotone-game difference map
    reads, where zero padding and length parity matter."""

    def rec(prefix: list[int], lo: int) -> Iterator[Position]:
        yield tuple(prefix)
        if len(prefix) == domain.max_piles:
            return
        for v in range(lo, domain.max_entry + 1):
            prefix.append(v)
            yield from rec(prefix, v)
            prefix.pop()

    yield from rec([], lo)


@dataclass
class VerificationReport:
    checked_count: int = 0
    skipped_boundary_count: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def add(self, p: Position, reason: str) -> None:
        self.counterexamples.append((p, reason))

    def to_dict(self) -> dict:
        return {
            "checked": self.checked_count,
            "skipped_boundary": self.skipped_boundary_count,
            "counterexamples": [
                {"position": list(p), "reason": reason}
                for p, reason in self.counterexamples
            ],
            "ok": self.ok,
        }


def verify_pset(
    rules: RuleSet,
    convention: Convention,
    claimed_p: Callable[[Position], bool],
    domain: Domain,
) -> VerificationReport:
    """Check a claimed P-set locally over a finite domain.

    For each position: terminals must carry the convention's terminal
    label; a claimed P-position must have no in-domain P-successor; a
    claimed N-position must have an in-domain P-successor, except that
    positions with successors outside the domain are only counted as
    skipped when no in-domain witness exists (the witness might live
    outside).  A P->P edge inside the domain is always a hard failure.
    """
    report = VerificationReport()
    terminal_is_p = convention is Convention.NORMAL
    for p in enumerate_positions(domain):
        report.checked_count += 1
        succ = successors(rules, p)
        if not succ:
            if claimed_p(p) != terminal_is_p:
                report.add(p, "terminal label disagrees with convention")
            continue
        if claimed_p(p):
            for q in succ:
                if q in domain and claimed_p(q):
                    report.add(p, f"move to claimed P-position {q}")
                    break
        else:
            if any(q in domain and claimed_p(q) for q in succ):
                continue
            if any(q not in domain for q in succ):
                report.skipped_boundary_count += 1
            else:
                report.add(p, "claimed N-position with no P-successor")
    return report


def verify_grundy_consistency(
    ext_rules: RuleSet,
    labeling: Callable[[Position], int],
    domain: Domain,
) -> VerificationReport:
    """Check that a claimed Grundy labeling is mex-consistent under the
    extended move set, for positions whose successors all stay in the
    domain; positions with out-of-domain successors are skipped."""
    report = VerificationReport()
    for p in enumerate_positions(domain):
        succ = successors(ext_rules, p)
        if any(q not in domain for q in succ):
            report.skipped_boundary_count += 1
            continue
        report.checked_count += 1
        expected = mex(labeling(q) for q in succ)
        actual = labeling(p)
        if expected != actual:
            report.add(p, f"mex of successor labels {expected} != label {actual}")
    return report
