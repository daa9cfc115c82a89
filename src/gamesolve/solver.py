"""Sprague-Grundy values and outcomes of the acyclic families, from
retrograde tables (``board_values``, one per board width, for the sweeps,
``outcome`` and ``batch``) or a memoized DFS (``grundy``, ``outcome``: the
tables' fallback for boxes over ``TABLE_CELL_LIMIT``, and the tests'
oracle), plus the local verifiers that make the loopy extended families
checkable: ``verify_pset`` and ``verify_grundy_consistency`` check a
claimed labeling without ever solving the loopy graph.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import Convention, Family, LoopyFamily, Outcome, Position, RuleSet
from .games import moves as successors


def mex(values: Iterable[int]) -> int:
    """Smallest non-negative integer absent from the set."""
    present = set(values)
    g = 0
    while g in present:
        g += 1
    return g


class MemoTable:
    """Write-once cache of solved positions: ``grundy_values`` holds one
    position-keyed dict per rule set, ``outcomes`` one per (rule set,
    convention)."""

    def __init__(self):
        self.grundy_values, self.outcomes = {}, {}


def _solve(rules: RuleSet, p: Position, tables: dict, key, value):
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
        return table[p]
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
    return _solve(rules, p, (memo or MemoTable()).grundy_values, rules, mex)


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
    terminal = Outcome.P if convention is Convention.NORMAL else Outcome.N

    def node_value(values: list) -> Outcome:
        if not values:
            return terminal
        return Outcome.N if Outcome.P in values else Outcome.P

    tables = (memo or MemoTable()).outcomes
    return _solve(rules, p, tables, (rules, convention), node_value)


# One byte per cell, or four for a Grundy table whose caps sum past 255: a
# table of 2**24 cells takes 16 MiB, or 64 MiB.  Values over a larger box
# run the DFS instead.
TABLE_CELL_LIMIT = 2**24


def _radix(caps: tuple) -> list:
    """R_c, the product of caps[i] + 1 over i < c, for c = 0..len(caps)."""
    return list(accumulate([c + 1 for c in caps], mul, initial=1))


# Each _*_drops(k, a, v, radix) lists the index drops of the moves on
# column c = len(a) of a board whose columns are a, then v at column c.


def _nim_drops(k: int | None, a: tuple, v: int, radix: list) -> list:
    # lower column c from v to w >= v - k (any w for Nim) and re-insert it
    # sorted: the columns of a above w shift one place right
    full, j, shift, drops = a + (v,), len(a), 0, []
    for w in range(v - 1, max(0, v - k) - 1 if k else -1, -1):
        while j and full[j - 1] > w:
            shift += (full[j] - full[j - 1]) * radix[j]
            j -= 1
        drops.append(shift + (full[j] - w) * radix[j])
    return drops


def _monotone_drops(k: int | None, a: tuple, v: int, radix: list) -> list:
    # lower column c to w, with its left neighbour <= w and v - w <= k
    left = a[-1] if a else 0
    return [(v - w) * radix[len(a)] for w in range(max(left, v - k if k else 0), v)]


def _diet_chomp_drops(k: int, a: tuple, v: int, radix: list) -> list:
    # a cut at (column c, height r) lowers the columns of height >= r to
    # r - 1; only the top k heights of column c can be legal
    c, drops = len(a), []
    for r in range(max(1, v - k + 1), v + 1):
        removed, drop, i = v - r + 1, (v - r + 1) * radix[c], c - 1
        while i >= 0 and a[i] >= r and removed <= k:
            removed += a[i] - r + 1
            drop += (a[i] - r + 1) * radix[i]
            i -= 1
        if removed <= k:
            drops.append(drop)
    return drops


_DROPS = {
    Family.NIM: _nim_drops,
    Family.SLOW_NIM: _nim_drops,
    Family.MONOTONIC_NIM: _monotone_drops,
    Family.MONOTONIC_SLOW_NIM: _monotone_drops,
    Family.DIET_CHOMP: _diet_chomp_drops,
}


def lattice_table(
    rules: RuleSet, convention: Convention | None, caps: tuple
) -> bytearray | array:
    """Values of the raw, zero-padded, non-decreasing boards of len(caps)
    columns with column c at most caps[c], for an acyclic family: outcomes
    (1 = P) under ``convention``, or normal-play Grundy values when it is
    None.  Board a sits at index sum(a_c * R_c), where R_c is the product
    of caps[i] + 1 over i < c; the cells of other boards hold 0.

    Every move replaces a prefix a[:c+1] with an elementwise-lower one, so
    its successor sits a fixed drop lower, and filling the boards in
    lexicographic order fills every successor first: one pass, with no
    stack and no hashing.  The drops of the moves on column c depend on
    a[:c+1] alone, so they are computed once and shared by every extension.
    A mex is at most the move count, which is at most the entry sum, so a
    Grundy table takes bytes while the caps sum to at most 255, else
    unsigned ints.
    """
    k, m, drops_of, radix = rules.k, len(caps), _DROPS[rules.family], _radix(caps)
    wide = convention is None and sum(caps) > 255
    table = array("I", [0]) * radix[m] if wide else bytearray(radix[m])
    table[0] = convention is Convention.NORMAL  # the empty board; Grundy 0

    def fill(a: tuple, index: int, offsets: list) -> None:
        c = len(a)
        for v in range(a[-1] if a else 0, caps[c] + 1):
            here, drops = index + v * radix[c], offsets + drops_of(k, a, v, radix)
            if c + 1 < m:
                fill(a + (v,), here, drops)
            elif here:
                values = [table[here - d] for d in drops]
                # P iff no move reaches a P-board
                table[here] = mex(values) if convention is None else 1 not in values

    if m:
        fill((), 0, [])
    return table


def board_values(rules: RuleSet, convention: Convention | None, boards: list) -> list:
    """Values of canonical ``boards``, in order: True for a P-board under
    ``convention``, or the normal-play Grundy value when it is None.

    The boards of each width are read from one ``lattice_table`` over
    their per-column maxima.  The box of one board is exactly the boards it
    reaches; one box over every width, narrower boards zero-padded on the
    left, would be as tall in its last column as the tallest 1-column board
    (7x slower than the DFS on batches of Diet Chomp lines), and one box per
    board made batches of Nim lines 2x slower.  A width whose box has more
    than ``TABLE_CELL_LIMIT`` cells, or a loopy family (which the DFS
    rejects), runs the DFS instead, on one memo shared by every width."""
    widths, memo = {}, MemoTable()
    for b in boards:
        widths.setdefault(len(b), []).append(b)
    found = {}
    for m, group in widths.items():
        caps = tuple(map(max, zip(*group)))
        radix = _radix(caps)
        if rules.family.loopy or radix[-1] > TABLE_CELL_LIMIT:
            if convention is None:
                values = [grundy(rules, b, memo) for b in group]
            else:
                values = [outcome(rules, convention, b, memo) for b in group]
                values = [v is Outcome.P for v in values]
        else:
            cells = lattice_table(rules, convention, caps)
            values = [cells[sum(map(mul, b, radix))] for b in group]
            if convention is not None:
                values = [v == 1 for v in values]
        found[m] = iter(values)
    return [next(found[len(b)]) for b in boards]


class Domain(NamedTuple):
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


class VerificationReport:
    def __init__(self, checked_count: int = 0, skipped_boundary_count: int = 0):
        self.checked_count = checked_count
        self.skipped_boundary_count = skipped_boundary_count
        self.counterexamples = []

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
