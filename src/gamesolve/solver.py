"""The memoized DFS that the tests use as the tables' oracle (``grundy``,
``outcome``), and the local verifiers that make the loopy extended
families checkable: ``verify_pset`` and ``verify_grundy_consistency``
check a claimed labeling without ever solving the loopy graph.  Both
expand boards through ``games``; the commands that read values use
``tables`` alone.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .core import Convention, Position, RuleSet
from .games import successor_stream
from .tables import VerificationReport, mex


def successors(rules: RuleSet, p: Position) -> list[Position]:
    """The boards one move from canonical p, deduplicated, in lexicographic
    order, as the DFS expands them; the local verifiers read
    ``games.successor_stream`` as generated."""
    return sorted(set(successor_stream(rules, p)))


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
    rules.family.refuse_loopy()
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
) -> bool:
    """True iff p is a P-position under the given convention, the value
    ``board_values`` gives.  Terminal is P in normal play and N in misere
    play (the previous player made the last move); a nonterminal position
    is P iff no successor is P.
    """
    terminal = convention is Convention.NORMAL

    def node_value(values: list) -> bool:
        return not any(values) if values else terminal

    tables = (memo or MemoTable()).outcomes
    return _solve(rules, p, tables, (rules, convention), node_value)


def verify_pset(
    rules: RuleSet,
    convention: Convention,
    claimed_p: Callable[[Position], bool],
    positions: Iterable[Position],
) -> VerificationReport:
    """Check a claimed P-set locally over a finite domain: the canonical
    ``positions``, each checked once, in the order given.

    For each position: terminals must carry the convention's terminal
    label; a claimed P-position must have no in-domain P-successor; a
    claimed N-position must have an in-domain P-successor, except that
    positions with successors outside the domain are only counted as
    skipped when no in-domain witness exists (the witness might live
    outside).  A P->P edge inside the domain is always a hard failure,
    reported at the least such successor.  Each position is labeled once;
    successors are canonical, so one is in the domain iff it is labeled.
    A claimed N-position reads its successors, in ``games`` order, up to
    the first claimed P-position; only one without such a witness reads
    them all again.
    """
    terminal_is_p = convention is Convention.NORMAL
    labels = {p: claimed_p(p) for p in positions}
    report = VerificationReport(checked_count=len(labels))
    for p, is_p in labels.items():
        if not is_p and any(map(labels.get, successor_stream(rules, p))):
            continue
        succ = list(successor_stream(rules, p))
        if not succ:
            if is_p != terminal_is_p:
                report.add(p, "terminal label disagrees with convention")
        elif is_p:
            hits = [q for q in succ if labels.get(q)]
            if hits:
                report.add(p, f"move to claimed P-position {min(hits)}")
        elif any(q not in labels for q in succ):
            report.skipped_boundary_count += 1
        else:
            report.add(p, "claimed N-position with no P-successor")
    return report


def verify_grundy_consistency(
    ext_rules: RuleSet,
    labeling: Callable[[Position], int],
    positions: Iterable[Position],
) -> VerificationReport:
    """Check that a claimed Grundy labeling is mex-consistent under the
    extended move set, for each of the canonical ``positions`` (the
    domain) whose successors all stay in the domain; positions with
    out-of-domain successors are skipped, at the first one read.  Each
    position is labeled once, as in ``verify_pset``."""
    report = VerificationReport()
    labels = {p: labeling(p) for p in positions}
    for p, label in labels.items():
        values = []
        for q in successor_stream(ext_rules, p):
            if q not in labels:
                report.skipped_boundary_count += 1
                break
            values.append(labels[q])
        else:
            report.checked_count += 1
            expected = mex(values)
            if expected != label:
                report.add(p, f"mex of successor labels {expected} != label {label}")
    return report
