"""The retrograde engine: Sprague-Grundy values and outcomes of the
acyclic families, from one pruned table per (rules, convention) and list
of tops, with one cell per sorted board at its rank (``lattice_table``;
``board_values`` reads a list of boards from one).  A move is an index
drop computed from the rules, so the engine shares no code with ``games``,
whose successors the DFS in ``solver`` (the tests' oracle) expands.
"""

from __future__ import annotations

from itertools import accumulate, groupby
from operator import getitem, itemgetter, le
from typing import TYPE_CHECKING, Iterable

from .core import Convention, Family, LoopyFamily, Position, RuleSet

if TYPE_CHECKING:
    from array import array


def mex(values: Iterable[int]) -> int:
    """Smallest non-negative integer absent from the set."""
    present = set(values)
    g = 0
    while g in present:
        g += 1
    return g


def ranks(caps: tuple) -> list:
    """G_c for each column c: a sorted board b below the sorted ``caps``
    sits at sum(G_c[b_c]), its rank among those boards in lexicographic
    order.  S_c[x] counts the sorted fillings of columns c.. below caps
    whose column c is below x, so S_c[b_c] - S_c[b_{c-1}] boards share b's
    first c columns and precede it at column c; summed over c, that is
    sum(G_c[b_c]) with G_c = S_c - S_{c+1} (and S_{len(caps)} = 0).  The
    last column's G is x itself, a ``range``."""
    if not caps:
        return []
    gs, below = [range(caps[-1] + 1)], range(caps[-1] + 2)
    for cap in reversed(caps[:-1]):
        total = below[-1]
        here = list(accumulate([total - below[x] for x in range(cap + 1)], initial=0))
        gs.append([here[x] - below[x] for x in range(cap + 1)])
        below = here
    return gs[::-1]


# Each _*_drops(k, a, v, gs) lists the index drops of the moves on
# column c = len(a) of a board whose columns are a, then v at column c,
# that keep the other columns in place; lattice_table carries the Nim
# moves that re-sort column c below a[-1] from the column before.


def _monotone_drops(k: int | None, a: tuple, v: int, gs: list) -> list:
    # lower column c to w, with its left neighbour <= w and v - w <= k,
    # highest w first: the Nim carry relies on this order (its Slow Nim
    # budget keeps a prefix of it, and the last column's seed reverses it)
    g, low = gs[len(a)], max(a[-1] if a else 0, v - k if k else 0)
    return list(map(g[v].__sub__, g[low:v][::-1]))


def _diet_chomp_drops(k: int, a: tuple, v: int, gs: list) -> list:
    # a cut at (column c, height r) lowers the columns of height >= r to
    # r - 1; only the top k heights of column c can be legal
    c, drops, g = len(a), [], gs[len(a)]
    for r in range(max(1, v - k + 1), v + 1):
        removed, drop, i = v - r + 1, g[v] - g[r - 1], c - 1
        while i >= 0 and a[i] >= r and removed <= k:
            removed += a[i] - r + 1
            drop += gs[i][a[i]] - gs[i][r - 1]
            i -= 1
        if removed <= k:
            drops.append(drop)
    return drops


def lattice_table(
    rules: RuleSet, convention: Convention | None, *tops: tuple
) -> bytearray | array:
    """Values of the raw, zero-padded, non-decreasing boards that lie
    elementwise below one of ``tops`` (boards of one width), for an acyclic
    family (a loopy one raises ``LoopyFamily``): outcomes (1 = P) under
    ``convention``, or normal-play Grundy values when it is None.  The table
    has one cell per sorted board below caps, the tops' elementwise maximum:
    board a at its rank sum(G_c[a_c]) (``ranks``); cells below no top hold 0.

    A move replaces a prefix a[:c+1] with an elementwise-lower one, so its
    successor lies below the same top, a fixed drop lower, and filling the
    boards in lexicographic order fills it first: one pass, no stack.  The
    drops of the moves on column c depend on a[:c+1] alone, so every
    extension shares them.  A Nim move that lowers column c from v below
    lo = a[-1] re-sorts it, to the board that a move on column c - 1
    reaches from (a, lo): each column carries the drops of the one before,
    shifted by G_c[v] - G_c[lo].  The last column fills a row (a fixed
    prefix) at a time: the cells that its moves reach form a running
    window, except for Diet Chomp cuts that lower earlier columns too, and
    an outcome cell stays N (0) unless no move reaches a P-board.  The tops
    above a prefix are sorted on the next column, so a larger value there
    keeps a prefix of them, and the last column runs up to a running max:
    no column rescans a gone top.  A mex is at most the entry sum, so Grundy
    values take bytes while the caps sum to at most 255, else unsigned ints.
    """
    if rules.family.loopy:
        raise LoopyFamily(f"{rules.family.value} has add-moves; use the verifiers")
    caps = tuple(map(max, zip(*tops)))
    k, m, gs, seeded = rules.k, len(caps), ranks(caps), not rules.family.ordered
    chomp = rules.family is Family.DIET_CHOMP
    drops_of = _diet_chomp_drops if chomp else _monotone_drops
    size = sum(map(getitem, gs, caps)) + 1  # caps is the last board
    if convention is None and sum(caps) > 255:
        from array import array  # loaded only for the tables that need it

        table = array("I", [0]) * size
    else:
        table = bytearray(size)
    table[0] = int(convention is Convention.NORMAL)  # the empty board; Grundy 0

    def fill(a: tuple, index: int, offsets: list, prev: list, tops: list) -> None:
        # a column c below the last, whose moves on earlier columns drop by
        # ``offsets``; prev: the drops of column c - 1 at lo = a[-1], highest
        # w first.  tops: those above the prefix a, highest at column c
        # first, so those above a + (v,) are the first n, and reach[n - 1]
        # is the highest last entry among them
        c, n, lo, g = len(a), len(tops), a[-1] if a else 0, gs[len(a)]
        reach = list(accumulate([t[-1] for t in tops], max))
        for v in range(lo, tops[0][c] + 1):
            while tops[n - 1][c] < v:
                n -= 1
            own = drops_of(k, a, v, gs)
            if seeded:  # below lo: column c - 1's moves, shifted, within k
                # (clamped at 0: a negative stop would cut from the end)
                shift = g[v] - g[lo]
                own += [d + shift for d in (prev[: max(0, k - v + lo)] if k else prev)]
            here, drops = index + g[v], offsets + own
            if c + 2 == m:
                fill_last(a + (v,), here, drops, own, reach[n - 1])
            elif n == 1:  # one top, as in every sweep: nothing to sort
                fill(a + (v,), here, drops, own, tops[:1])
            else:
                above = sorted(tops[:n], key=itemgetter(c + 1), reverse=True)
                fill(a + (v,), here, drops, own, above)

    def fill_last(a: tuple, index: int, offsets: list, prev: list, hi: int) -> None:
        # the last column c, up to hi: the cells (a, v), whose moves on
        # earlier columns drop by ``offsets``.  A move on column c reaches
        # (a, w) for max(lo, v - k) <= w < v, lo = a[-1], and in Nim and
        # Slow Nim the boards sorted(a + (w,)) for max(0, v - k) <= w < lo,
        # which do not depend on v: from (a, lo) the prefix column's own
        # drops ``prev`` reach them.  seen lists the values of all these
        # boards, lowest w first, and grows along the row.  A Diet Chomp
        # cut at a height r <= lo lowers earlier columns too, so while
        # v - k < lo its cells also read their cuts.  The last column's G is
        # v itself, so the row is contiguous
        lo = a[-1] if a else 0
        seen = [table[index + lo - d] for d in reversed(prev)] if seeded else []
        for v in range(lo, hi + 1):
            here = index + v
            if here:
                window = seen[-k:] if k else seen
                if chomp and v - k < lo:  # k is set: window is a copy
                    window += [table[here - d] for d in drops_of(k, a, v, gs)]
                if convention is None:
                    table[here] = mex([table[here - d] for d in offsets] + window)
                elif 1 not in window:  # P iff no move reaches a P-board
                    for d in offsets:
                        if table[here - d] == 1:
                            break
                    else:
                        table[here] = 1
            seen.append(table[here])

    if m == 1:
        fill_last((), 0, [], [], caps[0])
    elif m:
        fill((), 0, [], [], sorted(tops, key=itemgetter(0), reverse=True))
    return table


def board_values(rules: RuleSet, convention: Convention | None, boards: list) -> list:
    """The values of ``boards``, in order, under (rules, convention): True
    for a P-board under ``convention``, or the normal-play Grundy value
    when it is None, from one ``lattice_table`` (a loopy family raises
    ``LoopyFamily`` first).  Each board is padded to the widest, so it may
    be canonical or raw with leading zeros; boards are read unchecked, and
    outside input is canonicalized first.  A board reaches exactly the
    boards below it, so the tops are the boards that no other board
    dominates.  Two distinct boards of one sum never dominate each other,
    so each sum's boards, by falling sum, meet only the larger sums' tops."""
    if rules.family.loopy:
        raise LoopyFamily(f"{rules.family.value} has add-moves; use the verifiers")
    if not boards:  # no table for no boards
        return []
    m = max(map(len, boards))
    padded = [(0,) * (m - len(b)) + b for b in boards]
    caps = tuple(map(max, zip(*padded)))
    tops = []
    for _, same_sum in groupby(sorted(set(padded), key=sum, reverse=True), sum):
        tops += [b for b in same_sum if not any(all(map(le, b, t)) for t in tops)]
    gs = ranks(caps)
    table = lattice_table(rules, convention, *tops)
    cells = [table[sum(map(getitem, gs, b))] for b in padded]
    return cells if convention is None else [cell == 1 for cell in cells]


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
