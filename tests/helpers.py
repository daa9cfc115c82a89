"""Position lists, and lattice reads, that the tests share."""

from itertools import combinations_with_replacement

from gamesolve import canonicalize, tables


def recursive_positions(max_piles, max_entry, lo):
    """The non-decreasing sequences of at most ``max_piles`` entries in
    lo..max_entry, in lexicographic order, by a recursive walk: a prefix,
    then each extension by an entry no lower than its last.  With lo = 1
    they are the canonical positions; with lo = 0, the raw sequences (zeros
    allowed) that the monotone-game difference map reads."""

    def rec(prefix, lo):
        yield prefix
        if len(prefix) < max_piles:
            for v in range(lo, max_entry + 1):
                yield from rec(prefix + (v,), v)

    return rec((), lo)


def positions(max_piles, max_entry):
    """The canonical positions of at most ``max_piles`` entries in
    1..max_entry, in lexicographic order."""
    return list(recursive_positions(max_piles, max_entry, 1))


def raw_sequences(max_piles, max_entry):
    """The raw sequences (zeros allowed) of at most ``max_piles`` entries in
    0..max_entry, in lexicographic order: what "monotone" sweeps check."""
    return sorted(
        raw
        for n in range(max_piles + 1)
        for raw in combinations_with_replacement(range(max_entry + 1), n)
    )


def lattice_values(rules, convention, points):
    """``tables.board_values`` of lattice points given as user options, each
    canonicalized first, as ``period``'s directional scan reads them."""
    boards = [canonicalize(p, rules.family) for p in points]
    return tables.board_values(rules, convention, boards)


def three_column_domain(max_a1, max_extent):
    """Raw triples (a1, a2, a3) with a1 <= max_a1 and a3 - a1 <= max_extent,
    in lexicographic order: the boards of the windows that the rasters, the
    translation check and the bulk check read."""
    extents = list(combinations_with_replacement(range(max_extent + 1), 2))
    return ((a1, a1 + d2, a1 + d3) for a1 in range(max_a1 + 1) for d2, d3 in extents)
