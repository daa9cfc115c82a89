"""Position lists that the tests share."""

from itertools import combinations_with_replacement


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


def three_column_domain(max_a1, max_extent):
    """Raw triples (a1, a2, a3) with a1 <= max_a1 and a3 - a1 <= max_extent,
    in lexicographic order: the boards of the windows that the rasters, the
    translation check and the bulk check read."""
    extents = list(combinations_with_replacement(range(max_extent + 1), 2))
    return ((a1, a1 + d2, a1 + d3) for a1 in range(max_a1 + 1) for d2, d3 in extents)
