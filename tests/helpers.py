"""Position lists that the tests share."""


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
