"""A fixed piece of pure-Python work that does not use gamesolve.

Usage: python3 perfbench/probe.py

run.py starts it as a process of its own between CLI calls, so that its
wall time, interpreter start included, shows how fast the host runs a
fresh Python process at that moment. Its work is like the solver's:
a memoised Grundy recursion over sorted tuples of heaps.
"""

HEAPS = (11, 10, 9)


def grundy(position, memo):
    value = memo.get(position)
    if value is not None:
        return value
    seen = set()
    for i, heap in enumerate(position):
        for smaller in range(heap):
            child = tuple(sorted(position[:i] + (smaller,) + position[i + 1:]))
            seen.add(grundy(child, memo))
    value = 0
    while value in seen:
        value += 1
    memo[position] = value
    return value


if __name__ == "__main__":
    print(grundy(HEAPS, {}))
