"""Run the gamesolve CLI with spans around the calls into each module.

Usage: PERFBENCH_TRACE_OUT=trace.json python3 perfbench/trace_cli.py <cli args>

Each traced function is replaced where its caller looks it up, so the
program itself is unchanged and its stdout stays byte for byte the
same. A span is opened only when a call crosses into another layer; a
layer's self time is its spans' time minus the time of the spans they
cause. Counts and self times are written as JSON to the file named by
``PERFBENCH_TRACE_OUT`` when the CLI returns.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

from gamesolve import analysis, cli, closedforms, core, games, solver

LAYERS = ("core", "games", "solver", "solver.verify", "closedforms", "analysis", "cli")


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.memos = {}
        # frames are [layer, start, time spent in child spans]; install()
        # starts the root frame
        self.stack = [["cli", 0.0, 0.0]]

    def wrap(self, fn, layer, counter, after=None):
        """Return fn counted under ``counter`` and timed under ``layer``.
        ``after(result, args, caller_layer)`` records per-call counts."""
        stack, counts, self_s, clock = self.stack, self.counts, self.self_s, time.perf_counter

        def traced(*args, **kwargs):
            counts[counter] += 1
            caller = stack[-1][0]
            if caller == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, clock(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - frame[1]
                    stack.pop()
                    self_s[layer] += elapsed - frame[2]
                    stack[-1][2] += elapsed
            if after is not None:
                after(result, args, caller)
            return result

        return traced

    def patch(self, module, name, layer, counter, after=None):
        setattr(module, name, self.wrap(getattr(module, name), layer, counter, after))

    def install(self):
        counts = self.counts

        def on_successors(result, args, caller):
            counts["games.edges"] += len(result)
            if caller == "solver":
                counts["solver.expand"] += 1

        def on_records(result, args, caller):
            counts["games.records"] += len(result)

        def on_solve(result, args, caller):
            memo = next((a for a in args if isinstance(a, solver.MemoTable)), None)
            if memo is not None:
                self.memos[id(memo)] = memo

        self.patch(solver, "successors", "games", "games.expand.calls", on_successors)
        self.patch(games, "move_records", "games", "games.move_records.calls", on_records)
        for module in (core, games, cli, analysis):
            self.patch(module, "canonicalize", "core", "core.canonicalize.calls")
        for name in ("outcome", "grundy"):
            self.patch(solver, name, "solver", "solver.solve.calls", on_solve)
        for name in ("verify_pset", "verify_grundy_consistency"):
            self.patch(solver, name, "solver.verify", "solver.verify.calls")
        for module in (closedforms, analysis):
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(module).items()):
                if _public_function(module, name, fn):
                    self.patch(module, name, layer, f"{layer}.calls")
        self.patch(cli, "solve_position", "cli", "cli.solve_position.calls")
        self.stack[0][1] = time.perf_counter()

    def finish(self) -> dict:
        root = self.stack[0]
        self.self_s["cli"] += time.perf_counter() - root[1] - root[2]
        memo_entries = sum(
            len(m.grundy_values) + len(m.outcomes) for m in self.memos.values()
        )
        return {
            "counts": dict(self.counts),
            "self_s": self.self_s,
            "memo_entries": memo_entries,
            "memo_tables": len(self.memos),
        }


def _public_function(module, name, fn) -> bool:
    return (
        not name.startswith("_")
        and callable(fn)
        and not isinstance(fn, type)
        and getattr(fn, "__module__", None) == module.__name__
    )


def main() -> int:
    out = os.environ["PERFBENCH_TRACE_OUT"]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        with open(out, "w") as f:
            json.dump(tracer.finish(), f)


if __name__ == "__main__":
    sys.exit(main())
