"""gamesolve benchmark: runs the CLI on a named workload and checks every output.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload lattice-dc2 --seed 1 --seconds 40 --trace 0

``--workload all`` runs every workload, one pass of each in turn, and
prints every metric prefixed with its workload's name.

A pass times a CLI call that does no work (``setup_s``) a few times,
then runs each command of the workload once. Every call is its own
``python -m gamesolve.cli`` process (``src`` on the path) with a
timeout. Passes repeat while the next one still ends within
``--seconds``.

On a shared virtual machine the speed of a fresh Python process can
drift by half or more for seconds to minutes at a time. So every pass
also runs ``probe.py``, a fixed piece of Python work in a process of
its own, before, between and after its CLI calls, and each timing of
the pass is scaled by the probe's median time in that pass (see
``Pass.scaled``). The metrics are the medians of the scaled timings
over the passes; the report line also gives them unscaled.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` plain passes alternate with passes run through
``trace_cli.py``, and the line holds per-layer counts and self times.
The line before it is a JSON report: the seed, each command, and the
median, quartiles and sample count of each timing, raw and scaled, and
of the probe.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from oracle import Oracle
from workloads import SETUP_ARGS, WORKLOADS, batch_inputs

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
TRACE_CLI = Path(__file__).resolve().parent / "trace_cli.py"
WORK_DIR = ROOT / ".perfbench_work"

PROBE = Path(__file__).resolve().parent / "probe.py"

SETUP_PER_PASS = 3
MIN_ROUNDS = 3  # plain passes: each timing is a median of three or more
MIN_TRACED_ROUNDS = 2  # traced passes: their counts are compared
TIMEOUT_S = 30.0  # the slowest command takes 1-3 s on a shared 2-core host
TRACED_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 150.0  # per workload: no command runs past it, so a run ends in 180 s
# probe.py's median wall time, interpreter start included, on a 2-vCPU
# x86-64 VM running CPython 3; timings are given in seconds of a host on
# which the probe takes this long.
PROBE_REF_S = 0.08

END_TO_END_UNITS = {
    "wall_s": "s",
    "positions_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
PER_LAYER_UNITS = {
    "core.canonicalize.calls": "count",
    "core.canonicalize.self_s": "s",
    "games.expand.calls": "count",
    "games.records": "count",
    "games.edges": "count",
    "games.dedup_ratio": "edges/record",
    "games.self_s": "s",
    "solver.solve.calls": "count",
    "solver.memo_entries": "count",
    "solver.expand_per_entry": "expands/entry",
    "solver.nodes_per_solve": "entries/solve",
    "solver.self_s": "s",
    "solver.verify.self_s": "s",
    "closedforms.calls": "count",
    "closedforms.self_s": "s",
    "analysis.calls": "count",
    "analysis.self_s": "s",
    "cli.solve_position.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    timed_out: bool
    stdout: bytes


@dataclass
class Pass:
    probe_wall: list = field(default_factory=list)
    probe_cpu: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    command_wall: dict = field(default_factory=dict)
    trace: dict = field(
        default_factory=lambda: {"counts": {}, "self_s": {}, "memo_entries": 0, "memo_tables": 0}
    )

    def scaled(self) -> dict:
        """This pass's timings in seconds of a host on which the probe
        takes PROBE_REF_S: each is divided by the median probe time of
        the pass (wall by wall, CPU by CPU) and multiplied by PROBE_REF_S."""
        wall_scale = PROBE_REF_S / statistics.median(self.probe_wall)
        out = {
            "wall_s": self.wall * wall_scale,
            "cpu_s": self.cpu * PROBE_REF_S / statistics.median(self.probe_cpu),
        }
        if self.setup:
            out["setup_s"] = statistics.median(self.setup) * wall_scale
        return out


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def cli(self, args, cwd: Path, timeout: float, trace_out: Path | None = None) -> Sample:
        """Run one CLI process, traced through trace_cli.py if ``trace_out``."""
        if trace_out is None:
            return self.run([sys.executable, "-m", "gamesolve.cli", *args], cwd, timeout, self.env)
        env = dict(self.env, PERFBENCH_TRACE_OUT=str(trace_out))
        return self.run([sys.executable, str(TRACE_CLI), *args], cwd, timeout, env)

    def probe(self) -> Sample:
        s = self.run([sys.executable, str(PROBE)], self.work, TIMEOUT_S, self.env)
        if s.rc != 0 or s.timed_out:
            raise SystemExit(f"error: {PROBE.name} exited {s.rc}")
        return s

    def run(self, cmd, cwd: Path, timeout: float, env: dict) -> Sample:
        """Run one process with a timeout; time it, and read its rusage when it ends."""
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0:
            return Sample(0.0, 0.0, 0.0, -1, True, b"")
        out_path = self.work / "stdout.bin"
        with open(out_path, "wb") as out, open(self.work / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], timeout)
                if not ready:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
            proc.returncode,
            not ready,
            out_path.read_bytes(),
        )


class Bench:
    """One workload in one run: its inputs, its passes and its metrics."""

    def __init__(self, runner: Runner, oracle: Oracle, workload, seed: int, why: str):
        self.runner = runner
        self.oracle = oracle
        self.workload = workload
        self.why = why
        self.dir = runner.work / workload.name
        self.dir.mkdir()
        self.inputs = {}
        if any(c.input_file for c in workload.commands):
            self.inputs = batch_inputs(seed)
            for name, text in self.inputs.items():
                (self.dir / name).write_text(text)
        self.positions = sum(
            oracle.positions(workload, c, self.inputs.get(c.input_file))
            for c in workload.commands
        )
        self.plain: list[Pass] = []
        self.traced: list[Pass] = []

    def probe(self, p: Pass) -> None:
        s = self.runner.probe()
        p.probe_wall.append(s.wall)
        p.probe_cpu.append(s.cpu)

    def run_pass(self, traced: bool) -> Pass:
        """Run every command once, with the probe before, between and
        after the calls. A plain pass first times the no-op CLI call."""
        p = Pass()
        if not traced:
            self.probe(p)
            for _ in range(SETUP_PER_PASS):
                s = self.runner.cli(SETUP_ARGS, self.dir, TIMEOUT_S)
                p.setup.append(s.wall)
                p.attempted += 1
                p.failed += not self.oracle.setup_ok(s)
        for c in self.workload.commands:
            for rel in c.files:
                (self.dir / rel).unlink(missing_ok=True)
            trace_out = self.dir / "trace.json" if traced else None
            if trace_out is not None:
                trace_out.unlink(missing_ok=True)
            self.probe(p)
            s = self.runner.cli(
                c.args, self.dir, TRACED_TIMEOUT_S if traced else TIMEOUT_S, trace_out
            )
            verdict = self.oracle.check(
                self.workload, c, s, self.dir, self.inputs.get(c.input_file)
            )
            if verdict.failed:
                print(f"{self.workload.name}/{c.name}: {verdict.failed} of "
                      f"{verdict.attempted} outputs wrong (exit {s.rc}, "
                      f"timed out {s.timed_out})", file=sys.stderr)
            p.wall += s.wall
            p.cpu += s.cpu
            p.rss_mb = max(p.rss_mb, s.rss_mb)
            p.attempted += verdict.attempted
            p.failed += verdict.failed
            p.command_wall[c.name] = s.wall
            if trace_out is not None and trace_out.is_file():
                _add_trace(p.trace, json.loads(trace_out.read_text()))
        self.probe(p)
        (self.traced if traced else self.plain).append(p)
        return p

    def passes(self):
        return self.plain + self.traced

    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes())

    def failed(self) -> int:
        return sum(p.failed for p in self.passes())

    def scaled(self, name: str, traced: bool = False) -> list[float]:
        return [p.scaled()[name] for p in (self.traced if traced else self.plain)]

    def end_to_end(self) -> dict:
        """Medians over the plain passes, timings scaled by the probe."""
        wall = statistics.median(self.scaled("wall_s"))
        values = {
            "wall_s": wall,
            "positions_per_s": self.positions / wall,
            "cpu_s": statistics.median(self.scaled("cpu_s")),
            "setup_s": statistics.median(self.scaled("setup_s")),
            "peak_rss_mb": max(p.rss_mb for p in self.plain),
            "ok_frac": 1.0 - self.failed() / self.attempted(),
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    def per_layer(self) -> dict:
        t = self.traced[0].trace
        counts = t["counts"]

        def c(name):
            return counts.get(name, 0)

        def layer_s(layer):
            return statistics.median([p.trace["self_s"].get(layer, 0.0) for p in self.traced])

        entries = t["memo_entries"]
        values = {
            "core.canonicalize.calls": c("core.canonicalize.calls"),
            "core.canonicalize.self_s": layer_s("core"),
            "games.expand.calls": c("games.expand.calls"),
            "games.records": c("games.records"),
            "games.edges": c("games.edges"),
            "games.dedup_ratio": _ratio(c("games.edges"), c("games.records")),
            "games.self_s": layer_s("games"),
            "solver.solve.calls": c("solver.solve.calls"),
            "solver.memo_entries": entries,
            "solver.expand_per_entry": _ratio(c("solver.expand"), entries),
            "solver.nodes_per_solve": _ratio(entries, c("solver.solve.calls")),
            "solver.self_s": layer_s("solver"),
            "solver.verify.self_s": layer_s("solver.verify"),
            "closedforms.calls": c("closedforms.calls"),
            "closedforms.self_s": layer_s("closedforms"),
            "analysis.calls": c("analysis.calls"),
            "analysis.self_s": layer_s("analysis"),
            "cli.solve_position.calls": c("cli.solve_position.calls"),
            "cli.self_s": layer_s("cli"),
            "trace.overhead_s": statistics.median(self.scaled("wall_s", traced=True))
            - statistics.median(self.scaled("wall_s")),
        }
        return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}

    def counts_repeat(self) -> bool:
        """Two or more traced passes of one seed count exactly the same work."""
        first = self.traced[0].trace
        return len(self.traced) >= MIN_TRACED_ROUNDS and all(
            p.trace["counts"] == first["counts"]
            and p.trace["memo_entries"] == first["memo_entries"]
            for p in self.traced
        )

    def report(self) -> dict:
        out = {
            "why": self.why,
            "commands": {c.name: " ".join(c.args) for c in self.workload.commands},
            "positions_per_pass": self.positions,
            "probe_wall_s": _spread([w for p in self.plain for w in p.probe_wall]),
            "raw_wall_s": _spread([p.wall for p in self.plain]),
            "raw_setup_s": _spread([w for p in self.plain for w in p.setup]),
            **{name: _spread(self.scaled(name)) for name in ("wall_s", "cpu_s", "setup_s")},
            "command_wall_s": {
                c.name: [round(p.command_wall[c.name], 4) for p in self.plain]
                for c in self.workload.commands
            },
        }
        if self.traced:
            out["traced_wall_s"] = _spread(self.scaled("wall_s", traced=True))
            out["trace_counts_repeat"] = self.counts_repeat()
            out["memo_tables"] = self.traced[0].trace["memo_tables"]
        return out


def _add_trace(into: dict, t: dict) -> None:
    for k, v in t["counts"].items():
        into["counts"][k] = into["counts"].get(k, 0) + v
    for k, v in t["self_s"].items():
        into["self_s"][k] = into["self_s"].get(k, 0.0) + v
    into["memo_entries"] += t["memo_entries"]
    into["memo_tables"] += t["memo_tables"]


def _spread(values) -> dict:
    """Median, quartiles and sample count of a timing."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": q[1], "q1": q[0], "q3": q[2], "n": len(values)}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def measure(benches: list[Bench], seconds: float, trace: bool) -> None:
    """Run rounds of passes, one pass of each workload per round (a plain
    and a traced one when tracing), while the next round would still end
    within ``seconds`` per workload, and at least MIN_ROUNDS (traced:
    MIN_TRACED_ROUNDS) rounds."""
    budget = seconds * len(benches)
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    start = time.perf_counter()
    rounds = []
    while time.monotonic() < benches[0].runner.deadline:
        round_start = time.perf_counter()
        for b in benches:
            b.run_pass(traced=False)
            if trace:
                b.run_pass(traced=True)
        rounds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + statistics.median(rounds) > budget:
            break


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    opts = parse_args(argv)
    if not (ROOT / "src" / "gamesolve" / "cli.py").is_file():
        print(f"error: no gamesolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if opts.workload == "all" else [opts.workload]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        runner = Runner(work, time.monotonic() + RUN_DEADLINE_S * len(names))
        oracle = Oracle()
        whys = {w["name"]: w["why"] for w in json.loads(BENCHMARK.read_text())["workloads"]}
        benches = [Bench(runner, oracle, WORKLOADS[n], opts.seed, whys[n]) for n in names]
        # Warm-up: compiles bytecode so that no timed call pays for it.
        warm = runner.cli(SETUP_ARGS, work, TIMEOUT_S)
        if warm.rc != 0:
            print("error: the CLI does not start", file=sys.stderr)
            return 3
        measure(benches, opts.seconds, bool(opts.trace))
        results = {
            b.workload.name: b.per_layer() if opts.trace else b.end_to_end()
            for b in benches
        }
        report = {
            "seed": opts.seed,
            "seconds": opts.seconds,
            "workloads": {b.workload.name: b.report() for b in benches},
        }
        print(json.dumps({"report": report}))
        attempted = sum(b.attempted() for b in benches)
        failed = sum(b.failed() for b in benches)
        if len(benches) == 1:
            metrics = results[names[0]]
        else:
            metrics = {f"{w}.{k}": v for w, m in results.items() for k, v in m.items()}
        stable = all(b.counts_repeat() for b in benches) if opts.trace else True
        print(json.dumps({
            "correct": failed == 0 and stable,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    sys.exit(main())
