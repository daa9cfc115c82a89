"""Write the reference outputs in ref/ from the program in this checkout.

Usage: python3 perfbench/make_refs.py

Run it only at a commit whose outputs are known to be right (the
references in ref/ were written at the commit that added the
benchmark). It stores each fixed command's stdout and written files,
and the answer to every request the batch generator can draw, taken
from the CLI's own ``batch`` output.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from oracle import BATCH_TABLE, REF_DIR, canonical, file_ref, stdout_ref
from run import WORK_DIR, Runner
from workloads import (
    COLUMN_STRATA,
    SETUP_ARGS,
    WORKLOADS,
    dc3_domain,
    nim_domain,
)

TIMEOUT_S = 3600.0  # the batch table takes minutes


def run_ok(runner: Runner, args, cwd):
    s = runner.cli(args, cwd, TIMEOUT_S)
    if s.rc != 0 or s.timed_out:
        sys.exit(f"error: {' '.join(args)} exited {s.rc}")
    return s


def batch_table(runner: Runner, command, positions, work) -> dict:
    """The CLI's answer for each canonical position, solved by ``batch``."""
    (work / command.input_file).write_text(
        "\n".join(",".join(map(str, p)) or "0" for p in positions) + "\n"
    )
    s = run_ok(runner, (*command.args, "--threads", "2"), work)
    table = {}
    for line in s.stdout.splitlines():
        result = json.loads(line)
        table[",".join(map(str, result["position"]))] = [result["outcome"], result["grundy"]]
    return table


def dump_tables(tables: dict) -> str:
    """JSON with one position per line, so that a changed answer shows in a diff."""
    blocks = []
    for name, table in tables.items():
        rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table.items())
        blocks.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="refs-", dir=WORK_DIR))
    try:
        REF_DIR.mkdir(exist_ok=True)
        for w in WORKLOADS.values():
            shutil.rmtree(REF_DIR / w.name, ignore_errors=True)
        runner = Runner(work, time.monotonic() + 24 * 3600)
        (REF_DIR / "setup.stdout").write_bytes(run_ok(runner, SETUP_ARGS, work).stdout)
        for w in WORKLOADS.values():
            for c in w.commands:
                if c.kind == "batch":
                    continue
                s = run_ok(runner, c.args, work)
                stdout_ref(w.name, c.name).parent.mkdir(parents=True, exist_ok=True)
                stdout_ref(w.name, c.name).write_bytes(s.stdout)
                for rel in c.files:
                    dest = file_ref(w.name, c.name, rel)
                    dest.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(work / rel, dest)
                print(f"{w.name}/{c.name}: {s.wall:.1f} s", flush=True)
        dc2, nim = WORKLOADS["batch-requests"].commands
        dc2_positions = sorted({canonical("diet-chomp", b) for b in dc3_domain()})
        dc2_positions += [(h,) for lo, hi in COLUMN_STRATA for h in range(lo, hi)]
        nim_positions = sorted({canonical("nim", h) for h in nim_domain()})
        tables = {
            dc2.name: batch_table(runner, dc2, dc2_positions, work),
            nim.name: batch_table(runner, nim, nim_positions, work),
        }
        BATCH_TABLE.write_text(dump_tables(tables))
        print(f"batch table: {sum(map(len, tables.values()))} positions")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
