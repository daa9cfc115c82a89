"""Output checks against the seed program's bytes and independent closed forms.

References live in ``ref/``: one stdout file (and any written files) per
fixed command, and for ``batch-requests`` a table of the seed program's
answer for every position its request generator can draw. A batch
line's expected bytes are rebuilt from that table in the CLI's own line
format. Nim lines must also satisfy grundy == XOR of the heaps, and
single-column misere 2-Diet Chomp lines are P iff the height is 1 mod 3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import xor
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"
BATCH_TABLE = REF_DIR / "batch-domain.json"


@dataclass
class Verdict:
    attempted: int
    failed: int


def stdout_ref(workload: str, command: str) -> Path:
    return REF_DIR / workload / f"{command}.stdout"


def file_ref(workload: str, command: str, rel: str) -> Path:
    return REF_DIR / workload / command / rel


def canonical(game: str, raw: tuple) -> tuple:
    """The CLI's canonical form for the two families the batch uses."""
    if game == "nim":
        return tuple(sorted(e for e in raw if e > 0))
    return tuple(e for e in raw if e > 0)


def request_lines(text: str) -> list[str]:
    return [
        s for s in (line.strip() for line in text.splitlines())
        if s and not s.startswith("#")
    ]


def _game(command) -> str:
    return command.args[command.args.index("--game") + 1]


class Oracle:
    def __init__(self):
        self.tables = json.loads(BATCH_TABLE.read_text())
        self.setup_stdout = (REF_DIR / "setup.stdout").read_bytes()

    def setup_ok(self, sample) -> bool:
        return sample.rc == 0 and not sample.timed_out and sample.stdout == self.setup_stdout

    def positions(self, workload, command, input_text=None) -> int:
        """Positions a command checks or solves, from its reference."""
        if command.kind == "report":
            ref = json.loads(stdout_ref(workload.name, command.name).read_bytes())
            return ref["checked"]
        if command.kind == "figure":
            args = command.args
            width = int(args[args.index("--width") + 1])
            height = int(args[args.index("--height") + 1])
            return len(command.files) * width * height
        return len(request_lines(input_text))

    def expected_batch(self, command, input_text: str) -> list[bytes]:
        game = _game(command)
        table = self.tables[command.name]
        out = []
        for line in request_lines(input_text):
            p = canonical(game, tuple(int(t) for t in line.split(",")))
            outcome, grundy = table[",".join(map(str, p))]
            result = {"input": line, "position": list(p), "outcome": outcome,
                      "grundy": grundy}
            out.append(json.dumps(result).encode())
        return out

    def check(self, workload, command, sample, cwd: Path, input_text=None) -> Verdict:
        """Count the command's outputs and how many of them are wrong."""
        if command.kind == "batch":
            expected = self.expected_batch(command, input_text)
            n = len(expected)
            if sample.rc != 0 or sample.timed_out:
                return Verdict(n, n)
            actual = sample.stdout.splitlines()
            if len(actual) != n:
                return Verdict(n, n)
            game = _game(command)
            bad = sum(
                1 for a, e in zip(actual, expected)
                if a != e or not closed_form_holds(game, a)
            )
            return Verdict(n, bad)
        refs = [(sample.stdout, stdout_ref(workload.name, command.name).read_bytes())]
        for rel in command.files:
            path = cwd / rel
            got = path.read_bytes() if path.is_file() else None
            refs.append((got, file_ref(workload.name, command.name, rel).read_bytes()))
        n = len(refs)
        if sample.rc != 0 or sample.timed_out:
            return Verdict(n, n)
        return Verdict(n, sum(1 for got, want in refs if got != want))


def closed_form_holds(game: str, line: bytes) -> bool:
    """Independent check of one batch answer where a closed form is known."""
    try:
        result = json.loads(line)
        p = result["position"]
        outcome = result["outcome"]
    except (ValueError, KeyError, TypeError):
        return False
    if game == "nim":
        g = reduce(xor, p, 0)
        return result.get("grundy") == g and outcome == ("P" if g == 0 else "N")
    if len(p) == 1:
        return outcome == ("P" if p[0] % 3 == 1 else "N")
    return True
