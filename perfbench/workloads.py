"""Workload definitions and the seeded request generator.

A workload is a fixed list of gamesolve CLI commands. Only
``batch-requests`` depends on the seed: its two request files are drawn
from fixed domains by stratified sampling, so every seed gives different
lines but about the same amount of solver work. The per-seed spread of
wall time then reflects the host, not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DC2_MISERE = ["--game", "diet-chomp", "--k", "2", "--convention", "misere"]
FIGURE_A1 = range(0, 4)
FIGURE_SIDE = 24

# Request domains; the reference table in ref/batch-domain.json covers them.
DC3_MAX = 12  # a1 and both gaps of a three-column board are drawn from 0..12
DC3_LINES = 16
COLUMN_STRATA = ((300, 400), (400, 500), (500, 600), (600, 701))
NIM_MAX_HEAPS = 4
NIM_MAX_HEAP = 10
NIM_LINES = 32
# The costliest tenth of each domain is left out: one draw from it can
# cost as much as the rest of a file, so the total work would vary with
# the seed. Without it, the proxy cost of a file varies by 2-4 % (IQR).
KEPT_BY_COST = 0.9


@dataclass(frozen=True)
class Command:
    """One CLI invocation. ``kind`` says how its outputs are checked and
    counted: "report" (one JSON line with ``checked``), "figure" (stdout
    plus one raster file per a1) or "batch" (one JSON line per request)."""

    name: str
    args: tuple
    kind: str = "report"
    files: tuple = ()
    input_file: str | None = None


@dataclass(frozen=True)
class Workload:
    """A named list of commands; why each workload exists is in BENCHMARK.json."""

    name: str
    commands: tuple


def _figure_files():
    return tuple(f"figs/fig-a1-{a1}.pbm" for a1 in FIGURE_A1)


LATTICE = Workload(
    "lattice-dc2",
    (
        Command(
            "period-translation",
            ("period", *DC2_MISERE, "--translation", "12", "--max-a1", "6",
             "--max-extent", "14"),
        ),
        Command(
            "figure",
            ("figure", *DC2_MISERE, "--a1", f"{FIGURE_A1[0]}..{FIGURE_A1[-1]}",
             "--width", str(FIGURE_SIDE), "--height", str(FIGURE_SIDE),
             "--format", "pbm", "--out", "figs"),
            kind="figure",
            files=_figure_files(),
        ),
        Command(
            "verify-bulk",
            ("verify", "--theorem", "bulk-conjecture", "--max-a1", "9",
             "--max-extent", "18"),
        ),
        Command(
            "verify-lemma8",
            ("verify", "--theorem", "lemma8", "--max-cols", "4",
             "--max-height", "10"),
        ),
        Command("verify-lemma9", ("verify", "--theorem", "lemma9")),
    ),
)

VERIFY_NIM = Workload(
    "verify-nim",
    (
        Command("thm1", ("verify", "--theorem", "thm1", "--max-heaps", "4",
                         "--max-entry", "12")),
        Command("cor2", ("verify", "--theorem", "cor2", "--max-entry", "12")),
        Command("thm3", ("verify", "--theorem", "thm3", "--max-entry", "12")),
        Command("thm4", ("verify", "--theorem", "thm4")),
        Command("thm5", ("verify", "--theorem", "thm5")),
        Command("thm6-grundy", ("verify", "--theorem", "thm6-grundy")),
        Command("thm6-pset", ("verify", "--theorem", "thm6-pset")),
        Command("thm7", ("verify", "--theorem", "thm7", "--max-cols", "4",
                         "--max-entry", "11")),
    ),
)

BATCH = Workload(
    "batch-requests",
    (
        Command(
            "batch-dc2",
            ("batch", *DC2_MISERE, "--input", "dc2.txt", "--threads", "1"),
            kind="batch",
            input_file="dc2.txt",
        ),
        Command(
            "batch-nim",
            ("batch", "--game", "nim", "--input", "nim.txt", "--threads", "1"),
            kind="batch",
            input_file="nim.txt",
        ),
    ),
)

WORKLOADS = {w.name: w for w in (LATTICE, VERIFY_NIM, BATCH)}

# A CLI call that does no work: interpreter start, import and parser only.
SETUP_ARGS = ("outcome", "--game", "nim", "--position", "0")


# ---------------------------------------------------------------------------
# seeded request generation


def dc3_domain():
    """Raw three-column boards (a1, a1+g1, a1+g1+g2), a1, g1, g2 in 0..DC3_MAX."""
    r = range(DC3_MAX + 1)
    return [(a1, a1 + g1, a1 + g1 + g2) for a1 in r for g1 in r for g2 in r]


def nim_domain():
    """Sorted heap tuples with 1..NIM_MAX_HEAPS heaps of 0..NIM_MAX_HEAP."""
    out = []

    def rec(prefix, lo):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == NIM_MAX_HEAPS:
            return
        for v in range(lo, NIM_MAX_HEAP + 1):
            rec(prefix + [v], v)

    rec([], 0)
    return out


def dc3_cost(board) -> int:
    """Proxy for the solver work on one board: every Young diagram inside
    it is a node, and generating a node's moves costs about
    b1 + 2*b2 + 3*b3."""
    a1, a2, a3 = board
    total = 0
    for b2 in range(a2 + 1):
        n3 = a3 - b2 + 1
        sum3 = (b2 + a3) * n3 // 2
        for b1 in range(min(a1, b2) + 1):
            total += n3 * (4 + b1 + 2 * b2) + 3 * sum3
    return total


def nim_cost(heaps) -> int:
    """Proxy for the solver work on one Nim line: the count of dominated
    heap vectors times the moves per node."""
    nodes = 1
    for h in heaps:
        nodes *= h + 1
    return nodes * (2 + sum(heaps))


def stratified(rng: random.Random, domain, cost, n: int):
    """One draw from each of n equal strata of the domain ordered by cost,
    its costliest part left out."""
    ranked = sorted(domain, key=lambda x: (cost(x), x))
    ranked = ranked[: int(KEPT_BY_COST * len(ranked))]
    picks = []
    for i in range(n):
        lo = i * len(ranked) // n
        hi = (i + 1) * len(ranked) // n
        picks.append(ranked[rng.randrange(lo, hi)])
    return picks


def batch_inputs(seed: int) -> dict:
    """The two request files of ``batch-requests`` for this seed."""
    rng = random.Random(seed)
    dc2 = [",".join(map(str, b)) for b in stratified(rng, dc3_domain(), dc3_cost, DC3_LINES)]
    dc2 += [str(rng.randrange(lo, hi)) for lo, hi in COLUMN_STRATA]
    rng.shuffle(dc2)
    nim = []
    for heaps in stratified(rng, nim_domain(), nim_cost, NIM_LINES):
        heaps = list(heaps)
        rng.shuffle(heaps)
        nim.append(",".join(map(str, heaps)))
    rng.shuffle(nim)
    return {
        "dc2.txt": "# seed %d\n" % seed + "\n".join(dc2) + "\n",
        "nim.txt": "# seed %d\n" % seed + "\n".join(nim) + "\n",
    }
