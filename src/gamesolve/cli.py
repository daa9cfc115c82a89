"""Command-line front end: solve positions, verify the known closed
forms against the brute-force engine, scan periodicity, emit figures.

Exit codes: 0 success/verified, 1 counterexamples found, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import tables
from .core import (
    MAX_ENTRY,
    Convention,
    Family,
    GameError,
    RuleSet,
    canonicalize,
    parse_position,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLES = 1
EXIT_USAGE = 2


def game_of(opts) -> tuple[RuleSet, Convention]:
    """The rule set and convention the --game options ask for; a parameter
    the family takes defaults to 2 (k) or 1 (add_limit), one it does not
    take is rejected by RuleSet."""
    family, k, add_limit = Family(opts.game), opts.k, opts.add_limit
    if family is Family.EXTENDED_NIM:
        add_limit = 1 if add_limit is None else add_limit
    elif family.takes_k and k is None:
        k = 2
    return RuleSet(family, k, add_limit), Convention(opts.convention)


def solve_position(rules: RuleSet, convention: Convention, boards: list) -> list:
    """One result dict per canonical board, in order: its outcome, and in
    normal play its Grundy value (P iff 0).  The loopy extended families
    are answered by their base family's closed form, ``nim_value`` (no
    route shows that play ends): ``verify --theorem thm6-*`` checks the
    normal-play answers for local consistency, no sweep the misere ones.
    The others are answered by ``tables.board_values``."""
    normal = convention is Convention.NORMAL
    asked = None if normal else convention  # None: Grundy values
    if rules.family.loopy:
        from . import closedforms

        values = [closedforms.nim_value(rules.k, asked, b) for b in boards]
    else:
        values = tables.board_values(rules, asked, boards)
    if normal:
        return [{"outcome": "P" if g == 0 else "N", "grundy": g} for g in values]
    return [{"outcome": "P" if v else "N", "grundy": None} for v in values]


# ---------------------------------------------------------------------------
# commands


def cmd_outcome(opts) -> int:
    rules, convention = game_of(opts)
    raw = parse_position(opts.position)
    p = canonicalize(raw, rules.family)
    result = {"position": list(p)}
    result.update(solve_position(rules, convention, [p])[0])
    if opts.moves:
        from . import games

        result["moves"] = [r._asdict() for r in games.move_records(rules, p)]
    print(json.dumps(result))
    return EXIT_OK


def cmd_verify(opts) -> int:
    from .theorems import verify_theorem

    report = verify_theorem(opts.theorem, opts)
    print(json.dumps({"theorem": opts.theorem, **report.to_dict()}))
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLES


def _parse_a1_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise ValueError(f"--a1 must be an int or lo..hi, not {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty --a1 range {text!r}")
    if lo < 0:
        raise ValueError(f"--a1 must be >= 0, not {text!r}")
    if hi > MAX_ENTRY:
        raise ValueError(f"--a1 must be <= {MAX_ENTRY}, not {text!r}")
    return range(lo, hi + 1)


def cmd_figure(opts) -> int:
    from . import analysis

    rules, convention = game_of(opts)
    a1_values = _parse_a1_range(opts.a1)
    grids = analysis.figure_grids(
        rules, convention, a1_values, opts.width, opts.height, opts.triangular
    )
    out_dir = Path(opts.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "pbm" if opts.format == "pbm" else "txt"
    for a1, grid in zip(a1_values, grids):
        path = out_dir / f"fig-a1-{a1}.{ext}"
        if opts.format == "pbm":
            path.write_bytes(analysis.render_pbm(grid))
        else:
            path.write_text(analysis.render_ascii(grid))
        print(path)
    return EXIT_OK


def cmd_period(opts) -> int:
    from . import analysis

    rules, convention = game_of(opts)
    if opts.translation is not None:
        [report] = analysis.translation_period_check(
            rules, convention, opts.max_a1, opts.max_extent, [opts.translation]
        )
        print(json.dumps({"translation": opts.translation, **report.to_dict()}))
        return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLES
    if opts.base is None or opts.direction is None:
        raise ValueError("need --base and --direction (or --translation)")
    report = analysis.directional_period(
        lambda points: tables.board_values(
            rules, convention, [canonicalize(p, rules.family) for p in points]
        ),
        opts.base, opts.direction, opts.probe, opts.max_period, opts.max_preperiod,
    )
    print(json.dumps(report._asdict()))
    return EXIT_OK


def cmd_batch(opts) -> int:
    """Solve each --input line that is neither blank nor a ``#`` comment, in
    one process and one ``solve_position`` call, and print one JSON object
    per line in input order; a line that does not canonicalize gets its
    error, and the run exits 1.  --threads is accepted but has no effect:
    a worker's tables cost as much as the whole run's, so worker processes
    only duplicated work."""
    rules, convention = game_of(opts)
    results, boards = [], []
    for line in Path(opts.input).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            p = canonicalize(parse_position(line), rules.family)
        except (GameError, ValueError) as exc:
            results.append({"input": line, "error": f"{type(exc).__name__}: {exc}"})
            continue
        results.append({"input": line, "position": list(p)})
        boards.append(p)
    solved = iter(solve_position(rules, convention, boards))
    for result in results:
        if "error" not in result:
            result.update(next(solved))
        print(json.dumps(result))
    return EXIT_COUNTEREXAMPLES if any("error" in r for r in results) else EXIT_OK


# ---------------------------------------------------------------------------
# the option table


def _integers(text: str) -> tuple:
    """The comma-separated integers of a --base or --direction, as given:
    unlike a position, "0" is one zero, not the empty board."""
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, not {text!r}"
        ) from None


def _theorems() -> dict:
    """THEOREMS; its module, and the closed forms it checks, load on first
    use, so only verify compiles them."""
    from .theorems import THEOREMS

    return THEOREMS


class Option(NamedTuple):
    """One command-line option."""

    flags: tuple  # the first is the one usage shows
    # its type or choices, or its action; or a function giving them, called
    # only when a parser of a subcommand that reads the option is built
    kwargs: dict | Callable = {}
    least: int | None = None  # its least value, if it has one
    help: str | None = None


INT = {"type": int}
FLAG = {"action": "store_true"}
OPTIONS = {
    "game": Option(("--game",), {"choices": [f.value for f in Family]}),
    "k": Option(("--k",), INT, 1),
    "add_limit": Option(("--add-limit",), INT, 1),
    "convention": Option(("--convention",), {"choices": [c.value for c in Convention]}),
    "position": Option(("--position",)),
    "moves": Option(("--moves",), FLAG, help="also list legal moves"),
    "theorem": Option(("--theorem",), lambda: {"choices": sorted(_theorems())}),
    "max_piles": Option(("--max-piles", "--max-cols", "--max-heaps"), INT, 1),
    "max_entry": Option(("--max-height", "--max-entry"), INT, 1),
    "max_a1": Option(("--max-a1",), INT, 0),
    "max_extent": Option(("--max-extent",), INT, 0),
    "a1": Option(("--a1",), help="single value or lo..hi range"),
    "width": Option(("--width",), INT, 1),
    "height": Option(("--height",), INT, 1),
    "format": Option(("--format",), {"choices": ["pbm", "ascii"]}),
    "out": Option(("--out",)),
    "triangular": Option(("--triangular",), FLAG, help=(
        "render on (a2-a1, a3-a1) axes instead of (a2-a1, a3-a2)")),
    "base": Option(("--base",), {"type": _integers}),
    "direction": Option(("--direction",), {"type": _integers}),
    "probe": Option(("--probe",), INT),
    "max_period": Option(("--max-period",), INT, 1),
    "max_preperiod": Option(("--max-preperiod",), INT, 0),
    "translation": Option(("--translation",), INT, 1),
    "input": Option(("--input",)),
    "threads": Option(("--threads",), INT, 1, help="accepted; has no effect"),
}
REQUIRED = object()  # the default of an option that must be given


class Command(NamedTuple):
    """One subcommand.  A subcommand whose runs read different options
    names each run in ``modes()``, and ``mode(opts)`` picks the one asked
    for."""

    run: Callable
    help: str
    options: dict  # each option every run reads -> its default
    mode: Callable = lambda opts: None
    # each run -> each further option it reads -> its default, called only
    # when this subcommand's parser is built or its options checked
    modes: Callable = dict

    def parser_options(self) -> dict:
        """Each option of the subcommand -> its argparse default."""
        further = [name for reads in self.modes().values() for name in reads]
        return {**self.options, **dict.fromkeys(further)}


# the --game options -> their defaults; figure and period default to
# misere Diet Chomp
GAME = {"game": REQUIRED, "k": None, "add_limit": None, "convention": "normal"}
LATTICE_GAME = {**GAME, "game": "diet-chomp", "convention": "misere"}
COMMANDS = {
    "outcome": Command(cmd_outcome, "outcome/Grundy value of one position",
                       {**GAME, "position": REQUIRED, "moves": False}),
    # a run reads what its THEOREMS entry reads; verify_theorem applies
    # the entry's defaults
    "verify": Command(
        cmd_verify, "check a closed form against the solver", {"theorem": REQUIRED},
        lambda opts: opts.theorem,
        lambda: {name: dict.fromkeys((*t.bounds, *t.fixed, *t.params))
                 for name, t in _theorems().items()},
    ),
    "figure": Command(cmd_figure, "emit P-position rasters", {
        **LATTICE_GAME, "a1": REQUIRED, "width": 30, "height": 30, "format": "pbm",
        "out": ".", "triangular": False,
    }),
    "period": Command(
        cmd_period, "directional/translation periodicity", LATTICE_GAME,
        lambda opts: "the directional scan" if opts.translation is None
        else "the translation check",
        lambda: {"the directional scan": {"base": None, "direction": None,
                                          "probe": 60, "max_period": 16,
                                          "max_preperiod": 24},
                 "the translation check": {"translation": None, "max_a1": 12,
                                           "max_extent": 20}},
    ),
    "batch": Command(cmd_batch, "solve one position per input line",
                     {**GAME, "input": REQUIRED, "threads": None}),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand; if ``only`` is given, only that
    subcommand gets its options, so building the parser loads no more than
    that subcommand reads (verify's options load the theorem table)."""
    parser = argparse.ArgumentParser(
        prog="gamesolve",
        description="Solve and verify Nim variants, monotonic games, and Diet Chomp.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if only not in (None, name):
            continue
        for dest, default in command.parser_options().items():
            option, required = OPTIONS[dest], default is REQUIRED
            kwargs = option.kwargs() if callable(option.kwargs) else option.kwargs
            p.add_argument(
                *option.flags, dest=dest, required=required, help=option.help,
                default=None if required else default, **kwargs,
            )
    return parser


def check_options(opts) -> None:
    """Reject each given option below its least value or not read by the
    run asked for; give each option that run reads and that is not given
    its default."""
    command = COMMANDS[opts.command]
    mode = command.mode(opts)
    reads = {**command.options, **command.modes().get(mode, {})}
    for name in command.parser_options():
        value, least = getattr(opts, name), OPTIONS[name].least
        flag = "--" + name.replace("_", "-")
        if value is None:
            setattr(opts, name, reads.get(name))
        elif least is not None and value < least:
            raise ValueError(f"{flag} must be >= {least}")
        elif name not in reads:
            raise ValueError(f"{flag} does not apply to {mode}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the subcommand first named gets its options: nothing but -h can
    # come before it
    opts = build_parser(next((a for a in argv if a in COMMANDS), None)).parse_args(argv)
    try:
        check_options(opts)
        return COMMANDS[opts.command].run(opts)
    except (GameError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # a table too large for this machine
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
