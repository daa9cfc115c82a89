"""Byte-for-byte pins of the help and usage errors that ``gamesolve``
prints, so that building the parser one subcommand at a time changes
nothing a user sees.  argparse wraps help to the terminal width, so each
case runs at 80 columns."""

import pytest

from gamesolve.cli import main

# " ".join(args) -> (exit code, stdout, stderr)
EXPECTED = {
    "": (
        2,
        "",
        (
            "usage: gamesolve [-h] {outcome,verify,figure,period,batch} ...\n"
            "gamesolve: error: the following arguments are required: command\n"
        ),
    ),
    "--help": (
        0,
        (
            "usage: gamesolve [-h] {outcome,verify,figure,period,batch} ...\n"
            "\n"
            "Solve and verify Nim variants, monotonic games, and Diet Chomp.\n"
            "\n"
            "positional arguments:\n"
            "  {outcome,verify,figure,period,batch}\n"
            "    outcome             outcome/Grundy value of one position\n"
            "    verify              check a closed form against the solver\n"
            "    figure              emit P-position rasters\n"
            "    period              directional/translation periodicity\n"
            "    batch               solve one position per input line\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    "outcome --help": (
        0,
        (
            "usage: gamesolve outcome [-h] --game\n"
            "                         {nim,slow-nim,extended-nim,"
            "extended-slow-nim,monotonic-nim,monotonic-slow-nim,diet-chomp}\n"
            "                         [--k K] [--add-limit ADD_LIMIT]\n"
            "                         [--convention {normal,misere}] "
            "--position POSITION\n"
            "                         [--moves]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --game {nim,slow-nim,extended-nim,extended-slow-nim,"
            "monotonic-nim,monotonic-slow-nim,diet-chomp}\n"
            "  --k K\n"
            "  --add-limit ADD_LIMIT\n"
            "  --convention {normal,misere}\n"
            "  --position POSITION\n"
            "  --moves               also list legal moves\n"
        ),
        "",
    ),
    "verify --help": (
        0,
        (
            "usage: gamesolve verify [-h] --theorem\n"
            "                        {bulk-conjecture,cor2,lemma8,lemma9,"
            "thm1,thm3,thm4,thm5,thm6-grundy,thm6-pset,thm7}\n"
            "                        [--max-piles MAX_PILES] [--max-height "
            "MAX_ENTRY]\n"
            "                        [--k K] [--add-limit ADD_LIMIT]\n"
            "                        [--convention {normal,misere}] "
            "[--max-a1 MAX_A1]\n"
            "                        [--max-extent MAX_EXTENT]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --theorem {bulk-conjecture,cor2,lemma8,lemma9,thm1,thm3,thm4,"
            "thm5,thm6-grundy,thm6-pset,thm7}\n"
            "  --max-piles MAX_PILES, --max-cols MAX_PILES, --max-heaps "
            "MAX_PILES\n"
            "  --max-height MAX_ENTRY, --max-entry MAX_ENTRY\n"
            "  --k K\n"
            "  --add-limit ADD_LIMIT\n"
            "  --convention {normal,misere}\n"
            "  --max-a1 MAX_A1\n"
            "  --max-extent MAX_EXTENT\n"
        ),
        "",
    ),
    "figure --help": (
        0,
        (
            "usage: gamesolve figure [-h]\n"
            "                        [--game {nim,slow-nim,extended-nim,"
            "extended-slow-nim,monotonic-nim,monotonic-slow-nim,diet-chomp}]\n"
            "                        [--k K] [--add-limit ADD_LIMIT]\n"
            "                        [--convention {normal,misere}] --a1 A1 "
            "[--width WIDTH]\n"
            "                        [--height HEIGHT] [--format {pbm,"
            "ascii}] [--out OUT]\n"
            "                        [--triangular]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --game {nim,slow-nim,extended-nim,extended-slow-nim,"
            "monotonic-nim,monotonic-slow-nim,diet-chomp}\n"
            "  --k K\n"
            "  --add-limit ADD_LIMIT\n"
            "  --convention {normal,misere}\n"
            "  --a1 A1               single value or lo..hi range\n"
            "  --width WIDTH\n"
            "  --height HEIGHT\n"
            "  --format {pbm,ascii}\n"
            "  --out OUT\n"
            "  --triangular          render on (a2-a1, a3-a1) axes instead "
            "of (a2-a1,\n"
            "                        a3-a2)\n"
        ),
        "",
    ),
    "period --help": (
        0,
        (
            "usage: gamesolve period [-h]\n"
            "                        [--game {nim,slow-nim,extended-nim,"
            "extended-slow-nim,monotonic-nim,monotonic-slow-nim,diet-chomp}]\n"
            "                        [--k K] [--add-limit ADD_LIMIT]\n"
            "                        [--convention {normal,misere}] [--base "
            "BASE]\n"
            "                        [--direction DIRECTION] [--probe PROBE]\n"
            "                        [--max-period MAX_PERIOD]\n"
            "                        [--max-preperiod MAX_PREPERIOD]\n"
            "                        [--translation TRANSLATION] [--max-a1 "
            "MAX_A1]\n"
            "                        [--max-extent MAX_EXTENT]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --game {nim,slow-nim,extended-nim,extended-slow-nim,"
            "monotonic-nim,monotonic-slow-nim,diet-chomp}\n"
            "  --k K\n"
            "  --add-limit ADD_LIMIT\n"
            "  --convention {normal,misere}\n"
            "  --base BASE\n"
            "  --direction DIRECTION\n"
            "  --probe PROBE\n"
            "  --max-period MAX_PERIOD\n"
            "  --max-preperiod MAX_PREPERIOD\n"
            "  --translation TRANSLATION\n"
            "  --max-a1 MAX_A1\n"
            "  --max-extent MAX_EXTENT\n"
        ),
        "",
    ),
    "batch --help": (
        0,
        (
            "usage: gamesolve batch [-h] --game\n"
            "                       {nim,slow-nim,extended-nim,"
            "extended-slow-nim,monotonic-nim,monotonic-slow-nim,diet-chomp}\n"
            "                       [--k K] [--add-limit ADD_LIMIT]\n"
            "                       [--convention {normal,misere}] --input "
            "INPUT\n"
            "                       [--threads THREADS]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --game {nim,slow-nim,extended-nim,extended-slow-nim,"
            "monotonic-nim,monotonic-slow-nim,diet-chomp}\n"
            "  --k K\n"
            "  --add-limit ADD_LIMIT\n"
            "  --convention {normal,misere}\n"
            "  --input INPUT\n"
            "  --threads THREADS     accepted; has no effect\n"
        ),
        "",
    ),
    "bogus": (
        2,
        "",
        (
            "usage: gamesolve [-h] {outcome,verify,figure,period,batch} ...\n"
            "gamesolve: error: argument command: invalid choice: 'bogus' "
            "(choose from 'outcome', 'verify', 'figure', 'period', 'batch')\n"
        ),
    ),
    "verify --theorem bogus": (
        2,
        "",
        (
            "usage: gamesolve verify [-h] --theorem\n"
            "                        {bulk-conjecture,cor2,lemma8,lemma9,"
            "thm1,thm3,thm4,thm5,thm6-grundy,thm6-pset,thm7}\n"
            "                        [--max-piles MAX_PILES] [--max-height "
            "MAX_ENTRY]\n"
            "                        [--k K] [--add-limit ADD_LIMIT]\n"
            "                        [--convention {normal,misere}] "
            "[--max-a1 MAX_A1]\n"
            "                        [--max-extent MAX_EXTENT]\n"
            "gamesolve verify: error: argument --theorem: invalid choice: "
            "'bogus' (choose from 'bulk-conjecture', 'cor2', 'lemma8', "
            "'lemma9', 'thm1', 'thm3', 'thm4', 'thm5', 'thm6-grundy', "
            "'thm6-pset', 'thm7')\n"
        ),
    ),
    "outcome": (
        2,
        "",
        (
            "usage: gamesolve outcome [-h] --game\n"
            "                         {nim,slow-nim,extended-nim,"
            "extended-slow-nim,monotonic-nim,monotonic-slow-nim,diet-chomp}\n"
            "                         [--k K] [--add-limit ADD_LIMIT]\n"
            "                         [--convention {normal,misere}] "
            "--position POSITION\n"
            "                         [--moves]\n"
            "gamesolve outcome: error: the following arguments are required: "
            "--game, --position\n"
        ),
    ),
}


@pytest.mark.parametrize("key", EXPECTED, ids=lambda key: key or "no arguments")
def test_help_and_usage_errors_pinned(capsys, monkeypatch, key):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(key.split())
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == EXPECTED[key]
