from argparse import Namespace
from collections import Counter
from itertools import product
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gamesolve import (
    Convention,
    Family,
    RuleSet,
    VerificationReport,
    analysis,
    cli,
    closedforms,
    games,
    solver,
    tables,
    theorems,
)
from gamesolve.cli import main
from gamesolve.solver import verify_pset
from helpers import positions, raw_sequences, recursive_positions


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_outcome_nim(capsys):
    code, out, _ = run(
        capsys, "outcome", "--game", "nim", "--convention", "normal",
        "--position", "1,2,3",
    )
    assert code == 0
    result = json.loads(out)
    assert result == {"position": [1, 2, 3], "outcome": "P", "grundy": 0}


def test_outcome_diet_chomp_normal(capsys):
    code, out, _ = run(
        capsys, "outcome", "--game", "diet-chomp", "--k", "2",
        "--convention", "normal", "--position", "1,2,3",
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "P"


def test_outcome_diet_chomp_misere(capsys):
    code, out, _ = run(
        capsys, "outcome", "--game", "diet-chomp", "--k", "2",
        "--convention", "misere", "--position", "4",
    )
    assert code == 0
    result = json.loads(out)
    assert result["outcome"] == "P"
    assert result["grundy"] is None  # misere play has no Grundy values here


def test_outcome_misere_has_no_grundy_field_value(capsys):
    code, out, _ = run(
        capsys, "outcome", "--game", "nim", "--convention", "misere",
        "--position", "1,1,1",
    )
    assert code == 0
    assert json.loads(out) == {"position": [1, 1, 1], "outcome": "P", "grundy": None}


def test_outcome_extended_family_uses_closed_form(capsys):
    code, out, _ = run(
        capsys, "outcome", "--game", "extended-slow-nim", "--k", "2",
        "--convention", "normal", "--position", "3,3",
    )
    assert code == 0
    assert json.loads(out)["outcome"] == "P"


def test_outcome_moves_listing(capsys):
    code, out, _ = run(
        capsys, "outcome", "--game", "slow-nim", "--k", "2",
        "--convention", "normal", "--position", "3", "--moves",
    )
    result = json.loads(out)
    assert {tuple(m["result"]) for m in result["moves"]} == {(1,), (2,)}
    assert all(m["kind"] == "subtract" for m in result["moves"])


def test_outcome_bad_position_exits_2(capsys):
    code, _, err = run(
        capsys, "outcome", "--game", "nim", "--position", "1,x",
    )
    assert code == 2
    assert err


def test_outcome_non_monotone_exits_2(capsys):
    code, _, err = run(
        capsys, "outcome", "--game", "monotonic-nim", "--position", "2,1",
    )
    assert code == 2


def test_unknown_game_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["outcome", "--game", "tictactoe", "--position", "1"])
    assert exc.value.code == 2


def test_verify_lemma8(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "lemma8",
        "--max-cols", "4", "--max-height", "12",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["counterexamples"] == []


def test_verify_thm7_misere(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "thm7", "--k", "2",
        "--convention", "misere", "--max-piles", "3", "--max-height", "8",
    )
    assert code == 0


def test_verify_bad_bounds_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "thm1", "--max-heaps", "0")
    assert code == 2


# no position has more than 64 piles; a table over a wider sweep fills
# one stack frame per pile, so at 1000 it would die of a RecursionError
@pytest.mark.parametrize("piles", ["65", "1000"])
@pytest.mark.parametrize(
    "theorem", [name for name, t in theorems.THEOREMS.items() if "max_piles" in t.bounds]
)
def test_verify_more_piles_than_a_position_has_exit_2_before_any_table(
    capsys, monkeypatch, theorem, piles
):
    def refuse(*args):
        raise AssertionError("a case checker was built")

    monkeypatch.setattr(theorems, "_case_checker", refuse)
    args = ("verify", "--theorem", theorem, "--max-piles", piles, "--max-entry", "1")
    assert run(capsys, *args) == (2, "", f"error: {piles} piles exceeds limit 64\n")


# no position has an entry past 2**32 - 1; a sweep up to one would list
# 2**32 entries per column for its ranks or positions before it failed
@pytest.mark.parametrize("option", ["--max-entry", "--max-height"])
@pytest.mark.parametrize(
    "theorem", [name for name, t in theorems.THEOREMS.items() if "max_entry" in t.bounds]
)
def test_verify_an_entry_past_the_limit_exits_2_before_any_table(
    capsys, monkeypatch, theorem, option
):
    def refuse(*args):
        raise AssertionError("a case checker was built")

    monkeypatch.setattr(theorems, "_case_checker", refuse)
    args = ("verify", "--theorem", theorem, option, "4294967296")
    err = "error: entry 4294967296 exceeds limit 4294967295\n"
    assert run(capsys, *args) == (2, "", err)
    if "max_piles" in theorems.THEOREMS[theorem].bounds:  # piles are checked first
        err = "error: 65 piles exceeds limit 64\n"
        assert run(capsys, *args, "--max-piles", "65") == (2, "", err)


def test_verify_at_the_pile_limit_still_runs(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "thm1", "--max-heaps", "64",
                       "--max-entry", "1")
    assert (code, json.loads(out)["checked"]) == (0, 65)


@pytest.mark.parametrize(
    "args",
    [
        ("thm1", "--k", "2", "--convention", "misere", "--max-a1", "3",
         "--max-entry", "2"),
        ("bulk-conjecture", "--max-piles", "2", "--max-a1", "1",
         "--max-extent", "1"),
        ("thm1", "--convention", "misere"),
        ("thm4", "--add-limit", "2"),
        ("lemma9", "--k", "2"),
        ("thm3", "--max-extent", "4"),
        ("lemma8", "--max-a1", "1"),
        ("bulk-conjecture", "--max-entry", "3"),
    ],
)
def test_verify_option_the_theorem_never_reads_exit_2(capsys, args):
    code, out, err = run(capsys, "verify", "--theorem", *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --") and f"does not apply to {args[0]}" in err


def test_verify_unknown_theorem_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--theorem", "thm99"])
    assert exc.value.code == 2


def test_figure_emits_files(capsys, tmp_path):
    code, out, _ = run(
        capsys, "figure", "--a1", "0..2", "--width", "6", "--height", "6",
        "--format", "pbm", "--out", str(tmp_path),
    )
    assert code == 0
    files = sorted(tmp_path.glob("fig-a1-*.pbm"))
    assert [f.name for f in files] == ["fig-a1-0.pbm", "fig-a1-1.pbm", "fig-a1-2.pbm"]
    for f in files:
        assert f.read_bytes().startswith(b"P1\n6 6\n")


def test_figure_single_ascii_cell(capsys, tmp_path):
    code, out, _ = run(
        capsys, "figure", "--a1", "0", "--width", "1", "--height", "1",
        "--format", "ascii", "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "fig-a1-0.txt").read_text() == ".\n"


def test_figure_deterministic(capsys, tmp_path):
    args = [
        "figure", "--a1", "5", "--width", "10", "--height", "10",
        "--format", "pbm",
    ]
    run(capsys, *args, "--out", str(tmp_path / "a"))
    run(capsys, *args, "--out", str(tmp_path / "b"))
    a = (tmp_path / "a" / "fig-a1-5.pbm").read_bytes()
    b = (tmp_path / "b" / "fig-a1-5.pbm").read_bytes()
    assert a == b


def test_figure_triangular_variant(capsys, tmp_path):
    code, out, _ = run(
        capsys, "figure", "--a1", "0..2", "--width", "6", "--height", "6",
        "--format", "ascii", "--out", str(tmp_path), "--triangular",
    )
    assert code == 0
    assert out.splitlines() == [str(tmp_path / f"fig-a1-{a1}.txt") for a1 in range(3)]
    # cell (x, y) is the board (a1, a1+x, a1+y); cells below the diagonal
    # (y < x) are not positions and render as '.', so the bottom row is
    # all '.' (its only position, the flat board, is a misere N-position)
    shifted = "#....#\n.#....\n...#..\n#.....\n.#....\n......\n"
    assert [(tmp_path / f"fig-a1-{a1}.txt").read_text() for a1 in range(3)] == [
        ".#..#.\n#..#..\n..#...\n.#....\n#.....\n......\n",
        shifted,
        shifted,
    ]


@pytest.mark.parametrize(
    "fmt, ext, expected",
    [
        ("pbm", "pbm", [
            "P1\n5 4\n0 0 0 0 0\n0 0 0 0 0\n1 1 1 1 1\n0 0 0 0 0\n",
            "P1\n5 4\n0 1 0 1 1\n1 0 0 0 0\n0 0 0 0 0\n0 1 0 1 0\n",
        ]),
        ("ascii", "txt", [
            ".....\n.....\n#####\n.....\n",
            ".#.##\n#....\n.....\n.#.#.\n",
        ]),
    ],
)
def test_figure_full_bytes(capsys, tmp_path, fmt, ext, expected):
    # a 5-wide, 4-high raster, so a swapped width and height shows
    code, out, _ = run(
        capsys, "figure", "--a1", "0..1", "--width", "5", "--height", "4",
        "--format", fmt, "--out", str(tmp_path),
    )
    assert code == 0
    paths = [tmp_path / f"fig-a1-{a1}.{ext}" for a1 in range(2)]
    assert out.splitlines() == [str(p) for p in paths]
    assert [p.read_bytes().decode("ascii") for p in paths] == expected


@pytest.mark.parametrize(
    "args",
    [
        ("outcome", "--game", "nim", "--k", "7", "--position", "1,2"),
        ("outcome", "--game", "extended-slow-nim", "--k", "2", "--add-limit", "5",
         "--position", "3,3"),
        ("outcome", "--game", "extended-nim", "--k", "2", "--position", "3"),
        ("figure", "--game", "nim", "--k", "3", "--a1", "0"),
        ("period", "--game", "nim", "--k", "3", "--translation", "12"),
    ],
)
def test_parameter_the_game_takes_not_exit_2(capsys, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)  # where figure writes by default
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "takes no" in err
    assert list(tmp_path.iterdir()) == []


def test_misere_extended_answers_are_a_consistent_p_set(capsys):
    # outcome answers the loopy extended games with the misere (Slow) Nim
    # rule; that rule must be a locally consistent misere P-set for them
    rule_sets = [RuleSet(Family.EXTENDED_NIM, add_limit=n) for n in (1, 2)]
    rule_sets += [RuleSet(Family.EXTENDED_SLOW_NIM, k=k) for k in (1, 2, 3)]
    for rules in rule_sets:
        def claimed_p(p, rules=rules):
            [answer] = cli.solve_position(rules, Convention.MISERE, [p])
            return answer["outcome"] == "P"

        report = verify_pset(rules, Convention.MISERE, claimed_p, positions(2, 12))
        assert report.ok, rules.describe()
        assert report.checked_count == 91
    code, out, _ = run(
        capsys, "outcome", "--game", "extended-nim", "--convention", "misere",
        "--position", "1",
    )
    assert code == 0
    assert json.loads(out) == {"position": [1], "outcome": "P", "grundy": None}


def test_period_translation(capsys):
    code, out, _ = run(
        capsys, "period", "--game", "diet-chomp", "--k", "2",
        "--convention", "misere", "--translation", "12",
        "--max-a1", "6", "--max-extent", "10",
    )
    assert code == 0
    assert json.loads(out)["ok"]


def test_period_directional(capsys):
    code, out, _ = run(
        capsys, "period", "--direction", "0,0,1", "--base", "2,3,3",
        "--probe", "60",
    )
    assert code == 0
    report = json.loads(out)
    assert report["period"] in (1, 3)


def test_period_bad_direction_exit_2(capsys):
    code, _, err = run(
        capsys, "period", "--direction", "0,0", "--base", "2,3,3",
    )
    assert code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (("--base", "1,2", "--direction", "1"), "direction arity must match base"),
        (("--base", "1,2"), "need --base and --direction (or --translation)"),
    ],
)
def test_period_direction_errors_exit_2(capsys, args, message):
    code, out, err = run(capsys, "period", *args)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "base, direction, message",
    [
        ("5,5,5", "0,0,-1", "sequence (5, 5, 4) is not non-decreasing"),
        ("5,6,7", "1,0,0", "sequence (7, 6, 7) is not non-decreasing"),
        ("5,5,5", "0,-1,0", "sequence (5, 4, 5) is not non-decreasing"),
        ("2,2,2", "-1,0,0", "negative entry -1"),
        # (-1, 4, 3) is both negative and out of order: the sign is reported
        ("1,2,3", "-1,1,0", "negative entry -1"),
    ],
)
def test_period_directional_reports_first_bad_point(capsys, base, direction, message):
    # the scan's box spans every point up to --probe; the error is still
    # the one of the first bad point along the direction
    code, out, err = run(capsys, "period", "--base", base, f"--direction={direction}")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


TRANSLATION = ("--translation", "12", "--max-a1", "1", "--max-extent", "2")
DIRECTIONAL = ("--base", "2,3,3", "--direction", "0,0,1")


@pytest.mark.parametrize(
    "mode_args, option, value, mode",
    [
        (TRANSLATION, "--base", "2,3,3", "the translation check"),
        (TRANSLATION, "--direction", "0,0,1", "the translation check"),
        (TRANSLATION, "--probe", "5", "the translation check"),
        (TRANSLATION, "--max-period", "16", "the translation check"),
        (TRANSLATION, "--max-preperiod", "24", "the translation check"),
        (DIRECTIONAL, "--max-a1", "1", "the directional scan"),
        (DIRECTIONAL, "--max-extent", "2", "the directional scan"),
    ],
)
def test_period_option_of_the_other_mode_exit_2(capsys, mode_args, option, value, mode):
    code, out, err = run(capsys, "period", *mode_args, option, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {option} does not apply to {mode}\n"


def test_period_defaults_fill_in_only_their_own_mode(capsys, monkeypatch):
    given = run(capsys, "period", *DIRECTIONAL)
    explicit = run(
        capsys, "period", *DIRECTIONAL, "--probe", "60", "--max-period", "16",
        "--max-preperiod", "24",
    )
    assert given == explicit and given[0] == 0
    windows = []
    monkeypatch.setattr(
        analysis, "translation_period_check",
        lambda *args: windows.append(args[2:]) or [VerificationReport()],
    )
    code, _, _ = run(capsys, "period", "--translation", "12")
    assert code == 0
    assert windows == [(12, 20, [12])]


def test_batch(capsys, tmp_path):
    path = tmp_path / "positions.txt"
    path.write_text("1,2,3\n4\n")
    code, out, _ = run(
        capsys, "batch", "--game", "diet-chomp", "--k", "2",
        "--convention", "misere", "--input", str(path),
    )
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [l["input"] for l in lines] == ["1,2,3", "4"]


def test_batch_comments_only(capsys, tmp_path):
    path = tmp_path / "positions.txt"
    path.write_text("# comment\n\n")
    code, out, _ = run(
        capsys, "batch", "--game", "nim", "--input", str(path),
    )
    assert code == 0
    assert out == ""


def test_batch_error_line(capsys, tmp_path):
    path = tmp_path / "positions.txt"
    path.write_text("2,1\n")
    code, out, _ = run(
        capsys, "batch", "--game", "monotonic-nim", "--input", str(path),
    )
    assert code == 1
    assert "NonMonotoneInput" in json.loads(out.splitlines()[0])["error"]


def test_batch_parallel_order_preserved(capsys, tmp_path):
    path = tmp_path / "positions.txt"
    inputs = [f"{a}" for a in range(1, 21)]
    path.write_text("\n".join(inputs) + "\n")
    code, serial, _ = run(
        capsys, "batch", "--game", "diet-chomp", "--k", "2",
        "--convention", "misere", "--input", str(path), "--threads", "1",
    )
    code2, parallel, _ = run(
        capsys, "batch", "--game", "diet-chomp", "--k", "2",
        "--convention", "misere", "--input", str(path), "--threads", "4",
    )
    assert code == code2 == 0
    assert serial == parallel


def test_threads_env_is_ignored(capsys, tmp_path, monkeypatch):
    path = tmp_path / "positions.txt"
    path.write_text("1\n2\n")
    args = ["batch", "--game", "nim", "--input", str(path)]
    plain = run(capsys, *args)
    # batch does not read GAMESOLVE_THREADS, so a bad value changes nothing
    monkeypatch.setenv("GAMESOLVE_THREADS", "abc")
    assert run(capsys, *args) == plain
    assert plain[0] == 0 and len(plain[1].splitlines()) == 2


def test_batch_shared_memo_matches_threads_and_outcome(capsys, tmp_path):
    path = tmp_path / "positions.txt"
    lines = ["5,7,9", "3,5,7", "7", "400", "300", "3,5,7", "2,1"]
    path.write_text("\n".join(lines) + "\n")
    args = [
        "batch", "--game", "diet-chomp", "--k", "2", "--convention", "misere",
        "--input", str(path),
    ]
    code1, serial, _ = run(capsys, *args, "--threads", "1")
    code2, parallel, _ = run(capsys, *args, "--threads", "2")
    assert code1 == code2 == 1  # the non-monotone line is an error
    assert serial == parallel
    results = [json.loads(line) for line in serial.splitlines()]
    assert [r["input"] for r in results] == lines
    assert "NonMonotoneInput" in results[-1]["error"]
    for r in results[:-1]:
        code, out, _ = run(
            capsys, "outcome", "--game", "diet-chomp", "--k", "2",
            "--convention", "misere", "--position", r["input"],
        )
        assert code == 0
        assert {"input": r["input"], **json.loads(out)} == r


def test_threads_option_nonpositive_exits_2(capsys, tmp_path):
    path = tmp_path / "positions.txt"
    path.write_text("1\n")
    code, _, err = run(
        capsys, "batch", "--game", "nim", "--input", str(path), "--threads", "0"
    )
    assert code == 2
    assert err.startswith("error: --threads")


@pytest.mark.parametrize("translation", ["0", "-12"])
def test_period_translation_nonpositive_exit_2(capsys, translation):
    code, out, err = run(
        capsys, "period", "--translation", translation,
        "--max-a1", "2", "--max-extent", "3",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_figure_empty_a1_range_exit_2(capsys, tmp_path):
    out_dir = tmp_path / "figs"
    code, out, err = run(
        capsys, "figure", "--a1", "3..1", "--width", "2", "--height", "2",
        "--out", str(out_dir),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert not out_dir.exists()


@pytest.mark.parametrize("text", ["3..", "x"])
def test_figure_unparsable_a1_names_the_option(capsys, tmp_path, text):
    out_dir = tmp_path / "figs"
    code, out, err = run(capsys, "figure", "--a1", text, "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert err == f"error: --a1 must be an int or lo..hi, not {text!r}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("--a1", "-1"),
        ("--a1=-2..1",),
        ("--a1", "0", "--width", "-3"),
        ("--a1", "0", "--width", "0"),
        ("--a1", "0", "--height", "0"),
        # solving fails: a loopy family has no outcomes to draw
        ("--game", "extended-nim", "--a1", "0", "--width", "2", "--height", "2"),
        # past the entry limit: the range is too long for a list (a long
        # but valid range, such as 0..4294967295, is never run here)
        ("--a1", "0..100000000000000000000"),
        ("--a1", "4294967296"),
    ],
)
def test_figure_bad_arguments_exit_2_before_writing(capsys, tmp_path, args):
    out_dir = tmp_path / "figs"
    code, out, err = run(capsys, "figure", *args, "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert not out_dir.exists()


PAST_LIMIT = "error: entry 4294967296 exceeds limit 4294967295\n"
LOOPY = "error: extended-nim has add-moves; use the verifiers\n"


# windows with a board past the entry limit, and loopy families: the stderr
# of each is the one the per-point route gave, which canonicalized every
# board of the window in order (only windows it listed fast are run here)
@pytest.mark.parametrize(
    "args, err",
    [
        (("figure", "--a1", "4294967290", "--width", "3", "--height", "10"),
         PAST_LIMIT),
        (("figure", "--a1", "4294967290", "--width", "3", "--height", "10",
          "--triangular"), PAST_LIMIT),
        (("figure", "--a1", "4294967280..4294967290", "--width", "5",
          "--height", "8"), PAST_LIMIT),
        (("figure", "--a1", "4294967295", "--width", "2", "--height", "1"),
         PAST_LIMIT),
        (("figure", "--game", "nim", "--convention", "normal", "--a1",
          "4294967290", "--width", "9", "--height", "2"), PAST_LIMIT),
        (("figure", "--game", "extended-nim", "--a1", "0..2", "--width", "3",
          "--height", "3"), LOOPY),
        # the first board past the limit raises before the family does
        (("figure", "--game", "extended-nim", "--a1", "4294967290", "--width",
          "3", "--height", "10"), PAST_LIMIT),
        (("period", "--translation", "4294967290", "--max-a1", "2",
          "--max-extent", "8"), PAST_LIMIT),
        # the first translate, (t, t, t), is past the limit by more than 1
        (("period", "--translation", "5000000000", "--max-a1", "1",
          "--max-extent", "2"), "error: entry 5000000000 exceeds limit 4294967295\n"),
        (("period", "--game", "extended-nim", "--translation", "12",
          "--max-a1", "2", "--max-extent", "3"), LOOPY),
        (("period", "--game", "extended-slow-nim", "--translation",
          "4294967290", "--max-a1", "2", "--max-extent", "8"), PAST_LIMIT),
    ],
)
def test_windows_past_the_limit_or_loopy_exit_2_before_any_table(
    capsys, monkeypatch, tmp_path, args, err
):
    def refuse(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(tables, "lattice_table", refuse)
    monkeypatch.setattr(tables, "ranks", refuse)
    out_dir = tmp_path / "figs"
    out = ("--out", str(out_dir)) if args[0] == "figure" else ()
    assert run(capsys, *args, *out) == (2, "", err)
    assert not out_dir.exists()


# windows whose boards reach past the limit only at an a1 near it: the
# per-point route listed every board of the window first, so it is not run
@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--theorem", "bulk-conjecture", "--max-a1", "4294967290"),
        ("period", "--translation", "1", "--max-a1", "4294967290",
         "--max-extent", "8"),
    ],
)
def test_windows_past_the_limit_at_a_large_a1_exit_2_at_once(args):
    # the child's address space is capped, so a version that lists the
    # window's boards fails fast instead of filling memory
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "import sys; from gamesolve.cli import main\n"
        f"sys.exit(main({list(args)!r}))\n"
    )
    result = run_process("-c", code)
    assert (result.returncode, result.stdout, result.stderr.decode()) == (
        2, b"", PAST_LIMIT
    )


DC2_MISERE = ("--game", "diet-chomp", "--k", "2", "--convention", "misere")


# valid commands whose tables do not fit in a 1 GiB address space
@pytest.mark.parametrize(
    "args",
    [
        ("figure", "--a1", "0", "--width", "60000", "--height", "60000",
         "--out", "{out}"),
        ("verify", "--theorem", "thm1", "--max-entry", "3000"),
        ("outcome", *DC2_MISERE, "--position", "60000,60000,60000"),
        ("batch", *DC2_MISERE, "--input", "{input}"),
    ],
)
def test_tables_too_large_for_memory_exit_2_without_a_traceback(tmp_path, args):
    # the child's address space is capped: uncapped, the figure alone would
    # zero-fill about 3.6 GB
    (tmp_path / "in.txt").write_text("60000,60000,60000\n")
    out_dir = tmp_path / "figs"
    argv = [a.format(out=out_dir, input=tmp_path / "in.txt") for a in args]
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "import sys; from gamesolve.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    result = run_process("-c", code)
    assert (result.returncode, result.stdout, result.stderr) == (
        2, b"", b"error: out of memory\n"
    )
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--theorem", "bulk-conjecture", "--max-a1", "-1"),
        ("verify", "--theorem", "bulk-conjecture", "--max-extent", "-1"),
        ("period", "--translation", "12", "--max-a1", "-1"),
        ("period", "--translation", "12", "--max-extent", "-1"),
        ("period", "--direction", "0,0,1", "--base", "2,3,3", "--max-period", "0"),
        ("period", "--direction", "0,0,1", "--base", "2,3,3", "--max-preperiod", "-5"),
    ],
)
def test_vacuous_sweep_bounds_exit_2(capsys, args):
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {args[-2]} must be >= ")


# the exact stdout of `outcome --moves` for one position per family: each
# heap's subtract moves come largest amount first, Nim's equal heaps give
# duplicate results, and the extended games list their add moves last
MOVES_BYTES = {
    "--game nim --position 1,1": (
        '{"position": [1, 1], "outcome": "P", "grundy": 0, "moves": ['
        '{"kind": "subtract", "index": 1, "amount": 1, "result": [1]}, '
        '{"kind": "subtract", "index": 2, "amount": 1, "result": [1]}]}\n'
    ),
    "--game nim --position 3,1,2": (
        '{"position": [1, 2, 3], "outcome": "P", "grundy": 0, "moves": ['
        '{"kind": "subtract", "index": 1, "amount": 1, "result": [2, 3]}, '
        '{"kind": "subtract", "index": 2, "amount": 2, "result": [1, 3]}, '
        '{"kind": "subtract", "index": 2, "amount": 1, "result": [1, 1, 3]}, '
        '{"kind": "subtract", "index": 3, "amount": 3, "result": [1, 2]}, '
        '{"kind": "subtract", "index": 3, "amount": 2, "result": [1, 1, 2]}, '
        '{"kind": "subtract", "index": 3, "amount": 1, "result": [1, 2, 2]}]}\n'
    ),
    "--game slow-nim --k 2 --position 2,4,4": (
        '{"position": [2, 4, 4], "outcome": "N", "grundy": 2, "moves": ['
        '{"kind": "subtract", "index": 1, "amount": 2, "result": [4, 4]}, '
        '{"kind": "subtract", "index": 1, "amount": 1, "result": [1, 4, 4]}, '
        '{"kind": "subtract", "index": 2, "amount": 2, "result": [2, 2, 4]}, '
        '{"kind": "subtract", "index": 2, "amount": 1, "result": [2, 3, 4]}, '
        '{"kind": "subtract", "index": 3, "amount": 2, "result": [2, 2, 4]}, '
        '{"kind": "subtract", "index": 3, "amount": 1, "result": [2, 3, 4]}]}\n'
    ),
    "--game extended-nim --add-limit 2 --position 1,1": (
        '{"position": [1, 1], "outcome": "P", "grundy": 0, "moves": ['
        '{"kind": "subtract", "index": 1, "amount": 1, "result": [1]}, '
        '{"kind": "subtract", "index": 2, "amount": 1, "result": [1]}, '
        '{"kind": "add", "index": 1, "amount": 1, "result": [1, 2]}, '
        '{"kind": "add", "index": 1, "amount": 2, "result": [1, 3]}, '
        '{"kind": "add", "index": 2, "amount": 1, "result": [1, 2]}, '
        '{"kind": "add", "index": 2, "amount": 2, "result": [1, 3]}]}\n'
    ),
    "--game extended-slow-nim --k 2 --position 3,1": (
        '{"position": [1, 3], "outcome": "N", "grundy": 1, "moves": ['
        '{"kind": "subtract", "index": 1, "amount": 1, "result": [3]}, '
        '{"kind": "subtract", "index": 2, "amount": 2, "result": [1, 1]}, '
        '{"kind": "subtract", "index": 2, "amount": 1, "result": [1, 2]}, '
        '{"kind": "add", "index": 1, "amount": 1, "result": [2, 3]}, '
        '{"kind": "add", "index": 1, "amount": 2, "result": [3, 3]}, '
        '{"kind": "add", "index": 2, "amount": 1, "result": [1, 4]}, '
        '{"kind": "add", "index": 2, "amount": 2, "result": [1, 5]}]}\n'
    ),
    "--game monotonic-nim --position 0,2,2,3": (
        '{"position": [2, 2, 3], "outcome": "N", "grundy": 3, "moves": ['
        '{"kind": "subtract", "index": 1, "amount": 2, "result": [2, 3]}, '
        '{"kind": "subtract", "index": 1, "amount": 1, "result": [1, 2, 3]}, '
        '{"kind": "subtract", "index": 3, "amount": 1, "result": [2, 2, 2]}]}\n'
    ),
    "--game monotonic-slow-nim --k 2 --convention misere --position 1,3,4": (
        '{"position": [1, 3, 4], "outcome": "N", "grundy": null, "moves": ['
        '{"kind": "subtract", "index": 1, "amount": 1, "result": [3, 4]}, '
        '{"kind": "subtract", "index": 2, "amount": 2, "result": [1, 1, 4]}, '
        '{"kind": "subtract", "index": 2, "amount": 1, "result": [1, 2, 4]}, '
        '{"kind": "subtract", "index": 3, "amount": 1, "result": [1, 3, 3]}]}\n'
    ),
    "--game diet-chomp --k 2 --position 1,2,2": (
        '{"position": [1, 2, 2], "outcome": "N", "grundy": 2, "moves": ['
        '{"kind": "chomp", "index": 1, "amount": 1, "result": [2, 2]}, '
        '{"kind": "chomp", "index": 2, "amount": 2, "result": [1, 1, 2]}, '
        '{"kind": "chomp", "index": 3, "amount": 2, "result": [1, 1, 1]}]}\n'
    ),
    "--game diet-chomp --k 3 --convention misere --position 2,2,3": (
        '{"position": [2, 2, 3], "outcome": "N", "grundy": null, "moves": ['
        '{"kind": "chomp", "index": 1, "amount": 1, "result": [2, 3]}, '
        '{"kind": "chomp", "index": 1, "amount": 2, "result": [1, 2, 3]}, '
        '{"kind": "chomp", "index": 2, "amount": 2, "result": [1, 1, 3]}, '
        '{"kind": "chomp", "index": 3, "amount": 3, "result": [2, 2, 2]}]}\n'
    ),
}


@pytest.mark.parametrize("args", MOVES_BYTES)
def test_outcome_moves_bytes(capsys, args):
    code, out, _ = run(capsys, "outcome", "--moves", *args.split())
    assert code == 0
    assert out == MOVES_BYTES[args]


GAMES = [f.value for f in Family]
CONVENTIONS = ["normal", "misere"]
GAME_OPTIONS = {
    "k": (("--k",), None, False, None, True),
    "add_limit": (("--add-limit",), None, False, None, True),
}
# subcommand -> dest -> (flags, default, required, choices, takes a value)
PARSER_SURFACE = {
    "outcome": {
        "game": (("--game",), None, True, GAMES, True),
        **GAME_OPTIONS,
        "convention": (("--convention",), "normal", False, CONVENTIONS, True),
        "position": (("--position",), None, True, None, True),
        "moves": (("--moves",), False, False, None, False),
    },
    "verify": {
        "theorem": (("--theorem",), None, True, sorted(theorems.THEOREMS), True),
        "max_piles": (
            ("--max-piles", "--max-cols", "--max-heaps"), None, False, None, True
        ),
        "max_entry": (("--max-height", "--max-entry"), None, False, None, True),
        **GAME_OPTIONS,
        "convention": (("--convention",), None, False, CONVENTIONS, True),
        "max_a1": (("--max-a1",), None, False, None, True),
        "max_extent": (("--max-extent",), None, False, None, True),
    },
    "figure": {
        "game": (("--game",), "diet-chomp", False, GAMES, True),
        **GAME_OPTIONS,
        "convention": (("--convention",), "misere", False, CONVENTIONS, True),
        "a1": (("--a1",), None, True, None, True),
        "width": (("--width",), 30, False, None, True),
        "height": (("--height",), 30, False, None, True),
        "format": (("--format",), "pbm", False, ["pbm", "ascii"], True),
        "out": (("--out",), ".", False, None, True),
        "triangular": (("--triangular",), False, False, None, False),
    },
    "period": {
        "game": (("--game",), "diet-chomp", False, GAMES, True),
        **GAME_OPTIONS,
        "convention": (("--convention",), "misere", False, CONVENTIONS, True),
        "base": (("--base",), None, False, None, True),
        "direction": (("--direction",), None, False, None, True),
        "probe": (("--probe",), None, False, None, True),
        "max_period": (("--max-period",), None, False, None, True),
        "max_preperiod": (("--max-preperiod",), None, False, None, True),
        "translation": (("--translation",), None, False, None, True),
        "max_a1": (("--max-a1",), None, False, None, True),
        "max_extent": (("--max-extent",), None, False, None, True),
    },
    "batch": {
        "game": (("--game",), None, True, GAMES, True),
        **GAME_OPTIONS,
        "convention": (("--convention",), "normal", False, CONVENTIONS, True),
        "input": (("--input",), None, True, None, True),
        "threads": (("--threads",), None, False, None, True),
    },
}


def _subparsers(only=None):
    parser = cli.build_parser(only)
    return next(a for a in parser._actions if a.dest == "command").choices


def test_parser_surface_is_pinned(capsys):
    subparsers = _subparsers()
    assert list(subparsers) == list(PARSER_SURFACE)
    for command, subparser in subparsers.items():
        surface = {
            a.dest: (
                tuple(a.option_strings),
                a.default,
                a.required,
                None if a.choices is None else list(a.choices),
                a.nargs != 0,
            )
            for a in subparser._actions
            if a.dest != "help"
        }
        assert surface == PARSER_SURFACE[command], command
    for args in [(), *((command,) for command in PARSER_SURFACE)]:
        with pytest.raises(SystemExit) as exc:
            main([*args, "--help"])
        assert exc.value.code == 0, args
        assert capsys.readouterr().out.startswith("usage: gamesolve")


def test_a_parser_for_one_subcommand_gives_only_that_one_its_options():
    # main builds the parser of the subcommand it runs, so that verify's
    # options alone load the theorem table
    for only in PARSER_SURFACE:
        subparsers = _subparsers(only)
        assert list(subparsers) == list(PARSER_SURFACE)
        for command, subparser in subparsers.items():
            dests = {a.dest for a in subparser._actions} - {"help"}
            assert dests == (set(PARSER_SURFACE[command]) if command == only else set())


# each (subcommand, option) with a least value, and that value
LEAST_VALUES = [
    ("outcome", "--k", 1), ("outcome", "--add-limit", 1),
    ("verify", "--max-piles", 1), ("verify", "--max-entry", 1), ("verify", "--k", 1),
    ("verify", "--add-limit", 1), ("verify", "--max-a1", 0),
    ("verify", "--max-extent", 0),
    ("figure", "--k", 1), ("figure", "--add-limit", 1), ("figure", "--width", 1),
    ("figure", "--height", 1),
    ("period", "--k", 1), ("period", "--add-limit", 1), ("period", "--max-period", 1),
    ("period", "--max-preperiod", 0), ("period", "--translation", 1),
    ("period", "--max-a1", 0), ("period", "--max-extent", 0),
    ("batch", "--k", 1), ("batch", "--add-limit", 1), ("batch", "--threads", 1),
]


def test_least_values_are_the_tables():
    table = [
        (command, "--" + name.replace("_", "-"), cli.OPTIONS[name].least)
        for command, spec in cli.COMMANDS.items()
        for name in spec.parser_options()
        if cli.OPTIONS[name].least is not None
    ]
    assert sorted(table) == sorted(LEAST_VALUES)


@pytest.mark.parametrize("command, option, least", LEAST_VALUES)
def test_value_below_its_least_exit_2(capsys, tmp_path, command, option, least):
    out_dir = tmp_path / "figs"
    positions = tmp_path / "positions.txt"
    positions.write_text("1\n")
    given = {
        "outcome": ("--game", "slow-nim", "--position", "1"),
        "verify": ("--theorem", "thm1"),
        "figure": ("--a1", "0", "--out", str(out_dir)),
        "period": (),
        "batch": ("--game", "nim", "--input", str(positions)),
    }[command]
    code, out, err = run(capsys, command, *given, option, str(least - 1))
    assert code == 2
    assert out == ""
    assert err == f"error: {option} must be >= {least}\n"
    assert not out_dir.exists()


def test_options_theorems_and_period_modes_read_are_parser_options():
    subparsers = _subparsers()
    verify = {a.dest for a in subparsers["verify"]._actions}
    for name, theorem in theorems.THEOREMS.items():
        assert {*theorem.bounds, *theorem.params, *theorem.fixed} <= verify, name
    period = {a.dest for a in subparsers["period"]._actions}
    for mode, reads in cli.COMMANDS["period"].modes().items():
        assert set(reads) <= period, mode


def test_period_base_and_direction_are_raw_integers(capsys):
    # "0" is one zero here, where a position reads it as the empty board
    code, out, err = run(capsys, "period", "--base", "0", "--direction", "1")
    assert code == 0
    assert out == '{"base": [0], "direction": [1], "preperiod": 0, "period": 3}\n'
    with pytest.raises(SystemExit) as exc:
        main(["period", "--base", "2,3,3", "--direction", "1,x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --direction: expected comma-separated integers, not '1,x'" in err


SRC = Path(__file__).resolve().parents[1] / "src"
TRACE_CLI = SRC.parent / "perfbench" / "trace_cli.py"


def run_process(*args, **env):
    """``python args`` in a fresh interpreter that imports the package from
    src/, with ``env`` added to the environment; stdout and stderr as bytes."""
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": str(SRC), **env},
        capture_output=True, timeout=60,
    )


# each add limit takes heap 3 past MAX_ENTRY = 2**32 - 1
@pytest.mark.parametrize(
    "args",
    [
        ("outcome", "--game", "extended-nim", "--add-limit", "4294967295",
         "--position", "3", "--moves"),
        ("outcome", "--game", "extended-slow-nim", "--k", "4294967295",
         "--position", "3", "--moves"),
        ("verify", "--theorem", "thm6-grundy", "--add-limit", "4294967295"),
        ("verify", "--theorem", "thm6-pset", "--k", "4294967295"),
    ],
)
def test_add_limit_past_max_entry_exits_2_before_listing_moves(args):
    # the child's address space is capped, so a version that lists the
    # adds before it checks the bound fails fast instead of filling memory
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "import sys; from gamesolve.cli import main\n"
        f"sys.exit(main({list(args)!r}))\n"
    )
    result = run_process("-c", code)
    assert (result.returncode, result.stdout, result.stderr) == (
        2, b"", b"error: entry 4294967296 exceeds limit 4294967295\n"
    )


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each costs start-up time on every CLI call, and only the commands
    # that run the DFS or the local verifiers need solver and games; -S
    # keeps site's own imports out of the check
    code = (
        "import sys, gamesolve.cli; print({'dataclasses', 'inspect', "
        "'gamesolve.solver', 'gamesolve.games', 'array'} & set(sys.modules))"
    )
    result = run_process("-S", "-c", code)
    assert (result.returncode, result.stdout, result.stderr) == (0, b"set()\n", b"")


# each command -> the modules it loads of those tracked: every command
# reads values from tables; solver (the DFS and the local verifiers) loads
# only for the verifiers' sweeps, and array only for thm7's indices
LOADED = {
    ("outcome", "--game", "nim", "--position", "3,5,6"): {"tables"},
    ("outcome", "--game", "diet-chomp", "--convention", "misere",
     "--position", "2,4,4"): {"tables"},
    ("batch", "--game", "nim", "--input", "{tmp}/positions.txt"): {"tables"},
    ("batch", "--game", "diet-chomp", "--k", "3", "--input",
     "{tmp}/positions.txt"): {"tables"},
    ("verify", "--theorem", "thm1", "--max-entry", "3"):
        {"tables", "theorems", "closedforms"},
    ("verify", "--theorem", "thm7", "--max-entry", "3"):
        {"tables", "theorems", "closedforms", "array"},
    ("verify", "--theorem", "lemma8", "--max-entry", "3"):
        {"tables", "theorems", "closedforms"},
    ("verify", "--theorem", "cor2", "--max-entry", "3"):
        {"tables", "theorems", "closedforms", "solver", "games"},
    ("verify", "--theorem", "thm6-pset", "--max-entry", "3"):
        {"tables", "theorems", "closedforms", "solver", "games"},
    ("verify", "--theorem", "thm6-grundy", "--max-entry", "3"):
        {"tables", "theorems", "closedforms", "solver", "games"},
    ("verify", "--theorem", "bulk-conjecture", "--max-a1", "1", "--max-extent", "3"):
        {"tables", "theorems", "closedforms", "analysis"},
    ("outcome", "--moves", "--game", "nim", "--position", "3,5,6"):
        {"tables", "games"},
    ("outcome", "--game", "extended-nim", "--position", "3,5,6"):
        {"tables", "closedforms"},
    ("figure", "--a1", "0", "--width", "3", "--height", "3", "--out", "{tmp}"):
        {"tables", "analysis"},
    ("period", "--game", "diet-chomp", "--convention", "misere",
     "--base", "2,3,3", "--direction", "0,0,1"): {"tables", "analysis"},
}


@pytest.mark.parametrize("args", LOADED, ids=" ".join)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, args):
    # compiling a module costs start-up time on every call; games,
    # closedforms, theorems, analysis, solver and array load only for the
    # commands that run them
    (tmp_path / "positions.txt").write_text("1,2\n3,5,6\n")
    code = (
        "import sys; from gamesolve.cli import main; code = main(sys.argv[1:]); "
        "print(sorted({'games', 'closedforms', 'theorems', 'analysis', 'solver', "
        "'tables', 'array'} & {m.rpartition('.')[2] for m in sys.modules "
        "if m.startswith('gamesolve.') or m == 'array'}), file=sys.stderr); "
        "sys.exit(code)"
    )
    result = run_process("-S", "-c", code, *[a.format(tmp=tmp_path) for a in args])
    assert result.returncode == 0, result.stderr
    assert result.stderr.decode() == f"{sorted(LOADED[args])}\n"
    assert result.stdout


def test_batch_threads_start_no_pool(tmp_path):
    path = tmp_path / "positions.txt"
    path.write_text("1,2\n3,5,6\n7\n2,2,9\n")
    code = (
        "import sys; from gamesolve.cli import main; code = main(sys.argv[1:]); "
        "print('concurrent.futures' in sys.modules, file=sys.stderr); sys.exit(code)"
    )
    args = ("-c", code, "batch", "--game", "nim", "--input", str(path), "--threads")
    serial, wide = run_process(*args, "1"), run_process(*args, "4")
    assert (wide.returncode, wide.stderr) == (0, b"False\n")
    assert wide.stdout == serial.stdout and len(wide.stdout.splitlines()) == 4


@pytest.mark.parametrize(
    "args",
    [
        ("batch", "--game", "nim", "--input", "{tmp}/missing.txt"),
        # a directory cannot be made under a regular file
        ("figure", "--a1", "0", "--width", "3", "--height", "3",
         "--out", "{tmp}/regular/figs"),
    ],
    ids=["batch-missing-input", "figure-out-under-a-file"],
)
def test_os_errors_exit_2_with_one_error_line(tmp_path, args):
    (tmp_path / "regular").write_text("")
    args = [arg.format(tmp=tmp_path) for arg in args]
    result = run_process("-m", "gamesolve.cli", *args)
    assert (result.returncode, result.stdout) == (2, b"")
    err = result.stderr.decode()
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err


def test_traced_cli_runs_and_keeps_stdout(tmp_path):
    # the benchmark's tracer wraps package functions by name, so a name it
    # patches that moves or goes unused breaks traced runs only
    positions = tmp_path / "positions.txt"
    positions.write_text("1,2,3\n4,4\n")
    commands = [
        ("verify", "--theorem", "thm1", "--max-entry", "3"),
        ("verify", "--theorem", "lemma9", "--max-height", "5"),
        ("verify", "--theorem", "cor2", "--max-entry", "3"),
        ("verify", "--theorem", "thm6-pset", "--max-entry", "4"),
        ("verify", "--theorem", "thm6-grundy", "--max-entry", "4"),
        ("figure", "--a1", "0", "--width", "3", "--height", "3",
         "--out", str(tmp_path / "figs")),
        ("period", "--game", "diet-chomp", "--convention", "misere",
         "--base", "2,3,3", "--direction", "0,0,1"),
        ("batch", "--game", "diet-chomp", "--input", str(positions)),
        ("outcome", "--game", "nim", "--position", "3,5,6"),
        ("outcome", "--moves", "--game", "slow-nim", "--k", "2", "--position", "2,4,4"),
    ]
    for i, args in enumerate(commands):
        plain = run_process("-m", "gamesolve.cli", *args)
        trace = tmp_path / f"trace-{i}.json"
        traced = run_process(str(TRACE_CLI), *args, PERFBENCH_TRACE_OUT=str(trace))
        assert (plain.returncode, traced.returncode) == (0, 0), args
        assert traced.stdout == plain.stdout, args
        counts = json.loads(trace.read_text())["counts"]
        assert counts, args
        # the tracer still reaches the verifiers it patches in solver
        verifies = args[2] in ("cor2", "thm6-pset", "thm6-grundy")
        assert ("solver.verify.calls" in counts) == verifies, args


@pytest.mark.parametrize(
    "base, direction, expected",
    [
        ("2,3,3", "0,0,1",
         '{"base": [2, 3, 3], "direction": [0, 0, 1], "preperiod": 0, "period": 3}'),
        ("0", "1", '{"base": [0], "direction": [1], "preperiod": 0, "period": 3}'),
    ],
)
def test_period_directional_output_bytes(capsys, base, direction, expected):
    code, out, err = run(capsys, "period", "--base", base, "--direction", direction)
    assert (code, out, err) == (0, expected + "\n", "")


class Canonicalized(Exception):
    pass


def forbid_canonicalize(monkeypatch):
    def refuse(entries, family):
        raise Canonicalized(entries)

    for module in (cli, analysis):
        monkeypatch.setattr(module, "canonicalize", refuse)


def verify_opts(**bounds):
    defaults = dict(
        max_piles=None, max_entry=None, k=None, add_limit=None,
        convention=None, max_a1=None, max_extent=None,
    )
    return Namespace(**{**defaults, **bounds})


@pytest.mark.parametrize(
    "theorem, bounds, checked",
    [
        ("thm1", {"max_piles": 3, "max_entry": 5}, 56),
        ("thm3", {"max_piles": 3, "max_entry": 5}, 56),
        ("thm4", {"max_piles": 2, "max_entry": 6}, 84),
        ("thm5", {"max_piles": 2, "max_entry": 6}, 84),
        ("thm7", {"max_piles": 3, "max_entry": 4}, 448),
        ("lemma8", {"max_piles": 3, "max_entry": 4}, 1036),
        ("lemma9", {"max_entry": 8}, 45),
    ],
)
def test_value_sweeps_read_their_generated_boards_unchecked(
    monkeypatch, theorem, bounds, checked
):
    forbid_canonicalize(monkeypatch)
    report = theorems.verify_theorem(theorem, verify_opts(**bounds))
    assert (report.ok, report.checked_count) == (True, checked)


@pytest.mark.parametrize(
    "args",
    [
        ("figure", "--a1", "0", "--width", "3", "--height", "3", "--out", "{tmp}"),
        ("period", "--translation", "3", "--max-a1", "1", "--max-extent", "2"),
        ("period", "--base", "2,3,3", "--direction", "0,0,1"),
        ("verify", "--theorem", "bulk-conjecture", "--max-a1", "2",
         "--max-extent", "8"),
    ],
)
def test_points_from_user_options_are_still_canonicalized(monkeypatch, tmp_path, args):
    forbid_canonicalize(monkeypatch)
    with pytest.raises(Canonicalized):
        main([arg.format(tmp=tmp_path) for arg in args])


def counting(monkeypatch, module, name, calls):
    """Patch ``module.name`` to count each call's arguments in ``calls``."""
    real = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *args: calls.update([(name, *args)]) or real(*args)
    )


@pytest.mark.parametrize(
    "theorem, bounds, domain",
    [
        ("cor2", {"max_piles": 3, "max_entry": 6}, positions(3, 6)),
        ("thm6-pset", {"max_entry": 6}, positions(2, 6)),
        ("thm6-grundy", {"max_entry": 6}, positions(2, 6)),
    ],
)
def test_local_verifiers_label_each_position_once(monkeypatch, theorem, bounds, domain):
    calls = Counter()
    for name in ("nim_grundy_formula", "slow_nim_grundy_formula"):
        counting(monkeypatch, closedforms, name, calls)
    theorems.verify_theorem(theorem, verify_opts(**bounds))
    if theorem == "cor2":
        expected = Counter(("nim_grundy_formula", p) for p in domain)
    else:  # slow-nim k = 1, 2, 3, and nim with add limits 1 and 2
        expected = Counter(
            ("slow_nim_grundy_formula", k, p) for k in (1, 2, 3) for p in domain
        )
        expected.update(("nim_grundy_formula", p) for p in domain * 2)
    assert calls == expected


@pytest.mark.parametrize(
    "theorem, verifier",
    [
        ("cor2", "verify_pset"),
        ("thm6-pset", "verify_pset"),
        ("thm6-grundy", "verify_grundy_consistency"),
    ],
)
def test_local_sweeps_hand_their_verifier_one_list_of_the_window(
    monkeypatch, theorem, verifier
):
    # the positions come last in both verifiers' arguments; every case of
    # a sweep receives the same list, the canonical positions of the
    # window in the order of the tests' recursive walk
    received = []
    monkeypatch.setattr(
        solver, verifier,
        lambda *args: received.append(args[-1]) or tables.VerificationReport(),
    )
    for piles, entry in product(range(4), range(7)):
        received.clear()
        opts = verify_opts(max_piles=piles, max_entry=entry)
        assert theorems.verify_theorem(theorem, opts).ok
        assert len(received) == len(theorems.THEOREMS[theorem].cases(opts))
        assert received[0] == list(recursive_positions(piles, entry, 1))
        assert all(r is received[0] for r in received), (piles, entry)


def test_cor2_reads_successors_up_to_the_first_witness(monkeypatch):
    # a claimed N-board stops at its first claimed P-successor, so cor2
    # with the true claim draws fewer subtract moves than the boards have
    drawn, real = [], games.subtract_move_records

    def counting(*args):
        for record in real(*args):
            drawn.append(record)
            yield record

    monkeypatch.setattr(games, "subtract_move_records", counting)
    report = theorems.verify_theorem("cor2", verify_opts(max_piles=3, max_entry=6))
    assert report.ok
    full = sum(len(list(real(None, False, p))) for p in positions(3, 6))
    assert 0 < len(drawn) < full


def test_monotone_sweep_maps_each_raw_board_once(monkeypatch):
    calls = Counter()
    counting(monkeypatch, closedforms, "difference_position", calls)
    report = theorems.verify_theorem("thm7", verify_opts(max_piles=3, max_entry=4))
    raw = raw_sequences(3, 4)
    assert report.checked_count == 8 * len(raw)  # 4 games x 2 conventions
    assert calls == Counter(("difference_position", p) for p in raw)


def test_thm7_asks_each_case_once_per_difference_position(monkeypatch):
    calls = Counter()
    counting(monkeypatch, closedforms, "difference_p", calls)
    report = theorems.verify_theorem("thm7", verify_opts(max_piles=4, max_entry=11))
    assert report.ok
    positions = set(map(closedforms.difference_position, raw_sequences(4, 11)))
    assert len(positions) == 91
    cases = theorems.THEOREMS["thm7"].cases(verify_opts())
    assert calls == Counter(
        ("difference_p", rules, convention, b)
        for _, rules, convention, _ in cases
        for b in positions
    )


def test_thm7_fault_shows_after_a_clean_run_in_the_same_process(
    capsys, monkeypatch
):
    # no memo outlives a sweep: a clean run first must not hide a wrong
    # difference position injected at the raw board (1, 2), nor the
    # injected run leave wrong verdicts behind for the clean run after it
    args = ["verify", "--theorem", "thm7", "--max-piles", "2", "--max-entry", "3"]
    real = closedforms.difference_position

    def wrong(raw):
        return real(raw) + (1,) if raw == (1, 2) else real(raw)

    assert run(capsys, *args)[0] == 0
    monkeypatch.setattr(closedforms, "difference_position", wrong)
    code, out, _ = run(capsys, *args)
    report = json.loads(out)
    assert code == 1 and len(report["counterexamples"]) == 8  # every case
    assert {tuple(c["position"]) for c in report["counterexamples"]} == {(1, 2)}
    monkeypatch.setattr(closedforms, "difference_position", real)
    assert run(capsys, *args)[0] == 0


VALUE_SWEEPS = [
    name for name, t in theorems.THEOREMS.items() if t.check in ("values", "monotone")
]


@pytest.mark.parametrize("theorem", VALUE_SWEEPS)
def test_value_sweeps_fill_one_table_per_case_and_list_no_domain(
    monkeypatch, theorem
):
    # each case walks its own table's cells in rank order
    calls = Counter()
    counting(monkeypatch, tables, "lattice_table", calls)
    opts = verify_opts(max_piles=3, max_entry=6)
    report = theorems.verify_theorem(theorem, opts)
    cases = theorems.THEOREMS[theorem].cases(opts)
    assert report.ok and sum(calls.values()) == len(cases)
    assert [(rules, convention) for _, rules, convention, *_ in calls] == [
        (rules, convention) for _, rules, convention, _ in cases
    ]


