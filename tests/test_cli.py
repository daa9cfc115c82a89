import json

import pytest

from gamesolve import cli
from gamesolve.cli import main


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


def test_threads_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GAMESOLVE_THREADS", "2")
    path = tmp_path / "positions.txt"
    path.write_text("1\n2\n")
    code, out, _ = run(capsys, "batch", "--game", "nim", "--input", str(path))
    assert code == 0
    assert len(out.splitlines()) == 2


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


@pytest.mark.parametrize("value", ["abc", "0", "-1", ""])
def test_threads_env_invalid_exits_2(capsys, tmp_path, monkeypatch, value):
    monkeypatch.setenv("GAMESOLVE_THREADS", value)
    path = tmp_path / "positions.txt"
    path.write_text("1\n2\n")
    code, out, err = run(capsys, "batch", "--game", "nim", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: GAMESOLVE_THREADS")
    # only batch reads the variable
    code, out, _ = run(capsys, "outcome", "--game", "nim", "--position", "1,2")
    assert code == 0


def test_threads_option_nonpositive_exits_2(capsys, tmp_path):
    path = tmp_path / "positions.txt"
    path.write_text("1\n")
    code, _, err = run(
        capsys, "batch", "--game", "nim", "--input", str(path), "--threads", "0"
    )
    assert code == 2
    assert err.startswith("error: --threads")


@pytest.mark.parametrize(
    "threads, n_lines, expected",
    [(8, 5, 3), (8, 2, 2), (2, 5, 2), (8, 1, None), (1, 5, None)],
)
def test_batch_workers_clamped(
    capsys, tmp_path, monkeypatch, threads, n_lines, expected
):
    created = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor without starting processes."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    path = tmp_path / "positions.txt"
    path.write_text("".join(f"{i},{i + 1}\n" for i in range(1, n_lines + 1)))
    args = ["batch", "--game", "nim", "--input", str(path)]
    code, out, _ = run(capsys, *args, "--threads", str(threads))
    assert code == 0
    assert created == ([expected] if expected else [])
    assert out == run(capsys, *args, "--threads", "1")[1]
    assert len(out.splitlines()) == n_lines


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


@pytest.mark.parametrize(
    "args",
    [
        ("--a1", "-1"),
        ("--a1=-2..1",),
        ("--a1", "0", "--width", "-3"),
        ("--a1", "0", "--width", "0"),
        ("--a1", "0", "--height", "0"),
    ],
)
def test_figure_bad_arguments_exit_2_before_writing(capsys, tmp_path, args):
    out_dir = tmp_path / "figs"
    code, out, err = run(capsys, "figure", *args, "--out", str(out_dir))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
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
