"""Command lines drawn from ``cli.OPTIONS`` and ``cli.COMMANDS``: valid and
invalid values, options the run does not read, malformed positions,
``--a1`` ranges and ``--base``/``--direction`` components.  Whatever is
drawn, ``main`` ends with exit code 0, 1 or 2 and prints no traceback;
argparse's own usage errors leave through ``SystemExit(2)``, which is
exit code 2 to the shell.  Sizes stay small: at most 3 piles, entries up
to 6."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings, strategies as st

from gamesolve import Family, cli, theorems


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


NOT_INTS = st.sampled_from(["x", "", "1.5", "-"])
POSITIONS = st.lists(st.integers(0, 6), max_size=3).map(lambda e: ",".join(map(str, e)))
BAD_POSITIONS = st.sampled_from(
    ["1,,2", "x", "-1,2", "1;2", "7,", "3,2,1", "99999999999", "1,2,3,4,5,6,7,8"]
)
COMPONENTS = st.lists(st.integers(-2, 6), min_size=1, max_size=3).map(
    lambda e: ",".join(map(str, e))
)
# each option -> (valid values, invalid values); a flag takes no value
VALUES = {
    "game": (st.sampled_from([f.value for f in Family]), st.just("chess")),
    "k": (ints(1, 3), ints(-1, 0) | NOT_INTS),
    "add_limit": (ints(1, 3), ints(-1, 0) | NOT_INTS),
    "convention": (st.sampled_from(["normal", "misere"]), st.just("sideways")),
    "position": (POSITIONS, BAD_POSITIONS),
    "theorem": (st.sampled_from(sorted(theorems.THEOREMS)), st.just("thm99")),
    "max_piles": (ints(1, 3), ints(-1, 0) | NOT_INTS),
    "max_entry": (ints(1, 6), ints(-1, 0) | NOT_INTS),
    "max_a1": (ints(0, 3), ints(-2, -1) | NOT_INTS),
    "max_extent": (ints(0, 6), ints(-2, -1) | NOT_INTS),
    "a1": (
        st.sampled_from(["0", "2", "0..2", "1..3"]),
        st.sampled_from(["3..1", "-1", "x", "1..", "..2", "0..x", "-2..1"]),
    ),
    "width": (ints(1, 6), ints(-1, 0) | NOT_INTS),
    "height": (ints(1, 6), ints(-1, 0) | NOT_INTS),
    "format": (st.sampled_from(["pbm", "ascii"]), st.just("png")),
    "base": (COMPONENTS, st.sampled_from(["1,x", "", ",", "1,,2"])),
    "direction": (COMPONENTS, st.sampled_from(["1,x", "", ",", "1,,2"])),
    "probe": (ints(1, 8), ints(-1, 0) | NOT_INTS),
    "max_period": (ints(1, 4), ints(-1, 0) | NOT_INTS),
    "max_preperiod": (ints(0, 4), ints(-2, -1) | NOT_INTS),
    "translation": (ints(1, 3), ints(-1, 0) | NOT_INTS),
    "threads": (ints(1, 2), ints(-1, 0) | NOT_INTS),
    "moves": None,
    "triangular": None,
}
assert set(VALUES) | {"out", "input"} == set(cli.OPTIONS)


def sometimes(data, one_in: int) -> bool:
    return data.draw(st.sampled_from(range(one_in))) == 0


def argv_of(data, work: Path) -> list:
    """A drawn command line: a command (one time in twenty a bogus one),
    mostly its own options (each required one left out one time in ten),
    one time in five an option of any command, each value invalid one time
    in five, in either the two-word or the ``=`` form."""
    commands = st.sampled_from(list(cli.COMMANDS))
    name = "solve" if sometimes(data, 20) else data.draw(commands)
    command = cli.COMMANDS.get(name, cli.COMMANDS["outcome"])
    required = [
        n for n, default in command.options.items()
        if default is cli.REQUIRED and not sometimes(data, 10)
    ]
    own = st.sampled_from(list(command.parser_options()))
    names = required + data.draw(st.lists(own, max_size=4))
    if sometimes(data, 5):
        names.append(data.draw(st.sampled_from(list(cli.OPTIONS))))
    argv = [name]
    for option in dict.fromkeys(names):
        flag = data.draw(st.sampled_from(cli.OPTIONS[option].flags))
        if VALUES.get(option, ()) is None:
            argv.append(flag)
            continue
        if option == "out":
            value = str(work / "figs")
        elif option == "input":
            lines = POSITIONS | BAD_POSITIONS | st.just("# note")
            path = work / "input.txt"
            path.write_text("\n".join(data.draw(st.lists(lines, max_size=6))) + "\n")
            value = str(work / "missing.txt") if sometimes(data, 5) else str(path)
        else:
            valid, invalid = VALUES[option]
            value = data.draw(invalid if sometimes(data, 5) else valid)
        if data.draw(st.booleans()):
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


@settings(
    max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(st.data())
def test_any_command_line_exits_0_1_or_2_without_a_traceback(data):
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        argv = argv_of(data, Path(work))
        os.chdir(work)  # figure writes to "." unless --out is drawn
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        finally:
            os.chdir(home)
        lines = out.getvalue().splitlines()
        rasters = argv[0] == "figure" and all(Path(work, f).is_file() for f in lines)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert err.getvalue().strip(), argv
    elif argv[0] == "figure":  # the paths of the rasters written
        assert lines and rasters, argv
    else:  # one JSON object per line; a batch of no positions prints none
        assert all(isinstance(json.loads(line), dict) for line in lines), argv
