"""Every command of the benchmark's workloads (``perfbench/workloads.py``),
run in process, gives the outputs that the benchmark's own oracle
(``perfbench/oracle.py``) accepts: the stdout and figure rasters of its
references in ``perfbench/ref/``, and for ``batch-requests`` the answer
table's line for every request of two seeds' files.  So an output drift
fails here before a benchmark run counts it as incorrect."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from gamesolve.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """``perfbench/<name>.py`` as a module of its own name, read only."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


workloads, oracle = load("workloads"), load("oracle")
COMMANDS = [
    (workload, command)
    for workload in workloads.WORKLOADS.values()
    for command in workload.commands
]
SEEDS = (1, 2)


@pytest.fixture(scope="module")
def judge():
    return oracle.Oracle()


def replay(capsys, monkeypatch, cwd, command):
    """The command run by ``main`` in ``cwd``, as the sample that the
    oracle reads from a benchmark run."""
    monkeypatch.chdir(cwd)
    code = main(list(command.args))
    stdout = capsys.readouterr().out.encode()
    return SimpleNamespace(rc=code, timed_out=False, stdout=stdout)


@pytest.mark.parametrize(
    "workload, command",
    [(w, c) for w, c in COMMANDS if c.kind != "batch"],
    ids=lambda x: x.name,
)
def test_fixed_commands_match_their_references(
    capsys, monkeypatch, tmp_path, judge, workload, command
):
    sample = replay(capsys, monkeypatch, tmp_path, command)
    verdict = judge.check(workload, command, sample, tmp_path)
    assert (verdict.attempted, verdict.failed) == (1 + len(command.files), 0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "workload, command",
    [(w, c) for w, c in COMMANDS if c.kind == "batch"],
    ids=lambda x: x.name,
)
def test_batch_commands_answer_every_request(
    capsys, monkeypatch, tmp_path, judge, workload, command, seed
):
    inputs = workloads.batch_inputs(seed)
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    sample = replay(capsys, monkeypatch, tmp_path, command)
    text = inputs[command.input_file]
    verdict = judge.check(workload, command, sample, tmp_path, text)
    assert verdict.attempted == len(oracle.request_lines(text)) > 0
    assert verdict.failed == 0
