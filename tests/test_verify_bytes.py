"""Byte-for-byte pins of ``gamesolve verify`` stdout, with and without an
injected wrong closed form, so the theorem sweeps can be restructured
without changing what they print."""

import pytest

from gamesolve import cli, closedforms, theorems

VERIFY_CASES = [
    # one bound given at a time: the other one is the theorem's default
    ("thm1", "--max-entry", "3"),
    ("thm1", "--max-heaps", "1"),
    ("cor2", "--max-entry", "3"),
    ("cor2", "--max-piles", "1"),
    ("thm3", "--max-entry", "3"),
    ("thm3", "--max-piles", "1"),
    ("thm4",),
    ("thm4", "--k", "2", "--max-piles", "2", "--max-entry", "6"),
    ("thm5",),
    ("thm5", "--k", "3", "--max-piles", "2", "--max-entry", "6"),
    ("thm6-grundy",),
    ("thm6-grundy", "--k", "2", "--max-entry", "6"),
    ("thm6-grundy", "--add-limit", "3", "--max-entry", "6"),
    ("thm6-pset",),
    ("thm6-pset", "--k", "1", "--add-limit", "2", "--max-entry", "6"),
    ("thm7", "--max-entry", "2"),
    ("thm7", "--max-piles", "1"),
    ("thm7", "--k", "2", "--convention", "misere", "--max-piles", "3",
     "--max-entry", "4"),
    ("thm7", "--convention", "normal", "--max-piles", "2", "--max-entry", "4"),
    ("lemma8",),
    ("lemma8", "--max-cols", "2", "--max-height", "5"),
    ("lemma9",),
    # lemma 9 covers one and two columns whatever --max-cols says
    ("lemma9", "--max-cols", "4", "--max-height", "7"),
    ("bulk-conjecture",),
    ("bulk-conjecture", "--max-a1", "2", "--max-extent", "7"),
    ("bulk-conjecture", "--max-a1", "0", "--max-extent", "0"),
]

# (verify arguments, closed form to break, the argument it gives a wrong
# label for); one case per theorem, so every check kind and tag is pinned.
# thm7 asks its predicate once per difference position, so a wrong label
# at one raw board is a wrong difference position there
INJECTED_CASES = [
    (("thm1", "--max-piles", "3", "--max-entry", "3"),
     "nim_grundy_formula", (1, 2, 3)),
    (("cor2", "--max-piles", "3", "--max-entry", "3"),
     "nim_grundy_formula", (1, 2, 3)),
    (("thm3", "--max-piles", "3", "--max-entry", "3"),
     "nim_p_misere", (1, 1, 1)),
    (("thm4", "--k", "2", "--max-piles", "2", "--max-entry", "4"),
     "slow_nim_grundy_formula", (3,)),
    (("thm5", "--max-piles", "2", "--max-entry", "3"),
     "slow_nim_p_misere", (2, 3)),
    (("thm6-grundy", "--k", "1", "--max-entry", "4"),
     "nim_grundy_formula", (2, 3)),
    (("thm6-pset", "--add-limit", "1", "--max-entry", "4"),
     "slow_nim_grundy_formula", (1, 1)),
    (("thm7", "--max-piles", "2", "--max-entry", "3"),
     "difference_position", (1, 2)),
    (("lemma8", "--max-cols", "3", "--max-height", "3"),
     "diet2_normal_p", (1, 2)),
    (("lemma8", "--max-cols", "2", "--max-height", "2"),
     "stairs_mod3_fact", 1),
    (("lemma9", "--max-height", "5"),
     "diet2_misere_p_narrow", (3, 4)),
    (("bulk-conjecture", "--max-a1", "2", "--max-extent", "8"),
     "diet2_misere_bulk_conjecture", (1, 4, 8)),
]

# the exact stdout of each case, as the per-theorem sweep functions printed
# it before the theorem table replaced them
EXPECTED = {
    "bulk-conjecture": (
        '{"theorem": "bulk-conjecture", "checked": 1440, '
        '"skipped_boundary": 1332, "counterexamples": [], "ok": true}\n'
    ),
    "bulk-conjecture --max-a1 0 --max-extent 0": (
        '{"theorem": "bulk-conjecture", "checked": 0, '
        '"skipped_boundary": 1, "counterexamples": [], "ok": true}\n'
    ),
    "bulk-conjecture --max-a1 2 --max-extent 7": (
        '{"theorem": "bulk-conjecture", "checked": 9, '
        '"skipped_boundary": 99, "counterexamples": [], "ok": true}\n'
    ),
    "cor2 --max-entry 3": (
        '{"theorem": "cor2", "checked": 35, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "cor2 --max-piles 1": (
        '{"theorem": "cor2", "checked": 16, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "lemma8": (
        '{"theorem": "lemma8", "checked": 2821, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "lemma8 --max-cols 2 --max-height 5": (
        '{"theorem": "lemma8", "checked": 1022, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "lemma9": (
        '{"theorem": "lemma9", "checked": 496, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "lemma9 --max-cols 4 --max-height 7": (
        '{"theorem": "lemma9", "checked": 36, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "thm1 --max-entry 3": (
        '{"theorem": "thm1", "checked": 35, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "thm1 --max-heaps 1": (
        '{"theorem": "thm1", "checked": 16, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "thm3 --max-entry 3": (
        '{"theorem": "thm3", "checked": 35, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "thm3 --max-piles 1": (
        '{"theorem": "thm3", "checked": 16, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "thm4": (
        '{"theorem": "thm4", "checked": 2448, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "thm4 --k 2 --max-piles 2 --max-entry 6": (
        '{"theorem": "thm4", "checked": 28, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "thm5": (
        '{"theorem": "thm5", "checked": 2448, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "thm5 --k 3 --max-piles 2 --max-entry 6": (
        '{"theorem": "thm5", "checked": 28, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "thm6-grundy": (
        '{"theorem": "thm6-grundy", "checked": 343, "skipped_boundary": '
        '112, "counterexamples": [], "ok": true}\n'
    ),
    "thm6-grundy --add-limit 3 --max-entry 6": (
        '{"theorem": "thm6-grundy", "checked": 56, "skipped_boundary": '
        '56, "counterexamples": [], "ok": true}\n'
    ),
    "thm6-grundy --k 2 --max-entry 6": (
        '{"theorem": "thm6-grundy", "checked": 51, "skipped_boundary": '
        '33, "counterexamples": [], "ok": true}\n'
    ),
    "thm6-pset": (
        '{"theorem": "thm6-pset", "checked": 455, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "thm6-pset --k 1 --add-limit 2 --max-entry 6": (
        '{"theorem": "thm6-pset", "checked": 56, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "thm7 --convention normal --max-piles 2 --max-entry 4": (
        '{"theorem": "thm7", "checked": 84, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "thm7 --k 2 --convention misere --max-piles 3 --max-entry 4": (
        '{"theorem": "thm7", "checked": 112, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "thm7 --max-entry 2": (
        '{"theorem": "thm7", "checked": 280, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
    "thm7 --max-piles 1": (
        '{"theorem": "thm7", "checked": 112, "skipped_boundary": 0, '
        '"counterexamples": [], "ok": true}\n'
    ),
}

EXPECTED_INJECTED = {
    "bulk-conjecture --max-a1 2 --max-extent 8": (
        '{"theorem": "bulk-conjecture", "checked": 18, '
        '"skipped_boundary": 117, "counterexamples": [{"position": [1, '
        '4, 8], "reason": "bulk formula disagrees with solver"}], "ok": '
        'false}\n'
    ),
    "cor2 --max-piles 3 --max-entry 3": (
        '{"theorem": "cor2", "checked": 20, "skipped_boundary": 0, '
        '"counterexamples": [{"position": [1, 2, 3], "reason": "claimed '
        'N-position with no P-successor"}], "ok": false}\n'
    ),
    "lemma8 --max-cols 2 --max-height 2": (
        '{"theorem": "lemma8", "checked": 1007, "skipped_boundary": 0, '
        '"counterexamples": [{"position": [1], "reason": "triangular '
        'number is 2 mod 3"}], "ok": false}\n'
    ),
    "lemma8 --max-cols 3 --max-height 3": (
        '{"theorem": "lemma8", "checked": 1021, "skipped_boundary": 0, '
        '"counterexamples": [{"position": [1, 2], "reason": '
        '"diet-chomp-2 normal: closed form False != solver True"}], '
        '"ok": false}\n'
    ),
    "lemma9 --max-height 5": (
        '{"theorem": "lemma9", "checked": 21, "skipped_boundary": 0, '
        '"counterexamples": [{"position": [3, 4], "reason": '
        '"diet-chomp-2 misere narrow: closed form False != solver '
        'True"}], "ok": false}\n'
    ),
    "thm1 --max-piles 3 --max-entry 3": (
        '{"theorem": "thm1", "checked": 20, "skipped_boundary": 0, '
        '"counterexamples": [{"position": [1, 2, 3], "reason": "nim '
        'grundy: closed form 1 != solver 0"}], "ok": false}\n'
    ),
    "thm3 --max-piles 3 --max-entry 3": (
        '{"theorem": "thm3", "checked": 20, "skipped_boundary": 0, '
        '"counterexamples": [{"position": [1, 1, 1], "reason": "misere '
        'nim: closed form False != solver True"}], "ok": false}\n'
    ),
    "thm4 --k 2 --max-piles 2 --max-entry 4": (
        '{"theorem": "thm4", "checked": 15, "skipped_boundary": 0, '
        '"counterexamples": [{"position": [3], "reason": "slow-nim k=2: '
        'closed form 1 != solver 0"}], "ok": false}\n'
    ),
    "thm5 --max-piles 2 --max-entry 3": (
        '{"theorem": "thm5", "checked": 30, "skipped_boundary": 0, '
        '"counterexamples": [{"position": [2, 3], "reason": "misere '
        'slow-nim k=1: closed form False != solver True"}, {"position": '
        '[2, 3], "reason": "misere slow-nim k=2: closed form True != '
        'solver False"}, {"position": [2, 3], "reason": "misere slow-nim '
        'k=3: closed form True != solver False"}], "ok": false}\n'
    ),
    "thm6-grundy --k 1 --max-entry 4": (
        '{"theorem": "thm6-grundy", "checked": 26, "skipped_boundary": '
        '19, "counterexamples": [{"position": [1, 3], "reason": '
        '"extended-nim add_limit=1: mex of successor labels 4 != label '
        '2"}, {"position": [2, 3], "reason": "extended-nim add_limit=1: '
        'mex of successor labels 1 != label 2"}], "ok": false}\n'
    ),
    "thm6-pset --add-limit 1 --max-entry 4": (
        '{"theorem": "thm6-pset", "checked": 60, "skipped_boundary": 0, '
        '"counterexamples": [{"position": [1, 1], "reason": '
        '"extended-slow-nim k=1: claimed N-position with no '
        'P-successor"}, {"position": [1, 1], "reason": '
        '"extended-slow-nim k=2: claimed N-position with no '
        'P-successor"}, {"position": [1, 1], "reason": '
        '"extended-slow-nim k=3: claimed N-position with no '
        'P-successor"}], "ok": false}\n'
    ),
    "thm7 --max-piles 2 --max-entry 3": (
        '{"theorem": "thm7", "checked": 120, "skipped_boundary": 0, '
        '"counterexamples": [{"position": [1, 2], "reason": '
        '"monotonic-nim normal: closed form True != solver False"}, '
        '{"position": [1, 2], "reason": "monotonic-nim misere: closed '
        'form False != solver True"}, {"position": [1, 2], "reason": '
        '"monotonic-slow-nim k=1 normal: closed form True != solver '
        'False"}, {"position": [1, 2], "reason": "monotonic-slow-nim k=1 '
        'misere: closed form False != solver True"}, {"position": [1, '
        '2], "reason": "monotonic-slow-nim k=2 normal: closed form True '
        '!= solver False"}, {"position": [1, 2], "reason": '
        '"monotonic-slow-nim k=2 misere: closed form False != solver '
        'True"}, {"position": [1, 2], "reason": "monotonic-slow-nim k=3 '
        'normal: closed form True != solver False"}, {"position": [1, '
        '2], "reason": "monotonic-slow-nim k=3 misere: closed form False '
        '!= solver True"}], "ok": false}\n'
    ),
}


def _verify(capsys, args):
    code = cli.main(["verify", "--theorem", *args])
    return code, capsys.readouterr().out


def _key(args):
    return " ".join(args)


@pytest.mark.parametrize("args", VERIFY_CASES, ids=_key)
def test_verify_stdout_pinned(capsys, args):
    code, out = _verify(capsys, args)
    assert code == 0
    assert out == EXPECTED[_key(args)]


@pytest.mark.parametrize(
    "args, name, at", INJECTED_CASES, ids=[_key(c[0]) for c in INJECTED_CASES]
)
def test_verify_injected_counterexample_pinned(capsys, monkeypatch, args, name, at):
    real = getattr(closedforms, name)

    def wrong(*call_args):
        value = real(*call_args)
        if call_args[-1] != at:
            return value
        if isinstance(value, tuple):  # (1,) becomes (1, 1): the verdict flips
            return value + (1,)
        return (not value) if isinstance(value, bool) else value + 1

    monkeypatch.setattr(closedforms, name, wrong)
    code, out = _verify(capsys, args)
    assert code == 1
    assert out == EXPECTED_INJECTED[_key(args)]


def test_theorem_table_matches_parser_choices():
    parser = cli.build_parser()
    subparsers = next(
        a for a in parser._actions if a.dest == "command"
    ).choices
    theorem = next(
        a for a in subparsers["verify"]._actions if a.dest == "theorem"
    )
    assert sorted(theorems.THEOREMS) == list(theorem.choices)
