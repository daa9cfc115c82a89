"""The ``verify`` value sweeps ("values" and "monotone" theorems) walk one
table per case in rank order.  They are checked here against the route
they replaced, which listed every point, read its value from the table
and compared it with the closed form one point at a time; and their
memory is pinned to a small multiple of the table."""

import tracemalloc
from argparse import Namespace
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from gamesolve import Convention, closedforms, tables, theorems
from gamesolve.tables import VerificationReport
from helpers import positions, raw_sequences

VALUE_SWEEPS = [
    name for name, t in theorems.THEOREMS.items() if t.check in ("values", "monotone")
]


def per_point_report(theorem, bounds, cases) -> VerificationReport:
    """``verify_theorem`` as the sweeps ran before they walked their tables:
    list the domain's points, read them through ``board_values`` and
    compare each with its closed form; a "monotone" closed form reads the
    point's difference position."""
    domain = bounds["max_piles"], bounds["max_entry"]
    if theorem.check == "monotone":
        points = raw_sequences(*domain)
        expected_at = [closedforms.difference_position(p) for p in points]
    else:
        points = expected_at = positions(*domain)
    report = VerificationReport()
    for tag, rules, convention, form in cases:
        values = tables.board_values(rules, convention, points)
        for p, arg, actual in zip(points, expected_at, values):
            report.checked_count += 1
            expected = form(arg)
            if expected != actual:
                report.add(p, f"{tag}: closed form {expected} != solver {actual}")
    if theorem.fact is not None:
        reason, fact_points, holds = theorem.fact
        for p in fact_points:
            report.checked_count += 1
            if not holds(p):
                report.add(p, reason)
    return report


def flip(value):
    return (not value) if isinstance(value, bool) else value + 1


def wrong_at(form, wrong):
    return lambda p: flip(form(p)) if p in wrong else form(p)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(VALUE_SWEEPS),
    st.integers(1, 4),
    st.integers(1, 7),
    st.one_of(st.none(), st.integers(1, 4)),
    st.one_of(st.none(), st.sampled_from([c.value for c in Convention])),
    st.data(),
)
def test_value_sweeps_match_the_per_point_route(
    name, piles, entry, k, convention, data
):
    theorem = theorems.THEOREMS[name]
    opts = Namespace(
        max_piles=piles, max_entry=entry, add_limit=None,
        k=k if "k" in theorem.params else None,
        convention=convention if "convention" in theorem.params else None,
    )
    bounds = {**theorem.fixed, **{o: getattr(opts, o) for o in theorem.bounds}}
    domain = bounds["max_piles"], bounds["max_entry"]
    monotone = theorem.check == "monotone"
    points = raw_sequences(*domain) if monotone else positions(*domain)
    # 0-3 wrong verdicts: at a position, in the closed form; at a raw
    # sequence, in its difference position or in the verdict there
    wrong = data.draw(st.lists(st.sampled_from(points), max_size=3, unique=True))
    real = closedforms.difference_position
    by_map = data.draw(st.lists(st.booleans(), min_size=3, max_size=3))
    mapped = {w for w, m in zip(wrong, by_map) if monotone and m}
    judged = {real(w) if monotone else w for w in wrong if w not in mapped}
    cases = [
        (tag, rules, conv, wrong_at(form, judged))
        for tag, rules, conv, form in theorem.cases(opts)
    ]

    def mapping(raw):
        return real(raw) + (1,) if raw in mapped else real(raw)

    with patch.object(closedforms, "difference_position", mapping), patch.dict(
        theorems.THEOREMS, {name: theorem._replace(cases=lambda opts: cases)}
    ):
        report = theorems.verify_theorem(name, opts).to_dict()
        expected = per_point_report(theorem, bounds, cases).to_dict()
    assert report == expected
    if wrong and not monotone:
        assert not report["ok"]


def test_a_five_column_sweep_peaks_within_a_small_multiple_of_its_table():
    # thm3 over 5 piles of entries <= 20: one 53,130-cell table, whose
    # points the route before the table walk listed at 9.3 MB
    built, real = [], tables.lattice_table

    def keep(*args):
        built.append(real(*args))
        return built[-1]

    opts = Namespace(max_piles=5, max_entry=20, k=None, convention=None)
    with patch.object(tables, "lattice_table", keep):
        tracemalloc.start()
        try:
            report = theorems.verify_theorem("thm3", opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert report.ok and report.checked_count == len(built[0]) == 53_130
    assert peak < 5 * len(built[0])  # 3.3 times on CPython 3.11
