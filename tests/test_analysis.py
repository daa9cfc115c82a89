import pytest

from gamesolve import Convention, Family, RuleSet, analysis, closedforms
from gamesolve.analysis import (
    InsufficientProbe,
    Margins,
    PINNED_BULK_MARGINS,
    bulk_formula_agreement,
    directional_period,
    figure_grids,
    render_ascii,
    render_pbm,
    translation_period_check,
)
from helpers import lattice_values, three_column_domain

DC2 = RuleSet(Family.DIET_CHOMP, k=2)
BULK = closedforms.diet2_misere_bulk_conjecture


def parse_pbm(data: bytes) -> tuple:
    """Inverse of render_pbm: the raster's rows, bottom row first."""
    tokens = data.decode("ascii").split()
    if tokens[0] != "P1":
        raise ValueError("not a plain PBM")
    width, height = int(tokens[1]), int(tokens[2])
    bits = [t == "1" for t in tokens[3:]]
    if len(bits) != width * height:
        raise ValueError("bit count mismatch")
    rows = [tuple(bits[r * width : (r + 1) * width]) for r in range(height)]
    rows.reverse()  # the file stores the top row first
    return tuple(rows)


@pytest.fixture(scope="module")
def misere_fn():
    return lambda points: lattice_values(DC2, Convention.MISERE, points)


def test_single_column_period_three(misere_fn):
    report = directional_period(misere_fn, (0,), (1,), 60, 16, 24)
    assert (report.preperiod, report.period) == (0, 3)


def test_constant_function_period_one():
    report = directional_period(
        lambda ps: ["x"] * len(ps), (0, 0, 0), (1, 1, 1), 60, 16, 24
    )
    assert report.period == 1
    assert report.preperiod == 0


def test_flat_diagonal_period_twelve(misere_fn):
    report = directional_period(misere_fn, (0, 0, 0), (1, 1, 1), 60, 16, 24)
    assert report.period == 12


def test_insufficient_probe_rejected(misere_fn):
    with pytest.raises(InsufficientProbe):
        directional_period(misere_fn, (0,), (1,), 10, 16, 24)


def test_direction_must_be_nonzero(misere_fn):
    with pytest.raises(ValueError):
        directional_period(misere_fn, (0, 0, 0), (0, 0, 0), 60, 16, 24)


def test_direction_arity_must_match_base():
    with pytest.raises(ValueError, match="direction arity must match base"):
        directional_period(lambda ps: ["x"] * len(ps), (0, 0, 0), (1, 1), 60, 16, 24)


def test_preperiod_preferred_over_period():
    # sequence: one-off head then all equal; (1,1) beats any (0,p)
    seq = [1, 0, 0, 0] + [0] * 60
    report = directional_period(
        lambda ps: [seq[p[0]] for p in ps], (0,), (1,), 60, 16, 24
    )
    assert (report.preperiod, report.period) == (1, 1)


def test_translation_period_twelve():
    [report] = translation_period_check(DC2, Convention.MISERE, 6, 12, [12])
    assert report.ok
    [report1] = translation_period_check(DC2, Convention.MISERE, 6, 12, [1])
    assert not report1.ok


def test_translation_period_three_normal():
    [report] = translation_period_check(DC2, Convention.NORMAL, 6, 12, [3])
    assert report.ok


def test_figure_grid_corner_cells():
    rows = figure_grids(DC2, Convention.MISERE, [0], 2, 2, False)[0]
    assert rows[0][0] is False  # (0,0,0) terminal is N in misere
    assert rows[1][0] is True  # (0,0,1) -> single square, P
    [corner] = lattice_values(DC2, Convention.MISERE, [(0, 1, 1)])
    assert rows[0][1] == corner


def test_render_pbm_examples():
    assert render_pbm(((True,),)) == b"P1\n1 1\n1\n"
    assert render_pbm(((False, True),)) == b"P1\n2 1\n0 1\n"
    assert render_pbm(((True,), (False,))) == b"P1\n1 2\n0\n1\n"


def test_render_ascii():
    assert render_ascii(((True, False), (False, True))) == ".#\n#.\n"


def test_pbm_round_trip():
    rows = figure_grids(DC2, Convention.MISERE, [3], 7, 5, False)[0]
    assert (len(rows), len(rows[0])) == (5, 7)
    assert parse_pbm(render_pbm(rows)) == rows


def test_bulk_agreement_pinned_margins():
    result = bulk_formula_agreement(
        DC2, Convention.MISERE, BULK, 8, 16, PINNED_BULK_MARGINS
    )
    assert result.ok
    assert result.checked_count > 0


def test_bulk_agreement_zero_margins_fails():
    result = bulk_formula_agreement(DC2, Convention.MISERE, BULK, 8, 16, Margins())
    assert not result.ok
    assert result.counterexamples


@pytest.mark.parametrize("k, wrong", [(1, 0), (3, 324)])
def test_bulk_reader_checks_the_formula_it_is_given(k, wrong):
    # the bulk rule mod k+1 on misere k-Diet Chomp: exact for k = 1, not
    # for k = 3; each counterexample is a board whose per-point outcome
    # differs from the formula's verdict
    rules = RuleSet(Family.DIET_CHOMP, k=k)

    def form(p):
        return (p[0] + p[2] - p[1]) % (k + 1) == 1

    report = bulk_formula_agreement(
        rules, Convention.MISERE, form, 11, 20, PINNED_BULK_MARGINS
    )
    y0, x0 = PINNED_BULK_MARGINS
    inside = [
        p for p in three_column_domain(11, 20)
        if p[1] - p[0] >= x0 and p[2] - p[1] >= y0
    ]
    values = lattice_values(rules, Convention.MISERE, inside)
    expected = [p for p, is_p in zip(inside, values) if is_p != form(p)]
    assert (report.checked_count, report.skipped_boundary_count) == (1440, 1332)
    assert [p for p, _ in report.counterexamples] == expected
    assert len(expected) == wrong


def test_three_column_domain_matches_the_triple_loop():
    for max_a1 in range(6):
        for max_extent in range(9):
            expected = [
                (a1, a2, a3)
                for a1 in range(max_a1 + 1)
                for a2 in range(a1, a1 + max_extent + 1)
                for a3 in range(a2, a1 + max_extent + 1)
            ]
            assert list(three_column_domain(max_a1, max_extent)) == expected


def test_bulk_window_inside_the_margins_checks_nothing(monkeypatch):
    # extent 5 < 3 + 3: every board, (5, 6, 8) among them (x = 1 < 3), sits
    # in the excluded fringe, so no table is filled
    monkeypatch.setattr(analysis.tables, "lattice_table", None)
    result = bulk_formula_agreement(
        DC2, Convention.MISERE, BULK, 5, 5, PINNED_BULK_MARGINS
    )
    assert result.to_dict() == {
        "checked": 0, "skipped_boundary": 126, "counterexamples": [], "ok": True
    }
    assert (5, 6, 8) in three_column_domain(5, 5)
