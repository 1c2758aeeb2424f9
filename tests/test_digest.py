"""Cell results against the digest recorded by ``tests/record_digest.py``.

Values must agree within 1e-12; counts, verdicts, supports and witness texts
must agree exactly.
"""

import json
from pathlib import Path

import pytest

from laglab.verifier import cell_window, sweep, verify_cell, verify_cells
from record_digest import mismatches, solve_windows

DIGEST = json.loads((Path(__file__).parent / "cell_digest.json").read_text())["cells"]


def assert_matches_digest(reports):
    bad = [line for rep in reports for line in mismatches(rep, DIGEST)]
    assert not bad, bad


def test_digest_covers_t_up_to_11():
    assert sorted(DIGEST) == sorted(
        f"{t},{m}" for t in range(4, 12) for m in cell_window(t))


def test_cells_up_to_t7_match_digest(sweep6_reports):
    assert_matches_digest(sweep6_reports)
    assert_matches_digest([verify_cell(7, m) for m in cell_window(7)])


def test_cells_t8_match_digest():
    assert_matches_digest([verify_cell(8, m) for m in cell_window(8)])


def test_cells_t9_match_digest():
    assert_matches_digest([verify_cell(9, m) for m in cell_window(9)])


@pytest.mark.parametrize("t", range(4, 12))
def test_window_blocks_match_digest(t):
    # the cells of a window walked together, as a sweep walks them
    assert_matches_digest(verify_cells(t, cell_window(t)))


def test_digest_tool_solves_through_sweep():
    # the tool's sweep, kept for the windows asked for, against the sweep
    reports = solve_windows([5, 7])
    assert reports == [rep for rep in sweep(7) if rep.t in (5, 7)]
    assert [(rep.t, rep.m) for rep in reports] == [
        (t, m) for t in (5, 7) for m in cell_window(t)]
