"""Cell results against the digest recorded by ``tests/record_digest.py``.

Values must agree within 1e-12; counts, verdicts, supports and witness texts
must agree exactly.
"""

import json
from pathlib import Path

import pytest

from laglab.verifier import cell_window, verify_cell
from record_digest import cell_entry

DIGEST = json.loads((Path(__file__).parent / "cell_digest.json").read_text())["cells"]
VALUE_FIELDS = ("witness_values", "colex_value", "max_value")


def assert_matches_digest(reports):
    for rep in reports:
        got, want = cell_entry(rep), DIGEST[f"{rep.t},{rep.m}"]
        where = f"cell ({rep.t}, {rep.m})"
        for key in VALUE_FIELDS:
            assert got[key] == pytest.approx(want[key], rel=0, abs=1e-12), (where, key)
        exact = {k: v for k, v in got.items() if k not in VALUE_FIELDS}
        assert exact == {k: want[k] for k in exact}, where


def test_digest_covers_t_up_to_10():
    assert sorted(DIGEST) == sorted(
        f"{t},{m}" for t in range(4, 11) for m in cell_window(t))


def test_cells_up_to_t7_match_digest(sweep6_reports):
    assert_matches_digest(sweep6_reports)
    assert_matches_digest([verify_cell(7, m) for m in cell_window(7)])


@pytest.mark.slow
def test_cells_t8_match_digest():
    assert_matches_digest([verify_cell(8, m) for m in cell_window(8)])
