"""CLI surface: commands, formats, exit codes, determinism."""

import json
import os

import pytest

from laglab.cli import main
from laglab.hypergraph import build_colex_graph, serialize_edge_list
from laglab.reporting import fmt_float, render_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_complete_builtin(self, capsys):
        code, out, _ = run(capsys, "compute", "complete:r=3,t=4")
        assert code == 0
        assert "value: 0.0625" in out
        assert "certified: true" in out

    def test_colex_builtin_plateau(self, capsys):
        code, out, _ = run(capsys, "compute", "colex:r=3,m=5")
        assert code == 0
        assert "value: 0.0625" in out

    def test_family_builtin(self, capsys):
        code, out, _ = run(capsys, "compute", "family:lemma3.5,t=6")
        assert code == 0

    def test_edge_list_file_five_cycle(self, capsys, tmp_path):
        path = tmp_path / "c5.edges"
        path.write_text("2 5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n")
        code, out, _ = run(capsys, "compute", str(path))
        assert code == 0
        assert "value: 0.25" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "compute", "complete:r=3,t=4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 0.0625
        assert doc["support"] == 4
        assert doc["certified"] is True

    def test_parse_error_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3 5 1\n1 q 3\n")
        code, _, err = run(capsys, "compute", str(path))
        assert code == 1
        assert "line 2" in err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "compute", "nope.edges")
        assert code == 1

    def test_bad_builtin_exit_1(self, capsys):
        code, _, err = run(capsys, "compute", "colex:r=3")
        assert code == 1

    def test_uncertified_exit_2(self, capsys):
        code, out, _ = run(capsys, "compute", "complete:r=3,t=5", "--kkt-tol", "-1")
        assert code == 2
        assert "certified: false" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "res.json"
        code, out, _ = run(capsys, "compute", "complete:r=3,t=4",
                           "--format", "json", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["value"] == 0.0625


class TestVerifyConfig:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify-config", "--family", "thm1.10",
                           "--t", "7", "--i", "1", "--a", "3")
        assert code == 0
        assert "result: pass" in out

    def test_lemma35(self, capsys):
        code, out, _ = run(capsys, "verify-config", "--family", "lemma3.5", "--t", "6")
        assert code == 0

    def test_rejected_params_exit_1(self, capsys):
        code, _, err = run(capsys, "verify-config", "--family", "thm1.10",
                           "--t", "7", "--i", "3", "--a", "3")
        assert code == 1
        assert "a >= 2i+1" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify-config", "--family", "lemma3.4",
                           "--t", "7", "--a", "5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True


class TestEnumerate:
    def test_counts(self, capsys):
        for args, expect in [(("--t", "4", "--m", "4"), 1),
                             (("--t", "5", "--m", "1"), 1),
                             (("--t", "5", "--m", "5"), 2)]:
            code, out, _ = run(capsys, "enumerate", *args)
            assert code == 0
            assert out.splitlines()[0] == str(expect)

    def test_list_stdout(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--t", "5", "--m", "5", "--list")
        assert code == 0
        blocks = [b for b in out.split("\n\n") if b.strip() and not b.strip().isdigit()]
        assert len(blocks) == 2

    def test_list_roundtrip_through_compute(self, capsys, tmp_path):
        out_dir = tmp_path / "graphs"
        code, out, _ = run(capsys, "enumerate", "--t", "5", "--m", "6",
                           "--list", "--out", str(out_dir))
        assert code == 0
        files = sorted(out_dir.glob("*.edges"))
        assert len(files) == int(out.split()[0])
        for f in files:
            code, _, _ = run(capsys, "compute", str(f))
            assert code == 0

    def test_bad_m_exit_1(self, capsys):
        code, _, err = run(capsys, "enumerate", "--t", "4", "--m", "99")
        assert code == 1

    def test_non_triple_uniformity_refused(self, capsys):
        code, _, err = run(capsys, "enumerate", "--t", "5", "--m", "2", "--r", "4")
        assert code == 1
        assert "r=3" in err


class TestSweep:
    def test_t4_files_and_exit(self, capsys, tmp_path):
        out_dir = tmp_path / "s4"
        code, out, _ = run(capsys, "sweep", "--t-max", "4", "--workers", "1",
                           "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "sweep.json").exists()
        cells = sorted((out_dir / "cells").glob("*.json"))
        assert len(cells) == 4
        doc = json.loads((out_dir / "sweep.json").read_text())
        assert doc["schema"] == 1
        assert len(doc["cells"]) == 4
        assert all(c["all_pass"] for c in doc["cells"])

    def test_csv_stdout(self, capsys, tmp_path):
        code, out, _ = run(capsys, "sweep", "--t-max", "4", "--workers", "1",
                           "--out", str(tmp_path / "s"), "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,m,a,colex_value,max_value,gap,graph_count,all_pass"
        assert len(lines) == 5

    def test_budget_exhaustion_exit_3(self, capsys, tmp_path):
        # t=4 cells hold a single graph each; t=5 cells exceed a budget of 1
        code, _, err = run(capsys, "sweep", "--t-max", "5", "--workers", "1",
                           "--out", str(tmp_path / "s"), "--cell-budget", "1")
        assert code == 3
        assert "incomplete cell" in err

    def test_bad_t_max_exit_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--t-max", "9",
                         "--out", str(tmp_path / "s"))
        assert code == 1

    def test_workers_do_not_change_bytes(self, capsys, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        code_a, _, _ = run(capsys, "sweep", "--t-max", "4", "--workers", "1",
                           "--out", str(a_dir))
        code_b, _, _ = run(capsys, "sweep", "--t-max", "4", "--workers", "2",
                           "--out", str(b_dir))
        assert code_a == code_b == 0
        assert (a_dir / "sweep.json").read_bytes() == (b_dir / "sweep.json").read_bytes()
        assert (a_dir / "summary.csv").read_bytes() == (b_dir / "summary.csv").read_bytes()


class TestCheck:
    def test_cell_5_7(self, capsys):
        code, out, _ = run(capsys, "check", "--t", "5", "--m", "7")
        assert code == 0
        assert "support_bound: pass" in out
        assert "delta_bound: pass" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check", "--t", "4", "--m", "4",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["cell"]["all_pass"] is True

    def test_bad_cell_exit_1(self, capsys):
        code, _, _ = run(capsys, "check", "--t", "5", "--m", "2")
        assert code == 1


class TestUsageErrors:
    """Parser errors share exit 1 with the other usage errors; exit 2 stays
    reserved for uncertified or failing numeric results."""

    @pytest.mark.parametrize("argv", [
        ("sweep",),  # --t-max is required
        ("compute", "complete:r=3,t=4", "--starts", "x"),
        ("compute", "complete:r=3,t=4", "--starts", "-3"),
        ("compute", "complete:r=3,t=4", "--tol", "1e-9"),  # no such flag
        ("frobnicate",),
    ])
    def test_parser_errors_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "compute", "--help")
        assert code == 0
        assert "--starts" in out

    def test_zero_starts_accepted(self, capsys, tmp_path):
        # a general graph, so the multistart route runs without random starts
        path = tmp_path / "c5.edges"
        path.write_text("2 5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n")
        code, out, _ = run(capsys, "compute", str(path), "--starts", "0")
        assert code == 0
        assert "value: 0.25" in out


class TestSeeding:
    def test_env_seed_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LAGLAB_SEED", "0x1234")
        out_dir = tmp_path / "s"
        code, _, _ = run(capsys, "sweep", "--t-max", "4", "--workers", "1",
                         "--out", str(out_dir))
        assert code == 0
        doc = json.loads((out_dir / "sweep.json").read_text())
        assert doc["seed"] == 0x1234

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("LAGLAB_SEED", "7")
        out_dir = tmp_path / "s"
        code, _, _ = run(capsys, "sweep", "--t-max", "4", "--workers", "1",
                         "--seed", "11", "--out", str(out_dir))
        assert code == 0
        doc = json.loads((out_dir / "sweep.json").read_text())
        assert doc["seed"] == 11


class TestReportRendering:
    def test_fmt_float_17_digits(self):
        assert fmt_float(0.0625) == "0.0625"
        assert fmt_float(20 / 216) == "0.092592592592592587"

    def test_render_json_parses_back(self):
        doc = {"a": 1.5, "b": [1, 2, {"c": None, "d": True}], "e": "x\ny"}
        text = render_json(doc)
        assert json.loads(text) == doc

    def test_render_rejects_non_finite(self):
        with pytest.raises(ValueError):
            render_json({"x": float("nan")})
