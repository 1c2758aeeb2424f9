"""CLI surface: commands, formats, exit codes, determinism."""

import hashlib
import json
import os

import pytest

from laglab import cli
from laglab.cli import main
from laglab.hypergraph import RGraph, build_colex_graph, parse_edge_list, serialize_edge_list
from laglab.reporting import fmt_float, render_json, reports_csv
from laglab.solver import SolverOptions, lagrangian
from laglab.verifier import ConfigurationSpec, check_theorem_inequality

FIVE_CYCLE_TEXT = "2 5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n"


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

    def test_uncertified_result_carries_its_note(self, capsys):
        code, out, _ = run(capsys, "compute", "complete:r=3,t=5", "--kkt-tol=-1",
                           "--format", "json")
        assert code == 2
        doc = json.loads(out)
        assert doc["certified"] is False
        assert len(doc["notes"]) == 1 and "exceeds kkt_tol" in doc["notes"][0]
        code, out, _ = run(capsys, "compute", "complete:r=3,t=5", "--kkt-tol=-1")
        assert code == 2
        assert f"note: {doc['notes'][0]}" in out.splitlines()

    def test_parse_error_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("3 5 1\n1 q 3\n")
        code, _, err = run(capsys, "compute", str(path))
        assert code == 1
        assert "line 2" in err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "compute", "nope.edges")
        assert code == 1

    @pytest.mark.parametrize("source, named", [
        ("colex:r=3", "needs m="),
        ("complete:t=5", "needs r="),
        ("family:lemma3.5", "needs t="),
        ("colex:r=3,m=17,k=2", "unknown key 'k'"),
        ("family:lemma3.5,t=6,x=1", "unknown key 'x'"),
        ("family:thm1.10,t=x", "t must be an integer"),
        ("colex:r=3,m=1.5", "m must be an integer"),
        ("colex:r=3,m=5,m=17", "repeated key 'm'"),
    ], ids=["colex-missing-m", "complete-missing-r", "family-missing-t", "colex-unknown-k",
            "family-unknown-x", "family-t-not-int", "colex-m-not-int", "colex-repeated-m"])
    def test_bad_builtin_exit_1(self, capsys, source, named):
        code, out, err = run(capsys, "compute", source)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and named in err

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

    def test_huge_i_rejected_before_any_build_exit_1(self, capsys):
        code, _, err = run(capsys, "verify-config", "--family", "thm1.10",
                           "--t", "7", "--i", "1000000000", "--a", "3")
        assert code == 1
        assert "a >= 2i+1" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify-config", "--family", "lemma3.4",
                           "--t", "7", "--a", "5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True

    def test_i_outside_thm110_exit_1(self, capsys):
        code, out, err = run(capsys, "verify-config", "--family", "lemma3.4",
                             "--t", "7", "--a", "5", "--i", "3", "--format", "json")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "no parameter i" in err


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

    def test_list_searches_once(self, capsys, monkeypatch):
        # the count line comes from the listing, not from a second search
        def no_second_search(t, m):
            raise AssertionError("count_left_compressed called by --list")

        monkeypatch.setattr("laglab.cli.count_left_compressed", no_second_search)
        code, out, _ = run(capsys, "enumerate", "--t", "5", "--m", "5", "--list")
        assert code == 0
        assert out == ("2\n3 5 5\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n1 2 5\n\n"
                       "3 5 5\n1 2 3\n1 2 4\n1 3 4\n1 2 5\n1 3 5\n\n")

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

    def test_out_without_list_exit_1(self, capsys, tmp_path):
        out_dir = tmp_path / "graphs"
        code, out, err = run(capsys, "enumerate", "--t", "5", "--m", "6", "--out", str(out_dir))
        assert code == 1
        assert out == "" and "--list" in err
        assert not out_dir.exists()

    def test_t_range_shared_with_sweep(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--t", "9", "--m", "77")
        assert code == 0
        assert out.splitlines()[0] == "9"
        code, _, err = run(capsys, "enumerate", "--t", "13", "--m", "200")
        assert code == 1
        assert "3..12" in err


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

    def test_bad_t_max_exit_1(self, capsys, tmp_path):
        code, _, _ = run(capsys, "sweep", "--t-max", "13",
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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_1(self, capsys, tmp_path, workers):
        out_dir = tmp_path / "s"
        code, out, err = run(capsys, "sweep", "--t-max", "4", "--workers", workers,
                             "--out", str(out_dir))
        assert code == 1 and out == ""
        assert f"--workers: must be >= 1, got {workers}" in err
        assert not out_dir.exists()

    def test_default_workers_are_the_cpus_this_process_may_use(self, capsys, tmp_path,
                                                               monkeypatch):
        # under an affinity mask of one CPU on an eight-CPU machine, workers
        # beyond the first would have no CPU to run on
        seen = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli, "sweep", lambda t_max, opts, workers: seen.append(workers) or [])
        code, _, _ = run(capsys, "sweep", "--t-max", "4", "--out", str(tmp_path / "s"))
        assert code == 0 and seen == [1]

    def test_one_report_dict_per_cell(self, capsys, tmp_path, monkeypatch):
        # each cell's document feeds both its cell file and sweep.json
        calls, report_dict = [], cli.report_dict
        monkeypatch.setattr(cli, "report_dict", lambda rep: calls.append(rep) or report_dict(rep))
        out_dir = tmp_path / "s"
        code, _, _ = run(capsys, "sweep", "--t-max", "5", "--workers", "1", "--out", str(out_dir))
        assert code == 0
        assert len(calls) == len(list((out_dir / "cells").glob("*.json"))) == 11
        cells = json.loads((out_dir / "sweep.json").read_text())["cells"]
        for doc in cells:
            path = out_dir / "cells" / f"t{doc['t']}_m{doc['m']}.json"
            assert path.read_text() == render_json(doc)

    def test_t7_json_bytes(self, capsys, tmp_path):
        # pins the bits that the cell digest's 1e-12 tolerance lets through.
        # Recorded while every (graph, face) pair was still judged on all of
        # its graph's edges, as sha256 cb883c95...509e3c, when each of the 38
        # cells and the aggregate carried a "seed": 62194 line; this is that
        # output with those 39 lines deleted and nothing else changed
        code, out, _ = run(capsys, "sweep", "--t-max", "7", "--workers", "1",
                           "--out", str(tmp_path / "s"), "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0b0e41dd43664ee06dc6dda0b8c0ef48e3b9e377a9d59e8e70a43874be9a7edd")


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

    def test_t_above_range_exit_1(self, capsys):
        # refused before any enumeration starts
        code, _, err = run(capsys, "check", "--t", "13", "--m", "300")
        assert code == 1
        assert "--t" in err


class TestJsonLayouts:
    """Key order of each command's JSON document: a result's fields as they
    are, a report or family check after its schema version."""

    def test_compute(self, capsys):
        code, out, _ = run(capsys, "compute", "complete:r=3,t=4", "--format", "json")
        assert code == 0
        assert list(json.loads(out)) == [
            "value", "weighting", "support", "kkt_residual", "method", "certified", "notes",
        ]

    def test_verify_config(self, capsys):
        code, out, _ = run(capsys, "verify-config", "--family", "lemma3.4",
                           "--t", "7", "--a", "5", "--format", "json")
        assert code == 0
        assert list(json.loads(out)) == [
            "schema", "family", "t", "a", "i", "m", "config_value", "colex_value",
            "margin", "passed", "certified", "inconclusive",
        ]

    def test_check(self, capsys):
        code, out, _ = run(capsys, "check", "--t", "5", "--m", "7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["schema", "cell", "checks"]
        assert list(doc["cell"])[:3] == ["schema", "t", "m"]
        assert [check["name"] for check in doc["checks"]] == ["support_bound", "delta_bound"]
        for check in doc["checks"]:
            assert list(check) == ["name", "applicable", "passed", "details"]


class TestUsageErrors:
    """Parser errors share exit 1 with the other usage errors; exit 2 stays
    reserved for uncertified or failing numeric results."""

    @pytest.mark.parametrize("argv", [
        ("sweep",),  # --t-max is required
        ("compute", "complete:r=3,t=4", "--starts", "x"),
        ("compute", "complete:r=3,t=4", "--starts", "-3"),
        ("compute", "complete:r=3,t=4", "--tol", "1e-9"),  # no such flag
        ("frobnicate",),
        ("enumerate", "--t", "5", "--m", "2", "--r", "4"),  # 3-graphs only
        ("sweep", "--t-max", "4", "--starts", "3"),  # a compute flag only
    ])
    def test_parser_errors_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ("compute", "colex:r=3,m=17"),
        ("sweep", "--t-max", "4"),
        ("check", "--t", "6", "--m", "15"),
        ("verify-config", "--family", "lemma3.5", "--t", "6"),
    ])
    def test_nan_kkt_tol_exits_1(self, capsys, tmp_path, monkeypatch, argv):
        # no residual compares above NaN, so it would certify every result;
        # a negative tolerance stays accepted and certifies none
        monkeypatch.chdir(tmp_path)  # where sweep would write laglab-sweep
        code, out, err = run(capsys, *argv, "--kkt-tol", "nan")
        assert code == 1 and out == ""
        assert "--kkt-tol: must be a number, got 'nan'" in err
        assert not any(tmp_path.iterdir())

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
    """The seed acts only on compute's random starts; the commands whose
    graphs are all left-compressed take no seed."""

    @pytest.fixture
    def compute_seed(self, capsys, tmp_path, monkeypatch):
        """Runs compute on the five-cycle, which is not left-compressed and so
        draws random starts, and returns the SolverOptions.seed that reaches
        lagrangian."""
        path = tmp_path / "c5.edges"
        path.write_text(FIVE_CYCLE_TEXT)
        seen, solve = [], cli.lagrangian
        monkeypatch.setattr(cli, "lagrangian",
                            lambda g, opts: seen.append(opts.seed) or solve(g, opts))

        def compute(*flags):
            code, _, _ = run(capsys, "compute", str(path), *flags)
            assert code == 0
            return seen.pop()
        return compute

    def test_default_seed(self, monkeypatch, compute_seed):
        monkeypatch.delenv("LAGLAB_SEED", raising=False)
        assert compute_seed() == SolverOptions.seed

    def test_env_seed_override(self, monkeypatch, compute_seed):
        monkeypatch.setenv("LAGLAB_SEED", "0x1234")
        assert compute_seed() == 0x1234

    def test_flag_beats_env(self, monkeypatch, compute_seed):
        monkeypatch.setenv("LAGLAB_SEED", "7")
        assert compute_seed("--seed", "11") == 11

    @pytest.mark.parametrize("argv", [
        ("check", "--t", "5", "--m", "7"),
        ("verify-config", "--family", "lemma3.4", "--t", "7", "--a", "5"),
    ], ids=["check", "verify-config"])
    def test_no_seed_flag(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--seed", "1")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --seed 1" in err

    def test_check_ignores_the_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("LAGLAB_SEED", "xyz")
        code, out, _ = run(capsys, "check", "--t", "5", "--m", "7")
        assert code == 0
        assert "support_bound: pass" in out

    def test_sweep_seed_acts_on_nothing(self, capsys, tmp_path, monkeypatch):
        # kept for scripts that pass it; neither it nor the env reaches a byte
        monkeypatch.setenv("LAGLAB_SEED", "xyz")
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        code_a, _, _ = run(capsys, "sweep", "--t-max", "4", "--workers", "1",
                           "--out", str(a_dir))
        code_b, _, _ = run(capsys, "sweep", "--t-max", "4", "--workers", "1",
                           "--out", str(b_dir), "--seed", "99")
        assert code_a == code_b == 0
        assert (a_dir / "sweep.json").read_bytes() == (b_dir / "sweep.json").read_bytes()
        assert "seed" not in (a_dir / "sweep.json").read_text()


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

    def test_render_json_bytes(self):
        # recorded from the renderer that had separate dict and list branches
        text = render_json({"a": None, "b": [True, False, 0, -3, 0.1, 1e-300, "é\n"],
                            "c": {}, "d": [], "e": {"f": (1.5, {"g": []})}})
        data = text.encode()
        assert len(data) == 214
        assert hashlib.sha256(data).hexdigest() == (
            "4c1d2d88b7b38e58c69cfe2ca7e4df4cb6983615057cad874b3fc34a67013cb5")

    def test_render_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="cannot render set"):
            render_json({"x": {1}})


class TestOutputBytes:
    """Each format pinned against its fields formatted one by one, and the
    paths that cannot be read or written reported as usage errors."""

    @pytest.fixture(autouse=True)
    def default_seed(self, monkeypatch):
        monkeypatch.delenv("LAGLAB_SEED", raising=False)

    def test_reports_csv_columns(self, sweep5_reports):
        rows = ["t,m,a,colex_value,max_value,gap,graph_count,all_pass"]
        for rep in sorted(sweep5_reports, key=lambda r: (r.t, r.m)):
            rows.append(",".join([
                str(rep.t), str(rep.m), str(rep.a), fmt_float(rep.colex_value),
                fmt_float(rep.max_value), fmt_float(rep.gap), str(rep.graph_count),
                "true" if rep.all_pass else "false",
            ]))
        assert reports_csv(sweep5_reports) == "\n".join(rows) + "\n"

    @staticmethod
    def _compute_text(res):
        lines = [
            f"value: {fmt_float(res.value)}",
            "weighting: " + " ".join(fmt_float(w) for w in res.weighting),
            f"support: {res.support}",
            f"kkt_residual: {fmt_float(res.kkt_residual)}",
            f"method: {res.method}",
            f"certified: {'true' if res.certified else 'false'}",
            *(f"note: {note}" for note in res.notes),
        ]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("source, flags, kkt_tol", [
        ("complete:r=3,t=5", (), SolverOptions.kkt_tol),
        ("c5.edges", (), SolverOptions.kkt_tol),
        ("complete:r=3,t=5", ("--kkt-tol=-1",), -1.0),
    ], ids=["k5", "five-cycle", "uncertified"])
    def test_compute_text(self, capsys, tmp_path, monkeypatch, source, flags, kkt_tol):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c5.edges").write_text(FIVE_CYCLE_TEXT)
        g = (parse_edge_list(FIVE_CYCLE_TEXT) if source == "c5.edges"
             else RGraph.complete(3, 5))
        res = lagrangian(g, SolverOptions(kkt_tol=kkt_tol))
        code, out, err = run(capsys, "compute", source, *flags)
        assert code == (0 if res.certified else 2)
        assert out == self._compute_text(res)
        assert err == ""

    def test_verify_config_text(self, capsys):
        spec = ConfigurationSpec("thm1.10", 7, a=3, i=1)
        chk = check_theorem_inequality(spec)
        code, out, _ = run(capsys, "verify-config", "--family", "thm1.10",
                           "--t", "7", "--i", "1", "--a", "3")
        assert code == 0
        assert out == "".join(f"{line}\n" for line in [
            "family: thm1.10 t=7 i=1 a=3",
            f"m: {chk.m}",
            f"config_value: {fmt_float(chk.config_value)}",
            f"colex_value: {fmt_float(chk.colex_value)}",
            f"margin: {fmt_float(chk.margin)}",
            f"certified: {'true' if chk.certified else 'false'}",
            "result: pass",
        ])

    def _usage_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_compute_on_a_directory(self, capsys, tmp_path):
        self._usage_error(capsys, "compute", str(tmp_path))

    def test_enumerate_out_is_a_file(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.write_text("")
        self._usage_error(capsys, "enumerate", "--t", "5", "--m", "5", "--list",
                          "--out", str(target))
        assert target.read_text() == ""

    def test_sweep_out_is_a_file_fails_before_the_solve(self, capsys, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("sweep ran before its output directory was made")

        monkeypatch.setattr(cli, "sweep", no_solve)
        target = tmp_path / "taken"
        target.write_text("")
        self._usage_error(capsys, "sweep", "--t-max", "4", "--workers", "1",
                          "--out", str(target))

    def test_bad_env_seed_returns_1(self, capsys, monkeypatch):
        monkeypatch.setenv("LAGLAB_SEED", "xyz")
        err = self._usage_error(capsys, "compute", "complete:r=3,t=4")
        assert err == "error: LAGLAB_SEED must be an integer, got 'xyz'\n"
