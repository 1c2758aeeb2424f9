"""Exit criteria. Each test prints one ACCEPTANCE line (run with -s to see
them live); every tolerance is pinned in the assertion itself."""

import json
import time
from itertools import combinations
from math import comb

import numpy as np
import pytest

from laglab.cli import main
from laglab.hypergraph import (
    RGraph,
    build_colex_graph,
    count_left_compressed,
    enumerate_left_compressed,
    parse_edge_list,
)
from laglab.solver import SolverOptions, kkt_check, lagrangian
from laglab.verifier import (
    ConfigurationSpec,
    FAMILIES,
    check_delta_bound,
    check_support_bound,
    check_theorem_inequality,
    delta_bound_params,
    in_range_instances,
)
from oracles import clique_number_bruteforce, downset_filter_count, random_rgraph

pytestmark = pytest.mark.acceptance


def _report(num: int, desc: str, ok: bool, elapsed: float) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc} [{elapsed:.1f}s]")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_motzkin_straus_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(0xF2F2)
    checked = 0
    worst = 0.0
    while checked < 200:
        n = int(rng.integers(3, 10))
        p = float(rng.uniform(0.15, 0.95))
        g = random_rgraph(rng, 2, n, p)
        t = clique_number_bruteforce(g)
        want = 0.0 if t <= 1 else 0.5 * (1.0 - 1.0 / t)
        got = lagrangian(g).value
        worst = max(worst, abs(got - want))
        checked += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-7 and elapsed <= 120
    _report(1, f"200 random 2-graphs vs clique formula, worst |diff| = {worst:.2e}",
            ok, elapsed)


def test_criterion_2_complete_graph_values():
    t0 = time.monotonic()
    worst = 0.0
    for t in range(3, 9):
        res = lagrangian(RGraph.complete(3, t))
        worst = max(worst, abs(res.value - comb(t, 3) / t**3))
        assert res.certified
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed <= 60
    _report(2, f"complete 3-graphs t=3..8 match C(t,3)/t^3, worst |diff| = {worst:.2e}",
            ok, elapsed)


def test_criterion_3_plateau():
    t0 = time.monotonic()
    worst = 0.0
    for t in (5, 6, 7):
        base = lagrangian(RGraph.complete(3, t - 1)).value
        for m in range(comb(t - 1, 3), comb(t - 1, 3) + comb(t - 2, 2) + 1):
            res = lagrangian(build_colex_graph(3, m))
            worst = max(worst, abs(res.value - base))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-7 and elapsed <= 60
    _report(3, f"colex plateau windows t=5,6,7 constant, worst |diff| = {worst:.2e}",
            ok, elapsed)


def test_criterion_4_exhaustive_sweep_t6(tmp_path):
    t0 = time.monotonic()
    out_dir = tmp_path / "sweep6"
    code = main(["sweep", "--t-max", "6", "--workers", "2",
                 "--out", str(out_dir), "--format", "csv"])
    doc = json.loads((out_dir / "sweep.json").read_text())
    cells = doc["cells"]
    all_pass = all(c["all_pass"] for c in cells)
    colex_witnessed = True
    for c in cells:
        target = build_colex_graph(3, c["m"]).edges
        if not any(parse_edge_list(w).edges == target for w in c["witnesses"]):
            colex_witnessed = False
    gaps_ok = all(c["gap"] >= -1e-7 for c in cells)
    elapsed = time.monotonic() - t0
    ok = (code == 0 and len(cells) == 22 and all_pass and colex_witnessed
          and gaps_ok and elapsed <= 600)
    _report(4, f"sweep --t-max 6: exit {code}, {len(cells)} cells, "
               f"colex graph always a witness", ok, elapsed)


def test_criterion_5_configuration_families():
    t0 = time.monotonic()
    checked = 0
    failures = []
    for t in (7, 8):
        for fam in FAMILIES:
            for spec in in_range_instances(fam, t):
                chk = check_theorem_inequality(spec)
                checked += 1
                if not chk.passed:
                    failures.append(spec.label())
    # families whose stated ranges are empty below t = 9
    for spec in (ConfigurationSpec("lemma3.6", 9, a=7),
                 ConfigurationSpec("case4", 9, a=7)):
        chk = check_theorem_inequality(spec)
        checked += 1
        if not chk.passed:
            failures.append(spec.label())
    elapsed = time.monotonic() - t0
    ok = not failures and checked >= 35 and elapsed <= 600
    _report(5, f"{checked} family instances (t=7,8 full ranges + t=9 extras) "
               f"all pass: {not failures}", ok, elapsed)


def test_criterion_6_structural_invariants(sweep6_reports):
    t0 = time.monotonic()
    problems = []

    # subgraph monotonicity on 500 nested pairs
    rng = np.random.default_rng(1889)
    pairs = 0
    while pairs < 500:
        n = int(rng.integers(4, 8))
        g2 = random_rgraph(rng, 3, n, float(rng.uniform(0.25, 0.9)))
        if g2.m == 0:
            continue
        keep = [e for e in sorted(g2.edges) if rng.random() < 0.6]
        g1 = RGraph(3, n, frozenset(keep))
        if lagrangian(g1).value > lagrangian(g2).value + 1e-8:
            problems.append(f"monotonicity broken at pair {pairs}")
        pairs += 1

    # every certified left-compressed solve: difference-link identity and
    # non-increasing weighting
    for t, m_range in ((4, range(0, 5)), (5, range(0, 11)), (6, range(10, 21))):
        for m in m_range:
            for g in enumerate_left_compressed(t, m):
                res = lagrangian(g)
                if not res.certified:
                    problems.append(f"uncertified solve at t={t} m={m}")
                    continue
                rep = kkt_check(g, res.weighting, res.value)
                if rep.eq2_residual is None or rep.eq2_residual > 1e-8:
                    problems.append(f"eq2 residual {rep.eq2_residual} at t={t} m={m}")
                w = res.weighting
                if not all(w[i] >= w[i + 1] - 1e-12 for i in range(len(w) - 1)):
                    problems.append(f"weighting not ordered at t={t} m={m}")

    # support bound and vertex bound on every sweep witness
    for rep in sweep6_reports:
        if not check_support_bound(rep).passed:
            problems.append(f"support bound at t={rep.t} m={rep.m}")
        if not check_vertex_bound_ok(rep):
            problems.append(f"vertex bound at t={rep.t} m={rep.m}")

    # symmetric-difference bound on all plateau cells at t = 5, 6
    for rep in sweep6_reports:
        if rep.t in (5, 6) and delta_bound_params(rep.t, rep.m) is not None:
            chk = check_delta_bound(rep)
            if not chk.passed:
                problems.append(f"delta bound at t={rep.t} m={rep.m}")

    elapsed = time.monotonic() - t0
    ok = not problems
    _report(6, "monotonicity x500, eq2 residuals, ordered weightings, "
               f"support/vertex/delta bounds: {len(problems)} problems",
            ok, elapsed)
    assert not problems, problems[:5]


def check_vertex_bound_ok(rep) -> bool:
    return all(sup <= rep.t for sup in rep.witness_supports)


def test_criterion_7_enumeration_oracle():
    t0 = time.monotonic()
    mismatches = []
    for t in (4, 5):
        for m in range(comb(t, 3) + 1):
            got = count_left_compressed(t, m)
            want = downset_filter_count(t, m)
            if got != want:
                mismatches.append((t, m, got, want))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed <= 60
    _report(7, "left-compressed counts equal subset-filter oracle for all "
               f"(t<=5, m): {not mismatches}", ok, elapsed)


def test_criterion_8_determinism_across_workers(tmp_path):
    t0 = time.monotonic()
    dirs = []
    for label, workers in (("w1", "1"), ("w8", "8")):
        out_dir = tmp_path / label
        code = main(["sweep", "--t-max", "5", "--workers", workers,
                     "--out", str(out_dir), "--format", "csv"])
        assert code == 0
        dirs.append(out_dir)
    same_json = (dirs[0] / "sweep.json").read_bytes() == (dirs[1] / "sweep.json").read_bytes()
    same_csv = (dirs[0] / "summary.csv").read_bytes() == (dirs[1] / "summary.csv").read_bytes()
    cells_a = sorted(p.name for p in (dirs[0] / "cells").glob("*.json"))
    cells_b = sorted(p.name for p in (dirs[1] / "cells").glob("*.json"))
    same_cells = cells_a == cells_b and all(
        (dirs[0] / "cells" / name).read_bytes() == (dirs[1] / "cells" / name).read_bytes()
        for name in cells_a
    )
    elapsed = time.monotonic() - t0
    ok = same_json and same_csv and same_cells
    _report(8, "sweep --t-max 5 with 1 vs 8 workers emits byte-identical JSON",
            ok, elapsed)


def test_stretch_sweep_t7(tmp_path):
    """The t=7 sweep on four workers finishes and passes within the 2 h budget."""
    t0 = time.monotonic()
    out_dir = tmp_path / "sweep7"
    code = main(["sweep", "--t-max", "7", "--workers", "4",
                 "--out", str(out_dir), "--format", "csv"])
    doc = json.loads((out_dir / "sweep.json").read_text())
    elapsed = time.monotonic() - t0
    assert code == 0
    assert all(c["all_pass"] for c in doc["cells"])
    assert elapsed <= 7200
    print(f"STRETCH: t_max=7 sweep passed in {elapsed:.0f}s "
          f"({len(doc['cells'])} cells)")
