"""Conjecture cells, configuration families, and structural bound checks."""

import dataclasses
import functools
import hashlib
import json
import tracemalloc
from math import comb

import pytest

from laglab import solver, verifier
from laglab.hypergraph import (
    RGraph,
    build_colex_graph,
    complement,
    count_left_compressed,
    enumerate_left_compressed,
    is_left_compressed,
    parse_edge_list,
)
from laglab.solver import LagrangianResult, SolverOptions
from laglab.verifier import (
    ConfigurationError,
    ConfigurationSpec,
    FAMILIES,
    VerifierOptions,
    build_configuration,
    cell_window,
    check_delta_bound,
    check_support_bound,
    check_theorem_inequality,
    configuration_complement,
    delta_bound_params,
    in_range_instances,
    support_lower_bound,
    sweep,
    verify_cell,
    verify_cells,
)
from oracles import verify_cells_leaf_by_leaf


class TestConfigurations:
    def test_lemma35_at_t6(self):
        g = build_configuration(ConfigurationSpec("lemma3.5", 6))
        assert complement(g).edges == {(4, 5, 6), (3, 5, 6), (3, 4, 6), (3, 4, 5)}
        assert g.m == comb(6, 3) - 4 == 16

    def test_thm110_minimum_missing_triple(self):
        g = build_configuration(ConfigurationSpec("thm1.10", 7, a=3, i=1))
        missing = sorted(complement(g).edges, key=lambda e: e[::-1])
        assert missing[0] == (4, 5, 7)  # (t-3)(t-2)t at t=7
        assert len(missing) == 3

    def test_lemma37_at_t8(self):
        g = build_configuration(ConfigurationSpec("lemma3.7", 8))
        assert complement(g).edges == {
            (6, 7, 8), (5, 7, 8), (4, 7, 8), (5, 6, 8), (4, 6, 8), (5, 6, 7),
        }
        assert g.m == comb(8, 3) - 6 == 50

    def test_all_families_build_left_compressed(self):
        for t in (7, 8, 9):
            for fam in FAMILIES:
                for spec in in_range_instances(fam, t):
                    g = build_configuration(spec)
                    assert is_left_compressed(g)
                    assert g.m == comb(t, 3) - len(configuration_complement(spec))

    def test_thm110_rejects_large_i(self):
        with pytest.raises(ConfigurationError, match="a >= 2i\\+1"):
            build_configuration(ConfigurationSpec("thm1.10", 7, a=3, i=3))

    def test_thm110_huge_i_fails_before_its_triples_are_built(self):
        # the closure 2i+1 is read from i; the i deep triples are built only
        # once every check has passed
        tracemalloc.start()
        try:
            for i in (10**6, 10**9):
                with pytest.raises(ConfigurationError, match="a >= 2i\\+1"):
                    configuration_complement(ConfigurationSpec("thm1.10", 7, a=3, i=i))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_thm110_rejects_out_of_range_a(self):
        with pytest.raises(ConfigurationError, match="3 <= a <= t-2"):
            build_configuration(ConfigurationSpec("thm1.10", 7, a=9, i=1))
        with pytest.raises(ConfigurationError, match="3 <= a <= t-2"):
            build_configuration(ConfigurationSpec("thm1.10", 7, a=2, i=1))

    def test_lemma34_range(self):
        with pytest.raises(ConfigurationError, match="5 <= a <= t-2"):
            build_configuration(ConfigurationSpec("lemma3.4", 7, a=4))
        g = build_configuration(ConfigurationSpec("lemma3.4", 7, a=5))
        missing = sorted(complement(g).edges, key=lambda e: e[::-1])
        assert missing[0] == (4, 5, 6)  # (t-3)(t-2)(t-1) at t=7

    def test_lemma36_needs_t9(self):
        with pytest.raises(ConfigurationError, match="7 <= a <= t-2"):
            build_configuration(ConfigurationSpec("lemma3.6", 8, a=7))
        g = build_configuration(ConfigurationSpec("lemma3.6", 9, a=7))
        assert g.m == comb(9, 3) - 7

    def test_case_ranges(self):
        # closure of each deep pattern forces the minimum a
        assert configuration_complement(ConfigurationSpec("case1", 8, a=3))
        with pytest.raises(ConfigurationError, match="a >= 5"):
            configuration_complement(ConfigurationSpec("case2", 8, a=4))
        with pytest.raises(ConfigurationError, match="a >= 7"):
            configuration_complement(ConfigurationSpec("case4", 8, a=6))
        g = build_configuration(ConfigurationSpec("case4", 9, a=7))
        assert g.m == comb(9, 3) - 7

    def test_case5_at_minimum_equals_lemma33_pattern(self):
        a = build_configuration(ConfigurationSpec("case5", 8, a=6))
        b = build_configuration(ConfigurationSpec("lemma3.3", 8, a=6))
        assert a.edges == b.edges

    def test_case6_at_minimum_equals_lemma37(self):
        a = build_configuration(ConfigurationSpec("case6", 8, a=6))
        b = build_configuration(ConfigurationSpec("lemma3.7", 8))
        assert a.edges == b.edges

    def test_i_only_for_thm110(self):
        # every other family's statement has no i, so an i given to it is refused
        for family in (f for f in FAMILIES if f != "thm1.10"):
            with pytest.raises(ConfigurationError, match="has no parameter i, got i=3"):
                configuration_complement(ConfigurationSpec(family, 9, a=7, i=3))
        assert configuration_complement(ConfigurationSpec("lemma3.4", 7, a=5, i=None))

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError, match="unknown family"):
            configuration_complement(ConfigurationSpec("case9", 7))

    def test_in_range_instance_counts_at_t7(self):
        counts = {fam: len(in_range_instances(fam, 7)) for fam in FAMILIES}
        assert counts == {
            "thm1.10": 4,   # (a,i) in {(3,1),(4,1),(5,1),(5,2)}
            "lemma3.3": 0,  # needs a >= 6 > t-2
            "lemma3.4": 1,
            "lemma3.5": 1,
            "lemma3.6": 0,  # needs t >= 9
            "lemma3.7": 1,
            "case1": 3,
            "case2": 1,
            "case3": 2,
            "case4": 0,     # needs t >= 9
            "case5": 0,
            "case6": 0,
        }

    def test_every_in_range_instance_is_pinned(self):
        # the exact complement list, in order, of every valid instance for
        # 3 <= t <= 15
        specs = [s for t in range(3, 16) for f in FAMILIES for s in in_range_instances(f, t)]
        assert len(specs) == 557
        rows = [[s.family, s.t, s.a, s.i, configuration_complement(s)] for s in specs]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "8227d10fe97953cf6c8f6998d18fbc9e48ec87bece4385ff69a657a84cd94c86")


class TestInequalityChecks:
    def test_thm110_instance(self):
        chk = check_theorem_inequality(ConfigurationSpec("thm1.10", 7, a=3, i=1))
        assert chk.passed and chk.certified
        assert chk.margin >= -1e-7

    def test_lemma35_at_t6(self):
        chk = check_theorem_inequality(ConfigurationSpec("lemma3.5", 6))
        assert chk.passed
        assert chk.margin >= 0

    def test_lemma37_at_t8(self):
        chk = check_theorem_inequality(ConfigurationSpec("lemma3.7", 8))
        assert chk.passed

    def test_t9_extras(self):
        # families whose ranges are empty below t=9
        for spec in (ConfigurationSpec("lemma3.6", 9, a=7),
                     ConfigurationSpec("case4", 9, a=7)):
            chk = check_theorem_inequality(spec)
            assert chk.passed, spec.label()


class TestCells:
    def test_cell_4_4(self):
        rep = verify_cell(4, 4)
        assert rep.graph_count == 1
        assert rep.gap == 0.0
        assert rep.all_pass
        assert rep.a == 0

    def test_cell_5_5_plateau_value(self):
        rep = verify_cell(5, 5)
        assert rep.all_pass
        assert rep.colex_value == pytest.approx(0.0625, abs=1e-9)
        assert rep.max_value == pytest.approx(0.0625, abs=1e-9)

    def test_cell_6_16(self):
        rep = verify_cell(6, 16)
        assert rep.all_pass
        assert rep.graph_count == count_left_compressed(6, 16)

    def test_colex_graph_always_a_witness(self):
        for (t, m) in [(4, 3), (5, 6), (5, 9), (6, 12)]:
            rep = verify_cell(t, m)
            colex = build_colex_graph(3, m).with_n(t)
            assert any(
                parse_edge_list(w).edges == colex.edges for w in rep.witnesses
            )

    def test_cell_9_77_last_plateau_cell(self):
        # m = C(8,3) + C(7,2): five of the nine graphs tie colex at
        # lambda(K_8^(3)), all on support 8
        rep = verify_cell(9, 77)
        assert rep.graph_count == 9
        assert rep.all_pass and rep.uncertified == 0
        assert rep.witness_supports == (8,) * 5
        colex = build_colex_graph(3, 77).with_n(9)
        assert any(parse_edge_list(w).edges == colex.edges for w in rep.witnesses)

    def test_cell_9_56_largest_t9_cell(self):
        rep = verify_cell(9, 56)
        assert rep.graph_count == 379
        assert rep.all_pass and rep.uncertified == 0

    def test_max_never_below_colex(self):
        for m in cell_window(5):
            rep = verify_cell(5, m)
            assert rep.max_value >= rep.colex_value - 1e-9

    def test_window_validation(self):
        with pytest.raises(ValueError, match="outside the window"):
            verify_cell(5, 3)
        with pytest.raises(ValueError, match="t >= 4"):
            verify_cell(3, 1)


class TestVerdictTolerances:
    """``INEQ_TOL``, and ``solver.TIE_TOL`` as the witness band below a
    cell's maximum, on cell (6, 10)'s six enumerated graphs, with results
    made up so that the gaps fall between the constants' neighbouring
    decades."""

    @staticmethod
    def _report(colex_value, others):
        """The cell's report with its colex graph, the first enumerated, at
        ``colex_value`` and the other graphs, in enumeration order, at
        ``others`` and then at 0."""
        values = iter([colex_value, *others])
        return verifier._Cell(6, 10).report([
            (g, LagrangianResult(next(values, 0.0), (), 6, 0.0, "made-up", True))
            for g in enumerate_left_compressed(6, 10)])

    @pytest.mark.parametrize("gap, passes", [(-1e-8, True), (-1e-6, False)])
    def test_ineq_tol(self, gap, passes):
        # a bound of 1e-12 fails the first gap, one of 1e-4 passes the second
        rep = self._report(0.1, [0.1 - gap])
        assert rep.gap == pytest.approx(gap, rel=1e-6)
        assert rep.all_pass is passes

    def test_witness_tie(self):
        # 1e-10 below the maximum is a tie and 1e-8 below is not: a tie of
        # 1e-12 drops the first, one of 1e-6 keeps the second
        rep = self._report(0.1, [0.1 - 1e-10, 0.1 - 1e-8])
        assert rep.graph_count == 6
        assert sorted(rep.witness_values) == [0.1 - 1e-10, 0.1]
        assert rep.all_pass


def test_witnesses_come_in_enumeration_order(monkeypatch):
    # the cells with the most witnesses at t <= 9: the enumeration yields a
    # cell's graphs in ascending colex order and the report keeps that
    # order, so colex_ranks is read once per cell, for the colex check
    calls, colex_ranks = [], RGraph.colex_ranks
    monkeypatch.setattr(RGraph, "colex_ranks", lambda g: calls.append(g) or colex_ranks(g))
    reports = verify_cells(8, range(44, 48)) + verify_cells(9, range(69, 73))
    assert len(calls) == len(reports) == 8
    monkeypatch.undo()
    for rep in reports:
        ranks = [parse_edge_list(w).colex_ranks() for w in rep.witnesses]
        assert len(ranks) == {8: 5, 9: 8}[rep.t], (rep.t, rep.m)
        assert all(a < b for a, b in zip(ranks, ranks[1:])), (rep.t, rep.m)


@pytest.fixture(scope="module")
def one_block_reports():
    """Reports of the t = 7 cells and of (8, 35), each solved as one block at
    the default ``CELL_BLOCK``; (8, 35) is a plateau cell whose 79 graphs
    hold many witnesses tied with colex."""
    return {cell: verify_cell(*cell) for cell in [(7, m) for m in cell_window(7)] + [(8, 35)]}


class TestStreamedCells:
    @pytest.mark.parametrize("cell_block", [1, 7, 10**6])
    def test_report_does_not_depend_on_block_size(self, monkeypatch, cell_block,
                                                  one_block_reports):
        # every report field, exactly
        monkeypatch.setattr(verifier, "CELL_BLOCK", cell_block)
        for cell, report in one_block_reports.items():
            assert verify_cell(*cell) == report, cell
        # blocks that span the cells of a window, in the order asked for
        window = list(cell_window(7))
        assert verify_cells(7, window) == [one_block_reports[7, m] for m in window]
        assert verify_cells(7, window[::-3]) == [one_block_reports[7, m] for m in window[::-3]]

    def test_no_solve_exceeds_the_block(self, monkeypatch):
        # above the block the walk settles subtrees: of (8, 35)'s 79 graphs
        # it solves 16 graphs and down-sets in all
        sizes, solve = [], verifier.lagrangians

        def spy(graphs, opts=None):
            sizes.append(len(graphs))
            return solve(graphs, opts)

        monkeypatch.setattr(verifier, "lagrangians", spy)
        monkeypatch.setattr(verifier, "CELL_BLOCK", 16)
        assert verify_cell(8, 35).graph_count == 79
        assert sum(sizes) == 16
        assert max(sizes) <= 16

    def test_colex_graph_comes_first(self):
        # _Cell takes the colex result from the first graph of its cell
        for t in range(4, 10):
            for m in cell_window(t):
                first = next(enumerate_left_compressed(t, m))
                assert first.colex_ranks() == list(range(m)), (t, m)
                assert first.edges == build_colex_graph(3, m).edges, (t, m)

    def test_cell_refuses_a_first_graph_that_is_not_colex(self):
        cell = verifier._Cell(6, 10)
        graphs = list(enumerate_left_compressed(6, 10))[::-1]
        result = LagrangianResult(0.1, (), 6, 0.0, "made-up", True)
        with pytest.raises(RuntimeError, match=r"colex graph missing .* \(t=6, m=10\)"):
            cell.report([(g, result) for g in graphs])

    def test_cells_reject_bad_input(self):
        assert verify_cells(7, []) == []
        with pytest.raises(ValueError, match="outside the window"):
            verify_cells(7, [20, 19])
        with pytest.raises(ValueError, match="t >= 4"):
            verify_cells(3, [1])

    def test_serial_sweep_solves_one_block_per_window(self, monkeypatch):
        # each window's cells (at most 136 graphs per window up to t = 7)
        # share one lagrangians call: 4 calls, not one per cell (38)
        sizes, solve = [], verifier.lagrangians

        def spy(graphs, opts=None):
            sizes.append(len(graphs))
            return solve(graphs, opts)

        monkeypatch.setattr(verifier, "lagrangians", spy)
        reports = sweep(7)
        assert len(reports) == 38
        assert sizes == [sum(rep.graph_count for rep in reports if rep.t == t)
                         for t in (4, 5, 6, 7)]  # t ascending


@functools.cache
def leaf_by_leaf(t):
    """The window's reports with every graph solved."""
    return verify_cells_leaf_by_leaf(t, cell_window(t))


class TestWalk:
    """The walk that settles whole subtrees of the down-set search against
    the oracle that solves every graph, and what it solves."""

    @pytest.mark.parametrize("cell_block", [1, 7, 1024])
    @pytest.mark.parametrize("t", range(4, 10))
    def test_reports_equal_leaf_by_leaf(self, monkeypatch, t, cell_block):
        monkeypatch.setattr(verifier, "CELL_BLOCK", cell_block)
        assert verify_cells(t, cell_window(t)) == leaf_by_leaf(t)

    @pytest.mark.slow
    @pytest.mark.parametrize("t", [10, 11])
    def test_large_windows_equal_leaf_by_leaf(self, t):
        assert verify_cells(t, cell_window(t)) == leaf_by_leaf(t)

    @pytest.mark.parametrize("t", range(4, 9))
    def test_every_solved_down_set_bounds_the_graphs_below_it(self, monkeypatch, t):
        # at a block of 1 the walk solves the down-set of every state it
        # opens: each is left-compressed, checked as an untrusted graph, and
        # no graph of the window inside it has a higher value
        graphs = [g for m in cell_window(t) for g in enumerate_left_compressed(t, m)]
        inside = [(int.from_bytes(g._picks, "little"), res.value)
                  for g, res in zip(graphs, verifier.lagrangians(graphs))]
        solved, solve = [], verifier.lagrangians

        def spy(graphs, opts=None):
            results = solve(graphs, opts)
            solved.extend(zip(graphs, results))
            return results

        monkeypatch.setattr(verifier, "lagrangians", spy)
        monkeypatch.setattr(verifier, "CELL_BLOCK", 1)
        verify_cells(t, cell_window(t))
        pairs = 0
        for g, res in solved:
            assert is_left_compressed(RGraph(3, t, g.edges)), g
            down = int.from_bytes(g._picks, "little")
            below = [value for leaf, value in inside if leaf & ~down == 0]
            assert all(res.value >= value - 1e-12 for value in below), g
            pairs += len(below)
        assert pairs > len(solved)

    def test_an_uncertified_down_set_is_opened(self, monkeypatch):
        # with every result uncertified no state settles, and the t = 9
        # window solves every one of its 2,974 graphs
        sizes, solve = [], verifier.lagrangians

        def uncertified(graphs, opts=None):
            sizes.append(len(graphs))
            return [dataclasses.replace(res, certified=False) for res in solve(graphs, opts)]

        monkeypatch.setattr(verifier, "lagrangians", uncertified)
        reports = verify_cells(9, cell_window(9))
        assert sum(sizes) == sum(rep.uncertified for rep in reports) == 2974

    @pytest.mark.parametrize("t, calls, graphs", [(9, 3, 266), (10, 3, 532), (11, 4, 662)])
    def test_solves_per_window(self, monkeypatch, t, calls, graphs):
        # one lagrangians call per level and one for the leaves; each
        # down-set solved once, the graphs of the window and the down-sets
        # above them alike
        sizes, solve = [], verifier.lagrangians

        def spy(batch, opts=None):
            sizes.append(len(batch))
            return solve(batch, opts)

        monkeypatch.setattr(verifier, "lagrangians", spy)
        reports = verify_cells(t, cell_window(t))
        assert (len(sizes), sum(sizes)) == (calls, graphs)
        assert sum(rep.graph_count for rep in reports) == {9: 2974, 10: 16580, 11: 102278}[t]


class TestSweep:
    def test_window_arithmetic(self):
        assert list(cell_window(4)) == [1, 2, 3, 4]
        assert list(cell_window(5)) == [4, 5, 6, 7, 8, 9, 10]

    def test_sweep_t4(self, sweep5_reports):
        reps = [r for r in sweep5_reports if r.t == 4]
        assert len(reps) == 4
        assert all(r.all_pass for r in reps)

    def test_sweep_t5_has_eleven_cells(self, sweep5_reports):
        assert len(sweep5_reports) == 11
        assert [r.m for r in sweep5_reports if r.t == 5] == list(range(4, 11))
        assert all(r.all_pass for r in sweep5_reports)

    def test_sweep_is_the_same_on_three_workers(self, sweep6_reports):
        # the worker count is accepted and ignored; the reports come in
        # (t, m) order
        assert sweep(6, workers=3) == sweep6_reports
        assert [(rep.t, rep.m) for rep in sweep6_reports] == [
            (t, m) for t in range(4, 7) for m in cell_window(t)]

    def test_sweep_rejects_bad_t_max(self):
        with pytest.raises(ValueError):
            sweep(3)
        with pytest.raises(ValueError):
            sweep(13)

    def test_corollary_m_range_at_t6(self, sweep6_reports):
        # all left-compressed graphs with C(6,3)-6 <= m <= C(6,3)-3 stay below
        for rep in sweep6_reports:
            if rep.t == 6 and comb(6, 3) - 6 <= rep.m <= comb(6, 3) - 3:
                assert rep.all_pass

    def test_theorem_range_cells_at_t7(self):
        # the proven band C(t-1,3) <= m <= C(t-1,3)+C(t-2,2)-(t-4) at t=7
        for m in range(comb(6, 3), comb(6, 3) + comb(5, 2) - 3 + 1):
            rep = verify_cell(7, m)
            assert rep.all_pass, (7, m, rep.gap)
            assert rep.gap >= -1e-7

    def test_sparse_top_pair_link_graphs_stay_below_colex(self):
        # graphs on [6] whose (t-1, t) pair link is small compared to the
        # edge surplus over the plateau never beat the colex graph
        from laglab.hypergraph import enumerate_left_compressed
        from laglab.solver import lagrangian
        from oracles import pair_link

        plateau_end = comb(5, 3) + comb(4, 2)
        for m in range(plateau_end + 2, comb(6, 3) + 1):
            colex_val = lagrangian(build_colex_graph(3, m)).value
            for b in range(1, m - plateau_end):
                for g in enumerate_left_compressed(6, m):
                    if len(pair_link(g, 5, 6)) <= b + 3:
                        assert lagrangian(g).value <= colex_val + 1e-7


class TestNoSolverOptions:
    """Every graph the verifier solves is left-compressed, and the prefix
    route reads no solver option."""

    def test_verify_cell_ignores_its_options(self, one_block_reports):
        opts = VerifierOptions(SolverOptions(seed=1))
        for m in cell_window(7):
            assert verify_cell(7, m, opts) == one_block_reports[7, m], m

    def test_no_solve_reaches_the_multistart_route(self, monkeypatch):
        calls, multistart = [], solver._multistart
        monkeypatch.setattr(solver, "_multistart",
                            lambda data, k, opts: calls.append(k) or multistart(data, k, opts))
        assert all(rep.all_pass for rep in sweep(6))
        checks = [check_theorem_inequality(spec) for family in FAMILIES for t in (7, 8)
                  for spec in in_range_instances(family, t)]
        assert len(checks) > len(FAMILIES)
        assert calls == []


class TestBoundChecks:
    def test_support_lower_bound_values(self):
        assert support_lower_bound(5) == 4
        assert support_lower_bound(4) == 0

    def test_support_bound_cell_5_10(self):
        rep = verify_cell(5, 10)
        chk = check_support_bound(rep)
        assert chk.passed
        assert rep.witness_supports == (5,)

    def test_support_bound_cell_4_4(self):
        rep = verify_cell(4, 4)
        assert check_support_bound(rep).passed

    def test_delta_bound_params(self):
        assert delta_bound_params(6, 16) == 0
        assert delta_bound_params(6, 15) == -1
        assert delta_bound_params(5, 7) == 0
        assert delta_bound_params(6, 20) is None

    def test_delta_bound_plateau_cell(self):
        rep = verify_cell(5, 7)
        chk = check_delta_bound(rep)
        assert chk.applicable
        assert chk.passed

    def test_delta_bound_not_applicable(self):
        # at (5, 10) the offset a = 3 exceeds the stated band end t-5 = 0
        rep = verify_cell(5, 10)
        chk = check_delta_bound(rep)
        assert not chk.applicable
        assert chk.passed
