"""Lagrangian solver: values, stationarity, oracles, invariances."""

import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

import laglab
from laglab import solver
from laglab.hypergraph import (
    RGraph,
    build_colex_graph,
    enumerate_left_compressed,
    is_left_compressed,
)
from laglab.solver import (
    SolverOptions,
    check_legal_weighting,
    evaluate,
    kkt_check,
    lagrangian,
    lagrangians,
    link_values,
    support_enumeration,
    symmetry_classes,
)
from laglab.verifier import (
    ConfigurationSpec,
    build_configuration,
    cell_window,
    sweep,
    verify_cell,
)
from oracles import (
    clique_number,
    clique_number_bruteforce,
    fd_gradient,
    grid_max,
    lagrangian_2graph_oracle,
    link_value,
    random_rgraph,
    relabel,
)

SRC = str(Path(laglab.__file__).resolve().parent.parent)
FIVE_CYCLE = RGraph.from_edges(2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


@pytest.fixture
def no_cross_check(monkeypatch):
    """Switch the solver's support-enumeration cross-check off, so a test
    sees one route alone."""
    monkeypatch.setattr(solver, "CROSS_CHECK_MAX_ACTIVE", 0)


def graph_from_words(r, n, words):
    """An r-graph on [n] from edges written as digit strings, e.g. "123 124"."""
    return RGraph.from_edges(r, [tuple(int(c) for c in w) for w in words.split()], n=n)


# every Newton step on the face [8] of this 4-graph would push the weight of
# vertex 8 below zero; its optimum lies on [7]
BLOCKED_ON_8 = graph_from_words(4, 8, "1235 1236 1237 1238 1245 1247 1248 1257 1267 "
                                      "1356 1357 1578 2345 2346 2378 2456 2678 3467 "
                                      "3468 3567 3578 4567 4578 4678")


class TestEvaluate:
    def test_single_edge(self):
        g = RGraph.from_edges(3, [(1, 2, 3)])
        assert evaluate(g, [1 / 3, 1 / 3, 1 / 3]) == pytest.approx(1 / 27, abs=1e-15)

    def test_complete_four(self):
        assert evaluate(RGraph.complete(3, 4), [0.25] * 4) == pytest.approx(0.0625)

    def test_five_colex_edges_hand_expansion(self):
        g = build_colex_graph(3, 5)
        val = evaluate(g, [0.3, 0.3, 0.2, 0.2, 0.0])
        assert val == pytest.approx(0.060, abs=1e-15)

    def test_empty_graph(self):
        assert evaluate(RGraph(3, 5, frozenset()), [0.2] * 5) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(RGraph.complete(3, 4), [0.5, 0.5])

    def test_illegal_weightings_rejected(self):
        with pytest.raises(ValueError, match="weighting must be one-dimensional"):
            check_legal_weighting([[0.5, 0.5]])
        with pytest.raises(ValueError, match="weighting has negative entry -0.5"):
            check_legal_weighting([1.5, -0.5])
        with pytest.raises(ValueError, match="weighting sums to 0.9, expected 1"):
            check_legal_weighting([0.5, 0.4])


class TestLinkValue:
    def test_single_edge(self):
        g = RGraph.from_edges(3, [(1, 2, 3)])
        assert link_value(g, 1, [1 / 3] * 3) == pytest.approx(1 / 9)

    def test_complete_four(self):
        assert link_value(RGraph.complete(3, 4), 2, [0.25] * 4) == pytest.approx(0.1875)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(4, 8))
            g = random_rgraph(rng, 3, n, 0.5)
            x = rng.dirichlet(np.ones(n))
            fd = fd_gradient(g, x)
            for i in range(1, n + 1):
                assert link_value(g, i, x) == pytest.approx(fd[i - 1], abs=1e-6)
            assert np.allclose(link_values(g, x), fd, atol=1e-6)

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            link_value(RGraph.complete(3, 4), 5, [0.25] * 4)


class TestLagrangianKnownValues:
    @pytest.mark.parametrize("t", [3, 4, 5, 6, 7, 8])
    def test_complete_graphs(self, t):
        res = lagrangian(RGraph.complete(3, t))
        assert res.value == pytest.approx(comb(t, 3) / t**3, abs=1e-8)
        assert res.certified
        assert res.support == t
        assert res.method == "symmetry_reduced"

    def test_triangle_two_graph(self):
        res = lagrangian(RGraph.complete(2, 3))
        assert res.value == pytest.approx(1 / 3, abs=1e-10)

    def test_empty_graph(self):
        g = RGraph(3, 4, frozenset())
        res = lagrangian(g)
        assert res.value == 0.0
        # the support counts the weights above POSITIVE_EPS, as kkt_check does
        assert res.support == 4 == len(kkt_check(g, res.weighting, 0.0).support)
        assert res.certified
        assert res.weighting == (0.25, 0.25, 0.25, 0.25)
        assert res.method == "symmetry_reduced"
        se = support_enumeration(g)
        assert (se.method, se.support, se.certified) == ("support_enumeration", 4, True)

    def test_result_value_matches_weighting(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_rgraph(rng, 3, int(rng.integers(4, 8)), 0.5)
            res = lagrangian(g)
            assert res.value == pytest.approx(
                evaluate(g, res.weighting), abs=1e-10
            )
            check_legal_weighting(res.weighting)

    @pytest.mark.parametrize("t", [3, 4, 5])
    def test_grid_oracle_complete_graphs(self, t):
        # resolution 60 grids contain the uniform optimum for t <= 5
        g = RGraph.complete(3, t)
        res = lagrangian(g)
        gm = grid_max(g, 60)
        assert res.value >= gm - 1e-12
        assert res.value == pytest.approx(gm, abs=1e-12)

    def test_two_edges_support_question(self):
        g = RGraph.from_edges(3, [(1, 2, 3), (1, 2, 4)])
        res = lagrangian(g)
        se = support_enumeration(g)
        gm = grid_max(g, 60)
        assert res.value >= gm - 1e-12
        assert res.value == pytest.approx(gm, abs=1e-12)
        assert abs(res.value - se.value) <= 1e-8
        assert res.support == 3  # one edge uniformly weighted suffices


class TestPlateau:
    @pytest.mark.parametrize("t", [5, 6])
    def test_colex_values_constant_on_window(self, t):
        base = lagrangian(RGraph.complete(3, t - 1)).value
        for m in range(comb(t - 1, 3), comb(t - 1, 3) + comb(t - 2, 2) + 1):
            res = lagrangian(build_colex_graph(3, m))
            assert res.value == pytest.approx(base, abs=1e-7), f"m={m}"
            assert res.certified


class TestTwoGraphOracle:
    def test_five_cycle(self):
        assert lagrangian_2graph_oracle(FIVE_CYCLE) == pytest.approx(0.25)
        assert clique_number(FIVE_CYCLE) == 2

    def test_complete_four(self):
        assert lagrangian_2graph_oracle(RGraph.complete(2, 4)) == pytest.approx(0.375)

    def test_empty(self):
        assert lagrangian_2graph_oracle(RGraph(2, 5, frozenset())) == 0.0

    def test_refusal_large_n(self):
        with pytest.raises(ValueError, match="refused"):
            lagrangian_2graph_oracle(RGraph(2, 21, frozenset()))

    def test_wrong_uniformity(self):
        with pytest.raises(ValueError):
            lagrangian_2graph_oracle(RGraph.complete(3, 4))

    def test_clique_number_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            g = random_rgraph(rng, 2, int(rng.integers(3, 9)), float(rng.uniform(0.2, 0.9)))
            assert clique_number(g) == clique_number_bruteforce(g)

    def test_solver_agrees_on_random_two_graphs(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            g = random_rgraph(rng, 2, int(rng.integers(3, 10)), float(rng.uniform(0.2, 0.9)))
            want = lagrangian_2graph_oracle(g)
            got = lagrangian(g)
            assert abs(got.value - want) <= 1e-7

    def test_five_cycle_support_enumeration(self):
        se = support_enumeration(FIVE_CYCLE)
        assert se.value == pytest.approx(0.25, abs=1e-10)
        assert se.support == 2
        assert se.method == "support_enumeration"


class TestSupportEnumeration:
    def test_complete_four(self):
        se = support_enumeration(RGraph.complete(3, 4))
        assert se.value == pytest.approx(0.0625, abs=1e-10)
        assert se.support == 4

    def test_agrees_with_solver_on_all_small_graphs(self, no_cross_check):
        # every 3-graph on [5]; the explicit comparison below is the cross
        # check, so the solver-internal one is switched off
        triples = list(combinations(range(1, 6), 3))
        for mask in range(1, 1 << 10):
            edges = [e for k, e in enumerate(triples) if mask >> k & 1]
            g = RGraph.from_edges(3, edges, n=5)
            a = lagrangian(g)
            b = support_enumeration(g)
            assert abs(a.value - b.value) <= 1e-8, sorted(g.edges)


class TestCrossCheck:
    @staticmethod
    def shift_support_enumeration(monkeypatch, shift) -> list:
        # the seam: the cross-check's searches, the ones that follow a
        # search per graph in the block's face solve, on the graphs'
        # enumerable supports
        calls, best_on_faces = [], solver._best_on_faces

        def shifted(data, graph, faces):
            found = best_on_faces(data, graph, faces)
            for i in range(len(data.graphs), len(found)):
                calls.append(data.graphs[graph[i]])
                found[i] = (found[i][0] + shift, found[i][1])
            return found

        monkeypatch.setattr(solver, "_best_on_faces", shifted)
        return calls

    # one graph per route, both with at most CROSS_CHECK_MAX_ACTIVE vertices
    GRAPHS = [RGraph.complete(3, 5), FIVE_CYCLE]

    @pytest.mark.parametrize("g", GRAPHS)
    def test_disagreement_uncertifies(self, monkeypatch, g):
        with monkeypatch.context() as off:
            off.setattr(solver, "CROSS_CHECK_MAX_ACTIVE", 0)
            value = lagrangian(g).value
        calls = self.shift_support_enumeration(monkeypatch, 1e-6)
        res = lagrangian(g)
        assert calls == [g]
        assert not res.certified and res.value == value
        note, = res.notes
        assert note.startswith("support enumeration disagrees: ")
        assert note.endswith(f" vs {value!r}")

    @pytest.mark.parametrize("g", GRAPHS)
    def test_agreement_within_tolerance_stays_certified(self, monkeypatch, g):
        calls = self.shift_support_enumeration(monkeypatch, 1e-10)
        res = lagrangian(g)
        assert calls == [g]
        assert res.certified and res.notes == ()

    @pytest.mark.parametrize("g", GRAPHS)
    def test_switched_off_never_runs(self, monkeypatch, no_cross_check, g):
        calls = self.shift_support_enumeration(monkeypatch, 1e-6)
        assert lagrangian(g).certified
        assert calls == []

    def test_rides_in_the_one_face_solve(self, monkeypatch):
        # every graph of (6, 15) has at most 6 active vertices: each gets its
        # prefix faces and its enumerable supports in one call
        graphs, seen = list(enumerate_left_compressed(6, 15)), []
        best_on_faces = solver._best_on_faces

        def spy(data, graph, faces):
            seen.append((len(data.graphs), list(graph)))
            return best_on_faces(data, graph, faces)

        monkeypatch.setattr(solver, "_best_on_faces", spy)
        lagrangians(graphs)
        assert seen == [(len(graphs), 2 * list(range(len(graphs))))]

    @pytest.mark.parametrize("t", [5, 6])
    def test_equals_support_enumeration(self, monkeypatch, t):
        # the value of each graph's in-block cross-check search is the value
        # of the public support_enumeration of that graph alone, exactly
        seen, best_on_faces = [], solver._best_on_faces

        def spy(data, graph, faces):
            found = best_on_faces(data, graph, faces)
            seen.extend((data.graphs[graph[i]], found[i][0])
                        for i in range(len(data.graphs), len(found)))
            return found

        monkeypatch.setattr(solver, "_best_on_faces", spy)
        cells = [list(enumerate_left_compressed(t, m)) for m in cell_window(t)]
        for cell in cells:
            lagrangians(cell)
        monkeypatch.undo()
        assert [g for g, _ in seen] == [g for cell in cells for g in cell]
        assert all(value == support_enumeration(g).value for g, value in seen)

    def test_one_graph_data_and_one_result_pass_per_block(self, monkeypatch):
        # the cross-check searches the block's own stacked edges again and
        # reads its values where the search leaves them: a serial sweep of
        # the t = 4 ... 7 windows, every graph of t <= 6 cross-checked,
        # stacks each window once and turns its points into results once
        builds, passes = [], []
        init, results = solver._GraphData.__init__, solver._results

        def init_spy(data, graphs):
            builds.append(len(graphs))
            init(data, graphs)

        def results_spy(data, owner, *rest):
            passes.append(len(owner))
            return results(data, owner, *rest)

        monkeypatch.setattr(solver._GraphData, "__init__", init_spy)
        monkeypatch.setattr(solver, "_results", results_spy)
        sweep(7)
        windows = [len(window_graphs(t)) for t in (4, 5, 6, 7)]
        assert builds == passes == windows
        builds.clear()
        assert lagrangian(RGraph.complete(3, 5)).certified
        assert builds == [1]


class TestEnumerableSupports:
    def test_bitmasks_match_the_definition(self):
        # every 3-graph on [5]: subsets of the active vertices, size 3 up,
        # whose pairs all lie in an edge and whose vertices all lie in an
        # edge inside them, in size-then-combinations order
        triples = list(combinations(range(1, 6), 3))
        for mask in range(1, 1 << 10):
            g = RGraph.from_edges(3, [e for k, e in enumerate(triples) if mask >> k & 1], n=5)
            act = sorted({v for e in g.edges for v in e})
            expected = [
                sup for size in range(3, len(act) + 1) for sup in combinations(act, size)
                if all(any({i, j} <= set(e) for e in g.edges) for i, j in combinations(sup, 2))
                and {v for e in g.edges if set(e) <= set(sup) for v in e} == set(sup)]
            assert solver._enumerable_supports(g) == (expected, False)

    def test_cross_checked_supports_are_never_cut_short(self):
        # a cross-checked graph has at most CROSS_CHECK_MAX_ACTIVE active
        # vertices, so at most 2 ** CROSS_CHECK_MAX_ACTIVE subsets to inspect:
        # lagrangians can ignore the budget flag of its supports
        assert 2 ** solver.CROSS_CHECK_MAX_ACTIVE <= solver.SUPPORT_BUDGET
        g = RGraph.complete(3, solver.CROSS_CHECK_MAX_ACTIVE)
        assert solver._enumerable_supports(g)[1] is False

    def test_budget_covers_fourteen_vertices_at_r_3(self):
        # SUPPORT_BUDGET (20,000) takes all 16,278 vertex subsets of size 3
        # up of K_14^(3), and not the 32,647 of K_15^(3): support
        # enumeration is complete up to 14 active vertices at r = 3
        supports, cut = solver._enumerable_supports(RGraph.complete(3, 14))
        assert (len(supports), cut) == (16278, False)
        assert solver._enumerable_supports(RGraph.complete(3, 15))[1] is True

    def test_budget_cuts_the_list_short(self, monkeypatch):
        # K_5^(3) has 16 vertex subsets of size 3 up, every one a support
        g, subsets = RGraph.complete(3, 5), [
            sup for size in (3, 4, 5) for sup in combinations(range(1, 6), size)]
        monkeypatch.setattr(solver, "SUPPORT_BUDGET", 16)
        assert solver._enumerable_supports(g) == (subsets, False)
        assert support_enumeration(g).certified
        monkeypatch.setattr(solver, "SUPPORT_BUDGET", 15)
        assert solver._enumerable_supports(g) == (subsets[:15], True)
        se = support_enumeration(g)
        assert not se.certified and se.notes[-1] == "support budget exceeded; partial result"


class TestPrefixRoute:
    def test_agrees_with_support_enumeration_on_t7_window(self):
        # the built-in cross-check skips these graphs (7 active vertices)
        for m in cell_window(7):
            for g in enumerate_left_compressed(7, m):
                a = lagrangian(g)
                b = support_enumeration(g)
                assert abs(a.value - b.value) <= 1e-12, sorted(g.edges)
                assert a.support == b.support, sorted(g.edges)

    def test_left_compressed_graphs_skip_multistart(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("multistart route reached")

        monkeypatch.setattr(solver, "_multistart", refuse)
        res = lagrangian(build_colex_graph(3, 17))
        assert res.certified
        assert res.method == "symmetry_reduced"

    def test_first_order_condition_refuses_a_face_optimum(self, monkeypatch, no_cross_check):
        # on the face [3] alone, K_4^(3) stops at 1/27 while vertex 4 has
        # link 1/3 > 3 * 1/27; only the first-order condition can catch it
        # once the cross-check is off
        best_on_faces = solver._best_on_faces
        monkeypatch.setattr(
            solver, "_best_on_faces",
            lambda data, graph, faces: best_on_faces(
                data, graph, [f[:1] for f in faces]))
        res = lagrangian(RGraph.complete(3, 4))
        assert res.value == pytest.approx(1 / 27, abs=1e-15)
        assert res.kkt_residual <= 1e-14
        assert not res.certified
        assert res.notes

    def test_tie_between_supports_keeps_the_prefix(self):
        # K_5^(3) sits on [5] and on {1, 2, 3, 4, 6}; the face [7] reaches the
        # second with weights a few ulps above 0.2, which comparing weightings
        # alone would prefer to the prefix point
        g = graph_from_words(3, 7, "123 124 134 234 125 135 235 145 245 345 126 136 "
                                   "236 146 246 346 127 137 237 147 247")
        assert g in set(enumerate_left_compressed(7, 21))
        res = lagrangian(g)
        assert res.certified and res.support == 5
        assert res.weighting == pytest.approx([0.2] * 5 + [0, 0], rel=0, abs=1e-15)

    @pytest.mark.parametrize("r, n, words, value", [
        (4, 7, "1234 1235 1245 1345 1236 1246 1256 1237 1247 1257 1267",
         0.006629242030811546),
        (3, 8, "123 124 134 234 125 135 145 126 136 146 156 127 137 147 157 167 128",
         0.06374771975079963),
    ])
    def test_face_ascent_reaches_the_optimum(self, no_cross_check, r, n, words, value):
        # Newton started at the uniform point of each prefix face stops short
        # on these graphs (support 5 at 0.00659..., and 0.06285...); the
        # multiplicative ascent before it is what reaches the optimum on [7]
        g = graph_from_words(r, n, words)
        res = lagrangian(g)
        se = support_enumeration(g)
        assert res.method == "symmetry_reduced"
        assert res.certified and se.certified
        assert res.value == pytest.approx(value, abs=1e-15)
        assert abs(se.value - value) <= 1e-12
        assert res.support == se.support == 7


class TestMultistartRoute:
    # at the given seed each graph ends below its optimum, flagged
    # uncertified, when the multistart route tries fewer faces: without the
    # peel chain (one-vertex-peel) or with a chain of one step
    # (two-vertex-peel); from the best ascent end point alone, the last
    # graph ends on support 6, 1.6e-14 below its optimum (second-end-point)
    @pytest.mark.parametrize("r, n, words, seed, value, support", [
        pytest.param(3, 7, "123 124 125 126 127 137 145 146 147 156 157 167 234 "
                           "236 237 245 256 267 346 356 367 457 567",
                     solver.DEFAULT_SEED, 0.07424083396701817, 6, id="one-vertex-peel"),
        pytest.param(3, 9, "124 125 127 128 129 134 136 137 138 139 145 146 147 "
                           "148 149 156 157 158 159 167 169 179 189 236 237 238 "
                           "239 246 247 248 256 267 268 278 289 346 347 348 356 "
                           "358 367 368 378 379 389 456 457 458 459 467 468 469 "
                           "478 479 489 567 568 569 589 678 689",
                     2, 0.08976192924480776, 7, id="two-vertex-peel"),
        pytest.param(2, 8, "12 14 16 18 25 28 35 38 45 47 48 56 58 68 78",
                     solver.DEFAULT_SEED, 1 / 3, 3, id="second-end-point"),
    ])
    def test_finds_the_optimal_face(self, no_cross_check, r, n, words, seed, value, support):
        g = graph_from_words(r, n, words)
        res = lagrangian(g, SolverOptions(seed=seed))
        se = support_enumeration(g)
        assert res.method == "multistart_gradient"
        assert res.certified
        assert se.value == pytest.approx(value, abs=1e-15)
        assert abs(res.value - se.value) <= 1e-12
        assert res.support == se.support == support

    def test_second_end_point_with_its_cut_finds_the_optimal_face(self):
        # a 3-graph that is not left-compressed: from the best end point
        # alone, with the candidate supports cut at POSITIVE_EPS rather than
        # 1e-9, or from 4 or 128 random starts rather than STARTS (32), the
        # route stops uncertified on support 9 (at 0.07954448596961287 from
        # the best end point alone); it is kept graph 293 of the
        # random.Random(12345) corpus that CHANGES.md describes
        g = graph_from_words(3, 9, "124 134 234 235 145 345 136 236 246 346 156 256 127 "
                                   "147 347 157 257 357 467 567 128 238 148 348 158 258 "
                                   "358 458 268 368 568 178 278 378 478 578 678 129 139 "
                                   "239 149 349 159 459 169 269 469 179 279 479 579 679 "
                                   "589 789")
        res = lagrangian(g)
        assert res.method == "multistart_gradient"
        assert res.certified
        assert res.value == pytest.approx(0.07954755278516008, abs=1e-15)
        assert res.support == 6

    def test_uniform_start_alone_peels_two_weights(self, monkeypatch):
        # with no random start the five-cycle's one end point is its uniform
        # point, stationary at 0.2 with every weight tied: only that point
        # without its two smallest weights, the path 3-4-5, holds the
        # optimum 1/4; peeling one weight at most returns 0.2, uncertified
        monkeypatch.setattr(solver, "STARTS", 0)
        res = lagrangian(FIVE_CYCLE)
        assert res.method == "multistart_gradient" and res.certified
        assert res.value == pytest.approx(0.25, abs=1e-15)

    def test_end_point_above_the_face_solutions_is_kept(self):
        # the best face solution of this graph lies below the best ascent end
        # point (0.0732849788952584, which passes the first-order test); the
        # end point must come back, whatever its certification
        g = graph_from_words(3, 7, "123 124 135 245 345 126 136 236 146 246 346 156 356 "
                                   "127 137 157 457 167 267 367 467 567")
        res = lagrangian(g)
        assert res.method == "multistart_gradient"
        assert res.value >= 0.0732891
        assert evaluate(g, res.weighting) == res.value

    def test_tie_rule_prefers_the_first_order_condition(self):
        # the optimum on support 8 lies 2.4e-11 above a point on support 7
        # whose vertex 1 has link r * value + 1.8e-6; the smaller support
        # must not win the tie
        g = graph_from_words(4, 9, "1235 1356 3456 2347 1357 2357 1457 2467 3467 "
                                   "1567 2567 3567 4567 1348 2348 1358 2358 1458 "
                                   "1368 2368 1468 2468 3468 1568 3568 1378 1478 "
                                   "3478 3578 4578 2678 3678 5678 1249 1359 1269 "
                                   "1369 2369 1469 2469 3469 3569 4569 1379 2379 "
                                   "1479 2479 3679 1389 2389 1489 2489 3489 2589 "
                                   "2689 3689 4689 1789 2789 3789 5789 6789")
        for res in (lagrangian(g), support_enumeration(g)):
            assert res.certified, res.method
            assert res.support == 8, res.method
            assert res.value == pytest.approx(0.010817886907343888, abs=1e-15)

    def test_end_point_above_every_face_is_kept(self, monkeypatch, no_cross_check):
        # with the edge (2, 6) as the only face the faces' best is 0.25, a
        # point, yet below the best ascent end point at 1/3; the end point
        # itself must come back
        best_on_faces = solver._best_on_faces
        monkeypatch.setattr(
            solver, "_best_on_faces",
            lambda data, graph, faces, *rest: best_on_faces(
                data, graph, [[(2, 6)] for _ in faces], *rest))
        g = graph_from_words(2, 7, "12 13 15 24 26 27 34 36 37 46 67")
        res = lagrangian(g)
        assert res.certified
        assert res.value == pytest.approx(1 / 3, abs=1e-12)

    def test_damped_newton_stays_on_the_simplex(self):
        # on an ill-conditioned face of this graph a full Newton step leaves
        # the simplex, and the iterate then overflows inside grad_rows
        g = graph_from_words(4, 8, "1234 1245 1345 2345 1346 1256 1356 2356 1456 "
                                   "3456 1237 1247 2357 1367 2367 1467 1567 3567 "
                                   "4567 2348 1368 1468 3468 4568 1378 2378 3478 "
                                   "1578 1678 5678")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            se = support_enumeration(g)
            res = lagrangian(g)
        assert se.certified and res.certified
        assert abs(res.value - se.value) <= 1e-9

    def test_blocked_face_yields_nothing_and_the_smaller_face_holds_the_optimum(self):
        # the face [8] alone yields no point: its row fails at the step that
        # would leave the simplex; the optimum is the row of the face [7]
        data, se = solver._GraphData([BLOCKED_ON_8]), support_enumeration(BLOCKED_ON_8)
        assert solver._best_on_faces(data, [0], [[tuple(range(1, 9))]]) == [None]
        found, = solver._best_on_faces(data, [0], [[tuple(range(1, 8)), tuple(range(1, 9))]])
        assert abs(found[0] - se.value) <= 1e-12
        assert found[1][7] == 0.0
        res = lagrangian(BLOCKED_ON_8)
        assert res.certified and se.certified
        assert abs(res.value - se.value) <= 1e-12
        assert res.support == se.support == 7


class TestBatchedSolve:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 10**6])
    def test_cell_solve_equals_one_graph_solves(self, monkeypatch, chunk_rows):
        # every result field, exactly: this keeps reports byte-identical
        # whatever graphs a worker happens to solve together
        cells = [(t, m) for t in (5, 6, 7) for m in cell_window(t)] + [(8, 35), (9, 77)]
        alone = {cell: [lagrangian(g) for g in enumerate_left_compressed(*cell)]
                 for cell in cells}
        monkeypatch.setattr(solver, "CHUNK_ROWS", chunk_rows)
        for cell in cells:
            assert lagrangians(list(enumerate_left_compressed(*cell))) == alone[cell], cell

    def test_one_row_per_face_and_edges_inside(self, monkeypatch):
        # (8, 35), a plateau cell: its 79 graphs solve the covered prefix
        # faces [3] ... [K], where {1, K-1, K} is an edge, but a row's solve
        # reads only the face and the edges inside it
        graphs = list(enumerate_left_compressed(8, 35))
        keys = {(k, frozenset(e for e in g.edges if e[-1] <= k))
                for g in graphs
                for k in range(3, max(e[2] for e in g.edges if e[:2] == (1, e[2] - 1)) + 1)}
        rows, newton = [], solver._newton_rows

        def spy(block, x0, faces):
            rows.append(len(x0))
            return newton(block, x0, faces)

        monkeypatch.setattr(solver, "_newton_rows", spy)
        lagrangians(graphs)
        assert sum(rows) == len(keys) == 56

    def test_blocked_newton_steps_do_not_crawl(self, monkeypatch):
        # many faces of (8, 35) have their optimum on their boundary; a step
        # that leaves the simplex fails its row, whose optimum lies on a
        # smaller prefix face, another row, so the face solve takes few
        # stacked Newton steps instead of crawling toward that boundary
        calls, solve = [], solver._solve_rows

        def spy(jac, rhs):
            calls.append(len(jac))
            return solve(jac, rhs)

        monkeypatch.setattr(solver, "_solve_rows", spy)
        lagrangians(list(enumerate_left_compressed(8, 35)))
        assert len(calls) <= 20

    def test_no_stacked_solve_on_an_empty_stack(self, monkeypatch):
        # rows that all converge at one check end the Newton round before
        # any Jacobian is built
        calls, solve = [], solver._solve_rows

        def spy(jac, rhs):
            calls.append(len(jac))
            return solve(jac, rhs)

        monkeypatch.setattr(solver, "_solve_rows", spy)
        for m in cell_window(8):
            verify_cell(8, m)
        assert calls and 0 not in calls

    def test_pair_matrices_only_for_rows_that_step(self, monkeypatch):
        # rows that converged at a check take no Newton step, so no pair
        # matrix is built for them: over the t = 8 window every pair row
        # reaches a stacked Jacobian (1,025 of them, since capped face rows
        # start Newton farther from their optimum)
        built, stacked = [], []
        pair, solve = solver._Rows.pair, solver._solve_rows

        def pair_spy(block, x):
            built.append(len(x))
            return pair(block, x)

        def solve_spy(jac, rhs):
            stacked.append(len(jac))
            return solve(jac, rhs)

        monkeypatch.setattr(solver._Rows, "pair", pair_spy)
        monkeypatch.setattr(solver, "_solve_rows", solve_spy)
        for m in cell_window(8):
            verify_cell(8, m)
        assert stacked and built == stacked
        assert sum(built) == 1025

    def test_one_row_set_per_face_chunk(self, monkeypatch):
        # a face chunk's ascent, Newton and row values share one _Rows: over
        # the t = 8 window, solved cell by cell, 45 are built in all, 89 when
        # each of the three built its own
        builds, init = [], solver._Rows.__init__

        def spy(block, *args):
            builds.append(block)
            init(block, *args)

        monkeypatch.setattr(solver._Rows, "__init__", spy)
        for m in cell_window(8):
            verify_cell(8, m)
        assert len(builds) <= 45

    def test_face_ascent_hands_off_to_newton(self, monkeypatch):
        # Newton finishes a face row, or fails it when the face's optimum
        # lies on a smaller prefix face, another row, so the ascent stops at
        # FACE_ASCENT_STOP or after FACE_ASCENT_ITERS steps instead of
        # climbing (8, 35)'s blocked faces for 117 steps; a cap of 21 or less
        # fails test_tie_rule_prefers_the_first_order_condition, which gives
        # the constant its floor
        grads, steps = [], []
        grad, ascend = solver._Rows.grad, solver._replicator_rows

        def count_grad(block, x):
            grads.append(len(x))
            return grad(block, x)

        def count_steps(*args):
            start = len(grads)
            out = ascend(*args)
            steps.append(len(grads) - start)
            return out

        monkeypatch.setattr(solver._Rows, "grad", count_grad)
        monkeypatch.setattr(solver, "_replicator_rows", count_steps)
        lagrangians(list(enumerate_left_compressed(8, 35)))
        assert steps and sum(steps) <= solver.FACE_ASCENT_ITERS

    def test_face_ascent_cap_loses_no_solved_row(self, monkeypatch):
        # the rows the cap cuts short are blocked rows, which Newton fails
        # from any point: over the t = 8 window, solved cell by cell, Newton
        # solves the same 321 of 565 rows as with the ascent run to
        # FACE_ASCENT_STOP
        rows, solved, newton = [], [], solver._newton_rows

        def spy(block, x0, faces):
            out, ok = newton(block, x0, faces)
            rows.append(len(x0))
            solved.append(int(ok.sum()))
            return out, ok

        monkeypatch.setattr(solver, "_newton_rows", spy)
        for m in cell_window(8):
            verify_cell(8, m)
        assert (sum(solved), sum(rows)) == (321, 565)

    def test_mixed_routes_and_empty_input(self):
        graphs = [build_colex_graph(3, 7).with_n(6),
                  graph_from_words(3, 6, "123 124 135 146 236 245 256")]
        assert [res.method for res in lagrangians(graphs)] == [
            "symmetry_reduced", "multistart_gradient"]
        assert lagrangians(graphs) == [lagrangian(g) for g in graphs]
        assert lagrangians([]) == []
        # graphs that share r and n stack whatever their edge counts
        graphs = [build_colex_graph(3, 7), build_colex_graph(3, 8)]
        assert lagrangians(graphs) == [lagrangian(g) for g in graphs]

    def test_ragged_stack_equals_one_graph_solves(self):
        # every result field, exactly: edge counts 0 ... 20 on [6], both
        # routes, cross-checked graphs and empty graphs first, inside and last
        empty = RGraph(3, 6, frozenset())
        graphs = [empty, build_colex_graph(3, 7).with_n(6),
                  graph_from_words(3, 6, "123 124 135 146 236 245 256"), empty,
                  build_colex_graph(3, 1).with_n(6), RGraph.complete(3, 6),
                  *enumerate_left_compressed(6, 14), empty]
        assert [g.m for g in graphs][:6] == [0, 7, 7, 0, 1, 20]
        assert lagrangians(graphs) == [lagrangian(g) for g in graphs]
        assert lagrangians([empty, empty]) == [lagrangian(empty)] * 2

    def test_window_stack_equals_cell_stacks(self):
        # one stack over the whole t = 7 window shares rows across cells
        # (faces with the same edges inside) and still gives each graph its
        # own cell's result
        cells = [list(enumerate_left_compressed(7, m)) for m in cell_window(7)]
        window = [g for cell in cells for g in cell]
        assert lagrangians(window) == [res for cell in cells for res in lagrangians(cell)]

    def test_empty_graphs_leave_the_stack_once(self, monkeypatch):
        # the empty graphs are split off before the block is stacked
        builds, init = [], solver._GraphData.__init__

        def init_spy(data, graphs):
            builds.append(len(graphs))
            init(data, graphs)

        monkeypatch.setattr(solver._GraphData, "__init__", init_spy)
        graphs = [RGraph(3, 6, frozenset()), *enumerate_left_compressed(6, 15)]
        lagrangians(graphs)
        assert builds == [len(graphs) - 1] == [3]

    @pytest.mark.parametrize("graphs", [
        [build_colex_graph(3, 7), build_colex_graph(3, 7).with_n(6)],  # n differs
        [RGraph.complete(2, 5), RGraph.complete(3, 5)],  # r differs
        [RGraph(3, 5, frozenset()), RGraph(3, 6, frozenset())],  # empty, n differs
        [RGraph(3, 5, frozenset()), *enumerate_left_compressed(6, 15)],  # one empty differs
    ])
    def test_stack_rejects_mixed_r_or_n(self, graphs):
        with pytest.raises(ValueError, match="share r and n"):
            lagrangians(graphs)

    @pytest.mark.parametrize("singular, near", [
        pytest.param((37,), (), id="one-singular"),
        pytest.param((5, 37, 60), (21,), id="three-singular-one-near"),
    ])
    def test_singular_rows_cost_one_more_solve(self, monkeypatch, singular, near):
        # singular systems among 64 (two equal rows, which for these rows
        # leave LU an exact zero pivot) make the stacked solve raise; the
        # rest are solved in one more stacked call.  A near-singular system
        # (two rows 1e-10 apart) has no zero pivot and is solved
        rng = np.random.default_rng(11)
        jac, rhs = rng.random((64, 6, 6)) + 6 * np.eye(6), rng.random((64, 6))
        for k in singular + near:
            jac[k, 4] = jac[k, 2]
        for k in near:
            jac[k, 4, 0] += 1e-10
        solve, calls = np.linalg.solve, []

        def spy(a, b):
            calls.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        out, ok = solver._solve_rows(jac, rhs)
        assert calls == [64, 64 - len(singular)]
        assert ok.tolist() == [k not in singular for k in range(64)]
        assert all(np.array_equal(out[k], solve(jac[k], rhs[k]))
                   for k in range(64) if k not in singular)
        assert not out[list(singular)].any()

    @pytest.mark.parametrize("size", [1, 3])
    def test_stack_of_singular_rows_solves_none(self, size):
        # the second stacked solve gets an empty stack
        out, ok = solver._solve_rows(np.zeros((size, 4, 4)), np.ones((size, 4)))
        assert not ok.any() and not out.any()

    def test_singular_face_fails_alone(self, monkeypatch):
        # vertices 4 and 5 lie in no edge, so the Jacobian on the face [5]
        # has two equal rows; the stacked solve raises for the whole stack
        g = RGraph.from_edges(3, [(1, 2, 3)], n=5)
        data = solver._GraphData([g])
        faces = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=bool)
        x0 = np.array([[0.2] * 5, [0.5, 0.3, 0.2, 0, 0]])  # both rows take steps
        solve, raised = np.linalg.solve, []

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                raised.append(a.shape)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        xs, solved = solver._newton_rows(solver._Rows(data, [0, 0], faces), x0, faces)
        assert (2, 6, 6) in raised
        xs_alone, solved_alone = solver._newton_rows(
            solver._Rows(data, [0], faces[1:]), x0[1:], faces[1:])
        assert solved.tolist() == [False, True] and solved_alone.tolist() == [True]
        assert np.array_equal(xs[1], xs_alone[0])
        assert np.allclose(xs[1], [1 / 3, 1 / 3, 1 / 3, 0, 0], rtol=0, atol=1e-13)

    def test_blocked_face_fails_alone(self, monkeypatch):
        # from their ascent end points, the row of the face [8] is blocked at
        # its first step while the row of [7] converges; the blocked row
        # fails without touching its neighbour's point
        data, owner = solver._GraphData([BLOCKED_ON_8]), np.zeros(2, np.intp)
        faces = np.array([[1] * 8, [1] * 7 + [0]], dtype=bool)
        x0 = solver._replicator_rows(solver._Rows(data, owner, faces),
                                     faces / faces.sum(axis=1, keepdims=True),
                                     solver.FACE_ASCENT_STOP, solver.FACE_ASCENT_ITERS)
        calls, solve = [], solver._solve_rows

        def spy(jac, rhs):
            calls.append(len(jac))
            return solve(jac, rhs)

        monkeypatch.setattr(solver, "_solve_rows", spy)
        xs, solved = solver._newton_rows(solver._Rows(data, owner, faces), x0, faces)
        assert calls[:2] == [2, 1]  # the row of [8] takes no step
        xs_alone, solved_alone = solver._newton_rows(
            solver._Rows(data, owner[1:], faces[1:]), x0[1:], faces[1:])
        assert solved.tolist() == [False, True] and solved_alone.tolist() == [True]
        assert not xs[0].any()
        assert np.array_equal(xs[1], xs_alone[0])

    def test_step_may_leave_the_face_by_up_to_1e_9(self, monkeypatch):
        # the first step of two rows of K_4^(3) is forced to points whose
        # last weight is -5e-10 and -1e-7: the first row takes its step and
        # converges to the uniform point, the second is blocked and fails
        data, faces = solver._GraphData([RGraph.complete(3, 4)]), np.ones((2, 4), bool)
        x0 = np.array([[0.4, 0.2, 0.2, 0.2]] * 2)
        ends = np.array([[0.5, 0.25, 0.25 + 5e-10, -5e-10], [0.5, 0.25, 0.25 + 1e-7, -1e-7]])
        calls, solve = [], solver._solve_rows

        def spy(jac, rhs):
            calls.append(len(jac))
            out, ok = solve(jac, rhs)
            if len(calls) == 1:
                out[:, :4] = ends - x0
            return out, ok

        monkeypatch.setattr(solver, "_solve_rows", spy)
        xs, solved = solver._newton_rows(solver._Rows(data, [0, 0], faces), x0, faces)
        assert calls[:2] == [2, 1]
        assert solved.tolist() == [True, False]
        assert np.allclose(xs[0], 0.25, rtol=0, atol=1e-14) and not xs[1].any()


class TestRowKeys:
    """A face row reads only its face and the edges inside it, so (graph,
    face) pairs are keyed by those, whatever their graphs' other edges."""

    def test_distinct_rows_per_window(self, monkeypatch):
        # every graph of the t <= 6 windows, and one of t = 7, is also
        # searched on its enumerable supports; keyed by its graph's edges up
        # to the face's top vertex, a support that skips a vertex below it
        # is not shared by graphs that differ there, and the windows take
        # 9, 64, 485 and 110 rows; a prefix face's two keys agree
        rows, solve = [], solver._solve_faces

        def spy(data, graph, faces):
            out = solve(data, graph, faces)
            rows.append(len(out[2]))
            return out

        monkeypatch.setattr(solver, "_solve_faces", spy)
        for t in (4, 5, 6, 7):
            lagrangians(window_graphs(t))
        assert rows == [6, 26, 107, 110]

    def test_edges_outside_the_face_share_its_row(self):
        # both graphs hold the face {1, 2, 4}'s one inside edge; only g holds
        # {1, 2, 3}, which lies below the face's top vertex
        g, h = graph_from_words(3, 5, "123 124 345"), graph_from_words(3, 5, "124 135 345")
        face = [(1, 2, 4)]
        _, which, xs, solved, vals = solver._solve_faces(
            solver._GraphData([g, h]), np.array([0, 1]), [face, face])
        assert which.tolist() == [0, 0]
        _, _, *alone = solver._solve_faces(solver._GraphData([g]), np.array([0]), [face])
        assert solved.tolist() == alone[1].tolist() == [True]
        assert np.array_equal(xs, alone[0]) and np.array_equal(vals, alone[2])
        assert vals[0] == 1 / 27


class TestOneGraphKernel:
    """The multistart route's kernel: the links of all starts of one graph
    as one matrix product over the graph's shadow."""

    @staticmethod
    def graphs_with_isolated_vertices():
        rng, out = np.random.default_rng(41), []
        for r in (2, 3, 4):
            while sum(g.r == r for g in out) < 12:
                g = random_rgraph(rng, r, int(rng.integers(r + 2, 11)),
                                  float(rng.uniform(0.05, 0.6)))
                if g.m and solver._GraphData([g]).active.sum() < g.n:
                    out.append(g)
        return out

    def test_grad_matches_the_edge_order_kernel(self):
        # both kernels form the same products and may differ only in the
        # order of their sums; a sum of at most m non-negative terms moves
        # by at most (m - 1) * 2**-53 of itself in either order
        rng = np.random.default_rng(42)
        for g in self.graphs_with_isolated_vertices():
            data = solver._GraphData([g])
            x, act = np.zeros((33, g.n)), np.flatnonzero(data.active[0])
            x[:, act] = rng.dirichlet(np.ones(act.size), size=33)
            one, edge = solver._OneGraphRows(data, 0), solver._Rows(data, np.zeros(33, np.intp))
            tol = 4 * g.m * 2.0 ** -52
            want = edge.grad(x)
            assert (np.abs(one.grad(x) - want) <= tol * want.max(axis=1, keepdims=True)).all()
            assert not one.grad(x)[:, ~data.active[0]].any()
            assert one.subset(np.arange(33) % 2 == 0) is one

    def test_block_mates_leave_a_general_result_alone(self):
        rng = np.random.default_rng(43)
        graphs = [random_rgraph(rng, 3, 8, 0.5) for _ in range(3)]
        assert not any(map(is_left_compressed, graphs))
        got, alone = lagrangians(graphs)[0], lagrangian(graphs[0])
        assert got.method == "multistart_gradient"
        assert [v.hex() for v in (got.value, *got.weighting)] == [
            v.hex() for v in (alone.value, *alone.weighting)]

    def test_fresh_processes_agree(self):
        # the one-vertex-peel graph of TestMultistartRoute
        words = ("123 124 125 126 127 137 145 146 147 156 157 167 234 236 237 245 256 "
                 "267 346 356 367 457 567")
        code = ("from laglab.solver import lagrangian; from laglab.hypergraph import RGraph; "
                f"g = RGraph.from_edges(3, [tuple(map(int, w)) for w in {words!r}.split()]); "
                "res = lagrangian(g); print(res.method, res.certified, res.value.hex(), "
                "*[w.hex() for w in res.weighting])")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        outs = [subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True, timeout=120).stdout for _ in range(2)]
        assert outs[0] == outs[1]
        assert outs[0].startswith("multistart_gradient True ")


def window_graphs(t):
    """Every graph of the t window, cell after cell: one stack of picks."""
    return [g for m in cell_window(t) for g in enumerate_left_compressed(t, m)]


def general_corpus(seed, count):
    """Seeded random 2-, 3- and 4-graphs that are not left-compressed."""
    rng, out = np.random.default_rng(seed), []
    while len(out) < count:
        r = int(rng.integers(2, 5))
        g = random_rgraph(rng, r, int(rng.integers(r + 2, 9)), float(rng.uniform(0.2, 0.85)))
        if g.m and not is_left_compressed(g):
            out.append(g)
    return out


class TestPickMatrix:
    @pytest.mark.parametrize("t", [4, 5, 6, 7, 8, 9])
    def test_equals_the_edge_listing(self, t):
        # the stacked picks, unpacked at once, give the arrays the edge
        # listing gives; at t = 9 the last byte holds only ranks 80 .. 83
        graphs = window_graphs(t)
        assert all(g._picks is not None for g in graphs)
        listed = [RGraph(3, t, g.edges) for g in graphs]
        picked = solver._GraphData(graphs)
        for other in (solver._GraphData(listed), solver._GraphData(graphs[:1] + listed[1:])):
            for name in ("m", "start", "vert", "graph", "active"):
                a, b = getattr(picked, name), getattr(other, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestJudgeByRow:
    """A row is zero off its face, so each edge outside the face adds +0.0 to
    the row's sum on the pair's graph: the row's value is the pair's value
    there, bit for bit."""

    @staticmethod
    def spy_solves(monkeypatch) -> list:
        seen, solve, best_on_faces = [], solver._solve_faces, solver._best_on_faces

        def solve_spy(data, graph, faces):
            seen.append([data, graph, solve(data, graph, faces)])
            return seen[-1][2]

        def best_spy(data, graph, faces):
            found = best_on_faces(data, graph, faces)
            seen[-1].append(list(found))  # lagrangians puts end points into its list
            return found

        monkeypatch.setattr(solver, "_solve_faces", solve_spy)
        monkeypatch.setattr(solver, "_best_on_faces", best_spy)
        return seen

    @staticmethod
    def every_pair_on_its_graph(data, graph, search, which, xs, solved):
        """The tie band judged with every solved pair evaluated on its whole
        graph: of each search's pairs within TIE_TOL of its highest value,
        the one of least tie key."""
        pairs: dict[int, list] = {}
        for k, row in zip(search.tolist(), which.tolist()):
            if not solved[row]:
                continue
            x, one = xs[row], solver._Rows(solver._GraphData([data.graphs[graph[k]]]))
            val = float(one.eval(x[None])[0])
            fail = bool(solver._stationarity(data.r, one.grad(x[None]), x[None],
                                             np.array([val])).fails()[0])
            pairs.setdefault(k, []).append((val, fail, x))
        best = [None] * len(graph)
        for k, found in pairs.items():
            top = max(val for val, _, _ in found)
            best[k] = min((p for p in found if p[0] >= top - solver.TIE_TOL),
                          key=lambda p: solver._tie_key(p[1], p[2]))
        return best

    def test_row_value_is_the_graph_value(self, monkeypatch):
        seen = self.spy_solves(monkeypatch)
        for t in (4, 5, 6, 7):
            lagrangians(window_graphs(t))
        for g in general_corpus(25, 60):
            lagrangian(g)
        pairs = 0
        for data, graph, (search, which, xs, solved, vals), _found in seen:
            for k, row in zip(search.tolist(), which.tolist()):
                if solved[row]:
                    assert vals[row] == evaluate(data.graphs[graph[k]], xs[row])
                    pairs += 1
        assert pairs > 2000

    def test_judge_equals_every_pair_on_its_graph(self, monkeypatch):
        # the t = 5 and t = 6 windows hold graphs with near-ties, whose
        # bands hold more than one pair
        seen = self.spy_solves(monkeypatch)
        for t in (4, 5, 6, 7, 8):
            lagrangians(window_graphs(t))
        for g in general_corpus(26, 60):
            lagrangian(g)
        for data, graph, solved, found in seen:
            want = self.every_pair_on_its_graph(data, graph, *solved[:4])
            for got, ref in zip(found, want):
                assert (got is None) == (ref is None)
                if got is not None:
                    assert got[0] == ref[0] and np.array_equal(got[1], ref[2])

    def test_no_near_tie_builds_no_graph_rows(self, monkeypatch):
        # (8, 35) and the t = 7 window have no graph with two pairs within
        # TIE_TOL of its maximum, so no pair is judged on its whole graph;
        # (8, 42) has one such graph, whose band holds two pairs
        judged, stationarity = [], solver._stationarity

        def spy(r, grad, x, value):
            if sys._getframe(1).f_code.co_name == "_best_on_faces":
                judged.append(len(x))
            return stationarity(r, grad, x, value)

        monkeypatch.setattr(solver, "_stationarity", spy)
        lagrangians(list(enumerate_left_compressed(8, 35)))
        lagrangians(window_graphs(7))
        assert judged == []
        lagrangians(list(enumerate_left_compressed(8, 42)))
        assert sum(judged) == 2


class TestTieBand:
    """A search returns, of its solved pairs within TIE_TOL of its highest
    value, the one of least tie key: the set of its pairs decides, not
    their order."""

    def test_band_is_measured_from_the_best(self, monkeypatch):
        # three points of {1,2,3} on [4], each 0.9 TIE_TOL below the one
        # before, tie keys falling: the band holds the first two; comparing
        # each point with the best so far would drift to the third, and a
        # TIE_TOL of 1e-12 or 1e-6 would give the first or the third (the
        # points are built from the value 1e-9, so they pin it)
        g = RGraph.from_edges(3, [(1, 2, 3)], n=4)
        tau, xs = 1e-9, np.zeros((3, 4))
        for i, drop in enumerate([0.0, 0.9, 1.8]):
            a = np.sqrt(3 * drop * tau)  # (1/3 + a)(1/3 - a)/3 = 1/27 - a^2/3
            xs[i, :3] = [1 / 3 + a, 1 / 3 - a, 1 / 3]
        vals = np.array([evaluate(g, x) for x in xs])
        assert 0.85 * tau < vals[0] - vals[1] < 0.95 * tau < 1.75 * tau < vals[0] - vals[2]
        keys = [solver._tie_key(False, x) for x in xs]
        assert keys[0] > keys[1] > keys[2]
        three = np.zeros(3, np.intp), np.arange(3), xs, np.ones(3, bool), vals
        monkeypatch.setattr(solver, "_solve_faces", lambda data, graph, faces: three)
        monkeypatch.setattr(solver, "KKT_TOL", 1.0)  # every point meets the conditions
        faces = [(1, 2, 3), (1, 2, 4), (1, 3, 4)]
        (value, x), = solver._best_on_faces(solver._GraphData([g]), [0], [faces])
        assert value == vals[1] and np.array_equal(x, xs[1])

    def test_face_order_does_not_matter(self, monkeypatch):
        # no row's bits depend on its neighbours, so reversing each search's
        # faces changes no row, and the band picks the same point
        seen, best_on_faces = [], solver._best_on_faces

        def spy(data, graph, faces):
            found = best_on_faces(data, graph, faces)
            seen.append((data, graph, faces, list(found)))
            return found

        monkeypatch.setattr(solver, "_best_on_faces", spy)
        lagrangians(window_graphs(5))
        lagrangians(window_graphs(6))
        lagrangians(list(enumerate_left_compressed(8, 42)))
        for g in general_corpus(27, 40):
            lagrangian(g)
        monkeypatch.undo()
        searches = 0
        for data, graph, faces, found in seen:
            flipped = solver._best_on_faces(data, graph, [f[::-1] for f in faces])
            for got, ref in zip(flipped, found):
                assert (got is None) == (ref is None)
                if got is not None:
                    assert got[0] == ref[0] and np.array_equal(got[1], ref[1])
                    searches += 1
        assert searches > 150


class TestCoveredPrefixes:
    """A left-compressed graph solves only the prefix faces [r] ... [K], K
    the largest k for which {1, ..., r-2, k-1, k} is an edge: some optimal
    weighting has a support whose pairs all lie in edges (Frankl-Rodl), and
    sorted it is a prefix [k] that holds that edge."""

    @staticmethod
    def spy_faces(monkeypatch) -> list:
        seen, best_on_faces = [], solver._best_on_faces

        def spy(data, graph, faces):
            seen.append(faces)
            return best_on_faces(data, graph, faces)

        monkeypatch.setattr(solver, "_best_on_faces", spy)
        return seen

    def top_face(self, seen, g) -> int:
        seen.clear()
        lagrangian(g)
        # the graph's own search comes first; a cross-check search on its
        # supports follows it
        faces = seen[0][0]
        k = len(faces[-1])
        assert faces == [tuple(range(1, j + 1)) for j in range(g.r, k + 1)]
        return k

    @pytest.mark.parametrize("t", [6, 8])
    def test_colex_reaches_the_top_face_with_its_pair(self, monkeypatch, t):
        # the colex edges through t run {1,2,t}, {1,3,t}, {2,3,t}, ...; the
        # edge {1, t-1, t} comes after the C(t-2, 2) pairs inside [t-2]
        seen = self.spy_faces(monkeypatch)
        for j in range(1, comb(t - 2, 2) + 2):
            g = build_colex_graph(3, comb(t - 1, 3) + j)
            assert g.n == t
            assert self.top_face(seen, g) == (t - 1 if j <= comb(t - 2, 2) else t), j
        assert self.top_face(seen, RGraph.complete(3, t)) == t

    @pytest.mark.parametrize("r, n, words, top", [
        (2, 5, "12 13 23 14 24 15", 3),  # {3, 4} and {4, 5} are not edges
        (4, 6, "1234 1235 1245 1345 2345 1236 1246 1346", 5),  # {1, 2, 5, 6} is not
    ])
    def test_hand_picked_top_face(self, monkeypatch, r, n, words, top):
        g = graph_from_words(r, n, words)
        assert is_left_compressed(g)
        seen = self.spy_faces(monkeypatch)
        assert self.top_face(seen, g) == top
        res = lagrangian(g)
        assert res.certified and res.support <= top
        if r == 2:
            assert res.value == pytest.approx(lagrangian_2graph_oracle(g), abs=1e-15)

    def test_uncovered_faces_hold_no_higher_point(self, no_cross_check):
        # the oracle solves every prefix face [r] ... [active], the uncovered
        # ones included
        from laglab.hypergraph import compress

        rng = np.random.default_rng(12)
        cells = [list(enumerate_left_compressed(t, m))
                 for t in range(4, 8) for m in cell_window(t)]
        cells.append(list(enumerate_left_compressed(8, 35)))
        for r in (2, 4):
            for _ in range(40):
                n = int(rng.integers(r + 1, 9))
                g = compress(random_rgraph(rng, r, n, float(rng.uniform(0.2, 0.8))))
                if g.m:
                    cells.append([g])
        for graphs in cells:
            data = solver._GraphData(graphs)
            every = [[tuple(range(1, k + 1)) for k in range(data.r, int(act) + 1)]
                     for act in data.active.sum(axis=1)]
            found = solver._best_on_faces(data, range(len(graphs)), every)
            results = lagrangians(graphs)
            for g, res, (value, x) in zip(graphs, results, found):
                assert value <= res.value + 1e-15, sorted(g.edges)
                assert res.support == int((x > solver.POSITIVE_EPS).sum()), sorted(g.edges)
                assert kkt_check(g, res.weighting, res.value).pair_cover_ok
                w = np.array(res.weighting)
                assert (w[:res.support] > solver.POSITIVE_EPS).all()  # a prefix support

    def test_no_singular_newton_row(self, monkeypatch):
        # the faces above [K] hold a pair that no edge covers; solving them
        # left 15 singular Newton rows on the t = 7 window and 9 on (8, 35)
        unsolved, solve = [], solver._solve_rows

        def spy(jac, rhs):
            out, ok = solve(jac, rhs)
            unsolved.append(int((~ok).sum()))
            return out, ok

        monkeypatch.setattr(solver, "_solve_rows", spy)
        for m in cell_window(7):
            lagrangians(list(enumerate_left_compressed(7, m)))
        lagrangians(list(enumerate_left_compressed(8, 35)))
        assert unsolved and sum(unsolved) == 0


class TestStructuralInvariants:
    def test_subgraph_monotonicity(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(4, 8))
            g2 = random_rgraph(rng, 3, n, float(rng.uniform(0.3, 0.9)))
            if g2.m == 0:
                continue
            keep = [e for e in sorted(g2.edges) if rng.random() < 0.6]
            g1 = RGraph(3, n, frozenset(keep))
            v1 = lagrangian(g1).value
            v2 = lagrangian(g2).value
            assert v1 <= v2 + 1e-8

    def test_compress_never_lowers_value(self):
        from laglab.hypergraph import compress

        rng = np.random.default_rng(55)
        for _ in range(50):
            n = int(rng.integers(4, 8))
            g = random_rgraph(rng, 3, n, float(rng.uniform(0.2, 0.8)))
            c = compress(g)
            assert lagrangian(c).value >= lagrangian(g).value - 1e-8

    def test_permutation_invariance(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(4, 8))
            g = random_rgraph(rng, 3, n, 0.5)
            perm_vals = rng.permutation(n) + 1
            perm = {i + 1: int(perm_vals[i]) for i in range(n)}
            h = relabel(g, perm)
            assert abs(lagrangian(g).value - lagrangian(h).value) <= 1e-9

    def test_left_compressed_weightings_non_increasing(self):
        for m in range(1, 11):
            for g in enumerate_left_compressed(5, m):
                res = lagrangian(g)
                w = res.weighting
                assert all(w[i] >= w[i + 1] - 1e-12 for i in range(len(w) - 1))


class TestSymmetryClasses:
    @pytest.mark.parametrize("t", [4, 5, 6])
    def test_complete_graph_single_class(self, t):
        assert symmetry_classes(RGraph.complete(3, t)) == [list(range(1, t + 1))]

    def test_lemma35_classes(self):
        g = build_configuration(ConfigurationSpec("lemma3.5", 6))
        assert symmetry_classes(g) == [[1, 2], [3, 4, 5, 6]]

    def test_lemma33_a6_classes(self):
        # a = 6 needs t >= 8; classes are {1..t-5}, {t-4..t-1}, {t}
        g = build_configuration(ConfigurationSpec("lemma3.3", 8, a=6))
        assert symmetry_classes(g) == [[1, 2, 3], [4, 5, 6, 7], [8]]

    def test_refusal_on_uncompressed(self):
        g = RGraph.from_edges(3, [(1, 2, 3), (1, 2, 5)])
        with pytest.raises(ValueError):
            symmetry_classes(g)

    def test_lemma33_a6_weight_pattern(self):
        # weights group into the three classes (equality inside each class,
        # ordered across classes; the class values themselves may tie)
        g = build_configuration(ConfigurationSpec("lemma3.3", 8, a=6))
        res = lagrangian(g)
        w = res.weighting
        assert res.certified
        assert max(w[0:3]) - min(w[0:3]) <= 1e-8
        assert max(w[3:7]) - min(w[3:7]) <= 1e-8
        assert w[0] >= w[3] >= w[7] - 1e-12


class TestKKT:
    def test_complete_four_uniform(self):
        rep = kkt_check(RGraph.complete(3, 4), [0.25] * 4, 0.0625)
        assert rep.residual == pytest.approx(0.0, abs=1e-14)
        assert rep.pair_cover_ok
        assert rep.support == (1, 2, 3, 4)

    def test_single_edge(self):
        g = RGraph.from_edges(3, [(1, 2, 3)], n=4)
        rep = kkt_check(g, [1 / 3, 1 / 3, 1 / 3, 0.0], 1 / 27)
        assert rep.residual <= 1e-14
        assert rep.support == (1, 2, 3)

    @pytest.mark.parametrize("weight, support", [(1e-9, (1, 2, 3, 4)), (1e-12, (1, 2, 3))])
    def test_support_is_the_weights_above_positive_eps(self, weight, support):
        # POSITIVE_EPS (1e-10) lies between the two weights of vertex 4
        x = [(1 - weight) / 3] * 3 + [weight]
        assert kkt_check(RGraph.complete(3, 4), x, 1 / 27).support == support

    def test_link_excess_off_support(self):
        # a face point of K_4^(3): vertex 4's link 1/3 exceeds 3 * 1/27
        rep = kkt_check(RGraph.complete(3, 4), [1 / 3, 1 / 3, 1 / 3, 0.0], 1 / 27)
        assert rep.residual == 0.0
        assert rep.link_excess == pytest.approx(2 / 9, abs=1e-15)

    @pytest.mark.parametrize("kkt_tol", [1e-8, 1e-16])
    def test_report_agrees_with_certificate(self, monkeypatch, no_cross_check, kkt_tol):
        monkeypatch.setattr(solver, "KKT_TOL", kkt_tol)
        graphs = [RGraph.complete(3, 4), RGraph.from_edges(3, [(1, 2, 3)], n=4),
                  build_configuration(ConfigurationSpec("lemma3.5", 6))]
        graphs += [g for m in cell_window(5) for g in enumerate_left_compressed(5, m)]
        for g in graphs:
            res = lagrangian(g)
            rep = kkt_check(g, res.weighting, res.value)
            assert rep.residual == res.kkt_residual
            assert len(rep.support) == res.support
            assert (rep.residual <= kkt_tol and rep.link_excess <= kkt_tol) == res.certified

    def test_lemma35_eq2_holds_at_solver_output(self):
        g = build_configuration(ConfigurationSpec("lemma3.5", 6))
        res = lagrangian(g)
        rep = kkt_check(g, res.weighting, res.value)
        assert res.certified
        assert rep.eq2_residual is not None and rep.eq2_residual <= 1e-8

    def test_eq2_on_left_compressed_solves(self):
        for m in range(4, 11):
            for g in enumerate_left_compressed(5, m):
                res = lagrangian(g)
                rep = kkt_check(g, res.weighting, res.value)
                assert res.certified
                assert rep.eq2_residual <= 1e-8


class TestOptionsAndDeterminism:
    def test_impossible_kkt_tol_flags_uncertified(self, monkeypatch):
        monkeypatch.setattr(solver, "KKT_TOL", -1.0)
        res = lagrangian(RGraph.complete(3, 5))
        assert not res.certified
        assert res.notes

    def test_same_seed_same_result(self):
        g = random_rgraph(np.random.default_rng(9), 3, 7, 0.5)
        a = lagrangian(g)
        b = lagrangian(g)
        assert a == b

    def test_different_seed_same_value(self):
        g = random_rgraph(np.random.default_rng(9), 3, 7, 0.5)
        a = lagrangian(g, SolverOptions(seed=1))
        b = lagrangian(g, SolverOptions(seed=2))
        assert abs(a.value - b.value) <= 1e-9
        # the prefix route of a left-compressed graph draws no random starts
        g = build_colex_graph(3, 17)
        assert lagrangian(g, SolverOptions(seed=1)) == lagrangian(g, SolverOptions(seed=2))

    def test_json_fields(self):
        doc = asdict(lagrangian(RGraph.complete(3, 4)))
        assert set(doc) == {
            "value", "weighting", "support", "kkt_residual", "method", "certified", "notes",
        }
