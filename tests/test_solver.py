"""Lagrangian solver: values, stationarity, oracles, invariances."""

import warnings
from itertools import combinations
from math import comb

import numpy as np
import pytest

from laglab import solver
from laglab.hypergraph import RGraph, build_colex_graph, enumerate_left_compressed
from laglab.solver import (
    SolverOptions,
    check_legal_weighting,
    clique_number,
    evaluate,
    kkt_check,
    lagrangian,
    lagrangian_2graph_oracle,
    link_value,
    link_values,
    support_enumeration,
    symmetry_classes,
)
from laglab.verifier import ConfigurationSpec, build_configuration, cell_window
from oracles import clique_number_bruteforce, fd_gradient, grid_max, random_rgraph

FIVE_CYCLE = RGraph.from_edges(2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


def graph_from_words(r, n, words):
    """An r-graph on [n] from edges written as digit strings, e.g. "123 124"."""
    return RGraph.from_edges(r, [tuple(int(c) for c in w) for w in words.split()], n=n)


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
        res = lagrangian(RGraph(3, 4, frozenset()))
        assert res.value == 0.0
        assert res.support == 0
        assert res.certified
        assert res.weighting == (0.25, 0.25, 0.25, 0.25)

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

    def test_agrees_with_solver_on_all_small_graphs(self):
        # every 3-graph on [5]; the explicit comparison below is the cross
        # check, so the solver-internal one is switched off
        opts = SolverOptions(cross_check=False)
        triples = list(combinations(range(1, 6), 3))
        for mask in range(1, 1 << 10):
            edges = [e for k, e in enumerate(triples) if mask >> k & 1]
            g = RGraph.from_edges(3, edges, n=5)
            a = lagrangian(g, opts)
            b = support_enumeration(g)
            assert abs(a.value - b.value) <= 1e-8, sorted(g.edges)


class TestPrefixRoute:
    def test_agrees_with_support_enumeration_on_t7_window(self):
        # the built-in cross-check skips these graphs (7 active vertices)
        for m in cell_window(7):
            for g in enumerate_left_compressed(7, m):
                a = lagrangian(g, SolverOptions(cross_check=False))
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

    def test_first_order_condition_refuses_a_face_optimum(self, monkeypatch):
        # on the face [3] alone, K_4^(3) stops at 1/27 while vertex 4 has
        # link 1/3 > 3 * 1/27; only the first-order condition can catch it
        # once the cross-check is off
        best_on_faces = solver._best_on_faces
        monkeypatch.setattr(solver, "_best_on_faces",
                            lambda data, faces: best_on_faces(data, faces[:1]))
        res = lagrangian(RGraph.complete(3, 4), SolverOptions(cross_check=False))
        assert res.value == pytest.approx(1 / 27, abs=1e-15)
        assert res.kkt_residual <= 1e-14
        assert not res.certified
        assert res.notes


class TestMultistartRoute:
    # at the given seed each graph ends below its optimum, flagged
    # uncertified, when the multistart route tries fewer faces: without the
    # peel chain (one-vertex-peel), with a chain of one step
    # (two-vertex-peel), or from the best ascent end point alone
    # (second-end-point)
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
        pytest.param(2, 7, "12 13 15 24 26 27 34 36 37 46 67",
                     solver.DEFAULT_SEED, 1 / 3, 3, id="second-end-point"),
    ])
    def test_finds_the_optimal_face(self, r, n, words, seed, value, support):
        g = graph_from_words(r, n, words)
        res = lagrangian(g, SolverOptions(seed=seed, cross_check=False))
        se = support_enumeration(g)
        assert res.method == "multistart_gradient"
        assert res.certified
        assert se.value == pytest.approx(value, abs=1e-15)
        assert abs(res.value - se.value) <= 1e-12
        assert res.support == se.support == support

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

    def test_face_solve_drops_a_vertex_that_blocks_every_step(self):
        # on the face [8], every damped Newton step would push the weight of
        # vertex 8 below zero; dropping it leads to the optimum on [7]
        g = graph_from_words(4, 8, "1235 1236 1237 1238 1245 1247 1248 1257 1267 "
                                   "1356 1357 1578 2345 2346 2378 2456 2678 3467 "
                                   "3468 3567 3578 4567 4578 4678")
        found = solver._best_on_faces(solver._GraphData(g), [tuple(range(1, 9))])
        se = support_enumeration(g)
        assert found is not None
        assert abs(found[0] - se.value) <= 1e-12
        assert found[1][7] == 0.0


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
            h = g.relabel(perm)
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
    def test_impossible_kkt_tol_flags_uncertified(self):
        res = lagrangian(RGraph.complete(3, 5), SolverOptions(kkt_tol=-1.0))
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
        doc = lagrangian(RGraph.complete(3, 4)).as_json_dict()
        assert set(doc) == {
            "value", "weighting", "support", "kkt_residual", "method", "certified",
        }
