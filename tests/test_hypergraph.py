"""Combinatorial core: colex order, graphs, links, compression, poset."""

import copy
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from functools import cmp_to_key
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

import laglab
import laglab.verifier as verifier
from laglab import hypergraph
from laglab.hypergraph import (
    EdgeListParseError,
    RGraph,
    UniformityError,
    ancestors,
    as_edge,
    build_colex_graph,
    colex_rank,
    colex_unrank,
    complement,
    compress,
    count_left_compressed,
    descendants,
    difference_link,
    direct_descendants,
    enumerate_left_compressed,
    is_left_compressed,
    link,
    parse_edge_list,
    serialize_edge_list,
)
from laglab.verifier import cell_window, verify_cell
from oracles import (
    colex_compare,
    downset_filter_count,
    downset_masks_unpruned,
    is_down_closed,
    pair_link,
    random_rgraph,
)

SRC = str(Path(laglab.__file__).resolve().parent.parent)
DIGEST = json.loads((Path(__file__).parent / "cell_digest.json").read_text())["cells"]


def mask_of(g: RGraph) -> int:
    """The rank bitmask of an enumerated graph's down-set, read from its picks."""
    return int.from_bytes(g._picks, "little")


def window_count_and_graph_size(t: int) -> tuple[int, int]:
    """The graph count of the t window and the bytes its state graph keeps
    (tracemalloc), the graph built afresh."""
    hypergraph._triple_poset(t)
    hypergraph._state_graph.cache_clear()
    tracemalloc.start()
    try:
        total = sum(count_left_compressed(t, m) for m in cell_window(t))
        return total, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


# the first 21 triples in colex order
COLEX_LISTING = [
    (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5),
    (2, 3, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5), (1, 2, 6), (1, 3, 6),
    (2, 3, 6), (1, 4, 6), (2, 4, 6), (3, 4, 6), (1, 5, 6), (2, 5, 6),
    (3, 5, 6), (4, 5, 6), (1, 2, 7),
]


class TestColexOrder:
    def test_compare_examples(self):
        assert colex_compare((2, 4, 6), (1, 5, 6)) == -1
        assert colex_compare((1, 2, 3), (1, 2, 3)) == 0
        assert colex_compare((3, 4, 5), (1, 2, 6)) == -1
        assert colex_compare((1, 5, 6), (2, 4, 6)) == 1

    def test_compare_matches_symmetric_difference_definition(self):
        triples = list(combinations(range(1, 7), 3))
        for a in triples:
            for b in triples:
                if a == b:
                    continue
                expected = -1 if max(set(a) ^ set(b)) in b else 1
                assert colex_compare(a, b) == expected

    def test_compare_uniformity_error(self):
        with pytest.raises(UniformityError):
            colex_compare((1, 2, 3), (1, 2))

    def test_rank_examples(self):
        assert colex_rank((1, 2, 3)) == 0
        assert colex_rank((4, 5, 6)) == 19
        assert colex_rank((1, 2, 7)) == 20

    def test_unrank_examples(self):
        assert colex_unrank(3, 0) == (1, 2, 3)
        assert colex_unrank(3, 19) == (4, 5, 6)
        assert colex_unrank(3, 7) == (1, 4, 5)

    def test_listing_ranks(self):
        for k, e in enumerate(COLEX_LISTING):
            assert colex_rank(e) == k
            assert colex_unrank(3, k) == e

    def test_rank_bijection_first_10000(self):
        triples = [colex_unrank(3, k) for k in range(10_000)]
        assert len(set(triples)) == 10_000
        assert [colex_rank(e) for e in triples] == list(range(10_000))
        resorted = sorted(triples, key=cmp_to_key(colex_compare))
        assert resorted == triples

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_unrank_roundtrip(self, r):
        for k in range(300):
            assert colex_rank(colex_unrank(r, k)) == k

    def test_unrank_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="uniformity must be >= 1, got 0"):
            colex_unrank(0, 0)
        with pytest.raises(ValueError, match="rank must be non-negative, got -1"):
            colex_unrank(3, -1)


class TestRGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            RGraph(3, 4, frozenset({(1, 2, 5)}))  # vertex above n
        with pytest.raises(UniformityError):
            RGraph(3, 4, frozenset({(1, 2)}))
        with pytest.raises(ValueError):
            as_edge((2, 2, 3))
        with pytest.raises(ValueError):
            RGraph(1, 4)
        with pytest.raises(ValueError, match="edge must be non-empty"):
            as_edge(())
        with pytest.raises(ValueError, match="vertex bound must be >= 0, got -1"):
            RGraph(3, -1)

    @pytest.mark.parametrize("vertices, bad", [
        ((1, 2.5, 3), "2.5"), (("1", "2", "3"), "'1'"), ((1.5, 2, 3), "1.5")])
    def test_edge_vertices_must_be_integers(self, vertices, bad):
        # int() would take 2.5 as 2 and '1' as 1
        with pytest.raises(ValueError, match=f"vertex {bad} is not an integer"):
            as_edge(vertices)
        with pytest.raises(ValueError, match=f"vertex {bad} is not an integer"):
            RGraph.from_edges(3, [vertices])
        assert as_edge(np.array([1, 2, 3])) == (1, 2, 3)  # integer types convert

    @pytest.mark.parametrize("edges, bad", [
        ({(1, 2, 3.0)}, "3.0"), ({(True, 2, 4)}, "True"), ({("1", "2", "3")}, "'1'"),
        ({(1.5, 2, 3)}, "1.5")])
    def test_graph_vertices_must_be_ints(self, edges, bad):
        # (1, 2, 3.0) == (1, 2, 3) and (True, 2, 4) == (1, 2, 4), so such an
        # edge passes as a known one unless its vertices are checked
        RGraph(3, 4, frozenset({(1, 2, 3), (1, 2, 4)}))
        with pytest.raises(ValueError, match=f"vertex {bad} is not an int"):
            RGraph(3, 4, frozenset(edges))

    def test_known_edge_is_still_checked(self):
        # (1, 2, 5) passes on n = 5, then must still fail where it is invalid
        assert RGraph(3, 5, frozenset({(1, 2, 5)})).m == 1
        with pytest.raises(ValueError, match="exceeds vertex bound"):
            RGraph(3, 4, frozenset({(1, 2, 5)}))
        with pytest.raises(UniformityError):
            RGraph(4, 5, frozenset({(1, 2, 5)}))

    def test_graph_of_known_edges_still_checks_the_vertex_bound(self):
        # every edge of K_6^(3) is known, so only the bound can reject it
        edges = RGraph.complete(3, 6).edges
        assert RGraph(3, 6, edges).m == 20
        with pytest.raises(ValueError, match="exceeds vertex bound n=5"):
            RGraph(3, 5, edges)

    def test_known_edges_are_known_per_vertex_bound(self):
        # (1, 2, 10) passes on [10]; a table keyed by r alone would then let
        # it onto [9], where (3, 9) has a table entry of its own
        RGraph.complete(3, 10)
        RGraph(3, 9, frozenset({(1, 2, 3)}))
        with pytest.raises(ValueError, match="exceeds vertex bound n=9"):
            RGraph(3, 9, frozenset({(1, 2, 3), (1, 2, 10)}))

    def test_kept_order_is_not_a_field(self):
        g = next(enumerate_left_compressed(6, 12))
        h = RGraph(g.r, g.n, g.edges)
        assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
        assert asdict(g) == asdict(h) == {"r": 3, "n": 6, "edges": g.edges}
        assert g.__reduce__() == h.__reduce__() == (RGraph, (3, 6, g.edges))
        edges = g.sorted_edges()
        edges.reverse()  # a fresh list: the graph's order stays as it was
        assert g.sorted_edges() == h.sorted_edges() == edges[::-1]

    @pytest.mark.parametrize("t", range(4, 10))
    def test_kept_order_matches_rebuilt_and_unpickled_graphs(self, t):
        # every m of t <= 7: the empty and complete graphs, picks of all-edge
        # bytes, and last bytes with 4, 2, 4 and 3 ranks in use
        for m in range(comb(t, 3) + 1) if t <= 7 else cell_window(t):
            for g in enumerate_left_compressed(t, m):
                want = (g.sorted_edges(), g.colex_ranks(), serialize_edge_list(g),
                        is_left_compressed(g))
                for h in (RGraph(3, t, frozenset(g.edges)), pickle.loads(pickle.dumps(g))):
                    assert h == g
                    assert (h.sorted_edges(), h.colex_ranks(), serialize_edge_list(h),
                            is_left_compressed(h)) == want

    def test_enumerated_graphs_are_trusted_as_built(self, monkeypatch):
        for t in (8, 10):  # a poset lists direct descendants once, when first built
            count_left_compressed(t, comb(t, 3))
        calls = []
        post_init, down = RGraph.__post_init__, hypergraph._direct_down
        monkeypatch.setattr(RGraph, "__post_init__",
                            lambda g: calls.append(("validate", g)) or post_init(g))
        # is_left_compressed reads each edge's steps through the cached helper
        monkeypatch.setattr(hypergraph, "_direct_down",
                            lambda e: calls.append(("retest", e)) or down(e))
        graphs = []

        def enumerate_and_keep(t, m):
            for g in enumerate_left_compressed(t, m):
                graphs.append(g)
                yield g

        monkeypatch.setattr(verifier, "enumerate_left_compressed", enumerate_and_keep)
        assert verify_cell(8, 35).all_pass
        cell = list(enumerate_left_compressed(10, 100))
        texts = [serialize_edge_list(g) for g in cell]
        assert count_left_compressed(10, 100) == len(cell)
        graphs += cell
        assert calls == []
        assert not any("edges" in vars(g) for g in graphs)
        # a counted, enumerated and serialized graph holds only its picks
        assert not any(g._order is not None for g in cell)
        monkeypatch.undo()
        for g in cell:
            h = RGraph(3, 10, g.edges)
            assert (g.sorted_edges(), g.colex_ranks(), g.m) == (
                h.sorted_edges(), h.colex_ranks(), h.m)
        for g in graphs:
            h = RGraph(3, g.n, g.edges)  # the first access builds g's edge set
            assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
            assert asdict(g) == asdict(h) and g.__reduce__() == h.__reduce__()
            assert pickle.loads(pickle.dumps(g)) == h
        assert texts == [serialize_edge_list(RGraph(3, 10, frozenset(g.sorted_edges())))
                         for g in cell]

    @pytest.mark.parametrize("bad", [(2, 1, 3), (0, 1, 2), (1, 1, 2)])
    def test_malformed_edges_rejected_before_and_after_valid_graphs(self, bad):
        with pytest.raises(ValueError):
            RGraph(3, 5, frozenset({bad}))
        RGraph(3, 5, frozenset(combinations(range(1, 6), 3)))
        with pytest.raises(ValueError):
            RGraph(3, 5, frozenset({bad, (1, 2, 3)}))
        with pytest.raises(ValueError):
            RGraph(3, 5, frozenset({bad}))

    def test_unpickled_graph_serializes_in_a_fresh_process(self, tmp_path):
        g = RGraph.from_edges(3, [(1, 2, 3), (2, 5, 9)])
        path = tmp_path / "g.pickle"
        path.write_bytes(pickle.dumps(g))
        code = ("import pickle, sys; from pathlib import Path; "
                "from laglab.hypergraph import serialize_edge_list; "
                "sys.stdout.write(serialize_edge_list(pickle.loads(Path(sys.argv[1]).read_bytes())))")
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == serialize_edge_list(g) == "3 9 2\n1 2 3\n2 5 9\n"
        assert copy.deepcopy(g) == g

    def test_table_built_graphs_serialize_in_a_fresh_process(self):
        # no other graph is built first, so only the tables behind these
        # graphs can have entered their edges' ranks; the t = 9 graph's 84
        # picks end in a short byte, which holds ranks 80 and 81
        code = ("from laglab.hypergraph import *\n"
                "for g in (build_colex_graph(3, 20), build_colex_graph(4, 12),\n"
                "          next(enumerate_left_compressed(7, 30)),\n"
                "          list(enumerate_left_compressed(9, 80))[-1]):\n"
                "    print(repr((serialize_edge_list(g), g.colex_ranks())))\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        graphs = (build_colex_graph(3, 20), build_colex_graph(4, 12),
                  next(enumerate_left_compressed(7, 30)),
                  list(enumerate_left_compressed(9, 80))[-1])
        assert graphs[-1]._picks[-1] == 0b11
        assert out == "".join(f"{(serialize_edge_list(g), sorted(map(colex_rank, g.edges)))!r}\n"
                              for g in graphs)

    def test_from_edges_infers_n(self):
        g = RGraph.from_edges(3, [(1, 2, 5)])
        assert g.n == 5 and g.m == 1

    def test_canonical_hash_is_stable(self):
        g1 = RGraph.from_edges(3, [(1, 2, 3), (1, 2, 4)])
        g2 = RGraph.from_edges(3, [(1, 2, 4), (1, 2, 3)])
        assert g1.canonical_hash() == g2.canonical_hash()

    @pytest.mark.parametrize("g, text, digest", [
        (build_colex_graph(3, 10), b"3 5 10:0,1,2,3,4,5,6,7,8,9", 0x98CCD3FE9DB1FCCC),
        (RGraph.from_edges(3, [(1, 2, 3), (2, 5, 9), (4, 6, 7)], n=10),
         b"3 10 3:0,33,63", 0xD970D020EE68F96E),
        (RGraph.complete(2, 4).with_n(6), b"2 6 6:0,1,2,3,4,5", 0x20364AABB80241C2),
        (RGraph.from_edges(4, [(1, 2, 3, 4), (1, 2, 3, 5), (2, 3, 4, 5)]),
         b"4 5 3:0,1,4", 0x5896210B24D38616),
        (RGraph(3, 0, frozenset()), b"3 0 0:", 0x5819490DCF2D3EFF),
    ])
    def test_canonical_hash_is_pinned(self, g, text, digest):
        # the hash seeds the multistart generator, so it must never move
        assert g.canonical_bytes() == text
        assert g.canonical_hash() == digest


class TestColexGraphs:
    def test_first_four_triples_are_complete_graph(self):
        g = build_colex_graph(3, 4)
        assert g.edges == RGraph.complete(3, 4).edges
        assert g.n == 4

    def test_empty(self):
        g = build_colex_graph(3, 0)
        assert g.m == 0 and g.n == 0

    def test_five_edges(self):
        g = build_colex_graph(3, 5)
        assert g.edges == RGraph.complete(3, 4).edges | {(1, 2, 5)}

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="edge count must be >= 0, got -1"):
            build_colex_graph(3, -1)
        with pytest.raises(ValueError, match="uniformity must be >= 2, got 1"):
            build_colex_graph(1, 3)

    @pytest.mark.parametrize("r", [2, 3, 4])
    @pytest.mark.parametrize("t", [3, 4, 5, 6, 7, 8])
    def test_binomial_prefix_is_complete(self, r, t):
        if t < r:
            pytest.skip("no complete graph below uniformity")
        g = build_colex_graph(r, comb(t, r))
        assert g.edges == RGraph.complete(r, t).edges

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_listing_equals_unranking(self, r):
        # build_colex_graph lists the first m r-sets without unranking them
        for m in range(301):
            g, edges = build_colex_graph(r, m), [colex_unrank(r, k) for k in range(m)]
            assert g == RGraph.from_edges(r, edges)
            assert g.sorted_edges() == edges


class TestComplementAndLinks:
    def test_complement_complete(self):
        assert complement(RGraph.complete(3, 4)).m == 0

    def test_complement_empty(self):
        assert complement(RGraph(3, 4, frozenset())).m == 4

    def test_complement_c19_on_six(self):
        g = build_colex_graph(3, 19).with_n(6)
        expected = set(combinations(range(1, 7), 3)) - set(g.edges)
        assert complement(g).edges == frozenset(expected) == {(4, 5, 6)}

    def test_link(self):
        assert link(RGraph.complete(3, 3), 1) == {(2, 3)}

    def test_pair_link(self):
        assert pair_link(RGraph.complete(3, 4), 1, 2) == {(3,), (4,)}

    def test_difference_link(self):
        g = RGraph.from_edges(3, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5)])
        assert difference_link(g, 1, 4) == {(2, 5)}

    def test_link_out_of_range(self):
        with pytest.raises(ValueError):
            link(RGraph.complete(3, 3), 4)


class TestLeftCompression:
    def test_colex_graphs_left_compressed(self):
        for m in range(36):
            g = build_colex_graph(3, m)
            assert is_left_compressed(g)
            assert is_down_closed(g)

    def test_missing_descendant(self):
        g = RGraph.from_edges(3, [(1, 2, 3), (1, 2, 5)])
        assert not is_left_compressed(g)

    def test_empty_graph_vacuous(self):
        assert is_left_compressed(RGraph(3, 4, frozenset()))

    def test_shift_and_descendant_criteria_agree_exhaustively(self):
        # every edge set on [5] (and [4])
        for t in (4, 5):
            triples = list(combinations(range(1, t + 1), 3))
            for mask in range(1 << len(triples)):
                edges = [e for k, e in enumerate(triples) if mask >> k & 1]
                g = RGraph.from_edges(3, edges, n=t)
                assert is_left_compressed(g) == is_down_closed(g)

    def test_compress_fixpoint(self):
        g = build_colex_graph(3, 7)
        assert compress(g).edges == g.edges

    def test_compress_single_edge(self):
        assert compress(RGraph.from_edges(3, [(1, 2, 5)])).edges == {(1, 2, 3)}

    def test_compress_three_edges(self):
        g = RGraph.from_edges(3, [(1, 3, 4), (2, 3, 4), (1, 2, 5)])
        out = compress(g)
        assert out.m == 3
        assert is_left_compressed(out)
        assert out.edges == {(1, 2, 3), (1, 2, 4), (1, 2, 5)}

    def test_compress_idempotent_preserves_edges(self):
        rng = np.random.default_rng(20260810)
        for _ in range(1000):
            n = int(rng.integers(4, 8))
            g = random_rgraph(rng, 3, n, float(rng.uniform(0.1, 0.9)))
            c = compress(g)
            assert c.m == g.m
            assert is_left_compressed(c)
            assert compress(c).edges == c.edges


class TestDescendantPoset:
    def test_minimal_element(self):
        assert descendants((1, 2, 3)) == frozenset()

    def test_direct_descendants(self):
        assert direct_descendants((1, 2, 5)) == {(1, 2, 4)}
        assert direct_descendants((1, 2, 3)) == frozenset()

    def test_descendants_match_bruteforce(self):
        for e in [(2, 4, 6), (1, 3, 7), (3, 5, 6)]:
            brute = {
                c
                for c in combinations(range(1, max(e) + 1), 3)
                if all(a <= b for a, b in zip(c, e)) and sum(c) < sum(e)
            }
            assert descendants(e) == brute

    def test_ancestors_at_t7(self):
        anc = ancestors((4, 5, 7), within=7)
        assert (4, 5, 6) not in anc
        assert (5, 6, 7) in anc
        brute = {
            c
            for c in combinations(range(1, 8), 3)
            if all(a >= b for a, b in zip(c, (4, 5, 7))) and sum(c) > 16
        }
        assert anc == brute
        with pytest.raises(ValueError, match=r"edge \(4, 5, 7\) exceeds bound 6"):
            ancestors((4, 5, 7), within=6)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_descendants_are_the_closure_of_direct_descendants(self, r):
        for e in combinations(range(1, 8), r):
            closure, frontier = set(), set(direct_descendants(e))
            while frontier:
                closure |= frontier
                frontier = set().union(*map(direct_descendants, frontier)) - closure
            assert descendants(e) == closure, e

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_ancestors_invert_descendants(self, r):
        down = {f: descendants(f) for f in combinations(range(1, 10), r)}
        for e in combinations(range(1, 8), r):
            anc = ancestors(e, 9)
            for f, below in down.items():
                assert (f in anc) == (e in below), (e, f)

    def test_direct_descendants_are_descendants_with_sum_gap_one(self):
        for e in combinations(range(1, 8), 3):
            dd = direct_descendants(e)
            assert dd == {d for d in descendants(e) if sum(d) == sum(e) - 1}


class TestEnumeration:
    def test_unique_four_edge_downset(self):
        graphs = list(enumerate_left_compressed(4, 4))
        assert len(graphs) == 1
        assert graphs[0].edges == RGraph.complete(3, 4).edges

    def test_unique_single_edge(self):
        graphs = list(enumerate_left_compressed(5, 1))
        assert len(graphs) == 1
        assert graphs[0].edges == {(1, 2, 3)}

    @pytest.mark.parametrize("t", [4, 5])
    def test_counts_match_filter_oracle(self, t):
        for m in range(comb(t, 3) + 1):
            assert count_left_compressed(t, m) == downset_filter_count(t, m)

    def test_all_yielded_are_left_compressed_and_unique(self):
        for m in range(11):
            graphs = list(enumerate_left_compressed(5, m))
            assert len({g.edges for g in graphs}) == len(graphs)
            assert all(is_left_compressed(g) for g in graphs)
            assert len(graphs) == count_left_compressed(5, m)

    def test_removing_maximal_edge_stays_in_class(self):
        for m in range(1, 11):
            for g in enumerate_left_compressed(5, m):
                maximal = [
                    e for e in g.edges
                    if not any(e in descendants(f) for f in g.edges if f != e)
                ]
                assert maximal
                for e in maximal:
                    smaller = RGraph(3, 5, g.edges - {e})
                    assert is_left_compressed(smaller)
                    assert smaller.m == m - 1

    @pytest.mark.parametrize("t", range(3, 9))
    def test_pruned_search_matches_unpruned_order(self, t):
        for m in range(comb(t, 3) + 1):
            assert list(map(mask_of, enumerate_left_compressed(t, m))) == list(
                downset_masks_unpruned(t, m))

    @pytest.mark.parametrize("t", range(3, 9))
    def test_count_matches_search(self, t):
        # the count reads the states' leaf counts, never the masks themselves
        for m in range(comb(t, 3) + 1):
            assert count_left_compressed(t, m) == sum(1 for _ in enumerate_left_compressed(t, m))

    def test_shared_states_leak_nothing_between_cells(self):
        # one state graph per t serves every cell on [t]: cells taken in
        # falling m order, with counts of cells on other t in between, still
        # give the unpruned search's masks
        hypergraph._state_graph.cache_clear()
        others = iter([*((8, m) for m in cell_window(8)), *((9, m) for m in cell_window(9))])
        for t in (7, 8):
            for m in reversed(cell_window(t)):
                masks = list(map(mask_of, enumerate_left_compressed(t, m)))
                assert masks == list(downset_masks_unpruned(t, m)), (t, m)
                assert count_left_compressed(t, m) == len(masks)
                u, k = next(others)
                assert count_left_compressed(u, k) == DIGEST[f"{u},{k}"]["graph_count"]

    def test_window_states_are_worked_out_once(self, monkeypatch):
        # a deterministic work count: the states behind all 37 cells of the
        # t = 10 window, none of which enumerating the window works out again
        hypergraph._state_graph.cache_clear()
        counts = [count_left_compressed(10, m) for m in cell_window(10)]
        assert len(hypergraph._state_graph(10)) == 1252
        worked_out, missing = [], hypergraph._StateGraph.__missing__
        monkeypatch.setattr(hypergraph._StateGraph, "__missing__",
                            lambda graph, state: worked_out.append(state) or missing(graph, state))
        assert [sum(1 for _ in enumerate_left_compressed(10, m))
                for m in cell_window(10)] == counts
        assert worked_out == []
        assert len(hypergraph._state_graph(10)) == 1252

    @pytest.mark.parametrize("t, m, message", [
        (2, 0, "need t >= 3, got 2"),
        (5, -1, "need 0 <= m <= C(5,3)=10, got -1"),
        (5, 11, "need 0 <= m <= C(5,3)=10, got 11"),
    ])
    def test_bad_cell_raises_and_leaves_no_state(self, t, m, message):
        hypergraph._state_graph.cache_clear()
        for search in (count_left_compressed, lambda t, m: next(enumerate_left_compressed(t, m))):
            with pytest.raises(ValueError) as err:
                search(t, m)
            assert str(err.value) == message
        assert hypergraph._state_graph.cache_info().currsize == 0

    @pytest.mark.parametrize("t", range(4, 10))
    def test_picks_are_packed_rank_bits(self, t):
        # C(t,3) bits in whole bytes, bit k & 7 of byte k >> 3 for rank k
        width = (comb(t, 3) + 7) // 8
        for m in range(comb(t, 3) + 1):
            for g in enumerate_left_compressed(t, m):
                assert len(g._picks) == width
                bits = [k for k in range(8 * width) if g._picks[k >> 3] >> (k & 7) & 1]
                assert bits == RGraph(3, t, g.edges).colex_ranks()

    @pytest.mark.parametrize("t", [9, 10])
    def test_counts_match_digest(self, t):
        for m in cell_window(t):
            assert count_left_compressed(t, m) == DIGEST[f"{t},{m}"]["graph_count"]

    def test_t11_window_total(self):
        assert sum(count_left_compressed(11, m) for m in cell_window(11)) == 102_278

    def test_t12_window_total(self):
        assert sum(count_left_compressed(12, m) for m in cell_window(12)) == 691_348

    def test_t12_state_graph_size(self):
        # what the state graph keeps after the window count: 2.2 MB in a
        # fresh process, where one (rank, child) pair per child kept 5.0 MB;
        # tuples taken from the interpreter's free lists escape tracemalloc,
        # so after other tests it reads lower (1.5 MB in tier-1)
        total, size = window_count_and_graph_size(12)
        assert total == 691_348
        assert 1e6 < size < 2.6e6

    def test_t13_window_total(self):
        assert sum(count_left_compressed(13, m) for m in cell_window(13)) == 5_079_445

    @pytest.mark.slow
    def test_t14_window_total(self):
        # 13.8 MB kept, where one (rank, child) pair per child kept 49 MB
        total, size = window_count_and_graph_size(14)
        assert total == 40_291_801
        assert size < 16e6

    @pytest.mark.parametrize("t", [4, 5, 6])
    def test_colex_graph_enumerated(self, t):
        for m in range(comb(t - 1, 3) + 1, comb(t, 3) + 1):
            target = build_colex_graph(3, m).edges
            assert any(
                g.edges == target for g in enumerate_left_compressed(t, m)
            )


class TestEdgeListFormat:
    def test_roundtrip_bit_exact(self):
        g = build_colex_graph(3, 7)
        text = serialize_edge_list(g)
        assert text == "3 5 7\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n1 2 5\n1 3 5\n2 3 5\n"
        back = parse_edge_list(text)
        assert back == g
        assert serialize_edge_list(back) == text

    def test_t9_window_serializes_to_pinned_bytes(self):
        # every text of the window as one table lookup per picks byte wrote it
        texts = [serialize_edge_list(g) for m in cell_window(9)
                 for g in enumerate_left_compressed(9, m)]
        assert len(texts) == 2974
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
            "60ea54b9be02e42331ebda0ff2ad5e54f2f2338417ae901134b6665c44ae1c20")

    def test_cell_10_100_serializes_to_pinned_bytes(self):
        # the (10, 100) entry of the benchmark reference
        texts = [serialize_edge_list(g) for g in enumerate_left_compressed(10, 100)]
        blob = "".join(texts).encode()
        assert (len(texts), len(blob)) == (218, 137_203)
        assert hashlib.sha256(blob).hexdigest() == (
            "d78b215b01ef3cfbf1881be572ba78e437d480961c7d5eb94f5c7657ac49593e")

    def test_roundtrip_random(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            g = random_rgraph(rng, 3, int(rng.integers(4, 8)), 0.5)
            assert parse_edge_list(serialize_edge_list(g)) == g

    def test_parse_errors_report_location(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            parse_edge_list("")
        with pytest.raises(EdgeListParseError, match="line 1"):
            parse_edge_list("3 x 1\n1 2 3\n")
        for head, count in (("3 5", 2), ("3 5 1 0", 4)):
            with pytest.raises(EdgeListParseError, match=(
                    f"line 1, column 1: header must be 'r n m', got {count} fields")):
                parse_edge_list(f"{head}\n1 2 3\n")
        with pytest.raises(EdgeListParseError, match="line 2, column 3"):
            parse_edge_list("3 5 1\n1 q 3\n")
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("3 5 1\n1 2\n")
        with pytest.raises(EdgeListParseError, match="exceeds n"):
            parse_edge_list("3 4 1\n1 2 5\n")
        with pytest.raises(EdgeListParseError, match="duplicate"):
            parse_edge_list("3 5 2\n1 2 3\n1 2 3\n")
        with pytest.raises(EdgeListParseError, match="announced"):
            parse_edge_list("3 5 3\n1 2 3\n")
        # a duplicate is reported at its own line, a vertex above n or out of
        # order at its own token
        with pytest.raises(EdgeListParseError, match="line 3, column 1: duplicate"):
            parse_edge_list("3 5 3\n1 2 3\n1 2 3\n1 2 4\n")
        with pytest.raises(EdgeListParseError, match="line 2, column 5: vertex 5 exceeds n=4"):
            parse_edge_list("3 4 1\n1 2 5\n")
        with pytest.raises(EdgeListParseError, match="line 2, column 3: vertex 5 exceeds n=4"):
            parse_edge_list("3 4 1\n1 5 6\n")
        with pytest.raises(EdgeListParseError, match="line 2, column 5: .*strictly increasing"):
            parse_edge_list("3 9 1\n1 3 3\n")
        with pytest.raises(EdgeListParseError, match="line 2, column 5: .*strictly increasing"):
            parse_edge_list("3 9 1\n 2  1 4\n")
        with pytest.raises(EdgeListParseError, match="line 2, column 1: .*1-based"):
            parse_edge_list("3 9 1\n0 3 4\n")
        # only ASCII digits: underscores and signs would not round-trip
        with pytest.raises(EdgeListParseError, match="line 1, column 3"):
            parse_edge_list("3 1_0 1\n+1 2 3\n")
        with pytest.raises(EdgeListParseError, match="line 2, column 1"):
            parse_edge_list("3 10 1\n+1 2 3\n")
        with pytest.raises(EdgeListParseError, match="line 1, column 1"):
            parse_edge_list("1 4 0\n")
        with pytest.raises(EdgeListParseError, match="line 1, column 3"):
            parse_edge_list("3 -1 0\n")
        # leading zeros would not round-trip either; columns point at the
        # token itself, not at an earlier token that contains it
        with pytest.raises(EdgeListParseError, match="line 1, column 3"):
            parse_edge_list("3 05 1\n1 2 3\n")
        with pytest.raises(EdgeListParseError, match="line 1, column 1"):
            parse_edge_list("03 4 1\n1 2 3\n")
        with pytest.raises(EdgeListParseError, match="line 2, column 5"):
            parse_edge_list("3 5 1\n1 2 05\n")
        with pytest.raises(EdgeListParseError, match="line 2, column 8"):
            parse_edge_list("3 2000 1\n1 1010 010\n")
        # a lone zero is canonical, and edges out of colex order are accepted
        assert parse_edge_list("3 0 0\n") == RGraph(3, 0, frozenset())
        assert parse_edge_list("3 4 2\n1 2 4\n1 2 3\n").m == 2
        # a blank line inside the body is skipped
        assert parse_edge_list("3 4 2\n1 2 3\n\n  \n1 2 4\n").m == 2
