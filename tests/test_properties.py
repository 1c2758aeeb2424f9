"""Property tests: text round-trips, colex ranks, compression, relabeling.

Examples stay small (at most 7 vertices) and derandomized, so every run
draws the same graphs and the suite stays reproducible.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laglab.hypergraph import (
    RGraph,
    colex_rank,
    colex_unrank,
    compress,
    is_left_compressed,
    parse_edge_list,
    serialize_edge_list,
)
from laglab.solver import lagrangian
from oracles import relabel

SMALL = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def graphs(draw, min_edges=0, r=None):
    """An r-graph on [n], 2 <= r <= 4 unless r is given and r <= n <= 7,
    with any edge set."""
    r = draw(st.integers(2, 4)) if r is None else r
    n = draw(st.integers(r, 7))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(1, n + 1), r))),
                          min_size=min_edges, unique=True))
    return RGraph.from_edges(r, edges, n=n)


@SMALL
@given(graphs())
def test_canonical_text_round_trips(g):
    text = serialize_edge_list(g)
    parsed = parse_edge_list(text)
    assert parsed == g
    assert serialize_edge_list(parsed) == text


@SMALL
@given(st.integers(1, 6).flatmap(
    lambda r: st.sets(st.integers(1, 40), min_size=r, max_size=r)))
def test_colex_unrank_inverts_rank(vertices):
    e = tuple(sorted(vertices))
    assert colex_unrank(len(e), colex_rank(e)) == e


@SMALL
@pytest.mark.parametrize("r", [2, 3, 4])
@given(data=st.data())
def test_sorted_edges_is_colex_rank_order(r, data):
    g = data.draw(graphs(r=r))
    assert g.sorted_edges() == sorted(g.edges, key=colex_rank)


@SMALL
@given(graphs())
def test_compress_keeps_m_and_left_compresses(g):
    c = compress(g)
    assert c.m == g.m
    assert is_left_compressed(c)


@SMALL
@given(graphs(min_edges=1), st.data())
def test_value_invariant_under_relabeling(g, data):
    perm = data.draw(st.permutations(range(1, g.n + 1)))
    h = relabel(g, {v: perm[v - 1] for v in range(1, g.n + 1)})
    assert abs(lagrangian(g).value - lagrangian(h).value) <= 1e-9
