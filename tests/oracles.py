"""Independent oracles the test suite checks the library against.

Everything here is deliberately brute force and stays independent of the
code paths it validates: subset filtering or an unpruned search instead of
the pruned poset DFS, every graph of a cell solved instead of the walk that
settles whole subtrees, dense grid scans instead of ascent, and for 2-graphs
the Motzkin-Straus closed form from an exact clique number (a branch and
bound, itself checked against an itertools subset scan).  Also the helpers
only the tests use: colex comparison, the descendant down-closure test, pair
links, single link values and vertex relabeling.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb

import numpy as np

from laglab.hypergraph import Edge, RGraph, UniformityError, descendants


def colex_compare(a: Edge, b: Edge) -> int:
    """Compare two r-sets in colex order: a < b iff max(a triangle b) lies in b.

    Returns -1, 0, or 1.  For sorted tuples this equals lexicographic
    comparison of the reversed tuples.
    """
    if len(a) != len(b):
        raise UniformityError(f"cannot compare edges of sizes {len(a)} and {len(b)}")
    ra, rb = a[::-1], b[::-1]
    if ra < rb:
        return -1
    if ra > rb:
        return 1
    return 0


def is_down_closed(g: RGraph) -> bool:
    """Descendant-based criterion: every descendant of an edge is an edge."""
    return all(descendants(e) <= g.edges for e in g.edges)


def pair_link(g: RGraph, i: int, j: int) -> frozenset[Edge]:
    """The (r-2)-sets completing the pair {i, j} to an edge."""
    for v in (i, j):
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} out of range [1, {g.n}]")
    if i == j:
        raise ValueError("pair link needs two distinct vertices")
    return frozenset(
        tuple(v for v in e if v != i and v != j) for e in g.edges if i in e and j in e
    )


def link_value(g: RGraph, i: int, x) -> float:
    """Weight of the link of vertex i; equals the partial derivative at x_i."""
    from laglab.solver import link_values

    if not 1 <= i <= g.n:
        raise ValueError(f"vertex {i} out of range [1, {g.n}]")
    return float(link_values(g, x)[i - 1])


def relabel(g: RGraph, perm: dict[int, int]) -> RGraph:
    """Apply a vertex permutation of [n] (used for invariance checks)."""
    return RGraph.from_edges(
        g.r, (sorted(perm[v] for v in e) for e in g.edges), n=g.n
    )


def downset_filter_count(t: int, m: int) -> int:
    """Count m-subsets of the triples on [t] closed under componentwise
    decrease, by filtering all subsets (viable for t <= 5)."""
    triples = list(combinations(range(1, t + 1), 3))
    count = 0
    for subset in combinations(triples, m):
        chosen = set(subset)
        if all(_descendants_in(e, chosen) for e in subset):
            count += 1
    return count


def _descendants_in(e, chosen) -> bool:
    for cand in combinations(range(1, max(e) + 1), 3):
        if cand == e or cand in chosen:
            continue
        if all(c <= v for c, v in zip(cand, e)) and sum(cand) < sum(e):
            return False
    return True


def downset_masks_unpruned(t: int, m: int):
    """Yield each m-edge down-set of the triples on [t] as a colex-rank
    bitmask, by depth-first search in rank order whose only bound is that
    enough ranks are left to reach m."""
    triples = sorted(combinations(range(1, t + 1), 3), key=lambda e: e[::-1])
    rank = {e: k for k, e in enumerate(triples)}
    below = [
        sum(1 << rank[e[:i] + (e[i] - 1,) + e[i + 1:]]
            for i in range(3) if e[i] - 1 > (e[i - 1] if i else 0))
        for e in triples
    ]
    total = len(triples)

    def rec(mask, count, last):
        if count == m:
            yield mask
            return
        for k in range(last + 1, total - (m - count) + 1):
            if below[k] & ~mask == 0:
                yield from rec(mask | 1 << k, count + 1, k)

    yield from rec(0, 0, -1)


def verify_cells_leaf_by_leaf(t: int, ms, block: int = 1024) -> list:
    """The reports of ``verifier.verify_cells(t, ms)`` with every graph of
    every cell solved: the cells' enumerations stream one after another
    through ``lagrangians`` in blocks of ``block`` graphs, so a block may
    span cells, and each cell keeps its colex result (its first graph),
    running maximum, the graphs within ``TIE_TOL`` of it and its counts."""
    from laglab.hypergraph import enumerate_left_compressed, serialize_edge_list
    from laglab.solver import TIE_TOL, lagrangians
    from laglab.verifier import INEQ_TOL, VerificationReport

    cells = [{"m": m, "colex": None, "max": -float("inf"), "witnesses": [], "count": 0,
              "uncertified": 0} for m in ms]
    graphs = ((cell, g) for cell in cells for g in enumerate_left_compressed(t, cell["m"]))
    while chunk := list(islice(graphs, block)):
        for (cell, g), res in zip(chunk, lagrangians([g for _cell, g in chunk])):
            if cell["colex"] is None:
                assert g.colex_ranks() == list(range(cell["m"]))
                cell["colex"] = res
            cell["count"] += 1
            cell["uncertified"] += not res.certified
            cell["max"] = max(cell["max"], res.value)
            cell["witnesses"] = [(h, r) for h, r in cell["witnesses"] + [(g, res)]
                                 if r.value >= cell["max"] - TIE_TOL]
    reports = []
    for cell in cells:
        m, colex, witnesses = cell["m"], cell["colex"], cell["witnesses"]
        gap = colex.value - cell["max"]
        reports.append(VerificationReport(
            t=t, m=m, a=comb(t, 3) - m, colex_value=colex.value, max_value=cell["max"],
            gap=gap, graph_count=cell["count"],
            witnesses=tuple(serialize_edge_list(g) for g, _res in witnesses),
            all_pass=bool(gap >= -INEQ_TOL and colex.certified
                          and all(res.certified for _g, res in witnesses)),
            witness_supports=tuple(res.support for _g, res in witnesses),
            witness_values=tuple(res.value for _g, res in witnesses),
            uncertified=cell["uncertified"]))
    return reports


def simplex_grid(n: int, resolution: int) -> np.ndarray:
    """All weightings with coordinates that are multiples of 1/resolution."""
    rows = []
    stars = resolution
    for cuts in combinations(range(stars + n - 1), n - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(stars + n - 2 - prev)
        rows.append(parts)
    return np.array(rows, dtype=float) / resolution


def grid_max(g: RGraph, resolution: int) -> float:
    """Maximum of the edge polynomial over the dense simplex grid."""
    grid = simplex_grid(g.n, resolution)
    edges = np.array(sorted(g.edges), dtype=int) - 1
    if edges.size == 0:
        return 0.0
    vals = np.ones(grid.shape[0])
    total = np.zeros(grid.shape[0])
    for e in edges:
        vals = grid[:, e[0]].copy()
        for v in e[1:]:
            vals = vals * grid[:, v]
        total += vals
    return float(total.max())


def clique_number_bruteforce(g: RGraph) -> int:
    """Largest clique in a 2-graph by scanning subsets from the top."""
    assert g.r == 2
    adj = {v: set() for v in range(1, g.n + 1)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    for size in range(g.n, 1, -1):
        for sub in combinations(range(1, g.n + 1), size):
            if all(j in adj[i] for i, j in combinations(sub, 2)):
                return size
    return 1 if g.n >= 1 else 0


def clique_number(g: RGraph) -> int:
    """Exact clique number of a 2-graph by branch-and-bound over bitmasks."""
    if g.r != 2:
        raise ValueError("clique number is defined here for 2-graphs only")
    if g.n > 20:
        raise ValueError(f"exhaustive clique search refused for n={g.n} > 20")
    if g.n == 0:
        return 0
    adj = [0] * (g.n + 1)
    for i, j in g.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    best = 1

    def extend(cand: int, size: int):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        while cand:
            v = cand.bit_length() - 1
            if size + cand.bit_count() <= best:
                return
            cand &= ~(1 << v)
            extend(cand & adj[v], size + 1)

    extend((1 << (g.n + 1)) - 2, 0)
    return best


def lagrangian_2graph_oracle(g: RGraph) -> float:
    """Motzkin-Straus: a 2-graph whose largest clique has order t attains
    (1 - 1/t) / 2 on the uniform weighting of that clique; the empty graph
    gives 0."""
    t = clique_number(g)
    if t <= 1:
        return 0.0
    return 0.5 * (1.0 - 1.0 / t)


def fd_gradient(g: RGraph, x, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the edge polynomial."""
    from laglab.solver import evaluate

    x = np.asarray(x, dtype=float)
    out = np.zeros(g.n)
    for i in range(g.n):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (evaluate(g, up) - evaluate(g, dn)) / (2 * h)
    return out


def random_rgraph(rng: np.random.Generator, r: int, n: int, p: float) -> RGraph:
    edges = [e for e in combinations(range(1, n + 1), r) if rng.random() < p]
    return RGraph.from_edges(r, edges, n=n)
