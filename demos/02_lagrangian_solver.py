#!/usr/bin/env python3
"""Solving graph Lagrangians: certified values, stationarity reports,
the 2-graph clique formula, and the support-enumeration cross-check (which
shares the face solve with lagrangian, so it is not an independent route)."""

from itertools import combinations
from math import comb

from laglab import RGraph, build_colex_graph
from laglab.solver import (
    kkt_check,
    lagrangian,
    support_enumeration,
    symmetry_classes,
)


def motzkin_straus(g):
    """(1 - 1/w) / 2 for a 2-graph with clique number w, by scanning subsets."""
    w = max(k for k in range(1, g.n + 1)
            if any(all(p in g.edges for p in combinations(s, 2))
                   for s in combinations(range(1, g.n + 1), k)))
    return (1 - 1 / w) / 2


def main():
    print("=" * 64)
    print("Complete 3-graphs: lambda([t]^3) = C(t,3)/t^3")
    print("=" * 64)
    for t in range(3, 9):
        res = lagrangian(RGraph.complete(3, t))
        exact = comb(t, 3) / t**3
        print(f"t={t}: value={res.value:.12f} exact={exact:.12f} "
              f"kkt={res.kkt_residual:.1e} certified={res.certified}")

    print()
    print("=" * 64)
    print("The colex plateau: lambda(C_{3,m}) is constant on a window")
    print("=" * 64)
    for m in range(4, 11):
        res = lagrangian(build_colex_graph(3, m))
        print(f"m={m:2d}: value={res.value:.12f} support={res.support}")

    print()
    print("=" * 64)
    print("2-graphs: the Motzkin-Straus clique-number formula")
    print("=" * 64)
    c5 = RGraph.from_edges(2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    print("5-cycle: solver =", lagrangian(c5).value,
          " formula =", motzkin_straus(c5))
    k4 = RGraph.complete(2, 4)
    print("K4:      solver =", lagrangian(k4).value,
          " formula =", motzkin_straus(k4))

    print()
    print("=" * 64)
    print("Stationarity report and the support-enumeration cross-check")
    print("=" * 64)
    g = build_colex_graph(3, 7)
    res = lagrangian(g)
    rep = kkt_check(g, res.weighting, res.value)
    print("graph: the 7-edge colex-initial 3-graph")
    print("weighting:", [round(w, 6) for w in res.weighting])
    print("equal-link residual:", rep.residual)
    print("link excess (max link - r * value):", rep.link_excess)
    print("difference-link identity residual:", rep.eq2_residual)
    print("pair cover on support:", rep.pair_cover_ok)
    print("symmetry classes:", symmetry_classes(g))
    se = support_enumeration(g)
    print("support enumeration agrees:", abs(se.value - res.value) < 1e-10,
          f"(support {se.support})")


if __name__ == "__main__":
    main()
