#!/usr/bin/env python3
"""Tour of the combinatorial layer: colex order, colex-initial graphs,
links, left compression, and the descendant poset."""

from math import comb

from laglab import (
    RGraph,
    ancestors,
    build_colex_graph,
    colex_rank,
    colex_unrank,
    complement,
    compress,
    count_left_compressed,
    descendants,
    difference_link,
    is_left_compressed,
    link,
    serialize_edge_list,
)


def main():
    print("=" * 64)
    print("Colex order on triples")
    print("=" * 64)
    listing = [colex_unrank(3, k) for k in range(21)]
    print("first 21 triples:", " ".join("".join(map(str, e)) for e in listing))
    print("rank of (4,5,6):", colex_rank((4, 5, 6)))
    print("rank of (1,2,7):", colex_rank((1, 2, 7)))

    print()
    print("=" * 64)
    print("Colex-initial graphs")
    print("=" * 64)
    g = build_colex_graph(3, 5)
    print("the 5-edge colex-initial 3-graph:")
    print(serialize_edge_list(g), end="")
    print("complement on [5]:", sorted(complement(g).edges))
    print("left-compressed?", is_left_compressed(g))

    print()
    print("=" * 64)
    print("Links")
    print("=" * 64)
    print("link of vertex 1:", sorted(link(g, 1)))
    print("difference link E_{1\\4}:", sorted(difference_link(g, 1, 4)))

    print()
    print("=" * 64)
    print("Compression to a left-compressed graph")
    print("=" * 64)
    h = RGraph.from_edges(3, [(1, 3, 4), (2, 3, 4), (1, 2, 5)])
    c = compress(h)
    print("before:", sorted(h.edges))
    print("after: ", sorted(c.edges), "left-compressed:", is_left_compressed(c))

    print()
    print("=" * 64)
    print("Descendant poset and enumeration")
    print("=" * 64)
    print("descendants of (1,2,5):", sorted(descendants((1, 2, 5))))
    print("ancestors of (4,5,7) in [7]:", sorted(ancestors((4, 5, 7), within=7)))
    for t in (4, 5, 6):
        top = min(9, comb(t, 3))
        per_m = [count_left_compressed(t, m) for m in range(top + 1)]
        print(f"left-compressed 3-graphs on [{t}] by m (m=0..{top}): {per_m}")


if __name__ == "__main__":
    main()
