"""Record the reference the benchmark checks every run against.

    python3 perfbench/record_reference.py

Writes ``general_graphs.json`` (the two general graphs, drawn once from seed
0xF2F2) and ``reference.json``: per (t, m) cell for 4 <= t <= 8 the graph
count, verdict, witnesses and values; the values of the compute graphs; and
per m of the t = 10 window the count, bytes and SHA-256 of the serialized
enumeration.  Everything is computed with laglab's default options.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import laglab.hypergraph as hypergraph  # noqa: E402
import laglab.solver as solver  # noqa: E402
import laglab.verifier as verifier  # noqa: E402
from run import git_sha  # noqa: E402

GENERAL_DRAW_SEED = 0xF2F2
# (name, vertices, edges) of the general graphs
GENERAL_SHAPES = (("general7", 7, 25), ("general9", 9, 50))


def draw_general_graphs() -> dict:
    rng = random.Random(GENERAL_DRAW_SEED)
    out = {}
    for name, n, m in GENERAL_SHAPES:
        triples = list(combinations(range(1, n + 1), 3))
        while True:
            g = hypergraph.RGraph.from_edges(3, rng.sample(triples, m), n=n)
            if not hypergraph.is_left_compressed(g):
                break
        out[name] = {"n": n, "edges": [list(e) for e in g.sorted_edges()]}
    return out


def main() -> int:
    general = draw_general_graphs()
    (HERE / "general_graphs.json").write_text(
        "{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in general.items())
        + "\n}\n")

    import workloads  # reads general_graphs.json

    cells = {}
    for rep in verifier.sweep(8, workers=2):
        cells[f"{rep.t},{rep.m}"] = {
            "graph_count": rep.graph_count,
            "all_pass": rep.all_pass,
            "witnesses": list(rep.witnesses),
            "colex_value": rep.colex_value,
            "max_value": rep.max_value,
        }

    compute = {}
    for names in workloads.ComputeFixed.sets.values():
        for name in names:
            res = solver.lagrangian(workloads.graph_by_name(name))
            if not res.certified:
                raise SystemExit(f"{name}: uncertified at the reference seed")
            compute[name] = res.value

    enum = {}
    for m in verifier.cell_window(workloads.ENUM_T):
        texts = [hypergraph.serialize_edge_list(g)
                 for g in hypergraph.enumerate_left_compressed(workloads.ENUM_T, m)]
        blob = "".join(texts).encode()
        enum[str(m)] = {"count": len(texts), "bytes": len(blob),
                        "sha256": hashlib.sha256(blob).hexdigest()}

    doc = {
        "recorded_at": {"git_sha": git_sha(), "src_sha256": workloads.src_digest(ROOT / "src"),
                        "seed": solver.DEFAULT_SEED},
        "cells": cells,
        "compute": compute,
        "enumerate_t10": enum,
    }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(cells)} cells, {len(compute)} graphs, {len(enum)} t=10 cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
