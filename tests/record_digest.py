"""Record the per-cell result digest that ``tests/test_digest.py`` checks.

    python3 tests/record_digest.py

Solves every (t, m) cell with 4 <= t <= 10 under laglab's default options,
on two worker processes, and writes ``tests/cell_digest.json``: per cell the
graph count, verdict, uncertified count, witness supports and values, colex
and maximum values, and a SHA-256 of the witness texts.  Record it at the
commit whose results a solver change must keep; the t = 10 window takes
about four minutes on two cores.
"""

from __future__ import annotations

import concurrent.futures as cf
import hashlib
import json
import multiprocessing
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import laglab.solver as solver  # noqa: E402
import laglab.verifier as verifier  # noqa: E402

T_MAX = 10
WORKERS = 2


def witness_sha256(witnesses) -> str:
    """SHA-256 of a cell's witness texts, in report order."""
    return hashlib.sha256(json.dumps(list(witnesses)).encode()).hexdigest()


def cell_entry(rep) -> dict:
    return {
        "graph_count": rep.graph_count,
        "all_pass": rep.all_pass,
        "uncertified": rep.uncertified,
        "witness_supports": list(rep.witness_supports),
        "witness_values": list(rep.witness_values),
        "colex_value": rep.colex_value,
        "max_value": rep.max_value,
        "witness_sha256": witness_sha256(rep.witnesses),
    }


def git_sha() -> str:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    cells = [(t, m) for t in range(4, T_MAX + 1) for m in verifier.cell_window(t)]
    ctx = multiprocessing.get_context("spawn")
    with cf.ProcessPoolExecutor(max_workers=WORKERS, mp_context=ctx) as pool:
        reports = list(pool.map(verifier.verify_cell, *zip(*cells)))
    doc = {
        "recorded_at": {"git_sha": git_sha(), "seed": solver.DEFAULT_SEED, "t_max": T_MAX},
        "cells": {f"{rep.t},{rep.m}": cell_entry(rep) for rep in reports},
    }
    (HERE / "cell_digest.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(reports)} cells, {sum(r.graph_count for r in reports)} graphs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
