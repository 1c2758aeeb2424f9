"""Record, or check against, the per-cell result digest that
``tests/test_digest.py`` checks.

    python3 tests/record_digest.py
    python3 tests/record_digest.py --check 8 9 10 11

Without ``--check``: solves every (t, m) cell with 4 <= t <= 11 under
laglab's default options with ``laglab.verifier.sweep``, as ``laglab
sweep`` solves them, and writes ``tests/cell_digest.json``: per cell the
graph count, verdict, uncertified count, witness supports and values,
colex and maximum values, and a SHA-256 of the witness texts in report
order, under a ``recorded_at`` that names the code behind it: ``git
describe --always --dirty`` and perfbench's ``src_digest``, a SHA-256 over
the names and bytes of the Python files under ``src/``.  Record it at the
commit whose results a solver change must keep; the solve takes about
0.2 s on two cores, most of it the t = 11 window.

With ``--check T ...``: runs the same ``sweep`` up to the largest t given,
so it solves every smaller window too, and compares every cell of the
given windows with the stored digest, values within 1e-12 and every other
field exactly.  It rewrites nothing, prints one line per mismatch and
exits 1 if there is any.  Both modes end with a summary line that gives
the solve's wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGEST_PATH = HERE / "cell_digest.json"
sys.path.insert(0, str(ROOT / "src"))

import laglab.verifier as verifier  # noqa: E402

T_MAX = 11
VALUE_FIELDS = ("witness_values", "colex_value", "max_value")
VALUE_TOL = 1e-12


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


def mismatches(rep, digest: dict) -> list[str]:
    """One line per field of a cell report that differs from its entry in
    ``digest``: values by more than ``VALUE_TOL``, other fields at all."""
    where = f"cell ({rep.t}, {rep.m})"
    want = digest.get(f"{rep.t},{rep.m}")
    if want is None:
        return [f"{where}: not in the digest"]
    return [f"{where}: {key} is {got!r}, digest has {want[key]!r}"
            for key, got in cell_entry(rep).items()
            if not (_close(got, want[key]) if key in VALUE_FIELDS else got == want[key])]


def _close(got, want) -> bool:
    if isinstance(got, list):
        return len(got) == len(want) and all(map(_close, got, want))
    return abs(got - want) <= VALUE_TOL


def git_describe() -> str:
    """The recording commit, marked ``-dirty`` if the tree has changes."""
    out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def solve_windows(ts) -> list:
    """The reports of the windows of ``ts`` in (t, m) order: ``sweep`` up to
    the largest t, kept for the t asked for."""
    ts = set(ts)
    return [rep for rep in verifier.sweep(max(ts)) if rep.t in ts]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", type=int, nargs="+", metavar="T",
                        help="compare the windows of these t with the digest; write nothing")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if args.check:
        digest = json.loads(DIGEST_PATH.read_text())["cells"]
        reports = solve_windows(args.check)
        wall = time.perf_counter() - start
        bad = [line for rep in reports for line in mismatches(rep, digest)]
        for line in bad:
            print(line)
        print(f"{len(reports)} cells, {len(bad)} mismatches, {wall:.1f} s wall")
        return 1 if bad else 0
    reports = solve_windows(range(4, T_MAX + 1))
    wall = time.perf_counter() - start
    sys.path.append(str(ROOT / "perfbench"))
    from workloads import src_digest  # the benchmark's provenance hash of the sources

    doc = {
        "recorded_at": {"git_describe": git_describe(), "src_sha256": src_digest(ROOT / "src"),
                        "t_max": T_MAX},
        "cells": {f"{rep.t},{rep.m}": cell_entry(rep) for rep in reports},
    }
    DIGEST_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(reports)} cells, {sum(r.graph_count for r in reports)} graphs, {wall:.1f} s wall")
    return 0


if __name__ == "__main__":
    sys.exit(main())
