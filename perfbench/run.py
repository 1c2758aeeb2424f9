"""laglab benchmark: four workloads against the public API, checked every run.

    python3 perfbench/run.py --workload cells-t8 --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run from the root of a checkout; the program is imported from ``src/``.  With
``--trace 0`` the workload runs untraced for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it runs untraced and traced passes
over the same input and reports per-layer metrics from the spans plus the
tracing overhead.  ``--workload all`` runs every workload in turn, each in
its own process.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a provenance
record goes to the line before it and, with the spans of a traced run, to
``.perfbench-out/``.  Exits 2 without a result when the program or the
reference is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0xF2F2  # laglab's SolverOptions default
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("cells-t8", "sweep-t7-w2", "compute-fixed", "enumerate-t10")

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}

GRAPH_NAMES = ("colex10", "colex35", "k8", "colex100", "general7", "general9")
PER_LAYER = {
    "hypergraph.enumerate.calls": "count",
    "hypergraph.enumerate.busy_s": "s",
    "hypergraph.graphs": "count",
    "hypergraph.count.calls": "count",
    "hypergraph.count.busy_s": "s",
    "hypergraph.serialize.calls": "count",
    "hypergraph.serialize.busy_s": "s",
    "hypergraph.serialize.bytes": "bytes",
    "hypergraph.is_left_compressed.calls": "count",
    "hypergraph.is_left_compressed.busy_s": "s",
    "solver.lagrangian.calls": "count",
    "solver.lagrangian.busy_s": "s",
    "solver.lagrangian.self_s": "s",
    "solver.lagrangian.p50_ms": "ms",
    "solver.lagrangian.p90_ms": "ms",
    "solver.support_enumeration.calls": "count",
    "solver.support_enumeration.busy_s": "s",
    "solver.symmetry_classes.calls": "count",
    "solver.symmetry_classes.busy_s": "s",
    **{f"solver.graph.{name}.p50_ms": "ms" for name in GRAPH_NAMES},
    "solver.method.symmetry_reduced": "count",
    "solver.method.multistart_gradient": "count",
    "solver.uncertified": "count",
    "solver.crosscheck.max_delta": "value",
    "verifier.verify_cell.calls": "count",
    "verifier.verify_cell.busy_s": "s",
    "verifier.verify_cell.self_s": "s",
    "verifier.cell.p50_s": "s",
    "verifier.cell.max_s": "s",
    "verifier.cells.all_pass": "count",
    "verifier.pool_efficiency": "ratio",
    "reporting.render_json.calls": "count",
    "reporting.render_json.busy_s": "s",
    "reporting.render_json.bytes": "bytes",
    "reporting.reports_csv.busy_s": "s",
    "reporting.reports_csv.bytes": "bytes",
    "cli.sweep.self_s": "s",
    "trace.overhead": "ratio",
}

SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = {paths!r}
import workloads
workloads.WORKLOADS[{name!r}].warm_up()
print(repr(time.perf_counter() - t0))
"""
# a fresh interpreter importing numpy: the same kind of work as the set-up,
# without laglab, to rescale set-up times by
NUMPY_PROBE = """\
import time
t0 = time.perf_counter()
import numpy
numpy.ones(8) @ numpy.ones(8)
print(repr(time.perf_counter() - t0))
"""
# seconds NUMPY_PROBE takes at the reference speed: its median on a 2-vCPU
# Xeon VM with Python 3.11.7 and numpy 2.4.6
NUMPY_REF_S = 0.160


def _probe(code: str) -> float:
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(name: str) -> tuple[float, dict]:
    """Importing laglab plus the workload's warm-up, each in a fresh
    interpreter, ``SETUP_REPEATS`` times.  Each is rescaled by a numpy-import
    probe run just before it, as wall times are by the calibration kernel;
    returns the median rescaled time and the raw probe times."""
    code = SETUP_PROBE.format(paths=[str(SRC), str(HERE)], name=name)
    raw = {"setup_runs_s": [], "numpy_import_s": []}
    for _ in range(SETUP_REPEATS):
        raw["numpy_import_s"].append(_probe(NUMPY_PROBE))
        raw["setup_runs_s"].append(_probe(code))
    ref = [t * NUMPY_REF_S / n for t, n in zip(raw["setup_runs_s"], raw["numpy_import_s"])]
    return statistics.median(ref), raw


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process, plus ``workers`` times the largest child's
    (pool workers are forked, so each also counts the pages it shares)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * kids) / 1024


def layer_metrics(agg: dict, traced: dict, workers: int) -> dict[str, float]:
    """Per-layer values from aggregated spans; 0 where a layer was not called."""

    def get(span: str, key: str):
        return agg.get(span, {}).get(key, 0)

    def infos(span: str) -> list[dict]:
        return agg.get(span, {}).get("infos", [])

    def durations(span: str) -> list[float]:
        return agg.get(span, {}).get("durations", [])

    solves = [i for i in infos("solver.lagrangian") if "method" in i]
    methods = Counter(i["method"] for i in solves)
    deltas = [i["crosscheck_delta"] for i in solves if "crosscheck_delta" in i]
    lag_ms = [d * 1000 for d in durations("solver.lagrangian")]
    cell_s = durations("verifier.verify_cell")
    values = {
        "hypergraph.graphs": len(infos("hypergraph.enumerate")),
        "hypergraph.serialize.bytes": sum(i["bytes"] for i in infos("hypergraph.serialize")),
        "solver.lagrangian.p50_ms": quantile(lag_ms, 0.5),
        "solver.lagrangian.p90_ms": quantile(lag_ms, 0.9),
        "solver.method.symmetry_reduced": methods["symmetry_reduced"],
        "solver.method.multistart_gradient": methods["multistart_gradient"],
        "solver.uncertified": sum(1 for i in solves if not i["certified"]),
        "solver.crosscheck.max_delta": max(deltas, default=0.0),
        "verifier.cell.p50_s": quantile(cell_s, 0.5),
        "verifier.cell.max_s": max(cell_s, default=0.0),
        "verifier.cells.all_pass": sum(1 for i in infos("verifier.verify_cell")
                                       if i["all_pass"]),
        "verifier.pool_efficiency": (
            get("verifier.verify_cell", "busy_s") / traced["pairs"]
            / (workers * traced["pool_wall_s"])
            if "pool_wall_s" in traced else 0.0),
        "reporting.render_json.bytes": sum(i["bytes"] for i in infos("reporting.render_json")),
        "reporting.reports_csv.bytes": sum(i["bytes"] for i in infos("reporting.reports_csv")),
        "trace.overhead": traced["traced_s"] / traced["untraced_s"] - 1.0,
    }
    for name in GRAPH_NAMES:
        ms = [d * 1000 for d in durations(f"solver.graph.{name}")]
        values[f"solver.graph.{name}.p50_ms"] = quantile(ms, 0.5)
    for name in PER_LAYER:
        if name not in values:
            span, _, key = name.rpartition(".")
            values[name] = get(span, key)
    return values


def quantile(values: list[float], q: float) -> float:
    """The q-quantile by the inclusive method; 0.0 when there are none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def run_one(args) -> int:
    import numpy
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())
    work_dir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    run = workloads.Run(args.seed, reference, work_dir, tracer)

    workload.warm_up()
    setup_s, setup_raw = measure_setup(args.workload)
    workload.prepare(run)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": numpy.__version__,
                    "platform": platform.platform()},
        "program": {"git_sha": git_sha(), "src_sha256": workloads.src_digest(SRC)},
        **setup_raw,
    }
    workers = workloads.SWEEP_WORKERS if args.workload == "sweep-t7-w2" else 0
    if args.trace:
        traced = workload.traced(run)
        metrics = layer_metrics(tracer.aggregate(), traced, workers)
        units = PER_LAYER
        provenance["trace"] = dict(traced, overhead=metrics["trace.overhead"],
                                   spans=len(tracer.spans))
        tracer.dump(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        passes, ref_passes = [], []
        run.cal_procs = workload.cal_procs
        run.start_calibration()
        start = time.perf_counter()
        while (len(passes) < workload.min_passes
               or time.perf_counter() - start < args.seconds):
            passes.append(workload.timed_pass(run, len(passes)))
            ref_passes.append(run.take_ref())
        metrics = {"setup_s": setup_s,
                   "wall_ref_s": statistics.median(ref_passes),
                   "peak_rss_mb": peak_rss_mb(workers)}
        units = END_TO_END
        provenance["repetitions"] = {"setup": SETUP_REPEATS, "passes": len(passes)}
        provenance["pass_s"] = passes
        provenance["wall_s"] = statistics.median(passes)
    provenance["calibration_s"] = run.cals
    provenance.update(workload.provenance())
    provenance["counters"] = run.counters
    provenance["checks"] = run.checks
    shutil.rmtree(work_dir, ignore_errors=True)

    for why in run.errors[:10]:
        print(f"check failed: {why}", file=sys.stderr)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]!r} {unit}")
    record = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"provenance": provenance, "result": result}, indent=1))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("{")))
        part = json.loads(lines[-1])
        total["correct"] = total["correct"] and part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def parse_seed(text: str) -> int:
    """A decimal seed (leading zeros allowed) or one prefixed 0x, 0o or 0b."""
    if text.lower().lstrip("+-").startswith(("0x", "0o", "0b")):
        return int(text, 0)
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "laglab" / "__init__.py").is_file():
        print(f"error: no laglab sources under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing reference {REFERENCE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # keep every file the run (and laglab's process pool) makes in the checkout
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    tempfile.tempdir = str(OUT / "tmp")
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
