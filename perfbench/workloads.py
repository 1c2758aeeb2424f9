"""The benchmark's workloads: inputs, timed passes, reference checks, spans.

Every workload calls laglab through module attributes (``verifier.verify_cell``,
``solver.lagrangian``, ``hypergraph.count_left_compressed``, ``cli.main``) so
that the traced run sees the same calls as the untraced one.  Checks run after
each timed region, never inside it.  README.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import time
import traceback
from math import comb
from pathlib import Path

import numpy as np

import laglab.cli as cli
import laglab.hypergraph as hypergraph
import laglab.solver as solver
import laglab.verifier as verifier
from laglab.solver import SolverOptions
from laglab.verifier import VerifierOptions

from spans import INFO, Tracer

TOL = 1e-12
CELLS_T = 8
SWEEP_T = 7
SWEEP_WORKERS = 2
ENUM_T = 10

# seconds calibration_s() takes at the reference speed: its median on a
# 2-vCPU Xeon VM with Python 3.11.7 and numpy 2.4.6
CAL_REF_S = 0.016

clock = time.perf_counter


def calibration_s() -> float:
    """Median of 3 runs of a fixed kernel that mixes small numpy operations
    with pure-Python arithmetic, the two kinds of work laglab does."""
    times = []
    for _ in range(3):
        t0 = clock()
        x = np.full(8, 0.125)
        a = np.arange(64.0).reshape(8, 8) / 64
        for _ in range(1000):
            x = np.maximum(a @ x, 0.0)
            x /= x.sum()
        s = 0
        for i in range(100_000):
            s += i * i
        times.append(clock() - t0)
    return statistics.median(times)


def parallel_calibration_s(procs: int) -> float:
    """The mean of ``calibration_s()`` run in ``procs`` forked processes at
    once: the speed of work spread over a process pool depends on how busy
    all the cores are, not one."""
    children = []
    for _ in range(procs):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                os.write(write_fd, repr(calibration_s()).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    times = []
    for pid, read_fd in children:
        with os.fdopen(read_fd) as fh:
            times.append(float(fh.read()))
        os.waitpid(pid, 0)
    return statistics.mean(times)


class Run:
    """Operations attempted and failed, checks and counters of one run."""

    def __init__(self, seed: int, reference: dict, work_dir: Path,
                 tracer: Tracer | None = None):
        self.seed = seed
        self.reference = reference
        self.work_dir = work_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.counters: dict[str, int] = {}
        self.errors: list[str] = []
        self._seeds = [seed]
        self._draws = random.Random(seed)
        self.cals: list[float] = []
        self.cal_procs = 1
        self._ref_s = 0.0

    def _calibration_s(self) -> float:
        if self.cal_procs == 1:
            return calibration_s()
        return parallel_calibration_s(self.cal_procs)

    def start_calibration(self) -> None:
        """From now on, follow every timed unit of work with a calibration."""
        self.cals.append(self._calibration_s())

    def unit(self, seconds: float) -> float:
        """Record one timed unit of work (a cell, a round, a sweep) and
        return its seconds.  Once calibrating, the unit is also rescaled to
        the reference speed by the kernel times just before and after it:
        the host's speed drifts by tens of percent within minutes, and the
        kernel's time drifts with it."""
        if self.cals:
            self.cals.append(self._calibration_s())
            self._ref_s += seconds * 2 * CAL_REF_S / (self.cals[-2] + self.cals[-1])
        return seconds

    def take_ref(self) -> float:
        """The rescaled seconds of the units since the last call."""
        ref, self._ref_s = self._ref_s, 0.0
        return ref

    def pass_seed(self, j: int) -> int:
        """The solver seed of pass j: the workload seed for pass 0, then the
        32-bit draws of ``random.Random(seed)``.  Solver work varies with the
        seed, so passes sample that variation instead of repeating one seed."""
        while len(self._seeds) <= j:
            self._seeds.append(self._draws.getrandbits(32))
        return self._seeds[j]

    def op(self, ok: bool, count: int = 1, failed: int | None = None,
           why: str = "") -> None:
        """Record ``count`` operations; ``failed`` of them failed (all of
        them when ``ok`` is false)."""
        self.attempted += count
        bad = count if not ok else (failed or 0)
        self.failed += bad
        if bad and why:
            self.errors.append(why)

    def check(self, name: str, ok: bool, why: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.errors.append(f"{name}: {why}")

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def span(self, name: str):
        """A benchmark span, recorded only while the layer patches are in."""
        if self.tracer is not None and self.tracer.active:
            return self.tracer.span(name)
        return contextlib.nullcontext()

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


def _cell_mismatch(doc: dict, ref: dict) -> str:
    """Empty when a cell report matches its reference, else the reason."""
    for key in ("graph_count", "all_pass"):
        if doc[key] != ref[key]:
            return f"{key} {doc[key]!r} != {ref[key]!r}"
    if list(doc["witnesses"]) != ref["witnesses"]:
        return "witnesses differ"
    for key in ("colex_value", "max_value"):
        if abs(doc[key] - ref[key]) > TOL:
            return f"{key} {doc[key]!r} != {ref[key]!r}"
    return ""


def check_cell(run: Run, doc: dict) -> None:
    """One cell report against the reference; its graphs are the operations."""
    key = f"{doc['t']},{doc['m']}"
    ref = run.reference["cells"][key]
    why = _cell_mismatch(doc, ref)
    run.op(not why, ref["graph_count"], failed=doc["uncertified"],
           why=f"cell {key}: {why or 'uncertified graphs'}")
    run.count("cells", 1)
    run.count("graphs", doc["graph_count"])
    run.count("uncertified", doc["uncertified"])


def _raised(run: Run, count: int, what: str) -> None:
    run.op(False, count, why=f"{what} raised:\n{traceback.format_exc()}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    min_passes = 1  # timed passes per run, however long they take
    cal_procs = 1  # processes the timed passes keep busy
    # untraced/traced pass pairs in a traced run; fixed so that the traced
    # call counts repeat exactly
    traced_pairs = 1

    def warm_up(self) -> None:
        """Lazy set-up a user pays once per process (poset, first numpy calls)."""
        solver.lagrangian(hypergraph.build_colex_graph(3, 4))

    def prepare(self, run: Run) -> None:
        """Untimed per-run set-up: inputs and reference work."""

    def timed_pass(self, run: Run, j: int) -> float:
        """Pass j, checked; returns its timed seconds."""
        raise NotImplementedError

    def provenance(self) -> dict:
        """Workload-specific facts for the provenance record."""
        return {}

    def trace_pass(self, run: Run, j: int) -> float:
        """One side of pair j of the traced comparison, checked; returns its
        seconds rescaled to the reference speed."""
        self.timed_pass(run, j)
        return run.take_ref()

    def traced(self, run: Run) -> dict:
        """Untraced and traced passes over the same inputs, in the order
        untraced, traced, traced, untraced, ...: the order cancels a steady
        drift in the host's speed, and ``trace_pass`` rescales the rest."""
        run.start_calibration()
        sides = {False: 0.0, True: 0.0}
        for j in range(self.traced_pairs):
            for patched in ((False, True) if j % 2 == 0 else (True, False)):
                with (run.tracer.patched(layer_patches()) if patched
                      else contextlib.nullcontext()):
                    sides[patched] += self.trace_pass(run, j)
        return {"pairs": self.traced_pairs, "untraced_s": sides[False],
                "traced_s": sides[True]}


class CellsT8(Workload):
    """``verify_cell(8, m)`` for every m of the t = 8 window, serially."""

    name = "cells-t8"

    def warm_up(self) -> None:
        hypergraph.count_left_compressed(CELLS_T, comb(CELLS_T, 3))
        super().warm_up()

    def timed_pass(self, run: Run, j: int) -> float:
        opts = VerifierOptions(solver=SolverOptions(seed=run.pass_seed(j)))
        total = 0.0
        for m in verifier.cell_window(CELLS_T):
            t0 = clock()
            try:
                rep = verifier.verify_cell(CELLS_T, m, opts)
            except Exception:
                total += run.unit(clock() - t0)
                ref = run.reference["cells"][f"{CELLS_T},{m}"]
                _raised(run, ref["graph_count"], f"verify_cell({CELLS_T}, {m})")
                continue
            total += run.unit(clock() - t0)
            check_cell(run, dataclasses.asdict(rep))
        return total


class SweepT7(Workload):
    """``laglab sweep --t-max 7 --workers 2``, through ``cli.main``."""

    name = "sweep-t7-w2"
    # one pass's time varies by up to 30 % even under a fixed seed (how the
    # cells fall to the two workers) and more across seeds, so a run takes
    # the median of five passes rather than the two that fit in 10 seconds
    min_passes = 5
    cal_procs = SWEEP_WORKERS
    traced_pairs = 2

    def __init__(self):
        self.serial_bytes = b""
        self.sweeps = 0

    def warm_up(self) -> None:
        for t in range(4, SWEEP_T + 1):
            hypergraph.count_left_compressed(t, comb(t, 3))
        super().warm_up()

    def _sweep(self, run: Run, workers: int, seed: int) -> tuple[float, bytes]:
        self.sweeps += 1
        out = run.work_dir / f"sweep-{self.sweeps}"
        argv = ["sweep", "--t-max", str(SWEEP_T), "--workers", str(workers),
                "--out", str(out), "--format", "csv", "--seed", str(seed)]
        cells = [f"{t},{m}" for t in range(4, SWEEP_T + 1)
                 for m in verifier.cell_window(t)]
        t0 = clock()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:
            seconds = clock() - t0
            _raised(run, sum(run.reference["cells"][c]["graph_count"] for c in cells),
                    f"sweep --workers {workers}")
            shutil.rmtree(out, ignore_errors=True)
            return seconds, b""
        seconds = clock() - t0
        run.check("sweep_exit_code", code == 0, f"exit code {code}")
        files = [out / "sweep.json", out / "summary.csv"]
        files += [out / "cells" / f"t{c.replace(',', '_m')}.json" for c in cells]
        missing = [str(f) for f in files if not f.is_file()]
        run.check("sweep_files", not missing, f"missing {missing[:3]}")
        blob = files[0].read_bytes() if files[0].is_file() else b""
        run.count("bytes_written", sum(f.stat().st_size for f in files if f.is_file()))
        docs = {f"{d['t']},{d['m']}": d for d in json.loads(blob or b'{"cells": []}')["cells"]}
        for c in cells:
            if c in docs:
                check_cell(run, docs[c])
            else:
                run.op(False, run.reference["cells"][c]["graph_count"],
                       why=f"cell {c} missing from sweep.json")
        shutil.rmtree(out)
        return seconds, blob

    def prepare(self, run: Run) -> None:
        # the --workers 1 run whose sweep.json pass 0 must equal byte for byte
        _seconds, self.serial_bytes = self._sweep(run, 1, run.pass_seed(0))

    def timed_pass(self, run: Run, j: int) -> float:
        seconds, blob = self._sweep(run, SWEEP_WORKERS, run.pass_seed(j))
        run.unit(seconds)
        if j == 0:
            run.check("worker_byte_identity", blob == self.serial_bytes,
                      "sweep.json differs between --workers 1 and --workers 2")
        return seconds

    def trace_pass(self, run: Run, j: int) -> float:
        # spans in forked workers would be lost, so both sides run serially
        seconds, _blob = self._sweep(run, 1, run.pass_seed(j))
        run.unit(seconds)
        return run.take_ref()

    def traced(self, run: Run) -> dict:
        compared = super().traced(run)
        # the pool pass, right after the traced one, for verifier.pool_efficiency
        return dict(compared, pool_wall_s=self.timed_pass(run, 0))


class ComputeFixed(Workload):
    """A closed loop with one caller.  Each pass is one round on the
    left-compressed set, then one round on the general set; a round is one
    ``lagrangian`` call on every graph of the set, in a fixed order."""

    name = "compute-fixed"
    traced_pairs = 12
    sets = {"lc": ("colex10", "colex35", "k8", "colex100"),
            "general": ("general7", "general9")}

    def __init__(self):
        self.graphs: dict[str, list[tuple[str, hypergraph.RGraph]]] = {}
        self.round_s: dict[str, list[float]] = {kind: [] for kind in self.sets}

    def warm_up(self) -> None:
        self.graphs = {kind: [(name, graph_by_name(name)) for name in names]
                       for kind, names in self.sets.items()}
        super().warm_up()

    def prepare(self, run: Run) -> None:
        for name, g in self.graphs["lc"]:
            ref = run.reference["compute"][name]
            run.check("lc_inputs_left_compressed", hypergraph.is_left_compressed(g),
                      f"{name} is not left-compressed")
            if g.m == comb(g.n, 3):
                # K_n^(3) at the uniform weighting: C(n,3) / n^3
                closed = comb(g.n, 3) / g.n ** 3
                run.check("closed_form", abs(ref - closed) <= TOL,
                          f"{name}: reference {ref!r} vs C(n,3)/n^3 = {closed!r}")
        for name, g in self.graphs["general"]:
            ref = run.reference["compute"][name]
            run.check("general_inputs_not_left_compressed",
                      not hypergraph.is_left_compressed(g), f"{name} is left-compressed")
            se = solver.support_enumeration(g)
            run.check("support_enumeration_agrees",
                      se.certified and abs(se.value - ref) <= TOL,
                      f"{name}: support_enumeration {se.value!r} vs {ref!r}")

    def timed_pass(self, run: Run, j: int) -> float:
        opts = SolverOptions(seed=run.pass_seed(j))
        total = 0.0
        for kind, graphs in self.graphs.items():
            results = []
            t0 = clock()
            for name, g in graphs:
                with run.span(f"solver.graph.{name}"):
                    try:
                        results.append(solver.lagrangian(g, opts))
                    except Exception:
                        results.append(traceback.format_exc())
            seconds = run.unit(clock() - t0)
            self.round_s[kind].append(seconds)
            total += seconds
            for (name, _g), res in zip(graphs, results):
                if isinstance(res, str):
                    run.op(False, why=f"lagrangian({name}) raised:\n{res}")
                    continue
                ref = run.reference["compute"][name]
                run.op(res.certified and abs(res.value - ref) <= TOL,
                       why=f"{name}: value {res.value!r} vs {ref!r}, "
                           f"certified={res.certified}, seed={opts.seed}")
                run.count(f"method.{res.method}", 1)
        return total

    def provenance(self) -> dict:
        return {f"{kind}_round_s": times for kind, times in self.round_s.items()}


class EnumerateT10(Workload):
    """Count, enumerate and serialize every cell of the t = 10 window."""

    name = "enumerate-t10"

    def warm_up(self) -> None:
        hypergraph.count_left_compressed(ENUM_T, comb(ENUM_T, 3))

    def timed_pass(self, run: Run, j: int) -> float:
        total = 0.0
        for m in verifier.cell_window(ENUM_T):
            ref = run.reference["enumerate_t10"][str(m)]
            t0 = clock()
            try:
                count = hypergraph.count_left_compressed(ENUM_T, m)
                texts = [hypergraph.serialize_edge_list(g)
                         for g in hypergraph.enumerate_left_compressed(ENUM_T, m)]
            except Exception:
                total += run.unit(clock() - t0)
                _raised(run, 1, f"cell ({ENUM_T}, {m})")
                continue
            total += run.unit(clock() - t0)
            blob = "".join(texts).encode()
            got = {"count": count, "graphs": len(texts), "bytes": len(blob),
                   "sha256": hashlib.sha256(blob).hexdigest()}
            want = dict(ref, graphs=ref["count"])
            run.op(got == want, why=f"cell ({ENUM_T}, {m}): {got} != {want}")
            run.count("graphs", len(texts))
            run.count("bytes", len(blob))
        return total


WORKLOADS = {w.name: w for w in (CellsT8(), SweepT7(), ComputeFixed(), EnumerateT10())}


# ---------------------------------------------------------------------------
# Fixed graphs
# ---------------------------------------------------------------------------

GENERAL_EDGES_FILE = Path(__file__).with_name("general_graphs.json")


def graph_by_name(name: str) -> hypergraph.RGraph:
    """The fixed graphs of compute-fixed."""
    if name.startswith("colex"):
        return hypergraph.build_colex_graph(3, int(name[5:]))
    if name == "k8":
        return hypergraph.RGraph.complete(3, 8)
    spec = json.loads(GENERAL_EDGES_FILE.read_text())[name]
    return hypergraph.RGraph.from_edges(3, spec["edges"], n=spec["n"])


# ---------------------------------------------------------------------------
# Spans at layer boundaries
# ---------------------------------------------------------------------------

def _text_bytes(_tracer: Tracer, text: str) -> dict:
    return {"bytes": len(text)}


def _solved(tracer: Tracer, res) -> dict:
    info = {"method": res.method, "certified": res.certified}
    se_value = (tracer.current()[INFO] or {}).get("se_value")
    if se_value is not None:
        info["crosscheck_delta"] = abs(se_value - res.value)
    return info


def _crosscheck(tracer: Tracer, res) -> None:
    # the value a lagrangian call compares against, read back when it returns
    parent = tracer.enclosing("solver.lagrangian")
    if parent is not None:
        parent[INFO] = {"se_value": res.value}


def _cell(_tracer: Tracer, rep) -> dict:
    return {"all_pass": rep.all_pass}


def layer_patches() -> list[tuple]:
    """``(module, attribute, span, kind, describe)`` for each attribute
    through which one layer (or the benchmark) calls into another."""
    return [
        (cli, "cmd_sweep", "cli.sweep", "call", None),
        (cli, "sweep", "verifier.sweep", "call", None),
        (cli, "render_json", "reporting.render_json", "call", _text_bytes),
        (cli, "reports_csv", "reporting.reports_csv", "call", _text_bytes),
        (cli, "report_dict", "reporting.report_dict", "call", None),
        (verifier, "verify_cell", "verifier.verify_cell", "call", _cell),
        (verifier, "lagrangian", "solver.lagrangian", "call", _solved),
        (verifier, "enumerate_left_compressed", "hypergraph.enumerate", "generator", None),
        (verifier, "serialize_edge_list", "hypergraph.serialize", "call", _text_bytes),
        (solver, "lagrangian", "solver.lagrangian", "call", _solved),
        (solver, "support_enumeration", "solver.support_enumeration", "call", _crosscheck),
        (solver, "symmetry_classes", "solver.symmetry_classes", "call", None),
        (solver, "is_left_compressed", "hypergraph.is_left_compressed", "call", None),
        (hypergraph, "count_left_compressed", "hypergraph.count", "call", None),
        (hypergraph, "enumerate_left_compressed", "hypergraph.enumerate", "generator", None),
        (hypergraph, "serialize_edge_list", "hypergraph.serialize", "call", _text_bytes),
    ]


def src_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources, names and bytes."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()
