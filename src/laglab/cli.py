"""Command-line surface: compute, sweep, verify-config, enumerate, check.

Exit codes: 0 success/pass, 1 usage or parse error, 2 uncertified or failing
numeric result, 3 incomplete sweep.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from laglab.hypergraph import (
    EdgeListParseError,
    RGraph,
    build_colex_graph,
    count_left_compressed,
    enumerate_left_compressed,
    parse_edge_list,
    serialize_edge_list,
)
from laglab.reporting import (
    check_dict,
    fmt_float,
    inequality_dict,
    render_json,
    report_dict,
    reports_csv,
)
from laglab.solver import DEFAULT_SEED, SolverOptions, lagrangian
from laglab.verifier import (
    ConfigurationError,
    ConfigurationSpec,
    FAMILIES,
    VerifierOptions,
    build_configuration,
    check_delta_bound,
    check_support_bound,
    check_theorem_inequality,
    check_vertex_bound,
    sweep,
    verify_cell,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNCERTIFIED = 2
EXIT_INCOMPLETE = 3


def _default_seed() -> int:
    env = os.environ.get("LAGLAB_SEED")
    if env:
        try:
            return int(env, 0)
        except ValueError:
            raise SystemExit(f"error: LAGLAB_SEED must be an integer, got {env!r}")
    return DEFAULT_SEED


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                   help="global seed (default: LAGLAB_SEED env or 0xF2F2)")
    p.add_argument("--kkt-tol", type=float, default=None,
                   help="certification residual threshold (default 1e-8)")
    p.add_argument("--starts", type=_non_negative_int, default=None,
                   help="number of random starts (default 32)")


def _solver_options(args) -> SolverOptions:
    opts = SolverOptions(seed=args.seed if args.seed is not None else _default_seed())
    if args.kkt_tol is not None:
        opts = replace(opts, kkt_tol=args.kkt_tol)
    if args.starts is not None:
        opts = replace(opts, starts=args.starts)
    return opts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laglab",
        description="Hypergraph Lagrangians of colex-initial graphs and "
                    "exhaustive small-case conjecture verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "compute",
        help="Lagrangian of one graph",
        description="Compute the Lagrangian of a graph given as an edge-list "
                    "file or a builtin spec: colex:r=3,m=17 | complete:r=3,t=5 "
                    "| family:thm1.10,t=7,i=1,a=3",
    )
    p.add_argument("source", help="edge-list file path or builtin spec string")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", type=Path, default=None, help="write output here")
    _add_solver_flags(p)

    p = sub.add_parser("sweep", help="exhaustive verification over all (t, m) cells")
    p.add_argument("--t-max", type=int, required=True, help="largest t (4..8)")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel cell workers (default: available cores)")
    p.add_argument("--out", type=Path, default=Path("laglab-sweep"),
                   help="output directory (default laglab-sweep)")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text",
                   help="stdout summary format")
    p.add_argument("--cell-budget", type=int, default=None,
                   help="max graphs per cell before flagging incomplete")
    _add_solver_flags(p)

    p = sub.add_parser("verify-config", help="check one configuration family instance")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_solver_flags(p)

    p = sub.add_parser("enumerate", help="left-compressed 3-graphs on [t] with m edges")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, default=3,
                   help="uniformity (enumeration is implemented for r=3)")
    p.add_argument("--list", action="store_true", help="emit every graph")
    p.add_argument("--out", type=Path, default=None,
                   help="directory for one edge-list file per graph")

    p = sub.add_parser("check", help="structural bound checks for one cell")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_solver_flags(p)

    return parser


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _parse_builtin(source: str) -> RGraph:
    kind, _, rest = source.partition(":")
    fields = [f for f in rest.split(",") if f]

    def as_kv(tokens):
        out = {}
        for tok in tokens:
            key, eq, val = tok.partition("=")
            if not eq:
                raise ValueError(f"expected key=value, got {tok!r}")
            out[key.strip()] = val.strip()
        return out

    if kind == "colex":
        kv = as_kv(fields)
        return build_colex_graph(int(kv["r"]), int(kv["m"]))
    if kind == "complete":
        kv = as_kv(fields)
        return RGraph.complete(int(kv["r"]), int(kv["t"]))
    if kind == "family":
        if not fields:
            raise ValueError("family spec needs a name, e.g. family:lemma3.5,t=6")
        name = fields[0]
        kv = as_kv(fields[1:])
        spec = ConfigurationSpec(
            family=name,
            t=int(kv["t"]),
            a=int(kv["a"]) if "a" in kv else None,
            i=int(kv["i"]) if "i" in kv else None,
        )
        return build_configuration(spec)
    raise ValueError(f"unknown builtin kind {kind!r} (use colex/complete/family)")


def _load_graph(source: str) -> RGraph:
    if source.startswith(("colex:", "complete:", "family:")):
        return _parse_builtin(source)
    path = Path(source)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {source}")
    return parse_edge_list(path.read_text())


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)


def cmd_compute(args) -> int:
    try:
        g = _load_graph(args.source)
    except (EdgeListParseError, ValueError, KeyError, FileNotFoundError,
            ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    res = lagrangian(g, _solver_options(args))
    if args.format == "json":
        _emit(render_json(res.as_json_dict()), args.out)
    else:
        lines = [
            f"value: {fmt_float(res.value)}",
            "weighting: " + " ".join(fmt_float(w) for w in res.weighting),
            f"support: {res.support}",
            f"kkt_residual: {fmt_float(res.kkt_residual)}",
            f"method: {res.method}",
            f"certified: {'true' if res.certified else 'false'}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if res.certified else EXIT_UNCERTIFIED


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    vopts = VerifierOptions(solver=_solver_options(args))
    if args.cell_budget is not None:
        vopts = replace(vopts, max_graphs=args.cell_budget)
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    try:
        reports = sweep(args.t_max, vopts, workers=max(1, workers))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    out_dir: Path = args.out
    cells_dir = out_dir / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)
    for rep in reports:
        (cells_dir / f"t{rep.t}_m{rep.m}.json").write_text(
            render_json(report_dict(rep))
        )
    (out_dir / "summary.csv").write_text(reports_csv(reports))
    aggregate = {
        "schema": 1,
        "t_max": args.t_max,
        "seed": vopts.solver.seed,
        "cells": [report_dict(r) for r in reports],
    }
    (out_dir / "sweep.json").write_text(render_json(aggregate))

    if args.format == "json":
        sys.stdout.write(render_json(aggregate))
    elif args.format == "csv":
        sys.stdout.write(reports_csv(reports))
    else:
        for rep in reports:
            status = "pass" if rep.all_pass else "FAIL"
            if not rep.complete:
                status = "INCOMPLETE"
            print(
                f"cell t={rep.t} m={rep.m}: graphs={rep.graph_count} "
                f"colex={fmt_float(rep.colex_value)} max={fmt_float(rep.max_value)} "
                f"gap={fmt_float(rep.gap)} {status}"
            )
        n_pass = sum(r.all_pass for r in reports)
        print(f"sweep t_max={args.t_max}: {len(reports)} cells, {n_pass} passed")

    incomplete = [r for r in reports if not r.complete]
    if incomplete:
        for rep in incomplete:
            print(f"incomplete cell: t={rep.t} m={rep.m}", file=sys.stderr)
        return EXIT_INCOMPLETE
    if not all(r.all_pass for r in reports):
        return EXIT_UNCERTIFIED
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-config
# ---------------------------------------------------------------------------

def cmd_verify_config(args) -> int:
    spec = ConfigurationSpec(family=args.family, t=args.t, a=args.a, i=args.i)
    try:
        chk = check_theorem_inequality(spec, VerifierOptions(solver=_solver_options(args)))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        sys.stdout.write(render_json(inequality_dict(chk)))
    else:
        print(f"family: {spec.label()}")
        print(f"m: {chk.m}")
        print(f"config_value: {fmt_float(chk.config_value)}")
        print(f"colex_value: {fmt_float(chk.colex_value)}")
        print(f"margin: {fmt_float(chk.margin)}")
        print(f"certified: {'true' if chk.certified else 'false'}")
        print(f"result: {'pass' if chk.passed else 'FAIL'}")
    if chk.passed:
        return EXIT_OK
    return EXIT_UNCERTIFIED


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    try:
        if args.r != 3:
            raise ValueError(
                f"down-set enumeration is implemented for r=3 only, got r={args.r}"
            )
        if args.t < 3 or args.t > 8:
            raise ValueError(f"--t must be in 3..8, got {args.t}")
        count = count_left_compressed(args.t, args.m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(count)
    if args.list:
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            for idx, g in enumerate(enumerate_left_compressed(args.t, args.m)):
                (args.out / f"graph_{idx:06d}.edges").write_text(
                    serialize_edge_list(g)
                )
        else:
            for g in enumerate_left_compressed(args.t, args.m):
                sys.stdout.write(serialize_edge_list(g) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    vopts = VerifierOptions(solver=_solver_options(args))
    try:
        rep = verify_cell(args.t, args.m, vopts)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    checks = [
        check_support_bound(rep),
        check_vertex_bound(rep),
        check_delta_bound(rep),
    ]
    if args.format == "json":
        doc = {
            "schema": 1,
            "cell": report_dict(rep),
            "checks": [check_dict(c) for c in checks],
        }
        sys.stdout.write(render_json(doc))
    else:
        print(f"cell t={rep.t} m={rep.m}: gap={fmt_float(rep.gap)} "
              f"{'pass' if rep.all_pass else 'FAIL'}")
        for c in checks:
            state = "n/a" if not c.applicable else ("pass" if c.passed else "FAIL")
            print(f"{c.name}: {state}")
    ok = rep.all_pass and all(c.passed for c in checks)
    return EXIT_OK if ok else EXIT_UNCERTIFIED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    handlers = {
        "compute": cmd_compute,
        "sweep": cmd_sweep,
        "verify-config": cmd_verify_config,
        "enumerate": cmd_enumerate,
        "check": cmd_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
