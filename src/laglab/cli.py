"""Command-line surface: compute, sweep, verify-config, enumerate, check.

Exit codes: 0 success/pass, 1 usage or parse error (a path that cannot be
read or written included), 2 uncertified or failing numeric result.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from laglab.hypergraph import (
    RGraph,
    build_colex_graph,
    count_left_compressed,
    enumerate_left_compressed,
    parse_edge_list,
    serialize_edge_list,
)
from laglab.reporting import (SCHEMA_VERSION, fmt_float, fmt_value, render_json, report_dict,
                              reports_csv)
from laglab.solver import DEFAULT_SEED, SolverOptions, lagrangian
from laglab.verifier import (
    ConfigurationSpec,
    FAMILIES,
    T_MAX,
    build_configuration,
    check_delta_bound,
    check_support_bound,
    check_t,
    check_theorem_inequality,
    sweep,
    verify_cell,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNCERTIFIED = 2


def _seed(text: str) -> int:
    return int(text, 0)


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
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                   help=f"seed of the random starts (default {DEFAULT_SEED:#x})")

    p = sub.add_parser("sweep", help="exhaustive verification over all (t, m) cells")
    p.add_argument("--t-max", type=int, required=True, help=f"largest t (4..{T_MAX})")
    p.add_argument("--workers", type=int, default=None,
                   help="accepted and ignored: one process verifies every window")
    p.add_argument("--out", type=Path, default=Path("laglab-sweep"),
                   help="output directory (default laglab-sweep)")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text",
                   help="stdout summary format")
    p.add_argument("--seed", type=_seed, default=None,
                   help="accepted and ignored: no sweep result depends on a seed")

    p = sub.add_parser("verify-config", help="check one configuration family instance")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("enumerate", help="left-compressed 3-graphs on [t] with m edges")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--list", action="store_true", help="emit every graph")
    p.add_argument("--out", type=Path, default=None,
                   help="directory for one edge-list file per graph")

    p = sub.add_parser("check", help="structural bound checks for one cell")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

# per builtin kind, its required keys and then its optional ones
_BUILTIN_KEYS = {
    "colex": (("r", "m"), ()),
    "complete": (("r", "t"), ()),
    "family": (("t",), ("a", "i")),
}


def _parse_builtin(source: str) -> RGraph:
    kind, _, rest = source.partition(":")
    fields = [f for f in rest.split(",") if f]
    if kind == "family":
        if not fields:
            raise ValueError("family spec needs a name, e.g. family:lemma3.5,t=6")
        name, fields = fields[0], fields[1:]
    required, optional = _BUILTIN_KEYS[kind]
    keys, values = required + optional, {}
    for tok in fields:
        key, eq, val = (part.strip() for part in tok.partition("="))
        if not eq:
            raise ValueError(f"expected key=value, got {tok!r}")
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in a {kind} spec (keys: {', '.join(keys)})")
        if key in values:
            raise ValueError(f"repeated key {key!r} in a {kind} spec")
        try:
            values[key] = int(val)
        except ValueError:
            raise ValueError(f"{key} must be an integer, got {val!r}") from None
    for key in required:
        if key not in values:
            raise ValueError(f"{kind} spec needs {key}=<integer>")
    if kind == "colex":
        return build_colex_graph(values["r"], values["m"])
    if kind == "complete":
        return RGraph.complete(values["r"], values["t"])
    return build_configuration(
        ConfigurationSpec(name, values["t"], a=values.get("a"), i=values.get("i")))


def _load_graph(source: str) -> RGraph:
    if source.startswith(tuple(f"{kind}:" for kind in _BUILTIN_KEYS)):
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
    g = _load_graph(args.source)
    res = lagrangian(g, SolverOptions(seed=args.seed))
    doc = asdict(res)
    if args.format == "json":
        _emit(render_json(doc), args.out)
    else:
        # the fields in order, the weighting on one line, then one line per note
        doc["weighting"] = " ".join(map(fmt_value, res.weighting))
        lines = [f"{key}: {fmt_value(val)}" for key, val in doc.items() if key != "notes"]
        lines += [f"note: {note}" for note in res.notes]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if res.certified else EXIT_UNCERTIFIED


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    # the output directory is made before the solve, so a bad --out fails at
    # once, and after sweep's own range check, so a bad --t-max makes none
    check_t(args.t_max, 4, "t_max")
    out_dir: Path = args.out
    cells_dir = out_dir / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)
    reports = sweep(args.t_max)
    docs = [report_dict(rep) for rep in reports]  # one per cell, for both outputs

    for rep, doc in zip(reports, docs):
        (cells_dir / f"t{rep.t}_m{rep.m}.json").write_text(render_json(doc))
    summary = reports_csv(reports)  # each output rendered once, for its file and stdout
    (out_dir / "summary.csv").write_text(summary)
    aggregate = render_json({
        "schema": SCHEMA_VERSION,
        "t_max": args.t_max,
        "cells": docs,
    })
    (out_dir / "sweep.json").write_text(aggregate)

    if args.format == "json":
        sys.stdout.write(aggregate)
    elif args.format == "csv":
        sys.stdout.write(summary)
    else:
        for rep in reports:
            status = "pass" if rep.all_pass else "FAIL"
            print(
                f"cell t={rep.t} m={rep.m}: graphs={rep.graph_count} "
                f"colex={fmt_float(rep.colex_value)} max={fmt_float(rep.max_value)} "
                f"gap={fmt_float(rep.gap)} {status}"
            )
        n_pass = sum(r.all_pass for r in reports)
        print(f"sweep t_max={args.t_max}: {len(reports)} cells, {n_pass} passed")

    return EXIT_OK if all(r.all_pass for r in reports) else EXIT_UNCERTIFIED


# ---------------------------------------------------------------------------
# verify-config
# ---------------------------------------------------------------------------

def cmd_verify_config(args) -> int:
    spec = ConfigurationSpec(family=args.family, t=args.t, a=args.a, i=args.i)
    chk = check_theorem_inequality(spec)
    if args.format == "json":
        sys.stdout.write(render_json(report_dict(chk)))
    else:
        print(f"family: {spec.label()}")
        for key in ("m", "config_value", "colex_value", "margin", "certified"):
            print(f"{key}: {fmt_value(getattr(chk, key))}")
        print(f"result: {'pass' if chk.passed else 'FAIL'}")
    return EXIT_OK if chk.passed else EXIT_UNCERTIFIED


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    check_t(args.t, 3, "--t")
    if args.out is not None and not args.list:
        raise ValueError("--out writes the graphs that --list lists; add --list")
    count = count_left_compressed(args.t, args.m)
    if args.out is not None:  # after the count has checked m, before any output
        args.out.mkdir(parents=True, exist_ok=True)
    print(count)
    if args.list:  # one graph at a time: serialized, then written
        texts = map(serialize_edge_list, enumerate_left_compressed(args.t, args.m))
        if args.out is None:
            sys.stdout.writelines(text + "\n" for text in texts)
        else:
            for idx, text in enumerate(texts):
                (args.out / f"graph_{idx:06d}.edges").write_text(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    check_t(args.t, 4, "--t")
    rep = verify_cell(args.t, args.m)
    checks = [
        check_support_bound(rep),
        check_delta_bound(rep),
    ]
    if args.format == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "cell": report_dict(rep),
            "checks": [asdict(c) for c in checks],
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
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # bad input, or a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
