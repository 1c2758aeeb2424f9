"""Deterministic report rendering: JSON with 17-significant-digit floats, CSV.

The standard json encoder prints shortest-roundtrip floats; reports here pin
every float to 17 significant digits so identical runs emit identical bytes
regardless of encoder details.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from laglab.verifier import InequalityCheck, VerificationReport

SCHEMA_VERSION = 1
INDENT = 2  # spaces per nesting level


def fmt_float(x: float) -> str:
    """17-significant-digit rendering (roundtrips to the same double)."""
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float in report: {x}")
    return format(float(x), ".17g")


def render_json(obj) -> str:
    """Serialize dicts/lists/scalars as JSON with pinned float formatting."""
    out: list[str] = []
    _render(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _render(obj, out: list[str], depth: int) -> None:
    pad = " " * (INDENT * (depth + 1))
    close_pad = " " * (INDENT * depth)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, val) in enumerate(obj.items()):
            out.append(pad)
            out.append(json.dumps(str(key), ensure_ascii=True))
            out.append(": ")
            _render(val, out, depth + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for k, val in enumerate(seq):
            out.append(pad)
            _render(val, out, depth + 1)
            out.append(",\n" if k < len(seq) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot render {type(obj).__name__} in a report")


def report_dict(report: VerificationReport | InequalityCheck) -> dict:
    """A cell report or a family check, its fields after the schema version."""
    return {"schema": SCHEMA_VERSION, **asdict(report)}


CSV_HEADER = "t,m,a,colex_value,max_value,gap,graph_count,all_pass"


def reports_csv(reports: list[VerificationReport]) -> str:
    """Summary CSV, one row per cell, in (t, m) order."""
    lines = [CSV_HEADER]
    for rep in sorted(reports, key=lambda r: (r.t, r.m)):
        lines.append(
            ",".join(
                [
                    str(rep.t),
                    str(rep.m),
                    str(rep.a),
                    fmt_float(rep.colex_value),
                    fmt_float(rep.max_value),
                    fmt_float(rep.gap),
                    str(rep.graph_count),
                    "true" if rep.all_pass else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"
