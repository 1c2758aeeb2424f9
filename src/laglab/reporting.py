"""Deterministic report rendering: JSON with 17-significant-digit floats, CSV.

The standard json encoder prints shortest-roundtrip floats; reports here pin
every float to 17 significant digits so identical runs emit identical bytes
regardless of encoder details.
"""

from __future__ import annotations

import json
from dataclasses import fields

from laglab.verifier import InequalityCheck, VerificationReport

SCHEMA_VERSION = 1
INDENT = 2  # spaces per nesting level


def fmt_float(x: float) -> str:
    """17-significant-digit rendering (roundtrips to the same double)."""
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float in report: {x}")
    return format(float(x), ".17g")


def fmt_value(x) -> str:
    """One scalar as reports print it: floats through :func:`fmt_float`,
    booleans as ``true``/``false``, anything else through ``str``."""
    if isinstance(x, bool):
        return "true" if x else "false"
    return fmt_float(x) if isinstance(x, float) else str(x)


def render_json(obj) -> str:
    """Serialize dicts/lists/scalars as JSON with pinned float formatting."""
    out: list[str] = []
    _render(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _render(obj, out: list[str], depth: int) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (bool, int, float)):
        out.append(fmt_value(obj))
    elif isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        opening, closing = "{}" if is_dict else "[]"
        pad = "\n" + " " * (INDENT * (depth + 1))
        sep = "," + pad
        for k, item in enumerate(obj):  # a dict yields its keys
            out.append(sep if k else opening + pad)
            if is_dict:
                out.append(json.dumps(str(item), ensure_ascii=True) + ": ")
                item = obj[item]
            _render(item, out, depth + 1)
        out.append("\n" + " " * (INDENT * depth) + closing if obj else opening + closing)
    else:
        raise TypeError(f"cannot render {type(obj).__name__} in a report")


def report_dict(report: VerificationReport | InequalityCheck) -> dict:
    """A cell report or a family check, its fields after the schema version."""
    return {"schema": SCHEMA_VERSION, **{f.name: getattr(report, f.name) for f in fields(report)}}


CSV_HEADER = "t,m,a,colex_value,max_value,gap,graph_count,all_pass"


def reports_csv(reports: list[VerificationReport]) -> str:
    """Summary CSV, one row per cell in the order given (a sweep's is
    (t, m) order): the header's fields of each report."""
    names = CSV_HEADER.split(",")
    rows = (",".join(fmt_value(getattr(rep, f)) for f in names) for rep in reports)
    return "\n".join([CSV_HEADER, *rows]) + "\n"
