"""Exhaustive conjecture verification and configuration-family checks.

A cell (t, m) enumerates every left-compressed 3-graph on [t] with m edges
(compression preserves the extremal value, so the class maximum equals the
maximum over all m-edge 3-graphs), solves their Lagrangians with
certification in blocks as the enumeration yields them (the cells of a
window share blocks), and compares the class maximum against the
colex-initial graph.  Known extremal configurations from the literature are
reproducible as named families and checked one by one.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import groupby, islice
from math import comb
from typing import NamedTuple

from laglab.hypergraph import (
    RGraph,
    build_colex_graph,
    enumerate_left_compressed,
    is_left_compressed,
    parse_edge_list,
    serialize_edge_list,
)
from laglab.solver import LagrangianResult, SolverOptions, lagrangian, lagrangians

INEQ_TOL = 1e-7
WITNESS_TIE = 1e-9
T_MAX = 12  # largest t that a sweep or an enumeration accepts
CELL_BLOCK = 1024  # graphs that verify_cells hands lagrangians at a time


class ConfigurationError(ValueError):
    """Family parameters outside their stated range."""


@dataclass(frozen=True)
class VerifierOptions:
    solver: SolverOptions = field(default_factory=SolverOptions)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exhaustive cell: the class max against the colex value."""

    t: int
    m: int
    a: int
    colex_value: float
    max_value: float
    gap: float
    graph_count: int
    witnesses: tuple[str, ...]
    all_pass: bool
    witness_supports: tuple[int, ...] = ()
    witness_values: tuple[float, ...] = ()
    uncertified: int = 0
    scope: str = (
        "enumeration restricted to left-compressed 3-graphs; "
        "the restriction preserves the maximum Lagrangian over all graphs "
        "with the same edge count"
    )


@dataclass(frozen=True)
class InequalityCheck:
    """One configuration family instance against its colex-initial rival."""

    family: str
    t: int
    a: int
    i: int | None
    m: int
    config_value: float
    colex_value: float
    margin: float
    passed: bool
    certified: bool
    inconclusive: bool


@dataclass(frozen=True)
class CheckResult:
    name: str
    applicable: bool
    passed: bool
    details: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Configuration families
# ---------------------------------------------------------------------------

class _Family(NamedTuple):
    """How one configuration family's complement on [t] is built and bounded.

    Every family's complement is its deep part, c triples that do not hold
    both t-1 and t, followed by the top row (x, t-1, t) for x from
    t-1-(a-c) up to t-2.  The graph is left-compressed only if the top row
    reaches the deep part's lowest vertex t-d_max, d_max its largest offset
    below t: the closure rule a >= c + d_max - 1.
    """

    statement: str  # as named in error messages
    deep: tuple | Callable  # offsets below t, e.g. (3, 2, 0) = (t-3, t-2, t); a function of i
    least_a: int | None  # least a the statement allows; None: a defaults to the closure minimum
    fixed_from: int | None = None  # least t of a family that fixes a = least_a


_FAMILY_TABLE = {
    "thm1.10": _Family("Theorem 1.10", lambda i: tuple((k, 2, 0) for k in range(i + 2, 2, -1)), 3),
    "lemma3.3": _Family("Lemma 3.3", ((4, 3, 0), (4, 2, 0), (3, 2, 0)), 6),
    "lemma3.4": _Family("Lemma 3.4", ((3, 2, 1), (3, 2, 0)), 5),
    "lemma3.5": _Family("Lemma 3.5", ((3, 2, 1), (3, 2, 0)), 4, fixed_from=5),
    "lemma3.6": _Family("Lemma 3.6", ((3, 2, 1), (3, 2, 0), (4, 2, 0)), 7),
    "lemma3.7": _Family("Lemma 3.7", ((3, 2, 1), (4, 2, 0), (3, 2, 0)), 6, fixed_from=6),
    "case1": _Family("Theorem 1.12 case 1", ((3, 2, 0),), None),
    "case2": _Family("Theorem 1.12 case 2", ((3, 2, 0), (4, 2, 0)), None),
    "case3": _Family("Theorem 1.12 case 3", ((3, 2, 0), (3, 2, 1)), None),
    "case4": _Family("Theorem 1.12 case 4", ((3, 2, 0), (4, 2, 0), (5, 2, 0)), None),
    "case5": _Family("Theorem 1.12 case 5", ((3, 2, 0), (4, 2, 0), (4, 3, 0)), None),
    "case6": _Family("Theorem 1.12 case 6", ((3, 2, 0), (4, 2, 0), (3, 2, 1)), None),
}
FAMILIES = tuple(_FAMILY_TABLE)


@dataclass(frozen=True)
class ConfigurationSpec:
    family: str
    t: int
    a: int | None = None
    i: int | None = None

    def label(self) -> str:
        parts = [self.family, f"t={self.t}"]
        if self.i is not None:
            parts.append(f"i={self.i}")
        if self.a is not None:
            parts.append(f"a={self.a}")
        return " ".join(parts)


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigurationError(message)


def configuration_complement(spec: ConfigurationSpec) -> list[tuple[int, int, int]]:
    """The complement triple list for a family instance (validated ranges):
    the deep part, then the top row."""
    t, a, i, name = spec.t, spec.a, spec.i, spec.family
    _require(name in _FAMILY_TABLE, f"unknown family {name!r}; choose from {FAMILIES}")
    _require(t >= 4, f"{name} needs t >= 4, got t={t}")
    statement, deep, least_a, fixed_from = _FAMILY_TABLE[name]
    _require(i is None or callable(deep), f"{statement} has no parameter i, got i={i}")
    if fixed_from is not None:
        _require(a in (None, least_a), f"{statement} fixes a = {least_a}, got a={a}")
        _require(t >= fixed_from, f"{statement} needs t >= {fixed_from}, got t={t}")
        a = least_a
    if callable(deep):  # Theorem 1.10: c = i, d_max = i+2, read before the i triples are built
        _require(a is not None and i is not None, f"{name} requires both a and i")
        _require(i >= 1, f"{statement} requires i >= 1, got i={i}")
        c, d_max, rule = i, i + 2, "2i+1 = "
    else:
        c, d_max, rule = len(deep), max(d for d, _y, _z in deep), ""
    closure = c + d_max - 1
    if least_a is None:  # Theorem 1.12's cases: a defaults to the closure minimum
        a = closure if a is None else a
    _require(a is not None, f"{name} requires a")
    lo = closure if least_a is None else least_a
    closed = f"{statement} requires a >= {rule}{closure} (top-row closure), got a={a}, t={t}"
    if least_a is None:  # the cases meet the closure rule before the range
        _require(a >= closure, closed)
    _require(fixed_from is not None or lo <= a <= t - 2,
             f"{statement} requires {lo} <= a <= t-2, got a={a}, t={t}")
    _require(a >= closure, closed)
    offsets = deep(i) if callable(deep) else deep
    return ([(t - x, t - y, t - z) for x, y, z in offsets]
            + [(x, t - 1, t) for x in range(t - 1 - (a - c), t - 1)])


def build_configuration(spec: ConfigurationSpec) -> RGraph:
    """Construct and audit the left-compressed graph of a family instance
    (the complement's triples are increasing, distinct and in [t] by design)."""
    comp_set = frozenset(configuration_complement(spec))
    g = RGraph(3, spec.t, RGraph.complete(3, spec.t).edges - comp_set)
    if not is_left_compressed(g):
        raise ConfigurationError(f"{spec.label()}: constructed graph is not left-compressed")
    return g


def check_theorem_inequality(spec: ConfigurationSpec) -> InequalityCheck:
    """Solve the family graph and its colex rival; pass iff the colex value
    is not beaten beyond tolerance (both solves must certify)."""
    g = build_configuration(spec)
    res_g = lagrangian(g)
    res_c = lagrangian(build_colex_graph(3, g.m))
    margin = res_c.value - res_g.value
    certified = res_g.certified and res_c.certified
    return InequalityCheck(
        family=spec.family,
        t=spec.t,
        a=comb(spec.t, 3) - g.m,
        i=spec.i,
        m=g.m,
        config_value=res_g.value,
        colex_value=res_c.value,
        margin=margin,
        passed=bool(certified and margin >= -INEQ_TOL),
        certified=certified,
        inconclusive=not certified,
    )


def in_range_instances(family: str, t: int) -> list[ConfigurationSpec]:
    """Every valid parameterization of a family at a given t (may be empty):
    a parameter grid filtered through :func:`configuration_complement`, the
    one place that knows each family's range."""
    _require(family in FAMILIES, f"unknown family {family!r}")
    if _FAMILY_TABLE[family].fixed_from is not None:
        grid = [(None, None)]
    elif callable(_FAMILY_TABLE[family].deep):
        grid = [(a, i) for a in range(t - 1) for i in range(1, t)]
    else:
        grid = [(a, None) for a in range(t - 1)]
    valid = []
    for a, i in grid:
        spec = ConfigurationSpec(family, t, a=a, i=i)
        try:
            configuration_complement(spec)
        except ConfigurationError:
            continue
        valid.append(spec)
    return valid


# ---------------------------------------------------------------------------
# Exhaustive cells
# ---------------------------------------------------------------------------

def cell_window(t: int) -> range:
    """Edge counts m for which graphs on [t] are the canonical reduction."""
    return range(comb(t - 1, 3), comb(t, 3) + 1)


class _Cell:
    """What :func:`verify_cells` keeps of one cell while its graphs stream
    through: the colex result, the running maximum, the results within
    ``WITNESS_TIE`` of it and the counts, so memory does not grow with the
    cell."""

    def __init__(self, t: int, m: int):
        if m not in cell_window(t):
            raise ValueError(
                f"m={m} outside the window C({t-1},3)={comb(t-1, 3)} .. "
                f"C({t},3)={comb(t, 3)} for t={t}"
            )
        self.t, self.m = t, m
        self.colex, self.max_value, self.witnesses = None, -float("inf"), []
        self.count = self.uncertified = 0

    def add(self, solved: list[tuple[RGraph, LagrangianResult]]) -> None:
        """Take in a run of this cell's graphs with their results; the
        enumeration yields the colex graph, ranks 0 .. m-1, first."""
        if self.colex is None:
            g, self.colex = solved[0]
            if g.colex_ranks() != list(range(self.m)):
                raise RuntimeError(
                    f"colex graph missing from enumeration at (t={self.t}, m={self.m})")
        self.count += len(solved)
        self.uncertified += sum(not res.certified for _g, res in solved)
        self.max_value = max(self.max_value, max(res.value for _g, res in solved))
        # a graph within WITNESS_TIE of the final maximum is within it of
        # every running maximum, so dropping the others loses no witness
        self.witnesses = [(g, res) for g, res in self.witnesses + solved
                          if res.value >= self.max_value - WITNESS_TIE]

    def report(self) -> VerificationReport:
        t, m, colex, witnesses = self.t, self.m, self.colex, self.witnesses
        witnesses.sort(key=lambda pair: pair[0].colex_ranks())
        gap = colex.value - self.max_value
        all_pass = (
            gap >= -INEQ_TOL
            and colex.certified
            and all(res.certified for _g, res in witnesses)
        )
        return VerificationReport(
            t=t,
            m=m,
            a=comb(t, 3) - m,
            colex_value=colex.value,
            max_value=self.max_value,
            gap=gap,
            graph_count=self.count,
            witnesses=tuple(serialize_edge_list(g) for g, _res in witnesses),
            all_pass=bool(all_pass),
            witness_supports=tuple(res.support for _g, res in witnesses),
            witness_values=tuple(res.value for _g, res in witnesses),
            uncertified=self.uncertified,
        )


def verify_cells(t: int, ms: Iterable[int]) -> list[VerificationReport]:
    """Enumerate the left-compressed class at each (t, m), m in ``ms``, and
    compare Lagrangians; the reports come in ``ms`` order.

    The cells' enumerations stream one after another through
    :func:`lagrangians` in blocks of ``CELL_BLOCK`` graphs, so a block may
    span cells (every graph on [t] shares r and n); each cell keeps only
    its colex result, running maximum, near-ties and counts.  No result
    depends on the graphs solved beside it, so the reports depend neither
    on the block size nor on which cells are verified together.
    """
    if t < 4:
        raise ValueError(f"cells need t >= 4, got t={t}")
    cells = [_Cell(t, m) for m in ms]
    graphs = ((cell, g) for cell in cells for g in enumerate_left_compressed(t, cell.m))
    while block := list(islice(graphs, CELL_BLOCK)):
        results = lagrangians([g for _cell, g in block])
        for cell, run in groupby(zip(block, results), key=lambda item: item[0][0]):
            cell.add([(g, res) for (_cell, g), res in run])
    return [cell.report() for cell in cells]


def verify_cell(t: int, m: int, opts: VerifierOptions | None = None) -> VerificationReport:
    """Enumerate the left-compressed class at (t, m) and compare Lagrangians:
    :func:`verify_cells` on the one cell.  ``opts`` is accepted and ignored:
    every graph of a cell is left-compressed, and the prefix route reads no
    solver option."""
    return verify_cells(t, [m])[0]


def check_t(t: int, lowest: int, name: str) -> None:
    """Reject a t outside lowest..T_MAX, naming the argument it came from."""
    if not lowest <= t <= T_MAX:
        raise ValueError(f"{name} must be within {lowest}..{T_MAX}, got {t}")


def _groups(window: range, workers: int) -> list[list[int]]:
    """The cells of ``window`` dealt to ``workers`` groups back and forth
    (groups 0, 1, ..., w-1, then w-1, ..., 1, 0, and again): cells shrink
    as m grows, so the groups get near-equal shares of the graphs."""
    turn = 2 * workers
    return [sorted([*window[j::turn], *window[turn - 1 - j::turn]]) for j in range(workers)]


def sweep(t_max: int, workers: int = 1) -> list[VerificationReport]:
    """Run every cell for 4 <= t <= t_max; deterministic (t, m) order.

    Worker j verifies group j (:func:`_groups`) of every window, the largest
    window first.  Worker 0 is the caller; each other worker with cells is a
    child from POSIX ``os.fork`` that pipes back its pickled reports or its
    error, raised again here.  A failing caller kills and reaps its children."""
    check_t(t_max, 4, "t_max")
    # the largest window holds the most cells: a group beyond it is always empty
    workers = max(1, min(workers, len(cell_window(t_max))))
    windows = [(t, _groups(cell_window(t), workers)) for t in range(t_max, 3, -1)]
    shares = [[(t, groups[j]) for t, groups in windows if groups[j]] for j in range(workers)]
    kids = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for share in filter(None, shares[1:]):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the child: pipe back the outcome, exit at once
                try:
                    with open(write, "wb") as pipe:
                        try:
                            pickle.dump(("ok", _verify_share(share)), pipe)
                        except BaseException as exc:
                            pickle.dump(("error", exc), pipe)
                finally:
                    os._exit(0)
            os.close(write)
            kids.append((pid, open(read, "rb")))
        done = _verify_share(shares[0])
        while kids:
            with kids[0][1] as pipe:
                blob = pipe.read()
            pid, status = os.waitpid(kids.pop(0)[0], 0)
            if status or not blob:
                raise RuntimeError(f"sweep worker {pid} ended with status "
                                   f"{os.waitstatus_to_exitcode(status)} and no result")
            kind, value = pickle.loads(blob)
            if kind == "error":
                raise value
            done += value
    finally:
        for pid, pipe in kids:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    return sorted(done, key=lambda rep: (rep.t, rep.m))


def _verify_share(share) -> list[VerificationReport]:
    """One worker's reports: :func:`verify_cells` on each (t, ms) of its share."""
    return [rep for t, ms in share for rep in verify_cells(t, ms)]


# ---------------------------------------------------------------------------
# Structural bound checks on cell witnesses
# ---------------------------------------------------------------------------

def support_lower_bound(k: int) -> int:
    """Minimum edge count forced by an optimal weighting with k positive weights."""
    return comb(k - 1, 3) + comb(k - 2, 2) - (k - 2)


def check_support_bound(report: VerificationReport) -> CheckResult:
    """Each extremal witness's support k must satisfy m >= the k-support bound."""
    details = []
    ok = True
    for sup in report.witness_supports:
        bound = support_lower_bound(sup)
        passed = report.m >= bound
        ok &= passed
        details.append(
            f"t={report.t} m={report.m}: support {sup} needs m >= {bound}: "
            f"{'ok' if passed else 'VIOLATED'}"
        )
    return CheckResult("support_bound", True, ok, tuple(details))


def delta_bound_params(t: int, m: int) -> int | None:
    """The offset a with m = C(t-1,3) + C(t-2,2) + a, if within the stated band."""
    a = m - comb(t - 1, 3) - comb(t - 2, 2)
    if -(t - 2) <= a <= t - 5:
        return a
    return None


def check_delta_bound(report: VerificationReport) -> CheckResult:
    """Extremal witnesses differ from the colex graph in few edges.

    Applies when m = C(t-1,3) + C(t-2,2) + a with -(t-2) <= a <= t-5; the
    bound is 2(t - a - 2) edges of symmetric difference.
    """
    a = delta_bound_params(report.t, report.m)
    if a is None:
        return CheckResult("delta_bound", False, True,
                           (f"m={report.m} outside the stated band at t={report.t}",))
    bound = 2 * (report.t - a - 2)
    colex_edges = build_colex_graph(3, report.m).edges
    details = []
    ok = True
    for text in report.witnesses:
        g = parse_edge_list(text)
        delta = len(g.edges ^ colex_edges)
        passed = delta <= bound
        ok &= passed
        details.append(
            f"t={report.t} m={report.m} a={a}: |delta|={delta} <= {bound}: "
            f"{'ok' if passed else 'VIOLATED'}"
        )
    return CheckResult("delta_bound", True, ok, tuple(details))
