"""Exhaustive conjecture verification and configuration-family checks.

A cell (t, m) enumerates every left-compressed 3-graph on [t] with m edges
(compression preserves the extremal value, so the class maximum equals the
maximum over all m-edge 3-graphs) and compares the class maximum against
the colex-initial graph: one walk of the down-set search solves, with
certification, the graphs that it cannot bound below colex by the solve
of a larger down-set above them (the cells of a window walk together).
Known extremal configurations from the literature are reproducible as
named families and checked one by one.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from itertools import groupby
from math import comb
from operator import itemgetter
from typing import NamedTuple

from laglab.hypergraph import (  # enumerate_left_compressed: a name the benchmark traces
    RGraph,
    _down_set_graph,
    _leaf_downs,
    _search_root,
    build_colex_graph,
    enumerate_left_compressed,
    is_left_compressed,
    parse_edge_list,
    serialize_edge_list,
)
from laglab.solver import TIE_TOL, LagrangianResult, SolverOptions, lagrangian, lagrangians

INEQ_TOL = 1e-7
T_MAX = 12  # largest t that a sweep or an enumeration accepts
CELL_BLOCK = 1024  # most graphs per lagrangians call; verify_cells walks only above it


class ConfigurationError(ValueError):
    """Family parameters outside their stated range."""


@dataclass(frozen=True)
class VerifierOptions:
    solver: SolverOptions = field(default_factory=SolverOptions)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exhaustive cell: the class max against the colex value.

    ``graph_count`` counts every graph of the cell, ``uncertified`` the
    solved graphs that did not certify: a graph below a settled state of
    :func:`verify_cells`'s walk is bounded by its state's certified solve,
    not solved."""

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
    """One cell of a :func:`verify_cells` call: its search root, whose leaf
    count is the report's graph count, and the down-set of its colex graph,
    ranks 0 .. m-1."""

    def __init__(self, t: int, m: int):
        if m not in cell_window(t):
            raise ValueError(
                f"m={m} outside the window C({t-1},3)={comb(t-1, 3)} .. "
                f"C({t},3)={comb(t, 3)} for t={t}"
            )
        self.t, self.m, self.root, self.colex = t, m, _search_root(t, m), (1 << m) - 1

    def report(self, solved: list[tuple[RGraph, LagrangianResult]]) -> VerificationReport:
        """The report from the cell's solved graphs with their results, in
        enumeration order (the witness order), the colex graph first; every
        graph left out lies below the colex value less ``TIE_TOL``, so it is
        neither the maximum nor within ``TIE_TOL`` of it."""
        t, m = self.t, self.m
        g, colex = solved[0]
        if g.colex_ranks() != list(range(m)):
            raise RuntimeError(f"colex graph missing from enumeration at (t={t}, m={m})")
        max_value = max(res.value for _g, res in solved)
        witnesses = [(g, res) for g, res in solved if res.value >= max_value - TIE_TOL]
        gap = colex.value - max_value
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
            max_value=max_value,
            gap=gap,
            graph_count=self.root[2],
            witnesses=tuple(serialize_edge_list(g) for g, _res in witnesses),
            all_pass=bool(all_pass),
            witness_supports=tuple(res.support for _g, res in witnesses),
            witness_values=tuple(res.value for _g, res in witnesses),
            uncertified=sum(not res.certified for _g, res in solved),
        )


def verify_cells(t: int, ms: Iterable[int]) -> list[VerificationReport]:
    """Verify the cells (t, m), m in ``ms``, by one walk of the down-set
    search's state graph on [t]; the reports come in ``ms`` order.

    A state's down-set D is the AND of the keeps along its path, and holds
    every graph below the state.  A Lagrangian cannot fall when edges are
    added, so when D's solve is certified and below the cell's colex value
    less ``TIE_TOL``, the state is settled: none of its graphs can be a
    witness, and none is solved.  The cells walk together one level at a
    time.  Each level solves the D's of its open inner states and each
    cell's colex graph, which no state holding it can settle, in one
    :func:`lagrangians` call; then each inner state is settled or opens its
    children (an uncertified D is always opened).  Once the open states
    hold at most ``CELL_BLOCK`` graphs, all their leaves are solved in one
    more call, in enumeration order; so cells of at most ``CELL_BLOCK``
    graphs in all are solved in one call, with no level.  Each down-set is
    solved once per call, and no call takes more than ``CELL_BLOCK``
    graphs.  No result depends on the graphs solved beside it, so a report
    depends neither on the block size nor on which cells are verified
    together, but for its ``uncertified`` count of solved graphs: a graph
    below a settled state is not solved.
    """
    if t < 4:
        raise ValueError(f"cells need t >= 4, got t={t}")
    cells = [_Cell(t, m) for m in ms]
    graph, solved = _down_set_graph(t), {}  # per down-set of the call, its graph and result

    def solve(downs: Iterable[int]) -> None:
        new = list(dict.fromkeys(down for down in downs if down not in solved))
        for i in range(0, len(new), CELL_BLOCK):
            graphs = list(map(graph, new[i:i + CELL_BLOCK]))
            solved.update(zip(new[i:i + CELL_BLOCK], zip(graphs, lagrangians(graphs))))

    # the open states, each (cell, D, entry), in cell order, then enumeration order
    states = [(cell, cell.root[0], cell.root) for cell in cells]
    while sum(entry[2] for *_, entry in states) > CELL_BLOCK and (
            inner := [down for _cell, down, entry in states if entry[1]]):
        solve([cell.colex for cell in cells] + inner)
        opened = []
        for cell, down, entry in states:
            if not entry[1]:  # a leaf waits for the last call
                opened.append((cell, down, entry))
                continue
            res = solved[down][1]
            if not (res.certified and res.value < solved[cell.colex][1].value - TIE_TOL):
                opened += [(cell, down & kid[0], kid) for kid in entry[1]]
        states = opened
    leaves = [(cell, leaf) for cell, down, entry in states for leaf in _leaf_downs(down, (entry,))]
    solve(leaf for _cell, leaf in leaves)
    return [cell.report([solved[leaf] for _cell, leaf in run])
            for cell, run in groupby(leaves, key=itemgetter(0))]


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


def sweep(t_max: int, workers: int = 1) -> list[VerificationReport]:
    """Run every cell for 4 <= t <= t_max in (t, m) order: :func:`verify_cells`
    on each window, t ascending.  ``workers`` is accepted and ignored: one
    walk verifies the largest window in well under a second."""
    check_t(t_max, 4, "t_max")
    return [rep for t in range(4, t_max + 1) for rep in verify_cells(t, cell_window(t))]


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
