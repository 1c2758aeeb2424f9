"""Lagrangian computation for r-graphs over the probability simplex.

A left-compressed graph has a non-increasing optimal weighting, so its
optimal support is a prefix [k] of the vertices: each prefix face is solved
by multiplicative ascent from its uniform point and Newton iteration on the
equal-link stationarity system.  Other graphs run the same multiplicative
ascent from many starts and hand the supports it reveals to the same face
solve.  Results carry a KKT residual and a certification flag; an exhaustive
support-enumeration path, again through the face solve, provides a
cross-check for small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import NamedTuple

import numpy as np

from laglab.hypergraph import RGraph, difference_link, is_left_compressed

DEFAULT_SEED = 0xF2F2

TIE_TOL = 1e-9  # values within this of the best count as tied
POSITIVE_EPS = 1e-10  # weights above this are in the support
CROSS_CHECK_MAX_ACTIVE = 6  # largest active vertex count given the cross-check
SUPPORT_BUDGET = 20_000  # vertex subsets support enumeration may inspect
NEWTON_ITERS = 60  # Newton steps per support round
ASCENT_ITERS = 300  # multiplicative ascent steps per start or face

# route names kept from earlier solvers for report and benchmark compatibility
METHOD_SYMMETRY = "symmetry_reduced"
METHOD_MULTISTART = "multistart_gradient"
METHOD_SUPPORT_ENUM = "support_enumeration"


@dataclass(frozen=True)
class SolverOptions:
    """Settings of :func:`lagrangian`.

    ``starts`` random Dirichlet starts (32), certification residual
    ``kkt_tol`` (1e-8), the random ``seed`` (0xF2F2), and whether small
    graphs get the support-enumeration ``cross_check`` (on).  ``starts`` and
    ``seed`` act only on graphs that are not left-compressed; the prefix
    route draws no random starts.
    """

    starts: int = 32
    kkt_tol: float = 1e-8
    seed: int = DEFAULT_SEED
    cross_check: bool = True


@dataclass(frozen=True)
class LagrangianResult:
    value: float
    weighting: tuple[float, ...]
    support: int
    kkt_residual: float
    method: str
    certified: bool
    notes: tuple[str, ...] = ()

    def as_json_dict(self) -> dict:
        return {
            "value": self.value,
            "weighting": list(self.weighting),
            "support": self.support,
            "kkt_residual": self.kkt_residual,
            "method": self.method,
            "certified": self.certified,
        }


@dataclass(frozen=True)
class KKTReport:
    """Stationarity report for a weighting: the residual, support and link
    excess that certification tests, plus pair coverage and the
    difference-link identity residual."""

    residual: float
    support: tuple[int, ...]
    link_excess: float
    pair_cover_ok: bool
    eq2_residual: float | None
    link_values: tuple[float, ...]


# ---------------------------------------------------------------------------
# Prepared arrays
# ---------------------------------------------------------------------------

class _GraphData:
    def __init__(self, g: RGraph):
        self.graph = g
        self.r = g.r
        self.n = g.n
        self.m = g.m
        edges = g.sorted_edges()
        self.e0 = (
            np.array(edges, dtype=np.intp) - 1
            if edges
            else np.zeros((0, g.r), dtype=np.intp)
        )
        # one-hot (m, n) scatter matrices per edge position
        self.pos = []
        for p in range(g.r):
            mat = np.zeros((self.m, g.n))
            mat[np.arange(self.m), self.e0[:, p]] = 1.0
            self.pos.append(mat)
        self.active = np.flatnonzero(np.bincount(self.e0.ravel(), minlength=g.n))

    def eval_rows(self, x_rows: np.ndarray) -> np.ndarray:
        cols = x_rows[:, self.e0[:, 0]]
        for p in range(1, self.r):
            cols = cols * x_rows[:, self.e0[:, p]]
        return cols.sum(axis=1)

    def grad_rows(self, x_rows: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x_rows)
        gathered = [x_rows[:, self.e0[:, p]] for p in range(self.r)]
        for p in range(self.r):
            part = None
            for q in range(self.r):
                if q == p:
                    continue
                part = gathered[q] if part is None else part * gathered[q]
            out += part @ self.pos[p]
        return out

    def eval_one(self, x: np.ndarray) -> float:
        return float(self.eval_rows(x[None, :])[0])

    def grad_one(self, x: np.ndarray) -> np.ndarray:
        return self.grad_rows(x[None, :])[0]

    def pair_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of pair-link values: entry (i, j) is the pair link at {i+1, j+1}."""
        h = np.zeros((self.n, self.n))
        for p in range(self.r):
            for q in range(p + 1, self.r):
                part = np.ones(self.m)
                for s in range(self.r):
                    if s != p and s != q:
                        part = part * x[self.e0[:, s]]
                np.add.at(h, (self.e0[:, p], self.e0[:, q]), part)
        return h + h.T

    def pair_cover(self) -> np.ndarray:
        """Entry (i, j) is True when some edge holds vertices i+1 and j+1:
        the pair matrix at x = 1 counts the edges through each pair."""
        return self.pair_matrix(np.ones(self.n)) > 0


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def _as_vector(g: RGraph, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < g.n:
        raise ValueError(
            f"weighting must be a vector of length >= n={g.n}, got shape {arr.shape}"
        )
    return arr[: g.n] if arr.shape[0] > g.n else arr


def check_legal_weighting(x) -> np.ndarray:
    """Validate a simplex vector: no entry below -1e-12, and entries summing
    to 1 within 1e-12 times their count."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("weighting must be one-dimensional")
    if arr.size and arr.min() < -1e-12:
        raise ValueError(f"weighting has negative entry {arr.min()}")
    if abs(arr.sum() - 1.0) > 1e-12 * max(1, arr.size):
        raise ValueError(f"weighting sums to {arr.sum()}, expected 1")
    return arr


def evaluate(g: RGraph, x) -> float:
    """The edge-monomial sum at a weight vector (0 for the empty graph)."""
    return _GraphData(g).eval_one(_as_vector(g, x))


def link_value(g: RGraph, i: int, x) -> float:
    """Weight of the link of vertex i; equals the partial derivative at x_i."""
    if not 1 <= i <= g.n:
        raise ValueError(f"vertex {i} out of range [1, {g.n}]")
    return float(link_values(g, x)[i - 1])


def link_values(g: RGraph, x) -> np.ndarray:
    """Vector of link weights for every vertex (the gradient)."""
    return _GraphData(g).grad_one(_as_vector(g, x))


# ---------------------------------------------------------------------------
# Newton refinement of the equal-link system on a support
# ---------------------------------------------------------------------------

def _newton_on_support(data: _GraphData, x0: np.ndarray,
                       support: np.ndarray) -> np.ndarray | None:
    """Solve equal link values on the support; None when no solve succeeds.

    The system is: link(i) = mu for i in the support, weights sum to 1,
    off-support weights zero.  Steps are halved until no weight falls below
    -1e-9; when 40 halvings do not suffice, the iteration stops there.
    Vertices left at zero are dropped (active-set style) and the iteration
    restarts on the smaller support.
    """
    sup = np.array(sorted(int(v) for v in support), dtype=np.intp)
    for _round in range(max(1, len(sup))):
        if sup.size == 0:
            return None
        x = np.zeros(data.n)
        seed_vals = np.maximum(x0[sup], 0.0)
        if seed_vals.sum() <= 0:
            seed_vals = np.ones(sup.size)
        x[sup] = seed_vals / seed_vals.sum()
        mu = float(data.grad_one(x)[sup].mean())
        ok = False
        for _it in range(NEWTON_ITERS):
            grad = data.grad_one(x)[sup]
            res = np.concatenate([grad - mu, [x[sup].sum() - 1.0]])
            if np.abs(res).max() < 1e-14:
                ok = True
                break
            h = data.pair_matrix(x)[np.ix_(sup, sup)]
            jac = np.zeros((sup.size + 1, sup.size + 1))
            jac[: sup.size, : sup.size] = h
            jac[: sup.size, sup.size] = -1.0
            jac[sup.size, : sup.size] = 1.0
            try:
                delta = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError:
                return None
            step = 1.0
            dx = delta[: sup.size]
            for _damp in range(40):
                if (x[sup] + step * dx).min() >= -1e-9:
                    break
                step *= 0.5
            else:  # no step stays on the simplex: drop the vertices at zero
                break
            x[sup] = x[sup] + step * dx
            mu += step * float(delta[sup.size])
        neg = sup[x[sup] < POSITIVE_EPS]
        if neg.size == 0:
            return np.maximum(x, 0.0) if ok else None
        sup = np.setdiff1d(sup, neg)
    return None


# ---------------------------------------------------------------------------
# Symmetry classes for left-compressed graphs
# ---------------------------------------------------------------------------

def symmetry_classes(g: RGraph) -> list[list[int]]:
    """Group consecutive vertices with empty difference link into classes.

    Vertices i and i+1 fall in one class when no edge through i fails to
    shift onto i+1; for a left-compressed graph the members of a class are
    interchangeable and share a weight in some optimal weighting.
    """
    if not is_left_compressed(g):
        raise ValueError("symmetry classes require a left-compressed graph")
    classes: list[list[int]] = []
    current = [1] if g.n >= 1 else []
    for i in range(1, g.n):
        if difference_link(g, i, i + 1):
            classes.append(current)
            current = [i + 1]
        else:
            current.append(i + 1)
    if current:
        classes.append(current)
    return classes


# ---------------------------------------------------------------------------
# Stationarity: the first-order conditions of a maximum on the simplex
# ---------------------------------------------------------------------------

class _Stationarity(NamedTuple):
    """First-order quantities of a point x at a value, from one gradient."""

    grad: np.ndarray
    support: np.ndarray  # 0-based vertices whose weight exceeds POSITIVE_EPS
    residual: float  # max |link_i - r * value| over the support (0 if empty)
    link_excess: float  # max_i link_i - r * value over every vertex

    def failure(self, kkt_tol: float) -> str:
        """The first-order condition x fails within ``kkt_tol`` ('' when it
        fails none).

        A maximum of the edge polynomial on the simplex has every link on its
        support equal to r * value and no link above it; these two conditions
        certify a result on every route.
        """
        if self.residual > kkt_tol:
            return f"equal-link residual {self.residual:.3g} on the support exceeds kkt_tol"
        if self.link_excess > kkt_tol:
            return (f"link of vertex {int(self.grad.argmax()) + 1} exceeds "
                    f"r * value by {self.link_excess:.3g} (first-order condition)")
        return ""


def _stationarity(data: _GraphData, x: np.ndarray, value: float) -> _Stationarity:
    """The one stationarity computation: certification on every route and
    :func:`kkt_check` read it, so they agree on support and residual."""
    grad = data.grad_one(x)
    sup = np.flatnonzero(x > POSITIVE_EPS)
    target = data.r * value
    residual = float(np.abs(grad[sup] - target).max()) if sup.size else 0.0
    return _Stationarity(grad, sup, residual, float(grad.max() - target))


def kkt_check(g: RGraph, x, value: float) -> KKTReport:
    """Stationarity report of x at ``value``: the equal-link residual,
    support (weights above ``POSITIVE_EPS``) and link excess that
    certification tests, whether an edge covers every pair of the support,
    and (for left-compressed graphs) the difference-link identity residual."""
    arr = check_legal_weighting(_as_vector(g, x))
    data = _GraphData(g)
    st = _stationarity(data, arr, value)
    support = tuple(int(i) + 1 for i in st.support)
    cover = data.pair_cover()
    eq2 = None
    if is_left_compressed(g):
        eq2 = 0.0
        pm = data.pair_matrix(arr)
        for i, j in combinations(support, 2):
            lhs = (arr[i - 1] - arr[j - 1]) * pm[i - 1, j - 1]
            rhs = 0.0
            for a in difference_link(g, i, j):
                p = 1.0
                for v in a:
                    p *= arr[v - 1]
                rhs += p
            eq2 = max(eq2, abs(lhs - rhs))
    return KKTReport(
        residual=st.residual,
        support=support,
        link_excess=st.link_excess,
        pair_cover_ok=all(cover[i - 1, j - 1] for i, j in combinations(support, 2)),
        eq2_residual=eq2,
        link_values=tuple(float(v) for v in st.grad),
    )


# ---------------------------------------------------------------------------
# The main solver
# ---------------------------------------------------------------------------

def _empty_result(g: RGraph) -> LagrangianResult:
    weighting = tuple([1.0 / g.n] * g.n) if g.n else ()
    return LagrangianResult(
        value=0.0,
        weighting=weighting,
        support=0,
        kkt_residual=0.0,
        method=METHOD_MULTISTART,
        certified=True,
        notes=("empty graph",),
    )


def _candidate_supports(x: np.ndarray) -> list[tuple[int, ...]]:
    """Faces for an ascent end point, as 1-based vertices: the coordinates
    above 1e-9, then the same without its smallest one and without its two
    smallest.  Ascent nears a face of the simplex only geometrically, so
    vertices whose optimal weight is zero can still sit above the cut."""
    base = sorted((int(v) for v in np.flatnonzero(x > 1e-9)), key=lambda v: x[v])
    return [tuple(sorted(v + 1 for v in base[k:])) for k in range(min(3, len(base)))]


def _multistart(data: _GraphData, opts: SolverOptions) -> np.ndarray:
    """Best point of the multistart route.

    The uniform point of the active vertices and ``opts.starts`` Dirichlet
    random points on them climb by multiplicative ascent; the candidate
    supports of the two best end points go to :func:`_best_on_faces`.  The
    best end point itself is returned when no face yields a point or when it
    lies more than ``TIE_TOL`` above the face solution (a flat optimal set
    can leave Newton's Jacobian singular on the face that holds it).
    """
    rng = np.random.default_rng(
        [opts.seed & 0xFFFFFFFFFFFFFFFF, data.graph.canonical_hash()]
    )
    act = data.active
    starts = np.zeros((opts.starts + 1, data.n))
    starts[0, act] = 1.0 / act.size
    starts[1:, act] = rng.dirichlet(np.ones(act.size), size=opts.starts)
    ends = _replicator_rows(data, starts)
    end_vals = data.eval_rows(ends)
    order = np.argsort(-end_vals, kind="stable")
    faces = list(dict.fromkeys(
        face for idx in order[:2] for face in _candidate_supports(ends[idx])
    ))
    found = _best_on_faces(data, faces, opts.kkt_tol)
    if found is None or end_vals[order[0]] > found[0] + TIE_TOL:
        return ends[order[0]]
    return found[1]


def lagrangian(g: RGraph, opts: SolverOptions | None = None) -> LagrangianResult:
    """Maximize the edge polynomial of g over the simplex.

    A left-compressed graph has a non-increasing optimal weighting, so its
    prefix faces [r], [r+1], ... up to the active vertices are solved by
    :func:`_best_on_faces` (method ``symmetry_reduced``).  Other graphs go
    through :func:`_multistart` (method ``multistart_gradient``), which
    picks its faces from random starts and solves them the same way.
    ``certified`` requires the first-order conditions of
    :meth:`_Stationarity.failure` within ``opts.kkt_tol`` and (for graphs
    with at most ``CROSS_CHECK_MAX_ACTIVE`` active vertices, when
    ``opts.cross_check`` is on) agreement with :func:`support_enumeration`
    within 1e-8.
    """
    opts = opts or SolverOptions()
    data = _GraphData(g)
    if data.m == 0:
        return _empty_result(g)

    if is_left_compressed(g):
        # the active vertices form a prefix and [r] is an edge, whose face
        # always has a solution
        faces = [tuple(range(1, k + 1)) for k in range(g.r, data.active.size + 1)]
        x_best = _best_on_faces(data, faces, opts.kkt_tol)[1]
        method = METHOD_SYMMETRY
    else:
        x_best = _multistart(data, opts)
        method = METHOD_MULTISTART

    res = _result(data, x_best, method, opts.kkt_tol)
    if res.certified and opts.cross_check and data.active.size <= CROSS_CHECK_MAX_ACTIVE:
        se = support_enumeration(g, opts=opts)
        if abs(se.value - res.value) > 1e-8:
            res = replace(res, certified=False, notes=(
                f"support enumeration disagrees: {se.value!r} vs {res.value!r}",))
    return res


def _result(data: _GraphData, x: np.ndarray, method: str, kkt_tol: float,
            notes: tuple[str, ...] = ()) -> LagrangianResult:
    """The result at x from its stationarity report: certified when x meets
    the first-order conditions within ``kkt_tol`` and the route adds no
    ``notes`` of its own."""
    value = data.eval_one(x)
    st = _stationarity(data, x, value)
    failure = st.failure(kkt_tol)
    notes = ((failure,) if failure else ()) + notes
    return LagrangianResult(
        value=value,
        weighting=tuple(float(w) for w in x),
        support=int(st.support.size),
        kkt_residual=st.residual,
        method=method,
        certified=not notes,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Cross-check routes: 2-graph oracle and support enumeration
# ---------------------------------------------------------------------------

def clique_number(g: RGraph) -> int:
    """Exact clique number of a 2-graph by branch-and-bound over bitmasks."""
    if g.r != 2:
        raise ValueError("clique number is defined here for 2-graphs only")
    if g.n > 20:
        raise ValueError(f"exhaustive clique search refused for n={g.n} > 20")
    if g.n == 0:
        return 0
    adj = [0] * (g.n + 1)
    for i, j in g.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    best = 1 if g.n >= 1 else 0

    def extend(cand: int, size: int):
        nonlocal best
        if size + bin(cand).count("1") <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        while cand:
            v = cand.bit_length() - 1
            bit = 1 << v
            if size + bin(cand).count("1") <= best:
                return
            cand &= ~bit
            extend(cand & adj[v], size + 1)

    extend((1 << (g.n + 1)) - 2, 0)
    return best


def lagrangian_2graph_oracle(g: RGraph) -> float:
    """Closed-form 2-graph value from the exact clique number.

    A 2-graph whose largest clique has order t attains (1 - 1/t) / 2 on the
    uniform weighting of that clique; the empty graph gives 0.
    """
    t = clique_number(g)
    if t <= 1:
        return 0.0
    return 0.5 * (1.0 - 1.0 / t)


def support_enumeration(g: RGraph, opts: SolverOptions | None = None) -> LagrangianResult:
    """Best stationary point over all enumerable supports.

    Every candidate support (all pairs covered by an edge, every vertex in
    an edge inside the support, size at least r) is solved by
    :func:`_best_on_faces`, the face solve that both routes of
    :func:`lagrangian` use, so it differs from them only in which faces it
    tries.  Certified by the first-order conditions of
    :meth:`_Stationarity.failure`, and only when no more than
    ``SUPPORT_BUDGET`` vertex subsets had to be inspected.
    """
    opts = opts or SolverOptions()
    data = _GraphData(g)
    if data.m == 0:
        return _empty_result(g)
    act = [int(v) + 1 for v in data.active]

    cover = data.pair_cover()
    supports = []
    budget_hit = False
    count = 0
    for size in range(g.r, len(act) + 1):
        for sup in combinations(act, size):
            count += 1
            if count > SUPPORT_BUDGET:
                budget_hit = True
                break
            if not all(cover[i - 1, j - 1] for i, j in combinations(sup, 2)):
                continue
            sup_set = set(sup)
            inside = [e for e in g.edges if set(e) <= sup_set]
            if set(v for e in inside for v in e) != sup_set:
                continue
            supports.append(sup)
        if budget_hit:
            break

    found = _best_on_faces(data, supports, opts.kkt_tol)
    if found is None:
        return replace(_empty_result(g), certified=False,
                       notes=("no feasible stationary support found",))
    return _result(data, found[1], METHOD_SUPPORT_ENUM, opts.kkt_tol,
                   ("support budget exceeded; partial result",) if budget_hit else ())


def _best_on_faces(data: _GraphData, supports: list[tuple[int, ...]],
                   kkt_tol: float) -> tuple[float, np.ndarray] | None:
    """Best stationary point over the faces spanned by ``supports`` (tuples
    of 1-based vertices); None when no face yields one.

    Each face gets a monotone multiplicative ascent from its uniform point,
    batched across faces, then a Newton solve of its equal-link system; plain
    Newton from the uniform point can land on a saddle, ascent cannot go
    below its start.  The highest value wins; among values within
    ``TIE_TOL`` of it, a point that meets the first-order conditions of
    :meth:`_Stationarity.failure` within ``kkt_tol`` comes first, then the smaller
    support, then the lexicographically largest weighting.
    """
    rows = np.zeros((len(supports), data.n))
    for k, sup in enumerate(supports):
        rows[k, [v - 1 for v in sup]] = 1.0 / len(sup)
    ascended = _replicator_rows(data, rows)

    best: tuple[float, tuple, np.ndarray] | None = None  # (value, key, x)
    for k, sup in enumerate(supports):
        xs = _newton_on_support(data, ascended[k], np.array(sup) - 1)
        if xs is None:
            continue
        val = data.eval_one(xs)
        st = _stationarity(data, xs, val)
        key = (bool(st.failure(kkt_tol)), st.support.size, [-w for w in xs])
        if (best is None or val > best[0] + TIE_TOL
                or (val >= best[0] - TIE_TOL and key < best[1])):
            best = (val, key, xs)
    return None if best is None else (best[0], best[2])


def _replicator_rows(data: _GraphData, rows: np.ndarray) -> np.ndarray:
    """Batched multiplicative-update ascent x <- x * grad / (r * value).

    Supports are invariant under the update and the value never decreases,
    so each row climbs within its own face of the simplex.  Rows whose value
    hits zero are left unchanged.
    """
    x = rows.copy()
    for _ in range(ASCENT_ITERS):
        grad = data.grad_rows(x)
        new = x * grad
        totals = new.sum(axis=1, keepdims=True)
        alive = totals[:, 0] > 0
        if not alive.any():
            break
        new[alive] /= totals[alive]
        new[~alive] = x[~alive]
        if np.abs(new - x).max() < 1e-13:
            x = new
            break
        x = new
    return x
