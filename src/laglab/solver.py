"""Lagrangian computation for r-graphs over the probability simplex.

A left-compressed graph has a non-increasing optimal weighting, so its
optimal support is a prefix [k] of the vertices: each prefix face is solved
by multiplicative ascent from its uniform point and Newton iteration on the
equal-link stationarity system.  Other graphs are solved by projected
gradient ascent from many starts, polished by the same Newton iteration on
the detected supports.  Results carry a KKT residual and a certification
flag; an exhaustive support-enumeration path provides a cross-check for
small graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from laglab.hypergraph import RGraph, difference_link, is_left_compressed

DEFAULT_SEED = 0xF2F2

MAX_ITERS = 10_000  # ascent iterations per start
STEP_TOL = 1e-14  # a row whose backtracked step falls below this is frozen
TIE_TOL = 1e-9  # values within this of the best count as tied
POSITIVE_EPS = 1e-10  # weights above this are in the support
CROSS_CHECK_MAX_ACTIVE = 6  # largest active vertex count given the cross-check
SUPPORT_BUDGET = 20_000  # vertex subsets support enumeration may inspect
NEWTON_ITERS = 60  # Newton steps per support round

METHOD_SYMMETRY = "symmetry_reduced"
METHOD_MULTISTART = "multistart_gradient"
METHOD_SUPPORT_ENUM = "support_enumeration"


@dataclass(frozen=True)
class SolverOptions:
    """Settings of :func:`lagrangian`.

    ``starts`` random Dirichlet starts (32), ascent stall tolerance
    ``value_tol`` (1e-12), certification residual ``kkt_tol`` (1e-8), the
    random ``seed`` (0xF2F2), and whether small graphs get the
    support-enumeration ``cross_check`` (on).  ``starts``, ``value_tol`` and
    ``seed`` act only on graphs that are not left-compressed; the prefix
    route draws no random starts.
    """

    starts: int = 32
    value_tol: float = 1e-12
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
    """Stationarity report for a weighting: residuals and pair coverage."""

    residual: float
    support: tuple[int, ...]
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
            if self.m:
                mat[np.arange(self.m), self.e0[:, p]] = 1.0
            self.pos.append(mat)
        deg = np.zeros(g.n, dtype=int)
        for e in edges:
            for v in e:
                deg[v - 1] += 1
        self.active = np.flatnonzero(deg > 0)

    def eval_rows(self, x_rows: np.ndarray) -> np.ndarray:
        if self.m == 0:
            return np.zeros(x_rows.shape[0])
        cols = x_rows[:, self.e0[:, 0]]
        for p in range(1, self.r):
            cols = cols * x_rows[:, self.e0[:, p]]
        return cols.sum(axis=1)

    def grad_rows(self, x_rows: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x_rows)
        if self.m == 0:
            return out
        gathered = [x_rows[:, self.e0[:, p]] for p in range(self.r)]
        for p in range(self.r):
            part = None
            for q in range(self.r):
                if q == p:
                    continue
                part = gathered[q] if part is None else part * gathered[q]
            if part is None:  # r == 1 cannot happen (r >= 2)
                part = np.ones_like(gathered[p])
            out += part @ self.pos[p]
        return out

    def eval_one(self, x: np.ndarray) -> float:
        return float(self.eval_rows(x[None, :])[0])

    def grad_one(self, x: np.ndarray) -> np.ndarray:
        return self.grad_rows(x[None, :])[0]

    def pair_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of pair-link values: entry (i, j) is the pair link at {i+1, j+1}."""
        h = np.zeros((self.n, self.n))
        if self.m == 0:
            return h
        for p in range(self.r):
            for q in range(p + 1, self.r):
                part = np.ones(self.m)
                for s in range(self.r):
                    if s != p and s != q:
                        part = part * x[self.e0[:, s]]
                np.add.at(h, (self.e0[:, p], self.e0[:, q]), part)
        return h + h.T


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


def check_legal_weighting(x, tol: float = 1e-12) -> np.ndarray:
    """Validate a simplex vector: non-negative entries summing to 1 within tol."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("weighting must be one-dimensional")
    if arr.size and arr.min() < -tol:
        raise ValueError(f"weighting has negative entry {arr.min()}")
    if abs(arr.sum() - 1.0) > max(tol, 1e-12 * max(1, arr.size)):
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
# Projected gradient ascent
# ---------------------------------------------------------------------------

def _project_rows(x_rows: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    s, n = x_rows.shape
    u = -np.sort(-x_rows, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    ind = np.arange(1, n + 1)
    cond = u - css / ind > 0
    rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(s), rho] / (rho + 1)
    return np.maximum(x_rows - theta[:, None], 0.0)


def _ascend(data: _GraphData, x_rows: np.ndarray, opts: SolverOptions):
    """Batched projected gradient ascent with per-row backtracking steps."""
    x = x_rows.copy()
    vals = data.eval_rows(x)
    eta = np.full(x.shape[0], 0.25)
    stall = 0
    crawl = 0
    for _ in range(MAX_ITERS):
        grad = data.grad_rows(x)
        base = vals.copy()
        new_x = x.copy()
        new_v = vals.copy()
        accepted = np.zeros(x.shape[0], dtype=bool)
        for _bt in range(60):
            todo = np.flatnonzero(~accepted)
            if todo.size == 0:
                break
            trial = _project_rows(x[todo] + eta[todo, None] * grad[todo])
            tv = data.eval_rows(trial)
            good = tv >= base[todo]
            hit = todo[good]
            new_x[hit] = trial[good]
            new_v[hit] = tv[good]
            accepted[hit] = True
            eta[todo[~good]] *= 0.5
            if eta[todo[~good]].size and eta[todo[~good]].max() < STEP_TOL:
                accepted[todo[~good]] = True  # frozen rows
        eta[accepted] = np.minimum(eta[accepted] * 1.6, 4.0)
        x, vals = new_x, new_v
        improvement = float((vals - base).max()) if vals.size else 0.0
        if improvement < opts.value_tol:
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0
        # Newton polish mops up slow tail convergence; without this cut a
        # serial sweep(6) runs about 15 % longer (2 cores, Python 3.11)
        if improvement < 1e-10:
            crawl += 1
            if crawl >= 60:
                break
        else:
            crawl = 0
    return x, vals


# ---------------------------------------------------------------------------
# Newton refinement of the equal-link system on a support
# ---------------------------------------------------------------------------

def _newton_on_support(data: _GraphData, x0: np.ndarray, support: np.ndarray):
    """Solve equal link values on the support; returns (x, residual, ok).

    The system is: link(i) = mu for i in the support, weights sum to 1,
    off-support weights zero.  Vertices forced negative are dropped
    (active-set style) and the iteration restarts on the smaller support.
    """
    sup = np.array(sorted(int(v) for v in support), dtype=np.intp)
    for _round in range(max(1, len(sup))):
        if sup.size == 0:
            return np.zeros(data.n), np.inf, False
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
                return x, float(np.abs(res).max()), False
            step = 1.0
            dx = delta[: sup.size]
            for _damp in range(40):
                if (x[sup] + step * dx).min() >= -1e-9:
                    break
                step *= 0.5
            x[sup] = x[sup] + step * dx
            mu += step * float(delta[sup.size])
        neg = sup[x[sup] < POSITIVE_EPS]
        if neg.size == 0:
            grad = data.grad_one(x)[sup]
            res = np.concatenate([grad - mu, [x[sup].sum() - 1.0]])
            x = np.maximum(x, 0.0)
            return x, float(np.abs(res).max()), ok and np.abs(res).max() < 1e-12
        sup = np.setdiff1d(sup, neg)
    return np.zeros(data.n), np.inf, False


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
# KKT check
# ---------------------------------------------------------------------------

def kkt_check(g: RGraph, x, value: float, positive_eps: float = POSITIVE_EPS) -> KKTReport:
    """Stationarity report: equal-link residual on the support, pair cover,
    and (for left-compressed graphs) the difference-link identity residual."""
    arr = check_legal_weighting(_as_vector(g, x))
    data = _GraphData(g)
    grads = data.grad_one(arr)
    support = tuple(int(i) + 1 for i in np.flatnonzero(arr > positive_eps))
    if support:
        residual = float(np.abs(grads[[i - 1 for i in support]] - g.r * value).max())
    else:
        residual = 0.0
    pair_cover_ok = all(
        _pair_in_some_edge(g, i, j) for i, j in combinations(support, 2)
    )
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
        residual=residual,
        support=support,
        pair_cover_ok=pair_cover_ok,
        eq2_residual=eq2,
        link_values=tuple(float(v) for v in grads),
    )


def _pair_in_some_edge(g: RGraph, i: int, j: int) -> bool:
    return any(i in e and j in e for e in g.edges)


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


def _build_starts(data: _GraphData, rng: np.random.Generator, starts: int) -> np.ndarray:
    n = data.n
    act = data.active
    k = act.size
    rows = []
    base = np.zeros(n)
    base[act] = 1.0 / k
    rows.append(base)
    for v in act:
        biased = 0.25 * base.copy()
        biased[v] += 0.75
        rows.append(biased)
    for e in data.e0[: min(data.m, 40)]:
        biased = 0.2 * base.copy()
        for v in e:
            biased[v] += 0.8 / data.r
        rows.append(biased)
    if starts > 0:
        dirichlet = rng.dirichlet(np.ones(k), size=starts)
        block = np.zeros((starts, n))
        block[:, act] = dirichlet
        rows.extend(block)
    return np.array(rows)


def _candidate_supports(x: np.ndarray, peel: int = 0) -> list[tuple[int, ...]]:
    """Plausible supports for a near-optimal point: the coordinates above
    1e-9, then up to ``peel`` smaller supports that drop the smallest of them
    one at a time (optima can sit on flat segments where a vertex weight may
    slide to zero)."""
    base = [int(v) for v in np.flatnonzero(x > 1e-9)]
    base.sort(key=lambda v: x[v])
    return [tuple(sorted(base[k:])) for k in range(min(peel + 1, len(base)))]


def _multistart(data: _GraphData, opts: SolverOptions) -> tuple[np.ndarray, float]:
    """Best polished point of the multistart route, and the best value any
    start reached on its own.

    Uniform, vertex- and edge-biased, and Dirichlet random starts ascend
    together; the strongest distinct supports get a Newton polish.
    """
    rng = np.random.default_rng(
        [opts.seed & 0xFFFFFFFFFFFFFFFF, data.graph.canonical_hash()]
    )
    starts = _build_starts(data, rng, opts.starts)
    ends, end_vals = _ascend(data, starts, opts)

    # polish the strongest distinct supports
    order = np.argsort(-end_vals, kind="stable")
    candidates: list[tuple[float, np.ndarray, float]] = []  # (value, x, residual)
    seen: set[tuple[int, ...]] = set()
    for rank, idx in enumerate(order[:20]):
        x_end = ends[idx]
        peel = 6 if rank < 6 else 0
        for sup in _candidate_supports(x_end, peel=peel):
            if sup in seen:
                continue
            seen.add(sup)
            xs, res, ok = _newton_on_support(data, x_end, np.array(sup))
            if ok and xs.min() >= 0:
                candidates.append((data.eval_one(xs), xs, res))
        val = float(end_vals[idx])
        grad = data.grad_one(x_end)
        pga_res = _residual_at(data, x_end, val, grad)
        candidates.append((val, x_end, pga_res))

    best_value = max(v for v, _x, _r in candidates)
    pool = [c for c in candidates if c[0] >= best_value - TIE_TOL]
    # minimal support first, then polished stationarity, then the
    # lexicographically largest weighting for reproducibility
    pool.sort(
        key=lambda c: (
            _support_size(c[1]),
            0 if c[2] <= opts.kkt_tol else 1,
            [-w for w in c[1]],
        )
    )
    return pool[0][1], float(end_vals.max())


def lagrangian(g: RGraph, opts: SolverOptions | None = None) -> LagrangianResult:
    """Maximize the edge polynomial of g over the simplex.

    A left-compressed graph has a non-increasing optimal weighting, so its
    prefix faces [r], [r+1], ... up to the active vertices are solved by
    :func:`_best_on_faces` (method ``symmetry_reduced``).  Other graphs go
    through :func:`_multistart` (method ``multistart_gradient``).
    ``certified`` requires the equal-link residual on the support below
    ``opts.kkt_tol``; on the prefix route, no vertex link above
    r * value + ``opts.kkt_tol`` (the first-order condition on the whole
    simplex); on the multistart route, the value within ``TIE_TOL`` of the
    best start; and (for graphs with at most ``CROSS_CHECK_MAX_ACTIVE``
    active vertices, when ``opts.cross_check`` is on) agreement with
    :func:`support_enumeration` within 1e-8.
    """
    opts = opts or SolverOptions()
    data = _GraphData(g)
    if data.m == 0:
        return _empty_result(g)

    if is_left_compressed(g):
        # the active vertices form a prefix and [r] is an edge, whose face
        # always has a solution
        faces = [tuple(range(1, k + 1)) for k in range(g.r, data.active.size + 1)]
        _val, x_best = _best_on_faces(data, faces)
        method = METHOD_SYMMETRY
    else:
        x_best, best_start_value = _multistart(data, opts)
        method = METHOD_MULTISTART

    x_best = np.maximum(x_best, 0.0)
    total = x_best.sum()
    if abs(total - 1.0) > 1e-12 and total > 0:
        x_best = x_best / total
    value = data.eval_one(x_best)
    grad = data.grad_one(x_best)
    residual = _residual_at(data, x_best, value, grad)

    notes: list[str] = []
    if method == METHOD_SYMMETRY:
        consistent = float(grad.max()) <= g.r * value + opts.kkt_tol
        failure = "stationarity or the first-order condition off the support not met"
    else:
        consistent = value >= best_start_value - TIE_TOL
        failure = "stationarity or multistart consistency not met"
    certified = residual <= opts.kkt_tol and consistent
    if not certified:
        notes.append(failure)
    if (
        certified
        and opts.cross_check
        and data.active.size <= CROSS_CHECK_MAX_ACTIVE
    ):
        se = support_enumeration(g, opts=opts)
        if abs(se.value - value) > 1e-8:
            certified = False
            notes.append(
                f"support enumeration disagrees: {se.value!r} vs {value!r}"
            )

    return LagrangianResult(
        value=float(value),
        weighting=tuple(float(w) for w in x_best),
        support=_support_size(x_best),
        kkt_residual=float(residual),
        method=method,
        certified=bool(certified),
        notes=tuple(notes),
    )


def _support_size(x: np.ndarray) -> int:
    return int((x > POSITIVE_EPS).sum())


def _residual_at(data: _GraphData, x: np.ndarray, value: float,
                 grad: np.ndarray | None = None) -> float:
    if grad is None:
        grad = data.grad_one(x)
    sup = np.flatnonzero(x > POSITIVE_EPS)
    if sup.size == 0:
        return 0.0
    return float(np.abs(grad[sup] - data.r * value).max())


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


def support_enumeration(g: RGraph, max_support: int | None = None,
                        opts: SolverOptions | None = None) -> LagrangianResult:
    """Best stationary point over all enumerable supports.

    Every candidate support (all vertices incident within the support, all
    pairs covered by an edge, size at least r) is solved by
    :func:`_best_on_faces`, the face solve that the prefix route of
    :func:`lagrangian` also uses; independent of the multi-start gradient
    path.
    """
    opts = opts or SolverOptions()
    data = _GraphData(g)
    if data.m == 0:
        return _empty_result(g)
    act = [int(v) + 1 for v in data.active]
    cap = len(act) if max_support is None else min(max_support, len(act))

    adj = {v: set() for v in act}
    for e in g.edges:
        for i, j in combinations(e, 2):
            adj[i].add(j)
            adj[j].add(i)

    supports = []
    budget_hit = False
    count = 0
    for size in range(g.r, cap + 1):
        for sup in combinations(act, size):
            count += 1
            if count > SUPPORT_BUDGET:
                budget_hit = True
                break
            sup_set = set(sup)
            if any(not (adj[v] & sup_set) for v in sup):
                continue
            if any(j not in adj[i] for i, j in combinations(sup, 2)):
                continue
            if g.r >= 3:
                inside = [e for e in g.edges if set(e) <= sup_set]
                if not inside:
                    continue
                incident = set(v for e in inside for v in e)
                if incident != sup_set:
                    continue
            supports.append(sup)
        if budget_hit:
            break

    found = _best_on_faces(data, supports)
    notes = []
    if budget_hit:
        notes.append("support budget exceeded; partial result")
    if found is None:
        return replace(_empty_result(g), certified=False,
                       notes=("no feasible stationary support found",))
    val, xs = found
    residual = _residual_at(data, xs, val)
    certified = residual <= opts.kkt_tol and not budget_hit
    return LagrangianResult(
        value=float(val),
        weighting=tuple(float(w) for w in xs),
        support=_support_size(xs),
        kkt_residual=float(residual),
        method=METHOD_SUPPORT_ENUM,
        certified=bool(certified),
        notes=tuple(notes),
    )


def _best_on_faces(data: _GraphData, supports: list[tuple[int, ...]]
                   ) -> tuple[float, np.ndarray] | None:
    """Best stationary point over the faces spanned by ``supports`` (tuples
    of 1-based vertices); None when no face yields one.

    Each face gets a monotone multiplicative ascent from its uniform point,
    batched across faces, then a Newton solve of its equal-link system; plain
    Newton from the uniform point can land on a saddle, ascent cannot go
    below its start.  The highest value wins; values within ``TIE_TOL`` of
    it prefer the smaller support, then the lexicographically largest
    weighting.
    """
    rows = np.zeros((len(supports), data.n))
    for k, sup in enumerate(supports):
        rows[k, [v - 1 for v in sup]] = 1.0 / len(sup)
    ascended = _replicator_rows(data, rows, iters=300)

    best: tuple[float, tuple, np.ndarray] | None = None  # (value, key, x)
    for k, sup in enumerate(supports):
        xs, _res, ok = _newton_on_support(data, ascended[k], np.array(sup) - 1)
        if not ok or xs.min() < 0:
            continue
        val = data.eval_one(xs)
        key = (_support_size(xs), [-w for w in xs])
        if (best is None or val > best[0] + TIE_TOL
                or (val >= best[0] - TIE_TOL and key < best[1])):
            best = (val, key, xs)
    return None if best is None else (best[0], best[2])


def _replicator_rows(data: _GraphData, rows: np.ndarray, iters: int) -> np.ndarray:
    """Batched multiplicative-update ascent x <- x * grad / (r * value).

    Supports are invariant under the update and the value never decreases,
    so each row climbs within its own face of the simplex.  Rows whose value
    hits zero are left unchanged.
    """
    x = rows.copy()
    for _ in range(iters):
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
