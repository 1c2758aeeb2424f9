"""Lagrangian computation for r-graphs over the probability simplex.

A left-compressed graph has a non-increasing optimal weighting, so its
optimal support is a prefix [k] of the vertices.  Some optimal weighting of
least support has every pair of its support in an edge (Frankl-Rodl);
sorted, it is optimal on a prefix [k], and the edge through the two largest
vertices of its support dominates {1, ..., r-2, k-1, k}, which
left-compression then puts in the graph.  The prefix faces from [r] up to
the largest such k are solved, each by multiplicative ascent from its
uniform point, stopped once no weight moves by ``FACE_ASCENT_STOP`` or
after ``FACE_ASCENT_ITERS`` steps, and Newton iteration on the equal-link
stationarity system.  A face whose optimum lies on its boundary may yield
no point (a Newton step that would leave the simplex fails its row): that
optimum lies on a smaller prefix face, which is solved as its own row.
Such blocked rows are nearly all the rows whose ascent crawls, so the step
cap hands them to Newton early and loses no solved row.  Other graphs run
the same multiplicative ascent from many starts, to the much finer
``START_ASCENT_STOP`` because the end points choose the faces, and hand the
supports it reveals to the same face solve.  That ascent has a kernel of
its own: its rows all weight one graph and are positive on every active
vertex, so each step's links are one matrix product over the graph's
shadow (:class:`_OneGraphRows`), summed in BLAS order.  Its end points
only choose faces and serve as a fallback; every face row, value and
certificate sums in edge order (:class:`_Rows`).  Results carry a KKT
residual and a certification flag.  Graphs with at most
``CROSS_CHECK_MAX_ACTIVE`` active vertices also get a support-enumeration
cross-check: every support whose pairs lie in edges, solved by the same
face solve.  On the prefix faces it reads the very rows the prefix route
solved, so it adds information only through its other supports.

The face solve is batched: graphs that share r and n, whatever their edge
counts (a block of a window's cells), stack their edges one graph after
another (enumerated graphs from one unpacking of their stacked picks),
(graph, face) pairs that share the face and the edges inside it share one
weight row, whatever their graphs' other edges, each ascent or Newton step
is one numpy call over all rows, and one stationarity report gives every
result of the block.  Each row's value is summed once, over the edges
inside its face, and is its pairs' value on their graphs, since the row is
zero off the face; only a search with more than one pair within
``TIE_TOL`` of its best reads those pairs' first-order conditions on all
its graph's edges, to break the tie.  A block's edges are stacked once and
take one face solve: one search per graph on its route's faces, plus a
second search per cross-checked graph on its supports.  No row's
arithmetic depends on the rows beside it, and a multistart ascent reads
only its own graph's starts, so :func:`lagrangians` on a block gives
exactly what :func:`lagrangian` gives on each graph alone, and each
cross-check search the value that :func:`support_enumeration` gives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, reduce
from itertools import chain, combinations, islice
from math import comb
from typing import NamedTuple

import numpy as np

from laglab.hypergraph import RGraph, _colex_initial, difference_link, is_left_compressed

DEFAULT_SEED = 0xF2F2

TIE_TOL = 1e-9  # values within this of the best count as tied
KKT_TOL = 1e-8  # certification: largest equal-link residual and link excess
POSITIVE_EPS = 1e-10  # weights above this are in the support
CROSS_CHECK_MAX_ACTIVE = 6  # largest active vertex count given the cross-check
SUPPORT_BUDGET = 20_000  # vertex subsets support enumeration may inspect
NEWTON_ITERS = 60  # Newton steps per face row
STARTS = 32  # random Dirichlet starts of the multistart route
ASCENT_ITERS = 300  # multiplicative ascent steps per multistart start
# a face row's ascent hands off to Newton after FACE_ASCENT_ITERS steps or
# at the first step that moves no weight by FACE_ASCENT_STOP; a row that
# climbs long is nearly always blocked: its face's optimum lies on the
# face's boundary, which is another row's, and Newton fails it
FACE_ASCENT_ITERS = 30
FACE_ASCENT_STOP = 1e-4
START_ASCENT_STOP = 1e-13  # a multistart start's ascent ends below this movement
CHUNK_ROWS = 256  # distinct weight rows per batched face solve

# route names kept from earlier solvers for report and benchmark compatibility
METHOD_SYMMETRY = "symmetry_reduced"
METHOD_MULTISTART = "multistart_gradient"
METHOD_SUPPORT_ENUM = "support_enumeration"


@dataclass(frozen=True)
class SolverOptions:
    """Settings of :func:`lagrangian`: the random ``seed`` (0xF2F2) of the
    ``STARTS`` random starts.  It acts only on graphs that are not
    left-compressed; the prefix route draws no random starts.
    """

    seed: int = DEFAULT_SEED


@dataclass(frozen=True)
class LagrangianResult:
    value: float
    weighting: tuple[float, ...]
    support: int
    kkt_residual: float
    method: str
    certified: bool
    notes: tuple[str, ...] = ()


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
# Batched kernels on weight rows
# ---------------------------------------------------------------------------

class _GraphData:
    """Edges of graphs that share r and n (not necessarily m), each graph's
    in colex order, one graph after another in one (r, E) array of 0-based
    vertices: graph k's edges are the columns ``start[k]`` up to
    ``start[k + 1]``, and ``graph`` holds each column's graph.  Also the
    (G,) edge counts ``m`` and the (G, n) mask of each graph's active
    vertices; kernels run on weight rows through :class:`_Rows`."""

    def __init__(self, graphs: list[RGraph]):
        g = graphs[0]
        self.graphs = graphs
        self.r, self.n = g.r, g.n
        if all(h._picks is not None for h in graphs):
            # enumerated 3-graphs: the set bits of the stacked rank bitsets,
            # row by row, are the graphs' edges in colex order
            picks = np.frombuffer(b"".join(h._picks for h in graphs), np.uint8)
            bits = np.unpackbits(picks.reshape(len(graphs), -1), axis=1,
                                 count=comb(g.n, 3), bitorder="little")
            self.graph, rank = np.nonzero(bits)
            self.m = np.bincount(self.graph, minlength=len(graphs))
            self.vert = _rank_triples(g.n)[:, rank]
        else:
            self.m = np.fromiter((h.m for h in graphs), np.intp, len(graphs))
            edges = np.fromiter(chain.from_iterable(chain.from_iterable(
                h.sorted_edges() for h in graphs)), np.intp, self.m.sum() * g.r)
            self.vert = edges.reshape(-1, g.r).T.copy() - 1
            self.graph = np.repeat(np.arange(len(graphs)), self.m)
        self.start = np.concatenate([[0], np.cumsum(self.m)])
        self.active = np.zeros((len(graphs), g.n), bool)
        self.active[self.graph, self.vert] = True


@cache
def _rank_triples(n: int) -> np.ndarray:
    """The triples on [n] as 0-based vertex columns (3, C(n, 3)), column k
    the triple of colex rank k."""
    return (np.array(_colex_initial(3, comb(n, 3)), dtype=np.intp).T - 1).copy()


@cache
def _factors(r: int, k: int) -> list[np.ndarray]:
    """Factor j of :func:`_products`: for each k-set of the r edge positions,
    in :func:`combinations` order, the j-th position outside it."""
    return [np.array(col, dtype=np.intp) for col in zip(
        *([p for p in range(r) if p not in skip] for skip in combinations(range(r), k)))]


def _products(cols: np.ndarray, k: int) -> np.ndarray:
    """For each k-set of edge positions, in :func:`combinations` order, the
    elementwise product of the gathered positions ``cols[p]`` outside it,
    multiplied in increasing p."""
    factors = _factors(len(cols), k)
    if not factors:
        return np.ones((1,) + cols.shape[1:])
    out = cols[factors[0]]
    for idx in factors[1:]:
        out *= cols[idx]
    return out


class _Rows:
    """Kernels on weight rows x (R, n), or one row as a vector: row i weights
    graph ``owner[i]`` and is zero off ``support[i]`` (a boolean mask), so
    only edges inside the support enter its sums; the others would add exact
    zeros.  Gathers and scatters use flat indices into x and every sum runs
    in edge order within its row, so no row depends on the rows beside it."""

    def __init__(self, data: _GraphData, owner=(0,), support: np.ndarray | None = None):
        owner = np.asarray(owner, np.intp)
        self.shape = (owner.size, data.n)
        count = data.m[owner]  # each owner's edge range, gathered in order
        self.row = np.repeat(np.arange(owner.size), count)
        edge = np.repeat(data.start[owner] - np.cumsum(count) + count, count)
        edge += np.arange(edge.size)
        self.flat = np.take(data.vert, edge, axis=1)
        self.flat += self.row * data.n  # (r, N) indices into x.ravel()
        if support is not None:
            inside = support.ravel()[self.flat].all(axis=0)
            self.row, self.flat = self.row[inside], np.compress(inside, self.flat, axis=1)

    def subset(self, keep: np.ndarray) -> _Rows:
        """The kernels of the rows where ``keep`` holds, in order."""
        out = object.__new__(_Rows)
        out.shape = (int(keep.sum()), self.shape[1])
        sel = keep[self.row]
        out.row = (np.cumsum(keep) - 1)[self.row[sel]]
        shift = (self.row[sel] - out.row) * self.shape[1]
        out.flat = np.compress(sel, self.flat, axis=1) - shift
        return out

    def eval(self, x: np.ndarray) -> np.ndarray:
        monomials = _products(x.ravel()[self.flat], 0)[0]
        return np.bincount(self.row, monomials, minlength=self.shape[0])

    def grad(self, x: np.ndarray) -> np.ndarray:
        parts = _products(x.ravel()[self.flat], 1)
        return np.bincount(self.flat.ravel(), parts.ravel(),
                           minlength=x.size).reshape(x.shape)

    def pair(self, x: np.ndarray) -> np.ndarray:
        """Pair-link matrices (R, n, n): entry (i, j) of a row's matrix is the
        pair link at {i+1, j+1}."""
        size, n = self.shape
        cols, vert = x.ravel()[self.flat], self.flat - self.row * n
        idx = [self.row * n * n + vert[p] * n + vert[q]
               for p, q in combinations(range(len(cols)), 2)]
        parts = _products(cols, 2)
        h = np.bincount(np.concatenate(idx), parts.ravel(),
                        minlength=size * n * n).reshape(size, n, n)
        return h + h.transpose(0, 2, 1)


class _OneGraphRows:
    """Links of weight rows x (R, n) that all weight graph k of ``data`` and
    are positive on its every active vertex, as the multistart route's
    starts are, so every edge lies inside every row's support and no row is
    ever dropped from the kernel (:meth:`subset` returns it whole).  A
    vertex's link is then a sum over the graph's shadow, the (r-1)-sets that
    lie in an edge, of their weight products, and the links of all rows are
    one matrix product P @ M: P (R, S) holds the shadow products and M (S, n)
    the 0/1 incidence "s with i is an edge".  The shadow is listed once per
    edge position p, the sets an edge leaves without its vertex at p, each
    list in colex order, so each vertex meets its terms in the order
    :meth:`_Rows.grad` adds them; BLAS may still add them in another order,
    which depends only on the graph and the row count, so each row's ascent
    depends only on its own graph and starts."""

    def __init__(self, data: _GraphData, k: int):
        vert = data.vert[:, data.start[k]:data.start[k + 1]]
        weight = data.n ** np.arange(data.r - 1)[:, None]  # codes in colex order
        shadow, link = [], []
        for p in range(data.r):
            rest = np.delete(vert, p, axis=0)
            _, first, sets = np.unique((rest * weight).sum(axis=0), return_index=True,
                                       return_inverse=True)
            shadow.append(rest[:, first])
            link.append(np.zeros((first.size, data.n)))
            link[-1][sets.ravel(), vert[p]] = 1.0
        self.shadow, self.link = np.concatenate(shadow, axis=1), np.concatenate(link)

    def subset(self, keep: np.ndarray) -> _OneGraphRows:
        return self

    def grad(self, x: np.ndarray) -> np.ndarray:
        products = x[:, self.shadow[0]]
        for col in self.shadow[1:]:
            products = products * x[:, col]
        return products @ self.link


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
    return float(_Rows(_GraphData([g])).eval(_as_vector(g, x))[0])


def link_values(g: RGraph, x) -> np.ndarray:
    """Vector of link weights for every vertex (the gradient)."""
    return _Rows(_GraphData([g])).grad(_as_vector(g, x))


# ---------------------------------------------------------------------------
# Newton refinement of the equal-link system, one row per face
# ---------------------------------------------------------------------------

def _solve_rows(jac: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked linear solve and the mask of rows solved.  One singular matrix
    makes a stacked call raise; then the rows whose LU factorization has no
    zero pivot (``slogdet`` sign nonzero: the same factorization, whose zero
    pivot is what makes ``solve`` raise) are solved in one more call."""
    try:
        return np.linalg.solve(jac, rhs[:, :, None])[:, :, 0], np.ones(len(jac), bool)
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(jac)[0] != 0
    out = np.zeros_like(rhs)
    out[ok] = np.linalg.solve(jac[ok], rhs[ok, :, None])[:, :, 0]
    return out, ok


def _newton_rows(block: _Rows, x0: np.ndarray,
                 faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve equal link values on each row's face (a boolean mask) from x0,
    whose rows lie on their faces and sum to 1, with the rows' kernels
    ``block``; returns the points (zero rows where unsolved) and the mask of
    rows solved.

    A row's system: link(i) = mu on its face, weights sum to 1, weights off
    it zero; all rows take one stacked Newton step at a time, with identity
    rows off each face.  A row is solved once its residual is below 1e-14
    and every weight on its face is at least ``POSITIVE_EPS``.  It fails
    when the full step would take a weight below -1e-9 (that step is not
    taken), when its system is singular, or after ``NEWTON_ITERS`` steps.
    A row whose optimum lies on the boundary of its face may fail: that
    optimum lies on a smaller face, which is another row's (a smaller
    prefix, or another enumerable support)."""
    n = block.shape[1]
    out, solved = np.zeros_like(x0), np.zeros(len(x0), bool)
    row, sup, x = np.arange(len(x0)), faces, x0.copy()  # the rows still iterating
    grad, sf = block.grad(x), sup.astype(float)
    mu = (grad * sf).sum(axis=1) / sf.sum(axis=1)  # the mean link on the face
    for _ in range(NEWTON_ITERS):
        res, gap = (grad - mu[:, None]) * sf, x.sum(axis=1) - 1.0
        conv = np.maximum(np.abs(res).max(axis=1), np.abs(gap)) < 1e-14
        won = conv & (np.where(sup, x, 1.0).min(axis=1) >= POSITIVE_EPS)
        out[row[won]], solved[row[won]] = x[won], True
        if conv.any():  # converged rows end before any Jacobian is built
            go = ~conv
            if not go.any():
                break
            row, sup, sf, x, mu, res, gap = (a[go] for a in (row, sup, sf, x, mu, res, gap))
            block = block.subset(go)
        jac = np.zeros((len(x), n + 1, n + 1))
        jac[:, :n, :n] = block.pair(x) * (sf[:, :, None] * sf[:, None, :])
        jac[:, np.arange(n), np.arange(n)] += 1.0 - sf
        jac[:, :n, n], jac[:, n, :n] = -sf, sf
        delta, ok = _solve_rows(jac, -np.concatenate([res, gap[:, None]], axis=1))
        dx = delta[:, :n] * sf
        step = ok & ((x + dx).min(axis=1) >= -1e-9)
        if not step.all():  # rows that were blocked or singular end
            if not step.any():
                break
            row, sup, sf, x, mu = (a[step] for a in (row, sup, sf, x, mu))
            block = block.subset(step)
            dx, delta = dx[step], delta[step]
        x += dx
        mu += delta[:, n]
        grad = block.grad(x)
    return out, solved


def symmetry_classes(g: RGraph) -> list[list[int]]:
    """Group consecutive vertices with empty difference link into classes.

    Vertices i and i+1 fall in one class when no edge through i fails to
    shift onto i+1; for a left-compressed graph the members of a class are
    interchangeable and share a weight in some optimal weighting.
    """
    if not is_left_compressed(g):
        raise ValueError("symmetry classes require a left-compressed graph")
    classes = [[1]] if g.n else []
    for i in range(1, g.n):
        if difference_link(g, i, i + 1):
            classes.append([i + 1])
        else:
            classes[-1].append(i + 1)
    return classes


# ---------------------------------------------------------------------------
# Stationarity: the first-order conditions of a maximum on the simplex
# ---------------------------------------------------------------------------

class _Stationarity(NamedTuple):
    """First-order quantities of weight rows x (P, n) at their values, from
    one gradient per row."""

    grad: np.ndarray  # (P, n) links
    support: np.ndarray  # (P, n) mask of the weights above POSITIVE_EPS
    residual: np.ndarray  # (P,) max |link_i - r * value| over the support (0 if empty)
    link_excess: np.ndarray  # (P,) max_i link_i - r * value over every vertex

    def fails(self) -> np.ndarray:
        """Per row, whether it fails a first-order condition within ``KKT_TOL``.

        A maximum of the edge polynomial on the simplex has every link on its
        support equal to r * value and no link above it; these two conditions
        certify a result on every route.
        """
        return (self.residual > KKT_TOL) | (self.link_excess > KKT_TOL)

    def failure(self, i: int) -> tuple[str, ...]:
        """The first-order condition that row i fails within ``KKT_TOL``, as
        a result's note (no note when it fails none)."""
        if self.residual[i] > KKT_TOL:
            return (f"equal-link residual {self.residual[i]:.3g} on the support "
                    "exceeds kkt_tol",)
        if self.link_excess[i] > KKT_TOL:
            return (f"link of vertex {int(self.grad[i].argmax()) + 1} exceeds "
                    f"r * value by {self.link_excess[i]:.3g} (first-order condition)",)
        return ()


def _stationarity(r: int, grad: np.ndarray, x: np.ndarray,
                  value: np.ndarray) -> _Stationarity:
    """The one stationarity computation, from the gradients (P, n) at the
    rows x (P, n) with their values (P,): certification on every route, the
    face solve's judging and :func:`kkt_check` read it, so they agree on
    support and residual."""
    sup = x > POSITIVE_EPS
    target = r * value[:, None]
    residual = np.where(sup, np.abs(grad - target), 0.0).max(axis=1)
    return _Stationarity(grad, sup, residual, grad.max(axis=1) - target[:, 0])


def kkt_check(g: RGraph, x, value: float) -> KKTReport:
    """Stationarity report of x at ``value``: the equal-link residual,
    support (weights above ``POSITIVE_EPS``) and link excess that
    certification tests, whether an edge covers every pair of the support,
    and (for left-compressed graphs) the difference-link identity residual."""
    arr = check_legal_weighting(_as_vector(g, x))
    one = _Rows(_GraphData([g]))
    st = _stationarity(g.r, one.grad(arr[None]), arr[None], np.array([float(value)]))
    support = tuple(int(i) + 1 for i in np.flatnonzero(st.support[0]))
    cover = one.pair(np.ones(g.n))[0] > 0  # some edge holds both vertices
    eq2 = None
    if is_left_compressed(g):
        eq2 = 0.0
        pm = one.pair(arr)[0]
        for i, j in combinations(support, 2):
            lhs = (arr[i - 1] - arr[j - 1]) * pm[i - 1, j - 1]
            rhs = sum(np.prod([arr[v - 1] for v in a]) for a in difference_link(g, i, j))
            eq2 = max(eq2, abs(lhs - rhs))
    return KKTReport(
        residual=float(st.residual[0]),
        support=support,
        link_excess=float(st.link_excess[0]),
        pair_cover_ok=all(cover[i - 1, j - 1] for i, j in combinations(support, 2)),
        eq2_residual=eq2,
        link_values=tuple(st.grad[0].tolist()),
    )


# ---------------------------------------------------------------------------
# The main solver
# ---------------------------------------------------------------------------

def _empty_result(g: RGraph, method: str) -> LagrangianResult:
    """Value 0 at the uniform weighting; support counted as :func:`kkt_check` does."""
    weighting = tuple([1.0 / g.n] * g.n) if g.n else ()
    return LagrangianResult(
        value=0.0,
        weighting=weighting,
        support=sum(w > POSITIVE_EPS for w in weighting),
        kkt_residual=0.0,
        method=method,
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


@cache
def _prefix_faces(r: int, top: int) -> list[tuple[int, ...]]:
    """The prefix faces [r], ..., [top] as 1-based vertex tuples: one list,
    read but never changed, for every graph whose largest covered prefix is
    [top]."""
    return [tuple(range(1, j + 1)) for j in range(r, top + 1)]


def _multistart(data: _GraphData, k: int, opts: SolverOptions) -> tuple[list, float, np.ndarray]:
    """The multistart route's ascent for graph k of ``data``: the uniform
    point of its active vertices and ``STARTS`` Dirichlet random points
    on them climb by multiplicative ascent, on :class:`_OneGraphRows` of the
    graph: the starts are positive on every active vertex, so every edge
    lies inside every row, and one matrix product per step gives all their
    links, in BLAS order.  The end points' values rank them and are summed
    in edge order (:meth:`_Rows.eval`), since end points on a flat optimal
    set tie to the last bit and another order would rank them otherwise.
    Returns the candidate supports of the two best end points, the
    faces it hands :func:`_best_on_faces`, and the best end point's value
    and point, which :func:`lagrangians` keeps when no face yields a point or
    when it lies more than ``TIE_TOL`` above the face solution (a flat
    optimal set can leave Newton's Jacobian singular on the face that holds
    it)."""
    rng = np.random.default_rng(
        [opts.seed & 0xFFFFFFFFFFFFFFFF, data.graphs[k].canonical_hash()]
    )
    act = np.flatnonzero(data.active[k])
    starts = np.zeros((STARTS + 1, data.n))
    starts[0, act] = 1.0 / act.size
    starts[1:, act] = rng.dirichlet(np.ones(act.size), size=STARTS)
    ends = _replicator_rows(_OneGraphRows(data, k), starts, START_ASCENT_STOP, ASCENT_ITERS)
    end_vals = _Rows(data, np.full(len(ends), k)).eval(ends)
    order = np.argsort(-end_vals, kind="stable")
    faces = list(dict.fromkeys(
        face for idx in order[:2] for face in _candidate_supports(ends[idx])
    ))
    return faces, end_vals[order[0]], ends[order[0]]


def lagrangian(g: RGraph, opts: SolverOptions | None = None) -> LagrangianResult:
    """Maximize the edge polynomial of g over the simplex: :func:`lagrangians`
    on the one graph."""
    return lagrangians([g], opts)[0]


def lagrangians(graphs: list[RGraph],
                opts: SolverOptions | None = None) -> list[LagrangianResult]:
    """Maximize the edge polynomial of each of ``graphs`` (which share r and
    n, and may differ in m: a block of one or more cells of a window, empty
    graphs included) over the simplex; each result equals :func:`lagrangian`
    of its graph alone.  Graphs that differ in r or n raise ``ValueError``.

    A left-compressed graph has a non-increasing optimal weighting, so its
    optimum lies on a prefix face [k].  Some optimal weighting of least
    support covers every pair of its support with an edge (Frankl-Rodl,
    "Hypergraphs do not jump"); sorted, it stays optimal on a prefix [k],
    and the edge through the two largest vertices of its unsorted support
    dominates {1, ..., r-2, k-1, k}, which left-compression then puts in the
    graph.  So the prefix faces [r] ... [K] are solved, K the largest k with
    that edge (the covered k form an initial segment, and [r] is always an
    edge) (method ``symmetry_reduced``); the faces above [K] hold a pair in
    no edge.  Other graphs hand :func:`_best_on_faces` the faces their
    :func:`_multistart` ascent reveals (``multistart_gradient``).
    ``certified`` requires the first-order conditions of
    :meth:`_Stationarity.failure` within ``KKT_TOL`` and (for graphs
    with at most ``CROSS_CHECK_MAX_ACTIVE`` active vertices) agreement with
    :func:`support_enumeration` within 1e-8.

    One :class:`_GraphData` holds the block and one :func:`_best_on_faces`
    call solves it: a search per graph on its route's faces, then a second
    search per cross-checked graph on its enumerable supports, whose value
    is exactly that of :func:`support_enumeration` of the graph.  On the
    prefix faces it shares, the cross-check reads the very rows the prefix
    route solved; it adds information only through its other supports.  One
    :func:`_results` pass turns the block's points into its results.
    """
    opts = opts or SolverOptions()
    if len({(g.r, g.n) for g in graphs}) > 1:
        raise ValueError("stacked graphs must share r and n")
    if not all(g.m for g in graphs):  # an empty graph is left-compressed
        rest = iter(lagrangians([g for g in graphs if g.m], opts))
        return [next(rest) if g.m else _empty_result(g, METHOD_SYMMETRY) for g in graphs]
    if not graphs:
        return []
    data = _GraphData(list(graphs))

    size = len(data.graphs)
    prefix = np.array([is_left_compressed(g) for g in data.graphs])
    # K per graph: the largest top vertex of an edge {1, ..., r-2, k-1, k};
    # [r] is such an edge of every left-compressed graph, and its face
    # always has a solution; every graph here has an edge, so no segment
    # of the reduction is empty
    v = data.vert
    covers = (v[-1] == v[-2] + 1) & (v[:-2] == np.arange(data.r - 2)[:, None]).all(axis=0)
    top = np.maximum.reduceat(np.where(covers, v[-1] + 1, data.r), data.start[:-1])
    ends = {k: _multistart(data, k, opts) for k in np.flatnonzero(~prefix).tolist()}
    faces = [ends[k][0] if k in ends else _prefix_faces(data.r, t)
             for k, t in enumerate(top.tolist())]
    # a checked graph's second search takes all its enumerable supports, as
    # 2 ** CROSS_CHECK_MAX_ACTIVE subsets lie within SUPPORT_BUDGET
    checked = np.flatnonzero(data.active.sum(1) <= CROSS_CHECK_MAX_ACTIVE).tolist()
    found = _best_on_faces(data, [*range(size), *checked], faces + [
        _enumerable_supports(data.graphs[k])[0] for k in checked])
    for k, (_, value, x) in ends.items():
        if found[k] is None or value > found[k][0] + TIE_TOL:
            found[k] = (value, x)
    results = _results(data, range(size), np.array([x for _, x in found[:size]]),
                       np.where(prefix, METHOD_SYMMETRY, METHOD_MULTISTART).tolist())
    for k, check in zip(checked, found[size:]):
        res, value = results[k], 0.0 if check is None else check[0]
        if res.certified and abs(value - res.value) > 1e-8:
            results[k] = replace(res, certified=False, notes=(
                f"support enumeration disagrees: {value!r} vs {res.value!r}",))
    return results


def _results(data: _GraphData, owner, xs: np.ndarray,
             methods: list[str]) -> list[LagrangianResult]:
    """The result of graph ``owner[i]`` at ``xs[i]``, with method
    ``methods[i]``, for each row, from one batched stationarity report per
    ``CHUNK_ROWS`` rows: certified when the row meets the first-order
    conditions within ``KKT_TOL``."""
    out = []
    for lo in range(0, len(xs), CHUNK_ROWS):
        block, at = _Rows(data, owner[lo:lo + CHUNK_ROWS]), xs[lo:lo + CHUNK_ROWS]
        values = block.eval(at)
        st = _stationarity(data.r, block.grad(at), at, values)
        why = [st.failure(i) for i in range(len(at))]
        out += [LagrangianResult(value, tuple(x), support, residual, method, not w, w)
                for value, x, support, residual, method, w in zip(
                    values.tolist(), at.tolist(), st.support.sum(axis=1).tolist(),
                    st.residual.tolist(), methods[lo:lo + CHUNK_ROWS], why)]
    return out


# ---------------------------------------------------------------------------
# Cross-check route: support enumeration
# ---------------------------------------------------------------------------

def support_enumeration(g: RGraph) -> LagrangianResult:
    """Best stationary point found over all enumerable supports.

    Every candidate support of :func:`_enumerable_supports` (all pairs
    covered by an edge, every vertex in an edge inside the support, size at
    least r) is solved by :func:`_best_on_faces`, the face solve that both
    routes of :func:`lagrangian` use, so it differs from them only in which
    faces it tries.  Certified by the first-order conditions of
    :meth:`_Stationarity.failure`, and only when no more than
    ``SUPPORT_BUDGET`` vertex subsets had to be inspected.  This is the
    one-graph case of the cross-check search that :func:`lagrangians` runs
    inside its block's face solve, and has the same value.
    """
    if not g.m:
        return _empty_result(g, METHOD_SUPPORT_ENUM)
    data = _GraphData([g])
    supports, budget_hit = _enumerable_supports(g)
    found, = _best_on_faces(data, [0], [supports])
    if found is None:
        return replace(_empty_result(g, METHOD_SUPPORT_ENUM), certified=False,
                       notes=("no feasible stationary support found",))
    res, = _results(data, [0], found[1][None], [METHOD_SUPPORT_ENUM])
    if budget_hit:
        res = replace(res, certified=False,
                      notes=res.notes + ("support budget exceeded; partial result",))
    return res


def _enumerable_supports(g: RGraph) -> tuple[list[tuple[int, ...]], bool]:
    """The supports that :func:`support_enumeration` solves for g, and
    whether ``SUPPORT_BUDGET`` cut them short: among the first
    ``SUPPORT_BUDGET`` subsets of the active vertices (by size from r up,
    each size in :func:`combinations` order), those whose pairs all lie in
    an edge and whose vertices all lie in an edge inside them (vertex
    bitmasks)."""
    act = sorted({v for e in g.edges for v in e})
    subsets = chain.from_iterable(combinations(act, size) for size in range(g.r, len(act) + 1))
    pairs = {p for e in g.edges for p in combinations(e, 2)}
    bits = [sum(1 << v for v in e) for e in g.edges]
    masks = ((sup, sum(1 << v for v in sup)) for sup in islice(subsets, SUPPORT_BUDGET))
    return ([sup for sup, mask in masks if pairs.issuperset(combinations(sup, 2))
             and reduce(int.__or__, (b for b in bits if b | mask == mask), 0) == mask],
            next(subsets, None) is not None)


def _best_on_faces(data: _GraphData, graph,
                   faces: list[list[tuple[int, ...]]]) -> list[tuple[float, np.ndarray] | None]:
    """Per search i, the best stationary point (value, x) of graph
    ``graph[i]`` of ``data`` over the faces spanned by ``faces[i]`` (tuples
    of 1-based vertices); None when no face yields one.

    :func:`_solve_faces` solves each distinct row once.  A row is zero off
    its face, so each other edge of a pair's graph adds +0.0 to its sum: the
    row's value is the pair's value on its graph, bit for bit.  A search's
    band is its solved pairs whose values lie within ``TIE_TOL`` of its
    highest.  A band of one pair gives that pair; a larger band gives its
    pair of least :func:`_tie_key`, and only its pairs read their
    first-order conditions, on all their graph's edges.  So the point
    depends only on the set of the search's solved pairs, not on their
    order, and its value lies within ``TIE_TOL`` of the best one.
    """
    graph = np.asarray(graph, np.intp)
    search, which, xs, solved, row_value = _solve_faces(data, graph, faces)
    done = np.flatnonzero(solved[which])  # the solved pairs, search by search
    val = row_value[which[done]]
    heads = np.flatnonzero(np.diff(search[done], prepend=-1))  # each search's first pair
    top = np.repeat(np.maximum.reduceat(val, heads), np.diff(heads, append=done.size))
    band = done[val >= top - TIE_TOL]  # holds each search's maximum
    alone = np.bincount(search[band], minlength=len(faces))[search[band]] == 1
    pick = dict(zip(search[band[alone]].tolist(), which[band[alone]].tolist()))
    tied, ranked = band[~alone], {}
    for lo in range(0, tied.size, CHUNK_ROWS):
        part = tied[lo:lo + CHUNK_ROWS]
        rows, at = which[part], xs[which[part]]
        fails = _stationarity(data.r, _Rows(data, graph[search[part]]).grad(at), at,
                              row_value[rows]).fails()
        for k, fail, row in zip(search[part].tolist(), fails.tolist(), rows.tolist()):
            key = (_tie_key(fail, xs[row]), row)
            ranked[k] = min(ranked.get(k, key), key)
    pick.update((k, row) for k, (_, row) in ranked.items())
    return [(row_value[pick[k]].item(), xs[pick[k]]) if k in pick else None
            for k in range(len(faces))]


def _solve_faces(data: _GraphData, graph: np.ndarray,
                 faces: list[list[tuple[int, ...]]]) -> tuple[np.ndarray, ...]:
    """The face solve of :func:`_best_on_faces`: per (search, face) pair its
    ``search`` and row ``which``; per row its point ``xs`` and, where
    ``solved``, its ``vals``, summed over the edges inside its face.

    Each face gets a monotone multiplicative ascent from its uniform point,
    then a Newton solve of its equal-link system; plain Newton from the
    uniform point can land on a saddle, ascent cannot go below its start.
    The ascent hands a row to Newton once no weight moves by
    ``FACE_ASCENT_STOP`` or after ``FACE_ASCENT_ITERS`` steps, and Newton
    finishes the row or fails it (:func:`_newton_rows`).  The cap costs no
    solved row: the rows that climb long are blocked ones, whose optimum
    lies on a smaller face, and Newton fails them from wherever the ascent
    left them (on the t = 8 window solved cell by cell, 244 of 565 rows
    fail and take 14,121 of the 18,381 uncapped ascent row-steps).  A row
    may fail when its face's optimum lies on the face's boundary, since that
    optimum is another row's: a prefix face's lies on a smaller prefix face,
    an enumerable support's on a smaller enumerable support, and the
    multistart route's candidate faces come with the same faces peeled of
    their smallest weights and with the best end point as a fallback.
    A row's solve reads only the edges inside its face, so (search, face)
    pairs keyed by the face and the edges of their graph inside it share one
    row, solved once, whatever their graphs' other edges.  For a prefix face
    those edges are a slice of the graph's edges, those up to its largest
    vertex; a face that skips a vertex below its largest gathers them from
    that slice.  ``CHUNK_ROWS`` such rows go through together, their ascent,
    Newton and values on one :class:`_Rows` of the edges inside their faces.
    """
    n = data.n
    search = np.repeat(np.arange(len(faces)), [len(f) for f in faces])
    owner = graph[search]  # each pair's graph
    ids: dict[tuple[int, ...], int] = {}  # each distinct face, its mask and top vertex
    face = np.fromiter((ids.setdefault(f, len(ids)) for fs in faces for f in fs),
                       np.intp, owner.size)
    masks, top = np.zeros((len(ids), n), bool), np.zeros(len(ids), np.intp)
    for f, i in ids.items():
        masks[i, [v - 1 for v in f]], top[i] = True, max(f) - 1
    # the graphs lie in turn, each in colex order, which sorts by top vertex,
    # so a pair's edges up to its face's top vertex are one slice of the
    # edges; for a prefix face they are the edges inside it
    code = data.vert.T.astype(np.min_scalar_type(n))  # (E, r)
    los = data.start[owner]
    his = np.searchsorted(data.graph * n + data.vert[-1], owner * n + top[face], "right")
    holed = np.flatnonzero(masks.sum(axis=1)[face] <= top[face])  # faces that skip a vertex
    if holed.size:  # their edges inside, appended to the edges as slices of their own
        count = his[holed] - los[holed]
        pos = np.repeat(np.arange(holed.size), count)
        edge = np.repeat(los[holed] - np.cumsum(count) + count, count) + np.arange(pos.size)
        inside = masks[face[holed][pos], data.vert[:, edge]].all(axis=0)
        kept = np.bincount(pos[inside], minlength=holed.size)
        his[holed] = code.shape[0] + np.cumsum(kept)
        los[holed] = his[holed] - kept
        code = np.concatenate([code, code[edge[inside]]])
    width, blob = data.r * code.itemsize, code.tobytes()
    keys: dict[tuple[int, bytes], int] = {}  # a pair's key: its face and the edges inside it
    which = np.fromiter((keys.setdefault((f, blob[lo:hi]), len(keys)) for f, lo, hi in zip(
        face.tolist(), (los * width).tolist(), (his * width).tolist())), np.intp, owner.size)
    first = np.unique(which, return_index=True)[1]  # each row's first pair
    xs, solved, vals = np.zeros((first.size, n)), np.zeros(first.size, bool), np.zeros(first.size)
    for lo in range(0, first.size, CHUNK_ROWS):
        part = first[lo:lo + CHUNK_ROWS]
        mask = masks[face[part]]
        block = _Rows(data, owner[part], mask)
        ascended = _replicator_rows(block, mask / mask.sum(axis=1, keepdims=True),
                                    FACE_ASCENT_STOP, FACE_ASCENT_ITERS)
        x, ok = _newton_rows(block, ascended, mask)
        xs[lo:lo + part.size], solved[lo:lo + part.size] = x, ok
        vals[lo:lo + part.size][ok] = block.subset(ok).eval(x[ok])
    return search, which, xs, solved, vals


def _tie_key(fails: bool, x: np.ndarray) -> tuple:
    """Order of the points in a search's band in :func:`_best_on_faces`,
    least first: the first-order conditions met within ``KKT_TOL``, then the
    smaller support, then the lexicographically first support (a prefix,
    when one ties), then the lexicographically largest weighting."""
    sup = np.flatnonzero(x > POSITIVE_EPS)
    return fails, sup.size, sup.tolist(), (-x).tolist()


def _replicator_rows(block: _Rows | _OneGraphRows, rows: np.ndarray, stop: float,
                     iters: int) -> np.ndarray:
    """Batched multiplicative-update ascent x <- x * grad / (r * value) of
    the start ``rows``, with their kernels ``block``: a :class:`_Rows` for
    face rows, which sums in edge order, and the one matrix product of
    :class:`_OneGraphRows` for the multistart starts of one graph.

    Supports are invariant under the update and the value never decreases,
    so each row climbs within its own face of the simplex.  Rows whose value
    hits zero are left unchanged.  Each row stops on its own, after its first
    step that moves no weight by ``stop`` or more, or after ``iters`` steps,
    so its path depends only on its start and the edges inside its face
    (and, for multistart starts, on how many of its graph's starts still
    climb, which can change BLAS's summation order).
    Face rows stop at ``FACE_ASCENT_STOP`` (1e-4) or ``FACE_ASCENT_ITERS``
    (30) steps, since Newton finishes them or fails a row whose optimum is
    another row's, and those blocked rows are the ones that climb slowly;
    the loop runs until its slowest row stops, so the cap bounds each call.
    Multistart starts stop at ``START_ASCENT_STOP`` (1e-13) or
    ``ASCENT_ITERS`` (300) steps, since their end points choose the
    candidate faces and a coarse stop there leaves some general graphs on a
    lower face, uncertified.
    """
    x = rows.copy()
    live, xl = np.arange(len(x)), x  # rows still climbing
    for _ in range(iters):
        new = xl * block.grad(xl)
        totals = new.sum(axis=1, keepdims=True)
        new = np.divide(new, totals, out=xl.copy(), where=totals > 0)
        moved = np.abs(new - xl).max(axis=1) >= stop
        xl = new
        if not moved.all():
            x[live] = xl
            live, xl, block = live[moved], xl[moved], block.subset(moved)
            if not live.size:
                break
    x[live] = xl
    return x
