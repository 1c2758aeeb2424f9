"""Exact combinatorial substrate: edges, colex order, links, compression, posets.

Vertices are 1-based integers, edges are strictly increasing tuples, and
colex ranks are 0-based.  Everything here is exact integer combinatorics;
all numerics live in :mod:`laglab.solver`.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations, islice
from math import comb
from operator import ge, getitem, itemgetter, le
from typing import Callable, Iterable, Iterator

Edge = tuple[int, ...]


class UniformityError(ValueError):
    """Raised when edges of different sizes are mixed."""


class EdgeListParseError(ValueError):
    """Parse failure for the edge-list text format, with location info."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def as_edge(vertices: Iterable[int]) -> Edge:
    """Validate and normalize an edge: strictly increasing positive integers."""
    e = tuple(int(v) for v in vertices)
    if not e:
        raise ValueError("edge must be non-empty")
    if e[0] < 1:
        raise ValueError(f"vertex labels are 1-based, got {e[0]}")
    for a, b in zip(e, e[1:]):
        if a >= b:
            raise ValueError(f"edge vertices must be strictly increasing, got {e}")
    return e


# ---------------------------------------------------------------------------
# Colex order and the combinatorial number system
# ---------------------------------------------------------------------------

def colex_rank(edge: Edge) -> int:
    """0-based position of a sorted r-tuple in the colex order of all r-sets."""
    return sum(comb(v - 1, i + 1) for i, v in enumerate(edge))


def colex_unrank(r: int, rank: int) -> Edge:
    """Inverse of :func:`colex_rank`: the r-set at a given 0-based colex rank."""
    if r < 1:
        raise ValueError(f"uniformity must be >= 1, got {r}")
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    out = []
    rem = rank
    for i in range(r, 0, -1):
        v = i
        while comb(v, i) <= rem:
            v += 1
        # comb(v - 1, i) <= rem < comb(v, i)
        out.append(v)
        rem -= comb(v - 1, i)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# RGraph
# ---------------------------------------------------------------------------

# Each edge known valid, per uniformity, with its colex rank: sorting
# compares ranks, and RGraph checks only unknown edges.  Edges get in by
# passing RGraph's checks or from the tables that list them (triple poset,
# colex-initial r-sets).  Trust invariant: only enumerate_left_compressed
# calls RGraph._ordered, with the picks of a left-compressed 3-graph on [n]
# from the triple poset: bit k & 7 of byte k >> 3 of ceil(C(n,3)/8) bytes
# set iff the triple of rank k is an edge, read a byte at a time through
# _pick_table; the graph keeps its picks and builds the rest only when
# asked.  Only _ordered sets _m, so is_left_compressed trusts every graph
# whose _m is set.
_EDGE_RANK: dict[int, dict[Edge, int]] = {}


@dataclass(frozen=True)
class RGraph:
    """An r-uniform hypergraph on vertex set [n] with an immutable edge set."""

    r: int
    n: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    # not fields, so equality, hash, repr, asdict and pickling ignore them: the
    # edges in colex order once known, the packed rank bitset that chose them,
    # and the edge count of a trusted (so left-compressed) graph
    _order = _picks = _m = None

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"uniformity must be >= 2, got {self.r}")
        if self.n < 0:
            raise ValueError(f"vertex bound must be >= 0, got {self.n}")
        known = _EDGE_RANK.setdefault(self.r, {})
        for e in self.edges.difference(known):
            if len(e) != self.r:
                raise UniformityError(f"edge {e} has size {len(e)}, expected {self.r}")
            f = as_edge(e)
            if e != f:
                raise ValueError(f"edge {e} is not strictly increasing")
            known[f] = colex_rank(f)
        top = max(self.edges, key=itemgetter(-1), default=None)
        if top is not None and top[-1] > self.n:
            raise ValueError(f"edge {top} exceeds vertex bound n={self.n}")

    def __getattr__(self, name):
        # the edges field of a graph from _ordered, built on first access
        if name != "edges" or self._m is None:
            raise AttributeError(name)
        edges = self.__dict__["edges"] = frozenset(self._colex())
        return edges

    def __reduce__(self):
        # copies and unpickled graphs pass through __post_init__ too
        return type(self), (self.r, self.n, self.edges)

    @classmethod
    def _ordered(cls, n: int, m: int, picks: bytes) -> "RGraph":
        """Trusted: a left-compressed 3-graph on [n] of m registered edges,
        given as the packed bitset of their colex ranks."""
        g = object.__new__(cls)
        g.__dict__.update(r=3, n=n, _m=m, _picks=picks)
        return g

    def _colex(self) -> tuple[Edge, ...]:
        """The edges in colex order, selected or sorted at most once per graph."""
        if self._order is None:
            object.__setattr__(self, "_order", tuple(
                sorted(self.edges, key=_EDGE_RANK[self.r].__getitem__)
                if self._picks is None
                else chain.from_iterable(map(getitem, _pick_table(self.n, False), self._picks))))
        return self._order

    @classmethod
    def from_edges(cls, r: int, edges: Iterable[Iterable[int]], n: int | None = None) -> "RGraph":
        es = frozenset(as_edge(e) for e in edges)
        if n is None:
            n = max((e[-1] for e in es), default=0)
        return cls(r, n, es)

    @classmethod
    def complete(cls, r: int, t: int) -> "RGraph":
        """The complete r-graph on vertex set [t]."""
        return cls(r, t, frozenset(combinations(range(1, t + 1), r)))

    @property
    def m(self) -> int:
        return len(self.edges) if self._m is None else self._m

    def sorted_edges(self) -> list[Edge]:
        """Edges in canonical (colex) order: by :func:`colex_rank`."""
        return list(self._colex())

    def colex_ranks(self) -> list[int]:
        """The :func:`colex_rank` of every edge, ascending."""
        return list(map(_EDGE_RANK[self.r].__getitem__, self._colex()))

    def with_n(self, n: int) -> "RGraph":
        """Same edge set viewed on vertex set [n] (n may only grow or stay tight)."""
        return RGraph(self.r, n, self.edges)

    def canonical_bytes(self) -> bytes:
        return f"{self.r} {self.n} {self.m}:{','.join(map(str, self.colex_ranks()))}".encode()

    def canonical_hash(self) -> int:
        """Stable 64-bit content hash (independent of process hash seed)."""
        digest = hashlib.blake2b(self.canonical_bytes(), digest_size=8).digest()
        return int.from_bytes(digest, "big")


def _colex_initial(r: int, m: int) -> tuple[Edge, ...]:
    """The first m r-sets in colex order, listed without unranking: they lie
    in [n], n the least with C(n, r) >= m, and over the falling vertices of
    [n] :func:`combinations` lists the r-sets of [n] backwards in colex
    order, each set falling.  Enters them into the rank table, the k-th
    with rank k."""
    n = r
    while comb(n, r) < m:
        n += 1
    falling = list(combinations(range(n, 0, -1), r))
    edges = tuple(e[::-1] for e in islice(reversed(falling), m))
    _EDGE_RANK.setdefault(r, {}).update(zip(edges, range(m)))
    return edges


def build_colex_graph(r: int, m: int) -> RGraph:
    """The r-graph whose edges are the first m r-sets in colex order."""
    if m < 0:
        raise ValueError(f"edge count must be >= 0, got {m}")
    if r < 2:
        raise ValueError(f"uniformity must be >= 2, got {r}")
    edges = _colex_initial(r, m)
    return RGraph(r, edges[-1][-1] if edges else 0, frozenset(edges))


def complement(g: RGraph) -> RGraph:
    """All r-sets of [n] that are not edges, on the same vertex set."""
    full = set(combinations(range(1, g.n + 1), g.r))
    return RGraph(g.r, g.n, frozenset(full - g.edges))


# ---------------------------------------------------------------------------
# Links
# ---------------------------------------------------------------------------

def _check_vertex(g: RGraph, i: int) -> None:
    if not 1 <= i <= g.n:
        raise ValueError(f"vertex {i} out of range [1, {g.n}]")


def link(g: RGraph, i: int) -> frozenset[Edge]:
    """The (r-1)-sets completing vertex i to an edge."""
    _check_vertex(g, i)
    return frozenset(tuple(v for v in e if v != i) for e in g.edges if i in e)


def difference_link(g: RGraph, i: int, j: int) -> frozenset[Edge]:
    """The (r-1)-sets A with A+{i} an edge but A+{j} a non-edge (j not in A)."""
    _check_vertex(g, i)
    _check_vertex(g, j)
    out = []
    for a in link(g, i):
        if j in a:
            continue
        if tuple(sorted(a + (j,))) not in g.edges:
            out.append(a)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Left compression
# ---------------------------------------------------------------------------

def is_left_compressed(g: RGraph) -> bool:
    """True iff replacing any edge entry by any smaller unused label stays an edge.

    Lowering one entry by one, where that label is unused, reaches all of
    those replacements step by step, so only those steps (the
    :func:`direct_descendants`, cached per edge) are checked.  A graph from
    the enumeration is known to be left-compressed."""
    if g._m is not None:
        return True
    return g.edges.issuperset(chain.from_iterable(map(_direct_down, g.edges)))


def compress(g: RGraph) -> RGraph:
    """Left-compress by iterating (i, j)-shifts, i < j in lexicographic order.

    Each shift replaces j by i in every edge where the result is not already
    present; sweeps repeat until a fixpoint.  The edge count is preserved and
    the result is left-compressed.
    """
    edges = set(g.edges)
    changed = True
    while changed:
        changed = False
        for i in range(1, g.n):
            for j in range(i + 1, g.n + 1):
                moved = []
                for e in edges:
                    if j in e and i not in e:
                        f = tuple(sorted(i if v == j else v for v in e))
                        if f not in edges:
                            moved.append((e, f))
                if moved:
                    changed = True
                    for e, f in moved:
                        edges.discard(e)
                        edges.add(f)
    return RGraph(g.r, g.n, frozenset(edges))


# ---------------------------------------------------------------------------
# Descendant poset on sorted r-tuples
# ---------------------------------------------------------------------------

def descendants(edge: Edge) -> frozenset[Edge]:
    """All tuples componentwise <= the given one with a strictly smaller sum."""
    e = as_edge(edge)
    return frozenset(f for f in combinations(range(1, e[-1] + 1), len(e))
                     if f != e and all(map(le, f, e)))


def direct_descendants(edge: Edge) -> frozenset[Edge]:
    """Descendants whose coordinate sum is exactly one less (single decrements)."""
    e = as_edge(edge)
    out = set()
    for pos in range(len(e)):
        v = e[pos] - 1
        lower = e[pos - 1] if pos > 0 else 0
        if v > lower:
            out.add(e[:pos] + (v,) + e[pos + 1:])
    return frozenset(out)


_direct_down = cache(direct_descendants)  # the steps is_left_compressed checks, per edge


def ancestors(edge: Edge, within: int) -> frozenset[Edge]:
    """All tuples on [within] componentwise >= the given one with larger sum."""
    e = as_edge(edge)
    if e[-1] > within:
        raise ValueError(f"edge {e} exceeds bound {within}")
    return frozenset(f for f in combinations(range(e[0], within + 1), len(e))
                     if f != e and all(map(ge, f, e)))


# ---------------------------------------------------------------------------
# Enumeration of left-compressed 3-graphs (down-sets of the triple poset)
# ---------------------------------------------------------------------------

@cache
def _triple_poset(t: int) -> tuple[tuple[Edge, ...], list[int]]:
    """All triples on [t] in colex rank order and the up-set of each as a
    rank bitmask (the triple and all its ancestors)."""
    triples = _colex_initial(3, comb(t, 3))
    # an ancestor has the larger rank, so in falling rank order each mask is
    # whole before it passes down
    up = [1 << k for k in range(len(triples))]
    for k in range(len(triples) - 1, -1, -1):
        for d in direct_descendants(triples[k]):
            up[_EDGE_RANK[3][d]] |= up[k]
    return triples, up


@cache
def _pick_table(t: int, text: bool) -> tuple[tuple, ...]:
    """Per byte j of packed picks on [t] and value b, the triples of ranks
    8j .. 8j + 7 whose bits are set in b, in rank order: their edge-list lines
    joined (text) or a tuple; b's lowest bit's item plus the entry of the rest."""
    items = [" ".join(map(str, e)) + "\n" if text else (e,) for e in _triple_poset(t)[0]]
    rows = []
    for group in (items[j:j + 8] for j in range(0, len(items), 8)):
        rows.append(row := [items[0][:0]])
        for b in range(1, 1 << len(group)):
            row.append(group[(b & -b).bit_length() - 1] + row[b & b - 1])
    return tuple(map(tuple, rows))


def _downset_search(t: int, m: int) -> tuple[int, Callable[[int, int], list[tuple[int, int]]]]:
    """The search behind :func:`_downset_masks`: validates (t, m) and returns
    a, the number of ranks the up-set U must hold, and the branch rule, which
    maps a search state (U, floor) to its children (U', floor'), in the order
    they are tried.

    A down-set is the complement of an up-set U of a = C(t,3) - m ranks,
    and U is the up-set of its minimal triples.  Each level of the search
    picks the next minimal triple, the next rank to skip, above the last
    one; every rank in between that U does not hold yet is taken.  Skipping
    s puts the up-set of s into U, and the search yields at |U| = a.
    Colex order extends the descendant order, so where two sets first
    differ, the set that skips that rank has it as its next skip; trying
    next skips in falling rank order yields the sets in colex-prefix order
    (the set that takes the rank first), each exactly once.

    Every branch yields a set.  With b ranks of U left to fill, a skip at s
    is tried only if the c ranks it adds fit (c <= b) and at least b - 1
    free ranks lie above s.  The top b - c free ranks above s then complete
    U, since an ancestor of one of them is in U already or free and higher.
    Only ranks whose up-set has at most a ranks are ever tried.  A child
    depends only on the bits of U at and above the floor and on b.
    """
    if t < 3:
        raise ValueError(f"need t >= 3, got {t}")
    if not 0 <= m <= comb(t, 3):
        raise ValueError(f"need 0 <= m <= C({t},3)={comb(t, 3)}, got {m}")
    closure = _triple_poset(t)[1]
    total, a = len(closure), len(closure) - m
    candidates = sum(1 << k for k in range(total) if closure[k].bit_count() <= a)

    def children(up: int, floor: int) -> list[tuple[int, int]]:
        left, out = a - up.bit_count(), []
        options = (candidates & ~up) >> floor << floor
        while options:
            s = options.bit_length() - 1
            options ^= 1 << s
            if total - s - (up >> s).bit_count() >= left and (up | closure[s]).bit_count() <= a:
                out.append((up | closure[s], s + 1))
        return out

    return a, children


def _downset_masks(t: int, m: int) -> Iterator[int]:
    """Yield each size-m down-set of the triple poset on [t] as a rank
    bitmask, in colex-prefix order (see :func:`_downset_search`)."""
    a, children = _downset_search(t, m)
    full = (1 << comb(t, 3)) - 1

    def rec(up: int, floor: int) -> Iterator[int]:
        # a complete child is yielded here, in its parent's frame
        for child, low in children(up, floor):
            if child.bit_count() == a:
                yield full ^ child
            else:
                yield from rec(child, low)

    return rec(0, 0) if a else iter((full,))


def enumerate_left_compressed(t: int, m: int) -> Iterator[RGraph]:
    """All left-compressed 3-graphs on [t] with m edges, each exactly once."""
    masks, width = _downset_masks(t, m), (comb(t, 3) + 7) // 8
    for mask in masks:
        yield RGraph._ordered(t, m, mask.to_bytes(width, "little"))


def count_left_compressed(t: int, m: int) -> int:
    """Number of left-compressed 3-graphs on [t] with m edges: the leaves
    below the search's root, counted once per state (the bits of U at and
    above the floor, the floor, and the ranks still to place)."""
    a, children = _downset_search(t, m)
    memo: dict[tuple[int, int, int], int] = {}

    def leaves(up: int, floor: int) -> int:
        key = (up >> floor, floor, a - up.bit_count())
        if key not in memo:
            memo[key] = sum(1 if child.bit_count() == a else leaves(child, low)
                            for child, low in children(up, floor))
        return memo[key]

    return leaves(0, 0) if a else 1


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------

def serialize_edge_list(g: RGraph) -> str:
    """Canonical text form: header ``r n m`` then one edge per line, colex order."""
    if g._picks is None:
        return "\n".join([f"{g.r} {g.n} {g.m}", *(" ".join(map(str, e)) for e in g._colex()), ""])
    return f"{g.r} {g.n} {g.m}\n" + "".join(map(getitem, _pick_table(g.n, True), g._picks))


def parse_edge_list(text: str) -> RGraph:
    """Parse the edge-list text format; raises with line/column diagnostics."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise EdgeListParseError("missing header line 'r n m'", 1)
    head = _tokens(lines[0])
    if len(head) != 3:
        raise EdgeListParseError(
            f"header must be 'r n m', got {len(head)} fields", 1
        )
    for col, tok in head:
        if not _is_canonical_int(tok):
            raise EdgeListParseError(
                "header fields must be non-negative integers without leading zeros",
                1, col,
            )
    r, n, m = (int(tok) for _col, tok in head)
    if r < 2:
        raise EdgeListParseError(f"uniformity must be >= 2, got r={r}", 1, head[0][0])
    edges: set[Edge] = set()
    lineno = 1
    for lineno, raw in enumerate(lines[1:], start=2):
        toks = _tokens(raw)
        if not toks:
            continue
        for col, tok in toks:
            if not _is_canonical_int(tok):
                raise EdgeListParseError(
                    f"expected integer vertex without leading zeros, got {tok!r}",
                    lineno, col,
                )
        if len(toks) != r:
            raise EdgeListParseError(
                f"edge has {len(toks)} vertices, expected r={r}", lineno
            )
        e = tuple(int(tok) for _col, tok in toks)
        try:
            as_edge(e)
        except ValueError as exc:
            # at the first vertex not above the one before it (or above 0)
            k = next(k for k, (a, b) in enumerate(zip((0, *e), e)) if a >= b)
            raise EdgeListParseError(str(exc), lineno, toks[k][0]) from None
        k = bisect_right(e, n)  # the first vertex above n
        if k < r:
            raise EdgeListParseError(f"vertex {e[k]} exceeds n={n}", lineno, toks[k][0])
        if e in edges:
            raise EdgeListParseError("duplicate edge in list", lineno, toks[0][0])
        edges.add(e)
    if len(edges) != m:
        raise EdgeListParseError(
            f"header announced m={m} edges but {len(edges)} were given", lineno
        )
    return RGraph(r, n, frozenset(edges))


def _tokens(line: str) -> list[tuple[int, str]]:
    """Whitespace-separated tokens of a line with their 1-based columns."""
    return [(mt.start() + 1, mt.group()) for mt in re.finditer(r"\S+", line)]


def _is_canonical_int(tok: str) -> bool:
    """ASCII digits without a leading zero: ``int`` would also take signs,
    underscores, non-ASCII digits and leading zeros, which do not serialize
    back to the same text."""
    return tok.isascii() and tok.isdigit() and (tok == "0" or tok[0] != "0")
