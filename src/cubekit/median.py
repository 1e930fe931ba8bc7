"""Median graphs: the 1-skeleta we compute with.

A median graph is a connected graph in which every vertex triple (u, v, w)
has a unique vertex lying simultaneously on shortest paths between each
pair.  All geometric structure used elsewhere in the package (hyperplanes,
halfspaces, gates, dual complexes) is derived from this combinatorial
property, with the graph metric playing the role of the ambient distance.

Vertices are dense integer ids.  Original labels from input files are kept
in a side table for reporting.  Graphs are immutable once built; every
query here is a pure function of the graph.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional, Sequence

import numpy as np


class GraphError(Exception):
    """Raised for malformed graph input (parse errors, loops, duplicates,
    vertex ids out of range)."""


class NotValidatedError(Exception):
    """Raised when an operation requires a validated median graph."""


CACHE_VERTEX_BUDGET = 3_000_000  # vertices held by one cache (sides, below)


def cache_put(cache: dict, load: int, key, value) -> int:
    """Store ``value`` (a per-vertex collection) under ``key``, evicting the
    oldest entries first until the cache holds at most CACHE_VERTEX_BUDGET
    vertices; returns the new load."""
    while cache and load + len(value) > CACHE_VERTEX_BUDGET:
        load -= len(cache.pop(next(iter(cache))))
    cache[key] = value
    return load + len(value)


class MedianGraph:
    """Immutable simple connected graph with optional median validation.

    ``validated`` is only set by :func:`check_median` or by builders that
    construct graphs median-by-construction (trees, hypercubes, products);
    ``validated_reason`` records which.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Optional[Sequence[str]] = None,
                 frontier: Iterable[int] = ()):
        self.n = n
        canon = []
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop edge at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        for e, f in zip(canon, islice(canon, 1, None)):
            if e == f:
                raise GraphError(f"duplicate edge {e}")
        self.frontier = frozenset(frontier)
        if self.frontier and not (0 <= min(self.frontier)
                                  and max(self.frontier) < n):
            bad = min(f for f in self.frontier if not 0 <= f < n)
            raise GraphError(f"frontier vertex {bad} out of range")
        self.edges: tuple[tuple[int, int], ...] = tuple(canon)
        # Filled from the sorted edges, so each list is already ascending:
        # its lower neighbours first, then its higher ones, whose edges are
        # consecutive in ``edges``.  So edge {u, v}, u < v, is
        # ``edges[self._edge_base[u] + adj[u].index(v)]``.
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self._edge_base = [0] * n
        for i, (u, v) in enumerate(self.edges):
            lower = self.adj[u]
            self._edge_base[u] = i - len(lower)
            lower.append(v)
            self.adj[v].append(u)
        self.labels: tuple[str, ...] = tuple(labels) if labels is not None \
            else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise GraphError("label table length mismatch")
        self.label_index = {lab: i for i, lab in enumerate(self.labels)}
        self.validated = False
        self.validated_reason: Optional[str] = None
        self._dist0 = bfs_distances(self.adj, [0]) if n else []
        self._arrangement = None  # set lazily by hyperplanes.arrangement()
        self._digest: Optional[str] = None
        if -1 in self._dist0:
            raise GraphError("graph is disconnected")

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_id(self, u: int, v: int) -> int:
        """Index of the edge {u, v} in ``edges``; KeyError if u and v are
        not adjacent vertices."""
        if u > v:
            u, v = v, u
        if 0 <= u and v < self.n:
            try:
                return self._edge_base[u] + self.adj[u].index(v)
            except ValueError:
                pass
        raise KeyError((u, v))

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and v in self.adj[u]

    def dist_from(self, src: int) -> list[int]:
        """BFS distance array from ``src``: the row made at construction
        for vertex 0, one BFS per call for any other source."""
        return self._dist0 if src == 0 else bfs_distances(self.adj, [src])

    def dist(self, u: int, v: int) -> int:
        return self.dist_from(u)[v]

    def interval(self, u: int, v: int) -> frozenset[int]:
        """I(u, v): vertices on shortest u-v paths."""
        du = self.dist_from(u)
        dv = self.dist_from(v)
        duv = du[v]
        return frozenset(x for x in range(self.n) if du[x] + dv[x] == duv)

    def is_bipartite(self) -> bool:
        """No edge joins two vertices equally far from vertex 0; exact
        because the graph is connected."""
        if self.n == 0:
            return True
        d = self.dist_from(0)
        return all(d[u] != d[v] for u, v in self.edges)

    def digest(self) -> str:
        if self._digest is None:
            h = hashlib.sha256()
            for lab in self.labels:
                h.update(b"v:" + lab.encode() + b"\n")
            for u, v in self.edges:
                h.update(f"e:{self.labels[u]}|{self.labels[v]}\n".encode())
            self._digest = h.hexdigest()
        return self._digest

    def require_validated(self):
        if not self.validated:
            raise NotValidatedError("graph has not passed median validation")

    def _mark_validated(self, reason: str):
        self.validated = True
        self.validated_reason = reason

    def __repr__(self):
        tag = "median" if self.validated else "unvalidated"
        return f"MedianGraph(n={self.n}, m={self.m}, {tag})"


def bfs_distances(adj: Sequence[Sequence[int]], sources: Iterable[int]) -> list[int]:
    n = len(adj)
    d = [-1] * n
    q = deque()
    for s in sources:
        if d[s] < 0:
            d[s] = 0
            q.append(s)
    while q:
        u = q.popleft()
        du1 = d[u] + 1
        for v in adj[u]:
            if d[v] < 0:
                d[v] = du1
                q.append(v)
    return d


# -- file format ----------------------------------------------------------

def load_graph(text: str) -> MedianGraph:
    """Parse the line-oriented graph format.

    ``# ...`` comment, ``v <label>`` optional declaration, ``e <a> <b>``
    edge.  A comment of the form ``# frontier: <labels...>`` marks
    truncation-frontier vertices.  Dense ids are assigned in order of first
    appearance.  The returned graph is unvalidated.
    """
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    frontier_labels: list[str] = []

    def vid(lab: str) -> int:
        i = index.get(lab)
        if i is None:
            i = len(labels)
            index[lab] = i
            labels.append(lab)
        return i

    lineno = 0
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("frontier:"):
                    frontier_labels.extend(body[len("frontier:"):].split())
                continue
            parts = line.split()
            if parts[0] == "v" and len(parts) == 2:
                vid(parts[1])
            elif parts[0] == "e" and len(parts) == 3:
                a, b = vid(parts[1]), vid(parts[2])
                if a == b:
                    raise GraphError(f"line {lineno}: loop edge '{line}'")
                edges.append((a, b) if a < b else (b, a))
            else:
                raise GraphError(f"line {lineno}: cannot parse '{line}'")
        lineno += 1  # the errors below come after every line
        frontier = []
        for lab in frontier_labels:
            if lab not in index:
                raise GraphError(f"frontier label '{lab}' is not a vertex")
            frontier.append(index[lab])
        return MedianGraph(len(labels), edges, labels, frontier)
    except GraphError:
        # The constructor finds duplicates without line numbers; a duplicate
        # on an earlier line is the error to report.
        dup = _first_duplicate_edge(text.splitlines()[:lineno - 1])
        if dup is None:
            raise
        raise dup from None


def _first_duplicate_edge(lines: list[str]) -> Optional[GraphError]:
    """The error naming the first edge line that repeats an earlier edge,
    or None; ``lines`` must hold no malformed line and no loop."""
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if len(parts) == 3 and parts[0] == "e":
            e = tuple(sorted(parts[1:]))
            if e in seen:
                return GraphError(
                    f"line {lineno}: duplicate edge '{raw.strip()}'")
            seen.add(e)
    return None


def graph_to_text(g: MedianGraph) -> str:
    lines = [f"v {lab}" for lab in g.labels]
    lines += [f"e {g.labels[u]} {g.labels[v]}" for u, v in g.edges]
    if g.frontier:
        labs = " ".join(g.labels[v] for v in sorted(g.frontier))
        lines.append(f"# frontier: {labs}")
    return "\n".join(lines) + "\n"


# -- median validation ----------------------------------------------------

@dataclass
class MedianCheckResult:
    ok: bool
    counterexample: Optional[tuple[int, int, int]] = None
    reason: str = ""

    def __bool__(self):
        return self.ok


def check_median(g: MedianGraph) -> MedianCheckResult:
    """Validate the median property, or return the first bad triple.

    Accept path: a connected graph is median iff it is bipartite, satisfies
    the quadrangle condition and contains no K_{2,3} (Mulder, *Discrete
    Math.* 24, 1978; Bandelt–Chepoi, "Metric graph theory and geometry: a
    survey", 2008).  Both conditions are read off the wedges v–z–w (see
    :func:`_wedges_satisfy_quadrangle`), against BFS distance rows taken a
    block of base points at a time.

    Reject path: only a graph that fails the test above is scanned triple by
    triple, in lexicographic order over packed interval bitsets, so the
    reported counterexample is schedule-independent.  On success the graph
    is marked validated.
    """
    if g.n == 0:
        raise GraphError("empty graph")
    bipartite = g.is_bipartite()
    if bipartite and _wedges_satisfy_quadrangle(g):
        g._mark_validated("quadrangle condition and no K2,3")
        return MedianCheckResult(True)
    res = _scan_triples(g)
    if res is None:
        raise AssertionError("median characterisation and triple scan "
                             "disagree")
    return MedianCheckResult(False, res, "triple without unique median"
                             if bipartite else "graph is not bipartite")


# Each block of base points is sized so that one wedge-distance table holds
# about this many cells (4 MiB as int32), whatever the number of wedges.
_WEDGE_BLOCK_CELLS = 1 << 20


def _wedges(g: MedianGraph) -> tuple[np.ndarray, ...]:
    """Every wedge v–z–w (v < w) as index arrays (v, z, w, x), where x is
    another common neighbour of v and w, or -1 if z is the only one."""
    common: dict[tuple[int, int], list[int]] = {}
    for z, nbrs in enumerate(g.adj):
        for i, v in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                common.setdefault((v, w), []).append(z)
    vs, zs, ws, xs = [], [], [], []
    for (v, w), mids in common.items():
        for z in mids:
            others = [y for y in mids if y != z]
            vs.append(v)
            zs.append(z)
            ws.append(w)
            xs.append(others[0] if others else -1)
    return tuple(np.array(a, dtype=np.intp) for a in (vs, zs, ws, xs))


def _wedges_satisfy_quadrangle(g: MedianGraph) -> bool:
    """For a connected bipartite graph: True iff there is no K_{2,3} and
    every base point u satisfies the quadrangle condition — whenever a wedge
    v–z–w has d(u,v) = d(u,w) = d(u,z) − 1, the other common neighbour x of
    v and w exists and has d(u,x) = d(u,z) − 2.  A K_{2,3} needs no test of
    its own: if v and w have common neighbours a, b, c, the wedge through a
    with x = b fails at u = c, where d(c,b) = d(c,a) = 2."""
    v, z, w, x = _wedges(g)
    if not z.size:
        return True
    has_x = x >= 0
    x = np.where(has_x, x, 0)
    step = max(1, _WEDGE_BLOCK_CELLS // len(z))
    for lo in range(0, g.n, step):
        d = np.array([bfs_distances(g.adj, [u])
                      for u in range(lo, min(lo + step, g.n))],
                     dtype=np.int32)
        dz = d[:, z]
        # Bipartite: a neighbour of z is at d(u,z) ± 1, and x is at
        # d(u,z) or d(u,z) − 2.
        below = (d[:, v] < dz) & (d[:, w] < dz)
        if (below & ~(has_x & (d[:, x] < dz))).any():
            return False
    return True


# Set bits of each byte value: popcount without np.bitwise_count (numpy 2).
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


# Bytes of interval rows that the reject scan keeps between base points.
_SCAN_ROW_BUDGET = 1 << 28


def _scan_triples(g: MedianGraph) -> Optional[tuple[int, int, int]]:
    """The lexicographically first triple u <= v <= w whose three intervals
    do not meet in exactly one vertex, or None.

    Row k of ``intervals(a)`` is I(a, a + k) packed into bits, so for fixed
    (u, v) every w >= v is tested by one AND and one table popcount.  Every
    u reads the rows of each a >= u, so the rows of the largest a are kept,
    up to _SCAN_ROW_BUDGET bytes (all of them while n³/16 fits); the others
    are recomputed for each u.
    """
    n = g.n
    d = np.array([bfs_distances(g.adj, [u]) for u in range(n)],
                 dtype=np.int32)
    keep_from, held = n, 0
    while keep_from > 0:
        size = (n - keep_from + 1) * ((n + 7) // 8)
        if held + size > _SCAN_ROW_BUDGET:
            break
        keep_from -= 1
        held += size
    rows: dict[int, np.ndarray] = {}

    def intervals(a: int) -> np.ndarray:
        r = rows.get(a)
        if r is None:
            r = np.packbits(d[a] + d[a:] == d[a, a:, None], axis=1)
            if a >= keep_from:
                rows[a] = r
        return r

    for u in range(n):
        iu = intervals(u)
        for v in range(u, n):
            k = v - u
            med = iu[k] & intervals(v) & iu[k:]
            bad = np.flatnonzero(_POPCOUNT[med].sum(axis=1) != 1)
            if bad.size:
                return (u, v, v + int(bad[0]))
        rows.pop(u, None)
    return None


def brute_force_median_oracle(g: MedianGraph) -> Optional[tuple[int, int, int]]:
    """Independent oracle: tensor count of medians per triple via numpy.

    Returns the lexicographically first triple whose median count is not 1,
    or None.  Kept structurally separate from :func:`check_median` so the
    two can cross-check each other.
    """
    n = g.n
    D = np.array([g.dist_from(v) for v in range(n)], dtype=np.int64)
    # B[a, b, x] == 1 iff x lies on a geodesic from a to b.
    B = (D[:, None, :] + D[None, :, :] == D[:, :, None]).astype(np.uint8)
    counts = np.einsum("uvx,vwx,uwx->uvw", B, B, B)
    bad = np.argwhere(counts != 1)
    best = None
    for u, v, w in bad:
        if u <= v <= w:
            t = (int(u), int(v), int(w))
            if best is None or t < best:
                best = t
    return best


def median(g: MedianGraph, u: int, v: int, w: int) -> int:
    """The unique vertex in I(u,v) ∩ I(v,w) ∩ I(u,w)."""
    g.require_validated()
    du, dv, dw = g.dist_from(u), g.dist_from(v), g.dist_from(w)
    duv, dvw, duw = du[v], dv[w], du[w]
    for x in range(g.n):
        if du[x] + dv[x] == duv and dv[x] + dw[x] == dvw and du[x] + dw[x] == duw:
            return x
    raise AssertionError("validated graph has a medianless triple")


# -- convexity and gates --------------------------------------------------

def is_convex(g: MedianGraph, s: Iterable[int]) -> bool:
    """True iff every interval between members of ``s`` stays in ``s``."""
    g.require_validated()
    members = sorted(set(s))
    if not members:
        raise ValueError("empty vertex set")
    mset = set(members)
    rows = [g.dist_from(u) for u in members]
    for i, du in enumerate(rows):
        for v, dv in zip(members[i + 1:], rows[i + 1:]):
            duv = du[v]
            for x in range(g.n):
                if x not in mset and du[x] + dv[x] == duv:
                    return False
    return True


def gate(g: MedianGraph, s: Iterable[int], v: int, *,
         assume_convex: bool = False) -> int:
    """Nearest-point projection of ``v`` onto the convex set ``s``.

    The gate is the unique nearest member and lies on every shortest path
    from ``v`` into ``s``.  Raises ``ValueError`` for non-convex input
    (skipped when ``assume_convex`` is set by callers that already know).
    """
    g.require_validated()
    members = set(s)
    if not members:
        raise ValueError("empty vertex set")
    if not assume_convex and not is_convex(g, members):
        raise ValueError("gate requires a convex vertex set")
    dv = g.dist_from(v)
    best = min(members, key=lambda x: (dv[x], x))
    ties = [x for x in members if dv[x] == dv[best]]
    if len(ties) != 1:
        raise ValueError("no unique nearest point; set is not gated")
    return best


# -- cube enumeration -----------------------------------------------------

def enumerate_cubes(g: MedianGraph, dim: int) -> list[tuple[int, ...]]:
    """All induced subgraphs isomorphic to the ``dim``-cube, as sorted
    vertex tuples in lexicographic order, each reported once."""
    g.require_validated()
    if dim < 1:
        raise ValueError("dim must be >= 1")
    # dimension 1: the edges themselves.
    cubes = {frozenset(e) for e in g.edges}
    for _ in range(dim - 1):
        cubes = _extend_cubes(g, cubes)
        if not cubes:
            break
    out = sorted(tuple(sorted(c)) for c in cubes)
    return out


def _extend_cubes(g: MedianGraph, cubes: set[frozenset[int]]) -> set[frozenset[int]]:
    """(k+1)-cubes as matched parallel pairs of k-cubes."""
    bigger: set[frozenset[int]] = set()
    root = -1
    for cube in sorted(cubes, key=min):  # the cubes of one root share a row
        if min(cube) != root:
            root = min(cube)
            droot = g.dist_from(root)
        order = sorted(cube, key=lambda x: (droot[x], x))
        for w0 in g.adj[root]:
            if w0 in cube:
                continue
            t = {root: w0}
            ok = True
            for x in order[1:]:
                # image of x: a neighbor of x adjacent to images of all
                # already-mapped cube-neighbors of x
                req = [t[y] for y in g.adj[x] if y in t and y in cube]
                cands = [z for z in g.adj[x]
                         if z not in cube and z != x
                         and all(g.has_edge(z, r) for r in req)]
                cands = [z for z in cands if z not in t.values()]
                if len(req) == 0 or len(cands) != 1:
                    ok = False
                    break
                t[x] = cands[0]
            if not ok:
                continue
            new = cube | set(t.values())
            if len(new) != 2 * len(cube):
                continue
            if _is_induced_cube(g, new):
                bigger.add(frozenset(new))
    return bigger


def _is_induced_cube(g: MedianGraph, verts: set[int]) -> bool:
    k = (len(verts)).bit_length() - 1
    if len(verts) != 1 << k:
        return False
    inner = 0
    for u in verts:
        deg = sum(1 for v in g.adj[u] if v in verts)
        if deg != k:
            return False
        inner += deg
    return inner == k * (1 << k)
