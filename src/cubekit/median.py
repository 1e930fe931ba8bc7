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
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np


class GraphError(Exception):
    """Raised for malformed graph input (parse errors, loops, duplicates,
    vertex ids out of range)."""


class NotValidatedError(Exception):
    """Raised when an operation requires a validated median graph."""


CACHE_VERTEX_BUDGET = 3_000_000  # vertices held by one cache (sides)


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

    It is stored once, as numpy arrays: ``edges``, the (m, 2) int32 edges
    (lo < hi) in increasing order, a row per edge id; ``codes``, their
    int64 lo·n + hi, searched for edge ids; and the CSR adjacency, int32
    ``indptr`` and ``indices``, each neighbour list ascending; and
    ``frontier``, the truncation-frontier vertices, sorted int32 with no
    repeats.  The constructor takes any iterable of pairs, array rows or
    tuples for the edges, and any iterable of vertex ids for the frontier.

    ``validated`` is only set by :func:`check_median` or by builders that
    construct graphs median-by-construction (trees, hypercubes, products).
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 labels: Optional[Sequence[str]] = None,
                 frontier: Iterable[int] = ()):
        self.n = n
        ends = np.asarray(edges if isinstance(edges, np.ndarray)
                          else list(edges), np.int64).reshape(-1, 2)
        lo, hi = ends.min(1), ends.max(1)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():  # the first bad edge in input order
            u, v = ends[int(bad.argmax())].tolist()
            raise GraphError(f"loop edge at vertex {u}" if u == v
                             else f"edge ({u},{v}) out of range")
        codes = lo * n + hi
        if (codes[1:] <= codes[:-1]).any():
            order = np.argsort(codes, kind="stable")
            codes, lo, hi = codes[order], lo[order], hi[order]
            dup = codes[1:] == codes[:-1]
            if dup.any():  # the least duplicate
                i = int(dup.argmax())
                raise GraphError(f"duplicate edge {(int(lo[i]), int(hi[i]))}")
        f = np.sort(frontier if isinstance(frontier, np.ndarray)
                    else np.fromiter(frontier, np.int64))
        bad = f[(f < 0) | (f >= n)]  # sorted, so the least comes first
        if len(bad):
            raise GraphError(f"frontier vertex {int(bad[0])} out of range")
        self.frontier = f[np.diff(f, prepend=f[:1] - 1) > 0].astype(np.int32)
        self.edges = np.stack((lo, hi), 1).astype(np.int32)
        self.codes = codes
        # A vertex's lower neighbours (its edges as hi, in edge order, so
        # ascending) come before its higher ones (its edges as lo).
        owner = np.concatenate(self.edges[:, ::-1].T)
        self.indices = np.concatenate(self.edges.T)[
            np.argsort(owner, kind="stable")]
        self.indptr = np.zeros(n + 1, np.int32)
        np.cumsum(np.bincount(owner, minlength=n), out=self.indptr[1:])
        self.labels: tuple[str, ...] = tuple(labels) if labels is not None \
            else tuple(map(str, range(n)))
        if len(self.labels) != n:
            raise GraphError("label table length mismatch")
        self.validated = False
        self._arrangement = None  # set lazily by hyperplanes.arrangement()
        self._digest: Optional[str] = None
        self._dist0 = bfs_distances(self, [0]) if n else np.zeros(0, np.int32)
        self._dist0.flags.writeable = False
        if (self._dist0 < 0).any():
            raise GraphError("graph is disconnected")

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def label_index(self) -> dict[str, int]:
        """Vertex id of each label, built on first use."""
        return dict(zip(self.labels, range(self.n)))

    def neighbours(self, v: int) -> list[int]:
        """The neighbours of v, ascending."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]].tolist()

    def neighbours_of(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The neighbour lists of the vertices ``vs`` (an array),
        concatenated, and the length of each."""
        start = self.indptr[vs]
        counts = self.indptr[vs + 1] - start
        end = np.cumsum(counts)
        pos = np.repeat(start - end + counts, counts)
        return self.indices[pos + np.arange(len(pos))], counts

    def neighbour_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every pair v < w of neighbours of one vertex z, as int32 arrays
        (z, v, w)."""
        deg = np.diff(self.indptr)
        owner = np.repeat(np.arange(self.n, dtype=np.int32), deg)
        slot = np.arange(len(self.indices))
        end = self.indptr[1:][owner]
        # slots p < q = p + t of one neighbour list, for each t
        ps = [slot[slot + t < end] for t in range(1, deg.max(initial=1))]
        p = np.concatenate([slot[:0], *ps])
        q = np.concatenate([slot[:0], *(a + t for t, a in enumerate(ps, 1))])
        return owner[p], self.indices[p], self.indices[q]

    def edge_ids(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """:meth:`edge_id` over arrays: the id of each edge {u[i], v[i]},
        or -1 where the pair is not an edge."""
        u, v = np.asarray(u, np.int64), np.asarray(v, np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        code = lo * self.n + hi
        e = np.searchsorted(self.codes, code)
        found = (lo >= 0) & (hi < self.n) & (e < self.m)
        found[found] = self.codes[e[found]] == code[found]
        return np.where(found, e, -1)

    def edge_id(self, u: int, v: int) -> int:
        """Index of the edge {u, v} in ``edges``; KeyError if u and v are
        not adjacent vertices."""
        lo, hi = sorted((int(u), int(v)))
        code = lo * self.n + hi
        e = bisect_left(self.codes, code)
        if not (0 <= lo and hi < self.n and e < self.m
                and self.codes[e] == code):
            raise KeyError((lo, hi))
        return e

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.edge_ids([u], [v])[0] >= 0)

    def dist_from(self, src: int) -> np.ndarray:
        """BFS distance row from ``src`` (int32): the row made at
        construction for vertex 0, one BFS per call for any other source."""
        return self._dist0 if src == 0 else bfs_distances(self, [src])

    def dist(self, u: int, v: int) -> int:
        return int(self.dist_from(u)[v])

    def interval(self, u: int, v: int) -> frozenset[int]:
        """I(u, v): vertices on shortest u-v paths."""
        du, dv = self.dist_from(u), self.dist_from(v)
        return frozenset(np.flatnonzero(du + dv == du[v]).tolist())

    def is_bipartite(self) -> bool:
        """No edge joins two vertices equally far from vertex 0; exact
        because the graph is connected."""
        d = self._dist0[self.edges]
        return not (d[:, 0] == d[:, 1]).any()

    def digest(self) -> str:
        if self._digest is None:
            h = hashlib.sha256()
            lab, step = np.array(self.labels, object), 1 << 16  # rows/update
            for lo in range(0, self.n, step):
                rows = "\nv:".join(self.labels[lo:lo + step])
                h.update(f"v:{rows}\n".encode())
            for lo in range(0, self.m, step):
                u, v = self.edges[lo:lo + step].T
                h.update(join_rows("e:", lab[u], "|", lab[v], "\n").encode())
            self._digest = h.hexdigest()
        return self._digest

    def require_validated(self):
        if not self.validated:
            raise NotValidatedError("graph has not passed median validation")

    def _mark_validated(self):
        self.validated = True

    def __repr__(self):
        tag = "median" if self.validated else "unvalidated"
        return f"MedianGraph(n={self.n}, m={self.m}, {tag})"


# Up to this many vertices a BFS row comes from a deque over the CSR as
# Python lists, above it from numpy a level at a time: each level has a
# fixed cost of some tens of microseconds, the lists a cost linear in n.
_DEQUE_BFS_MAX = 1024


def bfs_distances(g: MedianGraph, sources: Iterable[int]) -> np.ndarray:
    """Distance from the nearest of ``sources`` to each vertex (int32, -1
    where unreachable)."""
    if g.n > _DEQUE_BFS_MAX:
        if not isinstance(sources, np.ndarray):
            sources = np.fromiter(sources, np.int64)
        return distance_rows(g, np.zeros(len(sources), np.int64), sources)[0]
    ptr, nbr = g.indptr.tolist(), g.indices.tolist()
    d = [-1] * g.n
    q = deque()
    for s in sources:
        if d[s] < 0:
            d[s] = 0
            q.append(s)
    while q:
        u = q.popleft()
        du1 = d[u] + 1
        for v in nbr[ptr[u]:ptr[u + 1]]:
            if d[v] < 0:
                d[v] = du1
                q.append(v)
    return np.array(d, np.int32)


def distance_rows(g: MedianGraph, rows: np.ndarray,
                  sources: np.ndarray) -> np.ndarray:
    """One level-synchronous BFS over a disjoint copy of g per result row:
    row r holds each vertex's distance from the nearest ``sources[i]``
    with ``rows[i] == r`` (int32, -1 where unreached)."""
    n, k = g.n, int(np.max(rows, initial=0)) + 1
    d = np.full(k * n, -1, np.int32)
    d[rows * n + sources] = 0  # vertex v of copy r is r·n + v
    first = np.empty(len(d), np.int32)
    front, level = np.flatnonzero(d == 0), 0
    while len(front):
        level += 1
        v = front % n
        nb, counts = g.neighbours_of(v)
        nb = nb + np.repeat(front - v, counts)  # into the copy of front
        nb = nb[d[nb] < 0]
        # keep once a vertex reached from several of this level's vertices
        first[nb] = np.arange(len(nb), dtype=np.int32)
        front = nb[first[nb] == np.arange(len(nb))]
        d[front] = level
    return d.reshape(k, n)


# -- file format ----------------------------------------------------------

def load_graph(text: str) -> MedianGraph:
    """Parse the line-oriented graph format.

    ``# ...`` comment, ``v <label>`` optional declaration, ``e <a> <b>``
    edge.  A comment of the form ``# frontier: <labels...>`` marks
    truncation-frontier vertices.  Dense ids are assigned in order of first
    appearance.  The first bad line is the error reported.  The returned
    graph is unvalidated.
    """
    index: dict[str, int] = {}  # in order of first appearance
    edges: set[tuple[int, int]] = set()
    frontier_labels: list[str] = []
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
            index.setdefault(parts[1], len(index))
        elif parts[0] == "e" and len(parts) == 3:
            a, b = (index.setdefault(lab, len(index)) for lab in parts[1:])
            if a == b:
                raise GraphError(f"line {lineno}: loop edge '{line}'")
            e = (a, b) if a < b else (b, a)
            if e in edges:
                raise GraphError(f"line {lineno}: duplicate edge '{line}'")
            edges.add(e)
        else:
            raise GraphError(f"line {lineno}: cannot parse '{line}'")
    frontier = []
    for lab in frontier_labels:
        if lab not in index:
            raise GraphError(f"frontier label '{lab}' is not a vertex")
        frontier.append(index[lab])
    return MedianGraph(len(index), edges, list(index), frontier)


def join_rows(*cols) -> str:
    """Rows i = 0, 1, … of cols[0][i] + cols[1][i] + …, joined; a column is
    an object array of str, or one str on every row.  Text and the graph
    digest's edge lines are built by this, over one f-string's bytes a line."""
    rows = next(len(c) for c in cols if not isinstance(c, str))
    out = np.empty((rows, len(cols)), object)
    for j, c in enumerate(cols):
        out[:, j] = c
    return "".join(out.ravel().tolist())


def graph_to_text(g: MedianGraph) -> str:
    lab, (u, v) = np.array(g.labels, object), g.edges.T
    text = join_rows("v ", lab, "\n") \
        + join_rows("e ", lab[u], " ", lab[v], "\n")
    if len(g.frontier):
        text += f"# frontier: {' '.join(lab[g.frontier])}\n"
    return text or "\n"  # an empty graph is one empty line


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

    Accept path (:func:`_satisfies_local_conditions`): median graphs are
    the 1-skeleta of CAT(0) cube complexes (Chepoi, "Graphs of some CAT(0)
    complexes", 2000), so by Gromov's link condition a connected graph is
    median iff it is bipartite, meets the quadrangle condition from vertex 0
    (its square complex is then simply connected), has no K_{2,3} and meets
    the 3-cube condition (its links are then flag; Bandelt–Chepoi, 2008).

    Reject path: any other graph is scanned for the lexicographically first
    triple whose medians, I(u,v) ∩ I(u,w) ∩ S_u((d(u,v) + d(u,w) − d(v,w))/2)
    with S_u(r) the sphere about u, are not one vertex (:func:`_scan_triples`),
    so the counterexample is schedule-independent.  On success the graph is
    marked validated.
    """
    if g.n == 0:
        raise GraphError("empty graph")
    bipartite = g.is_bipartite()
    if bipartite and _satisfies_local_conditions(g):
        g._mark_validated()
        return MedianCheckResult(True)
    res = _scan_triples(g)
    if res is None:
        raise AssertionError("median characterisation and triple scan "
                             "disagree")
    return MedianCheckResult(False, res, "triple without unique median"
                             if bipartite else "graph is not bipartite")


def _satisfies_local_conditions(g: MedianGraph) -> bool:
    """For a connected bipartite graph: True iff no two vertices have three
    common neighbours; whenever a wedge v–z–w has d(0,v) = d(0,w) =
    d(0,z) − 1, the other common neighbour x of v and w is at d(0,z) − 2;
    and wherever a corner z with neighbours a < b < c has squares z–a–x_ab–b,
    z–a–x_ac–c and z–b–x_bc–c, the common neighbour of x_ab and x_ac other
    than a, the only vertex that could close a 3-cube, is adjacent to x_bc."""
    table = key, z, v, w, x = _wedges(g)
    # Bipartite: a neighbour of z is at d(0,z) ± 1, and x at d(0,z) or
    # d(0,z) − 2 (x = -1 reads the last vertex, masked by x < 0).
    d, dz = g._dist0, g._dist0[z]
    if (key[2:] == key[:-2]).any() or \
            ((d[v] < dz) & (d[w] < dz) & ((x < 0) | (d[x] >= dz))).any():
        return False
    # Each square z–a–x_ab–b with each neighbour c > b of z: a < b < c.
    sq = np.flatnonzero(x >= 0)
    c, counts = g.neighbours_of(z[sq])
    s = np.repeat(sq, counts)
    s, c = s[c > w[s]], c[c > w[s]]
    x_ac = _other_corner(g, table, v[s], c, z[s])
    x_bc = _other_corner(g, table, w[s], c, z[s])
    cube = (x_ac >= 0) & (x_bc >= 0)
    y = _other_corner(g, table, x[s][cube], x_ac[cube], v[s][cube])
    return bool((g.edge_ids(y, x_bc[cube]) >= 0).all())


# (v, w) cells in one block of the reject scan, whatever the base point.
_SCAN_BLOCK_CELLS = 1 << 20


def _words(bits: np.ndarray) -> np.ndarray:
    """Bool rows packed into uint64 words, word-major: ``out[k, r]`` holds
    ``bits[r, 64k:64k + 64]``, the columns past the last padded with 0."""
    padded = np.zeros((len(bits), -(-bits.shape[1] // 64) * 64), bool)
    padded[:, :bits.shape[1]] = bits
    packed = np.packbits(padded, axis=1, bitorder="little")
    return np.ascontiguousarray(packed.view(np.uint64).T)


def _scan_triples(g: MedianGraph) -> Optional[tuple[int, int, int]]:
    """The lexicographically first triple u <= v <= w whose three intervals
    do not meet in exactly one vertex, or None.

    A vertex x of I(u,v) ∩ I(u,w) is on a v–w geodesic iff d(u,x) = γ,
    where 2γ = d(u,v) + d(u,w) − d(v,w): the medians are I(u,v) ∩ I(u,w) ∩
    S_u(γ), S_u(γ) the sphere about u, and there are none if 2γ is odd.
    Per u these sets are packed into uint64 words, and a block of v rows
    from lo tests each w >= lo at once: one median iff exactly one word is
    nonzero and it has one bit.  A cell w < v repeats (u, w, v), which is
    earlier in row-major order or was passed in an earlier block.
    """
    n = g.n
    d = distance_rows(g, np.arange(n), np.arange(n))
    for u in range(n):
        du = d[u]
        iv = _words(du + d[u:] == du[u:, None])  # row k: I(u, u + k)
        # row 2γ: the sphere S_u(γ); odd rows are empty
        sphere = _words(2 * du == np.arange(2 * du.max() + 1)[:, None])
        step = max(1, _SCAN_BLOCK_CELLS // (n - u))
        for lo in range(u, n, step):
            gamma2 = du[lo:lo + step, None] + du[lo:] - d[lo:lo + step, lo:]
            # nonzero words, plus one for each with two bits or more
            count = np.zeros(gamma2.shape, np.int32)
            for ik, sk in zip(iv[:, lo - u:], sphere):
                med = np.take(sk, gamma2) & ik[:step, None] & ik
                count += med != 0
                count += (med & (med - np.uint64(1))) != 0
            first = int((count != 1).argmax())
            if count.flat[first] != 1:
                v, w = divmod(first, n - lo)
                return (u, lo + v, lo + w)
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
    bad = np.argwhere(counts != 1)  # in lexicographic order
    bad = bad[(bad[:, 0] <= bad[:, 1]) & (bad[:, 1] <= bad[:, 2])]
    return tuple(bad[0].tolist()) if len(bad) else None


def median(g: MedianGraph, u: int, v: int, w: int) -> int:
    """The unique vertex in I(u,v) ∩ I(v,w) ∩ I(u,w)."""
    g.require_validated()
    du, dv, dw = g.dist_from(u), g.dist_from(v), g.dist_from(w)
    x = np.flatnonzero((du + dv == du[v]) & (dv + dw == dv[w])
                       & (du + dw == du[w]))
    if not len(x):
        raise AssertionError("validated graph has a medianless triple")
    return int(x[0])


# -- convexity and gates --------------------------------------------------

def is_convex(g: MedianGraph, s: Iterable[int]) -> bool:
    """True iff every interval between members of ``s`` stays in ``s``."""
    g.require_validated()
    members = sorted(set(s))
    if not members:
        raise ValueError("empty vertex set")
    outside = np.ones(g.n, bool)
    outside[members] = False
    rows = [g.dist_from(u) for u in members]
    for i, du in enumerate(rows):
        for v, dv in zip(members[i + 1:], rows[i + 1:]):
            if ((du + dv == du[v]) & outside).any():
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
    ms = np.array(sorted(members))
    dm = g.dist_from(v)[ms]
    best = int(dm.argmin())  # the least nearest member
    if (dm == dm[best]).sum() != 1:
        raise ValueError("no unique nearest point; set is not gated")
    return int(ms[best])


# -- the wedge table: squares and cubes ---------------------------------

def _wedges(g: MedianGraph) -> tuple[np.ndarray, ...]:
    """Every wedge v–z–w of g (v < w), sorted by key = v·n + w, as arrays
    (key, z, v, w, x), x the other common neighbour of v and w or -1.  The
    wedges of one pair are consecutive, so x is the corner of the next or
    the last.  A tree (a connected graph with m = n − 1) has no square and
    gets an empty table: no vertex of it has two neighbours nearer vertex 0,
    so the local rule holds on it vacuously."""
    if g.m == g.n - 1:
        z = np.zeros(0, np.int32)
        return np.zeros(0, np.int64), z, z, z, z
    z, v, w = g.neighbour_pairs()
    key = v.astype(np.int64) * g.n + w
    order = np.argsort(key)
    key, z, v, w = key[order], z[order], v[order], w[order]
    same = key[1:] == key[:-1]
    x = np.full(len(z), -1, np.int32)
    x[:-1][same], x[1:][same] = z[1:][same], z[:-1][same]
    return key, z, v, w, x


def _other_corner(g: MedianGraph, table: tuple[np.ndarray, ...],
                  u: np.ndarray, t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """For wedges u–c–t of g (arrays) and g's wedge table: the common
    neighbour of u and t other than c, or -1."""
    key, z, _, _, x = table
    i = np.searchsorted(key, np.minimum(u, t).astype(np.int64) * g.n
                        + np.maximum(u, t))
    return np.where(z[i] == c, x[i], z[i])


def squares(g: MedianGraph) -> np.ndarray:
    """All 4-cycles (a, b, c, d), a the least corner, b < d, (a, b, c, d)
    cyclic, in increasing order, as an int32 (s, 4) array: two wedges
    b–a–d and b–c–d of one pair b < d, a < b.  A pair has at most two
    wedges in a median graph; every two are paired, so a K_{2,3} (in a
    graph marked validated by hand) yields all of its squares."""
    key, z, v, w, _ = _wedges(g)
    out, t = [np.zeros((0, 4), np.int32)], 1
    while len(i := np.flatnonzero(key[t:] == key[:-t])):
        a, c = np.minimum(z[i], z[i + t]), np.maximum(z[i], z[i + t])
        out.append(np.stack((a, v[i], c, w[i]), 1)[a < v[i]])
        t += 1
    sq = np.concatenate(out)
    return sq[np.lexsort(sq[:, [2, 3, 1, 0]].T)]


def enumerate_cubes(g: MedianGraph, dim: int) -> list[tuple[int, ...]]:
    """All induced subgraphs isomorphic to the ``dim``-cube, as sorted
    vertex tuples in lexicographic order, each reported once.

    A cube of a median graph is gated, so it has one corner z nearest
    vertex 0, and its dim edges at z go up (away from vertex 0).  Links are
    flag, so any dim up-edges at z every two of which span a square span a
    cube.  A cube is a row over the subsets S of its up-edges at z, taken in
    increasing order of their far ends (bit i for the i-th): column 0 is z,
    column S + i the corner opposite column S − b in the square on columns
    S and S − b + i, b the least bit of S.
    """
    g.require_validated()
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if dim == 1:  # the edges themselves
        return list(map(tuple, g.edges.tolist()))
    d = g.dist_from(0)
    table = _, z, v, w, x = _wedges(g)
    cubes = np.stack((z, v, w, x), 1)[(x >= 0) & (d[v] > d[z])
                                      & (d[w] > d[z])]
    for k in range(2, dim):
        # a new up-edge at z, to a vertex above the last one's far end
        c, counts = g.neighbours_of(cubes[:, 0])
        cubes = np.repeat(cubes, counts, 0)
        up = (d[c] > d[cubes[:, 0]]) & (c > cubes[:, 1 << (k - 1)])
        cubes = cubes[up]
        half = np.empty_like(cubes)
        half[:, 0] = c[up]
        for s in range(1, 1 << k):
            b = s & -s
            col = _other_corner(g, table, cubes[:, s], half[:, s ^ b],
                                cubes[:, s ^ b])
            keep = col >= 0
            cubes, half = cubes[keep], half[keep]
            half[:, s] = col[keep]
        cubes = np.concatenate((cubes, half), 1)
    cubes = np.sort(cubes, 1)
    return list(map(tuple, cubes[np.lexsort(cubes.T[::-1])].tolist()))
