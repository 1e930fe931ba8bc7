"""Hyperplanes of a median graph via the square-opposition edge relation.

Two edges are parallel if they are opposite sides of some 4-cycle; the
transitive closure partitions edges into classes.  Each class is a
hyperplane: deleting its edges splits the graph into exactly two convex
sides (the halfspaces).  Every edge of a class is stored with a consistent
orientation, so "which side of hyperplane c does the head of this oriented
edge lie on" is an O(1) lookup.  Relations and memberships build no side
(see below).  Only :attr:`Halfspace.vertices`, :func:`hyperplane_report` and
``sageev.wallspace_of_graph`` materialise side vertex sets, which are
cached; a side away from vertex 0 costs O(|side|) (see
:meth:`Arrangement.side_vertices`).

Membership and distance have one primitive, :meth:`Arrangement.separators`,
the classes separating vertex 0 from v, read off one walk down the vertex-0
distance row.  v lies on the far side of class c (the side without vertex 0)
iff c separates it from vertex 0 (:meth:`Halfspace.contains`), and a median
graph is a partial cube, so d(u, v) = |separators(u) △ separators(v)|
(Bandelt–Chepoi 2008).  Nesting and disjointness build no side either:
``below(c)`` is the set of classes separating vertex 0 from the near end of
c's least edge.  For two distinct, non-crossing classes c and d, exactly one
of the four intersections of their sides is empty, and it is never the one
of the two near sides (both hold vertex 0).  The far side of c lies inside
the far side of d iff d is in ``below(c)``: halfspaces are convex, so an
edge of c lies wholly on one side of d, and a geodesic from vertex 0 crosses
each class separating its ends exactly once.  Every other disjointness and
nesting case follows from which intersection is empty.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .median import MedianGraph, cache_put


class HyperplaneError(Exception):
    pass


_NO_CROSS: frozenset[int] = frozenset()  # shared by every uncrossed class


class EdgeArrays(NamedTuple):
    """Per-edge tables of an arrangement as numpy arrays, indexed by edge
    id and kept from construction, so that batched transports do not
    rebuild them per call."""
    edge_class: np.ndarray   # int32 class id, as ``Arrangement.edge_class``
    orientation: np.ndarray  # int32 (m, 2) (tail, head), as ``orientation``
    code: np.ndarray         # int64 lo * n + hi of g.edges: increasing


class Arrangement:
    """All hyperplane classes of one validated median graph.

    Storage is flat: a class that crosses nothing owns no Python object.

    Attributes:
      squares: list of (a, b, c, d) 4-cycles, a minimal, (a,b,c,d) cyclic.
      edge_class: class id per edge id (the edge's index in ``g.edges``,
        found with ``g.edge_id``); classes are numbered by least edge.
      edges_by_class, class_start: the class edges in CSR form, as int32
        arrays: class c owns
        ``edges_by_class[class_start[c]:class_start[c + 1]]``, in
        increasing edge order, so its least edge comes first.  Read a
        class with :meth:`class_edges`.
      orientation: per edge, the (tail, head) order consistent within its
        class; side 1 of a class is the side containing every head.  It
        reads the graph's kept distance row from vertex 0
        (``g.dist_from(0)``, made when the graph was built) and runs no BFS
        of its own: each edge points away from vertex 0, which is
        consistent on every class of a median graph
        (Djoković–Winkler), and a class whose least edge then points from
        its higher to its lower end is flipped, so every least edge reads
        low -> high.  Edges that keep the ``g.edges`` order share its tuple.
      cross: per class, the frozenset of classes it crosses; every class
        that crosses nothing shares one empty frozenset.
      edge_arrays: ``edge_class``, ``orientation`` and the edge codes as
        numpy arrays (:class:`EdgeArrays`), for batched transports.
    """

    def __init__(self, g: MedianGraph):
        g.require_validated()
        self.graph = g
        self.squares = _find_squares(g)
        self._build_classes()
        self._side_cache: dict[tuple[int, int], frozenset[int]] = {}
        self._side_cache_load = 0
        self._below_cache: dict[int, frozenset[int]] = {}
        self._below_cache_load = 0

    # -- construction -----------------------------------------------------

    def _build_classes(self):
        g = self.graph
        m = g.m
        eid = g.edge_id
        corners = np.array(self.squares, dtype=np.int64).reshape(-1, 4)
        # square sides (a,b), (b,c), (d,c), (a,d); a is the least corner,
        # (a,b) is opposite (d,c) and (b,c) is opposite (a,d)
        sides = np.array(
            [(eid(a, b), eid(b, c), eid(d, c), eid(a, d))
             for a, b, c, d in self.squares], dtype=np.int64).reshape(-1, 4)

        # Union-find over the opposition links; the least edge is the root.
        parent = list(range(m))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ab, bc, dc, ad in sides.tolist():
            for e, f in ((ab, dc), (bc, ad)):
                r, s = find(e), find(f)
                if r != s:
                    parent[max(r, s)] = min(r, s)
        least = [find(e) for e in range(m)] if len(sides) else parent
        reps, cls = np.unique(np.array(least, dtype=np.int64),
                              return_inverse=True)
        self.n_classes = len(reps)
        self.edge_class: list[int] = cls.tolist()
        self.edges_by_class = np.argsort(cls, kind="stable").astype(np.int32)
        self.class_start = np.concatenate(
            ([0], np.cumsum(np.bincount(cls, minlength=self.n_classes)))
        ).astype(np.int32)

        c1, c2 = cls[sides[:, 0]], cls[sides[:, 1]]
        if (c1 == c2).any():
            raise HyperplaneError("square with both edge pairs parallel")
        met: dict[int, set[int]] = {}
        for x, y in zip(c1.tolist(), c2.tolist()):
            met.setdefault(x, set()).add(y)
            met.setdefault(y, set()).add(x)
        self.cross: list[frozenset[int]] = [_NO_CROSS] * self.n_classes
        for c, s in met.items():
            self.cross[c] = frozenset(s)

        # Orientation: away from vertex 0, then each class flipped so that
        # its least edge reads low -> high.  An edge whose ends are equally
        # far from vertex 0 (the graph is not bipartite), or a square whose
        # opposite sides point opposite ways, has no consistent orientation.
        self._dist0 = g.dist_from(0)
        dist = np.array(self._dist0, dtype=np.int64)
        ends = np.fromiter(chain.from_iterable(g.edges), np.int64,
                           2 * m).reshape(m, 2)
        du, dv = dist[ends[:, 0]], dist[ends[:, 1]]
        da, db, dc, dd = dist[corners].T
        if (du == dv).any() or ((da < db) != (dd < dc)).any() \
                or ((db < dc) != (da < dd)).any():
            raise HyperplaneError(
                "inconsistent edge orientations; graph is not median")
        up = du < dv
        keep = up == up[reps][cls]
        # the least edge reads low -> high, so its head is the far end iff
        # it points away from vertex 0
        self._far_side = up[reps].astype(np.uint8).tobytes()
        self.orientation: list[tuple[int, int]] = [
            e if k else (e[1], e[0]) for e, k in zip(g.edges, keep.tolist())]
        code = ends[:, 0] * g.n + ends[:, 1]
        ends = ends.astype(np.int32)
        ends[~keep] = ends[~keep, ::-1]
        self.edge_arrays = EdgeArrays(cls.astype(np.int32), ends, code)

    def class_edges(self, c: int) -> list[int]:
        """Edge ids of class c in increasing order (a fresh list)."""
        return self.edges_by_class[
            self.class_start[c]:self.class_start[c + 1]].tolist()

    # -- lookups ----------------------------------------------------------

    def class_of_edge(self, u: int, v: int) -> int:
        return self.edge_class[self.graph.edge_id(u, v)]

    def rep_oriented(self, c: int) -> tuple[int, int]:
        """Canonical (tail, head) of the least edge of class c."""
        return self.orientation[int(self.edges_by_class[self.class_start[c]])]

    def oriented_edge_key(self, tail: int, head: int) -> tuple[int, int]:
        """(class, side) of the halfspace containing ``head`` but not
        ``tail``."""
        e = self.graph.edge_id(tail, head)
        return self.edge_class[e], 1 if head == self.orientation[e][1] else 0

    def oriented_edge_keys(self, tail: np.ndarray, head: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`oriented_edge_key` over arrays: (class, side) arrays of the
        oriented edges (tail[i], head[i]), found by binary search on the
        sorted edge codes; KeyError if some pair is not an edge."""
        ea = self.edge_arrays
        code = np.minimum(tail, head).astype(np.int64) * self.graph.n \
            + np.maximum(tail, head)
        e = np.searchsorted(ea.code, code)
        bad = np.take(ea.code, e, mode="clip") != code
        if bad.any():
            i = int(np.argmax(bad))
            u, v = sorted((int(tail[i]), int(head[i])))
            raise KeyError((u, v))
        return ea.edge_class[e], (ea.orientation[e, 1] == head).astype(np.int32)

    def halfspace_of_oriented_edge(self, tail: int, head: int) -> "Halfspace":
        return Halfspace(self, *self.oriented_edge_key(tail, head))

    def carrier_vertices(self, c: int) -> frozenset[int]:
        out = set()
        for e in self.class_edges(c):
            u, v = self.graph.edges[e]
            out.add(u)
            out.add(v)
        return frozenset(out)

    def far_side(self, c: int) -> int:
        """The side of class c that does not contain vertex 0."""
        return self._far_side[c]

    def separators(self, v: int) -> frozenset[int]:
        """Classes separating vertex 0 from v: the classes of the edges on
        one geodesic from v down the vertex-0 row.  A geodesic crosses each
        separating class once and no other, so this is O(d(0, v)) edge
        lookups and no BFS."""
        dist, adj, eid = self._dist0, self.graph.adj, self.graph.edge_id
        out = []
        while dist[v]:
            down = dist[v] - 1
            u = next(w for w in adj[v] if dist[w] == down)
            out.append(self.edge_class[eid(u, v)])
            v = u
        return frozenset(out)

    def below(self, c: int) -> frozenset[int]:
        """Classes separating vertex 0 from the near end of c's least edge
        (cached): d is below c iff c's far side lies inside d's."""
        out = self._below_cache.get(c)
        if out is None:
            t, h = self.rep_oriented(c)
            out = self.separators(t if self.far_side(c) else h)
            self._below_cache_load = cache_put(
                self._below_cache, self._below_cache_load, c, out)
        return out

    def side_vertices(self, c: int, side: int) -> frozenset[int]:
        """Vertex set of one side of class c (lazy, cached).  Halfspaces
        are gated, so the far side (:meth:`far_side`) is the up-closure of
        the far ends of c's edges under steps away from vertex 0:
        O(|far side|) on the row kept at construction, and no BFS.  The
        near side is its complement."""
        key = (c, side)
        cached = self._side_cache.get(key)
        if cached is not None:
            return cached
        dist, adj = self._dist0, self.graph.adj
        far_id = self.far_side(c)
        far = [self.orientation[e][far_id] for e in self.class_edges(c)]
        seen = bytearray(self.graph.n)
        for u in far:
            seen[u] = 1
        for u in far:  # grows while it is read
            up = dist[u] + 1
            for v in adj[u]:
                if dist[v] == up and not seen[v]:
                    seen[v] = 1
                    far.append(v)
        out = frozenset(far) if side == far_id \
            else frozenset(range(self.graph.n)).difference(far)
        self._side_cache_load = cache_put(
            self._side_cache, self._side_cache_load, key, out)
        return out

    def halfspace(self, c: int, side: int) -> "Halfspace":
        if not (0 <= c < self.n_classes and side in (0, 1)):
            raise ValueError("bad halfspace id")
        return Halfspace(self, c, side)

    def hyperplane(self, c: int) -> "Hyperplane":
        if not 0 <= c < self.n_classes:
            raise ValueError(f"no hyperplane H{c}")
        return Hyperplane(self, c)

    def hyperplanes(self) -> list["Hyperplane"]:
        return [Hyperplane(self, c) for c in range(self.n_classes)]


def arrangement(g: MedianGraph) -> Arrangement:
    """The (cached) hyperplane arrangement of a validated graph."""
    if g._arrangement is None:
        g._arrangement = Arrangement(g)
    return g._arrangement


def _find_squares(g: MedianGraph) -> list[tuple[int, int, int, int]]:
    """All 4-cycles (a, b, c, d), a the least corner, b < d."""
    if g.m == g.n - 1:  # a connected graph with m = n - 1 is a tree
        return []
    nbrs = [set(a) for a in g.adj]
    out = []
    for a in range(g.n):
        up = [x for x in g.adj[a] if x > a]
        for i, b in enumerate(up):
            for d in up[i + 1:]:
                for c in sorted(nbrs[b] & nbrs[d]):
                    if c > a:
                        out.append((a, b, c, d))
    return out


# -- hyperplane / halfspace views ----------------------------------------

@dataclass(frozen=True)
class Hyperplane:
    arr: Arrangement
    cls: int

    @property
    def carrier(self) -> frozenset[int]:
        return self.arr.carrier_vertices(self.cls)

    def side(self, s: int) -> "Halfspace":
        return Halfspace(self.arr, self.cls, s)

    def __repr__(self):
        return f"H{self.cls}"


@dataclass(frozen=True)
class Halfspace:
    arr: Arrangement
    cls: int
    side_id: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.cls, self.side_id)

    @property
    def hyperplane(self) -> Hyperplane:
        return Hyperplane(self.arr, self.cls)

    @property
    def vertices(self) -> frozenset[int]:
        return self.arr.side_vertices(self.cls, self.side_id)

    @property
    def complement(self) -> "Halfspace":
        return Halfspace(self.arr, self.cls, 1 - self.side_id)

    def oriented_rep(self) -> tuple[int, int]:
        """(tail, head) of the rep edge with head inside this halfspace."""
        t, h = self.arr.rep_oriented(self.cls)
        return (t, h) if self.side_id == 1 else (h, t)

    def contains(self, v: int) -> bool:
        """Whether v lies in this halfspace: v is on the far side of the
        class iff the class separates it from vertex 0.  Builds no side."""
        return (self.cls in self.arr.separators(v)) == \
            (self.side_id == self.arr.far_side(self.cls))

    def __repr__(self):
        return f"H{self.cls}{'+' if self.side_id else '-'}"


def parse_halfspace(arr: Arrangement, token: str) -> Halfspace:
    """'H3+' / 'H3-' notation used by the CLI and certificates."""
    tok = token.strip()
    if not tok.startswith("H") or tok[-1] not in "+-":
        raise ValueError(f"bad halfspace token '{token}'")
    return arr.halfspace(int(tok[1:-1]), 1 if tok[-1] == "+" else 0)


def compute_hyperplanes(g: MedianGraph) -> list[Hyperplane]:
    """Every hyperplane of a validated graph, ordered by class id."""
    return arrangement(g).hyperplanes()


# -- relations ------------------------------------------------------------

def crosses(h1: Hyperplane, h2: Hyperplane) -> bool:
    _same_arr(h1, h2)
    return h2.cls in h1.arr.cross[h1.cls]


def strongly_separated(h1: Hyperplane, h2: Hyperplane) -> bool:
    """Distinct, non-crossing, and no third hyperplane crossing both.

    Hyperplane disjointness here is non-crossing of edge classes; this is
    the notion under which all pairs in a tree are strongly separated.
    """
    _same_arr(h1, h2)
    if h1.cls == h2.cls:
        return False
    arr = h1.arr
    if h2.cls in arr.cross[h1.cls]:
        return False
    return not (arr.cross[h1.cls] & arr.cross[h2.cls])


def pairwise_strongly_separated(halves: Sequence[Halfspace]) -> bool:
    """Every two of the halfspaces' hyperplanes are strongly separated,
    checked pair by pair in order."""
    return all(strongly_separated(x.hyperplane, y.hyperplane)
               for i, x in enumerate(halves) for y in halves[i + 1:])


def halfspaces_disjoint(a: Halfspace, b: Halfspace) -> bool:
    """Vertex-set disjointness, read from no side.  For distinct,
    non-crossing hyperplanes c and d (see the module docstring): the far
    sides are disjoint iff neither class is below the other, the far side
    of c and the near side of d iff d is below c, and the near sides never
    (both hold vertex 0)."""
    _same_arr(a, b)
    return _disjoint(a.arr, a.cls, a.side_id, b.cls, b.side_id)


def halfspace_leq(a: Halfspace, b: Halfspace) -> bool:
    """a ⊆ b, i.e. a is disjoint from the complement of b.  So for distinct,
    non-crossing hyperplanes c and d: far ⊆ far iff d is below c, far ⊆
    near iff the far sides are disjoint, near ⊆ far never, and near ⊆ near
    iff c is below d."""
    _same_arr(a, b)
    return _disjoint(a.arr, a.cls, a.side_id, b.cls, 1 - b.side_id)


def _disjoint(arr: Arrangement, c: int, s: int, d: int, t: int) -> bool:
    """Whether side s of class c and side t of class d share no vertex."""
    if c == d:
        return s != t
    if d in arr.cross[c]:
        return False
    if s != arr.far_side(c):
        return t == arr.far_side(d) and c in arr.below(d)
    if t != arr.far_side(d):
        return d in arr.below(c)
    return d not in arr.below(c) and c not in arr.below(d)


def _same_arr(x, y):
    if x.arr is not y.arr:
        raise ValueError("objects belong to different graphs")


# -- facing tuples --------------------------------------------------------

def facing_tuples(g: MedianGraph, k: int,
                  classes: Optional[Iterable[int]] = None,
                  limit: Optional[int] = None) -> list[tuple[Halfspace, ...]]:
    """All k-tuples of pairwise vertex-disjoint halfspaces of pairwise
    distinct hyperplanes, in canonical (class id, side) order.  The two
    sides of a single hyperplane are vertex-disjoint but do not face each
    other (so Q3, where all hyperplanes cross, has no facing pairs).
    ``classes`` restricts the hyperplanes searched (used on large
    fixtures); ``limit`` stops after that many tuples.  Halfspaces of
    crossing hyperplanes always meet, so a class that crosses a chosen one
    is skipped, read from ``arr.cross``, without a disjointness test."""
    if k < 2:
        raise ValueError("k must be >= 2")
    arr = arrangement(g)
    cand_classes = sorted(classes) if classes is not None \
        else list(range(arr.n_classes))
    halves = [arr.halfspace(c, s) for c in cand_classes for s in (0, 1)]
    out: list[tuple[Halfspace, ...]] = []

    def extend(start: int, chosen: list[Halfspace]):
        if limit is not None and len(out) >= limit:
            return
        if len(chosen) == k:
            out.append(tuple(chosen))
            return
        for i in range(start, len(halves)):
            h = halves[i]
            if all(h.cls != c.cls and h.cls not in arr.cross[c.cls]
                   and halfspaces_disjoint(h, c) for c in chosen):
                chosen.append(h)
                extend(i + 1, chosen)
                chosen.pop()
                if limit is not None and len(out) >= limit:
                    return

    extend(0, [])
    return out


# -- projection between strongly separated hyperplanes --------------------

def projection_pair(h1: Hyperplane, h2: Hyperplane
                    ) -> tuple[tuple[int, int], tuple[int, int]]:
    """The unique pair of dual edges realizing the mutual projection of two
    strongly separated hyperplanes.

    The gates of carrier(h2) into carrier(h1) all land inside a single dual
    edge of h1 (and symmetrically); that dual edge is returned for each.
    """
    if not strongly_separated(h1, h2):
        raise ValueError("hyperplanes are not strongly separated")
    e1 = _projection_edge(h1, h2)
    e2 = _projection_edge(h2, h1)
    return e1, e2


def _projection_edge(target: Hyperplane, source: Hyperplane) -> tuple[int, int]:
    """Gates by separator distance, d(v, x) = |sep(v) △ sep(x)|."""
    arr = target.arr
    tsep = {x: arr.separators(x) for x in target.carrier}
    gates = set()
    for v in source.carrier:
        sv = arr.separators(v)
        ranked = sorted((len(sv ^ sx), x) for x, sx in tsep.items())
        if len(ranked) > 1 and ranked[1][0] == ranked[0][0]:
            raise HyperplaneError("carrier gate is not unique")
        gates.add(ranked[0][1])
    # gates must lie within one dual edge of the target class
    for e in arr.class_edges(target.cls):
        u, v = arr.graph.edges[e]
        if gates <= {u, v}:
            return (u, v)
    raise HyperplaneError("projection image spans more than one dual edge")


def separating_classes(g: MedianGraph, u: int, v: int) -> set[int]:
    """Classes whose two sides separate u from v: those separating exactly
    one of u, v from vertex 0."""
    arr = arrangement(g)
    return set(arr.separators(u) ^ arr.separators(v))


# -- irreducible product decomposition ------------------------------------

@dataclass
class Decomposition:
    partition: list[list[int]]            # class ids per factor
    factors: list[MedianGraph]
    coordinates: list[tuple[int, ...]]    # vertex -> tuple of factor vertices

    @property
    def r(self) -> int:
        return len(self.factors)


def irreducible_decomposition(g: MedianGraph) -> Decomposition:
    """Partition hyperplanes into the components of the complement of the
    crossing graph; rebuild each factor and the product isomorphism."""
    arr = arrangement(g)
    k = arr.n_classes
    comp = _complement_components(arr.cross, k)
    partition = [sorted(c) for c in comp]
    partition.sort(key=lambda c: c[0])

    factors = []
    coords = [[0] * len(partition) for _ in range(g.n)]
    for fi, cls_ids in enumerate(partition):
        keep = set()
        for c in cls_ids:
            keep.update(arr.class_edges(c))
        # contract all edges outside this factor's classes
        label = [-1] * g.n
        nf = 0
        for s in range(g.n):
            if label[s] >= 0:
                continue
            label[s] = nf
            q = deque([s])
            while q:
                u = q.popleft()
                for v in g.adj[u]:
                    if g.edge_id(u, v) in keep or label[v] >= 0:
                        continue
                    label[v] = nf
                    q.append(v)
            nf += 1
        fedges = set()
        for e in keep:
            u, v = g.edges[e]
            a, b = label[u], label[v]
            if a == b:
                raise HyperplaneError("factor edge collapsed; decomposition bug")
            fedges.add((a, b) if a < b else (b, a))
        factor = MedianGraph(nf, sorted(fedges),
                             labels=[f"f{fi}.{i}" for i in range(nf)])
        factor._mark_validated(f"factor of {g!r}")
        factors.append(factor)
        for v in range(g.n):
            coords[v][fi] = label[v]

    dec = Decomposition(partition, factors, [tuple(c) for c in coords])
    _verify_product_isomorphism(g, dec)
    return dec


def _complement_components(cross: list[frozenset[int]], k: int) -> list[list[int]]:
    """Connected components of the complement graph in O(k + edges)."""
    remaining = set(range(k))
    comps = []
    while remaining:
        s = min(remaining)
        remaining.discard(s)
        comp = [s]
        q = deque([s])
        while q:
            u = q.popleft()
            reach = remaining - cross[u]
            remaining -= reach
            for v in reach:
                comp.append(v)
                q.append(v)
        comps.append(sorted(comp))
    return comps


def _verify_product_isomorphism(g: MedianGraph, dec: Decomposition):
    n_prod = 1
    for f in dec.factors:
        n_prod *= f.n
    if n_prod != g.n or len(set(dec.coordinates)) != g.n:
        raise HyperplaneError("coordinate map is not a bijection onto the product")
    for u, v in g.edges:
        diffs = [i for i in range(dec.r)
                 if dec.coordinates[u][i] != dec.coordinates[v][i]]
        if len(diffs) != 1:
            raise HyperplaneError("edge does not move exactly one coordinate")
        i = diffs[0]
        if not dec.factors[i].has_edge(dec.coordinates[u][i], dec.coordinates[v][i]):
            raise HyperplaneError("edge image missing in factor")
    m_prod = 0
    for i, f in enumerate(dec.factors):
        other = 1
        for j, f2 in enumerate(dec.factors):
            if j != i:
                other *= f2.n
        m_prod += f.m * other
    if m_prod != g.m:
        raise HyperplaneError("edge count differs from product of factors")


def product_graph(a: MedianGraph, b: MedianGraph) -> MedianGraph:
    """Cartesian product; median whenever both inputs are."""
    n = a.n * b.n

    def vid(x, y):
        return x * b.n + y

    edges = []
    for x in range(a.n):
        for (u, v) in b.edges:
            edges.append((vid(x, u), vid(x, v)))
    for y in range(b.n):
        for (u, v) in a.edges:
            edges.append((vid(u, y), vid(v, y)))
    labels = [f"{a.labels[x]},{b.labels[y]}"
              for x in range(a.n) for y in range(b.n)]
    frontier = [vid(x, y) for x in range(a.n) for y in range(b.n)
                if x in a.frontier or y in b.frontier]
    g = MedianGraph(n, edges, labels, frontier)
    if a.validated and b.validated:
        g._mark_validated("product of validated graphs")
    return g


def hyperplane_report(g: MedianGraph) -> str:
    """One line per hyperplane: id, dual edges, side sizes."""
    arr = arrangement(g)
    lines = []
    for c in range(arr.n_classes):
        es = ",".join(f"{g.labels[u]}-{g.labels[v]}"
                      for u, v in (g.edges[e] for e in arr.class_edges(c)))
        b = len(arr.side_vertices(c, 1))
        lines.append(f"H{c}: edges={es} sideA={g.n - b} sideB={b}")
    return "\n".join(lines)
