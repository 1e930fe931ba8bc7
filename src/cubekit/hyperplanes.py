"""Hyperplanes of a median graph via the square-opposition edge relation.

Two edges are parallel if they are opposite sides of some 4-cycle; the
transitive closure partitions edges into classes.  Each class is a
hyperplane: deleting its edges splits the graph into exactly two convex
sides (the halfspaces).  Every edge of a class is stored with a consistent
orientation (``Arrangement.orientation``), so "which side of hyperplane c
does the head of this oriented edge lie on" is an O(1) lookup.  Every
per-edge and per-square table is one int32 array, read in place.
Relations, memberships and side sizes build no side (see below).  Only
:attr:`Halfspace.vertices` and ``sageev.wallspace_of_graph`` materialise
side vertex sets, each built when asked for from one walk of every vertex
and kept nowhere (see :meth:`Arrangement.side_vertices`), so an
arrangement holds no state that changes once it is built.

Membership, distance and side sizes have one primitive,
:meth:`Arrangement.walk`: the classes separating vertex 0 from each of an
array of vertices, read off one batched walk down the vertex-0 distance
row.  :meth:`Arrangement.separators` is the walk of one vertex.  v lies on
the far side of class c (the side without vertex 0) iff c separates it
from vertex 0 (:meth:`Halfspace.contains`), so the far side of c holds
|{v : c on v's walk}| vertices (:func:`hyperplane_report` counts the walk
from every vertex), and a median graph is a partial cube, so d(u, v) =
|separators(u) △ separators(v)| (Bandelt–Chepoi 2008).  Nesting and
disjointness build no side either: ``below(c)`` is the walk of the near end
of c's least edge.  For two distinct, non-crossing classes c and d, exactly
one of the four intersections of their sides is empty, and it is never the
one of the two near sides (both hold vertex 0).  The far side of c lies
inside the far side of d iff d is in ``below(c)``: halfspaces are convex,
so an edge of c lies wholly on one side of d, and a geodesic from vertex 0
crosses each class separating its ends exactly once.  Every other
disjointness and nesting case follows from which intersection is empty.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from .median import MedianGraph, join_rows, squares


class HyperplaneError(Exception):
    pass


_NO_CROSS: frozenset[int] = frozenset()  # read for an uncrossed class


class Arrangement:
    """All hyperplane classes of one validated median graph.

    Storage is flat: every per-edge and per-square table is one int32
    array, and a class that crosses nothing owns no Python object.

    Attributes:
      squares: int32 (s, 4) array, a row (a, b, c, d) per 4-cycle, a the
        least corner, b < d, (a, b, c, d) cyclic, rows in increasing order.
      edge_class: int32 array, the class id per edge id (the edge's index
        in ``g.edges``, found with ``g.edge_id``); classes are numbered by
        least edge.
      edges_by_class, class_start: the class edges in CSR form, as int32
        arrays: class c owns
        ``edges_by_class[class_start[c]:class_start[c + 1]]``, in
        increasing edge order, so its least edge comes first.  Read a
        class with :meth:`class_edges`.
      cross: the frozenset of classes each class crosses, keyed by class;
        an uncrossed class has no entry (read ``cross.get(c, _NO_CROSS)``).
      orientation: int32 (m, 2) array, (tail, head) per edge id,
        consistent within each class; side 1 of a class holds its heads.
        It reads the graph's vertex-0 row (``g.dist_from(0)``) and runs no
        BFS: each edge points away from vertex 0, consistent on every class
        of a median graph (Djoković–Winkler), and a class whose least edge
        then reads high -> low is flipped.
    """

    # No side is cached.  cubebench/tracer.py still reads this as its
    # cache-hit test, so every lookup is a miss; ROADMAP item 1 drops
    # that read, and this line with it.
    _side_cache: frozenset = frozenset()

    def __init__(self, g: MedianGraph):
        g.require_validated()
        self.graph = g
        self.squares = squares(g)
        self._build_classes()

    # -- construction -----------------------------------------------------

    def _build_classes(self):
        g = self.graph
        m = g.m
        corners = self.squares
        # square sides (a,b), (b,c), (d,c), (a,d); a is the least corner,
        # (a,b) is opposite (d,c) and (b,c) is opposite (a,d)
        sides = g.edge_ids(corners[:, [0, 1, 3, 0]], corners[:, [1, 2, 2, 3]])

        # Classes: the components of the opposition links, numbered by
        # their least edges.
        reps, cls = _components(
            m, np.concatenate((sides[:, [0, 2]], sides[:, [1, 3]])))
        self.n_classes = len(reps)
        self.edge_class = cls.astype(np.int32)
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
        self.cross = {c: frozenset(s) for c, s in met.items()}

        # Orientation: away from vertex 0, then each class flipped so that
        # its least edge reads low -> high.  An edge whose ends are equally
        # far from vertex 0 (the graph is not bipartite), or a square whose
        # opposite sides point opposite ways, has no consistent orientation.
        self._dist0 = dist = g.dist_from(0)
        ends = g.edges
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
        self.orientation = ends.copy()
        self.orientation[~keep] = ends[~keep, ::-1]
        # Each vertex but 0 steps down the row through one of its edges;
        # which one, where there are several, does not change the classes
        # met on the way.  Vertex 0 steps to itself through edge 0, which
        # joins it to its least neighbour, read as class -1, so a walk of
        # many vertices needs no test for arrival.  A graph without edges
        # keeps that step alone.
        down = np.zeros(g.n, np.intp)
        down[np.where(up, ends[:, 1], ends[:, 0])] = np.arange(m)
        near = np.where(up, ends[:, 0], ends[:, 1])
        self._down_vertex = near[down] if m else np.zeros(1, np.int32)
        self._down_class = self.edge_class[down] if m else \
            np.zeros(1, np.int32)
        self._down_class[0] = -1

    def class_edges(self, c: int) -> list[int]:
        """Edge ids of class c in increasing order (a fresh list)."""
        return self.edges_by_class[
            self.class_start[c]:self.class_start[c + 1]].tolist()

    # -- lookups ----------------------------------------------------------

    def class_of_edge(self, u: int, v: int) -> int:
        return self.edge_class.item(self.graph.edge_id(u, v))

    def rep_oriented(self, c: int) -> tuple[int, int]:
        """Canonical (tail, head) of the least edge of class c."""
        e = self.edges_by_class[self.class_start[c]]
        return tuple(self.orientation[e].tolist())

    def oriented_edge_key(self, tail: int, head: int) -> tuple[int, int]:
        """(class, side) of the halfspace containing ``head`` but not
        ``tail``."""
        e = self.graph.edge_id(tail, head)
        return self.edge_class.item(e), \
            int(head == self.orientation.item(e, 1))

    def halfspace_of_oriented_edge(self, tail: int, head: int) -> "Halfspace":
        return Halfspace(self, *self.oriented_edge_key(tail, head))

    def carrier_vertices(self, c: int) -> frozenset[int]:
        return frozenset(self.graph.edges[self.class_edges(c)].ravel().tolist())

    def far_side(self, c: int) -> int:
        """The side of class c that does not contain vertex 0."""
        return self._far_side[c]

    def walk(self, vs) -> tuple[np.ndarray, np.ndarray]:
        """(i, c) for each class c separating vertex 0 from ``vs[i]``: the
        classes of the edges on one geodesic from each vertex down the
        vertex-0 row, through the step down kept for each vertex, every
        vertex a step per round.  A geodesic crosses each separating class
        once and no other, so ``vs[i]`` owns d(0, vs[i]) pairs.  The pairs
        come round by round, each round in increasing i.  No BFS."""
        found = self._steps(vs)
        walking = found >= 0
        return walking.nonzero()[1], found[walking]

    def _steps(self, vs) -> np.ndarray:
        """:meth:`walk`'s classes, a row a round, -1 once at vertex 0."""
        path = [np.asarray(vs, np.intp)]  # the vertices of each round
        for _ in range(1, np.maximum.reduce(self._dist0[path[0]], initial=0)):
            path.append(self._down_vertex[path[-1]].astype(np.intp))
        return self._down_class[np.array(path)]

    def distances(self, us, vs) -> np.ndarray:
        """d(u, v) for u of ``us`` (rows), v of ``vs`` (columns): from one
        :meth:`walk`, d(0, u) + d(0, v) less twice the classes both cross,
        an integer product (a float one would touch BLAS's buffers)."""
        both, n = np.concatenate((us, vs)).astype(np.intp), len(us)
        own, cls = self.walk(both)
        met = np.unique(cls)  # return_inverse costs more than the search
        sep = np.zeros((len(both), len(met)), np.int32)  # a class a column
        sep[own, met.searchsorted(cls)] = 1
        d = self._dist0[both]
        return d[:n, None] + d[n:] - 2 * sep[:n] @ sep[n:].T

    def separators(self, v: int) -> frozenset[int]:
        """Classes separating vertex 0 from v: a :meth:`walk` of v."""
        return frozenset(self.walk([v])[1].tolist())

    def near_end(self, c: int) -> int:
        """The end of c's least edge on vertex 0's side."""
        e = self.edges_by_class.item(self.class_start.item(c))
        return self.orientation.item(e, 1 - self._far_side[c])

    def below(self, c: int) -> frozenset[int]:
        """Classes separating vertex 0 from the near end of c's least edge,
        one :meth:`walk`: d is below c iff c's far side lies inside d's."""
        return self.separators(self.near_end(c))

    def side_vertices(self, c: int, side: int) -> frozenset[int]:
        """Vertex set of one side of class c, built on every call and kept
        nowhere.  The far side (:meth:`far_side`) holds the vertices whose
        :meth:`walk` crosses c, read off one walk of every vertex; the near
        side is its complement."""
        far = (self._steps(np.arange(self.graph.n)) == c).any(0)
        return frozenset(
            np.flatnonzero(far == (side == self.far_side(c))).tolist())

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
    return h2.cls in h1.arr.cross.get(h1.cls, _NO_CROSS)


def strongly_separated(h1: Hyperplane, h2: Hyperplane) -> bool:
    """Distinct, non-crossing, and no third hyperplane crossing both.

    Hyperplane disjointness here is non-crossing of edge classes; this is
    the notion under which all pairs in a tree are strongly separated.
    """
    _same_arr(h1, h2)
    if h1.cls == h2.cls:
        return False
    cross = h1.arr.cross
    c1, c2 = cross.get(h1.cls, _NO_CROSS), cross.get(h2.cls, _NO_CROSS)
    return h2.cls not in c1 and not (c1 & c2)


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
    if d in arr.cross.get(c, _NO_CROSS):
        return False
    if s != arr.far_side(c):
        return t == arr.far_side(d) and c in arr.below(d)
    if t != arr.far_side(d):
        return d in arr.below(c)
    own, cls = arr.walk([arr.near_end(c), arr.near_end(d)])
    below = set(zip(own.tolist(), cls.tolist()))  # (0, x): x is below c
    return (0, d) not in below and (1, c) not in below


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
    fixtures); ``limit`` stops after that many tuples, and a ``limit`` of
    0 or less gives none.

    Halfspace i of the candidates is side i % 2 of candidate class i // 2.
    A chosen halfspace's row marks every candidate halfspace disjoint from
    it, by :func:`_disjoint`'s case analysis read from the far sides,
    ``cross`` and one "below" relation among the candidates (one
    :meth:`Arrangement.walk` from every candidate's near end, and its
    transpose), so no pair is tested on its own.  Tuples grow in index
    order by AND-ing the rows of their members, and only the halfspaces
    returned are built.  Work and memory follow the c candidate classes:
    O(c + Σ|below|) set-up and one row of 2c flags per chosen member."""
    if k < 2:
        raise ValueError("k must be >= 2")
    arr = arrangement(g)
    cand = np.arange(arr.n_classes) if classes is None \
        else np.array(sorted(set(classes)), np.int64)
    nc = len(cand)
    if nc and not 0 <= cand[0] <= cand[-1] < arr.n_classes:
        raise ValueError("bad halfspace id")
    out: list[tuple[Halfspace, ...]] = []
    if nc == 0 or (limit is not None and limit <= 0):
        return out
    far = np.frombuffer(arr._far_side, np.uint8)[cand]
    j = np.arange(nc, dtype=np.int32)
    fs = 2 * j + far  # each candidate's far side, as a halfspace index
    is_far = np.zeros(2 * nc, bool)
    is_far[fs] = True
    pos = np.full(arr.n_classes, -1, np.int32)  # a class's candidate index
    pos[cand] = j
    # (lo, hi): candidate hi is below candidate lo
    lo, hi = arr.walk(arr.orientation[
        arr.edges_by_class[arr.class_start[cand]], 1 - far])
    hi = pos[hi]
    lo, hi = lo[hi >= 0], hi[hi >= 0]
    # (xo, x): candidates xo and x cross
    xo = np.repeat(np.fromiter(arr.cross, np.int64, len(arr.cross)),
                   np.fromiter(map(len, arr.cross.values()), np.int64,
                               len(arr.cross)))
    x = np.fromiter(chain.from_iterable(arr.cross.values()), np.int64,
                    len(xo))
    xo, x = pos[xo], pos[x]
    both = (xo >= 0) & (x >= 0)
    xo, x = xo[both], x[both]
    # candidate j's block of halfspaces: the far sides of the classes
    # below it, then of those above it, then its own far side and both
    # sides of each class crossing it; block j's three parts start at
    # cuts[3j], cuts[3j + 1] and cuts[3j + 2].  Below and above hold the
    # crossing classes too, and the third part overrides them.
    block = np.concatenate((fs[hi], fs[lo], fs, fs[x], fs[x] ^ 1))[
        np.argsort(np.concatenate((lo, hi, j, xo, xo)), kind="stable")]
    cuts = np.concatenate(([0], np.cumsum(np.column_stack([
        np.bincount(lo, minlength=nc), np.bincount(hi, minlength=nc),
        2 * np.bincount(xo, minlength=nc) + 1]).ravel()))).tolist()
    far_list = is_far.tolist()
    # a list, not an object array: the recursive ``grow`` is a reference
    # cycle, and the cycle collector does not traverse object arrays, so
    # through one the graph would outlive the first collection
    made: list[Optional[Halfspace]] = [None] * (2 * nc)

    def half(i: int) -> Halfspace:
        """Candidate halfspace i, built once."""
        h = made[i]
        if h is None:
            h = made[i] = Halfspace(arr, cand.item(i >> 1), i & 1)
        return h

    def meet(mask: np.ndarray, i: int) -> np.ndarray:
        """The candidates in ``mask`` disjoint from halfspace i."""
        below, above, other, end = cuts[3 * (i >> 1):3 * (i >> 1) + 4]
        if far_list[i]:
            # far side: every far side not nested with it and not crossing
            # it, and the near side of each class below it
            r = mask & is_far
            near = block[below:above] ^ 1
            r[near] = mask[near]
            r[block[below:end]] = False
        else:
            # near side: the far side of each class it lies below
            r = np.zeros(2 * nc, bool)
            up = block[above:other]
            r[up] = mask[up]
            r[block[other:end]] = False
        return r

    def grow(prefix: tuple[Halfspace, ...], mask: np.ndarray, start: int):
        nxt = (mask[start:].nonzero()[0] + start).tolist()
        if len(prefix) == k - 1:
            if limit is not None:
                nxt = nxt[:limit - len(out)]
            out.extend(prefix + (half(i),) for i in nxt)
            return
        for i in nxt:
            grow(prefix + (half(i),), meet(mask, i), i + 1)
            if limit is not None and len(out) >= limit:
                return

    grow((), np.ones(2 * nc, bool), 0)
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
    """Gates by separator distance, d(v, x) = |sep(v) △ sep(x)|, each
    source carrier vertex a row of :meth:`Arrangement.distances`."""
    arr = target.arr
    xs = np.array(sorted(target.carrier))
    dist = arr.distances(np.array(sorted(source.carrier)), xs)
    if ((dist == dist.min(1)[:, None]).sum(1) > 1).any():
        raise HyperplaneError("carrier gate is not unique")
    gates = set(xs[dist.argmin(1)].tolist())
    # gates must lie within one dual edge of the target class
    for u, v in arr.graph.edges[arr.class_edges(target.cls)].tolist():
        if gates <= {u, v}:
            return (u, v)
    raise HyperplaneError("projection image spans more than one dual edge")


def separating_classes(g: MedianGraph, u: int, v: int) -> set[int]:
    """Classes whose two sides separate u from v: those separating exactly
    one of u, v from vertex 0, read off one :meth:`Arrangement.walk` of
    both."""
    own, cls = arrangement(g).walk([u, v])
    return set(cls[own == 0].tolist()).symmetric_difference(
        cls[own == 1].tolist())


# -- irreducible product decomposition ------------------------------------

@dataclass
class Decomposition:
    partition: list[list[int]]            # class ids per factor
    factors: list[MedianGraph]
    coordinates: np.ndarray    # int64 (n, r): row v = v's factor vertices

    @property
    def r(self) -> int:
        return len(self.factors)


def irreducible_decomposition(g: MedianGraph) -> Decomposition:
    """Partition hyperplanes into the components of the complement of the
    crossing graph; rebuild each factor and the product isomorphism."""
    arr = arrangement(g)
    partition = _complement_components(arr.cross, arr.n_classes)
    factors = []
    coords = np.zeros((g.n, len(partition)), np.int64)
    cls = arr.edge_class
    for fi, cls_ids in enumerate(partition):
        keep = np.isin(cls, cls_ids)
        # contract all edges outside this factor's classes; the factor's
        # vertices are numbered by the least vertex they contract
        reps, label = _components(g.n, g.edges[~keep])
        nf = len(reps)
        fe = label[g.edges[keep]]
        if (fe[:, 0] == fe[:, 1]).any():
            raise HyperplaneError("factor edge collapsed; decomposition bug")
        fe.sort(axis=1)
        code = np.unique(fe[:, 0] * nf + fe[:, 1])  # lo·nf + hi, once each
        factor = MedianGraph(nf, np.column_stack((code // nf, code % nf)),
                             labels=[f"f{fi}.{i}" for i in range(nf)])
        factor._mark_validated()
        factors.append(factor)
        coords[:, fi] = label

    dec = Decomposition(partition, factors, coords)
    _verify_product_isomorphism(g, dec)
    return dec


def _components(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Components of the graph on ``edges`` over n vertices: their least
    vertices in increasing order, and each vertex's component numbered by
    the rank of its least vertex.  Each round hooks every root under the
    least root it has an edge to, then points every vertex at its root."""
    root = np.arange(n)
    u, v = edges[:, 0], edges[:, 1]
    while (root[u] != root[v]).any():
        ru, rv = root[u], root[v]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while (root[root] != root).any():
            root = root[root]
    least = root == np.arange(n)
    return least.nonzero()[0], (np.cumsum(least) - 1)[root]


def _complement_components(cross: dict[int, frozenset], k: int) -> list[list[int]]:
    """Connected components of the complement graph in O(k + edges), each
    sorted, in order of their least class."""
    remaining = set(range(k))
    comps = []
    while remaining:
        s = min(remaining)
        remaining.discard(s)
        comp = [s]
        q = deque([s])
        while q:
            u = q.popleft()
            reach = remaining - cross.get(u, _NO_CROSS)
            remaining -= reach
            comp.extend(reach)
            q.extend(reach)
        comps.append(sorted(comp))
    return comps


def _verify_product_isomorphism(g: MedianGraph, dec: Decomposition):
    n_prod = math.prod(f.n for f in dec.factors)
    coords = dec.coordinates
    code = np.zeros(g.n, np.int64)  # each row's mixed-radix product index
    for i, f in enumerate(dec.factors):
        code = code * f.n + coords[:, i]
    if n_prod != g.n or len(np.unique(code)) != g.n:
        raise HyperplaneError("coordinate map is not a bijection onto the product")
    cu, cv = coords[g.edges[:, 0]], coords[g.edges[:, 1]]
    if ((cu != cv).sum(1) != 1).any():
        raise HyperplaneError("edge does not move exactly one coordinate")
    i = (cu != cv).argmax(1)  # the coordinate each edge moves
    for fi, f in enumerate(dec.factors):
        if (f.edge_ids(cu[i == fi, fi], cv[i == fi, fi]) < 0).any():
            raise HyperplaneError("edge image missing in factor")
    # a factor's edges appear once per vertex of the other factors
    if sum(f.m * (n_prod // f.n) for f in dec.factors) != g.m:
        raise HyperplaneError("edge count differs from product of factors")


def product_graph(a: MedianGraph, b: MedianGraph) -> MedianGraph:
    """Cartesian product; median whenever both inputs are."""
    n = a.n * b.n
    # vertex (x, y) is x·|b| + y
    x = np.arange(a.n)[:, None, None] * b.n
    y = np.arange(b.n)[:, None, None]
    edges = np.concatenate(((x + b.edges).reshape(-1, 2),
                            (a.edges * b.n + y).reshape(-1, 2)))
    labels = [f"{a.labels[x]},{b.labels[y]}"
              for x in range(a.n) for y in range(b.n)]
    fa, fb = np.zeros(a.n, bool), np.zeros(b.n, bool)
    fa[a.frontier] = fb[b.frontier] = True
    g = MedianGraph(n, edges, labels,
                    np.flatnonzero(fa[:, None] | fb[None, :]))
    if a.validated and b.validated:
        g._mark_validated()
    return g


def hyperplane_report(g: MedianGraph) -> str:
    """One line per hyperplane: id, dual edges, side sizes.  A vertex lies
    on the far side of the classes its walk down the vertex-0 row crosses,
    so the far side sizes are one count over the walk from every vertex,
    and no side is built.  The text is one row per edge, in class order,
    with each class's line opened at its first edge and closed at its
    last."""
    arr = arrangement(g)
    far = np.bincount(arr._steps(np.arange(g.n)).ravel() + 1,
                      minlength=arr.n_classes + 1)[1:]
    side_b = np.where(np.frombuffer(arr._far_side, np.uint8), far, g.n - far)
    lab, (u, v) = np.array(g.labels, object), g.edges[arr.edges_by_class].T
    opened = np.full(g.m, ",", object)
    opened[arr.class_start[:-1]] = [f"\nH{c}: edges="
                                    for c in range(arr.n_classes)]
    closed = np.full(g.m, "", object)
    closed[arr.class_start[1:] - 1] = [f" sideA={g.n - b} sideB={b}"
                                       for b in side_b.tolist()]
    return join_rows(opened, lab[u], "-", lab[v], closed)[1:]
