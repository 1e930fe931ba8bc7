"""Dual cube complex of a finite wallspace.

Vertices of the dual are consistent orientations: a choice of one side per
wall such that every two chosen sides intersect.  For finite wallspaces
this pairwise condition is the whole ultrafilter condition (the descending
chain condition is vacuous), and the resulting graph is median.  Running
the construction on the wallspace read off a median graph's own halfspaces
recovers the graph up to isomorphism, which gives a roundtrip oracle for
the hyperplane machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .median import MedianGraph, check_median
from .hyperplanes import arrangement

MAX_WALLS = 24  # build_dual refuses larger wallspaces


class WallspaceError(Exception):
    pass


@dataclass(frozen=True)
class Wall:
    """An unordered bipartition of the ground set; side a holds the least
    element so equal walls compare equal."""
    a: frozenset[int]
    b: frozenset[int]

    @staticmethod
    def of(x, y) -> "Wall":
        a, b = frozenset(x), frozenset(y)
        # empty sides sort last; Wallspace validation rejects them later
        if min(a, default=-1) > min(b, default=-1):
            a, b = b, a
        return Wall(a, b)

    def sides(self) -> tuple[frozenset[int], frozenset[int]]:
        return self.a, self.b


class Wallspace:
    def __init__(self, ground_labels: list[str], walls: list[Wall]):
        self.labels = list(ground_labels)
        self.n = len(self.labels)
        ground = frozenset(range(self.n))
        seen = set()
        for i, w in enumerate(walls):
            if not w.a or not w.b:
                raise WallspaceError(f"wall {i}: empty side")
            if w.a | w.b != ground or (w.a & w.b):
                raise WallspaceError(f"wall {i}: not a bipartition")
            if w in seen:
                raise WallspaceError(f"wall {i}: duplicate")
            seen.add(w)
        self.walls = list(walls)

    @property
    def k(self) -> int:
        return len(self.walls)


def parse_wallspace(text: str) -> Wallspace:
    """`p <label>` points; `w <id>: <labels...> | <labels...>` walls."""
    labels: list[str] = []
    index: dict[str, int] = {}
    raw_walls: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("p ") and len(line.split()) == 2:
            lab = line.split()[1]
            if lab in index:
                raise WallspaceError(f"line {lineno}: duplicate point")
            index[lab] = len(labels)
            labels.append(lab)
        elif line.startswith("w ") and ":" in line and "|" in line:
            _, body = line.split(":", 1)
            left, right = body.split("|", 1)
            raw_walls.append((left, right))
        else:
            raise WallspaceError(f"line {lineno}: cannot parse '{line}'")

    def ids(part: str) -> list[int]:
        out = []
        for tok in part.split():
            if tok not in index:
                raise WallspaceError(f"unknown point '{tok}'")
            out.append(index[tok])
        return out

    walls = [Wall.of(ids(l), ids(r)) for l, r in raw_walls]
    return Wallspace(labels, walls)


def wallspace_to_text(w: Wallspace) -> str:
    lines = [f"p {lab}" for lab in w.labels]
    for i, wall in enumerate(w.walls):
        left = " ".join(w.labels[x] for x in sorted(wall.a))
        right = " ".join(w.labels[x] for x in sorted(wall.b))
        lines.append(f"w {i}: {left} | {right}")
    return "\n".join(lines) + "\n"


def wallspace_of_graph(g: MedianGraph) -> Wallspace:
    """Ground = vertices, one wall per hyperplane (its two sides): the far
    side of each class is read once, and the near side is the rest."""
    arr, ground = arrangement(g), frozenset(range(g.n))
    fars = [arr.side_vertices(c, arr.far_side(c))
            for c in range(arr.n_classes)]
    return Wallspace(list(g.labels), [Wall.of(ground - f, f) for f in fars])


def _refuse_over_limit(k: int):
    """Raise unless ``k`` walls are within :data:`MAX_WALLS`."""
    if k > MAX_WALLS:
        raise WallspaceError(
            f"wallspace has {k} walls, over the limit of {MAX_WALLS}")


def build_dual(w: Wallspace) -> MedianGraph:
    """The dual median graph: consistent orientations, edges between
    orientations differing on exactly one wall.

    Orientations are found by backtracking over walls ordered by side-size
    imbalance (most lopsided first prunes best); output is canonicalized
    by sorting the orientation bitstrings, so it is search-order
    independent."""
    _refuse_over_limit(w.k)
    order = sorted(range(w.k),
                   key=lambda i: (-abs(len(w.walls[i].a) - len(w.walls[i].b)),
                                  i))
    sides = [w.walls[i].sides() for i in range(w.k)]
    # compat[i][si][j][sj]: do side si of wall i and side sj of wall j meet?
    compat = [[[[bool(sides[i][si] & sides[j][sj]) for sj in (0, 1)]
                for j in range(w.k)] for si in (0, 1)] for i in range(w.k)]

    found: list[tuple[int, ...]] = []
    choice = [0] * w.k

    def backtrack(pos: int):
        if pos == w.k:
            found.append(tuple(choice))
            return
        i = order[pos]
        for si in (0, 1):
            if all(compat[i][si][j][choice[j]] for j in order[:pos]):
                choice[i] = si
                backtrack(pos + 1)
        choice[i] = 0

    backtrack(0)
    verts = sorted(found)
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    for v in verts:
        for i in range(w.k):
            u = v[:i] + (1 - v[i],) + v[i + 1:]
            j = index.get(u)
            if j is not None and index[v] < j:
                edges.append((index[v], j))
    labels = ["".join(map(str, v)) for v in verts]
    g = MedianGraph(len(verts), edges, labels)
    res = check_median(g)
    if not res.ok:
        raise WallspaceError(
            f"dual graph failed median validation at triple "
            f"{res.counterexample}")
    return g


@dataclass
class RoundtripResult:
    ok: bool
    iso: Optional[dict[int, int]] = None   # graph vertex -> dual vertex
    reason: str = ""


def roundtrip_check(g: MedianGraph) -> RoundtripResult:
    """g -> wallspace -> dual, with an explicit isomorphism back to g.  A
    graph with more classes than :data:`MAX_WALLS` is refused before any
    wall is built: its wallspace has a wall per class."""
    _refuse_over_limit(arrangement(g).n_classes)
    w = wallspace_of_graph(g)
    dual = build_dual(w)
    if dual.n != g.n or dual.m != g.m:
        return RoundtripResult(False, reason="size mismatch "
                               f"({g.n},{g.m}) vs ({dual.n},{dual.m})")
    # vertex v of g orients every wall toward the side containing it
    iso: dict[int, int] = {}
    for v in range(g.n):
        bits = "".join("0" if v in wall.a else "1" for wall in w.walls)
        j = dual.label_index.get(bits)
        if j is None:
            return RoundtripResult(False, reason=f"vertex {v} has no image")
        iso[v] = j
    if len(set(iso.values())) != g.n:
        return RoundtripResult(False, reason="map is not injective")
    for u, v in g.edges.tolist():
        if not dual.has_edge(iso[u], iso[v]):
            return RoundtripResult(False, reason=f"edge ({u},{v}) lost")
    return RoundtripResult(True, iso)
