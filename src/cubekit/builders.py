"""Fixture constructors: standard median graphs and the group actions used
throughout the test corpus and the documentation examples.

Graphs built here are median by construction (hypercubes, trees, grids,
products) and are marked validated with a structural reason instead of
re-running the all-triples scan, which would dominate runtime on the large
tree-ball fixtures.  Anything loaded from a file still goes through
check_median.
"""

from __future__ import annotations

import random
from typing import Optional

from .median import MedianGraph
from .hyperplanes import product_graph
from .action import Generators, PartialAction


# -- basic graphs ---------------------------------------------------------

def hypercube(n: int) -> MedianGraph:
    """Q_n with vertices labeled by bitstrings."""
    verts = 1 << n
    edges = [(v, v | (1 << i)) for v in range(verts) for i in range(n)
             if not v & (1 << i)]
    labels = [format(v, f"0{n}b") if n else "0" for v in range(verts)]
    g = MedianGraph(verts, edges, labels)
    g._mark_validated("hypercube")
    return g


def path_graph(k: int) -> MedianGraph:
    """Path on k vertices."""
    g = MedianGraph(k, [(i, i + 1) for i in range(k - 1)],
                    [str(i) for i in range(k)])
    g._mark_validated("path")
    return g


def star(k: int) -> MedianGraph:
    """K_{1,k}: center 'c' and k leaves."""
    g = MedianGraph(k + 1, [(0, i) for i in range(1, k + 1)],
                    ["c"] + [f"l{i}" for i in range(1, k + 1)])
    g._mark_validated("tree")
    return g


def grid_graph(w: int, h: int) -> MedianGraph:
    """The w x h grid as a product of paths; labels 'x,y'."""
    return product_graph(path_graph(w), path_graph(h))


def triangle() -> MedianGraph:
    """K3 — not median (odd cycle); returned unvalidated."""
    return MedianGraph(3, [(0, 1), (1, 2), (0, 2)])


def cube_minus_vertex() -> MedianGraph:
    """Q3 with vertex 111 removed — a classic non-median graph."""
    q = hypercube(3)
    keep = [v for v in range(8) if v != 7]
    relab = {v: i for i, v in enumerate(keep)}
    edges = [(relab[u], relab[v]) for u, v in q.edges if u != 7 and v != 7]
    return MedianGraph(7, edges, [q.labels[v] for v in keep])


def random_tree(n: int, rng: random.Random) -> MedianGraph:
    """Uniform-attachment random tree on n vertices."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    g = MedianGraph(n, edges, [str(i) for i in range(n)])
    g._mark_validated("tree")
    return g


def random_connected_graph(n: int, extra: int,
                           rng: random.Random) -> MedianGraph:
    """Random tree plus ``extra`` random chords; unvalidated (may or may
    not be median — that is the point for oracle-agreement tests)."""
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    tries = 0
    while extra > 0 and tries < 50 * (extra + 1):
        tries += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e not in edges:
            edges.add(e)
            extra -= 1
    return MedianGraph(n, sorted(edges))


def random_median_factor(rng: random.Random) -> MedianGraph:
    """A small random irreducible-ish median graph: a tree, path, or star."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_tree(rng.randrange(2, 6), rng)
    if kind == 1:
        return path_graph(rng.randrange(2, 6))
    return star(rng.randrange(2, 5))


def random_product(rng: random.Random, factors: Optional[int] = None
                   ) -> tuple[MedianGraph, list[MedianGraph]]:
    """Product of 2-3 random median factors, plus the factors used."""
    k = factors if factors is not None else rng.randrange(2, 4)
    fs = [random_median_factor(rng) for _ in range(k)]
    g = fs[0]
    for f in fs[1:]:
        g = product_graph(g, f)
    return g, fs


# -- free-group tree ball -------------------------------------------------

_F2_LETTERS = ("a", "A", "b", "B")


def free_group_ball(radius: int) -> MedianGraph:
    """Ball of radius R in the 4-regular tree = reduced words over a,b of
    length <= R.  Labels are the words ('1' for the identity); the frontier
    is the sphere of radius R."""
    labels = ["1"]
    index = {"1": 0}
    edges: list[tuple[int, int]] = []
    prev = [("", 0)]
    for _ in range(radius):
        layer = []
        for w, wi in prev:
            last = w[-1] if w else ""
            for c in _F2_LETTERS:
                if last and last == c.swapcase():
                    continue
                nw = w + c
                ni = len(labels)
                index[nw] = ni
                labels.append(nw)
                edges.append((wi, ni))
                layer.append((nw, ni))
        prev = layer
    frontier = [wi for _, wi in prev] if radius > 0 else [0]
    g = MedianGraph(len(labels), edges, labels, frontier)
    g._mark_validated("tree")
    return g


def free_group_action(radius: int) -> PartialAction:
    """Standard left action of F2 = <a,b> on its tree ball.

    A generator g sends a word v to the reduction of g·v; it is defined
    wherever the image stays in the ball, so every generator is total on
    the (R-1)-ball."""
    g = free_group_ball(radius)
    gens = Generators([("a", "A"), ("b", "B")])
    idx = g.label_index
    maps = {nm: [-1] * g.n for nm in gens.names}
    for v, lab in enumerate(g.labels):
        w = "" if lab == "1" else lab
        for nm in gens.names:
            # w is reduced, so only its first letter can cancel against nm
            img = w[1:] if w[:1] == nm.swapcase() else nm + w
            j = idx.get(img if img else "1")
            if j is not None:
                maps[nm][v] = j
    return PartialAction(g, gens, maps, base=idx["1"])


# -- abelian examples -----------------------------------------------------

def line_shift_action(radius: int) -> PartialAction:
    """Z acting by shift on a path of 2*radius+1 vertices; the two path
    ends form the truncation frontier."""
    n = 2 * radius + 1
    g = MedianGraph(n, [(i, i + 1) for i in range(n - 1)],
                    [str(i - radius) for i in range(n)],
                    frontier=[0, n - 1] if radius > 0 else [0])
    g._mark_validated("path")
    gens = Generators([("t", "T")])
    maps = {"t": [v + 1 if v + 1 < n else -1 for v in range(n)],
            "T": [v - 1 if v - 1 >= 0 else -1 for v in range(n)]}
    return PartialAction(g, gens, maps, base=radius)


def grid_shift_action(side: int) -> PartialAction:
    """Z^2 acting by the two shifts on a side x side grid; frontier = the
    boundary cells.  'x'/'X' shift the first coordinate, 'y'/'Y' the
    second."""
    g = grid_graph(side, side)
    idx = g.label_index

    def vid(x, y):
        return idx[f"{x},{y}"]

    frontier = {vid(x, y) for x in range(side) for y in range(side)
                if x in (0, side - 1) or y in (0, side - 1)}
    g2 = MedianGraph(g.n, g.edges, g.labels, frontier)
    g2._mark_validated("product of paths")
    gens = Generators([("x", "X"), ("y", "Y")])
    maps = {nm: [-1] * g2.n for nm in gens.names}
    for x in range(side):
        for y in range(side):
            v = vid(x, y)
            if x + 1 < side:
                maps["x"][v] = vid(x + 1, y)
            if x - 1 >= 0:
                maps["X"][v] = vid(x - 1, y)
            if y + 1 < side:
                maps["y"][v] = vid(x, y + 1)
            if y - 1 >= 0:
                maps["Y"][v] = vid(x, y - 1)
    c = side // 2
    return PartialAction(g2, gens, maps, base=vid(c, c))


def trivial_action(g: MedianGraph, n_gens: int = 2) -> PartialAction:
    """All generators act as the identity."""
    names = [("s", "S"), ("t", "T"), ("u", "U")][:n_gens]
    gens = Generators(names)
    ident = list(range(g.n))
    maps = {nm: list(ident) for nm in gens.names}
    return PartialAction(g, gens, maps, base=0)
