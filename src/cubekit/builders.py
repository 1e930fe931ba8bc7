"""Fixture constructors: standard median graphs and the group actions used
throughout the test corpus and the documentation examples.

Graphs built here are median by construction (hypercubes, trees, grids,
products) and are marked validated without running check_median.
Anything loaded from a file still goes through check_median.

The F2 tree ball numbers its words by length, then in mixed radix (base 4
for the first letter, 3 for each later one), so a letter multiplied on the
left changes only a word's first two digits, or drops its first.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

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
    g._mark_validated()
    return g


def path_graph(k: int) -> MedianGraph:
    """Path on k vertices."""
    g = MedianGraph(k, [(i, i + 1) for i in range(k - 1)],
                    [str(i) for i in range(k)])
    g._mark_validated()
    return g


def star(k: int) -> MedianGraph:
    """K_{1,k}: center 'c' and k leaves."""
    g = MedianGraph(k + 1, [(0, i) for i in range(1, k + 1)],
                    ["c"] + [f"l{i}" for i in range(1, k + 1)])
    g._mark_validated()
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
    edges = [(relab[u], relab[v]) for u, v in q.edges.tolist()
             if u != 7 and v != 7]
    return MedianGraph(7, edges, [q.labels[v] for v in keep])


def random_tree(n: int, rng: random.Random) -> MedianGraph:
    """Uniform-attachment random tree on n vertices."""
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    g = MedianGraph(n, edges, [str(i) for i in range(n)])
    g._mark_validated()
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

_F2_LETTERS = ("a", "A", "b", "B")  # letter i has inverse i ^ 1
# the letters that may follow a word's last letter ('' for the identity)
_F2_NEXT = {c: tuple(d for d in _F2_LETTERS if d != c.swapcase())
            for c in ("",) + _F2_LETTERS}


def free_group_ball(radius: int) -> MedianGraph:
    """Ball of radius R in the 4-regular tree = reduced words over a,b of
    length <= R.  Labels are the words ('1' for the identity); the frontier
    is the sphere of radius R.

    The word w_1…w_k is vertex 2·3^(k-1) − 1 + offset, where the mixed
    radix offset has first digit the index of w_1 in ``_F2_LETTERS`` (base
    4) and later digits the index of w_j in ``_F2_NEXT[w_{j-1}]`` (base
    3).  So the parent of v ≥ 1 is max(0, (v − 2) // 3)."""
    labels, layer = ["1"], [""]
    for _ in range(radius):
        layer = [w + c for w in layer for c in _F2_NEXT[w[-1:]]]
        labels += layer
    n = len(labels)
    child = np.arange(1, n)
    g = MedianGraph(n, np.stack((np.maximum(child - 2, 0) // 3, child), 1),
                    labels, np.arange(n - len(layer), n))
    g._mark_validated()
    return g


def free_group_action(radius: int) -> PartialAction:
    """Standard left action of F2 = <a,b> on its tree ball.

    A generator x sends a word w to the reduction of x·w; it is defined
    wherever the image stays in the ball, so every generator is total on
    the (R-1)-ball.  In the numbering of :func:`free_group_ball`, x·w has
    w's digits but the first two: if x cancels w_1 it is w_2…w_k, led by
    the index of w_2 in ``_F2_LETTERS``; else it is x·w_1…w_k, led by the
    index of x and then that of w_1 in ``_F2_NEXT[x]``.  So the maps are
    digit arithmetic over one layer at a time."""
    g = free_group_ball(radius)
    # start[k] = 2·3^(k-1) − 1 is the first word of length k; start[0] = 0
    start = [(2 * 3 ** k - 1) // 3 for k in range(radius + 2)]
    maps = np.full((4, g.n), -1, np.int32)
    maps[:, 0] = np.arange(1, 5) if radius else -1
    for k in range(1, radius + 1):
        unit, low = 3 ** (k - 1), 3 ** (k - 1) // 3  # first two digits
        first, rest = np.divmod(np.arange(4 * unit), unit)
        second, tail = np.divmod(rest, max(low, 1))
        for i, mp in enumerate(maps[:, start[k]:start[k + 1]]):
            # if x = letter i cancels w_1 = letter i ^ 1, w_2's digit skips
            # i (on k = 1, low is 0 and x·w = 1); else w_1's skips i ^ 1
            down = start[k - 1] + (second + (second >= i)) * low + tail
            up = (start[k + 1] + i * 3 * unit
                  + (first - (first > i ^ 1)) * unit + rest)
            mp[:] = np.where(first == i ^ 1, down, up if k < radius else -1)
    return PartialAction(g, Generators([("a", "A"), ("b", "B")]),
                         dict(zip(_F2_LETTERS, maps)), base=0)


# -- abelian examples -----------------------------------------------------

def line_shift_action(radius: int) -> PartialAction:
    """Z acting by shift on a path of 2*radius+1 vertices; the two path
    ends form the truncation frontier."""
    n = 2 * radius + 1
    g = MedianGraph(n, [(i, i + 1) for i in range(n - 1)],
                    [str(i - radius) for i in range(n)],
                    frontier=[0, n - 1] if radius > 0 else [0])
    g._mark_validated()
    v = np.arange(n)
    maps = {"t": np.where(v + 1 < n, v + 1, -1), "T": v - 1}
    return PartialAction(g, Generators([("t", "T")]), maps, base=radius)


def grid_shift_action(side: int) -> PartialAction:
    """Z^2 acting by the two shifts on a side x side grid; frontier = the
    boundary cells.  'x'/'X' shift the first coordinate, 'y'/'Y' the
    second.  Cell (x, y) is vertex x·side + y, labelled 'x,y'."""
    n = side * side
    v = np.arange(n)
    x, y = np.divmod(v, side)
    right, down = v[y + 1 < side], v[:n - side]
    edges = np.concatenate((np.stack((right, right + 1), 1),
                            np.stack((down, down + side), 1)))
    labels = [f"{i},{j}" for i in range(side) for j in range(side)]
    boundary = (x == 0) | (x == side - 1) | (y == 0) | (y == side - 1)
    g = MedianGraph(n, edges, labels, np.flatnonzero(boundary))
    g._mark_validated()
    maps = {"x": np.where(x + 1 < side, v + side, -1),
            "X": np.where(x > 0, v - side, -1),
            "y": np.where(y + 1 < side, v + 1, -1),
            "Y": np.where(y > 0, v - 1, -1)}
    c = side // 2
    return PartialAction(g, Generators([("x", "X"), ("y", "Y")]), maps,
                         base=c * side + c)


def trivial_action(g: MedianGraph, n_gens: int = 2) -> PartialAction:
    """All generators act as the identity."""
    names = [("s", "S"), ("t", "T"), ("u", "U")][:n_gens]
    gens = Generators(names)
    return PartialAction(g, gens, dict.fromkeys(gens.names, range(g.n)),
                         base=0)
