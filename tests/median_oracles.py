"""Distance-row oracles for the tests: intervals, medians, convexity and
gates of a validated median graph, each read off BFS rows from
``MedianGraph.dist_from`` and nothing else of cubekit."""

from typing import Iterable

import numpy as np

from cubekit.median import MedianGraph


def interval(g: MedianGraph, u: int, v: int) -> frozenset[int]:
    """I(u, v): vertices on shortest u-v paths."""
    du, dv = g.dist_from(u), g.dist_from(v)
    return frozenset(np.flatnonzero(du + dv == du[v]).tolist())


def median(g: MedianGraph, u: int, v: int, w: int) -> int:
    """The unique vertex in I(u,v) ∩ I(v,w) ∩ I(u,w)."""
    g.require_validated()
    du, dv, dw = g.dist_from(u), g.dist_from(v), g.dist_from(w)
    x = np.flatnonzero((du + dv == du[v]) & (dv + dw == dv[w])
                       & (du + dw == du[w]))
    if not len(x):
        raise AssertionError("validated graph has a medianless triple")
    return int(x[0])


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
