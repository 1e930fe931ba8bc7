"""Dual cube complex of a finite wallspace.

A wallspace is its point labels and one (k, n) boolean array, a row per
wall, True on the side without point 0.  Vertices of the dual are
consistent orientations (Sageev 1995): one side per wall, every two chosen
sides intersecting.  For finite wallspaces this pairwise condition is the
whole ultrafilter condition, and the dual is median.  An orientation is a
k-bit code, wall 0 the most significant bit, 1 for the True side (Roller's
poc-set duality, 1998).  The dual of the wallspace of a median graph's own
halfspaces recovers the graph: a roundtrip oracle for the hyperplanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .median import MedianGraph, check_median
from .hyperplanes import arrangement

MAX_WALLS = 24  # build_dual refuses larger wallspaces


class WallspaceError(Exception):
    pass


class Wallspace:
    def __init__(self, ground_labels: list[str], walls):
        """``walls`` is k rows of n booleans, one side of a wall each; a
        row is stored XOR its point-0 entry, so either side may be given."""
        self.labels = list(ground_labels)
        self.n = len(self.labels)
        rows = np.asarray(walls, bool).reshape(len(walls), self.n)
        self.walls = rows ^ rows[:, :1]
        seen = set()
        for i, row in enumerate(np.packbits(self.walls, axis=1)):
            if not row.any():
                raise WallspaceError(f"wall {i}: empty side")
            if row.tobytes() in seen:
                raise WallspaceError(f"wall {i}: duplicate")
            seen.add(row.tobytes())

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

    left = np.zeros((len(raw_walls), len(labels)), bool)
    right = np.zeros_like(left)
    for i, (l, r) in enumerate(raw_walls):
        left[i, ids(l)] = True
        right[i, ids(r)] = True
    empty = ~left.any(1) | ~right.any(1)
    bad = np.flatnonzero(empty | ~(left ^ right).all(1))
    if len(bad):
        i = int(bad[0])
        Wallspace(labels, left[:i])  # a duplicate before wall i comes first
        raise WallspaceError(f"wall {i}: " + ("empty side" if empty[i]
                                              else "not a bipartition"))
    return Wallspace(labels, left)


def wallspace_to_text(w: Wallspace) -> str:
    lines = [f"p {lab}" for lab in w.labels]
    for i, row in enumerate(w.walls.tolist()):
        left, right = (" ".join(lab for lab, b in zip(w.labels, row) if b == s)
                       for s in (False, True))
        lines.append(f"w {i}: {left} | {right}")
    return "\n".join(lines) + "\n"


def wallspace_of_graph(g: MedianGraph) -> Wallspace:
    """Ground = vertices, one wall per hyperplane: each row is True on its
    class's far side, read once through ``side_vertices``."""
    arr = arrangement(g)
    walls = np.zeros((arr.n_classes, g.n), bool)
    for c in range(arr.n_classes):
        walls[c, list(arr.side_vertices(c, arr.far_side(c)))] = True
    return Wallspace(list(g.labels), walls)


def _refuse_over_limit(k: int):
    """Raise unless ``k`` walls are within :data:`MAX_WALLS`."""
    if k > MAX_WALLS:
        raise WallspaceError(
            f"wallspace has {k} walls, over the limit of {MAX_WALLS}")


def _bits(k: int) -> np.ndarray:
    """The code bit of each of k walls, wall 0 the most significant."""
    return np.int64(1) << np.arange(k - 1, -1, -1, dtype=np.int64)


def _label(code: int, k: int) -> str:
    """An orientation's dual label: its code's k binary digits, none when
    k = 0 (the leading 1 keeps the zeros)."""
    return format(code | 1 << k, "b")[1:]


def build_dual(w: Wallspace) -> MedianGraph:
    """The dual median graph: consistent orientations, edges between
    orientations differing on exactly one wall.

    Orientations are k-bit codes grown one wall at a time in order of
    side-size imbalance (most lopsided first prunes best), each wall
    keeping the codes whose sides meet every side placed before it.  The
    vertices are the codes in ascending order, labelled by their k binary
    digits, so the output is search-order independent."""
    _refuse_over_limit(w.k)
    k, bits = w.k, _bits(w.k)
    # side s·k + i is side s of wall i (side 0 its False entries); miss[x, y]:
    # sides x and y share no point
    sides = np.concatenate([~w.walls, w.walls]).astype(np.int64)
    miss = sides @ sides.T == 0
    placed, codes = np.zeros(k, bool), np.zeros(1, np.int64)
    for i in np.argsort(-abs(w.n - 2 * w.walls.sum(1)), kind="stable"):
        grown = []
        for s in (0, 1):
            c = codes | bits[i] * s
            # placed walls whose side 0, or side 1, misses side s of wall i
            bad0 = bits[placed & miss[s * k + i, :k]].sum()
            bad1 = bits[placed & miss[s * k + i, k:]].sum()
            grown.append(c[(c & bad1 | ~c & bad0) == 0])
        codes, placed[i] = np.concatenate(grown), True
    codes.sort()
    # an edge joins codes one bit apart, from the one with the bit clear
    partner = codes[:, None] ^ bits
    j = np.searchsorted(codes, partner).clip(max=len(codes) - 1)
    v, i = np.nonzero((codes[j] == partner) & (partner > codes[:, None]))
    labels = [_label(c, k) for c in codes.tolist()]
    g = MedianGraph(len(codes), np.stack([v, j[v, i]], 1), labels)
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
    # vertex v of g orients every wall toward the side holding it: its
    # column of the walls, read as a code
    iso: dict[int, int] = {}
    for v, code in enumerate((_bits(w.k) @ w.walls).tolist()):
        j = dual.label_index.get(_label(code, w.k))
        if j is None:
            return RoundtripResult(False, reason=f"vertex {v} has no image")
        iso[v] = j
    if len(set(iso.values())) != g.n:
        return RoundtripResult(False, reason="map is not injective")
    for u, v in g.edges.tolist():
        if not dual.has_edge(iso[u], iso[v]):
            return RoundtripResult(False, reason=f"edge ({u},{v}) lost")
    return RoundtripResult(True, iso)
