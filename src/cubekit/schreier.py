"""Schreier graphs of hyperplane stabilizers, with spectral estimates.

The coset graph of the side-preserving stabilizer is realized as the orbit
graph of an oriented hyperplane: words with the same oriented image give
the same coset, so nodes are distinct oriented halfspaces and generator
edges follow the action.  Nonamenability cannot be decided from a finite
ball, so the module reports two separate channels of evidence — rigorous
finite-range free-action certificates and Dirichlet spectral estimates
with their radius series — and never a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .hyperplanes import Halfspace
from .median import join_rows
from .action import (Generators, PartialAction, Word, carry, decode,
                     invert_word, reduce_word, reduced_words, word_str)


class SchreierError(Exception):
    pass


@dataclass
class SchreierGraph:
    """Stored as three int32 arrays.  ``code`` holds each node's oriented
    halfspace as 2·class + side, in BFS order, so the nodes at depth d are
    ``start[d]:start[d + 1]``.  ``table`` holds the edges laid out like
    :attr:`PartialAction.table`: row ``gens.rank(s)`` gives each node's
    image node along s, or -1 where there is none, and ends with a -1
    slot.  A node's column holds a -1 iff the node is frontier: a step
    from it failed, or it sits at depth ``radius`` and was not expanded."""
    action: PartialAction
    radius: int
    table: np.ndarray                      # generator row -> image node
    code: np.ndarray                       # node -> 2·class + side
    start: np.ndarray                      # depth -> first node

    @property
    def n(self) -> int:
        return len(self.code)

    def interior(self) -> np.ndarray:
        """Nodes expanded at this radius: depth below it, no step failed."""
        return np.flatnonzero((self.table[:, :self.start[self.radius]]
                               >= 0).all(0))

    def witnesses(self) -> list[Word]:
        """Each node's shortest witness word: its BFS parent's word and the
        generator of the edge from it, the parent and generator where the
        node first occurs in ``table`` read node-major."""
        names, k = self.action.gens.names, len(self.table)
        node, first = np.unique(self.table[:, :self.n].T.ravel(),
                                return_index=True)
        words: list[Word] = [()]
        for r in first[node > 0].tolist():
            words.append(words[r // k] + (names[r % k],))
        return words


def build_schreier(a: PartialAction, hs: Halfspace,
                   radius: int) -> SchreierGraph:
    """BFS over cosets of the side-preserving stabilizer.

    The coset of w corresponds to the oriented halfspace w^-1(hs), so the
    edge labelled s at node x leads to s^-1(x).  Nodes whose expansion was
    stopped (by the radius or by the domain boundary) are frontier.

    One BFS layer is one :func:`carry` batch: its nodes × ``gens.names``,
    node-major and generator-minor, each row the one-token word
    (inv(s),).  New image keys get ids in order of first occurrence over
    the rows, which is the order a node-by-node BFS gives them."""
    gens = a.gens
    names, k = gens.names, len(gens.names)
    arr, maps, _ = a.carrier()
    inv_tok = np.array([gens.rank(gens.inv[nm]) for nm in names], np.int32)
    node_of = np.full(2 * arr.n_classes, -1, np.int32)  # key code -> node
    layer = np.array([2 * hs.cls + hs.side_id], np.int32)  # one depth's keys
    node_of[layer] = 0
    codes, cols, start = [layer], [], [0, 1]
    for _ in range(radius):
        cls, side = np.repeat(layer >> 1, k), np.repeat(layer & 1, k)
        img = decode(arr, carry(arr, maps, None, cls, side,
                                np.tile(inv_tok, len(layer))[None]), None)[0]
        new, first = np.unique(img[(img >= 0) & (node_of[img] < 0)],
                               return_index=True)
        layer = new[np.argsort(first)]
        node_of[layer] = np.arange(start[-1], start[-1] + len(layer))
        cols.append(np.where(img >= 0, node_of[img], -1).reshape(-1, k))
        codes.append(layer)
        start.append(start[-1] + len(layer))
    # the unexpanded nodes and the trailing slot have no edges
    cols.append(np.full((start[-1] - start[-2] + 1, k), -1, np.int32))
    return SchreierGraph(a, radius,
                         np.ascontiguousarray(np.concatenate(cols).T),
                         np.concatenate(codes), np.array(start, np.int32))


def schreier_to_text(sg: SchreierGraph) -> str:
    """Export in the graph file format; node labels are the shortest
    witness words, with `# frontier:` marking truncation."""
    n, lab = sg.n, np.array([word_str(w) for w in sg.witnesses()], object)
    u, v = np.tile(np.arange(n), len(sg.table)), sg.table[:, :n].ravel()
    keep = (v >= 0) & (v != u)  # then each edge where first met, row by row
    lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    first = np.sort(np.unique(lo * n + hi, return_index=True)[1])
    text = join_rows("v ", lab, "\n") \
        + join_rows("e ", lab[lo[first]], " ", lab[hi[first]], "\n")
    frontier = np.flatnonzero((sg.table[:, :n] < 0).any(0))
    if len(frontier):
        text += f"# frontier: {' '.join(lab[frontier])}\n"
    return text


# -- spectral estimates ---------------------------------------------------

MAX_ITER = 100_000  # power-iteration steps before spectral_estimate stops


@dataclass
class SpectralEstimate:
    radius: int
    estimate: float
    iterations: int
    residual: float
    interior_nodes: int

    def csv_line(self) -> str:
        return f"{self.radius},{self.estimate:.6f},{self.residual:.2e}"


def spectral_estimate(sg: SchreierGraph, tol: float = 1e-8
                      ) -> SpectralEstimate:
    """Dirichlet spectral radius of the simple random walk killed outside
    the interior nodes, by shifted power iteration.

    The walk takes each generator edge (loops included) with equal weight,
    so the operator restricted to the interior is symmetric and its top
    eigenvalue is a lower bound for the walk-operator norm of the full
    (infinite) Schreier graph."""
    interior = sg.interior()
    if not (k := len(interior)):
        raise SchreierError("no interior nodes at this radius")
    weight = 1.0 / len(sg.table)
    # interior position of each node, -1 elsewhere; the extra last slot is
    # what a column's -1 (no edge) reads
    pos = np.full(sg.n + 1, -1)
    pos[interior] = np.arange(k)
    dst = pos[sg.table[:, interior]]
    keep = dst >= 0
    rows, cols = np.nonzero(keep)[1], dst[keep]
    # the canonical CSR (sorted columns, duplicates summed) and the kernel
    # that ``P @ x`` runs on it, called without scipy's dispatch; it adds
    # into its output, so px is zeroed before each product.  ``ndarray.dot``
    # runs the BLAS ddot that ``@`` does, bit for bit, without its dispatch
    from scipy.sparse import coo_matrix
    from scipy.sparse._sparsetools import csr_matvec
    P = coo_matrix((np.full(len(rows), weight), (rows, cols)),
                   shape=(k, k)).tocsr()
    ptr, idx, val = P.indptr, P.indices, P.data
    x = np.full(k, 1.0 / np.sqrt(k))
    px, y, r = np.zeros(k), np.empty(k), np.empty(k)
    csr_matvec(k, k, ptr, idx, val, x, px)
    add, div, mul, sub = np.add, np.divide, np.multiply, np.subtract
    sqrt, fill, x_dot, y_dot, r_dot = math.sqrt, px.fill, x.dot, y.dot, r.dot
    lam, res = 0.0, np.inf
    for it in range(1, MAX_ITER + 1):
        # shift by I to kill the bipartite sign flip
        add(px, x, y)
        # y >= x >= 0 entrywise: norm >= 1
        div(y, sqrt(y_dot(y)), x)
        fill(0.0)
        csr_matvec(k, k, ptr, idx, val, x, px)
        lam = x_dot(px)
        sub(px, mul(x, lam, r), r)
        res = sqrt(r_dot(r))
        if res < tol:
            break
    return SpectralEstimate(sg.radius, float(lam), it, res, k)


def spectral_series(a: PartialAction, hs: Halfspace, radii: Sequence[int],
                    tol: float = 1e-8) -> list[SpectralEstimate]:
    """Estimates at increasing radii (the series should be monotone
    nondecreasing — domain monotonicity of the Dirichlet problem).  One
    graph is built, at the largest radius; BFS numbers nodes by depth, so
    the graph at radius r is its prefix (interior: depth < r, no failed
    step, same node order) and each estimate is bit-identical."""
    radii = sorted(radii)
    sg = build_schreier(a, hs, radii[-1]) if radii else None
    return [spectral_estimate(replace(sg, radius=r), tol) for r in radii]


# -- free-action certificates ---------------------------------------------

@dataclass
class FreeActionCertificate:
    ok: bool
    L: int
    words_checked: int
    fixed: list[tuple[Word, int]]          # (word, fixed interior node)
    unverifiable: list[Word]               # truncation losses
    min_displaced_fraction: float

    def render(self) -> str:
        lines = [f"free action on cosets: "
                 f"{'certified' if self.ok else 'REFUTED'} up to length "
                 f"{self.L} ({self.words_checked} words)"]
        for w, node in self.fixed:
            lines.append(f"fixed: {word_str(w)} fixes node {node}")
        for w in self.unverifiable:
            lines.append(f"unverifiable (truncation): {word_str(w)}")
        lines.append(f"min displaced fraction: "
                     f"{self.min_displaced_fraction:.3f}")
        return "\n".join(lines)


def free_action_cert(sg: SchreierGraph, f_words: tuple[Word, Word],
                     L: int) -> FreeActionCertificate:
    """No nontrivial word in the free pair of length <= L may fix an
    interior node.  Node maps are composed as numpy gathers; nodes whose
    trajectory leaves the ball are excluded and reported."""
    g_w, h_w = f_words
    gens = sg.action.gens
    letters = {"g": g_w, "G": invert_word(g_w, gens),
               "h": h_w, "H": invert_word(h_w, gens)}
    # a node that has left the ball (-1) reads a row's trailing -1 slot,
    # so it stays -1; np.take gathers through the int32 node ids without
    # first converting them to intp, as indexing does
    row = {nm: sg.table[gens.rank(nm)] for nm in gens.names}
    n = sg.n
    idx = np.arange(n, dtype=np.int32)

    interior = np.zeros(n, dtype=bool)
    interior[sg.interior()] = True
    f_gens = Generators([("g", "G"), ("h", "H")])
    fixed = []
    unverifiable = []
    checked = 0
    min_frac = 1.0
    for fw in reduced_words(f_gens, L, min_len=1):
        expanded = reduce_word(
            sum((letters[t] for t in fw), ()), gens)
        checked += 1
        if not expanded:
            fixed.append((fw, 0))
            continue
        m = row[expanded[0]][:n]
        for tok in expanded[1:]:
            m = np.take(row[tok], m)
        defined = m >= 0
        fix_mask = interior & defined & (m == idx)
        lost = interior & ~defined
        if lost.any() and not fix_mask.any():
            unverifiable.append(fw)
        if fix_mask.any():
            fixed.append((fw, int(np.argmax(fix_mask))))
        tested = interior & defined
        if tested.any():
            frac = float((m[tested] != idx[tested]).mean())
            min_frac = min(min_frac, frac)
    return FreeActionCertificate(not fixed, L, checked, fixed,
                                 unverifiable, min_frac)
