"""Group actions on median graphs by partial generator maps.

A finitely generated group acts through its generators, each stored as a
partial injection on vertices (total on full graphs, partial near the
boundary of a truncated ball).  Elements are free words in the generators;
two words are "equal" only if they act identically on the given data, so
no relations are ever assumed.

Halfspaces are transported by mapping one dual edge with its orientation
and re-reading the image halfspace off the arrangement; every transport
carries a margin (distance of the inspected trajectory to the truncation
frontier) so downstream certificates can state exactly how much of the
computation was performed on trustworthy, non-boundary data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .median import MedianGraph, bfs_distances, join_rows
from .hyperplanes import Arrangement, Halfspace, arrangement, halfspace_leq


class ActionError(Exception):
    pass


Word = tuple[str, ...]


class Generators:
    """Generator alphabet closed under formal inversion.

    ``pairs`` lists (name, inverse-name); a self-inverse generator may
    repeat its own name.  Name order (declaration order) fixes the
    length-lexicographic word order used by every search.
    """

    def __init__(self, pairs: Sequence[tuple[str, str]]):
        self.pairs = tuple(pairs)
        names: list[str] = []
        inv: dict[str, str] = {}
        for a, b in pairs:
            for x in (a, b):
                if x not in inv:
                    names.append(x)
            inv[a] = b
            inv[b] = a
        self.names = tuple(names)
        self.inv = inv
        self._rank = {nm: i for i, nm in enumerate(self.names)}

    def rank(self, name: str) -> int:
        return self._rank[name]

    def __repr__(self):
        return f"Generators({list(self.pairs)})"


def reduce_word(tokens: Iterable[str], gens: Generators) -> Word:
    out: list[str] = []
    for t in tokens:
        if t not in gens.inv:
            raise ActionError(f"unknown generator '{t}'")
        if out and gens.inv[out[-1]] == t:
            out.pop()
        else:
            out.append(t)
    return tuple(out)


def invert_word(w: Word, gens: Generators) -> Word:
    return tuple(gens.inv[t] for t in reversed(w))


def word_power(w: Word, n: int, gens: Generators) -> Word:
    """w^n: the reduced |n|-fold concatenation of w, or of its inverse
    when n < 0."""
    return reduce_word((w if n >= 0 else invert_word(w, gens)) * abs(n),
                       gens)


def parse_word(s: str, gens: Generators) -> Word:
    """Accepts whitespace/'*'-separated tokens, or a run of single-char
    generator names; '1' and 'e' denote the empty word."""
    s = s.strip()
    if s in ("", "1", "e"):
        return ()
    toks = s.replace("*", " ").split()
    if len(toks) == 1 and toks[0] not in gens.inv \
            and all(c in gens.inv for c in toks[0]):
        toks = list(toks[0])
    return reduce_word(toks, gens)


def word_str(w: Word) -> str:
    if not w:
        return "1"
    if all(len(t) == 1 for t in w):
        return "".join(w)
    return " ".join(w)


def reduced_words(gens: Generators, max_len: int,
                  min_len: int = 0) -> Iterator[Word]:
    """Reduced words in length order, lexicographic (by declaration rank)
    within each length.  The empty word comes first when min_len is 0."""
    if min_len <= 0:
        yield ()
    layer: list[Word] = [()]
    for ln in range(1, max_len + 1):
        nxt: list[Word] = []
        for w in layer:
            nxt.extend(w + (nm,) for nm in gens.names
                       if not w or gens.inv[w[-1]] != nm)
        layer = nxt
        if ln >= min_len:
            yield from layer


# -- the action -----------------------------------------------------------

@dataclass
class TransportResult:
    halfspace: Optional[Halfspace]
    margin: Optional[int]        # None on full graphs (exact); int else
    fail_step: Optional[int] = None   # 1-based count of applied tokens

    @property
    def ok(self) -> bool:
        return self.halfspace is not None


@dataclass
class ActionReport:
    valid: bool
    issues: list[str]
    r_eff: int
    total: bool                  # all generator maps total
    domain_sizes: dict[str, int]

    def render(self) -> str:
        lines = [f"action: {'valid' if self.valid else 'INVALID'}",
                 f"R_eff: {self.r_eff}",
                 f"total: {'yes' if self.total else 'no'}"]
        for nm, sz in sorted(self.domain_sizes.items()):
            lines.append(f"domain[{nm}]: {sz}")
        lines.extend(f"issue: {s}" for s in self.issues)
        return "\n".join(lines)


def _id_text(n: int) -> np.ndarray:
    """The decimal text of -1..n as one V(w + 1) item per id, ids[i + 1]
    holding i: w digit bytes, NUL before the leading digit, then ','."""
    w = max(len(str(n)), 2)
    tab = np.zeros((n + 2, w + 1), np.uint8)
    tab[:, w] = ord(",")
    tab[:2, w - 2:w] = (ord("-"), ord("1")), (0, ord("0"))  # -1 and 0
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for k in range(w):  # digit k of i = 0..n cycles 0-9, 10**k ids a value
        cycle = np.resize(np.repeat(digits, 10 ** k), n + 1)
        tab[1 + 10 ** k:, w - 1 - k] = cycle[10 ** k:]  # only i >= 10**k
    return tab.view(f"V{w + 1}")[:, 0]


class PartialAction:
    """Generators acting as partial automorphisms of one median graph.

    ``table`` is int32 of shape (len(gens.names), n + 1): row
    ``gens.rank(name)`` holds each vertex's image, or -1 where the generator
    is undefined, then a -1 slot that a vertex which has left the domain
    reads.  Input entries are clipped to -1..n (n is out of range).
    ``maps[name]`` is the writable view ``table[gens.rank(name), :n]``.
    ``base`` is the basepoint used for orbit and effective-radius reporting.
    """

    def __init__(self, graph: MedianGraph, gens: Generators,
                 maps: dict[str, Sequence[int]], base: int = 0):
        self.graph = graph
        self.gens = gens
        n = graph.n
        self.table = np.full((len(gens.names), n + 1), -1, np.int32)
        for row, nm in zip(self.table, gens.names):
            mp = maps.get(nm, ())
            if len(mp) != n:
                raise ActionError(f"map for '{nm}' has wrong length")
            np.clip(mp, -1, n, out=row[:n])
        self.maps = {nm: self.table[gens.rank(nm), :n] for nm in gens.names}
        self.base = base
        self._fd: Optional[np.ndarray] = None
        self._digest: Optional[str] = None

    # -- bookkeeping ------------------------------------------------------

    @property
    def truncated(self) -> bool:
        return len(self.graph.frontier) > 0

    def frontier_dist(self) -> Optional[np.ndarray]:
        """Distance of each vertex to the truncation frontier, as int32
        with a trailing 0 slot, from one BFS on first call; None when the
        graph is full."""
        if self._fd is None and self.truncated:
            fd = bfs_distances(self.graph, self.graph.frontier)
            self._fd = np.append(fd, np.int32(0))
        return self._fd

    def digest(self) -> str:
        if self._digest is None:
            h = hashlib.sha256()
            h.update(self.graph.digest().encode())
            for a, b in self.gens.pairs:
                h.update(f"g:{a}|{b}\n".encode())
            ids = _id_text(self.graph.n)
            for nm in self.gens.names:
                t = ids[self.maps[nm] + 1].view(np.uint8)  # text is never NUL
                h.update(b"m:%s:%s\n" % (nm.encode(), t[t != 0][:-1]))
            h.update(f"b:{self.base}\n".encode())
            self._digest = h.hexdigest()
        return self._digest

    # -- validation -------------------------------------------------------

    def validate(self) -> ActionReport:
        g = self.graph
        issues: list[str] = []
        maps = {nm: mp.tolist() for nm, mp in self.maps.items()}
        for nm in self.gens.names:
            mp = maps[nm]
            inv = maps[self.gens.inv[nm]]
            seen: dict[int, int] = {}
            for v, w in enumerate(mp):
                if w < 0:
                    continue
                if not 0 <= w < g.n:
                    issues.append(f"{nm}: image of {v} out of range")
                    continue
                if w in seen:
                    issues.append(f"{nm}: not injective at {seen[w]},{v}")
                seen[w] = v
                if inv[w] != v:
                    issues.append(f"{nm}: inverse mismatch at {v}")
            im = self.maps[nm][g.edges]
            lost = (im.min(1) >= 0) & (g.edge_ids(im[:, 0], im[:, 1]) < 0)
            if lost.any():
                u, v = g.edges[int(lost.argmax())].tolist()
                issues.append(f"{nm}: edge {g.labels[u]}-{g.labels[v]} "
                              f"mapped to non-edge")
        db = g.dist_from(self.base)
        undef = db[(self.table[:, :g.n] < 0).any(0)]
        total = not len(undef)
        r_eff = int(db.max() if total else undef.min() - 1)
        sizes = {nm: int((mp >= 0).sum()) for nm, mp in self.maps.items()}
        return ActionReport(not issues, issues, r_eff, total, sizes)

    # -- application ------------------------------------------------------

    def apply(self, word: Word, v: int) -> tuple[Optional[int], int]:
        """Image of v under the word (rightmost token acts first).

        Returns (image, steps applied); image None if some step left the
        domain, with the count telling how many tokens were applied."""
        cur, done = v, 0
        for t in reversed(word):
            cur = int(self.maps[t][cur])
            if cur < 0:
                return None, done
            done += 1
        return cur, done

    # -- halfspace transport ----------------------------------------------

    def carrier(self) -> tuple:
        """(arrangement, ``table``, :meth:`frontier_dist`): what
        :func:`carry` reads, with no copy of the maps.  A vertex that has
        left the domain (-1) reads a trailing -1 slot and stays -1; the
        frontier row's trailing slot is 0."""
        return arrangement(self.graph), self.table, self.frontier_dist()

    def transport_halfspace(self, word: Word, hs: Halfspace) -> TransportResult:
        """Image halfspace w(hs), with truncation margin: :func:`transport`
        of one row."""
        return transport(self, [word], [hs])[0]


def transport(a: PartialAction, words: Sequence[Word],
              halves: Sequence[Halfspace]) -> list[TransportResult]:
    """The image of halves[i] under words[i], with truncation margin, for
    every row i, in input order: one :func:`carry` batch per word length.
    Where no dual edge of a row's class stays in the domain, image and
    margin are None and fail_step is the largest count of applied tokens,
    plus one."""
    if any(hs.arr.graph is not a.graph for hs in halves):
        raise ActionError("halfspace belongs to a different graph")
    arr, maps, fd = a.carrier()
    rank = a.gens.rank
    out: list[TransportResult] = [None] * len(words)
    for k in set(map(len, words)):
        rows = [i for i, w in enumerate(words) if len(w) == k]
        keys = np.array([halves[i].key for i in rows], np.int32)
        toks = np.array([[rank(t) for t in reversed(words[i])]
                         for i in rows], np.int32)
        st = carry(arr, maps, fd, keys[:, 0], keys[:, 1], toks.T)
        for i, res in zip(rows, _results(arr, *decode(arr, st, fd))):
            out[i] = res
    return out


# _TAIL_HEAD[s]: the orientation columns of (tail, head), head on side s
_TAIL_HEAD = np.array([[1, 0], [0, 1]])


def carry(arr: Arrangement, maps: np.ndarray, fd: Optional[np.ndarray],
          cls: np.ndarray, side: np.ndarray, toks: np.ndarray,
          state: Optional[np.ndarray] = None) -> np.ndarray:
    """The carried-edge step of every transport, over a batch of rows.

    Row i carries the dual edges of the oriented halfspace
    (cls[i], side[i]), in CSR order, through its word: ``toks[j, i]`` is
    the row of ``maps`` (see :meth:`PartialAction.carrier`) of the j-th
    token to act, rightmost first, and every word has the same length k.
    An edge stays when both ends stay in the domain; a row whose edge
    leaves it moves on to its class's next dual edge, until each row has an
    image or no edges left.  A row's margin is the least frontier distance
    ``fd`` met on its staying edge's way (0 when ``fd`` is None).

    The result is a state: an int32 array whose five rows are pos, tail,
    head, margin and fail.  pos[i] is the CSR position of the staying edge,
    whose image is (tail[i], head[i]), or -1 where no edge stays; fail[i]
    is then the largest count of applied tokens over the row's edges, plus
    one (0 elsewhere), and tail, head and margin are not read.  Given the
    state of each row's word without its last token, as the word walk
    keeps it for w[1:], a row resumes its staying edge with only
    toks[k - 1] left to apply, and carries the later edges through the
    whole word; a row without a staying edge keeps its fail count."""
    k, rows = toks.shape
    # maps[x, v] is flat[x·width + v]; so -1 reads the -1 slot that ends
    # the row before (the last row's, for the first)
    flat, width = maps.ravel(), np.intp(maps.shape[1])
    out = np.zeros((5, rows), np.int32)
    out[0] = -1
    end = arr.class_start[cls + 1]
    resumed = state is not None
    if resumed:
        pos, first = state[0].copy(), k - 1
        out[4] = state[4]
        live = (pos >= 0).nonzero()[0]
    else:
        pos, first = arr.class_start[cls], 0
        live = np.arange(rows)
    while len(live):
        at = pos[live]
        if resumed:  # each row's edge where w[1:] left it
            th = state[1:3, live]
        else:  # the edge at pos, head on the row's side
            th = arr.orientation[arr.edges_by_class[at],
                                 _TAIL_HEAD[side[live]].T]
        # path[i]: the (tail, head) images after i of the tokens left; a
        # vertex that has left the domain stays -1
        path = np.empty((k - first + 1, 2, len(live)), np.int32)
        path[0] = th
        off = toks[first:, live] * width  # of the tokens left, by row
        for i in range(k - first):
            path[i + 1] = flat[off[i] + path[i]]
        alive = np.minimum.reduce(path, 1) >= 0  # both ends, per step
        kept = alive[-1]
        out[0, live] = np.where(kept, at, -1)
        out[1:3, live] = path[-1]
        if fd is not None:
            m = np.minimum.reduce(fd[path], (0, 1))
            out[3, live] = np.minimum(m, state[3, live]) if resumed else m
        # tokens applied, plus one (path[0] is in the domain)
        out[4, live] = np.maximum(out[4, live], first + alive.sum(0))
        r = live[~kept]
        pos[r] += 1
        live, first, resumed = r[pos[r] < end[r]], 0, False
    out[4, out[0] >= 0] = 0
    return out


def decode(arr: Arrangement, state: np.ndarray, fd: Optional[np.ndarray]
           ) -> tuple:
    """(code, margin, fail) of a :func:`carry` state, as :class:`WordLayer`
    holds them: code[i] = 2·class + side of row i's image, or -1 where no
    edge stayed; margin is None when ``fd`` is (a full graph).  An image
    pair that is not an edge raises the KeyError of ``graph.edge_id``."""
    pos, t, h, margin, fail = state
    code = np.full(len(pos), -1, np.int32)
    ok = (pos >= 0).nonzero()[0]
    if len(ok):
        t, h = t[ok], h[ok]
        e = arr.graph.edge_ids(t, h)
        if (e < 0).any():
            i = int(np.argmax(e < 0))
            raise KeyError(tuple(sorted((int(t[i]), int(h[i])))))
        code[ok] = 2 * arr.edge_class[e] + (arr.orientation[e, 1] == h)
    return code, None if fd is None else margin, fail


def _results(arr: Arrangement, code: np.ndarray, margin: Optional[np.ndarray],
             fail: np.ndarray) -> list[TransportResult]:
    """The rows of :func:`decode` as results, one Halfspace per image."""
    codes = code.tolist()
    image = {c: _image(arr, c) for c in set(codes) if c >= 0}
    margins = [None] * len(codes) if margin is None else margin.tolist()
    return [TransportResult(image[c], m) if c >= 0
            else TransportResult(None, None, f)
            for c, m, f in zip(codes, margins, fail.tolist())]


# -- file format ----------------------------------------------------------

def load_action(text: str, graph: MedianGraph) -> PartialAction:
    """Parse `gen <name> <inv>` / `map <name> <v> <w>` / `base <v>` lines;
    vertex tokens are graph labels."""
    pairs: list[tuple[str, str]] = []
    raw_maps: list[tuple[str, str, str]] = []
    base_label: Optional[str] = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "gen" and len(parts) == 3:
            pairs.append((parts[1], parts[2]))
        elif parts[0] == "map" and len(parts) == 4:
            raw_maps.append((parts[1], parts[2], parts[3]))
        elif parts[0] == "base" and len(parts) == 2:
            base_label = parts[1]
        else:
            raise ActionError(f"line {lineno}: cannot parse '{line}'")
    if not pairs:
        raise ActionError("no generators declared")
    gens = Generators(pairs)
    table = np.full((len(gens.names), graph.n), -1, np.int32)
    for nm, a, b in raw_maps:
        if nm not in gens.inv:
            raise ActionError(f"map for undeclared generator '{nm}'")
        try:
            va, vb = graph.label_index[a], graph.label_index[b]
        except KeyError as exc:
            raise ActionError(f"unknown vertex label {exc}") from None
        table[gens.rank(nm), va] = vb
    base = 0 if base_label is None else graph.label_index.get(base_label)
    if base is None:
        raise ActionError(f"unknown base label '{base_label}'")
    return PartialAction(graph, gens, dict(zip(gens.names, table)), base)


def action_to_text(a: PartialAction) -> str:
    lab = np.array(a.graph.labels, object)
    text = [f"gen {x} {y}\n" for x, y in a.gens.pairs]
    text.append(f"base {lab[a.base]}\n")
    for nm in a.gens.names:
        kept = np.flatnonzero(a.maps[nm] >= 0)  # one line per kept entry
        text.append(join_rows(f"map {nm} ", lab[kept], " ",
                              lab[a.maps[nm][kept]], "\n"))
    return "".join(text)


# -- searches -------------------------------------------------------------

@dataclass
class OrbitResult:
    images: list[tuple[Halfspace, Word]]
    truncated: bool


class WordLayer(NamedTuple):
    """The transports of one length's reduced words, in search order:
    ``toks[j, i]`` is the name slot of the j-th token of row i to act
    (rightmost first); ``code[i]`` = 2·class + side of row i's image, or -1
    where it left the domain; ``margin`` (None on full graphs) is read where
    code >= 0 and ``fail`` (the fail_step) where code < 0."""
    names: tuple[str, ...]
    toks: np.ndarray
    code: np.ndarray
    margin: Optional[np.ndarray]
    fail: np.ndarray

    def words(self, rows: Sequence[int]) -> list[Word]:
        """The reduced words of the given rows, spelled from ``names``."""
        return [tuple(map(self.names.__getitem__, w))
                for w in self.toks[::-1, rows].T.tolist()]


def walk_layers(a: PartialAction, hs: Halfspace, L: int, min_len: int = 0
                ) -> Iterator[WordLayer]:
    """The transports w(hs) of the reduced words w with
    min_len <= |w| <= L, one :class:`WordLayer` per length.  Every
    halfspace search walks words here.

    The word tree runs by arithmetic, in :func:`reduced_words`' order:
    w = p·x is the r-th child of p, x being the r-th of the names that may
    follow p's last one; a layer keeps the tokens, not the words.  For
    |p| >= 2, p[1:] ends like p, so the suffix w[1:] = p[1:]·x is the
    r-th child of p[1:].  A layer is one :func:`carry` step on the
    states of the suffixes (the first length walked is carried in full):
    w = w[0]·w[1:] resumes the edge that w[1:] kept, with w[0] left to
    apply.  Edges tried before that one failed within w[1:], so if the
    resumed edge fails its count |w| tops theirs and the later edges are
    carried through all of w; a failed w[1:] fails alike, with its
    fail_step.  Image, margin and fail_step equal :func:`transport`'s
    exactly."""
    if hs.arr.graph is not a.graph:
        raise ActionError("halfspace belongs to a different graph")
    arr, maps, fd = a.carrier()
    names = a.gens.names
    k = len(names)
    # follows[x, y]: name slot y may follow slot x in a reduced word;
    # succ[x] lists those y first, in order
    follows = np.array([[a.gens.inv[x] != y for y in names]
                        for x in names], bool).reshape(k, k)
    succ = np.argsort(~follows, axis=1, kind="stable")
    toks = np.zeros((0, 1), np.int32)   # map rows of w, rightmost first
    st = None                           # carried state of the last length
    for ln in range(max(L, 0) + 1):
        if ln == 1:
            first = last = np.arange(k, dtype=np.int32)
            suffix = np.zeros(k, np.intp)      # every w[1:] is ()
        elif ln > 1:
            counts = follows[last].sum(1)
            kids = np.cumsum(counts) - counts  # first child of each word
            parent = np.repeat(np.arange(len(last)), counts)
            r = np.arange(len(parent)) - kids[parent]
            last = succ[last[parent], r]
            suffix = last if ln == 2 else start[suffix[parent]] + r
            first, start = first[parent], kids
        if ln:  # reversed(w) is reversed(w[1:]), then w[0]
            nxt = np.empty((ln, len(first)), np.int32)
            np.take(toks, suffix, axis=1, out=nxt[:-1])
            nxt[-1], toks = first, nxt
        if ln < min_len:
            continue
        cls, side = (np.full(toks.shape[1], x, np.int32) for x in hs.key)
        st = carry(arr, maps, fd, cls, side, toks,
                   None if st is None else st[:, suffix])
        yield WordLayer(names, toks, *decode(arr, st, fd))


def _first_rows(code: np.ndarray) -> list[int]:
    """Rows where each image key first occurs, in row order (failed rows
    excluded)."""
    ok = np.flatnonzero(code >= 0)
    return ok[np.sort(np.unique(code[ok], return_index=True)[1])].tolist()


def _image(arr: Arrangement, code: int) -> Halfspace:
    return Halfspace(arr, code >> 1, code & 1)


def hyperplane_orbit(a: PartialAction, hs: Halfspace, L: int) -> OrbitResult:
    """Distinct oriented images w(hs) over reduced words |w| <= L, each
    with its shortest (length-lex-first) witness word."""
    seen: set[int] = set()
    images: list[tuple[Halfspace, Word]] = []
    truncated = False
    for lay in walk_layers(a, hs, L):
        truncated = truncated or bool((lay.code < 0).any())
        for i in _first_rows(lay.code):
            c = int(lay.code[i])
            if c not in seen:
                seen.add(c)
                images.append((_image(hs.arr, c), lay.words([i])[0]))
    return OrbitResult(images, truncated)


def stabilizer_words(a: PartialAction, hs: Halfspace, L: int) -> list[Word]:
    """Reduced words w with w(hs) = hs as an oriented halfspace (the
    side-preserving stabilizer convention)."""
    own = 2 * hs.cls + hs.side_id
    return [w for lay in walk_layers(a, hs, L)
            for w in lay.words(np.flatnonzero(lay.code == own))]


def _strict_witness_margin(a: PartialAction, inner: Halfspace) -> bool:
    """Whether the strictness witness of a proper inclusion inner ⊊ outer
    is trusted: the witness is the tail of ``inner``'s oriented
    representative edge, and on a truncated ball it needs frontier
    distance >= 1."""
    if not a.truncated:
        return True
    return bool(a.frontier_dist()[inner.oriented_rep()[0]] >= 1)


def proper_subhalfspace(a: PartialAction, inner: Halfspace,
                        outer: Halfspace) -> bool:
    """inner ⊊ outer, with the truncation-aware strictness convention."""
    if inner.key == outer.key:
        return False
    return halfspace_leq(inner, outer) and _strict_witness_margin(a, inner)


@dataclass
class SearchResult:
    word: Optional[Word]
    image: Optional[Halfspace] = None
    margin: Optional[int] = None
    truncated: bool = False

    @property
    def found(self) -> bool:
        return self.word is not None


def first_image(a: PartialAction, hs: Halfspace, L: int,
                accept: Callable[[Halfspace], bool],
                min_len: int = 1) -> SearchResult:
    """The first word, in search order, whose image w(hs) passes
    ``accept``; ``truncated`` records whether an earlier word's transport
    left the action's domain.  The walk goes a layer at a time
    (:func:`walk_layers`), so the hit's whole layer is carried, and
    ``accept``, a pure function of the image, is called once per distinct
    image key, in order of first occurrence, up to the hit."""
    verdict: dict[int, bool] = {}
    truncated = False
    for lay in walk_layers(a, hs, L, min_len):
        for i in _first_rows(lay.code):
            c = int(lay.code[i])
            if c not in verdict:
                verdict[c] = accept(_image(hs.arr, c))
            if verdict[c]:
                margin = None if lay.margin is None else int(lay.margin[i])
                return SearchResult(lay.words([i])[0], _image(hs.arr, c),
                                    margin, truncated or
                                    bool((lay.code[:i] < 0).any()))
        truncated = truncated or bool((lay.code < 0).any())
    return SearchResult(None, truncated=truncated)


def find_flipping(a: PartialAction, hs: Halfspace, L: int) -> SearchResult:
    """Shortest reduced word g with hs* ⊊ g(hs)."""
    comp = hs.complement
    return first_image(a, hs, L, lambda img: proper_subhalfspace(a, comp, img))


def find_double_skewer(a: PartialAction, k_hs: Halfspace, h_hs: Halfspace,
                       L: int) -> SearchResult:
    """Shortest g with g(h_hs) ⊊ k_hs, given k_hs ⊆ h_hs."""
    if not (k_hs.key == h_hs.key or halfspace_leq(k_hs, h_hs)):
        raise ActionError("double skewer requires k ⊆ h")
    return first_image(a, h_hs, L,
                       lambda img: proper_subhalfspace(a, img, k_hs))


# -- finite quotients -----------------------------------------------------

class FiniteQuotient:
    """Homomorphism to a permutation group of a finite set, used as a
    membership oracle for its kernel (a finite-index subgroup)."""

    def __init__(self, gens: Generators, perms: dict[str, Sequence[int]]):
        self.gens = gens
        self.size = None
        self.perms: dict[str, tuple[int, ...]] = {}
        for nm, p in perms.items():
            self.perms[nm] = tuple(p)
            if self.size is None:
                self.size = len(p)
            elif self.size != len(p):
                raise ActionError("permutation degrees differ")
            if sorted(p) != list(range(self.size)):  # later steps index by p
                raise ActionError(f"permutation for '{nm}' is not a "
                                  f"bijection of 0..{self.size - 1}")
        for a, b in gens.pairs:
            if a in self.perms and b not in self.perms:
                p = self.perms[a]  # a bijection, so argsort inverts it
                self.perms[b] = tuple(sorted(range(len(p)), key=p.__getitem__))
        for nm in gens.names:
            if nm not in self.perms:
                raise ActionError(f"no permutation for generator '{nm}'")
        for a, b in gens.pairs:
            p, q = self.perms[a], self.perms[b]
            if any(q[p[i]] != i for i in range(self.size)):
                raise ActionError(f"permutations for {a},{b} are not inverse")

    def word_perm(self, w: Word) -> tuple[int, ...]:
        cur = tuple(range(self.size))
        for t in reversed(w):
            p = self.perms[t]
            cur = tuple(p[c] for c in cur)
        return cur

    def in_kernel(self, w: Word) -> bool:
        return self.word_perm(w) == tuple(range(self.size))


def load_quotient(text: str, gens: Generators) -> FiniteQuotient:
    """Parse `perm <name>: <cycles>` lines, e.g. `perm a: (0 1)(2 3)`."""
    perms: dict[str, list[int]] = {}
    degree = 0
    entries: list[tuple[str, list[list[int]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("perm ") or ":" not in line:
            raise ActionError(f"line {lineno}: cannot parse '{line}'")
        head, body = line[len("perm "):].split(":", 1)
        cycles = []
        for chunk in body.replace(")", ")|").split("|"):
            chunk = chunk.strip()
            if not chunk:
                continue
            cyc = [int(x) for x in chunk[1:-1].replace(",", " ").split()] \
                if chunk.startswith("(") and chunk.endswith(")") else [-1]
            if min(cyc, default=0) < 0:  # no parentheses, or a negative point
                raise ActionError(f"line {lineno}: bad cycle '{chunk}'")
            cycles.append(cyc)
            degree = max(degree, max(cyc, default=-1) + 1)
        entries.append((head.strip(), cycles))
    for nm, cycles in entries:
        p = list(range(degree))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                p[x] = cyc[(i + 1) % len(cyc)]
        perms[nm] = p
    return FiniteQuotient(gens, perms)
