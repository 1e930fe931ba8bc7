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
from functools import cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .median import MedianGraph
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
            last = w[-1] if w else None
            for nm in gens.names:
                if last is not None and gens.inv[last] == nm:
                    continue
                nxt.append(w + (nm,))
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


class PartialAction:
    """Generators acting as partial automorphisms of one median graph.

    ``maps[name]`` is a length-n list with image vertex or -1 where the
    generator is undefined.  ``base`` is the basepoint used for orbit and
    effective-radius reporting.
    """

    def __init__(self, graph: MedianGraph, gens: Generators,
                 maps: dict[str, Sequence[int]], base: int = 0):
        self.graph = graph
        self.gens = gens
        self.maps: dict[str, list[int]] = {}
        for nm in gens.names:
            mp = list(maps.get(nm, []))
            if len(mp) != graph.n:
                raise ActionError(f"map for '{nm}' has wrong length")
            self.maps[nm] = mp
        self.base = base
        self._frontier_dist: Optional[list[int]] = None
        self._digest: Optional[str] = None

    # -- bookkeeping ------------------------------------------------------

    @property
    def truncated(self) -> bool:
        return bool(self.graph.frontier)

    def frontier_dist(self) -> list[int]:
        if self._frontier_dist is None:
            self._frontier_dist = self.graph.frontier_distances()
        return self._frontier_dist

    def digest(self) -> str:
        if self._digest is None:
            h = hashlib.sha256()
            h.update(self.graph.digest().encode())
            for a, b in self.gens.pairs:
                h.update(f"g:{a}|{b}\n".encode())
            for nm in self.gens.names:
                h.update(f"m:{nm}:".encode())
                h.update(",".join(map(str, self.maps[nm])).encode())
                h.update(b"\n")
            h.update(f"b:{self.base}\n".encode())
            self._digest = h.hexdigest()
        return self._digest

    # -- validation -------------------------------------------------------

    def validate(self) -> ActionReport:
        g = self.graph
        issues: list[str] = []
        for nm in self.gens.names:
            mp = self.maps[nm]
            inv = self.maps[self.gens.inv[nm]]
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
            for u, v in g.edges:
                iu, iv = mp[u], mp[v]
                if iu >= 0 and iv >= 0 and not g.has_edge(iu, iv):
                    issues.append(
                        f"{nm}: edge {g.labels[u]}-{g.labels[v]} "
                        f"mapped to non-edge")
                    break
        db = g.dist_from(self.base)
        undef = [db[v] for nm in self.gens.names
                 for v, w in enumerate(self.maps[nm]) if w < 0]
        total = not undef
        r_eff = max(db) if total else min(undef) - 1
        sizes = {nm: sum(1 for w in self.maps[nm] if w >= 0)
                 for nm in self.gens.names}
        return ActionReport(not issues, issues, r_eff, total, sizes)

    # -- application ------------------------------------------------------

    def apply(self, word: Word, v: int) -> tuple[Optional[int], int]:
        """Image of v under the word (rightmost token acts first).

        Returns (image, steps applied); image None if some step left the
        domain, with the count telling how many tokens were applied."""
        cur = v
        done = 0
        for t in reversed(word):
            cur = self.maps[t][cur]
            if cur < 0:
                return None, done
            done += 1
        return cur, done

    # -- halfspace transport ----------------------------------------------

    def carrier(self) -> tuple:
        """(arrangement, maps, frontier distances or None when full): what
        :func:`carry_class` reads, set up once per walk or Schreier build."""
        fd = self.frontier_dist() if self.graph.frontier else None
        return arrangement(self.graph), self.maps, fd

    def transport_key(self, key: tuple[int, int], word: Word
                      ) -> tuple[Optional[tuple[int, int]], Optional[int],
                                 Optional[int]]:
        """Image of the oriented halfspace ``key`` = (class, side) under the
        word, as (image key, margin, fail_step): the dual edges of the class
        are carried through the word in order (:func:`carry_class`) until
        one stays in the domain; if none does, image and margin are None and
        fail_step is the largest count of applied tokens, plus one."""
        arr, maps, fd = self.carrier()
        pos, t, h, margin, fail = carry_class(arr, maps, fd, *key, word,
                                              arr.class_start[key[0]])
        return (None if pos is None else arr.oriented_edge_key(t, h),
                margin, fail)

    def transport_halfspace(self, word: Word, hs: Halfspace) -> TransportResult:
        """Image halfspace w(hs), with truncation margin (see
        :meth:`transport_key`)."""
        arr = hs.arr
        if arr.graph is not self.graph:
            raise ActionError("halfspace belongs to a different graph")
        key, margin, fail_step = self.transport_key(hs.key, word)
        img = None if key is None else Halfspace(arr, *key)
        return TransportResult(img, margin, fail_step)


def carry_class(arr: Arrangement, maps: dict[str, list[int]],
                fd: Optional[list[int]], cls: int, side: int, word: Word,
                pos: int, carried: Optional[tuple] = None) -> tuple:
    """The carried-edge step of every transport: the dual edges of the
    oriented halfspace (cls, side), from CSR position ``pos`` on, carried
    through the word (rightmost token first) until one stays in the domain,
    its margin the least frontier distance met (None when ``fd`` is).
    ``carried`` = (tail, head, margin) resumes edge ``pos`` where word[1:]
    left it.  Returns the state (position, tail, head, margin, None), or
    (None, None, None, None, fail_step) when no edge stays."""
    best_fail = 0
    order, orient, n_tok = arr.edges_by_class, arr.orientation, len(word)
    for i in range(pos, arr.class_start[cls + 1]):
        t, h = orient[order[i]] if side else orient[order[i]][::-1]
        margin = None if fd is None else fd[t] if fd[t] < fd[h] else fd[h]
        todo, done = reversed(word), 0
        if carried is not None:
            (t, h, margin), carried = carried, None
            todo, done = word[:1], n_tok - 1
        for tok in todo:
            mp = maps[tok]
            t, h = mp[t], mp[h]
            if t < 0 or h < 0:
                break
            done += 1
            # min() only when the margin drops: this loop is hot
            if fd is not None and (fd[t] < margin or fd[h] < margin):
                margin = min(margin, fd[t], fd[h])
        else:
            return i, t, h, margin, None
        best_fail = max(best_fail, done + 1)
    return None, None, None, None, best_fail


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
    maps = {nm: [-1] * graph.n for nm in gens.names}
    for nm, a, b in raw_maps:
        if nm not in gens.inv:
            raise ActionError(f"map for undeclared generator '{nm}'")
        try:
            va, vb = graph.label_index[a], graph.label_index[b]
        except KeyError as exc:
            raise ActionError(f"unknown vertex label {exc}") from None
        maps[nm][va] = vb
    base = graph.label_index[base_label] if base_label is not None else 0
    return PartialAction(graph, gens, maps, base)


def action_to_text(a: PartialAction) -> str:
    g = a.graph
    lines = [f"gen {x} {y}" for x, y in a.gens.pairs]
    lines.append(f"base {g.labels[a.base]}")
    for nm in a.gens.names:
        mp = a.maps[nm]
        lines.extend(f"map {nm} {g.labels[v]} {g.labels[w]}"
                     for v, w in enumerate(mp) if w >= 0)
    return "\n".join(lines) + "\n"


# -- searches -------------------------------------------------------------

@dataclass
class OrbitResult:
    images: list[tuple[Halfspace, Word]]
    truncated: bool


def word_images(a: PartialAction, hs: Halfspace, L: int, min_len: int = 0
                ) -> Iterator[tuple[Word, TransportResult]]:
    """Each reduced word w with min_len <= |w| <= L, in search order, paired
    with its transport w(hs).  Every halfspace search walks words here.

    Memoised over the word tree: w = w[0]·w[1:] is one carried-edge step on
    the state of w[1:], kept for one length (the first length walked is
    carried in full).  Edges tried before the carried one failed within
    w[1:], so if the step fails its count |w| tops theirs and the later
    edges are carried through w; a failed w[1:] fails alike.  Image, margin
    and fail_step equal :meth:`PartialAction.transport_key`'s exactly."""
    if hs.arr.graph is not a.graph:
        raise ActionError("halfspace belongs to a different graph")
    arr, maps, fd = a.carrier()
    cls, side = hs.key
    prev, cur, cur_len = {}, {}, -1
    image = cache(lambda key: Halfspace(hs.arr, *key))  # one per image
    for w in reduced_words(a.gens, L, min_len):
        if len(w) != cur_len:
            prev, cur, cur_len = cur, {}, len(w)
        st = prev.get(w[1:])
        if st is None:
            st = carry_class(arr, maps, fd, cls, side, w, arr.class_start[cls])
        elif st[0] is not None:
            st = carry_class(arr, maps, fd, cls, side, w, st[0], st[1:4])
        if cur_len < L:
            cur[w] = st
        pos, t, h, margin, fail = st
        img = None if pos is None else image(arr.oriented_edge_key(t, h))
        yield w, TransportResult(img, margin, fail)


def hyperplane_orbit(a: PartialAction, hs: Halfspace, L: int) -> OrbitResult:
    """Distinct oriented images w(hs) over reduced words |w| <= L, each
    with its shortest (length-lex-first) witness word."""
    seen: set[tuple[int, int]] = set()
    images: list[tuple[Halfspace, Word]] = []
    truncated = False
    for w, res in word_images(a, hs, L):
        if not res.ok:
            truncated = True
        elif res.halfspace.key not in seen:
            seen.add(res.halfspace.key)
            images.append((res.halfspace, w))
    return OrbitResult(images, truncated)


def stabilizer_words(a: PartialAction, hs: Halfspace, L: int) -> list[Word]:
    """Reduced words w with w(hs) = hs as an oriented halfspace (the
    side-preserving stabilizer convention)."""
    return [w for w, res in word_images(a, hs, L)
            if res.ok and res.halfspace.key == hs.key]


def _strict_witness_margin(a: PartialAction, inner: Halfspace,
                           outer: Halfspace) -> bool:
    """inner ⊊ outer needs a strictness witness with margin >= 1: a vertex
    of outer \\ inner at distance >= 1 from the frontier.  The tail of
    outer's representative edge always lies in outer^c... so the witness is
    taken on the rep edge of *inner*'s boundary inside outer."""
    # inner ⊆ outer and inner != outer; a vertex of outer ∩ inner^c is the
    # tail of inner's oriented rep edge.
    v = inner.oriented_rep()[0]
    if not a.truncated:
        return True
    return a.frontier_dist()[v] >= 1


def proper_subhalfspace(a: PartialAction, inner: Halfspace,
                        outer: Halfspace) -> bool:
    """inner ⊊ outer, with the truncation-aware strictness convention."""
    if inner.key == outer.key:
        return False
    return halfspace_leq(inner, outer) and _strict_witness_margin(a, inner, outer)


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
    """The first word whose image w(hs) passes ``accept``; ``truncated``
    records whether an earlier transport left the action's domain."""
    truncated = False
    for w, res in word_images(a, hs, L, min_len):
        if not res.ok:
            truncated = True
        elif accept(res.halfspace):
            return SearchResult(w, res.halfspace, res.margin, truncated)
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
        for a, b in gens.pairs:
            if a in self.perms and b not in self.perms:
                p = self.perms[a]
                q = [0] * len(p)
                for i, j in enumerate(p):
                    q[j] = i
                self.perms[b] = tuple(q)
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
            if not (chunk.startswith("(") and chunk.endswith(")")):
                raise ActionError(f"line {lineno}: bad cycle '{chunk}'")
            cyc = [int(x) for x in chunk[1:-1].replace(",", " ").split()]
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
