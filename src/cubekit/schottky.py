"""Ping-pong certificates and the stabilizer (Sigma/A/U) machinery.

Everything here is finite-range and certificate-shaped: searches produce
explicit words and halfspaces, and a verification pass re-checks every
claimed inclusion or disjointness directly on the action data, without
reference to how the witnesses were found.  Truncation is never hidden —
each certificate records the margin of the data it inspected and which
checks were cut short by the ball boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .hyperplanes import (Halfspace, Hyperplane, arrangement, crosses,
                          halfspace_leq, halfspaces_disjoint,
                          pairwise_strongly_separated, parse_halfspace,
                          projection_pair, strongly_separated)
from .action import (FiniteQuotient, PartialAction, Word,
                     find_double_skewer, find_flipping, first_image,
                     invert_word, parse_word, reduce_word, stabilizer_words,
                     transport, walk_layers, word_power, word_str)


class SchottkyError(Exception):
    pass


class SearchBudgetExhausted(SchottkyError):
    """A word-length search ended without a witness (inconclusive)."""


def hyperplanes_disjoint(h1: Hyperplane, h2: Hyperplane) -> bool:
    """Two distinct hyperplanes either cross or are disjoint."""
    return h1.cls != h2.cls and not crosses(h1, h2)


# -- Sigma / A machinery --------------------------------------------------

@dataclass
class SigmaData:
    base: Halfspace                # a side of the base hyperplane
    test: Halfspace                # the test halfspace k
    sigma: list[Word]
    a_words: list[Word]            # subgroup generated by sigma, in budget
    a_orbit: list[Halfspace]       # distinct images a(k)
    fixed_edge: tuple[int, int]    # projection edge p on the base hyperplane
    fixes_p_ok: bool
    separea_checked: list[Word]
    separea_ok: bool
    inconclusive: list[str]

    def render(self, graph) -> str:
        lines = [f"sigma analysis: base={self.base!r} test={self.test!r}",
                 "sigma: " + " ".join(word_str(w) for w in self.sigma),
                 f"A-orbit size: {len(self.a_orbit)}",
                 "A-orbit: " + " ".join(map(repr, self.a_orbit)),
                 f"fixed edge p: {graph.labels[self.fixed_edge[0]]}-"
                 f"{graph.labels[self.fixed_edge[1]]}",
                 f"all sigma fix p: {'yes' if self.fixes_p_ok else 'NO'}",
                 f"separation outside A: "
                 f"{'verified' if self.separea_ok else 'VIOLATED'} on "
                 f"{len(self.separea_checked)} sampled words"]
        lines.extend(f"inconclusive: {s}" for s in self.inconclusive)
        return "\n".join(lines)


def sigma_analysis(a: PartialAction, base_hs: Halfspace, test_hs: Halfspace,
                   L: int) -> SigmaData:
    """Stabilizer words of the base hyperplane whose action fails to move
    the test halfspace off itself, the finite orbit they generate, and the
    projection-edge fixed-point check."""
    if not strongly_separated(base_hs.hyperplane, test_hs.hyperplane):
        raise SchottkyError("base and test hyperplanes are not "
                            "strongly separated")
    inconclusive: list[str] = []
    p_edge, _ = projection_pair(base_hs.hyperplane, test_hs.hyperplane)

    stab = stabilizer_words(a, base_hs, L)
    sigma: list[Word] = []
    for w, res in zip(stab, transport(a, stab, [test_hs] * len(stab))):
        if not res.ok:
            inconclusive.append(f"could not transport test by {word_str(w)}")
            continue
        if not halfspaces_disjoint(res.halfspace, test_hs):
            sigma.append(w)

    # close sigma under multiplication within the word budget
    a_words: list[Word] = [()]
    seen = {()}
    frontier_words = [()]
    while frontier_words:
        nxt = []
        for w in frontier_words:
            for s in sigma:  # the empty word gives w, already seen
                prod = reduce_word(w + s, a.gens)
                if len(prod) <= L and prod not in seen:
                    seen.add(prod)
                    a_words.append(prod)
                    nxt.append(prod)
        frontier_words = nxt
        if len(a_words) > 500:
            inconclusive.append("A-subgroup closure budget exhausted")
            break
    a_words.sort(key=lambda w: (len(w), tuple(a.gens.rank(t) for t in w)))

    orbit_keys = {}
    a_orbit: list[Halfspace] = []
    for w, res in zip(a_words, transport(a, a_words,
                                         [test_hs] * len(a_words))):
        if not res.ok:
            inconclusive.append(f"A-orbit truncated at {word_str(w)}")
            continue
        if res.halfspace.key not in orbit_keys:
            orbit_keys[res.halfspace.key] = w
            a_orbit.append(res.halfspace)

    fixes_p = all(a.apply(w, v)[0] == v for w in sigma for v in p_edge)

    # Spot check: stabilizer words outside A must move
    # U = union of the A-orbit completely off itself.
    separea_ok = True
    aset = set(a_words)
    checked = [w for w in stab if w not in aset]
    k = len(a_orbit)
    images = transport(a, [w for w in checked for _ in a_orbit],
                       a_orbit * len(checked))
    for i, w in enumerate(checked):
        for r2 in images[i * k:(i + 1) * k]:
            if not r2.ok:
                inconclusive.append(
                    f"separation check truncated at {word_str(w)}")
                break
            if any(not halfspaces_disjoint(r2.halfspace, h2)
                   for h2 in a_orbit):
                separea_ok = False
                break
    return SigmaData(base_hs, test_hs, sigma, a_words, a_orbit, p_edge,
                     fixes_p, checked, separea_ok, inconclusive)


# -- quadruple construction -----------------------------------------------

@dataclass
class QuadrupleResult:
    quadruple: tuple[Halfspace, Halfspace, Halfspace, Halfspace]
    k_word: Word
    g_word: Optional[Word]
    h_word: Optional[Word]
    refined: bool
    truncated: bool


def build_quadruple(a: PartialAction,
                    triple: tuple[Halfspace, Halfspace, Halfspace],
                    L: int) -> QuadrupleResult:
    """Facing quadruple from a facing triple (h, h1, h2): flip h by some k
    and adjoin k(h1), k(h2); then, if the four pairs are not already
    strongly separated, refine each member to a smaller halfspace using a
    transported strongly separated nested pair."""
    h, h1, h2 = triple
    for x, y in ((h, h1), (h, h2), (h1, h2)):
        if x.cls == y.cls or not halfspaces_disjoint(x, y):
            raise SchottkyError("input is not a facing triple "
                                f"({x!r} meets {y!r})")
    flip = find_flipping(a, h, L)
    if not flip.found:
        raise SearchBudgetExhausted("no flipping element found for "
                                    f"{h!r} within length {L}")
    # two transports of one row each: cubebench counts transports only
    # through transport_halfspace, and on its self-test fixtures these are
    # the ones that stay in the ball (ROADMAP item 1)
    r1 = a.transport_halfspace(flip.word, h1)
    r2 = a.transport_halfspace(flip.word, h2)
    if not (r1.ok and r2.ok):
        raise SchottkyError("flip image of the facing triple is truncated")
    h3, h4 = r1.halfspace, r2.halfspace
    quad = (h1, h2, h3, h4)
    for i, x in enumerate(quad):
        for y in quad[i + 1:]:
            if x.cls == y.cls or not halfspaces_disjoint(x, y):
                raise SchottkyError(
                    f"flip output is not facing: {x!r} meets {y!r}")
    refined = False
    if not pairwise_strongly_separated(quad):
        quad = _refine_quadruple(a, quad, L)
        refined = True
    g = find_double_skewer(a, quad[0], quad[1].complement, L)
    h_el = find_double_skewer(a, quad[2], quad[3].complement, L)
    truncated = flip.truncated or g.truncated or h_el.truncated
    return QuadrupleResult(quad, flip.word,
                           g.word if g.found else None,
                           h_el.word if h_el.found else None,
                           refined, truncated)


def _refine_quadruple(a: PartialAction, quad, L: int):
    """Replace each member by a strongly separated smaller halfspace found
    by transporting a nested strongly separated pair into it."""
    inner = _find_ss_nested(a, quad, L)
    if inner is None:
        raise SearchBudgetExhausted("refinement failed: no strongly "
                                    "separated nested pair within budget")
    out = []
    for hj in quad:
        cand = first_image(a, inner, L, lambda img: halfspace_leq(img, hj),
                           min_len=0)
        if not cand.found:
            raise SchottkyError("refinement failed: could not transport the "
                                f"nested pair into {hj!r}")
        out.append(cand.image)
    quad2 = tuple(out)
    if not pairwise_strongly_separated(quad2):
        raise SchottkyError("refinement failed: transported halfspaces are "
                            "not pairwise strongly separated")
    return quad2


def _find_ss_nested(a: PartialAction, quad, L: int) -> Optional[Halfspace]:
    """A halfspace sitting strictly inside another with the two hyperplanes
    strongly separated, searched among orbit images of the quadruple."""
    cands = list(quad)
    for hs in quad:
        for lay in walk_layers(a, hs, min(L, 3), min_len=1):
            # images in row order, to the first row that passes 40 in all
            ok = np.flatnonzero(lay.code >= 0)
            room = 41 - len(cands)
            ok = ok[:room] if room > 0 else ok[ok == 0]
            cands += (Halfspace(hs.arr, c >> 1, c & 1)
                      for c in lay.code[ok].tolist())
            if len(cands) > 40:
                break
    for x in cands:
        for y in cands:
            if x.key != y.key and halfspace_leq(x, y) and \
                    strongly_separated(x.hyperplane, y.hyperplane):
                return x
    return None


# -- ping-pong certification ----------------------------------------------

CERT_PINGPONG = "cubekit-pingpong v1"
CERT_STABLE = "cubekit-stable v1"


@dataclass
class PingPongCertificate:
    graph_digest: str
    action_digest: str
    quadruple: tuple[Halfspace, Halfspace, Halfspace, Halfspace]
    g: Word
    h: Word
    m_max: int
    inclusions: list[tuple[str, int, str, str]]  # (gen, n, image, target)
    displacement: list[tuple[int, int]]          # (m, distance to dU)
    delta_witness: int
    margin: Optional[int]
    truncation_notes: list[str]

    def to_text(self) -> str:
        q = " ".join(map(repr, self.quadruple))
        lines = [CERT_PINGPONG,
                 f"graph: {self.graph_digest}",
                 f"action: {self.action_digest}",
                 f"quadruple: {q}",
                 f"g: {word_str(self.g)}",
                 f"h: {word_str(self.h)}",
                 f"m-max: {self.m_max}"]
        for gen, n, img, tgt in self.inclusions:
            lines.append(f"incl {gen}^{n}: {img} <= {tgt}")
        for m, d in self.displacement:
            lines.append(f"disp {m}: {d}")
        lines.append(f"delta-witness: {self.delta_witness}")
        lines.append("margin: " +
                     ("exact" if self.margin is None else str(self.margin)))
        for note in self.truncation_notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


@dataclass
class PingPongRefutation:
    reason: str


def pingpong_certify(a: PartialAction, quadruple, g: Word, h: Word,
                     m_max: int):
    """Verify the Schottky inclusions g^n(V) ⊆ U, h^n(U) ⊆ V for
    0 < |n| <= m_max, measure the displacement margin of x = gh, and emit
    a certificate (or the exact failing inclusion).

    This function performs no search: it only checks the supplied data, so
    it doubles as the certificate verifier."""
    h1, h2, h3, h4 = quadruple
    for i, x in enumerate(quadruple):
        for y in quadruple[i + 1:]:
            if not halfspaces_disjoint(x, y):
                return PingPongRefutation(
                    f"quadruple is not facing: {x!r} meets {y!r}")
            if not strongly_separated(x.hyperplane, y.hyperplane):
                return PingPongRefutation(
                    f"pair {x!r},{y!r} is not strongly separated")
    if not g or not h:
        return PingPongRefutation("g and h must be nontrivial words")
    notes: list[str] = []
    margins: list[int] = []
    inclusions: list[tuple[str, int, str, str]] = []

    # rows (label, n, word, source, targets): g^n(V) ⊆ U, then h^n(U) ⊆ V,
    # for n = 1, -1, 2, -2, ...
    U, V = (h1, h2), (h3, h4)
    rows = [(lab, n, word_power(w, n, a.gens), hs, targets)
            for n_abs in range(1, m_max + 1) for n in (n_abs, -n_abs)
            for lab, w, sources, targets in (("g", g, V, U), ("h", h, U, V))
            for hs in sources]
    images = transport(a, [r[2] for r in rows], [r[3] for r in rows])
    for (lab, n, _, hs, targets), res in zip(rows, images):
        if not res.ok:
            notes.append(f"{lab}^{n}({hs!r}) truncated; inclusion unverified")
            continue
        if res.margin is not None:
            margins.append(res.margin)
        img = res.halfspace
        tgt = next((t for t in targets if halfspace_leq(img, t)), None)
        if tgt is None:
            return PingPongRefutation(f"{lab}^{n}({hs!r}) = {img!r} not "
                                      f"inside {'/'.join(map(repr, targets))}")
        inclusions.append((lab, n, repr(img), repr(tgt)))

    # displacement of x = gh relative to the boundary of U
    boundary = h1.hyperplane.carrier | h2.hyperplane.carrier
    x = reduce_word(g + h, a.gens)
    displacement: list[tuple[int, int]] = []
    images = transport(a, [word_power(x, m, a.gens)
                           for m in range(1, m_max + 1) for _ in U],
                       [*U] * m_max)
    for m in range(1, m_max + 1):
        dists = []
        for res in images[(m - 1) * len(U):m * len(U)]:
            if not res.ok:
                break
            if res.margin is not None:
                margins.append(res.margin)
            dists.append(_distance_to(res.halfspace, boundary))
        if len(dists) < len(U):
            notes.append(f"displacement at m={m} truncated")
            break
        displacement.append((m, min(dists)))
    if not displacement:
        return PingPongRefutation("no displacement data within the ball")
    delta = min(d // m for m, d in displacement)  # so d >= m * delta
    if delta < 1:
        return PingPongRefutation(
            f"displacement margin {delta} < 1 (x does not move U off its "
            "boundary)")
    return PingPongCertificate(
        a.graph.digest(), a.digest(), tuple(quadruple), g, h, m_max,
        inclusions, displacement, delta,
        min(margins) if margins else None, notes)


def _distance_to(hs: Halfspace, vs: frozenset[int]) -> int:
    """Distance from the halfspace hs to the vertices vs: 0 if hs holds one,
    else a geodesic to vs leaves hs through an edge of its class, so the
    least distance from the ends of those edges inside hs.  Only hs's class
    separates an edge's two ends, so v lies in hs iff its nearest end inside
    hs is nearer than its nearest end outside: one distance matrix."""
    arr = hs.arr
    ends = arr.orientation[arr.class_edges(hs.cls)].ravel()
    near = arr.distances(np.fromiter(vs, np.intp, len(vs)), ends).reshape(
        len(vs), -1, 2).min(1)  # each v's nearest end on each side
    inside = near[:, hs.side_id]
    return 0 if (inside < near[:, 1 - hs.side_id]).any() else int(inside.min())


# -- stable hyperplane certificates ---------------------------------------

@dataclass
class StableHyperplaneCertificate:
    graph_digest: str
    action_digest: str
    hyperplane: int
    quadruple: tuple[Halfspace, Halfspace, Halfspace, Halfspace]
    g: Word
    h: Word
    sample_len: int
    verified: list[tuple[Word, int]]   # (word in generators, image class)
    vacuous: bool
    margin: Optional[int]

    def to_text(self) -> str:
        q = " ".join(map(repr, self.quadruple))
        lines = [CERT_STABLE,
                 f"graph: {self.graph_digest}",
                 f"action: {self.action_digest}",
                 f"hyperplane: H{self.hyperplane}",
                 f"quadruple: {q}",
                 f"g: {word_str(self.g)}",
                 f"h: {word_str(self.h)}",
                 f"sample-len: {self.sample_len}"]
        for w, cls in self.verified:
            lines.append(f"moved {word_str(w)}: H{cls}")
        if self.vacuous:
            lines.append("note: empty sample (vacuous certificate)")
        lines.append("margin: " +
                     ("exact" if self.margin is None else str(self.margin)))
        return "\n".join(lines) + "\n"


def commutator_sample(g: Word, h: Word, gens, sample_len: int) -> list[Word]:
    """The sampled derived-subgroup words: commutators [u, v] for u in
    {g, g^-1}, v in {h, h^-1}, and their inverses, capped at sample_len
    letters.  A sample, not an enumeration — soundness lives in the
    per-word verification."""
    gi, hi = invert_word(g, gens), invert_word(h, gens)
    out = []
    seen = set()
    for u in (g, gi):
        for v in (h, hi):
            for w in (u + v + invert_word(u, gens) + invert_word(v, gens),
                      v + u + invert_word(v, gens) + invert_word(u, gens)):
                rw = reduce_word(w, gens)
                if rw and len(rw) <= sample_len and rw not in seen:
                    seen.add(rw)
                    out.append(rw)
    return out


def stable_certify(a: PartialAction, h_hyp: Hyperplane,
                   cert: PingPongCertificate, sample_len: int
                   ) -> StableHyperplaneCertificate:
    """Check that every sampled derived-subgroup word of the certified free
    pair moves the hyperplane completely off itself."""
    # A crossing (or equal) hyperplane meets both sides of hs; a disjoint
    # one has its whole carrier on one side, so its rep tail decides.
    tail = h_hyp.arr.rep_oriented(h_hyp.cls)[0]
    for hs in cert.quadruple:
        if not hyperplanes_disjoint(hs.hyperplane, h_hyp) or \
                hs.contains(tail):
            raise SchottkyError(
                f"hyperplane H{h_hyp.cls} meets {hs!r}; it must "
                "avoid U and V")
    sample = commutator_sample(cert.g, cert.h, a.gens, sample_len)
    base = h_hyp.side(1)
    verified = []
    margins = []
    for w, res in zip(sample, transport(a, sample, [base] * len(sample))):
        if not res.ok:
            raise SchottkyError(f"cannot transport H{h_hyp.cls} by "
                                f"{word_str(w)}: out of domain")
        if res.margin is not None:
            margins.append(res.margin)
        img = res.halfspace
        if not hyperplanes_disjoint(img.hyperplane, h_hyp):
            raise SchottkyError(
                f"word {word_str(w)} does not displace H{h_hyp.cls}")
        verified.append((w, img.cls))
    return StableHyperplaneCertificate(
        a.graph.digest(), a.digest(), h_hyp.cls, cert.quadruple,
        cert.g, cert.h, sample_len, verified, not sample,
        min(margins) if margins else None)


# -- certificate parsing and standalone verification ----------------------

def _parse_cert_lines(text: str) -> tuple[str, dict, list[str]]:
    lines = text.splitlines()
    if not lines:
        raise SchottkyError("empty certificate")
    kind = lines[0].strip()
    fields: dict[str, str] = {}
    extras: list[str] = []
    for line in lines[1:]:
        line = line.rstrip()
        if not line:
            continue
        if line.startswith(("incl ", "disp ", "moved ", "note:")):
            extras.append(line)
        elif ":" in line:
            k, v = line.split(":", 1)
            fields[k.strip()] = v.strip()
        else:
            raise SchottkyError(f"cannot parse certificate line '{line}'")
    return kind, fields, extras


def verify_certificate(a: PartialAction, text: str) -> tuple[bool, str]:
    """Re-run all certificate checks from the echoed inputs and compare the
    regenerated certificate byte-for-byte with the supplied one."""
    kind, fields, _ = _parse_cert_lines(text)
    arr = arrangement(a.graph)
    try:
        if fields.get("graph") != a.graph.digest():
            return False, "graph digest mismatch"
        if fields.get("action") != a.digest():
            return False, "action digest mismatch"
        quad = tuple(parse_halfspace(arr, t)
                     for t in fields["quadruple"].split())
        g = parse_word(fields["g"], a.gens)
        h = parse_word(fields["h"], a.gens)
        if kind == CERT_PINGPONG:
            res = pingpong_certify(a, quad, g, h, int(fields["m-max"]))
            if isinstance(res, PingPongRefutation):
                return False, res.reason
            regen = res.to_text()
        elif kind == CERT_STABLE:
            cls = int(fields["hyperplane"].lstrip("H"))
            pp = PingPongCertificate(a.graph.digest(), a.digest(), quad,
                                     g, h, 0, [], [], 0, None, [])
            res = stable_certify(a, arr.hyperplane(cls), pp,
                                 int(fields["sample-len"]))
            regen = res.to_text()
        else:
            return False, f"unknown certificate kind '{kind}'"
    except (SchottkyError, KeyError, ValueError) as exc:
        return False, f"verification error: {exc}"
    if regen != text:
        for i, (x, y) in enumerate(zip(regen.splitlines(),
                                       text.splitlines()), start=1):
            if x != y:
                return False, f"line {i} differs: expected '{x}' got '{y}'"
        return False, "certificate length differs from regenerated form"
    return True, "certificate verified"


# -- elliptic fixed points ------------------------------------------------

@dataclass
class EllipticResult:
    kind: str                      # 'vertex' | 'edge' | 'square' | 'not-found'
    locus: Optional[tuple[int, ...]] = None

    @property
    def found(self):
        return self.locus is not None


def elliptic_fixed_point(a: PartialAction, words: Sequence[Word],
                         orbit_L: int,
                         hyperplane: Optional[Hyperplane] = None
                         ) -> EllipticResult:
    """Common fixed locus of a set of words.

    With a hyperplane supplied, first checks whether every word preserves
    it side-wise and fixes its representative dual edge (the projection
    locus of the two-strongly-separated-hyperplanes argument); otherwise
    falls back to a direct search for a fixed vertex, edge, or square."""
    g = a.graph
    if hyperplane is not None:
        arr = hyperplane.arr
        t, hd = arr.rep_oriented(hyperplane.cls)
        if all(a.apply(w, t)[0] == t and a.apply(w, hd)[0] == hd
               for w in words):
            return EllipticResult("edge", (t, hd))
    # each word's image of every vertex, one table gather per token; a
    # vertex that has left the domain reads a row's trailing -1 slot
    idx = np.arange(g.n)
    fixed = np.ones(g.n, bool)
    imgs = []
    for w in words:
        im = idx
        for t in reversed(w):
            im = np.take(a.table[a.gens.rank(t)], im)
        imgs.append(im)
        fixed &= im == idx
    if fixed.any():
        return EllipticResult("vertex", (a.base if fixed[a.base]
                                         else int(np.argmax(fixed)),))
    edges = g.edges
    swapped = np.ones(len(edges), bool)
    for im in imgs:
        ie = im[edges]
        swapped &= (ie == edges).all(1) | (ie == edges[:, ::-1]).all(1)
    if swapped.any():
        return EllipticResult("edge",
                              tuple(edges[int(np.argmax(swapped))].tolist()))
    squares = arrangement(g).squares
    sq = np.sort(squares, 1)
    rotated = np.ones(len(sq), bool)
    for im in imgs:
        rotated &= (np.sort(im[sq], 1) == sq).all(1)
    if rotated.any():
        return EllipticResult(
            "square", tuple(squares[int(np.argmax(rotated))].tolist()))
    return EllipticResult("not-found")


# -- separated translates under a finite quotient -------------------------

@dataclass
class SeparatedTranslateResult:
    word: Word
    n0: int
    companions: tuple[Halfspace, Halfspace]
    translate: Halfspace
    margin: Optional[int]


def find_separated_translate(a: PartialAction, h_hs: Halfspace,
                             q: FiniteQuotient, L: int,
                             companions: Optional[tuple[Halfspace, Halfspace]]
                             = None
                             ) -> Optional[SeparatedTranslateResult]:
    """A power of a double-skewer element that lands in the kernel of the
    finite quotient and carries the hyperplane to a strongly separated
    translate.

    The halfspace must be part of a facing triple whose companions are
    pairwise strongly separated; companions are searched among the classes
    at the carrier and its neighbours when not supplied."""
    if companions is None:
        companions = _find_companions(a, h_hs)
        if companions is None:
            return None
    k1, k2 = companions
    for x, y in ((h_hs, k1), (h_hs, k2), (k1, k2)):
        if not halfspaces_disjoint(x, y):
            raise SchottkyError(f"{x!r} and {y!r} do not form a facing "
                                "triple")
    if not pairwise_strongly_separated((h_hs, k1, k2)):
        raise SchottkyError("companions are not strongly separated")
    ds = find_double_skewer(a, k1, k2.complement, L)
    if not ds.found:
        return None
    x = ds.word
    n0 = next((n for n in range(1, 2 * q.size + 3)
               if q.in_kernel(word_power(x, n, a.gens))), None)
    if n0 is None:
        return None
    full = word_power(x, n0, a.gens)
    res = a.transport_halfspace(full, h_hs)
    if not res.ok:
        return None
    if not strongly_separated(res.halfspace.hyperplane, h_hs.hyperplane):
        return None
    return SeparatedTranslateResult(x, n0, companions, res.halfspace,
                                    res.margin)


def _find_companions(a: PartialAction, h_hs: Halfspace
                     ) -> Optional[tuple[Halfspace, Halfspace]]:
    """First (class, side)-ordered pair of halfspaces forming a facing
    triple with h_hs, among the classes at the carrier and its neighbours."""
    g = a.graph
    arr = h_hs.arr
    carrier = np.fromiter(arr.carrier_vertices(h_hs.cls), np.int64)
    near = np.union1d(carrier, g.neighbours_of(carrier)[0])
    nb, counts = g.neighbours_of(near)
    e = g.edge_ids(np.repeat(near, counts), nb)
    classes = np.unique(arr.edge_class[e]).tolist()
    cands = [arr.halfspace(c, s) for c in classes for s in (0, 1)
             if (c, s) != h_hs.key and (c, 1 - s) != h_hs.key]
    cands = [h for h in cands if halfspaces_disjoint(h, h_hs)]
    for i, x in enumerate(cands):
        for y in cands[i + 1:]:
            if halfspaces_disjoint(x, y) and \
                    pairwise_strongly_separated((x, y, h_hs)):
                return (x, y)
    return None
