"""The Sigma/A machinery of ``sigma_analysis`` on finite actions whose
base-hyperplane stabilizer moves the test hyperplane, against an oracle
that composes vertex maps and compares vertex sets (no transport)."""

from collections import deque

import pytest

from cubekit.action import load_action, reduced_words
from cubekit.hyperplanes import arrangement
from cubekit.median import check_median, load_graph
from cubekit.schottky import sigma_analysis


def spider_action(maps):
    """A spider: centre c and six legs c-i1-i2.  ``maps[name]`` changes
    the identity on the vertices it names, to a vertex or (None) to
    undefined.  Names are declared in inverse pairs, in order."""
    labels = ["c"] + [f"{i}{k}" for i in range(1, 7) for k in (1, 2)]
    g = load_graph("".join(f"e c {i}1\ne {i}1 {i}2\n" for i in range(1, 7)))
    assert check_median(g).ok
    names = list(maps)
    lines = [f"gen {x} {y}" for x, y in zip(names[::2], names[1::2])]
    for nm, change in maps.items():
        lines += [f"map {nm} {v} {change.get(v, v)}" for v in labels
                  if change.get(v, v) is not None]
    return load_action("\n".join(lines) + "\n", g)


def legs(perm):
    """The vertex map that moves leg i onto leg perm[i]."""
    return {f"{i}{k}": f"{j}{k}" for i, j in perm.items() for k in (1, 2)}


def grid_leg_action():
    """The 3x3 grid with a pendant path 11-x1-x2 at its centre; q turns the
    grid a quarter about the centre and z a half, both fixing the path."""
    cells = [(i, j) for i in range(3) for j in range(3)]
    edges = [(p, (p[0] + 1, p[1])) for p in cells if p[0] < 2] + \
        [(p, (p[0], p[1] + 1)) for p in cells if p[1] < 2]
    g = load_graph("".join(f"e {i}{j} {k}{m}\n" for (i, j), (k, m) in edges)
                   + "e 11 x1\ne x1 x2\n")
    assert check_median(g).ok
    half = lambda i, j: (2 - i, 2 - j)
    turns = {"q": lambda i, j: (j, 2 - i), "Q": lambda i, j: (2 - j, i),
             "z": half, "Z": half}
    lines = ["gen q Q", "gen z Z"]
    for nm, f in turns.items():
        lines += [f"map {nm} {i}{j} {k}{m}" for i, j in cells
                  for k, m in [f(i, j)]]
        lines += [f"map {nm} x1 x1", f"map {nm} x2 x2"]
    return load_action("\n".join(lines) + "\n", g)


def halfspace(a, u, v):
    idx = a.graph.label_index
    return arrangement(a.graph).halfspace_of_oriented_edge(idx[u], idx[v])


def side(g, u, v):
    """Vertices nearer the head v of the edge than its tail u."""
    def dist(s):
        d = [-1] * g.n
        d[s] = 0
        todo = deque([s])
        while todo:
            x = todo.popleft()
            for y in g.neighbours(x):
                if d[y] < 0:
                    d[y] = d[x] + 1
                    todo.append(y)
        return d
    du, dv = dist(g.label_index[u]), dist(g.label_index[v])
    return frozenset(x for x in range(g.n) if dv[x] < du[x])


def oracle_sigma(a, base_edge, test_edge, L):
    """Reduced words up to length L that map the base side onto itself and
    the test side onto a set meeting it, by composing total vertex maps."""
    base, test = side(a.graph, *base_edge), side(a.graph, *test_edge)
    out = []
    for w in reduced_words(a.gens, L):
        img = list(range(a.graph.n))
        for t in reversed(w):
            img = [a.maps[t][x] for x in img]
        if {img[x] for x in base} == base and \
                not test.isdisjoint(img[x] for x in test):
            out.append(w)
    return out


SPIDER = {"r": legs({1: 2, 2: 3, 3: 1}), "R": legs({2: 1, 3: 2, 1: 3}),
          "t": legs({4: 5, 5: 4}), "T": legs({4: 5, 5: 4})}


def test_sigma_of_spider_rotation_and_swap():
    a = spider_action(SPIDER)
    data = sigma_analysis(a, halfspace(a, "c", "61"),
                          halfspace(a, "11", "12"), 3)
    assert data.sigma == oracle_sigma(a, ("c", "61"), ("11", "12"), 3)
    assert data.render(a.graph) == "\n".join([
        "sigma analysis: base=H5+ test=H6+",
        "sigma: 1 t T tt TT rrr rtR rTR RRR Rtr RTr ttt TTT",
        "A-orbit size: 1",
        "A-orbit: H6+",
        "fixed edge p: c-61",
        "all sigma fix p: yes",
        "separation outside A: verified on 40 sampled words"])
    # every reduced word fixes the base leg, so the stabilizer words are
    # all 53 of length <= 3; the 13 sigma words (the empty one included)
    # close up within length 3, and the other 40 are checked
    assert len(data.a_words) == 13 and len(data.separea_checked) == 40


def test_sigma_closure_budget_on_spider():
    a = spider_action(SPIDER)
    data = sigma_analysis(a, halfspace(a, "c", "61"),
                          halfspace(a, "11", "12"), 7)
    assert data.sigma == oracle_sigma(a, ("c", "61"), ("11", "12"), 7)
    assert len(data.sigma) == 1443
    assert data.inconclusive == ["A-subgroup closure budget exhausted"]
    assert data.render(a.graph).splitlines()[-3:] == [
        "all sigma fix p: yes",
        "separation outside A: verified on 2930 sampled words",
        "inconclusive: A-subgroup closure budget exhausted"]


def test_sigma_separation_check_truncated():
    # p swaps the inner vertices of legs 1 and 2 and is undefined on their
    # tips, so it stabilizes the base edge but cannot carry the test edge
    swap = {"11": "21", "21": "11", "12": None, "22": None}
    a = spider_action({"r": SPIDER["r"], "R": SPIDER["R"],
                       "p": swap, "P": swap})
    assert a.validate().valid
    data = sigma_analysis(a, halfspace(a, "c", "61"),
                          halfspace(a, "11", "12"), 1)
    assert data.render(a.graph) == "\n".join([
        "sigma analysis: base=H5+ test=H6+",
        "sigma: 1",
        "A-orbit size: 1",
        "A-orbit: H6+",
        "fixed edge p: c-61",
        "all sigma fix p: yes",
        "separation outside A: verified on 4 sampled words",
        "inconclusive: could not transport test by p",
        "inconclusive: could not transport test by P",
        "inconclusive: separation check truncated at p",
        "inconclusive: separation check truncated at P"])


@pytest.mark.parametrize("L, sigma, verdict", [
    (1, "1 q Q", "VIOLATED on 2 sampled words"),
    (2, "1 q Q qz qZ Qz QZ zq zQ zz Zq ZQ ZZ", "verified on 0 sampled words"),
])
def test_sigma_separation_outside_a_on_grid(L, sigma, verdict):
    # a quarter turn carries the test wall to a crossing wall, so sigma holds
    # q and Q and the A-orbit has more than one wall.  At L = 1 the half
    # turn z is a stabilizer word outside A; it carries the test side onto
    # the opposite side, which meets the crossing walls' sides, so the spot
    # check fails.  At L = 2 the closure reaches z as zq·Q (and Z, qq, QQ
    # likewise), so no stabilizer word is left outside A.
    a = grid_leg_action()
    data = sigma_analysis(a, halfspace(a, "11", "x1"),
                          halfspace(a, "11", "21"), L)
    assert data.sigma == oracle_sigma(a, ("11", "x1"), ("11", "21"), L)
    lines = data.render(a.graph).splitlines()
    assert lines[1] == f"sigma: {sigma}"
    assert lines[-1] == f"separation outside A: {verdict}"
    assert data.separea_ok == verdict.startswith("verified")
