import json

import numpy as np

from cubekit import builders, report
from cubekit.hyperplanes import product_graph
from cubekit.median import MedianGraph, check_median
from cubekit.report import (BOUNDED, CANDIDATE, LINE, classify_factor,
                            shape_report)


def test_path_is_line():
    assert classify_factor(builders.path_graph(5)).kind == LINE


def test_single_edge_is_line_and_point_is_bounded():
    assert classify_factor(builders.path_graph(2)).kind == LINE
    assert classify_factor(builders.path_graph(1)).kind == BOUNDED


def test_star_is_candidate():
    # K_{1,3} carries a strongly separated facing triple (its three leaves)
    c = classify_factor(builders.star(3))
    assert c.kind == CANDIDATE
    assert "facing triple" in c.evidence


def test_tree_ball_is_candidate():
    c = classify_factor(builders.free_group_ball(3))
    assert c.kind == CANDIDATE


def test_hypercube_has_no_facing_pair():
    c = classify_factor(builders.hypercube(3))
    assert (c.kind, c.evidence, c.budget_exhausted) == \
        (BOUNDED, "no facing pair of halfspaces", False)


def test_facing_triples_without_strong_separation_are_bounded(monkeypatch):
    # every hyperplane of the star crosses the edge's hyperplane
    g = product_graph(builders.star(3), builders.path_graph(2))
    c = classify_factor(g)
    assert (c.kind, c.evidence, c.budget_exhausted) == \
        (BOUNDED, "no strongly separated facing triple "
                  "(1 facing triples checked)", False)
    monkeypatch.setattr(report, "_FACING_BUDGET", 1)
    c = classify_factor(g)
    assert (c.kind, c.evidence, c.budget_exhausted) == \
        (BOUNDED, "no strongly separated facing triple among first 1 "
                  "facing triples", True)


def test_exhausted_budget_is_noted_in_the_report(monkeypatch):
    # two squares on the edge 1-3 and three pendant edges: irreducible, and
    # its first facing triple is not strongly separated
    g = MedianGraph(9, [(0, 1), (0, 2), (1, 3), (1, 5), (2, 3), (2, 7),
                        (3, 4), (3, 6), (3, 8), (5, 8)])
    assert check_median(g).ok
    monkeypatch.setattr(report, "_FACING_BUDGET", 1)
    rep = shape_report(g)
    assert [c.budget_exhausted for c in rep.classes] == [True]
    assert "note: a search budget was exhausted; 'bounded' there means " \
        "'not found within budget'" in rep.render().splitlines()


def test_shape_counts_add_up():
    g = product_graph(builders.path_graph(4), builders.star(3))
    rep = shape_report(g)
    cts = rep.counts
    assert cts[LINE] == 1 and cts[CANDIDATE] == 1 and cts[BOUNDED] == 0
    assert sum(cts.values()) == rep.decomposition.r == 2


def test_report_states_undecidability():
    rep = shape_report(builders.grid_graph(3, 3))
    assert "not decidable" in rep.render()
    obj = json.loads(rep.to_json())
    assert "not decidable" in obj["undecidable"]
    assert obj["shape"]["total"] == 2


def test_restricted_actions_coordinate_wise():
    a = builders.grid_shift_action(5)
    rep = shape_report(a.graph, a)
    assert rep.decomposition.r == 2
    assert len(rep.restricted) == 2
    assert all(ra.preserved for ra in rep.restricted)


def test_restricted_actions_detect_mixing():
    # an action swapping the two grid coordinates mixes the factors
    from cubekit.action import Generators, PartialAction
    g = builders.grid_graph(3, 3)
    idx = g.label_index
    swap = [0] * g.n
    for x in range(3):
        for y in range(3):
            swap[idx[f"{x},{y}"]] = idx[f"{y},{x}"]
    a = PartialAction(g, Generators([("s", "s")]), {"s": swap}, base=idx["1,1"])
    rep = shape_report(g, a)
    assert any(not ra.preserved for ra in rep.restricted)


def test_truncated_flag_propagates():
    g = builders.free_group_ball(3)
    assert shape_report(g).truncated


def reference_restricted_actions(a, dec):
    """The per-vertex dict loop that ``report._restricted_actions``
    replaced, as (factor, preserved, detail) rows."""
    out = []
    coords = dec.coordinates.tolist()
    for fi in range(dec.r):
        preserved = True
        detail = "all generators induce well-defined factor maps"
        induced_total = 0
        for nm in a.gens.names:
            fmap = {}
            mp = a.maps[nm].tolist()
            for v in range(a.graph.n):
                w = mp[v]
                if w < 0:
                    continue
                x = coords[v][fi]
                if x in fmap and fmap[x] != coords[w][fi]:
                    preserved = False
                    detail = (f"generator {nm} is not well defined on "
                              f"factor {fi}")
                    break
                fmap[x] = coords[w][fi]
            if not preserved:
                break
            induced_total += len(fmap)
        if preserved:
            detail += f" ({induced_total} induced images)"
        out.append((fi, preserved, detail))
    return out


def _swap_action(n):
    from cubekit.action import Generators, PartialAction
    g = builders.grid_graph(n, n)
    idx = g.label_index
    swap = [idx[f"{y},{x}"] for x, y in
            (map(int, lab.split(",")) for lab in g.labels)]
    return PartialAction(g, Generators([("s", "s")]), {"s": swap})


def test_restricted_actions_match_the_reference_loop():
    from cubekit.action import Generators, PartialAction
    g = builders.grid_graph(4, 3)
    trivial = PartialAction(g, Generators([("e", "E")]),
                            {"e": list(range(g.n)), "E": list(range(g.n))})
    punched = builders.grid_shift_action(7)
    maps = {nm: list(mp) for nm, mp in punched.maps.items()}
    maps[punched.gens.names[0]][5] = -1
    punched = PartialAction(punched.graph, punched.gens, maps)
    actions = [builders.grid_shift_action(7), builders.grid_shift_action(3),
               _swap_action(3), _swap_action(4), trivial, punched,
               builders.free_group_action(3)]
    for a in actions:
        rep = shape_report(a.graph, a)
        dec = rep.decomposition
        assert dec.coordinates.dtype == np.int64
        assert dec.coordinates.shape == (a.graph.n, dec.r)
        assert [(ra.factor, ra.preserved, ra.detail)
                for ra in rep.restricted] == \
            reference_restricted_actions(a, dec)
    assert any(not ra.preserved
               for ra in shape_report(_swap_action(4).graph,
                                      _swap_action(4)).restricted)
