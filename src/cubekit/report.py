"""Shape report for the irreducible product decomposition.

Each irreducible factor of a finite median graph is classified from the
data actually available at finite radius: a line (path factor), a bounded
factor (too few hyperplanes, or no facing pair), or a candidate rank-one
factor (a facing triple of pairwise strongly separated halfspaces exists).
The counts always satisfy lines + candidates + bounded = number of
factors.  Identification of any finer structure — in particular whether a
candidate factor comes from a surface-group-like action — is NOT decidable
from a finite ball, and the report says so explicitly instead of guessing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .median import MedianGraph
from .hyperplanes import (Decomposition, facing_tuples,
                          irreducible_decomposition,
                          pairwise_strongly_separated)
from .action import PartialAction


LINE = "line"
BOUNDED = "bounded"
CANDIDATE = "candidate-rank-1"

_FACING_BUDGET = 2000   # tuples examined per factor before giving up


@dataclass
class FactorClass:
    kind: str
    evidence: str
    budget_exhausted: bool = False


def classify_factor(f: MedianGraph) -> FactorClass:
    """Classify one irreducible factor; evidence is a human-readable trace
    of the decision."""
    if f.n <= 2:
        return FactorClass(LINE if f.n == 2 else BOUNDED,
                           f"{f.n} vertices")
    if f.m == f.n - 1 and (f.indptr[1:] - f.indptr[:-1]).max() <= 2:
        return FactorClass(LINE, f"path on {f.n} vertices")
    pairs = facing_tuples(f, 2, limit=1)
    if not pairs:
        return FactorClass(BOUNDED, "no facing pair of halfspaces")
    triples = facing_tuples(f, 3, limit=_FACING_BUDGET)
    for t in triples:
        if pairwise_strongly_separated(t):
            ev = "strongly separated facing triple " + \
                " ".join(repr(h) for h in t)
            return FactorClass(CANDIDATE, ev)
    exhausted = len(triples) >= _FACING_BUDGET
    ev = "no strongly separated facing triple" + \
        (f" among first {_FACING_BUDGET} facing triples" if exhausted
         else f" ({len(triples)} facing triples checked)")
    return FactorClass(BOUNDED, ev, budget_exhausted=exhausted)


@dataclass
class RestrictedAction:
    factor: int
    preserved: bool              # every generator acts coordinate-wise
    detail: str


@dataclass
class ShapeReport:
    decomposition: Decomposition
    classes: list[FactorClass]
    restricted: list[RestrictedAction] = field(default_factory=list)
    truncated: bool = False

    @property
    def counts(self) -> dict[str, int]:
        return {k: sum(c.kind == k for c in self.classes)
                for k in (LINE, CANDIDATE, BOUNDED)}

    def render(self) -> str:
        cts = self.counts
        r = self.decomposition.r
        lines = [f"irreducible factors: {r}",
                 f"shape: {cts[CANDIDATE]} candidate-rank-1 + "
                 f"{cts[LINE]} line + {cts[BOUNDED]} bounded = {r}"]
        for i, (f, c) in enumerate(zip(self.decomposition.factors,
                                       self.classes)):
            lines.append(f"factor {i}: {c.kind} "
                         f"(n={f.n}, m={f.m}; {c.evidence})")
        for ra in self.restricted:
            lines.append(f"action on factor {ra.factor}: "
                         f"{'coordinate-wise' if ra.preserved else 'MIXES FACTORS'}"
                         f" -- {ra.detail}")
        if self.truncated:
            lines.append("note: classification used truncated data")
        if any(c.budget_exhausted for c in self.classes):
            lines.append("note: a search budget was exhausted; 'bounded' "
                         "there means 'not found within budget'")
        lines.append("note: finer identification of candidate factors "
                     "(e.g. surface-group actions) is not decidable from "
                     "finite data and is not attempted")
        return "\n".join(lines)

    def to_json(self) -> str:
        cts = self.counts
        obj = {
            "factors": [
                {"index": i, "n": f.n, "m": f.m,
                 "classes": self.decomposition.partition[i],
                 "kind": c.kind, "evidence": c.evidence,
                 "budget_exhausted": c.budget_exhausted}
                for i, (f, c) in enumerate(zip(self.decomposition.factors,
                                               self.classes))],
            "shape": {"candidate_rank_1": cts[CANDIDATE],
                      "line": cts[LINE], "bounded": cts[BOUNDED],
                      "total": self.decomposition.r},
            "restricted_actions": [
                {"factor": ra.factor, "coordinate_wise": ra.preserved,
                 "detail": ra.detail} for ra in self.restricted],
            "truncated": self.truncated,
            "undecidable": "finer identification of candidate factors is "
                           "not decidable from finite data",
        }
        return json.dumps(obj, indent=2)


def _restricted_actions(a: PartialAction,
                        dec: Decomposition) -> list[RestrictedAction]:
    """Check, per factor, whether each generator map descends to the factor
    coordinate: the image's fi-coordinate must depend only on the source's
    fi-coordinate.  Actions that permute or couple factors fail this."""
    out = []
    kept = [(nm, np.flatnonzero(a.maps[nm] >= 0)) for nm in a.gens.names]
    for fi, f in enumerate(dec.factors):
        col = dec.coordinates[:, fi]
        induced_total, bad = 0, None
        for nm, v in kept:
            # the induced map x -> y is well defined iff no x has two y
            x, y = col[v], col[a.maps[nm][v]]
            n_x = len(np.unique(x))
            if len(np.unique(x * f.n + y)) != n_x:
                bad = nm
                break
            induced_total += n_x
        detail = (f"all generators induce well-defined factor maps "
                  f"({induced_total} induced images)" if bad is None else
                  f"generator {bad} is not well defined on factor {fi}")
        out.append(RestrictedAction(fi, bad is None, detail))
    return out


def shape_report(g: MedianGraph,
                 a: Optional[PartialAction] = None) -> ShapeReport:
    """Decompose, classify every factor, and (when an action is supplied)
    check whether the action restricts to the factors."""
    dec = irreducible_decomposition(g)
    classes = [classify_factor(f) for f in dec.factors]
    restricted = _restricted_actions(a, dec) if a is not None else []
    return ShapeReport(dec, classes, restricted, len(g.frontier) > 0)
