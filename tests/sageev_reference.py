"""Reference wallspace and dual for the property tests in
``tests/test_sageev.py``: walls as frozenset bipartitions and the dual by
backtracking over orientation tuples, the construction ``cubekit.sageev``
made before walls became bit rows.  Only the graph type and its median
check come from cubekit."""

from __future__ import annotations

from dataclasses import dataclass

from cubekit.median import MedianGraph, check_median

MAX_WALLS = 24


class WallspaceError(Exception):
    pass


@dataclass(frozen=True)
class Wall:
    """An unordered bipartition of the ground set; side a holds the least
    element so equal walls compare equal."""
    a: frozenset[int]
    b: frozenset[int]

    @staticmethod
    def of(x, y) -> "Wall":
        a, b = frozenset(x), frozenset(y)
        # empty sides sort last; Wallspace validation rejects them later
        if min(a, default=-1) > min(b, default=-1):
            a, b = b, a
        return Wall(a, b)

    def sides(self) -> tuple[frozenset[int], frozenset[int]]:
        return self.a, self.b


class Wallspace:
    def __init__(self, ground_labels: list[str], walls: list[Wall]):
        self.labels = list(ground_labels)
        self.n = len(self.labels)
        ground = frozenset(range(self.n))
        seen = set()
        for i, w in enumerate(walls):
            if not w.a or not w.b:
                raise WallspaceError(f"wall {i}: empty side")
            if w.a | w.b != ground or (w.a & w.b):
                raise WallspaceError(f"wall {i}: not a bipartition")
            if w in seen:
                raise WallspaceError(f"wall {i}: duplicate")
            seen.add(w)
        self.walls = list(walls)

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

    walls = [Wall.of(ids(l), ids(r)) for l, r in raw_walls]
    return Wallspace(labels, walls)


def build_dual(w: Wallspace) -> MedianGraph:
    """The dual median graph: consistent orientations, edges between
    orientations differing on exactly one wall, found by backtracking over
    walls ordered by side-size imbalance and sorted as bit tuples."""
    if w.k > MAX_WALLS:
        raise WallspaceError(
            f"wallspace has {w.k} walls, over the limit of {MAX_WALLS}")
    order = sorted(range(w.k),
                   key=lambda i: (-abs(len(w.walls[i].a) - len(w.walls[i].b)),
                                  i))
    sides = [w.walls[i].sides() for i in range(w.k)]
    # compat[i][si][j][sj]: do side si of wall i and side sj of wall j meet?
    compat = [[[[bool(sides[i][si] & sides[j][sj]) for sj in (0, 1)]
                for j in range(w.k)] for si in (0, 1)] for i in range(w.k)]

    found: list[tuple[int, ...]] = []
    choice = [0] * w.k

    def backtrack(pos: int):
        if pos == w.k:
            found.append(tuple(choice))
            return
        i = order[pos]
        for si in (0, 1):
            if all(compat[i][si][j][choice[j]] for j in order[:pos]):
                choice[i] = si
                backtrack(pos + 1)
        choice[i] = 0

    backtrack(0)
    verts = sorted(found)
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    for v in verts:
        for i in range(w.k):
            u = v[:i] + (1 - v[i],) + v[i + 1:]
            j = index.get(u)
            if j is not None and index[v] < j:
                edges.append((index[v], j))
    labels = ["".join(map(str, v)) for v in verts]
    g = MedianGraph(len(verts), edges, labels)
    res = check_median(g)
    if not res.ok:
        raise WallspaceError(
            f"dual graph failed median validation at triple "
            f"{res.counterexample}")
    return g
