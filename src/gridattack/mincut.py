"""Weighted cut engines: s-t min cut and global min cut.

The s-t cut is a shortest-augmenting-path max-flow (Edmonds & Karp, JACM
1972); the global cut is Stoer-Wagner (Stoer & Wagner, "A simple min-cut
algorithm", JACM 1997) with a heap-ordered maximum-adjacency search, whose
phases also merge every pair the Nagamochi-Ono-Ibaraki test proves
inseparable by a lighter cut (Math. Programming 1994). Both copy the
adjacency rows ``CutSolver`` packs, one integer capacity per node pair, and
return only a packed value and a side; ``cut_from_side`` is the one place
that builds a cut, edge by edge. Weights may be +inf, which is absorbing:
an infinite edge packs heavier than all finite edges together, so it never
enters a returned cut while any finite cut exists, and the global cut's
contraction merges the pair it joins once a finite cut is found. A
``CutSolver`` keeps only a graph's structure and each solve takes one weight
per edge, so the iterative constrained search boosts an edge by setting its
weight to +inf.

Tie-breaking is exact and deterministic. Each edge weight is quantized to
1e-12 of the binade of the largest finite weight, so scaling every weight by
a power of two changes no cut. It is packed into a single integer together
with an edge-count term and a per-edge binary marker, ordered so that the
solver minimizes weight first, then the number of cut edges, then the
lexicographically smallest sorted edge-id set. Because the markers are
distinct powers of two, the minimizing edge set is unique, and minimizing
the edge count as a secondary objective makes every returned cut
inclusion-minimal: both sides of the bipartition induce connected subgraphs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

INFINITY = math.inf

_SCALE = 10**12  # quanta per binade of the largest finite weight


@dataclass(frozen=True)
class WeightedEdge:
    id: int
    u: int
    v: int
    weight: float
    secure: bool = False

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.u, self.v


@dataclass(frozen=True)
class WeightedGraph:
    """Multigraph over the nodes 0..n-1, in order, with nonnegative or infinite weights."""

    nodes: tuple[int, ...]
    edges: tuple[WeightedEdge, ...]

    def __post_init__(self):
        n = len(self.nodes)
        if tuple(self.nodes) != tuple(range(n)):
            raise ValueError(f"graph nodes must be 0..{n - 1} in order")
        seen = set()
        for e in self.edges:
            if e.u == e.v or e.u not in range(n) or e.v not in range(n):
                raise ValueError(f"edge {e.id} has invalid endpoints ({e.u},{e.v})")
            if math.isnan(e.weight) or e.weight < 0:
                raise ValueError(f"edge {e.id} weight must be nonnegative")
            if e.id in seen:
                raise ValueError(f"duplicate edge id {e.id}")
            seen.add(e.id)

    @classmethod
    def from_measurement_graph(cls, graph, secure_weight: float, insecure_weight: float):
        """Weight every edge of a measurement graph by its security class."""
        edges = tuple(
            WeightedEdge(e.id, *e.endpoints, secure_weight if e.secure else insecure_weight, e.secure)
            for e in graph.edges
        )
        return cls(nodes=tuple(graph.nodes), edges=edges)

    def reweighted(self, overrides: Mapping[int, float]) -> "WeightedGraph":
        edges = tuple(
            WeightedEdge(e.id, e.u, e.v, overrides.get(e.id, e.weight), e.secure)
            for e in self.edges
        )
        return WeightedGraph(nodes=self.nodes, edges=edges)


@dataclass(frozen=True)
class CutResult:
    """A graph cut: node bipartition, weight, and sorted edge ids, all and by class."""

    side_a: frozenset[int]
    edges: tuple[int, ...]
    weight: float
    insecure: tuple[int, ...]
    secure: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def n_secure(self) -> int:
        return len(self.secure)

    @property
    def n_insecure(self) -> int:
        return len(self.insecure)


def cut_from_side(edges: Sequence, weights: Sequence[float], side: frozenset[int]) -> CutResult:
    """Materialize the cut a node subset defines, ``weights[k]`` weighing ``edges[k]``,
    split by the edges' ``secure`` flags in the same pass.

    The weight is summed left to right in edge order, as 3.12's ``sum`` is not.
    """
    ins, sec, weight = [], [], 0.0
    for e, w in zip(edges, weights, strict=True):
        u, v = e.endpoints
        if (u in side) != (v in side):
            (sec if e.secure else ins).append(e.id)
            weight += w
    return CutResult(side_a=side, edges=tuple(sorted(ins + sec)), weight=weight,
                     insecure=tuple(sorted(ins)), secure=tuple(sorted(sec)))


def _max_flow(rows: Sequence[dict[int, int]], s: int, t: int) -> tuple[int, frozenset[int]]:
    """Packed max-flow value from s to t, and the frozenset of nodes s then reaches.

    Augments along breadth-first shortest paths in the residual capacities
    (Edmonds & Karp, JACM 1972). The search that no longer reaches t reaches
    the smallest source side of a minimum cut, the same for every maximum
    flow.
    """
    residual = [row.copy() for row in rows]
    total = 0
    while True:
        parent = [-1] * len(rows)
        parent[s] = s
        queue = [s]
        for u in queue:
            for v, cap in residual[u].items():
                if cap and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
            if parent[t] >= 0:
                break
        else:
            return total, frozenset(queue)
        path = []
        v = t
        while v != s:
            path.append((parent[v], v))
            v = parent[v]
        pushed = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= pushed
            residual[v][u] += pushed
        total += pushed


def _stoer_wagner(rows: Sequence[dict[int, int]]) -> tuple[int, frozenset[int]]:
    """Packed minimum cut value and its side holding node 0, as a frozenset.

    The best cut starts as the lightest single node. Each phase grows a
    maximum-adjacency order from label 0, records the cut isolating the
    last label added if it is lighter, and merges the last two labels. It
    also merges every pair (v, u) whose key reached the best value while v
    was scanned (Nagamochi, Ono & Ibaraki, Math. Programming 1994): the
    order gives λ(v, u) >= key[u], so a cut separating them is no lighter
    than the best, and packed values make the minimum unique. Merges keep
    the lower label, so label 0 survives. On a disconnected graph the side
    is node 0's component, at value 0.
    """
    n = len(rows)
    adj = [row.copy() for row in rows]
    groups = {v: [v] for v in range(n)}  # label -> its nodes
    best_value, lightest = min((sum(row.values()), label) for label, row in enumerate(adj))
    best_group = groups[lightest]
    push, pop = heapq.heappush, heapq.heappop
    while len(groups) > 1:
        key = [0] * n
        added = [False] * n
        heap = [(0, 0)]
        left = len(groups)
        prev = last = 0
        merges = []
        while left:
            if not heap:  # the first node's component is closed: a cut of weight 0
                return 0, frozenset(v for v in range(n) if added[v])
            v = pop(heap)[1]
            if added[v]:
                continue  # stale entry left by a key increase
            added[v] = True
            left -= 1
            prev, last = last, v
            for u, cap in adj[v].items():
                if not added[u]:
                    k = key[u] = key[u] + cap
                    push(heap, (-k, u))
                    if k >= best_value:
                        merges.append((v, u))
        if key[last] < best_value:
            best_value, best_group = key[last], groups[last]
        merges.append((prev, last))
        into: dict[int, int] = {}  # merged label -> the label it went into
        for a, b in merges:
            while a in into:
                a = into[a]
            while b in into:
                b = into[b]
            if a == b:
                continue
            if b < a:
                a, b = b, a
            into[b] = a
            groups[a] = groups[a] + groups.pop(b)  # a new list: best_group may hold the old one
            for u, cap in adj[b].items():
                if u != a:
                    adj[a][u] = adj[a].get(u, 0) + cap
                    adj[u][a] = adj[u].get(a, 0) + cap
                del adj[u][b]
    side = frozenset(best_group)
    return best_value, side if 0 in side else frozenset(range(n)) - side


class CutSolver:
    """Reusable exact min-cut solver for one graph's structure.

    The graph's nodes are 0..n-1 in order; its edges carry ``id`` and
    ``endpoints``, as in a ``MeasurementGraph`` or a ``WeightedGraph``. Each
    solve packs ``weights``, one per edge in edge order, into adjacency rows.
    Cut values are compared as packed integers (weight, edge count, edge-id
    lexicography), so results are exact and identical across calls. A solve
    returns a value and a side, from which callers build the cut they keep.
    """

    def __init__(self, graph):
        self._n = len(graph.nodes)
        m = len(graph.edges)
        ranks = {eid: r for r, eid in enumerate(sorted(e.id for e in graph.edges))}
        count_unit = 1 << (m + 2)
        self._weight_unit = (m + 2) * count_unit
        self._layout: list[tuple[int, int, int]] = []  # endpoints, count term less marker
        for e in graph.edges:
            u, v = e.endpoints
            marker = 1 << (m - 1 - ranks[e.id])
            self._layout.append((u, v, count_unit - marker))
        self._packed: tuple[tuple[float, ...], list[dict[int, int]]] | None = None

    def _rows(self, weights: Sequence[float]) -> list[dict[int, int]]:
        """Symmetric adjacency rows of packed capacities under ``weights``.

        ``rows[a][b]`` sums the edges between nodes a and b; a row
        lists its neighbours in the order of their first edge.

        Weights are quantized to 1e-12 of ``2**e``, with the largest finite
        weight in [2**(e-1), 2**e), so scaling every weight by a power of two
        packs the same integers. +inf packs as the sum of the finite quanta
        plus one, so it outweighs every finite cut. Each distinct weight is
        checked and quantized once, as a solve has only a few: the class
        weights and +inf. The last packing is kept,
        keyed by the weights' values, so a global cut and the s-t flows that
        follow it under the same weights pack once.
        """
        key = tuple(weights)
        if self._packed is None or self._packed[0] != key:
            distinct = set(key)
            if len(key) != len(self._layout) or any(math.isnan(w) or w < 0 for w in distinct):
                raise ValueError(f"need {len(self._layout)} nonnegative weights, one per edge")
            top = math.frexp(max((w for w in distinct if not math.isinf(w)), default=0.0))[1]
            unit = self._weight_unit
            caps = {w: round(math.ldexp(w, -top) * _SCALE) * unit
                    for w in distinct if not math.isinf(w)}
            if INFINITY in distinct:
                caps[INFINITY] = sum(c * key.count(w) for w, c in caps.items()) + unit
            rows: list[dict[int, int]] = [{} for _ in range(self._n)]
            for (a, b, low), w in zip(self._layout, key):
                cap = caps[w] + low
                rows[a][b] = rows[a].get(b, 0) + cap
                rows[b][a] = rows[b].get(a, 0) + cap
            self._packed = key, rows
        return self._packed[1]

    def min_st_cut(self, weights: Sequence[float], s: int, t: int) -> tuple[int, frozenset[int]]:
        """Packed value of the unique optimal cut separating s and t, and its side holding s."""
        for v in (s, t):
            if v not in range(self._n):
                raise ValueError(f"node {v} is not in the graph")
        if s == t:
            raise ValueError("s and t must differ")
        return _max_flow(self._rows(weights), s, t)

    def global_min_cut(self, weights: Sequence[float]) -> tuple[int, frozenset[int]]:
        """Packed value and side of the unique minimum cut over all proper bipartitions.

        Stoer-Wagner with Nagamochi-Ono-Ibaraki contraction. An infinite
        edge needs no special case: once a phase finds a finite cut, the
        pair it joins is merged. The reported side holds node 0; on a
        disconnected graph it is node 0's component.
        """
        if self._n < 2:
            raise ValueError("global min cut needs at least two nodes")
        return _stoer_wagner(self._rows(weights))

