"""Weighted cut engines: s-t min cut, global min cut, bitmask reachability.

The s-t cut is a Dinic max-flow; the global cut is Stoer-Wagner (Stoer &
Wagner, "A simple min-cut algorithm", JACM 1997) with a heap-ordered
maximum-adjacency search. Both run on the same packed integer capacities.
Parallel edges are merged per node pair inside the solvers but cuts are
always reported edge-by-edge. Weights may be +inf, which is absorbing: an
infinite edge never enters a returned cut while any finite cut exists, so
the global cut first merges every node pair an infinite edge joins and runs
its phases on the smaller graph. A solver reweights one edge in place
(``CutSolver.set_weight``), which is how the iterative constrained search
boosts an edge without rebuilding it.

Tie-breaking is exact and deterministic. Each edge weight is quantized to
1e-12 and packed into a single integer together with an edge-count term and
a per-edge binary marker, ordered so that the solver minimizes weight first,
then the number of cut edges, then the lexicographically smallest sorted
edge-id set. Because the markers are distinct powers of two, the minimizing
edge set is unique, and minimizing the edge count as a secondary objective
makes every returned cut inclusion-minimal: both sides of the bipartition
induce connected subgraphs.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

INFINITY = math.inf

_SCALE = 10**12  # weight quantum; weights within 1e-12 are tied


@dataclass(frozen=True)
class WeightedEdge:
    id: int
    u: int
    v: int
    weight: float
    secure: bool = False


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected multigraph with nonnegative (possibly infinite) edge weights."""

    nodes: tuple[int, ...]
    edges: tuple[WeightedEdge, ...]

    def __post_init__(self):
        node_set = set(self.nodes)
        seen = set()
        for e in self.edges:
            if e.u == e.v or e.u not in node_set or e.v not in node_set:
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
            WeightedEdge(
                id=e.id,
                u=e.u,
                v=e.v,
                weight=secure_weight if e.secure else insecure_weight,
                secure=e.secure,
            )
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
    """A graph cut: node bipartition, member edge ids, class counts, weight."""

    side_a: frozenset[int]
    edges: tuple[int, ...]
    weight: float
    n_secure: int
    n_insecure: int

    def __len__(self) -> int:
        return len(self.edges)


def cut_from_side(edges: Iterable[WeightedEdge], side: frozenset[int]) -> CutResult:
    """Materialize the cut defined by a node subset over the given edges."""
    members = [e for e in edges if (e.u in side) != (e.v in side)]
    n_sec = sum(1 for e in members if e.secure)
    if any(math.isinf(e.weight) for e in members):
        weight = INFINITY
    else:
        weight = float(sum(e.weight for e in members))
    return CutResult(
        side_a=side,
        edges=tuple(sorted(e.id for e in members)),
        weight=weight,
        n_secure=n_sec,
        n_insecure=len(members) - n_sec,
    )


class _Dinic:
    """Max-flow over arbitrary-precision integer capacities."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_undirected(self, u: int, v: int, c: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(c)

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for a in self.adj[u]:
                    v = self.to[a]
                    if self.cap[a] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return total
            total += self._blocking_flow(s, t, level)

    def _blocking_flow(self, s: int, t: int, level: list[int]) -> int:
        """Augment along the level graph until it is blocked.

        The search keeps its path on an explicit stack rather than the call
        stack, so path length is not bounded by the recursion limit.
        """
        to, cap, adj = self.to, self.cap, self.adj
        it = [0] * self.n
        total = 0
        path: list[int] = []  # arc ids from s to u
        u = s
        while True:
            if u == t:
                pushed = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                total += pushed
                path.clear()
                u = s
                continue
            arcs = adj[u]
            while it[u] < len(arcs):
                a = arcs[it[u]]
                if cap[a] > 0 and level[to[a]] == level[u] + 1:
                    break
                it[u] += 1
            else:
                if u == s:
                    return total
                u = to[path.pop() ^ 1]  # dead end: retire the arc into it
                it[u] += 1
                continue
            path.append(a)
            u = to[a]

    def reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in self.adj[u]:
                v = self.to[a]
                if self.cap[a] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def _reach(seed: int, adjacent: list[int], within: int = -1) -> int:
    """Nodes that ``seed`` reaches inside ``within``; ``adjacent[i]`` holds node i's neighbours."""
    label = frontier = seed
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adjacent[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & within & ~label
        label |= frontier
    return label


def _quantum(weight: float) -> Optional[int]:
    """Quantized weight, or None for +inf."""
    return None if math.isinf(weight) else round(weight * _SCALE)


def _stoer_wagner(n: int, pair_caps: Mapping[tuple[int, int], int]) -> tuple[int, set[int]]:
    """Packed minimum cut value over nodes 0..n-1 and its side holding node 0.

    Each phase grows a maximum-adjacency order, takes the cut isolating the
    last node added, and merges the last two. On a disconnected graph the
    side is node 0's component, at value 0.
    """
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for (a, b), cap in pair_caps.items():
        adj[a][b] = cap
        adj[b][a] = cap
    groups: dict[int, list[int]] = {i: [i] for i in range(n)}
    best: tuple[int, list[int]] | None = None
    push, pop = heapq.heappush, heapq.heappop
    while len(groups) > 1:
        key = [0] * n
        added = [False] * n
        heap = [(0, 0)]
        left = len(groups)
        prev = last = 0
        while left:
            if not heap:  # the first node's component is closed: a cut of weight 0
                return 0, {i for i in range(n) if added[i]}
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
        if best is None or key[last] < best[0]:
            best = (key[last], groups[last])
        # merge the last node into the one before it
        groups[prev].extend(groups.pop(last))
        for u, cap in adj[last].items():
            if u != prev:
                adj[prev][u] = adj[prev].get(u, 0) + cap
                adj[u][prev] = adj[u].get(prev, 0) + cap
            del adj[u][last]
    assert best is not None
    value, group = best
    return value, set(group) if 0 in group else set(range(n)) - set(group)


class CutSolver:
    """Reusable exact min-cut solver for one weighted graph.

    Cut values are compared as packed integers (weight, edge count,
    edge-id lexicography), so results are exact and identical across calls.
    ``set_weight`` changes one edge in place and leaves the solver exactly
    as a fresh one built on the reweighted graph.
    """

    def __init__(self, graph: WeightedGraph):
        self._nodes = list(graph.nodes)
        self._index = {v: i for i, v in enumerate(self._nodes)}
        self._edges = list(graph.edges)  # current weights, reported in cuts
        self._slot = {e.id: k for k, e in enumerate(self._edges)}
        m = len(self._edges)
        ranks = {eid: r for r, eid in enumerate(sorted(self._slot))}
        count_unit = 1 << (m + 2)
        self._weight_unit = (m + 2) * count_unit
        self._quanta = [_quantum(e.weight) for e in self._edges]
        self._finite_total = sum(q for q in self._quanta if q is not None)
        inf_quantum = self._finite_total + 1  # outweighs every finite cut
        self._pairs: list[tuple[int, int]] = []  # node-index pair of each edge
        self._pair_caps: dict[tuple[int, int], int] = {}
        self._inf_pairs: dict[tuple[int, int], int] = {}  # pair -> its +inf edge count
        for e, q in zip(self._edges, self._quanta):
            a, b = self._index[e.u], self._index[e.v]
            key = (a, b) if a < b else (b, a)
            self._pairs.append(key)
            if q is None:
                q = inf_quantum
                self._inf_pairs[key] = self._inf_pairs.get(key, 0) + 1
            marker = 1 << (m - 1 - ranks[e.id])
            composite = q * self._weight_unit + count_unit - marker
            self._pair_caps[key] = self._pair_caps.get(key, 0) + composite

    def set_weight(self, edge_id: int, weight: float) -> None:
        """Reweight one edge in place.

        The +inf quantum is the finite quanta's sum plus one, so a change to
        that sum also moves every pair that holds an infinite edge.
        """
        if math.isnan(weight) or weight < 0:
            raise ValueError(f"edge {edge_id} weight must be nonnegative")
        k = self._slot[edge_id]
        e = self._edges[k]
        self._edges[k] = WeightedEdge(e.id, e.u, e.v, weight, e.secure)
        old, new = self._quanta[k], _quantum(weight)
        if old == new:
            return
        self._quanta[k] = new
        old_inf = self._finite_total + 1
        self._finite_total += (new or 0) - (old or 0)
        new_inf = self._finite_total + 1
        key, unit = self._pairs[k], self._weight_unit
        caps, inf_pairs = self._pair_caps, self._inf_pairs
        caps[key] -= (old_inf if old is None else old) * unit
        if old is None:
            inf_pairs[key] -= 1
            if not inf_pairs[key]:
                del inf_pairs[key]
        if new_inf != old_inf:
            for pair, count in inf_pairs.items():
                caps[pair] += count * (new_inf - old_inf) * unit
        if new is None:
            inf_pairs[key] = inf_pairs.get(key, 0) + 1
        caps[key] += (new_inf if new is None else new) * unit

    def _network(self) -> _Dinic:
        net = _Dinic(len(self._nodes))
        for (a, b), cap in sorted(self._pair_caps.items()):
            net.add_undirected(a, b, cap)
        return net

    def min_st_cut(self, s: int, t: int) -> tuple[int, CutResult]:
        """Packed cut value and the unique optimal cut separating s and t."""
        if s == t:
            raise ValueError("s and t must differ")
        net = self._network()
        value = net.max_flow(self._index[s], self._index[t])
        side = frozenset(self._nodes[i] for i in net.reachable(self._index[s]))
        return value, cut_from_side(self._edges, side)

    def _contracted(self) -> tuple[list[int], dict[tuple[int, int], int]]:
        """Merge every node pair joined by a +inf edge.

        Returns each node's merged label and the packed capacities between
        labels. Labels are numbered in node order, so the first node's is 0.
        """
        adjacent = [0] * len(self._nodes)
        for a, b in self._inf_pairs:
            adjacent[a] |= 1 << b
            adjacent[b] |= 1 << a
        labels = [-1] * len(adjacent)
        count = 0
        for i in range(len(labels)):
            if labels[i] < 0:
                group = _reach(1 << i, adjacent)
                while group:
                    low = group & -group
                    labels[low.bit_length() - 1] = count
                    group ^= low
                count += 1
        caps: dict[tuple[int, int], int] = {}
        for (a, b), cap in self._pair_caps.items():
            la, lb = labels[a], labels[b]
            if la != lb:
                key = (la, lb) if la < lb else (lb, la)
                caps[key] = caps.get(key, 0) + cap
        return labels, caps

    def global_min_cut(self) -> tuple[int, CutResult]:
        """Packed value and the unique minimum cut over all proper bipartitions.

        Stoer-Wagner, run after merging every node pair joined by a +inf
        edge: such an edge never enters the minimum while a finite cut
        exists, so the answer is unchanged. When merging leaves one node,
        every cut is infinite and the phases run on the unmerged graph. The
        reported side contains the first node; on a disconnected graph it is
        that node's component.
        """
        n = len(self._nodes)
        if n < 2:
            raise ValueError("global min cut needs at least two nodes")
        labels, caps = list(range(n)), self._pair_caps
        if self._inf_pairs:
            merged, merged_caps = self._contracted()
            if max(merged):  # at least two nodes are left
                labels, caps = merged, merged_caps
        value, side_labels = _stoer_wagner(max(labels) + 1, caps)
        side = frozenset(v for v, label in zip(self._nodes, labels) if label in side_labels)
        return value, cut_from_side(self._edges, side)


def min_st_cut(g: WeightedGraph, s: int, t: int) -> CutResult:
    """Minimum weight cut separating s and t; weight equals the max flow."""
    return CutSolver(g).min_st_cut(s, t)[1]


def global_min_cut(g: WeightedGraph) -> CutResult:
    """Minimum weight cut over all proper bipartitions."""
    return CutSolver(g).global_min_cut()[1]

