"""Shared builders and references.

Builders: a triangle example, random systems and random cost triples.
References kept apart from the package code they check: a dict union-find
for connectivity and a brute-force cut enumeration.
"""

from __future__ import annotations

import random
from typing import Optional

import gridattack as ga
from gridattack.mincut import cut_from_side


def triangle_system(secure=(False, True, False)) -> ga.MeasurementSystem:
    """Triangle example: two buses plus reference; flow(1,2), angle(1), angle(2)."""
    return ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1), ga.Bus(2)),
        lines=((1, 2, 1.0),),
        measurements=(
            ga.Measurement(0, ga.MeasurementKind.LINE_FLOW, 1, 2, secure=secure[0]),
            ga.Measurement(1, ga.MeasurementKind.PHASE_ANGLE, 1, secure=secure[1]),
            ga.Measurement(2, ga.MeasurementKind.PHASE_ANGLE, 2, secure=secure[2]),
        ),
    )


def triangle_graph(secure=(False, True, False)) -> ga.MeasurementGraph:
    return ga.build_graph(triangle_system(secure))


def random_edge_list(rng: random.Random, n_buses: int, m: int) -> list[tuple[int, int]]:
    """Connected multigraph over buses 0..n (0 is the reference node)."""
    nodes = list(range(n_buses + 1))
    order = nodes[:]
    rng.shuffle(order)
    edges = [tuple(sorted((v, rng.choice(order[:k])))) for k, v in enumerate(order[1:], 1)]
    while len(edges) < m:
        u, v = rng.sample(nodes, 2)
        edges.append(tuple(sorted((u, v))))
    rng.shuffle(edges)
    return edges


def random_system(
    rng: random.Random,
    n_buses: Optional[int] = None,
    m: Optional[int] = None,
    secure_prob: Optional[float] = None,
    n_insecure: Optional[int] = None,
) -> ga.MeasurementSystem:
    """Random connected measurement system, 4..10 graph nodes, 5..20 edges."""
    if n_buses is None:
        n_buses = rng.randint(3, 9)
    if m is None:
        m = rng.randint(max(5, n_buses), 20)
    m = max(m, n_buses)
    edges = random_edge_list(rng, n_buses, m)
    if n_insecure is not None:
        insecure = set(rng.sample(range(len(edges)), n_insecure))
        flags = [k not in insecure for k in range(len(edges))]
    else:
        if secure_prob is None:
            secure_prob = rng.choice([0.0, 0.2, 0.4, 0.6])
        flags = [rng.random() < secure_prob for _ in edges]
    lines = sorted({(min(u, v), max(u, v)) for u, v in edges if 0 not in (u, v)})
    measurements = []
    for mid, (u, v) in enumerate(edges):
        if 0 in (u, v):
            measurements.append(
                ga.Measurement(mid, ga.MeasurementKind.PHASE_ANGLE, max(u, v), secure=flags[mid])
            )
        else:
            measurements.append(
                ga.Measurement(mid, ga.MeasurementKind.LINE_FLOW, u, v, secure=flags[mid])
            )
    return ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True),) + tuple(ga.Bus(i) for i in range(1, n_buses + 1)),
        lines=tuple((i, j, 1.0) for i, j in lines),
        measurements=tuple(measurements),
    )


def random_cost(rng: random.Random, interval: Optional[ga.CostInterval] = None) -> ga.CostModel:
    """Random permissible cost triple, optionally pinned to one interval."""
    while True:
        p_i = rng.uniform(0.5, 2.0)
        p_jsc = rng.uniform(0.05, p_i)
        p_js = rng.uniform(p_jsc, p_i)
        cost = ga.CostModel(p_i, p_js, p_jsc)
        if interval is None or ga.classify_interval(cost) is interval:
            return cost


def random_weighted_graph(rng: random.Random, weights=(0.25, 0.5, 0.6, 0.8, 1.0)):
    """Random connected weighted multigraph for the cut engines."""
    n_nodes = rng.randint(3, 8)
    edges = random_edge_list(rng, n_nodes - 1, rng.randint(n_nodes - 1, 14))
    weighted = tuple(
        ga.WeightedEdge(k, u, v, rng.choice(weights), secure=rng.random() < 0.4)
        for k, (u, v) in enumerate(edges)
    )
    return ga.WeightedGraph(nodes=tuple(range(n_nodes)), edges=weighted)


def reference_labels(nodes, pairs) -> list[int]:
    """Component label of each distinct node, numbered in node order, by a dict union-find."""
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    names = {}
    return [names.setdefault(find(v), len(names)) for v in parent]


def reference_connected(nodes, pairs) -> bool:
    """Whether the pairs link every node of the set."""
    return len(set(reference_labels(nodes, pairs))) <= 1


def all_cuts(g: ga.WeightedGraph) -> list[ga.CutResult]:
    """Every cut of a small graph, one per proper bipartition, by brute force.

    Census mask order: bit i of the mask puts ``g.nodes[1:][i]`` on
    ``side_a``, so the first node is never on it.
    """
    others = list(g.nodes[1:])
    return [
        cut_from_side(g.edges, frozenset(v for i, v in enumerate(others) if mask >> i & 1))
        for mask in range(1, 1 << len(others))
    ]
