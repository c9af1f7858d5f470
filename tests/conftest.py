"""Shared builders and references.

Builders: a triangle example, random systems, removal sets and cost triples,
and a case that exhaustive removal cannot finish, with a count of the
subsets its screen is given.
Describers: every field of a design result or a verdict, at full precision.
References kept apart from the package code they check: a dict union-find
for connectivity and a brute-force cut enumeration.
"""

from __future__ import annotations

import collections
import dataclasses
import random
from typing import Optional

import gridattack as ga
from gridattack import estimator
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


def parallel_bundle_case() -> str:
    """Case text: buses 1 and 2 joined by nineteen flow meters, nine of them
    secure, on a chain of fifteen buses whose meters are all secure.

    76 measurements. Its detectable-injection plan at (1, .8, .6) injects the
    ten insecure meters and leaves the nine secure ones, so the smallest
    passing removal has nine rows: its sizes below hold about 2e10 subsets.
    """
    meters = ["flow 1 2"] * 19 + [f"flow {k} {k + 1}" for k in range(2, 16) for _ in range(3)]
    meters += [f"angle {bus}" for bus in range(2, 17)]
    secure = " ".join(str(k) for k in range(10, len(meters)))
    chain = "\n".join(f"{k} {k + 1}" for k in range(1, 16))
    return f"name bundle\nbuses 16\nlines\n{chain}\nmeasurements\n" + "\n".join(meters) + (
        f"\nsecure\n{secure}\n")


def over_budget_case(listed: bool) -> str:
    """Case text: a chain of 4,000 buses. Placed at angle fraction .6 it holds
    6,399 meters, and listing a flow on every line and an angle on every bus
    gives 7,999; at 4,001 columns either passes ``casefile.MAX_MATRIX_ENTRIES``."""
    n = 4000
    text = f"name big\nbuses {n}\nlines\n" + "".join(f"{k} {k + 1}\n" for k in range(1, n))
    if listed:
        text += "measurements\n" + "".join(f"flow {k} {k + 1}\n" for k in range(1, n))
        text += "".join(f"angle {k}\n" for k in range(1, n + 1))
    return text


def count_screened(monkeypatch) -> list[int]:
    """Sizes of the subset blocks the removal screen is given; fails as soon
    as they add up past ``estimator.MAX_REMOVAL_SUBSETS``."""
    blocks = []
    screen = estimator._screened_residual

    def counted(omega, r, J, block):
        blocks.append(len(block))
        assert sum(blocks) <= estimator.MAX_REMOVAL_SUBSETS, "walked past the cap"
        return screen(omega, r, J, block)

    monkeypatch.setattr(estimator, "_screened_residual", counted)
    return blocks


def random_removals(rng, sys_, count):
    """Removal sets of which many disconnect: a random subset, or every row
    across a random side, whole or less one row, often a parallel one."""
    ids = [m.id for m in sys_.measurements]
    for _ in range(count):
        side = set(rng.sample(range(sys_.n + 1), rng.randint(1, sys_.n)))
        across = [m for m in sys_.measurements if len(side.intersection(m.endpoints)) == 1]
        removed = {m.id for m in across}
        kind = rng.random()
        if kind < 0.25:
            removed = set(rng.sample(ids, rng.randint(0, len(ids))))
        elif kind < 0.5:
            removed.discard(rng.choice(ids))
        elif kind < 0.75:
            pairs = collections.Counter(frozenset(m.endpoints) for m in across)
            parallel = [m.id for m in across if pairs[frozenset(m.endpoints)] > 1]
            removed.discard(rng.choice(parallel or ids))
        yield removed


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
    weights = [e.weight for e in g.edges]
    return [
        cut_from_side(g.edges, weights, frozenset(v for i, v in enumerate(others) if mask >> i & 1))
        for mask in range(1, 1 << len(others))
    ]


def _exact(value) -> str:
    """A verdict or report field at full precision: arrays by their bytes, floats by hex."""
    if value is None:
        return "None"
    if hasattr(value, "tobytes"):
        return f"{value.dtype}{value.shape}:{value.tobytes().hex()}"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, frozenset):
        return repr(sorted(value))
    return repr(value)


def describe_plan(result) -> str:
    """Every field of a design result at full precision, its cut's included; a
    plan's graph is left out, as plan equality leaves it out."""
    if not isinstance(result, ga.AttackPlan):
        return repr(result)
    fields = [f"{f.name}={_exact(getattr(result, f.name))}"
              for f in dataclasses.fields(result) if f.name not in ("cut", "graph")]
    fields += [f"cut.{f.name}={_exact(getattr(result.cut, f.name))}"
               for f in dataclasses.fields(result.cut)]
    return " ".join(fields)


def describe_verdict(verdict) -> str:
    """Every ``VerificationVerdict`` field and every ``EstimationReport`` field."""
    fields = [
        # ``success`` keeps the label the recorded digests were taken under
        f"{'matches_declared_type' if name == 'success' else name}={_exact(getattr(verdict, name))}"
        for name in ("attack_type", "observability_ok", "stealthy", "estimate_changed",
                     "survived_injection", "removal_failed", "success", "final_shift")
    ]
    report = verdict.report
    if report is not None:
        fields += [
            f"{name}={_exact(getattr(report, name))}"
            for name in ("estimate", "residual_norm", "detected", "removed",
                         "final_estimate", "final_residual_norm")
        ]
    return " ".join(fields)
