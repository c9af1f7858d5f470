"""Brute-force ground truth for minimum attack costs on small graphs.

Enumerates every bipartition whose two sides are internally connected (any
attack on a cut with a disconnected side splits into a cheaper attack on a
sub-cut, so nothing is lost) and, per cut, every admissible action split by
counts, since all insecure edges share one cost and all secure edges share
another.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .attack import AttackPlan, AttackType, CostModel, Infeasible, _plan
from .errors import TooLarge
from .grid import MeasurementGraph, connected
from .mincut import CutResult, WeightedGraph, cut_from_side

MAX_ORACLE_NODES = 12


def _induced_connected(side: frozenset[int], graph: MeasurementGraph) -> bool:
    pairs = [(e.u, e.v) for e in graph.edges if e.u in side and e.v in side]
    return connected(side, pairs)


@lru_cache(maxsize=256)
def _cut_census(graph: MeasurementGraph) -> tuple[CutResult, ...]:
    """Every unit-weight cut whose two sides both induce connected subgraphs."""
    unit = WeightedGraph.from_measurement_graph(graph, 1.0, 1.0)
    others = list(graph.nodes[1:])
    all_nodes = frozenset(graph.nodes)
    cuts = []
    for mask in range(1, 1 << len(others)):
        side = frozenset(v for i, v in enumerate(others) if mask >> i & 1)
        if _induced_connected(side, graph) and _induced_connected(all_nodes - side, graph):
            cuts.append(cut_from_side(unit.edges, side))
    return tuple(cuts)


def _best_split(
    attack_type: AttackType, n_sec: int, n_ins: int, cost: CostModel
) -> Optional[tuple[float, tuple[int, int, int]]]:
    """Cheapest admissible (inject, jam-insecure, jam-secure) counts for a cut."""
    p_i, p_s, p_sc = cost.p_inject, cost.p_jam_secure, cost.p_jam_insecure
    size = n_sec + n_ins
    if n_ins == 0:
        return None
    if attack_type.hidden:
        # whole cut touched: secure edges all jammed, insecure split inject/jam
        if attack_type is AttackType.HIDDEN_INJECTION:
            if n_sec > 0:
                return None
            return p_i * n_ins, (n_ins, 0, 0)
        if attack_type is AttackType.HIDDEN_JAMMING and n_sec > 0:
            return None
        k = np.arange(1, n_ins + 1)
        costs = p_i * k + p_sc * (n_ins - k) + p_s * n_sec
        best = int(np.argmin(costs))
        return float(costs[best]), (int(k[best]), n_ins - int(k[best]), n_sec)
    # detectable: injected edges must strictly outnumber the untouched residue
    jam_ins_max = 0 if attack_type is AttackType.DETECTABLE_INJECTION else n_ins
    jam_sec_max = n_sec if attack_type is AttackType.DETECTABLE_GENERALIZED else 0
    ki = np.arange(1, n_ins + 1).reshape(-1, 1, 1)
    kji = np.arange(0, jam_ins_max + 1).reshape(1, -1, 1)
    kjs = np.arange(0, jam_sec_max + 1).reshape(1, 1, -1)
    feasible = (ki + kji <= n_ins) & (2 * ki > size - kji - kjs)
    if not feasible.any():
        return None
    costs = p_i * ki + p_sc * kji + p_s * kjs + np.where(feasible, 0.0, np.inf)
    flat = int(np.argmin(costs))
    a, b, c = np.unravel_index(flat, costs.shape)
    return float(costs[a, b, c]), (int(ki[a, 0, 0]), int(kji[0, b, 0]), int(kjs[0, 0, c]))


def optimal_cost(
    graph: MeasurementGraph,
    cost: CostModel,
    attack_type: AttackType,
    max_nodes: int = MAX_ORACLE_NODES,
) -> Union[tuple[float, AttackPlan], Infeasible]:
    """True minimum attack cost and a witness plan, by full enumeration."""
    if len(graph.nodes) > max_nodes:
        raise TooLarge(f"{len(graph.nodes)} nodes exceeds the oracle cap {max_nodes}")
    memo: dict[tuple[int, int], Optional[tuple[float, tuple[int, int, int]]]] = {}
    best: Optional[tuple[float, CutResult, tuple[int, int, int]]] = None
    for cut in _cut_census(graph):
        key = (cut.n_secure, cut.n_insecure)
        if key not in memo:
            memo[key] = _best_split(attack_type, key[0], key[1], cost)
        found = memo[key]
        if found is None:
            continue
        value, counts = found
        if best is None or value < best[0]:
            best = (value, cut, counts)
    if best is None:
        return Infeasible(f"no cut admits a {attack_type.value} attack")
    value, cut, counts = best
    plan = _plan(attack_type, graph, cut, cost, *counts)
    assert abs(plan.total_cost - value) < 1e-9
    return value, plan
