"""Brute-force ground truth for minimum attack costs on small graphs.

Enumerates every bipartition whose two sides are internally connected (any
attack on a cut with a disconnected side splits into a cheaper attack on a
sub-cut, so nothing is lost) and, per cut, every admissible action split by
counts, since all insecure edges share one cost and all secure edges share
another. A cut's price depends only on its (secure, insecure) counts, so
each count class is priced once.

Census order: with ``others = graph.nodes[1:]``, mask ``1 .. 2**len(others)
- 1`` puts ``others[i]`` on ``side_a`` when bit ``i`` is set; the first node
(the reference) is never on ``side_a``. Cuts appear in increasing mask order.
This census is the package's one cut enumeration; sides are tested by ``_reach``.

Tie-breaks. The witness is the first census cut of the cheapest class; of
classes tied in value, the one whose first cut comes earlier wins. Within a
class the counts are the first minimum in (inject, jam-insecure,
jam-secure) order, each cost summed as ``p_inject*ki + p_jam_insecure*kji +
p_jam_secure*kjs``.
"""

from __future__ import annotations

from typing import Optional, Union

from .attack import AttackPlan, AttackType, CostModel, Infeasible, _memoized, _plan
from .errors import TooLarge
from .grid import MeasurementGraph
from .mincut import CutResult, _reach

MAX_ORACLE_NODES = 12

# hidden types that cannot touch a secure edge, so a cut with one is out
_NO_SECURE_JAM = (AttackType.HIDDEN_INJECTION, AttackType.HIDDEN_JAMMING)

Census = tuple[tuple[CutResult, ...], tuple[tuple[tuple[int, int], int], ...]]


def _cut_census(graph: MeasurementGraph) -> Census:
    """Every unit-weight cut whose two sides both induce connected subgraphs.

    Also returns, for each (n_secure, n_insecure) class, the census index of
    its first cut, in order of that index. Taken once per graph object and
    kept in its ``cut_memo``.
    """
    return _memoized(graph, ("census",), lambda: _take_census(graph))


def _take_census(graph: MeasurementGraph) -> Census:
    position = {v: i for i, v in enumerate(graph.nodes)}
    adjacent = [0] * len(graph.nodes)
    ends = []
    for e in sorted(graph.edges, key=lambda e: e.id):
        bu, bv = 1 << position[e.u], 1 << position[e.v]
        adjacent[position[e.u]] |= bv
        adjacent[position[e.v]] |= bu
        ends.append((e.id, bu | bv, e.secure))
    others = graph.nodes[1:]
    full = (1 << len(graph.nodes)) - 1
    cuts: list[CutResult] = []
    firsts: dict[tuple[int, int], int] = {}
    for mask in range(1, 1 << len(others)):
        side = mask << 1
        rest = full ^ side  # holds the first node, bit 0
        if _reach(side & -side, adjacent, side) != side or _reach(1, adjacent, rest) != rest:
            continue
        members = [(i, sec) for i, both, sec in ends if (side & both) not in (0, both)]
        n_sec = sum(1 for _, sec in members if sec)
        key = (n_sec, len(members) - n_sec)
        firsts.setdefault(key, len(cuts))
        cuts.append(CutResult(
            side_a=frozenset(v for i, v in enumerate(others) if mask >> i & 1),
            edges=tuple(i for i, _ in members),
            weight=float(len(members)),
            n_secure=key[0],
            n_insecure=key[1],
        ))
    return tuple(cuts), tuple(firsts.items())


def _best_split(
    attack_type: AttackType, n_sec: int, n_ins: int, cost: CostModel
) -> Optional[tuple[float, tuple[int, int, int]]]:
    """Cheapest admissible (inject, jam-insecure, jam-secure) counts for a cut."""
    p_i, p_s, p_sc = cost.p_inject, cost.p_jam_secure, cost.p_jam_insecure
    if n_ins == 0 or (n_sec and attack_type in _NO_SECURE_JAM):
        return None
    if attack_type is AttackType.HIDDEN_INJECTION:
        return p_i * n_ins, (n_ins, 0, 0)
    best: Optional[tuple[float, tuple[int, int, int]]] = None
    if attack_type.hidden:
        # whole cut touched: secure edges all jammed, insecure split inject/jam
        for ki in range(1, n_ins + 1):
            value = p_i * ki + p_sc * (n_ins - ki) + p_s * n_sec
            if best is None or value < best[0]:
                best = (float(value), (ki, n_ins - ki, n_sec))
        return best
    # detectable: injected edges must strictly outnumber the untouched residue,
    # so kji + kjs >= need; a jam beyond need only adds cost
    jam_ins_max = 0 if attack_type is AttackType.DETECTABLE_INJECTION else n_ins
    jam_sec_max = n_sec if attack_type is AttackType.DETECTABLE_GENERALIZED else 0
    for ki in range(1, n_ins + 1):
        need = max(0, n_sec + n_ins - 2 * ki + 1)
        for kji in range(max(0, need - jam_sec_max), min(jam_ins_max, n_ins - ki, need) + 1):
            value = p_i * ki + p_sc * kji + p_s * (need - kji)
            if best is None or value < best[0]:
                best = (float(value), (ki, kji, need - kji))
    return best


def optimal_cost(
    graph: MeasurementGraph, cost: CostModel, attack_type: AttackType
) -> Union[tuple[float, AttackPlan], Infeasible]:
    """True minimum attack cost and a witness plan, by full enumeration (TooLarge past the cap)."""
    if len(graph.nodes) > MAX_ORACLE_NODES:
        raise TooLarge(f"{len(graph.nodes)} nodes exceeds the oracle cap {MAX_ORACLE_NODES}")
    cuts, classes = _cut_census(graph)
    best: Optional[tuple[float, int, tuple[int, int, int]]] = None
    for (n_sec, n_ins), first in classes:  # in census order, so a tie keeps the earlier
        found = _best_split(attack_type, n_sec, n_ins, cost)
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], first, found[1])
    if best is None:
        return Infeasible(f"no cut admits a {attack_type.value} attack")
    value, first, counts = best
    plan = _plan(attack_type, graph, cuts[first], cost, *counts)
    assert abs(plan.total_cost - value) < 1e-9
    return value, plan
