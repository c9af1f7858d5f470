"""Brute-force ground truth for minimum attack costs on small graphs.

Enumerates every bipartition whose two sides are internally connected (any
attack on a cut with a disconnected side splits into a cheaper attack on a
sub-cut, so nothing is lost) and, per cut, every admissible action split by
counts, since all insecure edges share one cost and all secure edges share
another. A cut's price depends only on its (secure, insecure) counts, so
each count class is priced once.

Census order: a side is a bitmask over the graph's nodes 0..n, bit ``v``
for node ``v``; node 0 (the reference) is never on ``side_a``, and cuts
appear in increasing mask order. This census is the package's one cut
enumeration. It tests the connectivity of every node set at once on
bitsets, and counts a cut's class by popcount: the XOR of its nodes'
incident-edge masks holds exactly its edges. A ``CutResult`` is built, at
unit weights, only for a witness.

The price table of an attack type lists the admissible (inject,
jam-insecure, jam-secure) counts of every class, classes in census order and
counts in (inject, jam-insecure) order. A candidate is dropped when an
earlier kept one is no larger in every count. That is exact: costs are
positive, and a rounded product or sum never falls as an operand grows, so
the dropped candidate is never strictly cheaper, and a tie keeps the earlier
one anyway. Two shortcuts drop only what that rule drops: a detectable
class stops at the first inject count that needs no jam, and a class with
at least as many secure and insecure edges as an earlier class with an
insecure majority is skipped. The census, the tables and each witness's
cut depend only on the graph's structure, so this module's entry in the
graph's ``cut_memo`` keeps them: "census"; each attack type's table, under
the type; and each witness's cut, under its census side. A call only
prices its table, and ``attack._plan`` splits the witness, as it splits
every designed plan.

Tie-breaks. A call prices each candidate as ``p_inject*ki +
p_jam_insecure*kji + p_jam_secure*kjs`` and takes the first minimum. So of
classes tied in value, the one whose first cut comes earlier wins, and
within a class the counts are the first minimum in (inject, jam-insecure,
jam-secure) order. The witness is the first census cut of the winning
class.
"""

from __future__ import annotations

from typing import Iterator, Union

from .attack import AttackPlan, AttackType, CostModel, Infeasible, _plan
from .errors import TooLarge
from .grid import MeasurementGraph, cut_edges
from .mincut import CutResult

MAX_ORACLE_NODES = 12

# hidden types that cannot touch a secure edge, so a cut with one is out
_NO_SECURE_JAM = (AttackType.HIDDEN_INJECTION, AttackType.HIDDEN_JAMMING)

# every connected cut's side as a node bitmask, in census order, and each
# (n_secure, n_insecure) class with the census index of its first cut
Census = tuple[tuple[int, ...], tuple[tuple[tuple[int, int], int], ...]]


def _take_census(graph: MeasurementGraph) -> Census:
    """Every cut whose two sides both induce connected subgraphs, by its side."""
    n = len(graph.nodes)
    neighbours: list[set[int]] = [set() for _ in range(n)]
    incident = [0] * n  # node -> its edges, bit k for graph.edges[k]
    secure = 0
    for k, e in enumerate(graph.edges):
        a, b = e.endpoints
        neighbours[a].add(b)
        neighbours[b].add(a)
        incident[a] ^= 1 << k
        incident[b] ^= 1 << k
        secure |= e.secure << k
    connected = _connected_sets(neighbours)
    size = 1 << n
    # bit s of the reversal is bit (size - 1) ^ s: whether the rest of s is connected
    rest_connected = int(f"{connected:0{size}b}"[::-1], 2)
    # a side is nonempty and lacks the first node: the even bits of (2**size - 1) // 3, less bit 0
    bonds = connected & rest_connected & ((1 << size) - 1) // 3 >> 1 << 1
    crossing = [0]  # the cut edges of every set of others
    for mask in incident[1:]:
        crossing += [seen ^ mask for seen in crossing]
    sides: list[int] = []
    firsts: dict[tuple[int, int], int] = {}
    while bonds:
        low = bonds & -bonds
        bonds ^= low
        side = low.bit_length() - 1
        edges = crossing[side >> 1]
        n_sec = (edges & secure).bit_count()
        firsts.setdefault((n_sec, edges.bit_count() - n_sec), len(sides))
        sides.append(side)
    return tuple(sides), tuple(firsts.items())


def _connected_sets(neighbours: list[set[int]]) -> int:
    """Bit s is set when node set s induces a connected subgraph (the empty set included).

    Every node set is searched at once: ``reached[v]`` holds, as bit s, whether
    s holds v and v is joined inside s to the lowest node of s. It starts at
    the sets whose lowest node is v and grows by the neighbours' bits until
    nothing changes.
    """
    n = len(neighbours)
    every = (1 << (1 << n)) - 1
    # bit s of member[v] says whether s holds v: runs of 2**v clear and set bits
    member = [every // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v)) for v in range(n)]
    reached, below = [], 0
    for held in member:
        reached.append(held & ~below)
        below |= held
    while True:
        before = reached[:]
        for v, near in enumerate(neighbours):
            grown = reached[v]
            for u in near:
                grown |= reached[u]
            reached[v] = grown & member[v]
        if reached == before:
            break
    connected = every
    for held, got in zip(member, reached):
        connected &= got | (every ^ held)
    return connected


def _census_cut(graph: MeasurementGraph, side: int) -> CutResult:
    """The unit-weight cut of a census side: the nodes whose bits it sets."""
    return cut_edges(graph, (v for v in graph.nodes if side >> v & 1))


def _splits(attack_type: AttackType, n_sec: int, n_ins: int) -> Iterator[tuple[int, int, int]]:
    """The admissible (inject, jam-insecure, jam-secure) counts of a cut class, in
    (inject, jam-insecure) order, less those an earlier one of the class dominates."""
    if n_ins == 0 or (n_sec and attack_type in _NO_SECURE_JAM):
        return
    if attack_type is AttackType.HIDDEN_INJECTION:
        yield n_ins, 0, 0
    elif attack_type.hidden:
        # whole cut touched: secure edges all jammed, insecure split inject/jam
        for ki in range(1, n_ins + 1):
            yield ki, n_ins - ki, n_sec
    else:
        # detectable: injected edges must strictly outnumber the untouched
        # residue, so kji + kjs >= need; a jam beyond need only adds cost, and
        # past the first ki with need 0, (ki, 0, 0) only grows
        jam_ins_max = 0 if attack_type is AttackType.DETECTABLE_INJECTION else n_ins
        jam_sec_max = n_sec if attack_type is AttackType.DETECTABLE_GENERALIZED else 0
        for ki in range(1, min(n_ins, (n_sec + n_ins + 2) // 2) + 1):
            need = max(0, n_sec + n_ins - 2 * ki + 1)
            for kji in range(max(0, need - jam_sec_max), min(jam_ins_max, n_ins - ki, need) + 1):
                yield ki, kji, need - kji


def _take_table(census: Census, attack_type: AttackType) -> list[tuple[int, int, int, int]]:
    """The type's undominated candidates as (ki, kji, kjs, census side)."""
    sides, classes = census
    kept: list[tuple[int, int, int, int]] = []
    majorities: list[tuple[int, int]] = []  # earlier classes with an insecure majority
    for (n_sec, n_ins), first in classes:
        for s, n in majorities:
            if s <= n_sec and n <= n_ins:
                break  # each candidate of this class is dominated by one of that class
        else:
            if n_sec < n_ins:
                majorities.append((n_sec, n_ins))
            for a, b, c in _splits(attack_type, n_sec, n_ins):
                for x, y, z, _ in kept:
                    if x <= a and y <= b and z <= c:
                        break
                else:
                    kept.append((a, b, c, sides[first]))
    return kept


def optimal_cost(
    graph: MeasurementGraph, cost: CostModel, attack_type: AttackType
) -> Union[tuple[float, AttackPlan], Infeasible]:
    """True minimum attack cost and a witness plan, by full enumeration (TooLarge past the cap)."""
    if len(graph.nodes) > MAX_ORACLE_NODES:
        raise TooLarge(f"{len(graph.nodes)} nodes exceeds the oracle cap {MAX_ORACLE_NODES}")
    memo = graph.cut_memo["oracle"]
    table = memo.get(attack_type)
    if table is None:
        if "census" not in memo:
            memo["census"] = _take_census(graph)
        table = memo[attack_type] = _take_table(memo["census"], attack_type)
    if not table:
        return Infeasible(f"no cut admits a {attack_type.value} attack")
    p_i, p_s, p_sc = cost.p_inject, cost.p_jam_secure, cost.p_jam_insecure
    values = [p_i * a + p_sc * b + p_s * c for a, b, c, _ in table]
    best = values.index(min(values))
    a, b, c, side = table[best]
    cut = memo.get(side)
    if cut is None:
        cut = memo[side] = _census_cut(graph, side)
    plan = _plan(attack_type, graph, cut, cost, a, b, c)
    # hidden injection reports the bare product, the other types a float
    return (p_i * a if attack_type is AttackType.HIDDEN_INJECTION else float(values[best])), plan
