"""Constructors for minimum-cost data attacks on the measurement graph.

Every attack is built on a graph cut. Hidden attacks touch the whole cut
(one injected measurement, the rest jammed or, without jamming, all
injected) so the estimator's residual is unchanged. Detectable attacks
leave part of the cut untouched and rely on the bad-data remover discarding
that untouched residue: the injected measurements must form a strict
majority of the surviving cut edges.

Designers return an AttackPlan, or Infeasible when no structure can exist
(for generalized attacks only an all-secure system), or NoSolutionFound
when the iterative constrained-cut search exhausts without a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional, Union

from .errors import InvalidCosts
from .grid import REFERENCE_BUS, MeasurementGraph
from .mincut import INFINITY, CutResult, CutSolver, WeightedGraph, cut_from_side


class AttackType(Enum):
    HIDDEN_INJECTION = "hidden-injection"
    DETECTABLE_INJECTION = "detectable-injection"
    HIDDEN_JAMMING = "hidden-jamming"
    DETECTABLE_JAMMING = "detectable-jamming"
    HIDDEN_GENERALIZED = "hidden-generalized"
    DETECTABLE_GENERALIZED = "detectable-generalized"

    @property
    def hidden(self) -> bool:
        return self in (
            AttackType.HIDDEN_INJECTION,
            AttackType.HIDDEN_JAMMING,
            AttackType.HIDDEN_GENERALIZED,
        )


class CostInterval(Enum):
    I = "I"
    II = "II"
    III = "III"


class CutConstraint(Enum):
    """Cut-composition constraints for the iterative constrained search."""

    SECURE_MINORITY = "secure-minority"  # case A: secure edges strictly below half
    SECURE_WEAK_MAJORITY = "secure-weak-majority"  # case B: secure at least half, >=1 insecure


@dataclass(frozen=True)
class CostModel:
    """Per-measurement adversary costs; jamming never beats injecting."""

    p_inject: float
    p_jam_secure: float
    p_jam_insecure: float

    def __post_init__(self):
        ok = 0 < self.p_jam_insecure <= self.p_jam_secure <= self.p_inject < INFINITY
        if not ok:
            raise InvalidCosts(
                f"need 0 < p_jam_insecure <= p_jam_secure <= p_inject < inf, got "
                f"({self.p_inject}, {self.p_jam_secure}, {self.p_jam_insecure})"
            )


@dataclass(frozen=True)
class Infeasible:
    """No attack of the requested type exists, proven structurally."""

    reason: str = ""


@dataclass(frozen=True)
class NoSolutionFound:
    """The heuristic search gave up; not a proof of infeasibility."""

    reason: str = ""


@dataclass(frozen=True)
class AttackPlan:
    """Per-measurement actions on one cut, with the exact total cost."""

    attack_type: AttackType
    cut: CutResult
    injected: frozenset[int]
    jammed_insecure: frozenset[int]
    jammed_secure: frozenset[int]
    injection_state_shift: tuple[int, ...]
    total_cost: float

    @property
    def touched(self) -> frozenset[int]:
        return self.injected | self.jammed_insecure | self.jammed_secure

    @property
    def untouched(self) -> frozenset[int]:
        return frozenset(self.cut.edges) - self.touched

    @property
    def jammed(self) -> frozenset[int]:
        return self.jammed_insecure | self.jammed_secure


DesignResult = Union[AttackPlan, Infeasible, NoSolutionFound]


def classify_interval(cost: CostModel) -> CostInterval:
    """Which of the three relative-cost regimes the triple falls in.

    Boundaries go by the closed comparisons: interval I requires both
    jamming costs at or above half the injection cost, interval II keeps
    cheap insecure jamming but the two jamming costs together still reach
    the injection cost, interval III is everything cheaper.
    """
    if not 0 < cost.p_jam_insecure <= cost.p_jam_secure <= cost.p_inject:
        raise InvalidCosts("cost triple violates the permissible ordering")
    half = cost.p_inject / 2.0
    if cost.p_jam_insecure >= half and cost.p_jam_secure >= half:
        return CostInterval.I
    if cost.p_jam_secure + cost.p_jam_insecure >= cost.p_inject:
        return CostInterval.II
    return CostInterval.III


def _state_shift(graph: MeasurementGraph, cut: CutResult) -> tuple[int, ...]:
    """0-1 indicator of the reference-free cut side, reference entry last and 0."""
    side = cut.side_a
    if REFERENCE_BUS in side:
        side = frozenset(graph.nodes) - side
    vec = [0] * len(graph.nodes)
    for node in side:
        vec[graph.state_index(node)] = 1
    return tuple(vec)


def _plan(
    attack_type: AttackType,
    graph: MeasurementGraph,
    cut: CutResult,
    cost: CostModel,
    k_inject: int,
    k_jam_insecure: int = 0,
    k_jam_secure: int = 0,
) -> AttackPlan:
    """Split a cut into actions by counts, taking edge ids in increasing order.

    Injects the first ``k_inject`` insecure cut edges and jams the next
    ``k_jam_insecure``; jams the first ``k_jam_secure`` secure cut edges.
    """
    by_id = graph.edges_by_id
    ids = sorted(cut.edges)
    ins = [i for i in ids if not by_id[i].secure]
    sec = [i for i in ids if by_id[i].secure]
    assert k_inject + k_jam_insecure <= len(ins) and k_jam_secure <= len(sec)
    inj = frozenset(ins[:k_inject])
    jam_i = frozenset(ins[k_inject : k_inject + k_jam_insecure])
    jam_s = frozenset(sec[:k_jam_secure])
    members = frozenset(ids)
    assert inj <= members and jam_i <= members and jam_s <= members
    assert not (inj & (jam_i | jam_s)) and not (jam_i & jam_s)
    assert not any(by_id[i].secure for i in inj | jam_i) and all(by_id[i].secure for i in jam_s)
    if attack_type.hidden:
        assert inj | jam_i | jam_s == members, "hidden attacks must touch the whole cut"
        assert inj, "hidden attacks inject at least one measurement"
    else:
        survivors = len(members) - len(jam_i) - len(jam_s)
        assert 2 * len(inj) > survivors, "injected edges must outnumber the surviving residue"
    total = (
        cost.p_inject * len(inj)
        + cost.p_jam_insecure * len(jam_i)
        + cost.p_jam_secure * len(jam_s)
    )
    return AttackPlan(
        attack_type=attack_type,
        cut=cut,
        injected=inj,
        jammed_insecure=jam_i,
        jammed_secure=jam_s,
        injection_state_shift=_state_shift(graph, cut),
        total_cost=total,
    )


def _insecure_pairs(graph: MeasurementGraph) -> list[tuple[int, int]]:
    return sorted({tuple(sorted((e.u, e.v))) for e in graph.edges if not e.secure})


def _memoized(graph: MeasurementGraph, key: tuple, search: Callable[[], object]):
    """The result of ``search()``, run once per graph object and key."""
    memo = graph.cut_memo
    if key not in memo:
        memo[key] = search()
    return memo[key]


def _sweep_min_cut(graph: MeasurementGraph, secure_w: float, insecure_w: float) -> Optional[CutResult]:
    """Lightest cut through some insecure edge, by an s-t sweep over them.

    Every cut separating the endpoints of an insecure edge contains that
    edge, and the optimum contains some insecure edge, so the sweep is
    exact. When the global minimum cut already holds an insecure edge it
    is the sweep's answer, reported from the side of the first insecure
    pair it separates, as that pair's s-t cut would be. Returns None when
    the graph has no insecure edges. Memoized on the graph object.
    """
    return _memoized(
        graph, ("sweep", None, secure_w, insecure_w),
        lambda: _sweep(graph, secure_w, insecure_w),
    )


def _sweep(graph: MeasurementGraph, secure_w: float, insecure_w: float) -> Optional[CutResult]:
    pairs = _insecure_pairs(graph)
    if not pairs:
        return None
    solver = CutSolver(WeightedGraph.from_measurement_graph(graph, secure_w, insecure_w))
    _, cut = solver.global_min_cut()
    if cut.n_insecure:
        s = next(s for s, t in pairs if (s in cut.side_a) != (t in cut.side_a))
        if s not in cut.side_a:
            cut = replace(cut, side_a=frozenset(graph.nodes) - cut.side_a)
        return cut
    best: Optional[tuple[int, CutResult]] = None
    for s, t in pairs:
        candidate = solver.min_st_cut(s, t)
        if best is None or candidate[0] < best[0]:
            best = candidate
    assert best is not None
    return best[1]


def _secure_free_min_cut(graph: MeasurementGraph) -> Optional[CutResult]:
    """Minimum-cardinality cut with no secure edges, or None."""
    cut = _sweep_min_cut(graph, secure_w=INFINITY, insecure_w=1.0)
    if cut is None or math.isinf(cut.weight):
        return None
    return cut


def constrained_min_cut(
    weighted: WeightedGraph, constraint: CutConstraint, gamma: float = INFINITY
) -> Union[CutResult, NoSolutionFound]:
    """Iterative minimum-weight cut subject to a composition constraint.

    Recomputes the global minimum cut, and while the constraint fails,
    boosts one violating cut edge to +inf in place: the lightest, largest
    id on ties; a secure edge under the minority constraint or when the cut
    has no insecure edge, else an insecure one. The returned cut reports
    its weight under the original weights.

    It ends: a boost happens only while the cut is finite, so it hits an
    edge not yet boosted; once all are, every nonempty cut is infinite and
    the ``gamma`` stop fires. An empty cut (a disconnected graph) gives up.
    """
    by_id = {e.id: e for e in weighted.edges}
    solver = CutSolver(weighted)
    while True:
        _, cut = solver.global_min_cut()
        n_ins = cut.n_insecure
        if constraint is CutConstraint.SECURE_MINORITY:
            satisfied = 2 * cut.n_secure < len(cut.edges)
        else:
            satisfied = n_ins >= 1 and 2 * n_ins <= len(cut.edges)
        if satisfied:
            return cut_from_side(weighted.edges, cut.side_a)
        if cut.weight >= gamma:
            return NoSolutionFound(f"working cut weight {cut.weight} reached gamma {gamma}")
        if not cut.edges:
            return NoSolutionFound("the global cut is empty: the graph is disconnected")
        boost_secure = constraint is CutConstraint.SECURE_MINORITY or n_ins == 0
        candidates = [i for i in cut.edges if by_id[i].secure == boost_secure]
        solver.set_weight(min(candidates, key=lambda i: (by_id[i].weight, -i)), INFINITY)


def hidden_injection(graph: MeasurementGraph, cost: CostModel) -> DesignResult:
    """Inject along a minimum-cardinality cut that avoids every secure edge."""
    cut = _secure_free_min_cut(graph)
    if cut is None:
        return Infeasible("every cut contains a secure measurement")
    return _plan(AttackType.HIDDEN_INJECTION, graph, cut, cost, len(cut))


def hidden_jamming(graph: MeasurementGraph, cost: CostModel) -> DesignResult:
    """Same secure-free cut, but jam all of it except one injected edge."""
    cut = _secure_free_min_cut(graph)
    if cut is None:
        return Infeasible("every cut contains a secure measurement")
    return _plan(AttackType.HIDDEN_JAMMING, graph, cut, cost, 1, len(cut) - 1)


def hidden_generalized(graph: MeasurementGraph, cost: CostModel) -> DesignResult:
    """Lightest cut under jamming-cost weights; inject one edge, jam the rest.

    Secure edges weigh their jamming cost, insecure ones theirs; the
    injected edge upgrades one insecure jam to an injection, so the total
    is the cut weight plus the inject/jam-insecure cost difference. Exact
    for every permissible cost triple.
    """
    return _single_injection_plan(AttackType.HIDDEN_GENERALIZED, graph, cost)


def _single_injection_plan(
    attack_type: AttackType, graph: MeasurementGraph, cost: CostModel
) -> Union[AttackPlan, Infeasible]:
    """Inject one insecure edge of the lightest jamming-cost cut and jam the rest."""
    cut = _sweep_min_cut(graph, cost.p_jam_secure, cost.p_jam_insecure)
    if cut is None:
        return Infeasible("no insecure measurement to inject into")
    return _plan(attack_type, graph, cut, cost, 1, cut.n_insecure - 1, cut.n_secure)


def _constrained_plan(
    attack_type: AttackType,
    graph: MeasurementGraph,
    cost: CostModel,
    constraint: CutConstraint,
    secure_w: float,
    insecure_w: float,
    counts: Callable[[CutResult], tuple[int, ...]],
) -> Union[AttackPlan, NoSolutionFound]:
    """Constrained cut under the given class weights, split by ``counts(cut)``.

    The search is memoized on the graph object, so designers that share a
    constraint and weights on one graph run it once.
    """
    found = _memoized(
        graph, ("constrained", constraint, secure_w, insecure_w),
        lambda: constrained_min_cut(
            WeightedGraph.from_measurement_graph(graph, secure_w, insecure_w), constraint
        ),
    )
    if isinstance(found, NoSolutionFound):
        return found
    return _plan(attack_type, graph, found, cost, *counts(found))


def _case_a(
    attack_type: AttackType, graph: MeasurementGraph, cost: CostModel
) -> Union[AttackPlan, NoSolutionFound]:
    """Secure-minority cut, leaving the secure edges as the removal residue.

    From half the injection cost upward, the minimum-cardinality cut: inject
    half, jam one insecure edge if the size is even. Below half, jamming
    substitutes for injections and the cut is weighted accordingly: inject
    one more insecure edge than there are secure ones, jam the others.
    """
    if cost.p_jam_insecure >= cost.p_inject / 2.0:
        return _constrained_plan(
            attack_type, graph, cost, CutConstraint.SECURE_MINORITY, 1.0, 1.0,
            lambda cut: ((len(cut) + 1) // 2, 1 - len(cut) % 2),
        )
    return _constrained_plan(
        attack_type, graph, cost, CutConstraint.SECURE_MINORITY,
        cost.p_inject - cost.p_jam_insecure, cost.p_jam_insecure,
        lambda cut: (cut.n_secure + 1, cut.n_insecure - cut.n_secure - 1),
    )


def _case_b(graph: MeasurementGraph, cost: CostModel) -> Union[AttackPlan, NoSolutionFound]:
    """Secure-weak-majority cut: jam just enough secure edges for feasibility.

    Injects every insecure cut edge and jams secure edges until the
    injected ones form a strict majority of what survives.
    """
    return _constrained_plan(
        AttackType.DETECTABLE_GENERALIZED, graph, cost, CutConstraint.SECURE_WEAK_MAJORITY,
        cost.p_jam_secure, cost.p_inject - cost.p_jam_secure,
        lambda cut: (cut.n_insecure, 0, cut.n_secure + 1 - cut.n_insecure),
    )


def detectable_injection(graph: MeasurementGraph, cost: CostModel) -> DesignResult:
    """Inject a strict majority of a minimum secure-minority cut; jam nothing."""
    if not graph.insecure_ids:
        return Infeasible("no insecure measurement to inject into")
    return _constrained_plan(
        AttackType.DETECTABLE_INJECTION, graph, cost, CutConstraint.SECURE_MINORITY, 1.0, 1.0,
        lambda cut: (1 + len(cut) // 2,),
    )


def detectable_jamming(graph: MeasurementGraph, cost: CostModel) -> DesignResult:
    """Injection plus jamming of insecure measurements only.

    Below half the injection cost, jamming substitutes for injections and
    the cut is weighted accordingly; from half upward the best cut is the
    minimum-cardinality one with at most one jammed edge to make the
    surviving count odd.
    """
    if not graph.insecure_ids:
        return Infeasible("no insecure measurement to inject into")
    return _case_a(AttackType.DETECTABLE_JAMMING, graph, cost)


def detectable_generalized(graph: MeasurementGraph, cost: CostModel) -> DesignResult:
    """Best detectable attack using all three tools, dispatched by interval.

    Interval I compares the minimum-cardinality secure-minority plan with
    the jam-the-secure-surplus plan; interval II does the same with the
    cheap-jamming weighting; interval III collapses to the hidden
    generalized structure with a single injection. The jam-the-surplus
    plan needs a secure cut edge, so it is skipped on a graph without one.

    It is also skipped when the secure-minority plan is already cheaper
    than ``p_inject + p_jam_secure``, the floor of every jam-the-surplus
    plan: that plan injects at least one insecure edge and jams at least
    one secure edge. Near the floor it still runs, and a tie keeps the
    secure-minority plan.
    """
    if not graph.insecure_ids:
        return Infeasible("no insecure measurement to inject into")
    if classify_interval(cost) is CostInterval.III:
        return _single_injection_plan(AttackType.DETECTABLE_GENERALIZED, graph, cost)
    # interval I is exactly p_jam_insecure >= p_inject / 2, case A's unit weighting
    plan_a = _case_a(AttackType.DETECTABLE_GENERALIZED, graph, cost)
    # the relative 1e-9 slack keeps rounding from skipping a case B that could win
    floor = (cost.p_inject + cost.p_jam_secure) * (1.0 - 1e-9)
    if isinstance(plan_a, AttackPlan) and plan_a.total_cost < floor:
        return plan_a
    if graph.secure_ids:
        plan_b = _case_b(graph, cost)
    else:
        plan_b = NoSolutionFound(
            "skipped: no secure measurement, and a secure weak majority needs one"
        )
    plans = [p for p in (plan_a, plan_b) if isinstance(p, AttackPlan)]
    if not plans:
        return NoSolutionFound(f"case A: {plan_a.reason}; case B: {plan_b.reason}")
    return min(plans, key=lambda p: p.total_cost)


DESIGNERS = {
    AttackType.HIDDEN_INJECTION: hidden_injection,
    AttackType.DETECTABLE_INJECTION: detectable_injection,
    AttackType.HIDDEN_JAMMING: hidden_jamming,
    AttackType.DETECTABLE_JAMMING: detectable_jamming,
    AttackType.HIDDEN_GENERALIZED: hidden_generalized,
    AttackType.DETECTABLE_GENERALIZED: detectable_generalized,
}


def design(attack_type: AttackType, graph: MeasurementGraph, cost: CostModel) -> DesignResult:
    """Run the designer registered for the given attack type."""
    return DESIGNERS[attack_type](graph, cost)
