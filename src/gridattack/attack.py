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
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

from .errors import InvalidCosts
from .grid import REFERENCE_BUS, MeasurementGraph, unchecked
from .mincut import INFINITY, CutResult, CutSolver, cut_from_side


class AttackType(Enum):
    HIDDEN_INJECTION = "hidden-injection"
    DETECTABLE_INJECTION = "detectable-injection"
    HIDDEN_JAMMING = "hidden-jamming"
    DETECTABLE_JAMMING = "detectable-jamming"
    HIDDEN_GENERALIZED = "hidden-generalized"
    DETECTABLE_GENERALIZED = "detectable-generalized"

    # members are singletons: hash by identity in C, not by name in Python
    __hash__ = object.__hash__

    def __init__(self, value: str):
        # an attribute, not a property: the designers, oracle and verdicts read it per call
        self.hidden = value.startswith("hidden-")


class CostInterval(Enum):
    I = "I"
    II = "II"
    III = "III"


class CutConstraint(Enum):
    """Cut-composition constraints for the iterative constrained search."""

    SECURE_MINORITY = "secure-minority"  # case A: secure edges strictly below half
    SECURE_WEAK_MAJORITY = "secure-weak-majority"  # case B: secure at least half, >=1 insecure

    __hash__ = object.__hash__  # as AttackType: it keys the constrained-search memo


@dataclass(frozen=True)
class CostModel:
    """Per-measurement adversary costs; jamming never beats injecting."""

    # the range on which the designers are checked: a design at costs scaled by
    # any power of two that keeps them inside it is the same plan
    COST_RANGE = (1e-6, 1e6)

    p_inject: float
    p_jam_secure: float
    p_jam_insecure: float

    def __post_init__(self):
        lo, hi = self.COST_RANGE
        if not lo <= self.p_jam_insecure <= self.p_jam_secure <= self.p_inject <= hi:
            raise InvalidCosts(
                f"need {lo:g} <= p_jam_insecure <= p_jam_secure <= p_inject <= {hi:g}, got "
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
    """Per-measurement actions on one cut, with the exact total cost.

    ``graph``, the graph object a designer built the plan on (None on a
    hand-built plan), holds ``verify.execute``'s memo; it is not compared.
    """

    attack_type: AttackType
    cut: CutResult
    injected: frozenset[int]
    jammed_insecure: frozenset[int]
    jammed_secure: frozenset[int]
    injection_state_shift: tuple[int, ...]
    total_cost: float
    graph: Optional[MeasurementGraph] = field(default=None, compare=False, repr=False)

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
    half = cost.p_inject / 2.0
    if cost.p_jam_insecure >= half and cost.p_jam_secure >= half:
        return CostInterval.I
    if cost.p_jam_secure + cost.p_jam_insecure >= cost.p_inject:
        return CostInterval.II
    return CostInterval.III


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
    ``k_jam_insecure``; jams the first ``k_jam_secure`` secure cut edges,
    taking the classes the cut recorded when it was built on ``graph``'s
    edges. The three slices are disjoint cut members by construction, so
    the checks are on counts. The state shift is the 0-1 indicator of the
    cut's side without the reference, over buses 1..n, then a 0 for the
    reference.

    The split (cut, slices, shift) is built once per graph object, cut and
    counts, and kept in its ``cut_memo``; plans of one split share it, and
    each call sets only the type, total and graph.
    """
    assert k_inject + k_jam_insecure <= len(cut.insecure) and k_jam_secure <= len(cut.secure)
    jams = k_jam_insecure + k_jam_secure
    if attack_type.hidden:
        assert k_inject + jams == len(cut), "hidden attacks must touch the whole cut"
        assert k_inject, "hidden attacks inject at least one measurement"
    else:
        assert 2 * k_inject > len(cut) - jams, "injected edges must outnumber the surviving residue"
    memo = graph.cut_memo["attack"]
    key = ("split", cut.side_a, cut.weight, k_inject, k_jam_insecure, k_jam_secure)
    split = memo.get(key)
    if split is None:
        ins, side = cut.insecure, cut.side_a
        on, off = (0, 1) if REFERENCE_BUS in side else (1, 0)
        split = memo[key] = {
            "cut": cut,
            "injected": frozenset(ins[:k_inject]),
            "jammed_insecure": frozenset(ins[k_inject : k_inject + k_jam_insecure]),
            "jammed_secure": frozenset(cut.secure[:k_jam_secure]),
            "injection_state_shift": (*[on if v in side else off for v in graph.nodes[1:]], 0),
        }
    total = (
        cost.p_inject * k_inject
        + cost.p_jam_insecure * k_jam_insecure
        + cost.p_jam_secure * k_jam_secure
    )
    return unchecked(AttackPlan, split, attack_type=attack_type, total_cost=total, graph=graph)


def _insecure_pairs(graph: MeasurementGraph) -> list[tuple[int, int]]:
    return sorted({tuple(sorted(e.endpoints)) for e in graph.edges if not e.secure})


def _memoized(graph: MeasurementGraph, key: tuple, search: Callable[..., object]):
    """``search(graph, *key[1:])``, run once per graph object and key.

    A key is a tag and then every argument of the search after the graph, so
    no input can be left out of it. This module's entry of the graph's
    ``cut_memo`` keeps the result under one of these keys: ("solver",), the
    one ``CutSolver`` of all its searches; ("insecure pairs",); ("sweep",
    secure weight, insecure weight); ("constrained", constraint, secure
    weight, insecure weight). ``_plan`` keeps its splits there too, under
    ("split", cut side, cut weight, k_inject, k_jam_insecure, k_jam_secure).
    """
    memo = graph.cut_memo["attack"]
    if key not in memo:
        memo[key] = search(graph, *key[1:])
    return memo[key]


def _sweep(graph: MeasurementGraph, secure_w: float, insecure_w: float) -> Optional[CutResult]:
    """Lightest cut through some insecure edge, by an s-t sweep over them.

    Every cut separating the endpoints of an insecure edge contains that
    edge, and the optimum contains some insecure edge, so the sweep is
    exact. The global minimum cut holds an insecure edge exactly when it
    separates an insecure pair; it is then the answer, from the side of
    the first such pair's s, as that pair's s-t cut would give it. Else
    the side is the first least flow's. One cut is built, from the side.
    Returns None when the graph has no insecure edges.
    """
    pairs = _memoized(graph, ("insecure pairs",), _insecure_pairs)
    if not pairs:
        return None
    weights = [secure_w if e.secure else insecure_w for e in graph.edges]
    solver = _memoized(graph, ("solver",), CutSolver)
    _, side = solver.global_min_cut(weights)
    s = next((s for s, t in pairs if (s in side) != (t in side)), None)
    if s is None:
        # the first pair with the least packed value; every flow reuses the global cut's packing
        side = min((solver.min_st_cut(weights, s, t) for s, t in pairs), key=lambda vc: vc[0])[1]
    elif s not in side:
        side = frozenset(graph.nodes) - side
    return cut_from_side(graph.edges, weights, side)


def _secure_free_min_cut(graph: MeasurementGraph) -> Optional[CutResult]:
    """Minimum-cardinality cut with no secure edges, or None."""
    cut = _memoized(graph, ("sweep", INFINITY, 1.0), _sweep)
    if cut is None or math.isinf(cut.weight):
        return None
    return cut


def constrained_min_cut(
    graph: MeasurementGraph, constraint: CutConstraint, secure_w: float, insecure_w: float
) -> Union[CutResult, NoSolutionFound]:
    """Iterative minimum-weight cut subject to a composition constraint.

    Weighs secure edges at ``secure_w`` and insecure ones at ``insecure_w``,
    and while the global minimum cut fails the constraint, boosts its
    largest-id violating edge to +inf in its working weights and cuts again:
    a secure edge under the minority constraint or when the cut has no
    insecure edge, else an insecure one. Each round builds one cut, at the
    class weights, and returns it when it is satisfied. Else it stops on a cut
    crossing a boosted edge, one whose class weight is +inf (a +inf class or
    an overflowing sum) or an empty one (a disconnected graph), naming which;
    each boost hits a new edge. It runs on the graph's one solver, in ``cut_memo``.
    """
    weights = [secure_w if e.secure else insecure_w for e in graph.edges]
    slot = {e.id: k for k, e in enumerate(graph.edges)}  # edge id -> its weight's index
    solver = _memoized(graph, ("solver",), CutSolver)
    working = list(weights)
    boosted: set[int] = set()
    while True:
        cut = cut_from_side(graph.edges, weights, solver.global_min_cut(working)[1])
        n_ins = cut.n_insecure
        if constraint is CutConstraint.SECURE_MINORITY:
            satisfied = 2 * cut.n_secure < len(cut.edges)
        else:
            satisfied = n_ins >= 1 and 2 * n_ins <= len(cut.edges)
        if satisfied:
            return cut
        if not boosted.isdisjoint(cut.edges):
            return NoSolutionFound("the working cut is infinite: every cut crosses a boosted edge")
        if math.isinf(cut.weight):
            return NoSolutionFound(
                "the cut's class weight is infinite: a class weight is +inf or the sum overflows")
        if not cut.edges:
            return NoSolutionFound("the global cut is empty: the graph is disconnected")
        boost_secure = constraint is CutConstraint.SECURE_MINORITY or n_ins == 0
        target = (cut.secure if boost_secure else cut.insecure)[-1]
        boosted.add(target)
        working[slot[target]] = INFINITY


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
    cut = _memoized(graph, ("sweep", cost.p_jam_secure, cost.p_jam_insecure), _sweep)
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
    found = _memoized(graph, ("constrained", constraint, secure_w, insecure_w), constrained_min_cut)
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
