"""Attack designers: frozen worked examples plus structural invariants."""

import dataclasses
import math
import random

import pytest

import gridattack as ga
from gridattack import attack as attack_module
from gridattack.attack import AttackType
from conftest import all_cuts, triangle_graph, random_cost, random_system

BASE_COST = ga.CostModel(1.0, 0.5, 0.25)


def parallel_flow_graph(n_flows: int) -> ga.MeasurementGraph:
    """n insecure parallel flows between buses 1 and 2, one secure angle on 1."""
    measurements = tuple(
        ga.Measurement(k, ga.MeasurementKind.LINE_FLOW, 1, 2) for k in range(n_flows)
    ) + (ga.Measurement(n_flows, ga.MeasurementKind.PHASE_ANGLE, 1, secure=True),)
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1), ga.Bus(2)),
        lines=((1, 2, 1.0),),
        measurements=measurements,
    )
    return ga.build_graph(sys_)


def secure_majority_graph() -> ga.MeasurementGraph:
    """Every cut has a weak majority of secure edges; one insecure flow exists."""
    measurements = (
        ga.Measurement(0, ga.MeasurementKind.LINE_FLOW, 1, 2),  # the only insecure one
        ga.Measurement(1, ga.MeasurementKind.PHASE_ANGLE, 1, secure=True),
        ga.Measurement(2, ga.MeasurementKind.PHASE_ANGLE, 1, secure=True),
        ga.Measurement(3, ga.MeasurementKind.PHASE_ANGLE, 2, secure=True),
        ga.Measurement(4, ga.MeasurementKind.PHASE_ANGLE, 2, secure=True),
        ga.Measurement(5, ga.MeasurementKind.PHASE_ANGLE, 3, secure=True),
    )
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1), ga.Bus(2), ga.Bus(3)),
        lines=((1, 2, 1.0),),
        measurements=measurements,
    )
    return ga.build_graph(sys_)


# -- cost model and intervals -------------------------------------------------

def test_cost_model_validation():
    with pytest.raises(ga.InvalidCosts):
        ga.CostModel(1.0, 0.2, 0.5)  # secure jam cheaper than insecure jam
    with pytest.raises(ga.InvalidCosts):
        ga.CostModel(0.5, 0.8, 0.2)  # jam secure above inject
    with pytest.raises(ga.InvalidCosts):
        ga.CostModel(1.0, 0.5, 0.0)  # costs must be positive


@pytest.mark.parametrize("triple", [
    (math.inf, 1.0, 1.0),
    (math.inf, math.inf, math.inf),
    (math.nan, 0.5, 0.25),
    (1.0, math.nan, 0.25),
    (1.0, 0.5, math.nan),
])
def test_cost_model_rejects_non_finite(triple):
    with pytest.raises(ga.InvalidCosts):
        ga.CostModel(*triple)


def test_classify_interval_reported_cost_points():
    assert ga.classify_interval(ga.CostModel(1, 0.8, 0.6)) is ga.CostInterval.I
    assert ga.classify_interval(ga.CostModel(1, 0.8, 0.25)) is ga.CostInterval.II
    assert ga.classify_interval(ga.CostModel(1, 0.5, 0.25)) is ga.CostInterval.III


def test_classify_interval_boundaries():
    # boundary cases resolve by the closed comparisons
    assert ga.classify_interval(ga.CostModel(1, 0.5, 0.5)) is ga.CostInterval.I
    assert ga.classify_interval(ga.CostModel(1, 0.8, 0.2)) is ga.CostInterval.II  # sum == 1
    assert ga.classify_interval(ga.CostModel(1, 0.7, 0.2)) is ga.CostInterval.III


def test_interval_partition_on_random_triples():
    rng = random.Random(21)
    seen = set()
    for _ in range(300):
        cost = random_cost(rng)
        seen.add(ga.classify_interval(cost))
    assert seen == {ga.CostInterval.I, ga.CostInterval.II, ga.CostInterval.III}


# -- hidden and detectable injection ------------------------------------------

def test_hidden_injection_triangle():
    plan = ga.hidden_injection(triangle_graph(), BASE_COST)
    assert plan.cut.edges == (0, 2)
    assert plan.injected == frozenset({0, 2})
    assert not plan.jammed
    assert plan.total_cost == pytest.approx(2 * BASE_COST.p_inject)


def test_hidden_injection_all_secure_infeasible():
    g = triangle_graph(secure=(True, True, True))
    assert isinstance(ga.hidden_injection(g, BASE_COST), ga.Infeasible)


def test_hidden_injection_no_secure_equals_global_min_cut():
    rng = random.Random(22)
    for _ in range(10):
        sys_ = random_system(rng, secure_prob=0.0)
        g = ga.build_graph(sys_)
        plan = ga.hidden_injection(g, BASE_COST)
        unit = ga.WeightedGraph.from_measurement_graph(g, 1.0, 1.0)
        assert len(plan.cut.edges) == len(ga.global_min_cut(unit).edges)


def test_detectable_injection_triangle():
    plan = ga.detectable_injection(triangle_graph(), BASE_COST)
    assert plan.cut.edges == (0, 2)
    assert plan.injected == frozenset({0, 2})  # floor(1 + 2/2) = 2 edges
    assert plan.total_cost == pytest.approx(2.0)


def test_detectable_injection_single_insecure_bridge():
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1)),
        lines=(),
        measurements=(ga.Measurement(0, ga.MeasurementKind.PHASE_ANGLE, 1),),
    )
    plan = ga.detectable_injection(ga.build_graph(sys_), BASE_COST)
    assert plan.injected == frozenset({0})
    assert plan.total_cost == pytest.approx(BASE_COST.p_inject)


def test_detectable_injection_secure_majority_graph():
    g = secure_majority_graph()
    outcome = ga.detectable_injection(g, BASE_COST)
    assert not isinstance(outcome, ga.AttackPlan)
    # the exhaustive oracle proves there is no feasible cut at all
    oracle = ga.optimal_cost(g, BASE_COST, AttackType.DETECTABLE_INJECTION)
    assert isinstance(oracle, ga.Infeasible)


# -- jamming attacks -----------------------------------------------------------

def test_hidden_jamming_triangle():
    plan = ga.hidden_jamming(triangle_graph(), BASE_COST)
    assert plan.cut.edges == (0, 2)
    assert len(plan.injected) == 1 and len(plan.jammed_insecure) == 1
    assert plan.total_cost == pytest.approx(1.25)


def test_hidden_jamming_singleton_cut_degenerates_to_injection():
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1)),
        lines=(),
        measurements=(ga.Measurement(0, ga.MeasurementKind.PHASE_ANGLE, 1),),
    )
    plan = ga.hidden_jamming(ga.build_graph(sys_), BASE_COST)
    assert plan.total_cost == pytest.approx(BASE_COST.p_inject)
    assert not plan.jammed


def test_hidden_jamming_equal_costs_matches_hidden_injection():
    cost = ga.CostModel(1.0, 1.0, 1.0)
    g = triangle_graph()
    assert ga.hidden_jamming(g, cost).total_cost == pytest.approx(
        ga.hidden_injection(g, cost).total_cost
    )


def test_detectable_jamming_three_insecure_cheap_jam():
    # 3-insecure cut, costs (1, .8, .25): jam 2, inject 1, total 1.5
    plan = ga.detectable_jamming(parallel_flow_graph(3), ga.CostModel(1, 0.8, 0.25))
    assert plan.cut.n_insecure == 3 and plan.cut.n_secure == 0
    assert len(plan.injected) == 1 and len(plan.jammed_insecure) == 2
    assert plan.total_cost == pytest.approx(1.5)


def test_detectable_jamming_three_insecure_dear_jam():
    # 3-insecure cut, costs (1, .8, .6): jam 1 - 3 mod 2 = 0, inject 2, total 2
    plan = ga.detectable_jamming(parallel_flow_graph(3), ga.CostModel(1, 0.8, 0.6))
    assert len(plan.injected) == 2 and not plan.jammed
    assert plan.total_cost == pytest.approx(2.0)


def test_detectable_jamming_two_insecure_dear_jam():
    # 2-insecure cut, costs (1, .8, .6): jam 1, inject 1, total 1.6
    plan = ga.detectable_jamming(parallel_flow_graph(2), ga.CostModel(1, 0.8, 0.6))
    assert len(plan.injected) == 1 and len(plan.jammed_insecure) == 1
    assert plan.total_cost == pytest.approx(1.6)


# -- generalized attacks ---------------------------------------------------------

def test_hidden_generalized_triangle():
    plan = ga.hidden_generalized(triangle_graph(), BASE_COST)
    assert plan.cut.edges == (0, 2)
    assert plan.cut.weight == pytest.approx(0.5)
    assert plan.total_cost == pytest.approx(1.25)


def test_hidden_generalized_single_insecure_feasible():
    g = secure_majority_graph()
    plan = ga.hidden_generalized(g, ga.CostModel(1, 0.5, 0.25))
    assert isinstance(plan, ga.AttackPlan)
    assert plan.injected == frozenset({0})


def test_hidden_generalized_uniform_costs_is_min_cardinality():
    rng = random.Random(23)
    cost = ga.CostModel(1.0, 1.0, 1.0)
    for _ in range(10):
        sys_ = random_system(rng, secure_prob=0.3)
        g = ga.build_graph(sys_)
        plan = ga.hidden_generalized(g, cost)
        if not isinstance(plan, ga.AttackPlan):
            continue
        best = min(
            (len(c.edges) for c in all_cuts(
                ga.WeightedGraph.from_measurement_graph(g, 1.0, 1.0))
             if c.n_insecure > 0),
        )
        assert plan.total_cost == pytest.approx(best)
        assert len(plan.cut.edges) == best


def test_detectable_generalized_interval_one_triangle():
    plan = ga.detectable_generalized(triangle_graph(), ga.CostModel(1, 0.8, 0.6))
    assert plan.cut.edges == (0, 2)
    assert len(plan.injected) == 1 and len(plan.jammed_insecure) == 1
    assert plan.total_cost == pytest.approx(1.6)


def test_detectable_generalized_interval_three_triangle():
    plan = ga.detectable_generalized(triangle_graph(), ga.CostModel(1, 0.3, 0.2))
    assert plan.cut.edges == (0, 2)
    assert plan.cut.weight == pytest.approx(0.4)
    assert plan.total_cost == pytest.approx(1.2)


def test_detectable_generalized_case_b_only():
    """With secure majorities everywhere only the jam-secure-surplus plan works."""
    g = secure_majority_graph()
    plan = ga.detectable_generalized(g, ga.CostModel(1, 0.8, 0.6))
    assert isinstance(plan, ga.AttackPlan)
    assert plan.injected == frozenset({0})
    jam = plan.cut.n_secure + 1 - plan.cut.n_insecure
    assert len(plan.jammed_secure) == jam == 2
    assert plan.total_cost == pytest.approx(1.0 + 2 * 0.8)


def test_detectable_generalized_skips_case_b_without_secure_edges(monkeypatch):
    g = triangle_graph(secure=(False, False, False))
    cost = ga.CostModel(1, 0.8, 0.6)
    want = ga.detectable_generalized(g, cost)

    def case_b(*args):
        raise AssertionError("case B ran on a graph without secure edges")

    monkeypatch.setattr(attack_module, "_case_b", case_b)
    assert ga.detectable_generalized(g, cost) == want
    # without secure edges case A succeeds on the first cut; force a failure
    # to read the combined reason
    monkeypatch.setattr(
        attack_module, "_case_a", lambda *args: ga.NoSolutionFound("forced")
    )
    result = ga.detectable_generalized(g, cost)
    assert isinstance(result, ga.NoSolutionFound)
    assert result.reason.startswith("case A: forced; case B: skipped")
    assert "no secure measurement" in result.reason


def gamma_counterexample_graph() -> ga.MeasurementGraph:
    """Edges (id, u, v, secure): (0,3,0,F) (1,1,0,T) (2,2,0,F) (3,3,0,F) (4,1,2,F) (5,2,3,F)."""
    angle, flow = ga.MeasurementKind.PHASE_ANGLE, ga.MeasurementKind.LINE_FLOW
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1), ga.Bus(2), ga.Bus(3)),
        lines=((1, 2, 1.0), (2, 3, 1.0)),
        measurements=(
            ga.Measurement(0, angle, 3),
            ga.Measurement(1, angle, 1, secure=True),
            ga.Measurement(2, angle, 2),
            ga.Measurement(3, angle, 3),
            ga.Measurement(4, flow, 1, 2),
            ga.Measurement(5, flow, 2, 3),
        ),
    )
    return ga.build_graph(sys_)


def test_detectable_generalized_case_b_not_stopped_by_gamma_bound():
    """Bounding case B's working cut weight by case A's cost would lose this plan.

    Case A costs 2.0. Case B boosts edge 4 to infinity and returns cut (1, 4),
    reported at its original weight 1.0, a plan of 1.8. A stop at working
    weight 2.0 - 0.8 = 1.2 ends the search at the working cut of 1.4 instead.
    """
    g = gamma_counterexample_graph()
    cost = ga.CostModel(1, 0.8, 0.6)
    case_a = attack_module._case_a(AttackType.DETECTABLE_GENERALIZED, g, cost)
    assert case_a.total_cost == pytest.approx(2.0)
    plan = ga.detectable_generalized(g, cost)
    assert isinstance(plan, ga.AttackPlan)
    assert plan.cut.edges == (1, 4)
    assert plan.injected == frozenset({4}) and plan.jammed_secure == frozenset({1})
    assert not plan.jammed_insecure
    assert plan.total_cost == pytest.approx(1.8)
    weighted = ga.WeightedGraph.from_measurement_graph(g, 0.8, 0.2)
    assert isinstance(
        ga.constrained_min_cut(weighted, ga.CutConstraint.SECURE_WEAK_MAJORITY, gamma=1.2),
        ga.NoSolutionFound,
    )


# each triple puts some case-A plans exactly on the case-B floor p_inject + p_jam_secure:
# a two-edge cut at (1, .5, .5) costs 1 + .5; a secure-free three-edge cut at (1, .8, .4)
# costs 1 + 2 * .4
FLOOR_TRIPLES = (ga.CostModel(1, 0.5, 0.5), ga.CostModel(1, 0.8, 0.4), ga.CostModel(2, 1, 1))


def _floor_cases():
    """(system, cost) pairs: 300 random in intervals I and II, 40 on each floor triple."""
    rng = random.Random(47)
    cases = []
    for k in range(300):
        interval = (ga.CostInterval.I, ga.CostInterval.II)[k % 2]
        cases.append((random_system(rng), random_cost(rng, interval)))
    for cost in FLOOR_TRIPLES:
        cases += [(random_system(rng), cost) for _ in range(40)]
    return cases


def _dg_without_floor(graph, cost):
    """Detectable generalized in intervals I and II, always running both sub-cases."""
    if not graph.insecure_ids:
        return ga.Infeasible("no insecure measurement to inject into")
    plan_a = attack_module._case_a(AttackType.DETECTABLE_GENERALIZED, graph, cost)
    if graph.secure_ids:
        plan_b = attack_module._case_b(graph, cost)
    else:
        plan_b = ga.NoSolutionFound(
            "skipped: no secure measurement, and a secure weak majority needs one"
        )
    plans = [p for p in (plan_a, plan_b) if isinstance(p, ga.AttackPlan)]
    if not plans:
        return ga.NoSolutionFound(f"case A: {plan_a.reason}; case B: {plan_b.reason}")
    return min(plans, key=lambda p: p.total_cost)


def test_detectable_generalized_equals_min_of_both_cases():
    counted = {"floor_ties": 0, "b_wins": 0, "a_below_floor": 0, "a_failed": 0}
    cases = _floor_cases() + [(None, ga.CostModel(1, 0.8, 0.6))]
    for sys_, cost in cases:
        # separate graph objects, so neither side reads the other's memo
        if sys_ is None:
            g, ref_g = gamma_counterexample_graph(), gamma_counterexample_graph()
        else:
            g, ref_g = ga.build_graph(sys_), ga.build_graph(sys_)
        got, want = ga.detectable_generalized(g, cost), _dg_without_floor(ref_g, cost)
        assert type(got) is type(want)
        for field in dataclasses.fields(want):
            assert getattr(got, field.name) == getattr(want, field.name), field.name
        case_a = attack_module._case_a(AttackType.DETECTABLE_GENERALIZED, ref_g, cost)
        if not isinstance(case_a, ga.AttackPlan):
            counted["a_failed"] += 1
            continue
        floor = cost.p_inject + cost.p_jam_secure
        counted["floor_ties"] += case_a.total_cost == floor
        counted["a_below_floor"] += case_a.total_cost < floor
        counted["b_wins"] += want.total_cost < case_a.total_cost
    assert counted["floor_ties"] >= 10 and counted["b_wins"] >= 10
    assert counted["a_below_floor"] >= 100 and counted["a_failed"] >= 1, counted


def test_detectable_generalized_skips_case_b_below_floor(monkeypatch):
    cases = [(ga.build_graph(s), c) for s, c in _floor_cases()]
    case_a = [attack_module._case_a(AttackType.DETECTABLE_GENERALIZED, g, c) for g, c in cases]

    def case_b(*args):
        raise AssertionError("case B ran although case A beat its cost floor")

    monkeypatch.setattr(attack_module, "_case_b", case_b)
    skipped = 0
    for (g, cost), plan_a in zip(cases, case_a):
        if isinstance(plan_a, ga.AttackPlan) and plan_a.total_cost < cost.p_inject + cost.p_jam_secure:
            assert ga.detectable_generalized(g, cost) == plan_a
            skipped += 1
    assert skipped >= 100


# -- insecure-edge sweep -----------------------------------------------------------

def _pair_sweep(graph, secure_w, insecure_w):
    """Reference: s-t cut of every insecure pair, first minimum in sorted order."""
    weighted = ga.WeightedGraph.from_measurement_graph(graph, secure_w, insecure_w)
    solver = ga.CutSolver(weighted)
    best = None
    for s, t in attack_module._insecure_pairs(graph):
        candidate = solver.min_st_cut(s, t)
        if best is None or candidate[0] < best[0]:
            best = candidate
    return best[1]


def test_sweep_min_cut_shortcut_matches_pair_sweep():
    rng = random.Random(31)
    # dense secure placements make the global cut all-secure, forcing the pair sweep
    graphs = [
        ga.build_graph(random_system(rng, secure_prob=p)) for p in (0.2, 0.5, 0.8) for _ in range(30)
    ]
    case = ga.load_case("ieee14")
    graphs += [
        ga.build_graph(ga.place_measurements(case, 0.6, f, seed))
        for f in (0.0, 0.3, 0.5)
        for seed in range(3)
    ]
    shortcut = fallback = 0
    for g in graphs:
        if not g.insecure_ids:
            continue
        for cost in (BASE_COST, random_cost(rng)):
            for weights in ((math.inf, 1.0), (cost.p_jam_secure, cost.p_jam_insecure)):
                assert attack_module._sweep_min_cut(g, *weights) == _pair_sweep(g, *weights)
                weighted = ga.WeightedGraph.from_measurement_graph(g, *weights)
                if ga.global_min_cut(weighted).n_insecure:
                    shortcut += 1
                else:
                    fallback += 1
    assert shortcut >= 100 and fallback >= 25


# -- constrained cut search ------------------------------------------------------

def test_constrained_min_cut_immediate():
    g = triangle_graph(secure=(False, False, False))
    unit = ga.WeightedGraph.from_measurement_graph(g, 1.0, 1.0)
    cut = ga.constrained_min_cut(unit, ga.CutConstraint.SECURE_MINORITY)
    assert len(cut.edges) == 2


def test_constrained_min_cut_case_b_triangle():
    weighted = ga.WeightedGraph.from_measurement_graph(triangle_graph(), 0.8, 0.2)
    cut = ga.constrained_min_cut(weighted, ga.CutConstraint.SECURE_WEAK_MAJORITY, gamma=10.0)
    assert cut.edges == (0, 1)
    assert cut.weight == pytest.approx(1.0)


def test_constrained_min_cut_case_b_unsatisfiable():
    g = triangle_graph(secure=(True, True, True))
    weighted = ga.WeightedGraph.from_measurement_graph(g, 0.8, 0.2)
    result = ga.constrained_min_cut(weighted, ga.CutConstraint.SECURE_WEAK_MAJORITY)
    assert isinstance(result, ga.NoSolutionFound)


def test_constrained_min_cut_gamma_stops_search():
    weighted = ga.WeightedGraph.from_measurement_graph(triangle_graph(), 0.8, 0.2)
    result = ga.constrained_min_cut(
        weighted, ga.CutConstraint.SECURE_WEAK_MAJORITY, gamma=0.3
    )
    assert isinstance(result, ga.NoSolutionFound)


@pytest.mark.parametrize("constraint", list(ga.CutConstraint))
def test_constrained_min_cut_empty_global_cut_gives_up(constraint):
    """A disconnected graph's global cut is empty, so there is no edge to boost."""
    disconnected = ga.WeightedGraph(
        nodes=(0, 1, 2), edges=(ga.WeightedEdge(0, 0, 1, 1.0, secure=True),)
    )
    edgeless = ga.WeightedGraph(nodes=(0, 1), edges=())
    for g in (disconnected, edgeless):
        result = ga.constrained_min_cut(g, constraint)
        assert isinstance(result, ga.NoSolutionFound)
        assert result.reason == "the global cut is empty: the graph is disconnected"


# -- cross-designer invariants ----------------------------------------------------

def test_dominance_chain():
    rng = random.Random(24)
    checked = 0
    for _ in range(40):
        sys_ = random_system(rng)
        g = ga.build_graph(sys_)
        cost = random_cost(rng)
        plans = {t: ga.design(t, g, cost) for t in AttackType}
        def c(t):
            p = plans[t]
            return p.total_cost if isinstance(p, ga.AttackPlan) else None
        hg, hj, hi = c(AttackType.HIDDEN_GENERALIZED), c(AttackType.HIDDEN_JAMMING), c(AttackType.HIDDEN_INJECTION)
        dg, dj = c(AttackType.DETECTABLE_GENERALIZED), c(AttackType.DETECTABLE_JAMMING)
        if None not in (hg, hj, hi):
            assert hg <= hj + 1e-12 and hj <= hi + 1e-12
            checked += 1
        if None not in (dg, dj):
            assert dg <= dj + 1e-12
        if None not in (dg, hg):
            assert dg <= hg + 1e-12
    assert checked >= 5


def test_detectable_vs_hidden_injection_cost_ratio():
    rng = random.Random(25)
    checked = 0
    for _ in range(60):
        sys_ = random_system(rng)
        g = ga.build_graph(sys_)
        hidden = ga.hidden_injection(g, BASE_COST)
        if not isinstance(hidden, ga.AttackPlan):
            continue
        detect = ga.detectable_injection(g, BASE_COST)
        assert isinstance(detect, ga.AttackPlan)
        bound = (0.5 + 1.0 / len(hidden.cut.edges)) * hidden.total_cost
        assert detect.total_cost <= bound + 1e-12
        checked += 1
    assert checked >= 20


def test_interval_three_collapses_to_hidden_generalized():
    rng = random.Random(26)
    checked = 0
    for _ in range(60):
        sys_ = random_system(rng)
        g = ga.build_graph(sys_)
        cost = random_cost(rng, interval=ga.CostInterval.III)
        hg = ga.hidden_generalized(g, cost)
        dg = ga.detectable_generalized(g, cost)
        if not isinstance(hg, ga.AttackPlan):
            assert not isinstance(dg, ga.AttackPlan)
            continue
        assert dg.cut == hg.cut
        assert len(dg.injected) == 1
        assert dg.total_cost == pytest.approx(hg.total_cost, abs=1e-12)
        checked += 1
    assert checked >= 20


def _closed_form(plan: ga.AttackPlan, cost: ga.CostModel) -> float:
    """Interval cost expressions recomputed from the plan's cut composition."""
    n_s, n_sc = plan.cut.n_secure, plan.cut.n_insecure
    size = len(plan.cut.edges)
    t = plan.attack_type
    if t in (AttackType.HIDDEN_INJECTION,):
        return cost.p_inject * size
    if t is AttackType.HIDDEN_JAMMING:
        return cost.p_inject + cost.p_jam_insecure * (size - 1)
    if t is AttackType.HIDDEN_GENERALIZED:
        return (
            cost.p_jam_secure * n_s
            + cost.p_jam_insecure * n_sc
            + (cost.p_inject - cost.p_jam_insecure)
        )
    if t is AttackType.DETECTABLE_INJECTION:
        return cost.p_inject * (1 + size // 2)
    if t is AttackType.DETECTABLE_JAMMING:
        k = len(plan.jammed_insecure)
        return cost.p_jam_insecure * k + cost.p_inject * math.floor(1 + (size - k) / 2)
    # detectable generalized: the interval plus the secure-jam count pick the formula
    interval = ga.classify_interval(cost)
    if interval is ga.CostInterval.III:
        return (
            cost.p_jam_secure * n_s
            + cost.p_jam_insecure * n_sc
            + (cost.p_inject - cost.p_jam_insecure)
        )
    if plan.jammed_secure:  # the jam-secure-surplus plan, identical in intervals I and II
        return cost.p_jam_secure * n_s + (cost.p_inject - cost.p_jam_secure) * n_sc + cost.p_jam_secure
    if interval is ga.CostInterval.II:
        return (cost.p_inject - cost.p_jam_insecure) * (n_s + 1) + cost.p_jam_insecure * n_sc
    k = len(plan.jammed_insecure)
    return cost.p_jam_insecure * k + cost.p_inject * math.floor(1 + (size - k) / 2)


def test_cost_formula_consistency():
    rng = random.Random(27)
    checked = 0
    for _ in range(50):
        sys_ = random_system(rng)
        g = ga.build_graph(sys_)
        cost = random_cost(rng)
        for t in AttackType:
            plan = ga.design(t, g, cost)
            if isinstance(plan, ga.AttackPlan):
                assert plan.total_cost == pytest.approx(_closed_form(plan, cost), abs=1e-12), t
                checked += 1
    assert checked >= 100


def test_staged_jam_cost_monotonicity():
    """Cost vs number of jammed secure edges: slope is p_js + p_jsc - p_i."""
    def staged(cost, n_s, n_sc, k):
        return (
            (cost.p_jam_secure + cost.p_jam_insecure - cost.p_inject) * k
            + (cost.p_inject - cost.p_jam_insecure) * (n_s + 1)
            + cost.p_jam_insecure * n_sc
        )

    interval2 = ga.CostModel(1, 0.9, 0.3)  # sum of jams >= inject: nondecreasing
    interval3 = ga.CostModel(1, 0.5, 0.2)  # sum of jams < inject: nonincreasing
    values2 = [staged(interval2, 3, 5, k) for k in range(4)]
    values3 = [staged(interval3, 3, 5, k) for k in range(4)]
    assert all(b >= a - 1e-12 for a, b in zip(values2, values2[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(values3, values3[1:]))


def test_designers_deterministic():
    # a separately built graph, so the second design does not read the first's memo
    for t in AttackType:
        first = ga.design(t, triangle_graph(), ga.CostModel(1, 0.8, 0.6))
        second = ga.design(t, triangle_graph(), ga.CostModel(1, 0.8, 0.6))
        assert first == second


def test_cut_searches_memoized_per_graph_object(monkeypatch):
    searches = []

    def counted(name):
        real = getattr(attack_module, name)

        def run(*args, **kwargs):
            searches.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(attack_module, name, run)

    counted("constrained_min_cut")
    counted("_sweep")
    system = random_system(random.Random(40), n_buses=6, m=14, secure_prob=0.3)
    g = ga.build_graph(system)
    cost = ga.CostModel(1.0, 0.8, 0.6)  # interval I: DI, DJ and DG case A share unit weights
    first = {t: ga.design(t, g, cost) for t in AttackType}
    assert sorted(searches) == ["_sweep", "_sweep", "constrained_min_cut", "constrained_min_cut"]
    again = {t: ga.design(t, g, cost) for t in AttackType}
    assert again == first and len(searches) == 4
    twin = ga.build_graph(system)
    assert twin == g and twin is not g
    assert {t: ga.design(t, twin, cost) for t in AttackType} == first
    assert len(searches) == 8


def test_plan_actions_partition_cut():
    rng = random.Random(28)
    for _ in range(30):
        sys_ = random_system(rng)
        g = ga.build_graph(sys_)
        cost = random_cost(rng)
        secure = set(g.secure_ids)
        for t in AttackType:
            plan = ga.design(t, g, cost)
            if not isinstance(plan, ga.AttackPlan):
                continue
            assert plan.touched <= set(plan.cut.edges)
            assert not plan.injected & plan.jammed
            assert not (plan.injected | plan.jammed_insecure) & secure
            assert plan.jammed_secure <= secure
            if t.hidden:
                assert plan.touched == frozenset(plan.cut.edges)
            survivors = len(plan.cut.edges) - len(plan.jammed)
            if not t.hidden:
                assert 2 * len(plan.injected) > survivors
