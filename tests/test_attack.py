"""Attack designers: frozen worked examples plus structural invariants."""

import collections
import dataclasses
import gc
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import gridattack as ga
from gridattack import attack as attack_module, oracle
from gridattack.attack import AttackType
from gridattack.mincut import cut_from_side
from conftest import all_cuts, triangle_graph, random_cost, random_edge_list, random_system

BASE_COST = ga.CostModel(1.0, 0.5, 0.25)


def class_weights(graph, secure_w, insecure_w):
    """One weight per edge by its security class, in edge order, as the designers pass them."""
    return [secure_w if e.secure else insecure_w for e in graph.edges]


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
    # outside CostModel.COST_RANGE, far past each end and just past it
    for triple in ((1e300, 1e300, 1e300), (1e-12, 8e-13, 6e-13),
                   (1.0000001e6, 1.0, 1.0), (1.0, 1.0, 0.9999999e-6)):
        with pytest.raises(ga.InvalidCosts, match="1e-06 <= p_jam_insecure"):
            ga.CostModel(*triple)


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


def test_cost_model_accepts_range_ends():
    """The range is closed, and at both ends HG picks the plan it picks at unit costs."""
    lo, hi = ga.CostModel.COST_RANGE
    ga.CostModel(hi, lo, lo)
    g = ga.build_graph(ga.place_measurements(ga.load_case("ieee14"), 0.6, 0.3, 3))
    unit = ga.hidden_generalized(g, ga.CostModel(1.0, 1.0, 1.0))
    for scale in (lo, hi):
        plan = ga.hidden_generalized(g, ga.CostModel(scale, scale, scale))
        assert plan.cut.edges == unit.cut.edges and plan.injected == unit.injected
        assert plan.total_cost == pytest.approx(scale * unit.total_cost, rel=1e-12)


# each puts exact ties between cuts of different class counts, which a quantum
# that does not scale with the costs breaks one way at one scale and another way
# at another
_TIED_COSTS = [ga.CostModel(*t) for t in ((1, 0.8, 0.6), (1, 0.8, 0.25), (1, 0.5, 0.25),
                                           (1, 0.5, 0.5), (1, 0.8, 0.2))]


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.randoms(use_true_random=False),
       st.tuples(st.floats(0.5, 2.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)))
def test_property_design_scale_invariant(rng, draw):
    """For every k that ``CostModel.COST_RANGE`` admits, the design at ``cost * 2**k``
    is the design at ``cost``, with ``total_cost`` times ``2**k``.

    Scaling by a power of two is exact in floats, so the total must match to the
    bit. The cut weight is scaled too where the search weighs edges by cost, and
    kept where it counts edges.
    """
    sys_ = random_system(rng)
    p_i, f_js, f_jsc = draw
    lo, hi = ga.CostModel.COST_RANGE
    for cost in _TIED_COSTS + [ga.CostModel(p_i, p_i * f_js, p_i * f_js * f_jsc)]:
        ks = [k for k in range(-64, 65)
              if lo <= math.ldexp(cost.p_jam_insecure, k) and math.ldexp(cost.p_inject, k) <= hi]
        assert len(ks) >= 30
        want = {t: ga.design(t, ga.build_graph(sys_), cost) for t in AttackType}
        for k in ks:
            scaled = ga.CostModel(*(math.ldexp(p, k) for p in dataclasses.astuple(cost)))
            graph = ga.build_graph(sys_)
            for t, plan in want.items():
                got = ga.design(t, graph, scaled)
                if not isinstance(plan, ga.AttackPlan):
                    assert got == plan, (cost, t, k)
                    continue
                assert got.total_cost == math.ldexp(plan.total_cost, k), (cost, t, k)
                assert got.cut.weight in (plan.cut.weight, math.ldexp(plan.cut.weight, k))
                unscaled = dataclasses.replace(got.cut, weight=plan.cut.weight)
                assert dataclasses.replace(got, cut=unscaled, total_cost=plan.total_cost) == plan, (
                    cost, t, k)


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
        weights = class_weights(g, 1.0, 1.0)
        unit = cut_from_side(g.edges, weights, ga.CutSolver(g).global_min_cut(weights)[1])
        assert len(plan.cut.edges) == len(unit.edges)


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
    weights = class_weights(graph, secure_w, insecure_w)
    solver = ga.CutSolver(graph)
    best = None
    for s, t in attack_module._insecure_pairs(graph):
        candidate = solver.min_st_cut(weights, s, t)
        if best is None or candidate[0] < best[0]:
            best = candidate
    return cut_from_side(graph.edges, weights, best[1])


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
                found = attack_module._memoized(g, ("sweep", *weights), attack_module._sweep)
                assert found == _pair_sweep(g, *weights)
                flat = class_weights(g, *weights)
                cut = cut_from_side(g.edges, flat, ga.CutSolver(g).global_min_cut(flat)[1])
                if cut.n_insecure:
                    shortcut += 1
                else:
                    fallback += 1
    assert shortcut >= 100 and fallback >= 25


# -- constrained cut search ------------------------------------------------------

def test_constrained_min_cut_immediate():
    g = triangle_graph(secure=(False, False, False))
    cut = ga.constrained_min_cut(g, ga.CutConstraint.SECURE_MINORITY, 1.0, 1.0)
    assert len(cut.edges) == 2


def test_constrained_min_cut_case_b_triangle():
    g = triangle_graph()
    cut = ga.constrained_min_cut(g, ga.CutConstraint.SECURE_WEAK_MAJORITY, 0.8, 0.2)
    assert cut.edges == (0, 1)
    assert cut.weight == pytest.approx(1.0)


def test_constrained_min_cut_case_b_unsatisfiable():
    g = triangle_graph(secure=(True, True, True))
    result = ga.constrained_min_cut(g, ga.CutConstraint.SECURE_WEAK_MAJORITY, 0.8, 0.2)
    assert isinstance(result, ga.NoSolutionFound)


@pytest.mark.parametrize("constraint", list(ga.CutConstraint))
def test_constrained_min_cut_empty_global_cut_gives_up(constraint):
    """A disconnected graph's global cut is empty, so there is no edge to boost."""
    angle = ga.Measurement(0, ga.MeasurementKind.PHASE_ANGLE, 1, secure=True)
    disconnected = ga.MeasurementGraph(nodes=(0, 1, 2), edges=(angle,))
    edgeless = ga.MeasurementGraph(nodes=(0, 1), edges=())
    for g in (disconnected, edgeless):
        result = ga.constrained_min_cut(g, constraint, 1.0, 1.0)
        assert isinstance(result, ga.NoSolutionFound)
        assert result.reason == "the global cut is empty: the graph is disconnected"


@pytest.mark.parametrize("constraint, angles, flows, boosts", [
    # {1, 2} cuts the flows {1S, 3S, 4I}: boost secure 3; then the angles {0S, 2S, 5I, 6I}: secure 2
    (ga.CutConstraint.SECURE_MINORITY, {0: True, 2: True, 5: False, 6: False},
     {1: True, 3: True, 4: False}, [3, 2]),
    # the flows {0I, 1I, 4S} hold an insecure majority: boost insecure 1; then the all-secure angles: 6
    (ga.CutConstraint.SECURE_WEAK_MAJORITY, {2: True, 3: True, 5: True, 6: True},
     {0: False, 1: False, 4: True}, [1, 6]),
])
def test_constrained_min_cut_boosts_largest_id_of_violating_class(
    monkeypatch, constraint, angles, flows, boosts
):
    """Each boost hits the largest-id cut edge of the class that violates the
    constraint, although a larger id of the other class, and a smaller one of
    its own, share the cut. The angles on bus 1 and the flows 1-2 are listed
    in reverse, so an edge's position does not follow its id."""
    edges = [ga.Measurement(i, ga.MeasurementKind.PHASE_ANGLE, 1, secure=s) for i, s in angles.items()]
    edges += [ga.Measurement(i, ga.MeasurementKind.LINE_FLOW, 1, 2, secure=s) for i, s in flows.items()]
    g = ga.MeasurementGraph(nodes=(0, 1, 2), edges=tuple(reversed(edges)))
    boosted = []
    real = ga.CutSolver.global_min_cut

    def spy(self, weights):
        boosted.append({e.id for e, w in zip(g.edges, weights) if math.isinf(w)})
        return real(self, weights)

    monkeypatch.setattr(ga.CutSolver, "global_min_cut", spy)
    result = ga.constrained_min_cut(g, constraint, 1.0, 1.0)
    assert [b - a for a, b in zip(boosted, boosted[1:])] == [{i} for i in boosts]
    assert result == ga.NoSolutionFound("the working cut is infinite: every cut crosses a boosted edge")


def test_constrained_min_cut_satisfied_on_a_boosted_edge_reports_class_weight(monkeypatch):
    """The fourth global cut crosses two boosted edges, so its working weight
    is +inf, and it satisfies the constraint; the search returns it weighed at
    the class weights, 0.8 per secure edge and 0.2 per insecure one."""
    F, T = False, True
    spec = [(2, 0, F), (2, 3, F), (2, 3, F), (2, 0, T), (2, 0, T), (1, 0, F), (1, 3, F)]
    g = ga.MeasurementGraph(nodes=(0, 1, 2, 3), edges=tuple(
        ga.Measurement(i, ga.MeasurementKind.PHASE_ANGLE, u, secure=s) if v == ga.REFERENCE_BUS
        else ga.Measurement(i, ga.MeasurementKind.LINE_FLOW, u, v, secure=s)
        for i, (u, v, s) in enumerate(spec)
    ))
    boosted = []
    real = ga.CutSolver.global_min_cut

    def spy(self, weights):
        boosted.append(frozenset(e.id for e, w in zip(g.edges, weights) if math.isinf(w)))
        return real(self, weights)

    monkeypatch.setattr(ga.CutSolver, "global_min_cut", spy)
    cut = ga.constrained_min_cut(g, ga.CutConstraint.SECURE_WEAK_MAJORITY, 0.8, 0.2)
    assert len(boosted) == 4
    assert cut.edges == (0, 3, 4, 5) and (cut.insecure, cut.secure) == ((0, 5), (3, 4))
    assert cut.weight == 2.0
    assert boosted[-1] & set(cut.edges)


def _reference_constrained_min_cut(graph, constraint, secure_w, insecure_w):
    """The search with a cut built at the working weights each round, and the
    satisfied one built again at the class weights. An infinite stop names a
    boosted edge when one crosses the cut, else the infinite class weight.
    Also returns the last working cut and the working weights."""
    weights = class_weights(graph, secure_w, insecure_w)
    slot = {e.id: k for k, e in enumerate(graph.edges)}
    solver = ga.CutSolver(graph)
    working = list(weights)
    while True:
        cut = cut_from_side(graph.edges, working, solver.global_min_cut(working)[1])
        n_ins = cut.n_insecure
        if constraint is ga.CutConstraint.SECURE_MINORITY:
            satisfied = 2 * cut.n_secure < len(cut.edges)
        else:
            satisfied = n_ins >= 1 and 2 * n_ins <= len(cut.edges)
        if satisfied:
            result = cut_from_side(graph.edges, weights, cut.side_a)
        elif any(working[slot[e]] != weights[slot[e]] for e in cut.edges):
            result = ga.NoSolutionFound("the working cut is infinite: every cut crosses a boosted edge")
        elif math.isinf(cut.weight):
            result = ga.NoSolutionFound(
                "the cut's class weight is infinite: a class weight is +inf or the sum overflows")
        elif not cut.edges:
            result = ga.NoSolutionFound("the global cut is empty: the graph is disconnected")
        else:
            boost_secure = constraint is ga.CutConstraint.SECURE_MINORITY or n_ins == 0
            working[slot[(cut.secure if boost_secure else cut.insecure)[-1]]] = math.inf
            continue
        return result, cut, working


CLASS_WEIGHTS = [(1.0, 1.0), (0.8, 0.2), (0.2, 0.8), (math.inf, 1.0), (1.0, math.inf),
                 (1e308, 1e308)]


def test_constrained_min_cut_matches_the_two_build_reference(monkeypatch):
    """On 120 seeded random graphs and 12 IEEE-14 placements, under both
    constraints and six class-weight pairs, among them +inf classes and weights
    whose sums overflow, the search returns what the reference returns: the
    same cut field by field, its weight by ``float.hex``, or the same
    ``NoSolutionFound`` reason. Each search builds one cut per global cut.
    Both ends, a satisfied cut and the infinite stop, are reached with the
    last working cut on a boosted edge, at a +inf class weight and at a class
    weight sum that overflows."""
    rng = random.Random(43)
    graphs = [ga.build_graph(random_system(rng)) for _ in range(120)]
    case = ga.load_case("ieee14")
    graphs += [ga.build_graph(ga.place_measurements(case, 0.6, f / 20, 3)) for f in range(12)]
    calls = collections.Counter()

    def counted(name, real):
        def spy(*args):
            calls[name] += 1
            return real(*args)
        return spy

    monkeypatch.setattr(attack_module, "cut_from_side", counted("cut", cut_from_side))
    monkeypatch.setattr(ga.CutSolver, "global_min_cut",
                        counted("global", ga.CutSolver.global_min_cut))
    seen = collections.Counter()
    for graph in graphs:
        for constraint in ga.CutConstraint:
            for secure_w, insecure_w in CLASS_WEIGHTS:
                want, last, working = _reference_constrained_min_cut(
                    graph, constraint, secure_w, insecure_w)
                calls.clear()
                got = ga.constrained_min_cut(graph, constraint, secure_w, insecure_w)
                assert calls["cut"] == calls["global"] >= 1
                if isinstance(want, ga.NoSolutionFound):
                    assert got == want
                else:
                    assert isinstance(got, ga.CutResult)
                    assert (got.side_a, got.edges, got.insecure, got.secure) == (
                        want.side_a, want.edges, want.insecure, want.secure)
                    assert got.weight.hex() == want.weight.hex()
                weights = class_weights(graph, secure_w, insecure_w)
                if any(working[k] != weights[k] for k, e in enumerate(graph.edges)
                       if e.id in last.edges):
                    how = "on a boosted edge"
                elif math.isinf(cut_from_side(graph.edges, weights, last.side_a).weight):
                    how = "+inf class" if math.inf in (secure_w, insecure_w) else "overflow"
                else:
                    how = "finite"
                seen[type(want).__name__, how] += 1
    ends = [("NoSolutionFound", "on a boosted edge"), ("NoSolutionFound", "+inf class"),
            ("NoSolutionFound", "overflow"), ("CutResult", "+inf class"), ("CutResult", "overflow"),
            ("CutResult", "finite")]
    assert all(seen[end] >= 50 for end in ends) and seen["CutResult", "on a boosted edge"], seen


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


def _assert_split_follows(plan: ga.AttackPlan, graph: ga.MeasurementGraph) -> None:
    """The plan takes its cut's edges in id order by the flags of ``graph``."""
    by_id = {e.id: e for e in graph.edges}
    ins = sorted(i for i in plan.cut.edges if not by_id[i].secure)
    sec = sorted(i for i in plan.cut.edges if by_id[i].secure)
    k, j = len(plan.injected), len(plan.jammed_insecure)
    assert (plan.cut.n_insecure, plan.cut.n_secure) == (len(ins), len(sec))
    assert plan.injected == frozenset(ins[:k])
    assert plan.jammed_insecure == frozenset(ins[k : k + j])
    assert plan.jammed_secure == frozenset(sec[: len(plan.jammed_secure)])


def test_split_depends_only_on_its_side():
    """On graphs of up to 10 nodes with parallel edges, mixed flags and ids out
    of position order, the cut ``cut_from_side`` takes on every census side and
    on its complement holds the sorted insecure and secure ids of the edges
    crossing the side, and wherever it has an insecure edge ``_plan`` shifts
    the indicator of the side without the reference."""
    rng = random.Random(34)
    parallel = shuffled = 0
    for _ in range(150):
        n_buses = rng.randint(1, 9)
        pairs = random_edge_list(rng, n_buses, rng.randint(n_buses, 18))
        ids = rng.sample(range(100), len(pairs))
        edges = tuple(
            ga.Measurement(i, ga.MeasurementKind.PHASE_ANGLE, v, secure=rng.random() < 0.4)
            if u == ga.REFERENCE_BUS else
            ga.Measurement(i, ga.MeasurementKind.LINE_FLOW, u, v, secure=rng.random() < 0.4)
            for i, (u, v) in zip(ids, pairs)
        )
        graph = ga.MeasurementGraph(nodes=tuple(range(n_buses + 1)), edges=edges)
        by_id = {e.id: e for e in edges}
        everything = frozenset(graph.nodes)
        for mask in oracle._take_census(graph)[0]:
            side = frozenset(v for v in graph.nodes if mask >> v & 1)
            for s in (side, everything - side):
                cut = cut_from_side(edges, [1.0] * len(edges), s)
                crossing = sorted(e.id for e in edges if (e.endpoints[0] in s) != (e.endpoints[1] in s))
                assert cut.edges == tuple(crossing)
                assert cut.insecure == tuple(i for i in crossing if not by_id[i].secure)
                assert cut.secure == tuple(i for i in crossing if by_id[i].secure)
                if not cut.insecure:
                    continue
                free = everything - s if ga.REFERENCE_BUS in s else s
                plan = attack_module._plan(AttackType.HIDDEN_GENERALIZED, graph, cut, BASE_COST,
                                           1, cut.n_insecure - 1, cut.n_secure)
                assert plan.injection_state_shift == tuple(
                    int(v in free) for v in (*graph.nodes[1:], ga.REFERENCE_BUS))
        parallel += len(set(pairs)) < len(pairs)
        shuffled += ids != sorted(ids)
    assert parallel >= 50 and shuffled >= 140, (parallel, shuffled)


def test_plan_split_follows_the_graph_it_is_planned_on():
    """Twin systems share measurement ids and differ in secure flags. Every
    designed plan and oracle witness splits its cut by its own graph's flags,
    also where both twins plan the same cut, so that no split is shared
    across graph objects."""
    case = ga.load_case("ieee14")
    pairs = [tuple(ga.place_measurements(case, 0.6, f, 7) for f in (0.2, 0.4))]
    rng = random.Random(26)
    for _ in range(20):
        sys_ = random_system(rng, secure_prob=0.3)
        flipped = set(rng.sample(range(sys_.m), max(1, sys_.m // 3)))
        twin = dataclasses.replace(sys_, measurements=tuple(
            dataclasses.replace(m, secure=m.secure != (k in flipped))
            for k, m in enumerate(sys_.measurements)
        ))
        pairs.append((sys_, twin))
    costs = [ga.CostModel(1, 0.8, 0.6), ga.CostModel(1, 0.8, 0.25), ga.CostModel(1, 0.5, 0.25)]
    shared = 0
    for pair in pairs:
        assert [m.id for m in pair[0].measurements] == [m.id for m in pair[1].measurements]
        graphs = [ga.build_graph(s) for s in pair]
        assert graphs[0].secure_ids != graphs[1].secure_ids
        flags = {}  # cut -> secure edge ids, per graph
        for cost in costs:
            for t in AttackType:
                for k, g in enumerate(graphs):
                    plans = [ga.design(t, g, cost)]
                    if len(g.nodes) <= ga.oracle.MAX_ORACLE_NODES:
                        plans.append(ga.optimal_cost(g, cost, t))
                    for plan in plans:
                        plan = plan[1] if isinstance(plan, tuple) else plan
                        if isinstance(plan, ga.AttackPlan):
                            _assert_split_follows(plan, g)
                            flags.setdefault((plan.cut.side_a, plan.cut.edges), {})[k] = (
                                frozenset(plan.cut.edges) & frozenset(g.secure_ids)
                            )
        shared += sum(len(f) == 2 and f[0] != f[1] for f in flags.values())
    assert shared >= 5, shared


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


# one triple per interval (I, II, III), then (1, .5, .25)
SPLIT_COSTS = [ga.CostModel(1, 0.8, 0.6), ga.CostModel(1, 0.8, 0.25), ga.CostModel(1, 0.4, 0.2),
               BASE_COST]


def _assert_same_plan(plan, fresh):
    assert plan == fresh and float.hex(plan.total_cost) == float.hex(fresh.total_cost)
    assert plan.cut == fresh.cut and plan.injection_state_shift == fresh.injection_state_shift


def _holds(obj, kinds) -> bool:
    """Whether ``obj``, or anything it holds through containers and cuts, is of ``kinds``."""
    if isinstance(obj, kinds):
        return True
    if isinstance(obj, (tuple, list, frozenset, set, dict, ga.CutResult)):
        held = gc.get_referents(vars(obj) if isinstance(obj, ga.CutResult) else obj)
        return any(_holds(x, kinds) for x in held)
    return False


def test_memo_hit_plans_equal_fresh_ones():
    """On 60 random systems and 10 IEEE-14 placements, every type is designed
    twice on one graph at each of four cost triples, and every admissible split
    of each designed cut, by every type, is planned on it too. Each plan equals
    the one a fresh graph of the same system gives; repeated plans share their
    split's sets and tuple; and no split kept in the memo refers to a graph or
    a plan."""
    rng = random.Random(41)
    systems = [random_system(rng) for _ in range(60)]
    case = ga.load_case("ieee14")
    systems += [ga.place_measurements(case, 0.6, f / 20, 7) for f in range(10)]
    widened = probed = 0
    for system in systems:
        graph = ga.build_graph(system)
        for cost in SPLIT_COSTS:
            for t in AttackType:
                first, again = ga.design(t, graph, cost), ga.design(t, graph, cost)
                fresh = ga.design(t, ga.build_graph(system), cost)
                if not isinstance(fresh, ga.AttackPlan):
                    assert first == again == fresh
                    continue
                _assert_same_plan(first, fresh)
                _assert_same_plan(again, fresh)
                for name in ("cut", "injected", "jammed_insecure", "jammed_secure",
                             "injection_state_shift"):
                    assert getattr(again, name) is getattr(first, name)
                cut = first.cut
                for u in AttackType:
                    for counts in oracle._splits(u, cut.n_secure, cut.n_insecure):
                        planned = attack_module._plan(u, graph, cut, cost, *counts)
                        _assert_same_plan(planned, attack_module._plan(
                            u, ga.build_graph(system), cut, cost, *counts))
                        probed += 1
        splits = {k: v for k, v in graph.cut_memo["attack"].items() if k[0] == "split"}
        assert not any(_holds(v, (ga.MeasurementGraph, ga.AttackPlan)) for v in splits.values())
        weights = collections.defaultdict(set)
        for _, side, weight, *_ in splits:
            weights[side].add(weight)
        widened += any(len(w) > 1 for w in weights.values())
    assert widened >= 60 and probed >= 12_000, (widened, probed)
