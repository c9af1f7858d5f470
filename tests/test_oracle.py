"""The exhaustive cost oracle: frozen examples and cross-checks."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridattack as ga
from gridattack import estimator, oracle
from gridattack.attack import AttackType
from conftest import all_cuts, reference_connected, triangle_graph, random_cost, random_system

EXHAUSTIVE = ga.DetectorConfig(removal_mode=ga.RemovalMode.EXHAUSTIVE_MINIMAL)


def test_oracle_triangle_hidden_generalized():
    value, plan = ga.optimal_cost(triangle_graph(), ga.CostModel(1, 0.5, 0.25),
                                  AttackType.HIDDEN_GENERALIZED)
    assert value == pytest.approx(1.25)
    assert plan.cut.edges == (0, 2)


def test_oracle_triangle_detectable_generalized():
    value, _ = ga.optimal_cost(triangle_graph(), ga.CostModel(1, 0.8, 0.6),
                               AttackType.DETECTABLE_GENERALIZED)
    assert value == pytest.approx(1.6)


def test_oracle_all_secure_infeasible():
    g = triangle_graph(secure=(True, True, True))
    for t in AttackType:
        assert isinstance(ga.optimal_cost(g, ga.CostModel(1, 0.5, 0.25), t), ga.Infeasible)


def test_oracle_node_cap():
    rng = random.Random(51)
    sys_ = random_system(rng, n_buses=12, m=16)
    g = ga.build_graph(sys_)
    with pytest.raises(ga.TooLarge):
        ga.optimal_cost(g, ga.CostModel(1, 0.5, 0.25), AttackType.HIDDEN_GENERALIZED)


def test_oracle_lower_bounds_designers():
    rng = random.Random(52)
    for _ in range(25):
        sys_ = random_system(rng)
        g = ga.build_graph(sys_)
        cost = random_cost(rng)
        for t in AttackType:
            got = ga.design(t, g, cost)
            want = ga.optimal_cost(g, cost, t)
            if isinstance(got, ga.AttackPlan):
                assert isinstance(want, tuple)
                assert want[0] <= got.total_cost + 1e-12


def test_oracle_plans_verify():
    rng = random.Random(53)
    checked = 0
    for _ in range(15):
        sys_ = random_system(rng)
        g = ga.build_graph(sys_)
        cost = random_cost(rng)
        truth = np.zeros(sys_.n + 1)
        for t in AttackType:
            want = ga.optimal_cost(g, cost, t)
            if isinstance(want, tuple):
                verdict = ga.execute(sys_, truth, want[1], EXHAUSTIVE)
                assert verdict.success, (t, want[0])
                checked += 1
    assert checked >= 30


def test_oracle_detectable_needs_insecure_majority_cut():
    # cut of 1 insecure + 2 secure cannot host a pure injection attack
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1)),
        lines=(),
        measurements=(
            ga.Measurement(0, ga.MeasurementKind.PHASE_ANGLE, 1),
            ga.Measurement(1, ga.MeasurementKind.PHASE_ANGLE, 1, secure=True),
            ga.Measurement(2, ga.MeasurementKind.PHASE_ANGLE, 1, secure=True),
        ),
    )
    g = ga.build_graph(sys_)
    assert isinstance(
        ga.optimal_cost(g, ga.CostModel(1, 0.8, 0.6), AttackType.DETECTABLE_INJECTION),
        ga.Infeasible,
    )
    # but the generalized attack jams the secure pair and injects the loner
    value, plan = ga.optimal_cost(g, ga.CostModel(1, 0.8, 0.6), AttackType.DETECTABLE_GENERALIZED)
    assert plan.injected == frozenset({0})
    assert value == pytest.approx(1 + 2 * 0.8)


# --- references: the oracle's earlier numpy-grid split and frozenset census ---


def _reference_best_split(attack_type, n_sec, n_ins, cost):
    """Cheapest admissible counts by pricing the full 3-D count grid."""
    p_i, p_s, p_sc = cost.p_inject, cost.p_jam_secure, cost.p_jam_insecure
    size = n_sec + n_ins
    if n_ins == 0:
        return None
    if attack_type.hidden:
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


def _reference_census(graph):
    """Every cut with both sides connected: the conftest enumeration and union-find."""

    def induced_connected(side):
        pairs = [(e.u, e.v) for e in graph.edges if e.u in side and e.v in side]
        return reference_connected(side, pairs)

    all_nodes = frozenset(graph.nodes)
    return [
        cut for cut in all_cuts(ga.WeightedGraph.from_measurement_graph(graph, 1.0, 1.0))
        if induced_connected(cut.side_a) and induced_connected(all_nodes - cut.side_a)
    ]


BOUNDARY_COSTS = [(1, .5, .5), (1, .8, .4), (2, 1, 1), (1, 1, 1), (1, .75, .5)]


def test_best_split_matches_numpy_grid():
    rng = random.Random(54)
    costs = [random_cost(rng, interval) for interval in ga.CostInterval]
    costs += [ga.CostModel(*triple) for triple in BOUNDARY_COSTS]
    compared = 0
    for cost in costs:
        for t in AttackType:
            for n_sec in range(25):
                for n_ins in range(25):
                    got = oracle._best_split(t, n_sec, n_ins, cost)
                    want = _reference_best_split(t, n_sec, n_ins, cost)
                    assert repr(got) == repr(want), (cost, t, n_sec, n_ins)
                    compared += 1
    assert compared == 8 * 6 * 625


def test_census_matches_frozenset_reference():
    rng = random.Random(55)
    twelve = parallel = 0
    for k in range(300):
        n_buses = 11 if k % 10 == 0 else rng.randint(1, 11)
        sys_ = random_system(rng, n_buses=n_buses, m=rng.randint(max(n_buses, 2), 22))
        graph = ga.build_graph(sys_)
        cuts, classes = oracle._cut_census(graph)
        want = _reference_census(graph)
        assert list(cuts) == want
        firsts = {}
        for index, cut in enumerate(want):
            firsts.setdefault((cut.n_secure, cut.n_insecure), index)
        assert list(classes) == list(firsts.items())
        twelve += len(graph.nodes) == 12
        pairs = [frozenset((e.u, e.v)) for e in graph.edges]
        parallel += len(set(pairs)) < len(pairs)
    assert twelve >= 30 and parallel >= 100


@pytest.mark.parametrize("secure", [(False, True, False), (False, False, True)])
def test_oracle_witness_is_earliest_census_cut_among_tied_classes(secure):
    # cuts of side {1} and side {2} fall in classes (1, 1) and (0, 2), which
    # tie at 1.5 under hidden-generalized (1, .5, .5); side {1} comes first
    graph = triangle_graph(secure=secure)
    cuts, classes = oracle._cut_census(graph)
    assert [sorted(c.side_a) for c in cuts] == [[1], [2], [1, 2]]
    assert {cuts[0].n_secure, cuts[1].n_secure} == {0, 1}
    value, plan = ga.optimal_cost(graph, ga.CostModel(1, .5, .5), AttackType.HIDDEN_GENERALIZED)
    assert value == 1.5
    assert plan.cut == cuts[0]


# --- properties over random systems up to the oracle's 12-node cap ---


@st.composite
def _systems(draw):
    n_buses = draw(st.integers(1, oracle.MAX_ORACLE_NODES - 1))
    m = draw(st.integers(max(n_buses, 2), 20))
    secure_prob = draw(st.sampled_from([0.0, 0.2, 0.4, 0.6]))
    return random_system(draw(st.randoms(use_true_random=False)), n_buses=n_buses, m=m,
                         secure_prob=secure_prob)


_COSTS = st.one_of(
    st.sampled_from(BOUNDARY_COSTS),
    st.tuples(st.floats(0.5, 2.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)).map(
        lambda t: (t[0], t[0] * t[1], t[0] * t[1] * t[2])
    ),
).map(lambda triple: ga.CostModel(*triple))

_PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@_PROPERTY
@given(_systems(), _COSTS)
def test_property_designers_against_oracle(sys_, cost):
    """Hidden designers equal the oracle; no designer is below it."""
    graph = ga.build_graph(sys_)
    for t in AttackType:
        got = ga.design(t, graph, cost)
        want = ga.optimal_cost(graph, cost, t)
        if isinstance(want, ga.Infeasible):
            assert not isinstance(got, ga.AttackPlan), t
        elif t.hidden:
            assert isinstance(got, ga.AttackPlan), t
            assert abs(got.total_cost - want[0]) <= 1e-12, t
        elif isinstance(got, ga.AttackPlan):
            assert got.total_cost >= want[0] - 1e-12, t


def test_parallel_bundle_witness_verifies_in_two_solves(monkeypatch):
    """18 parallel angle meters: the detectable-injection witness injects 10 and leaves
    8 untouched, so removal must discard those 8. Of the 106,761 subsets of up to 8
    meters, the residual screen leaves only the passing one to lstsq."""
    angle = ga.MeasurementKind.PHASE_ANGLE
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1)),
        lines=(),
        measurements=tuple(ga.Measurement(k, angle, 1) for k in range(18)),
    )
    _, plan = ga.optimal_cost(ga.build_graph(sys_), ga.CostModel(1, 0.8, 0.6),
                              AttackType.DETECTABLE_INJECTION)
    assert len(plan.injected) == 10 and len(plan.untouched) == 8
    solves = []
    real = estimator._solve
    monkeypatch.setattr(estimator, "_solve", lambda *args: solves.append(1) or real(*args))
    verdict = ga.execute(sys_, np.zeros(2), plan, EXHAUSTIVE)
    assert verdict.success
    assert verdict.report.removed == plan.untouched
    assert len(solves) <= 2  # the detection solve and the passing subset


@settings(_PROPERTY, max_examples=100)
@given(_systems(), _COSTS)
def test_property_oracle_witnesses_verify(sys_, cost):
    graph = ga.build_graph(sys_)
    for t in AttackType:
        want = ga.optimal_cost(graph, cost, t)
        if isinstance(want, tuple):
            verdict = ga.execute(sys_, np.zeros(sys_.n + 1), want[1], EXHAUSTIVE)
            assert verdict.success, (t, verdict.reason)


@_PROPERTY
@given(_systems(), _COSTS, st.permutations(list(AttackType)))
def test_property_design_order_independent(sys_, cost, order):
    """Designs on one graph object, in any type order, equal fresh-object designs."""
    shared = ga.build_graph(sys_)
    for t in order:
        assert ga.design(t, shared, cost) == ga.design(t, ga.build_graph(sys_), cost), t
