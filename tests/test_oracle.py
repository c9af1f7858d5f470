"""The exhaustive cost oracle: frozen examples and cross-checks."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridattack as ga
from gridattack import attack as attack_module, estimator, oracle
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


def _below(cost: float, optimum: float) -> bool:
    """Whether ``cost`` is under ``optimum`` by more than 1e-12 or by more than 1e-9 of it."""
    return cost < optimum - 1e-12 or cost < optimum - 1e-9 * optimum


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
                assert not _below(got.total_cost, want[0])


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


# --- references: the oracle's earlier splits, class loop and frozenset census ---


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
        pairs = [e.endpoints for e in graph.edges if set(e.endpoints) <= side]
        return reference_connected(side, pairs)

    all_nodes = frozenset(graph.nodes)
    return [
        cut for cut in all_cuts(ga.WeightedGraph.from_measurement_graph(graph, 1.0, 1.0))
        if induced_connected(cut.side_a) and induced_connected(all_nodes - cut.side_a)
    ]


def _loop_best_split(attack_type, n_sec, n_ins, cost):
    """Cheapest admissible counts of one class by the oracle's earlier two loops."""
    p_i, p_s, p_sc = cost.p_inject, cost.p_jam_secure, cost.p_jam_insecure
    if n_ins == 0 or (n_sec and attack_type in (AttackType.HIDDEN_INJECTION,
                                                AttackType.HIDDEN_JAMMING)):
        return None
    if attack_type is AttackType.HIDDEN_INJECTION:
        return p_i * n_ins, (n_ins, 0, 0)
    best = None
    if attack_type.hidden:
        for ki in range(1, n_ins + 1):
            value = p_i * ki + p_sc * (n_ins - ki) + p_s * n_sec
            if best is None or value < best[0]:
                best = (float(value), (ki, n_ins - ki, n_sec))
        return best
    jam_ins_max = 0 if attack_type is AttackType.DETECTABLE_INJECTION else n_ins
    jam_sec_max = n_sec if attack_type is AttackType.DETECTABLE_GENERALIZED else 0
    for ki in range(1, n_ins + 1):
        need = max(0, n_sec + n_ins - 2 * ki + 1)
        for kji in range(max(0, need - jam_sec_max), min(jam_ins_max, n_ins - ki, need) + 1):
            value = p_i * ki + p_sc * kji + p_s * (need - kji)
            if best is None or value < best[0]:
                best = (float(value), (ki, kji, need - kji))
    return best


def _loop_candidates(attack_type, n_sec, n_ins):
    """Every admissible count triple of one class, in the earlier loops' order."""
    if n_ins == 0 or (n_sec and attack_type in (AttackType.HIDDEN_INJECTION,
                                                AttackType.HIDDEN_JAMMING)):
        return []
    if attack_type is AttackType.HIDDEN_INJECTION:
        return [(n_ins, 0, 0)]
    if attack_type.hidden:
        return [(ki, n_ins - ki, n_sec) for ki in range(1, n_ins + 1)]
    jam_ins_max = 0 if attack_type is AttackType.DETECTABLE_INJECTION else n_ins
    jam_sec_max = n_sec if attack_type is AttackType.DETECTABLE_GENERALIZED else 0
    found = []
    for ki in range(1, n_ins + 1):
        need = max(0, n_sec + n_ins - 2 * ki + 1)
        for kji in range(max(0, need - jam_sec_max), min(jam_ins_max, n_ins - ki, need) + 1):
            found.append((ki, kji, need - kji))
    return found


def _reference_classes(cuts):
    """Each (n_secure, n_insecure) class with the index of its first cut, in census order."""
    firsts = {}
    for index, cut in enumerate(cuts):
        firsts.setdefault((cut.n_secure, cut.n_insecure), index)
    return list(firsts.items())


def _loop_optimum(cuts, attack_type, cost):
    """The earlier class loop: (value, first cut, counts) of the first cheapest class, or None."""
    best = None
    for (n_sec, n_ins), first in _reference_classes(cuts):
        found = _loop_best_split(attack_type, n_sec, n_ins, cost)
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], cuts[first], found[1])
    return best


def _counts(plan):
    return len(plan.injected), len(plan.jammed_insecure), len(plan.jammed_secure)


def _census_cuts(graph, sides):
    """Every census cut, materialized as the oracle does for a witness."""
    return [oracle._census_cut(graph, side) for side in sides]


BOUNDARY_COSTS = [(1, .5, .5), (1, .8, .4), (2, 1, 1), (1, 1, 1), (1, .75, .5)]


def _one_class_graph(n_sec, n_ins):
    """Two nodes joined by n_sec secure and n_ins insecure edges: one cut, of that class."""
    edges = tuple(ga.Measurement(k, ga.MeasurementKind.PHASE_ANGLE, 1, secure=k < n_sec)
                  for k in range(n_sec + n_ins))
    return ga.MeasurementGraph(nodes=(0, 1), edges=edges)


def test_best_split_matches_numpy_grid():
    """The oracle prices a one-cut graph of each class as the full 3-D count grid does."""
    rng = random.Random(54)
    costs = [random_cost(rng, interval) for interval in ga.CostInterval]
    costs += [ga.CostModel(*triple) for triple in BOUNDARY_COSTS]
    graphs = {(n_sec, n_ins): _one_class_graph(n_sec, n_ins)
              for n_sec in range(25) for n_ins in range(25)}
    compared = 0
    for cost in costs:
        for t in AttackType:
            for (n_sec, n_ins), graph in graphs.items():
                found = ga.optimal_cost(graph, cost, t)
                got = None if isinstance(found, ga.Infeasible) else (found[0], _counts(found[1]))
                want = _reference_best_split(t, n_sec, n_ins, cost)
                assert repr(got) == repr(want), (cost, t, n_sec, n_ins)
                compared += 1
    assert compared == 8 * 6 * 625


TIE_PRONE_COSTS = [(1, .5, .5), (1, 1, 1), (2, 1, 1), (1., 1., 1.), (1, .5, .25), (2, 2, 1)]


def test_pricing_matches_class_loop_reference():
    """Value repr, counts and witness cut equal the earlier class loop over the
    frozenset census, on random graphs under boundary, tie-prone and random costs."""
    rng = random.Random(56)
    compared = ties = 0
    for k in range(120):
        n_buses = rng.randint(1, 9)
        sys_ = random_system(rng, n_buses=n_buses, m=rng.randint(max(n_buses, 2), 18))
        graph = ga.build_graph(sys_)
        cuts = _reference_census(graph)
        costs = [ga.CostModel(*t) for t in BOUNDARY_COSTS + TIE_PRONE_COSTS]
        costs += [random_cost(rng, interval) for interval in ga.CostInterval]
        for cost in costs:
            for t in AttackType:
                want = _loop_optimum(cuts, t, cost)
                got = ga.optimal_cost(graph, cost, t)
                if want is None:
                    assert isinstance(got, ga.Infeasible), (k, cost, t)
                    continue
                value, plan = got
                assert repr(value) == repr(want[0]), (k, cost, t)
                assert _counts(plan) == want[2], (k, cost, t)
                a, b, c = want[2]  # the total is summed as attack._plan sums it
                total = cost.p_inject * a + cost.p_jam_insecure * b + cost.p_jam_secure * c
                assert repr(plan.total_cost) == repr(total), (k, cost, t)
                assert plan.cut == want[1], (k, cost, t)
                assert plan.attack_type is t and plan.graph is graph
                values = [v[0] for v in (_loop_best_split(t, *key, cost)
                                         for key, _ in _reference_classes(cuts)) if v]
                ties += values.count(min(values)) > 1
                compared += 1
    assert compared >= 8000 and ties >= 700


def test_price_table_follows_the_dominance_rule():
    """Each table is every class's admissible counts, in census order, less each one
    an earlier kept one is no larger than in every count."""
    rng = random.Random(57)
    for k in range(150):
        n_buses = rng.randint(1, 11)
        sys_ = random_system(rng, n_buses=n_buses, m=rng.randint(max(n_buses, 2), 22))
        graph = ga.build_graph(sys_)
        census = sides, classes = oracle._take_census(graph)
        for t in AttackType:
            kept = []
            for (n_sec, n_ins), first in classes:
                for a, b, c in _loop_candidates(t, n_sec, n_ins):
                    if not any(x <= a and y <= b and z <= c for x, y, z, _ in kept):
                        kept.append((a, b, c, sides[first]))
            assert oracle._take_table(census, t) == kept, (k, t)


def test_census_matches_frozenset_reference():
    rng = random.Random(55)
    twelve = parallel = 0
    for k in range(300):
        n_buses = 11 if k % 10 == 0 else rng.randint(1, 11)
        sys_ = random_system(rng, n_buses=n_buses, m=rng.randint(max(n_buses, 2), 22))
        graph = ga.build_graph(sys_)
        sides, classes = oracle._take_census(graph)
        want = _reference_census(graph)
        assert _census_cuts(graph, sides) == want
        assert list(classes) == _reference_classes(want)
        twelve += len(graph.nodes) == 12
        pairs = [frozenset(e.endpoints) for e in graph.edges]
        parallel += len(set(pairs)) < len(pairs)
    assert twelve >= 30 and parallel >= 100


@pytest.mark.parametrize("secure", [(False, True, False), (False, False, True)])
def test_oracle_witness_is_earliest_census_cut_among_tied_classes(secure):
    # cuts of side {1} and side {2} fall in classes (1, 1) and (0, 2), which
    # tie at 1.5 under hidden-generalized (1, .5, .5); side {1} comes first
    graph = triangle_graph(secure=secure)
    cuts = _census_cuts(graph, oracle._take_census(graph)[0])
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
            error = abs(got.total_cost - want[0])
            assert error <= 1e-12 and error <= 1e-9 * want[0], t
        elif isinstance(got, ga.AttackPlan):
            assert not _below(got.total_cost, want[0]), t


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


def _reference_witness(graph, cost, attack_type):
    """The witness as the oracle once built it: ``_plan`` on a fresh census cut
    of a fresh twin graph, with type, total and graph restamped."""
    table = oracle._take_table(oracle._take_census(graph), attack_type)
    if not table:
        return None
    values = [cost.p_inject * a + cost.p_jam_insecure * b + cost.p_jam_secure * c
              for a, b, c, _ in table]
    best = values.index(min(values))
    a, b, c, side = table[best]
    twin = ga.MeasurementGraph(nodes=graph.nodes, edges=graph.edges)
    plan = attack_module._plan(attack_type, twin, oracle._census_cut(twin, side), cost, a, b, c)
    return dataclasses.replace(plan, attack_type=attack_type, total_cost=values[best], graph=graph)


def test_witnesses_match_the_reference_construction():
    """On random graphs of 2 to 12 nodes, the witness of every type at a cost
    triple per interval, asked for twice on one graph after its designs, equals
    the reference construction field by field."""
    rng = random.Random(57)
    costs = [ga.CostModel(1, 0.8, 0.6), ga.CostModel(1, 0.8, 0.25), ga.CostModel(1, 0.5, 0.25)]
    assert [ga.classify_interval(c) for c in costs] == list(ga.CostInterval)
    witnesses = 0
    for _ in range(40):
        graph = ga.build_graph(random_system(rng, n_buses=rng.randint(1, 11)))
        for cost in costs:
            for t in AttackType:
                ga.design(t, graph, cost)
                want = _reference_witness(graph, cost, t)
                for _ in range(2):
                    got = ga.optimal_cost(graph, cost, t)
                    if want is None:
                        assert isinstance(got, ga.Infeasible)
                        continue
                    plan = got[1]
                    for f in dataclasses.fields(ga.AttackPlan):
                        assert getattr(plan, f.name) == getattr(want, f.name), f.name
                    assert float.hex(plan.total_cost) == float.hex(want.total_cost)
                    assert plan.graph is graph
                    witnesses += 1
    assert witnesses >= 1100, witnesses
