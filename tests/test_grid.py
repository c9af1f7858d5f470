"""Measurement model, matrix construction, and cut extraction."""

import collections
import random
import re

import numpy as np
import pytest

import gridattack as ga
from gridattack import grid as grid_module
from gridattack.mincut import cut_from_side
from conftest import (
    triangle_graph, triangle_system, random_removals, random_system, reference_connected,
)


def test_build_matrix_two_bus_rows():
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1), ga.Bus(2)),
        lines=((1, 2, 1.0),),
        measurements=(
            ga.Measurement(0, ga.MeasurementKind.LINE_FLOW, 1, 2),
            ga.Measurement(1, ga.MeasurementKind.PHASE_ANGLE, 1),
        ),
    )
    H = ga.build_matrix(sys_)
    assert H.tolist() == [[1.0, -1.0, 0.0], [1.0, 0.0, -1.0]]


def test_build_matrix_single_bus():
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1)),
        lines=(),
        measurements=(ga.Measurement(0, ga.MeasurementKind.PHASE_ANGLE, 1),),
    )
    H = ga.build_matrix(sys_)
    assert H.tolist() == [[1.0, -1.0]]
    assert np.linalg.matrix_rank(H) == 1


def test_build_matrix_ieee14_rank():
    case = ga.load_case("ieee14")
    sys_ = ga.place_measurements(case, angle_fraction=0.6, secure_fraction=0.0, seed=1)
    H = ga.build_matrix(sys_)
    assert H.shape == (28, 15)
    assert np.linalg.matrix_rank(H[:, :14]) == 14


def test_flow_susceptance_lands_in_rows():
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1), ga.Bus(2)),
        lines=((1, 2, 2.5),),
        measurements=(
            ga.Measurement(0, ga.MeasurementKind.LINE_FLOW, 2, 1, susceptance=2.5),
            ga.Measurement(1, ga.MeasurementKind.PHASE_ANGLE, 2),
        ),
    )
    H = ga.build_matrix(sys_)
    assert H[0].tolist() == [-2.5, 2.5, 0.0]


def test_build_graph_e1_triangle():
    g = triangle_graph()
    assert g.nodes == (0, 1, 2)
    assert len(g.edges) == 3
    assert g.secure_ids == (1,)
    assert g.insecure_ids == (0, 2)
    assert {e.endpoints for e in g.edges} == {(1, 2), (1, 0), (2, 0)}


def test_graph_edges_are_the_system_measurements():
    """A graph's edges are its system's own measurement tuple. Each build makes
    a new graph with its own memo, and a weighted edge reads its ends as a
    measurement does."""
    sys_ = triangle_system()
    first, second = ga.build_graph(sys_), ga.build_graph(sys_)
    assert first.edges is sys_.measurements and second.edges is sys_.measurements
    assert first is not second and first.cut_memo is not second.cut_memo
    ga.design(ga.AttackType.HIDDEN_GENERALIZED, first, ga.CostModel(1, 0.5, 0.25))
    assert first.cut_memo["attack"] and not second.cut_memo
    edge = ga.WeightedEdge(7, 3, 5, 1.0)
    assert edge.endpoints == (3, 5)
    with pytest.raises(AttributeError):
        edge.endpoints = (5, 3)


def test_parallel_measurements_distinct_edges():
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1), ga.Bus(2)),
        lines=((1, 2, 1.0),),
        measurements=(
            ga.Measurement(0, ga.MeasurementKind.LINE_FLOW, 1, 2),
            ga.Measurement(1, ga.MeasurementKind.LINE_FLOW, 1, 2),
            ga.Measurement(2, ga.MeasurementKind.PHASE_ANGLE, 1),
        ),
    )
    g = ga.build_graph(sys_)
    between = [e for e in g.edges if set(e.endpoints) == {1, 2}]
    assert len(between) == 2
    assert between[0].id != between[1].id


def test_malformed_graph_rejected():
    """A hand-built graph must have the nodes 0..n in order, edges that join
    two of them and distinct edge ids, or it raises at construction rather
    than at its first cut or state shift. ``build_graph`` skips these checks,
    since a checked system's graph passes them, and keeps the system's
    measurement tuple as its edges."""
    def angle(mid, bus):
        return ga.Measurement(mid, ga.MeasurementKind.PHASE_ANGLE, bus)

    flow = ga.Measurement(2, ga.MeasurementKind.LINE_FLOW, 1, 2)
    for nodes, edges, match in (
        ((0, 2, 5), (angle(0, 2), angle(1, 5)), "nodes must be 0..2"),
        ((1, 0, 2), (angle(0, 1), angle(1, 2)), "nodes must be 0..2"),
        ((0, 1), (angle(0, 1), flow), "edge 2 joins a node outside"),
        ((0, 1, 2), (angle(0, 1), angle(0, 2), flow), "distinct"),
    ):
        with pytest.raises(ValueError, match=match):
            ga.MeasurementGraph(nodes=nodes, edges=edges)
    good = ga.MeasurementGraph(nodes=(0, 1, 2), edges=(angle(0, 1), angle(1, 2), flow))
    plan = ga.design(ga.AttackType.HIDDEN_INJECTION, good, ga.CostModel(1, 0.5, 0.25))
    assert plan.cut.edges == (0, 1) and plan.injection_state_shift == (1, 1, 0)
    sys_ = triangle_system()
    assert ga.build_graph(sys_).edges is sys_.measurements


def test_ieee14_graph_shape():
    case = ga.load_case("ieee14")
    sys_ = ga.place_measurements(case, 0.6, 0.0, seed=3)
    g = ga.build_graph(sys_)
    assert len(g.nodes) == 15
    assert len(g.edges) == 28


def test_unobservable_without_angles():
    case = ga.load_case("ieee14")
    with pytest.raises(ga.UnobservableSystem):
        ga.place_measurements(case, angle_fraction=0.0, secure_fraction=0.0, seed=0)


def test_cut_edges_e1_examples():
    g = triangle_graph()
    cut1 = ga.cut_edges(g, {1})
    assert cut1.edges == (0, 1) and cut1.n_secure == 1 and cut1.n_insecure == 1
    cut2 = ga.cut_edges(g, {2})
    assert cut2.edges == (0, 2) and cut2.n_secure == 0 and cut2.n_insecure == 2
    cut12 = ga.cut_edges(g, {1, 2})
    assert cut12.edges == (1, 2) and cut12.n_secure == 1 and cut12.n_insecure == 1


def test_cut_edges_weighted():
    g = triangle_graph()
    weights = {0: 0.25, 1: 0.5, 2: 0.25}
    cut = cut_from_side(g.edges, [weights[e.id] for e in g.edges], frozenset({2}))
    assert cut.weight == pytest.approx(0.5)
    assert cut.edges == ga.cut_edges(g, {2}).edges


def test_cut_edges_rejects_improper_subsets():
    g = triangle_graph()
    for bad in (set(), {0, 1, 2}, {7}):
        with pytest.raises(ValueError):
            ga.cut_edges(g, bad)


def test_cut_matches_nonzero_matrix_rows():
    """A cut's edges are exactly the rows where H times the side indicator is nonzero."""
    rng = random.Random(5)
    for _ in range(30):
        sys_ = random_system(rng)
        g = ga.build_graph(sys_)
        H = ga.build_matrix(sys_)
        nodes = set(g.nodes)
        side = {v for v in nodes if rng.random() < 0.5}
        if ga.REFERENCE_BUS in side:
            side = nodes - side  # same cut, indicator keeps a zero reference entry
        if not side:
            continue
        indicator = np.zeros(len(nodes))
        for v in side:
            indicator[g.state_index(v)] = 1.0
        rows = np.nonzero(np.abs(H @ indicator) > 1e-12)[0]
        cut = ga.cut_edges(g, side)
        row_ids = tuple(sorted(sys_.measurements[k].id for k in rows))
        assert row_ids == cut.edges


def test_cut_complement_symmetry():
    rng = random.Random(6)
    for _ in range(20):
        sys_ = random_system(rng)
        g = ga.build_graph(sys_)
        nodes = set(g.nodes)
        side = {v for v in nodes if rng.random() < 0.5}
        if not side or side == nodes:
            continue
        a = ga.cut_edges(g, side)
        b = ga.cut_edges(g, nodes - side)
        assert a.edges == b.edges and a.n_secure == b.n_secure


def test_rank_full_iff_graph_connected():
    rng = random.Random(7)
    for _ in range(20):
        sys_ = random_system(rng)
        # connected by construction: both must succeed
        ga.build_graph(sys_)
        H = ga.build_matrix(sys_)
        assert np.linalg.matrix_rank(H[:, : sys_.n]) == sys_.n
    # drop all angle measurements: reference node disconnects, rank falls
    sys_ = random_system(rng, n_buses=4, m=10)
    flows_only = [m for m in sys_.measurements if m.kind is ga.MeasurementKind.LINE_FLOW]
    if flows_only and len(flows_only) < sys_.m:
        reduced = ga.remove_measurements(
            sys_, [m.id for m in sys_.measurements if m.kind is ga.MeasurementKind.PHASE_ANGLE]
        )
        with pytest.raises(ga.UnobservableSystem):
            ga.build_graph(reduced)
        with pytest.raises(ga.UnobservableSystem):
            ga.build_matrix(reduced)


def test_remove_measurements_keeps_ids():
    sys_ = triangle_system()
    reduced = ga.remove_measurements(sys_, [1])
    assert [m.id for m in reduced.measurements] == [0, 2]
    assert reduced.m == 2 and len(reduced.noise_variance) == 2


def test_remove_measurements_equals_constructed_system():
    """The unchecked subset equals the system the constructor builds from the kept rows."""
    rng = random.Random(12)
    for trial in range(60):
        sys_ = random_system(rng)
        if trial % 2:
            variances = tuple(rng.uniform(1e-4, 1e-2) for _ in range(sys_.m))
            sys_ = ga.MeasurementSystem(sys_.buses, sys_.lines, sys_.measurements, variances)
        drop = {m.id for m in sys_.measurements if rng.random() < 0.3}
        kept = [k for k, m in enumerate(sys_.measurements) if m.id not in drop]
        want = ga.MeasurementSystem(
            buses=sys_.buses,
            lines=sys_.lines,
            measurements=tuple(sys_.measurements[k] for k in kept),
            noise_variance=tuple(sys_.noise_variance[k] for k in kept),
        )
        got = ga.remove_measurements(sys_, drop)
        assert type(got) is ga.MeasurementSystem and got == want
        assert got.observable == want.observable
        if want.observable:
            assert np.array_equal(ga.build_matrix(got), ga.build_matrix(want))


def test_observability_checked_once_per_system(monkeypatch):
    calls = []
    search = ga.MeasurementSystem.observable.func

    def counted(system):
        calls.append(system)
        return search(system)

    monkeypatch.setattr(ga.MeasurementSystem.observable, "func", counted)
    sys_ = ga.place_measurements(ga.load_case("ieee14"), 0.5, 0.3, seed=3)
    ga.build_graph(sys_)
    ga.build_matrix(sys_)
    assert len(calls) == 0  # the lines join every bus and an angle meter is placed
    twin = ga.remove_measurements(sys_, [])
    ga.build_graph(twin)
    ga.build_matrix(twin)
    assert len(calls) == 0  # a copy that keeps every row takes its input's answer
    # a disconnected system raises on every call, through every entry point
    split = ga.remove_measurements(
        sys_, [m.id for m in sys_.measurements if m.kind is ga.MeasurementKind.PHASE_ANGLE]
    )
    check_observable = grid_module.check_observable
    for check in (check_observable, ga.build_graph, ga.build_matrix, check_observable):
        with pytest.raises(ga.UnobservableSystem):
            check(split)
    assert len(calls) == 1


def test_observable_matches_graph_search_on_random_removals():
    """A system's observability agrees with the conftest union-find on its rows, for
    random systems less random removal sets. Parallel meters are common, and
    often a pair loses one of them but keeps another: merging them would
    change the answer."""
    rng = random.Random(13)
    seen = collections.Counter()
    for _ in range(150):
        sys_ = random_system(rng)
        for removed in random_removals(rng, sys_, 8):
            kept = [m.endpoints for m in sys_.measurements if m.id not in removed]
            want = reference_connected(range(sys_.n + 1), kept)
            assert ga.remove_measurements(sys_, removed).observable == want
            touched = {frozenset(m.endpoints) for m in sys_.measurements if m.id in removed}
            merged = [p for p in kept if frozenset(p) not in touched]
            seen[want] += 1
            seen["parallel"] += reference_connected(range(sys_.n + 1), merged) != want
    assert seen[True] >= 200 and seen[False] >= 300 and seen["parallel"] >= 100, seen


def test_measurement_validation():
    with pytest.raises(ValueError):
        ga.Measurement(0, ga.MeasurementKind.LINE_FLOW, 1, 1)
    with pytest.raises(ValueError):
        ga.Measurement(0, ga.MeasurementKind.PHASE_ANGLE, 1, susceptance=2.0)
    with pytest.raises(ValueError):
        ga.Measurement(0, ga.MeasurementKind.PHASE_ANGLE, 0)


@pytest.mark.parametrize("b", [1e308, 1e7, 1e-7, 0.0, float("nan")])
def test_susceptance_outside_range_rejected(b):
    with pytest.raises(ValueError):
        ga.Measurement(0, ga.MeasurementKind.LINE_FLOW, 1, 2, susceptance=b)
    with pytest.raises(ValueError):
        ga.MeasurementSystem(
            buses=(ga.Bus(0, is_reference=True), ga.Bus(1), ga.Bus(2)),
            lines=((1, 2, b),),
            measurements=(),
        )


@pytest.mark.parametrize("v", [0.0, -1e-4, float("nan"), float("inf"), 1e-300, 1e300])
def test_noise_variance_outside_range_rejected(v):
    """A NaN variance used to end in a LinAlgError, an infinite one silently
    dropped its meter from the residual test, and one near 1e-300 raised only
    at estimation time, once an ordinary measurement whitened past the limit."""
    lo, hi = grid_module.NOISE_VARIANCE_RANGE
    with pytest.raises(ValueError, match=re.escape(f"noise variances must lie in [{lo:g}, {hi:g}]")):
        ga.MeasurementSystem(**{**vars(triangle_system()), "noise_variance": (1e-4, v, 1e-4)})


def test_observability_is_decided_by_the_graph():
    """Each system's matrix is built once, read-only; disconnection raises."""
    sys_ = triangle_system()
    H = ga.build_matrix(sys_)
    assert ga.build_matrix(sys_) is H and not H.flags.writeable
    # a value-equal system built separately gets its own matrix
    assert ga.build_matrix(ga.remove_measurements(sys_, [])) is not H
    with pytest.raises(ga.UnobservableSystem):
        ga.build_matrix(ga.remove_measurements(sys_, [1, 2]))
