"""Plan execution against the estimator and outcome classification."""

import collections
import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridattack as ga
from gridattack import verify
from gridattack.attack import AttackType
from gridattack.grid import SUSCEPTANCE_RANGE
from gridattack.verify import ALPHA_RANGE
from conftest import (
    describe_verdict, triangle_system, random_cost, random_edge_list, random_removals,
    random_system, reference_connected,
)

EXHAUSTIVE = ga.DetectorConfig(removal_mode=ga.RemovalMode.EXHAUSTIVE_MINIMAL)


def _noop_plan(graph) -> ga.AttackPlan:
    cut = ga.cut_edges(graph, {1})
    return ga.AttackPlan(
        attack_type=AttackType.HIDDEN_GENERALIZED,
        cut=cut,
        injected=frozenset(),
        jammed_insecure=frozenset(),
        jammed_secure=frozenset(),
        injection_state_shift=(0,) * len(graph.nodes),
        total_cost=0.0,
    )


def test_empty_plan_is_silent_noop():
    sys_ = triangle_system()
    verdict = ga.execute(sys_, np.zeros(3), _noop_plan(ga.build_graph(sys_)), EXHAUSTIVE)
    assert verdict.stealthy
    assert not verdict.estimate_changed
    assert not verdict.survived_injection


def test_hidden_generalized_on_e1_shifts_cut_side():
    sys_ = triangle_system()
    g = ga.build_graph(sys_)
    plan = ga.hidden_generalized(g, ga.CostModel(1, 0.5, 0.25))
    verdict = ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE, alpha=0.5)
    assert verdict.success and verdict.stealthy and verdict.estimate_changed
    # the cut isolates bus 2: its estimate moves by exactly alpha
    assert verdict.final_shift == pytest.approx([0.0, 0.5, 0.0], abs=1e-9)


def test_hidden_final_shift_matches_indicator():
    rng = random.Random(41)
    checked = 0
    for _ in range(25):
        sys_ = random_system(rng)
        g = ga.build_graph(sys_)
        cost = random_cost(rng)
        plan = ga.hidden_generalized(g, cost)
        if not isinstance(plan, ga.AttackPlan):
            continue
        truth = np.zeros(sys_.n + 1)
        verdict = ga.execute(sys_, truth, plan, EXHAUSTIVE, alpha=0.5)
        assert verdict.success
        want = 0.5 * np.asarray(plan.injection_state_shift, dtype=float)
        assert np.max(np.abs(verdict.final_shift - want)) < 1e-9
        checked += 1
    assert checked >= 10


def test_detectable_generalized_interval_one_on_triangle():
    sys_ = triangle_system()
    g = ga.build_graph(sys_)
    plan = ga.detectable_generalized(g, ga.CostModel(1, 0.8, 0.6))
    verdict = ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE)
    assert verdict.success
    assert verdict.estimate_changed and verdict.survived_injection
    # this plan jams the whole residue, so nothing is left to trip the detector
    assert not plan.untouched and verdict.stealthy


def _parallel_flows_system() -> ga.MeasurementSystem:
    """Three parallel flows between buses 1 and 2, and a secure angle on bus 1."""
    return ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1), ga.Bus(2)),
        lines=((1, 2, 1.0),),
        measurements=tuple(
            ga.Measurement(k, ga.MeasurementKind.LINE_FLOW, 1, 2) for k in range(3)
        ) + (ga.Measurement(3, ga.MeasurementKind.PHASE_ANGLE, 1, secure=True),),
    )


def test_detectable_with_residue_trips_then_survives_removal():
    sys_ = _parallel_flows_system()
    plan = ga.detectable_jamming(ga.build_graph(sys_), ga.CostModel(1, 0.8, 0.6))
    assert plan.untouched  # one flow stays untouched as removal bait
    verdict = ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE)
    assert verdict.success
    assert not verdict.stealthy  # the detector fired first
    assert verdict.report.detected
    assert verdict.report.removed == plan.untouched
    assert not plan.injected & verdict.report.removed


def test_plan_mismatch_rejected():
    sys_ = triangle_system()
    g = ga.build_graph(sys_)
    plan = ga.hidden_generalized(g, ga.CostModel(1, 0.5, 0.25))
    other = ga.remove_measurements(sys_, [2])
    with pytest.raises(ga.PlanMismatch):
        ga.execute(other, np.zeros(3), plan, EXHAUSTIVE)


def test_truth_reference_pinned():
    sys_ = triangle_system()
    g = ga.build_graph(sys_)
    plan = ga.hidden_generalized(g, ga.CostModel(1, 0.5, 0.25))
    with pytest.raises(ValueError):
        ga.execute(sys_, np.array([0.0, 0.0, 1.0]), plan, EXHAUSTIVE)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_execute_rejects_non_finite_truth(bad):
    """On the memo path, the noisy path and a hand-built plan, and nothing is kept."""
    sys_ = triangle_system()
    plan = ga.hidden_generalized(ga.build_graph(sys_), ga.CostModel(1, 0.5, 0.25))
    truth = np.array([0.1, bad, 0.0])
    for p, rng in ((plan, None), (plan, np.random.default_rng(0)),
                   (dataclasses.replace(plan, graph=None), None)):
        with pytest.raises(ValueError, match="truth must be finite"):
            ga.execute(sys_, truth, p, EXHAUSTIVE, noise_rng=rng)
    assert not plan.graph.cut_memo["verify"]


@pytest.mark.parametrize("huge", [1e308, -1e101])
def test_execute_rejects_truth_past_the_limit(huge):
    """H @ truth used to overflow with a RuntimeWarning and a NaN residual; now the
    check raises first, on every path, and nothing is kept."""
    sys_ = triangle_system()
    plan = ga.hidden_generalized(ga.build_graph(sys_), ga.CostModel(1, 0.5, 0.25))
    truth = np.array([huge, 0.0, 0.0])
    for p, rng in ((plan, None), (plan, np.random.default_rng(0)),
                   (dataclasses.replace(plan, graph=None), None)):
        with pytest.raises(ValueError, match="truth must be finite"):
            ga.execute(sys_, truth, p, EXHAUSTIVE, noise_rng=rng)
    assert not plan.graph.cut_memo["verify"]


def test_plan_mismatch_leaves_noise_rng_untouched():
    sys_ = triangle_system()
    plan = dataclasses.replace(_noop_plan(ga.build_graph(sys_)), injection_state_shift=(0, 0))
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(ga.PlanMismatch, match="state shift length"):
        ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE, noise_rng=rng)
    assert rng.bit_generator.state == before


def test_observability_break_reported_not_raised():
    sys_ = triangle_system()
    g = ga.build_graph(sys_)
    cut = ga.cut_edges(g, {1})
    # hand-built plan that jams both angle meters, stranding the reference node
    plan = ga.AttackPlan(
        attack_type=AttackType.HIDDEN_GENERALIZED,
        cut=cut,
        injected=frozenset({0}),
        jammed_insecure=frozenset({2}),
        jammed_secure=frozenset({1}),
        injection_state_shift=(1, 0, 0),
        total_cost=1.75,
    )
    verdict = ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE)
    assert not verdict.observability_ok
    assert not verdict.success


def test_jammed_observability_matches_graph_search():
    """A plan is judged unobservable exactly when the conftest union-find finds its
    jammed rows disconnect the system it runs on, its graph's or another, and
    its verdict is the same with the graph (memo) and without it."""
    rng = random.Random(8)
    seen = collections.Counter()
    for _ in range(40):
        sys_ = random_system(rng)
        # the same ids on other rows: a plan's graph may be another system's
        other = random_system(rng, n_buses=sys_.n, m=sys_.m)
        g = ga.build_graph(sys_)
        for jammed in random_removals(rng, sys_, 6):
            plan = dataclasses.replace(
                _noop_plan(g), graph=g,
                jammed_insecure=frozenset(i for i in jammed if i in g.insecure_ids),
                jammed_secure=frozenset(i for i in jammed if i in g.secure_ids),
            )
            for system in (sys_, other):
                truth = np.zeros(system.n + 1)
                got = ga.execute(system, truth, plan, EXHAUSTIVE)
                fresh = ga.execute(system, truth, dataclasses.replace(plan, graph=None), EXHAUSTIVE)
                assert describe_verdict(got) == describe_verdict(fresh)
                kept = [m.endpoints for m in system.measurements if m.id not in jammed]
                assert got.observability_ok == reference_connected(range(system.n + 1), kept)
                seen[system is sys_, got.observability_ok] += 1
    assert len(seen) == 4 and min(seen.values()) >= 50, seen  # (own system, observable)


def test_execute_keeps_nothing_on_the_system():
    """``execute`` adds no key to the system beyond the id set and noise sigma
    its input checks cache: a per-system cache would live as long as the
    system, past every graph and plan on it."""
    system = ga.place_measurements(ga.load_case("ieee14"), 0.6, 0.3, seed=5)
    graph = ga.build_graph(system)
    system.ids, system.max_noise_std  # cached by the input checks
    keys = set(vars(system))
    plans = [ga.design(t, graph, ga.CostModel(1, 0.5, 0.25)) for t in AttackType]
    plans = [p for p in plans if isinstance(p, ga.AttackPlan)]
    assert any(p.jammed for p in plans) and not all(p.jammed for p in plans)
    greedy = ga.DetectorConfig(removal_mode=ga.RemovalMode.GREEDY_NORMALIZED_RESIDUAL)
    for plan in plans:
        for g in (graph, None):
            ga.execute(system, np.zeros(system.n + 1), dataclasses.replace(plan, graph=g), greedy)
    assert set(vars(system)) == keys


def test_nonzero_truth_state():
    rng = np.random.default_rng(42)
    sys_ = triangle_system()
    g = ga.build_graph(sys_)
    plan = ga.hidden_generalized(g, ga.CostModel(1, 0.5, 0.25))
    truth = np.array([0.4, -0.7, 0.0])
    verdict = ga.execute(sys_, truth, plan, EXHAUSTIVE, alpha=0.2)
    assert verdict.success
    assert np.max(np.abs(np.abs(verdict.final_shift) - 0.2 * np.asarray(plan.injection_state_shift))) < 1e-9


def test_verdict_deterministic():
    sys_ = triangle_system()
    g = ga.build_graph(sys_)
    plan = ga.detectable_generalized(g, ga.CostModel(1, 0.8, 0.6))
    a = ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE)
    b = ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE)
    assert (a.success, a.stealthy, a.estimate_changed) == (b.success, b.stealthy, b.estimate_changed)
    assert np.array_equal(a.final_shift, b.final_shift)


def test_noise_flag_keeps_hidden_attack_hidden():
    sys_ = triangle_system()
    g = ga.build_graph(sys_)
    plan = ga.hidden_generalized(g, ga.CostModel(1, 0.5, 0.25))
    cfg = ga.DetectorConfig(threshold=0.5, removal_mode=ga.RemovalMode.EXHAUSTIVE_MINIMAL)
    verdict = ga.execute(
        sys_, np.zeros(3), plan, cfg, alpha=0.5, noise_rng=np.random.default_rng(7)
    )
    assert verdict.stealthy and verdict.estimate_changed


def test_unobservable_input_raises():
    sys_ = triangle_system()
    # flow meter only: no measurement ties the buses to the reference node
    flows_only = ga.remove_measurements(sys_, [1, 2])
    cut = ga.CutResult(frozenset({1}), (0,), 1.0, 0, 1)
    plan = dataclasses.replace(_noop_plan(ga.build_graph(sys_)), cut=cut)
    with pytest.raises(ga.UnobservableSystem):
        ga.execute(flows_only, np.zeros(3), plan, EXHAUSTIVE)


def test_execute_builds_one_read_only_matrix(monkeypatch):
    sys_ = triangle_system()
    g = ga.build_graph(sys_)
    built = []
    construct = ga.MeasurementSystem.matrix.func

    def counting(system):
        built.append(system)
        return construct(system)

    monkeypatch.setattr(ga.MeasurementSystem.matrix, "func", counting)
    hg = ga.hidden_generalized(g, ga.CostModel(1, 0.5, 0.25))
    dg = ga.detectable_generalized(g, ga.CostModel(1, 0.8, 0.6))
    # DG is HG's one-injection structure here, so the two share one estimator run
    assert (dg.jammed, dg.injected, dg.injection_state_shift) == (
        hg.jammed, hg.injected, hg.injection_state_shift
    )
    ga.execute(sys_, np.zeros(3), hg, EXHAUSTIVE)
    assert len(built) == 1 and built[0] is not sys_
    assert not built[0].matrix.flags.writeable
    built.clear()
    served = ga.execute(sys_, np.zeros(3), dg, EXHAUSTIVE)
    assert built == []
    fresh = ga.execute(sys_, np.zeros(3), dataclasses.replace(dg, graph=None), EXHAUSTIVE)
    assert len(built) == 1 and built[0] is not sys_
    assert (served.success, served.reason) == (fresh.success, fresh.reason)
    # the input system's matrix is never built, so repeated runs redo the work
    assert "matrix" not in vars(sys_)


def test_execute_memo_runs_each_distinct_estimation_once(monkeypatch):
    """A call differing from the first in one input of the estimator run runs
    it; a repeat is served from the plan graph's memo, re-typed and read-only;
    a noisy call always runs and leaves the memo alone."""
    sys_ = triangle_system()
    g = ga.build_graph(sys_)
    plan = ga.hidden_generalized(g, ga.CostModel(1, 0.5, 0.25))
    runs = []
    real_run = verify._run

    def run(*args):
        runs.append(args)
        return real_run(*args)

    monkeypatch.setattr(verify, "_run", run)
    flow = ga.MeasurementKind.LINE_FLOW
    heavier = ga.MeasurementSystem(  # value-equal layout, other susceptances
        buses=sys_.buses,
        lines=((1, 2, 2.0),),
        measurements=(ga.Measurement(0, flow, 1, 2, susceptance=2.0), *sys_.measurements[1:]),
    )
    greedy = ga.DetectorConfig(removal_mode=ga.RemovalMode.GREEDY_NORMALIZED_RESIDUAL)
    first = (sys_, np.zeros(3), plan, EXHAUSTIVE, None)
    calls = [
        first,
        (heavier, *first[1:]),
        (sys_, np.array([0.3, -0.2, 0.0]), *first[2:]),
        (*first[:3], greedy, None),
        (*first[:4], 0.3),
        (sys_, np.zeros(3), dataclasses.replace(plan, injection_state_shift=(1, 1, 0)), EXHAUSTIVE, None),
        (sys_, np.zeros(3), dataclasses.replace(plan, jammed_insecure=frozenset()), EXHAUSTIVE, None),
    ]
    for k, (system, truth, p, cfg, alpha) in enumerate(calls):
        ga.execute(system, truth, p, cfg, alpha)
        assert len(runs) == k + 1, k
    again = ga.execute(*first)
    assert len(runs) == len(calls)
    for array in (again.final_shift, again.report.estimate, again.report.final_estimate):
        with pytest.raises(ValueError):
            array[0] = 1.0

    # verify's own entry, not the memo: a copy of the memo would share that entry
    kept = dict(g.cut_memo["verify"])
    for _ in range(2):
        ga.execute(*first, noise_rng=np.random.default_rng(1))
    assert len(runs) == len(calls) + 2
    assert g.cut_memo["verify"] == kept

    reasons = set()
    for system, truth, p, cfg, alpha in calls:
        for attack_type in AttackType:
            before = len(runs)
            served = ga.execute(system, truth, dataclasses.replace(p, attack_type=attack_type), cfg, alpha)
            assert len(runs) == before
            fresh = ga.execute(
                system, truth, dataclasses.replace(p, attack_type=attack_type, graph=None), cfg, alpha
            )
            assert served.attack_type is attack_type
            assert (served.success, served.reason) == (fresh.success, fresh.reason)
            reasons.add(fresh.reason)
    assert len(reasons) >= 3, reasons


def test_memo_hit_equals_fresh_run_on_every_field(monkeypatch):
    """Whichever type runs a plan first, every type's memo hit, first and
    repeated, equals a fresh ``graph=None`` run on every verdict and report
    field."""
    runs = []
    real_run = verify._run

    def run(*args):
        runs.append(args)
        return real_run(*args)

    rng = random.Random(27)
    hits = 0
    for _ in range(8):
        sys_ = random_system(rng, secure_prob=0.3)
        g = ga.build_graph(sys_)
        truth = np.zeros(sys_.n + 1)
        cost = random_cost(rng)
        for first in AttackType:
            plan = ga.design(first, g, cost)
            if not isinstance(plan, ga.AttackPlan):
                continue
            ga.execute(sys_, truth, plan, EXHAUSTIVE)
            for attack_type in [*AttackType, *reversed(AttackType)]:
                monkeypatch.setattr(verify, "_run", run)
                served = ga.execute(
                    sys_, truth, dataclasses.replace(plan, attack_type=attack_type), EXHAUSTIVE
                )
                monkeypatch.setattr(verify, "_run", real_run)
                fresh = ga.execute(
                    sys_, truth, dataclasses.replace(plan, attack_type=attack_type, graph=None),
                    EXHAUSTIVE,
                )
                assert describe_verdict(served) == describe_verdict(fresh)
                hits += 1
    assert runs == [] and hits >= 300, (len(runs), hits)


def test_extreme_in_range_susceptances_verify_every_plan():
    """A chain 1-2 at the top of the range and 2-3 at the bottom, angles on 1 and 3."""
    flow = ga.MeasurementKind.LINE_FLOW
    angle = ga.MeasurementKind.PHASE_ANGLE
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1), ga.Bus(2), ga.Bus(3)),
        lines=((1, 2, 1e6), (2, 3, 1e-6)),
        measurements=(
            ga.Measurement(0, flow, 1, 2, susceptance=1e6),
            ga.Measurement(1, flow, 2, 3, susceptance=1e-6),
            ga.Measurement(2, angle, 1),
            ga.Measurement(3, angle, 3),
        ),
    )
    g = ga.build_graph(sys_)
    verified = 0
    for cost in (ga.CostModel(1, 0.8, 0.6), ga.CostModel(1, 0.8, 0.25), ga.CostModel(1, 0.3, 0.2)):
        for attack_type in AttackType:
            plan = ga.design(attack_type, g, cost)
            if isinstance(plan, ga.AttackPlan):
                assert ga.execute(sys_, np.zeros(4), plan, EXHAUSTIVE).success, (attack_type, cost)
                verified += 1
    assert verified >= 6


@st.composite
def _spanning_systems(draw):
    """A small system whose flow susceptances take both ends of
    ``SUSCEPTANCE_RANGE`` and log-uniform values between them."""
    lo, hi = SUSCEPTANCE_RANGE
    susceptances = st.one_of(
        st.sampled_from([lo, hi]), st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)
    )
    n_buses = draw(st.integers(1, 5))
    rng = draw(st.randoms(use_true_random=False))
    secure_prob = draw(st.sampled_from([0.0, 0.2, 0.4]))
    measurements = []
    for mid, (u, v) in enumerate(random_edge_list(rng, n_buses, draw(st.integers(n_buses, 10)))):
        secure = rng.random() < secure_prob
        if u == ga.REFERENCE_BUS:
            measurements.append(ga.Measurement(mid, ga.MeasurementKind.PHASE_ANGLE, v, secure=secure))
        else:
            measurements.append(ga.Measurement(mid, ga.MeasurementKind.LINE_FLOW, u, v,
                                               susceptance=draw(susceptances), secure=secure))
    lines = sorted({(me.bus_i, me.bus_j) for me in measurements if me.bus_j is not None})
    return ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True),) + tuple(ga.Bus(i) for i in range(1, n_buses + 1)),
        lines=tuple((i, j, 1.0) for i, j in lines),
        measurements=tuple(measurements),
    )


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_spanning_systems(), st.floats(0.0, 1.0), st.sampled_from([1.0, -1.0]))
def test_property_verdicts_hold_across_alpha_range(sys_, position, sign):
    """Every plan that verifies at the default alpha also verifies at both ends of
    ``ALPHA_RANGE``, of either sign, and at a drawn alpha log-uniform between them.

    The range comes from this property and a wider scan of such systems: a 0.01
    shift sinks under the residual threshold on the 1e-6 flows, which this
    property sees, and from about 0.8 up rounding alone trips it, which only
    the wider scan saw.
    """
    lo, hi = ALPHA_RANGE
    drawn = sign * min(max(lo * (hi / lo) ** position, lo), hi)
    graph, truth = ga.build_graph(sys_), np.zeros(sys_.n + 1)
    for cost in (ga.CostModel(1, 0.8, 0.6), ga.CostModel(1, 0.8, 0.25), ga.CostModel(1, 0.5, 0.25)):
        for attack_type in AttackType:
            plan = ga.design(attack_type, graph, cost)
            if not isinstance(plan, ga.AttackPlan):
                continue
            if not ga.execute(sys_, truth, plan, EXHAUSTIVE).success:
                continue
            for alpha in (lo, -lo, hi, -hi, drawn):
                verdict = ga.execute(sys_, truth, plan, EXHAUSTIVE, alpha=alpha)
                assert verdict.success, (attack_type, cost, alpha, verdict.reason)


@pytest.mark.parametrize("alpha", [0.0, -0.0, math.nan, math.inf, -math.inf, 1e200, 1e308, -1e308,
                                   5e-324, ALPHA_RANGE[0] * (1 - 1e-12), ALPHA_RANGE[1] * (1 + 1e-12)])
def test_execute_rejects_alpha_outside_range(alpha):
    sys_ = triangle_system()
    plan = ga.hidden_generalized(ga.build_graph(sys_), ga.CostModel(1, 0.5, 0.25))
    with pytest.raises(ValueError, match=r"alpha must satisfy 0.02 <= \|alpha\| <= 0.5"):
        ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE, alpha=alpha)


@pytest.mark.parametrize("variance", [1e-12, 1e-8, 1.0, 1e12])
def test_execute_rejects_default_alpha_outside_range(variance):
    """The default alpha, ten noise sigmas, is held to ``ALPHA_RANGE`` as a given
    one is; a given alpha inside the range still runs on the same system."""
    sys_ = dataclasses.replace(triangle_system(), noise_variance=(variance,) * 3)
    plan = ga.hidden_generalized(ga.build_graph(sys_), ga.CostModel(1, 0.5, 0.25))
    match = r"alpha must satisfy 0.02 <= \|alpha\| <= 0.5, got .* \(the default, ten noise sigmas\)"
    with pytest.raises(ValueError, match=match):
        ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE)
    assert ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE, alpha=0.1).observability_ok


def _triangle_plan(attack_type, side, injected, jammed_insecure=(), jammed_secure=()):
    sys_ = triangle_system()
    cut = ga.cut_edges(ga.build_graph(sys_), side)
    shift = tuple(int(v in side) for v in (1, 2, 0))
    plan = ga.AttackPlan(
        attack_type=attack_type,
        cut=cut,
        injected=frozenset(injected),
        jammed_insecure=frozenset(jammed_insecure),
        jammed_secure=frozenset(jammed_secure),
        injection_state_shift=shift,
        total_cost=1.0,
    )
    return sys_, plan


def test_verdict_reason_none_on_success():
    sys_ = triangle_system()
    plan = ga.hidden_generalized(ga.build_graph(sys_), ga.CostModel(1, 0.5, 0.25))
    verdict = ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE)
    assert verdict.success and verdict.reason is None


def test_verdict_reason_unobservable():
    # jams both angle meters, stranding the reference node
    sys_, plan = _triangle_plan(AttackType.HIDDEN_GENERALIZED, {1}, {0}, {2}, {1})
    assert ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE).reason == "unobservable"


def test_verdict_reason_detected_and_removal_failed():
    # injects the flow of cut {1} but leaves its angle meter untouched
    sys_, plan = _triangle_plan(AttackType.HIDDEN_GENERALIZED, {1}, {0})
    verdict = ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE)
    assert not verdict.stealthy and verdict.reason == "detected"
    no_removal = ga.DetectorConfig(max_removals=0)
    assert ga.execute(sys_, np.zeros(3), plan, no_removal).reason == "removal-failed"


def test_verdict_reason_estimate_unchanged():
    sys_ = triangle_system()
    verdict = ga.execute(sys_, np.zeros(3), _noop_plan(ga.build_graph(sys_)), EXHAUSTIVE)
    assert verdict.stealthy and verdict.reason == "estimate-unchanged"


def test_verdict_reason_injection_removed():
    # three parallel flows cut bus 2 off; one injected among two untouched is outvoted
    sys_ = _parallel_flows_system()
    plan = ga.AttackPlan(
        attack_type=AttackType.DETECTABLE_INJECTION,
        cut=ga.cut_edges(ga.build_graph(sys_), {2}),
        injected=frozenset({0}),
        jammed_insecure=frozenset(),
        jammed_secure=frozenset(),
        injection_state_shift=(0, 1, 0),
        total_cost=1.0,
    )
    verdict = ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE)
    assert verdict.report.removed == {0}
    assert verdict.reason == "injection-removed"


def test_retyped_verdict_judges_like_a_fresh_run():
    """A verdict re-typed with ``dataclasses.replace`` gives the same success
    and reason as executing the plan as the other type, also where the two
    families judge one estimator run differently."""
    parallel = _parallel_flows_system()
    trip_then_survive = ga.detectable_jamming(ga.build_graph(parallel), ga.CostModel(1, 0.8, 0.6))
    cases = [
        _triangle_plan(AttackType.HIDDEN_GENERALIZED, {1}, {0}),  # detected
        (triangle_system(), _noop_plan(ga.build_graph(triangle_system()))),
        (parallel, trip_then_survive),
        _triangle_plan(AttackType.HIDDEN_GENERALIZED, {1}, {0}, {2}, {1}),  # unobservable
    ]
    split_success = split_judgement = 0
    for sys_, plan in cases:
        verdict = ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE)
        for other in AttackType:
            fresh = ga.execute(
                sys_, np.zeros(3), dataclasses.replace(plan, attack_type=other), EXHAUSTIVE
            )
            retyped = dataclasses.replace(verdict, attack_type=other)
            assert (retyped.success, retyped.reason) == (fresh.success, fresh.reason)
            split_success += retyped.success != verdict.success
            split_judgement += retyped.reason != verdict.reason
    # the trip-then-survive plan fails as each hidden type; the detected and
    # the no-op plans fail as each detectable type for another reason
    assert split_success == 3 and split_judgement == 9
