"""Plan execution against the estimator and outcome classification."""

import dataclasses
import random

import numpy as np
import pytest

import gridattack as ga
from gridattack.attack import AttackType
from conftest import triangle_system, random_cost, random_system

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
    verdict = ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE, alpha=1.0)
    assert verdict.success and verdict.stealthy and verdict.estimate_changed
    # the cut isolates bus 2: its estimate moves by exactly alpha
    assert verdict.final_shift == pytest.approx([0.0, 1.0, 0.0], abs=1e-9)


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


def test_detectable_with_residue_trips_then_survives_removal():
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1), ga.Bus(2)),
        lines=((1, 2, 1.0),),
        measurements=tuple(
            ga.Measurement(k, ga.MeasurementKind.LINE_FLOW, 1, 2) for k in range(3)
        ) + (ga.Measurement(3, ga.MeasurementKind.PHASE_ANGLE, 1, secure=True),),
    )
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
        sys_, np.zeros(3), plan, cfg, alpha=1.0, noise_rng=np.random.default_rng(7)
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
    for plan in (
        ga.hidden_generalized(g, ga.CostModel(1, 0.5, 0.25)),
        ga.detectable_generalized(g, ga.CostModel(1, 0.8, 0.6)),
    ):
        built.clear()
        ga.execute(sys_, np.zeros(3), plan, EXHAUSTIVE)
        assert len(built) == 1 and built[0] is not sys_
        assert not built[0].matrix.flags.writeable
    # the input system's matrix is never built, so repeated runs redo the work
    assert "matrix" not in vars(sys_)


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
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1), ga.Bus(2)),
        lines=((1, 2, 1.0),),
        measurements=tuple(
            ga.Measurement(k, ga.MeasurementKind.LINE_FLOW, 1, 2) for k in range(3)
        ) + (ga.Measurement(3, ga.MeasurementKind.PHASE_ANGLE, 1, secure=True),),
    )
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
