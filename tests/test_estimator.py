"""Weighted least squares, detection, and bad-data removal."""

import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridattack as ga
from gridattack import estimator
from conftest import (
    count_screened, parallel_bundle_case, random_edge_list, reference_connected,
    triangle_system, random_system,
)

EXHAUSTIVE = ga.DetectorConfig(removal_mode=ga.RemovalMode.EXHAUSTIVE_MINIMAL)
GREEDY = ga.DetectorConfig(removal_mode=ga.RemovalMode.GREEDY_NORMALIZED_RESIDUAL)
NEVER = ga.DetectorConfig(threshold=float("inf"))  # the plain WLS solve: no detection, no removal


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.normal(size=n + 1)
    x[-1] = 0.0
    return x


def test_wls_recovers_noiseless_state():
    rng_sys = random.Random(31)
    rng = np.random.default_rng(31)
    for _ in range(20):
        sys_ = random_system(rng_sys)
        H = ga.build_matrix(sys_)
        x = _random_state(rng, sys_.n)
        got = ga.detect_and_remove(sys_, H @ x, NEVER).estimate
        assert np.max(np.abs(got - x)) < 1e-9


def test_wls_hidden_shift_identity():
    rng_sys = random.Random(32)
    rng = np.random.default_rng(32)
    for _ in range(20):
        sys_ = random_system(rng_sys)
        H = ga.build_matrix(sys_)
        x = _random_state(rng, sys_.n)
        c = _random_state(rng, sys_.n)
        got = ga.detect_and_remove(sys_, H @ x + H @ c, NEVER).estimate
        assert np.max(np.abs(got - (x + c))) < 1e-9


def test_wls_residual_orthogonal_to_columns():
    rng_sys = random.Random(33)
    rng = np.random.default_rng(33)
    for _ in range(10):
        sys_ = random_system(rng_sys, m=18)
        H = ga.build_matrix(sys_)
        z = H @ _random_state(rng, sys_.n) + rng.normal(0, 0.01, size=sys_.m)
        x = ga.detect_and_remove(sys_, z, NEVER).estimate
        sigma_inv = 1.0 / np.asarray(sys_.noise_variance)
        normal_eq = H[:, : sys_.n].T @ (sigma_inv * (z - H @ x))
        assert np.max(np.abs(normal_eq)) < 1e-8


def test_wls_rejects_wrong_length():
    sys_ = triangle_system()
    with pytest.raises(ValueError, match="length 3"):
        ga.detect_and_remove(sys_, np.zeros(5))


def test_clean_vector_not_detected():
    sys_ = triangle_system()
    H = ga.build_matrix(sys_)
    x = np.array([0.3, -0.2, 0.0])
    report = ga.detect_and_remove(sys_, H @ x)
    assert not report.detected
    assert report.removed == frozenset()
    assert np.allclose(report.final_estimate, report.estimate)


def test_single_corruption_removed_by_both_modes():
    rng_sys = random.Random(34)
    rng = np.random.default_rng(34)
    unambiguous = 0
    for _ in range(20):
        sys_ = random_system(rng_sys, m=12)
        H = ga.build_matrix(sys_)
        x = _random_state(rng, sys_.n)
        z = H @ x
        bad = int(rng.integers(sys_.m))
        try:
            # a critical measurement (graph bridge) absorbs corruption silently
            ga.build_graph(ga.remove_measurements(sys_, [sys_.measurements[bad].id]))
        except ga.UnobservableSystem:
            continue
        z_bad = z.copy()
        z_bad[bad] += 5.0
        passing = [m.id for m in sys_.measurements if _passes(sys_, z_bad, [m.id])]
        exhaustive = ga.detect_and_remove(sys_, z_bad, EXHAUSTIVE)
        greedy = ga.detect_and_remove(sys_, z_bad, GREEDY)
        assert exhaustive.detected and greedy.detected
        assert exhaustive.final_residual_norm < 1e-9
        assert len(exhaustive.removed) == 1 and set(exhaustive.removed) <= set(passing)
        if passing == [sys_.measurements[bad].id]:
            # the corruption is uniquely identifiable: both modes must find it
            assert exhaustive.removed == greedy.removed == frozenset({sys_.measurements[bad].id})
            unambiguous += 1
    assert unambiguous >= 5


def test_hidden_shift_not_detected():
    sys_ = triangle_system()
    H = ga.build_matrix(sys_)
    x = np.array([0.1, 0.2, 0.0])
    c = np.array([0.0, 1.0, 0.0])
    report = ga.detect_and_remove(sys_, H @ x + H @ c)
    assert not report.detected
    assert np.max(np.abs(report.final_estimate - (x + c))) < 1e-9


def test_residual_invariance_under_column_space_shift():
    rng_sys = random.Random(35)
    rng = np.random.default_rng(35)
    for _ in range(15):
        sys_ = random_system(rng_sys)
        H = ga.build_matrix(sys_)
        z = H @ _random_state(rng, sys_.n) + rng.normal(0, 0.05, size=sys_.m)
        c = _random_state(rng, sys_.n)
        r_base = ga.detect_and_remove(sys_, z, NEVER).residual_norm
        r_shift = ga.detect_and_remove(sys_, z + H @ c, NEVER).residual_norm
        assert abs(r_shift - r_base) <= 1e-9 * max(1.0, r_base)


def _passes(sys_, z, removed_ids):
    """Whether the rest passes the residual test, the residual taken apart from the estimator."""
    reduced = ga.remove_measurements(sys_, removed_ids)
    keep = [k for k, m in enumerate(sys_.measurements) if m.id not in set(removed_ids)]
    try:
        x = ga.detect_and_remove(reduced, z[keep], NEVER).estimate
    except ga.UnobservableSystem:
        return False
    w = 1.0 / np.sqrt(reduced.noise_variance)
    return np.linalg.norm((z[keep] - ga.build_matrix(reduced) @ x) * w) <= 1e-6


def test_exhaustive_removal_is_minimal():
    """No smaller observability-preserving subset passes the residual test."""
    rng_sys = random.Random(36)
    rng = np.random.default_rng(36)
    checked = 0
    for _ in range(12):
        sys_ = random_system(rng_sys, n_buses=4, m=10)
        H = ga.build_matrix(sys_)
        z = H @ _random_state(rng, sys_.n)
        ids = [m.id for m in sys_.measurements]
        for bad in rng.choice(sys_.m, size=2, replace=False):
            z[bad] += rng.normal(3.0, 1.0)
        try:
            report = ga.detect_and_remove(sys_, z, EXHAUSTIVE)
        except ga.RemovalFailed:
            continue
        k = len(report.removed)
        for size in range(0, k):
            for combo in itertools.combinations(ids, size):
                assert not _passes(sys_, z, combo), (combo, report.removed)
        checked += 1
    assert checked >= 5


def test_removal_preserves_graph_connectivity():
    rng_sys = random.Random(37)
    rng = np.random.default_rng(37)
    for _ in range(10):
        sys_ = random_system(rng_sys, m=12)
        H = ga.build_matrix(sys_)
        z = H @ _random_state(rng, sys_.n)
        z[int(rng.integers(sys_.m))] += 4.0
        try:
            report = ga.detect_and_remove(sys_, z, EXHAUSTIVE)
        except ga.RemovalFailed:
            continue
        ga.build_graph(ga.remove_measurements(sys_, report.removed))  # must not raise


def test_budget_zero_raises_removal_failed():
    sys_ = triangle_system()
    H = ga.build_matrix(sys_)
    z = H @ np.array([0.1, -0.3, 0.0])
    z[0] += 2.0
    cfg = ga.DetectorConfig(max_removals=0)
    with pytest.raises(ga.RemovalFailed):
        ga.detect_and_remove(sys_, z, cfg)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.randoms(use_true_random=False), st.sampled_from(list(ga.RemovalMode)),
       st.sampled_from([ga.DetectorConfig().threshold, 1e-3, 1.0]))
def test_only_max_removals_makes_removal_fail(rng, mode, threshold):
    """Without ``max_removals`` removal may go down to a spanning tree, which fits any
    measurements, so a corrupted, possibly noisy, run never raises RemovalFailed; with
    one removal fewer than that run made, it always does."""
    sys_ = random_system(rng, n_buses=rng.randint(1, 5), m=rng.randint(2, 9))
    np_rng = np.random.default_rng(rng.getrandbits(32))
    z = ga.build_matrix(sys_) @ _random_state(np_rng, sys_.n)
    for k in rng.sample(range(sys_.m), rng.randint(1, min(3, sys_.m))):
        z[k] += rng.choice([-1, 1]) * rng.choice([1e-3, 0.3, 5.0])
    if rng.random() < 0.3:
        z += np_rng.normal(0.0, 0.01, size=sys_.m)
    cfg = ga.DetectorConfig(threshold=threshold, removal_mode=mode)
    report = ga.detect_and_remove(sys_, z, cfg)
    assert report.final_residual_norm <= threshold
    if report.detected:
        tight = dataclasses.replace(cfg, max_removals=len(report.removed) - 1)
        with pytest.raises(ga.RemovalFailed):
            ga.detect_and_remove(sys_, z, tight)


def test_exhaustive_removal_raises_before_a_size_past_the_cap(monkeypatch):
    """On the parallel bundle, whose smallest passing removal has nine of 76
    rows, exhaustive removal walks sizes 1-3 and raises ``TooLarge`` before
    size 4 would take the count past the cap, within a second; it does not
    return a verdict."""
    blocks = count_screened(monkeypatch)
    system = ga.system_from_case(ga.parse_case(parallel_bundle_case()))
    plan = ga.detectable_injection(ga.build_graph(system), ga.CostModel(1, 0.8, 0.6))
    assert len(plan.injected) == 10 and len(plan.untouched) == 9
    start = time.perf_counter()
    with pytest.raises(ga.TooLarge, match="up to 4 of 76 measurements counts 1356201 subsets"):
        ga.execute(system, np.zeros(system.n + 1), plan, EXHAUSTIVE)
    assert time.perf_counter() - start < 1.0
    assert sum(blocks) == sum(math.comb(76, k) for k in (1, 2, 3))
    assert ga.execute(system, np.zeros(system.n + 1), plan, GREEDY).success


def test_detector_threshold_validation():
    for bad in (-1.0, math.nan):  # a NaN threshold would never detect
        with pytest.raises(ValueError, match="threshold"):
            ga.DetectorConfig(threshold=bad)
    with pytest.raises(ValueError):
        ga.DetectorConfig(max_removals=-2)
    assert not ga.detect_and_remove(triangle_system(), [5.0, 0.0, 0.0], NEVER).detected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_measurement_rejected(bad):
    """It used to report "not detected" with a NaN residual."""
    sys_ = triangle_system()
    z = ga.build_matrix(sys_) @ np.array([0.1, -0.3, 0.0])
    z[1] = bad
    for cfg in (EXHAUSTIVE, GREEDY, NEVER):
        with pytest.raises(ValueError, match="measurement vector must be finite"):
            ga.detect_and_remove(sys_, z, cfg)


@pytest.mark.parametrize("huge", [5e307, -1e308, 1e101])
def test_measurement_past_whitened_limit_rejected(huge):
    """z * w used to overflow with a RuntimeWarning and report "not detected" with a
    NaN residual; now the check raises first. At sigma 0.01, 1e101 is past the limit."""
    for cfg in (EXHAUSTIVE, GREEDY, NEVER):
        with pytest.raises(ValueError, match="measurement vector must be finite"):
            ga.detect_and_remove(triangle_system(), [huge, 0.0, 0.0], cfg)


def test_measurement_at_whitened_limit_runs_without_overflow():
    """|z_k| / sigma_k equal to the limit runs through detection and both removals
    without a RuntimeWarning, which the test configuration turns into an error."""
    sys_ = triangle_system()
    sigma = np.sqrt(np.asarray(sys_.noise_variance))
    finished = 0
    for signs in ((1, 0, 0), (1, 1, -1), (-1, 1, 1)):
        z = estimator.WHITENED_LIMIT * sigma * np.array(signs)
        for cfg in (EXHAUSTIVE, GREEDY, NEVER):
            try:
                report = ga.detect_and_remove(sys_, z, cfg)
            except ga.RemovalFailed:  # no subset passes the 1e-6 threshold at this scale
                continue
            assert math.isfinite(report.residual_norm)
            assert np.isfinite(report.final_estimate).all()
            finished += 1
    assert finished >= 5


def test_report_keeps_numpy_norm_and_reference_column():
    """The residual is numpy's vector norm, bit for bit, and each estimate is its own
    array with the reference angle 0 appended."""
    rng = random.Random(58)
    for _ in range(30):
        sys_ = random_system(rng)
        z = np.array([rng.uniform(-1, 1) for _ in range(sys_.m)])
        report = ga.detect_and_remove(sys_, z, NEVER)
        Hw, w = estimator._whitened(sys_)
        x = np.linalg.lstsq(Hw, z * w, rcond=None)[0]
        assert report.residual_norm == float(np.linalg.norm(z * w - Hw @ x))
        assert type(report.residual_norm) is float
        assert report.estimate.tobytes() == np.append(x, 0.0).tobytes()
        assert report.estimate is not report.final_estimate
        assert report.final_estimate.tobytes() == report.estimate.tobytes()


def test_chi_square_threshold():
    loose = ga.chi_square_threshold(28, 14, confidence=0.99)
    tight = ga.chi_square_threshold(28, 14, confidence=0.9)
    assert loose > tight > 0
    with pytest.raises(ValueError):
        ga.chi_square_threshold(10, 10)
    for bad in (0.0, 1.0, 1.5, -0.5, math.nan):
        with pytest.raises(ValueError, match="confidence"):
            ga.chi_square_threshold(28, 14, confidence=bad)


def test_package_import_leaves_scipy_stats_unloaded():
    """scipy.stats is most of the package's import time; only the chi-square bound needs it."""
    src = Path(ga.__file__).resolve().parent.parent
    probe = "import sys, gridattack; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_noisy_run_with_chi_square_threshold():
    rng_sys = random.Random(38)
    rng = np.random.default_rng(38)
    false_alarms = 0
    trials = 40
    for _ in range(trials):
        sys_ = random_system(rng_sys, m=16)
        H = ga.build_matrix(sys_)
        z = H @ _random_state(rng, sys_.n)
        z = z + rng.normal(0, 0.01, size=sys_.m)
        cfg = ga.DetectorConfig(threshold=ga.chi_square_threshold(sys_.m, sys_.n))
        report = ga.detect_and_remove(sys_, z, cfg)
        false_alarms += report.detected
    assert false_alarms <= trials // 4  # 2.5% nominal rate, generous margin


# --- the exhaustive-removal screen against the unscreened subset search ---


def _reference_exhaustive_removal(sys_, Hw, zw, threshold, budget):
    """Unscreened search: a connectivity check and an lstsq for every subset, in order."""
    pairs = [meas.endpoints for meas in sys_.measurements]
    for size in range(1, budget + 1):
        for combo in itertools.combinations(range(sys_.m), size):
            kept = [p for k, p in enumerate(pairs) if k not in combo]
            if not reference_connected(range(sys_.n + 1), kept):
                continue
            keep = [k for k in range(sys_.m) if k not in combo]
            x, *_ = np.linalg.lstsq(Hw[keep], zw[keep], rcond=None)
            r = float(np.linalg.norm(zw[keep] - Hw[keep] @ x))
            if r <= threshold:
                return set(combo), x, r
    return None


def _assert_same_removal(sys_, z, threshold, budget):
    Hw, w = estimator._whitened(sys_)
    zw = z * w
    got = estimator._exhaustive_removal(sys_, Hw, zw, threshold, budget)
    want = _reference_exhaustive_removal(sys_, Hw, zw, threshold, budget)
    if want is None:
        assert got is None
        return None
    assert got is not None
    removed, x, r = got
    ids = {sys_.measurements[k].id for k in removed}
    assert ids == {sys_.measurements[k].id for k in want[0]}
    assert x.tobytes() == want[1].tobytes()
    assert r.hex() == want[2].hex()
    return ids


_SUSCEPTANCES = st.one_of(
    st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
    st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
)
_MAGNITUDES = st.sampled_from([0.0, 1e-7, 1e-3, 0.3, 1.0, 1e3])


@st.composite
def _removal_cases(draw):
    """A system with parallel meters, extreme susceptances and critical sets, and
    corrupted, optionally noisy, measurements under a range of thresholds."""
    n_buses = draw(st.integers(1, 4))
    m = draw(st.integers(n_buses, 10))  # m == n_buses: every measurement is critical
    rng = draw(st.randoms(use_true_random=False))
    measurements = []
    for mid, (u, v) in enumerate(random_edge_list(rng, n_buses, m)):
        if u == ga.REFERENCE_BUS:
            measurements.append(ga.Measurement(mid, ga.MeasurementKind.PHASE_ANGLE, v))
        else:
            measurements.append(ga.Measurement(mid, ga.MeasurementKind.LINE_FLOW, u, v,
                                               susceptance=draw(_SUSCEPTANCES)))
    variances = draw(st.one_of(
        st.just(()),
        st.lists(st.sampled_from([1e-8, 1e-4, 1e-2, 1.0]), min_size=m, max_size=m).map(tuple),
    ))
    lines = sorted({(me.bus_i, me.bus_j) for me in measurements if me.bus_j is not None})
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True),) + tuple(ga.Bus(i) for i in range(1, n_buses + 1)),
        lines=tuple((i, j, 1.0) for i, j in lines),
        measurements=tuple(measurements),
        noise_variance=variances,
    )
    state = draw(st.lists(st.one_of(_MAGNITUDES, st.floats(-2.0, 2.0)),
                          min_size=n_buses, max_size=n_buses))
    z = ga.build_matrix(sys_) @ np.array(state + [0.0])
    for k, sign, size in draw(st.lists(st.tuples(st.integers(0, m - 1), st.sampled_from([-1, 1]),
                                                 _MAGNITUDES), min_size=1, max_size=3)):
        z[k] += sign * size
    noise = draw(st.sampled_from([0.0, 0.0, 1e-3, 1.0]))
    if noise:
        z += noise * np.sqrt(sys_.noise_variance) * np.random.default_rng(rng.getrandbits(32)).normal(size=m)
    threshold = draw(st.sampled_from([ga.DetectorConfig().threshold, 1e-3, 1.0, 3.0]))
    budget = draw(st.integers(0, sys_.m - sys_.n))
    return sys_, z, threshold, budget


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_removal_cases())
def test_screened_exhaustive_removal_matches_unscreened(case):
    """Same subset, estimate bytes and residual as the unscreened search, or None for both."""
    _assert_same_removal(*case)


def test_screen_passes_ill_conditioned_subset_through():
    """Removing the 1e6 flow alone keeps 1-2 joined by the 1e-6 flow, so the graph stays
    connected while its Omega_RR is about 5e-13: the screen must leave it to lstsq."""
    flow, angle = ga.MeasurementKind.LINE_FLOW, ga.MeasurementKind.PHASE_ANGLE
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1), ga.Bus(2)),
        lines=((1, 2, 1.0),),
        measurements=(
            ga.Measurement(0, flow, 1, 2, susceptance=1e6),
            ga.Measurement(1, angle, 1),
            ga.Measurement(2, flow, 1, 2, susceptance=1e-6),
            ga.Measurement(3, angle, 2),
        ),
    )
    for corruption in (1.0, 1e3):
        z = ga.build_matrix(sys_) @ np.array([0.3, -0.2, 0.0])
        z[0] += corruption
        assert _assert_same_removal(sys_, z, ga.DetectorConfig().threshold, 2) == {0}
        report = ga.detect_and_remove(sys_, z, EXHAUSTIVE)
        assert report.detected and report.removed == frozenset({0})


def test_screen_margin_covers_residual_rounding_of_large_measurements():
    """A consistent flow of -1e9 at weight 100 rounds the full residual to about 1e-5,
    far above the 1e-6 threshold; the screen must not reject the passing angle removal."""
    flow, angle = ga.MeasurementKind.LINE_FLOW, ga.MeasurementKind.PHASE_ANGLE
    sys_ = ga.MeasurementSystem(
        buses=(ga.Bus(0, is_reference=True), ga.Bus(1), ga.Bus(2)),
        lines=((1, 2, 1.0),),
        measurements=(
            ga.Measurement(0, flow, 1, 2, susceptance=1e6),
            ga.Measurement(1, angle, 1),
            ga.Measurement(2, angle, 1),
        ),
        noise_variance=(1e-4, 1e-4, 1e-4),
    )
    z = ga.build_matrix(sys_) @ np.array([0.0, 1e3, 0.0])
    assert _assert_same_removal(sys_, z, ga.DetectorConfig().threshold, 1) == {1}
