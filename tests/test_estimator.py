"""Weighted least squares, detection, and bad-data removal."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridattack as ga
from conftest import triangle_system, random_system

EXHAUSTIVE = ga.DetectorConfig(removal_mode=ga.RemovalMode.EXHAUSTIVE_MINIMAL)
GREEDY = ga.DetectorConfig(removal_mode=ga.RemovalMode.GREEDY_NORMALIZED_RESIDUAL)


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
        got = ga.wls_estimate(sys_, H @ x)
        assert np.max(np.abs(got - x)) < 1e-9


def test_wls_hidden_shift_identity():
    rng_sys = random.Random(32)
    rng = np.random.default_rng(32)
    for _ in range(20):
        sys_ = random_system(rng_sys)
        H = ga.build_matrix(sys_)
        x = _random_state(rng, sys_.n)
        c = _random_state(rng, sys_.n)
        got = ga.wls_estimate(sys_, H @ x + H @ c)
        assert np.max(np.abs(got - (x + c))) < 1e-9


def test_wls_residual_orthogonal_to_columns():
    rng_sys = random.Random(33)
    rng = np.random.default_rng(33)
    for _ in range(10):
        sys_ = random_system(rng_sys, m=18)
        H = ga.build_matrix(sys_)
        z = H @ _random_state(rng, sys_.n) + rng.normal(0, 0.01, size=sys_.m)
        x = ga.wls_estimate(sys_, z)
        sigma_inv = 1.0 / np.asarray(sys_.noise_variance)
        normal_eq = H[:, : sys_.n].T @ (sigma_inv * (z - H @ x))
        assert np.max(np.abs(normal_eq)) < 1e-8


def test_wls_rejects_wrong_length():
    sys_ = triangle_system()
    with pytest.raises(ValueError):
        ga.wls_estimate(sys_, np.zeros(5))


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
        r_base = ga.residual_norm(sys_, z, ga.wls_estimate(sys_, z))
        z_shift = z + H @ c
        r_shift = ga.residual_norm(sys_, z_shift, ga.wls_estimate(sys_, z_shift))
        assert abs(r_shift - r_base) <= 1e-9 * max(1.0, r_base)


def _passes(sys_, z, removed_ids):
    reduced = ga.remove_measurements(sys_, removed_ids)
    keep = [k for k, m in enumerate(sys_.measurements) if m.id not in set(removed_ids)]
    try:
        x = ga.wls_estimate(reduced, z[keep])
    except ga.UnobservableSystem:
        return False
    return ga.residual_norm(reduced, z[keep], x) <= 1e-6


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


def test_detector_threshold_validation():
    with pytest.raises(ValueError):
        ga.DetectorConfig(threshold=-1.0)
    with pytest.raises(ValueError):
        ga.DetectorConfig(max_removals=-2)


def test_chi_square_threshold():
    loose = ga.chi_square_threshold(28, 14, confidence=0.99)
    tight = ga.chi_square_threshold(28, 14, confidence=0.9)
    assert loose > tight > 0
    with pytest.raises(ValueError):
        ga.chi_square_threshold(10, 10)


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
