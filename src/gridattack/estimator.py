"""DC weighted-least-squares estimation with residual-test bad-data removal.

The estimator whitens rows by the per-measurement noise standard deviation,
solves for the free bus angles with the reference pinned at zero, and flags
bad data when the whitened residual norm exceeds the detector threshold.
Removal then discards the smallest measurement set that restores a passing
residual while keeping the measurement graph connected, either exactly
(subset search in increasing cardinality) or greedily by the largest
normalized residual. It reuses the system's one matrix, and each removal
search checks connectivity against one endpoint list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import RemovalFailed
from .grid import MeasurementSystem, build_matrix, connected

DEFAULT_THRESHOLD = 1e-6


class RemovalMode(Enum):
    GREEDY_NORMALIZED_RESIDUAL = "greedy"
    EXHAUSTIVE_MINIMAL = "exhaustive"


@dataclass(frozen=True)
class DetectorConfig:
    """Detection threshold and bad-data removal policy.

    ``max_removals`` of None allows removal down to the observability
    floor, i.e. as long as the remaining graph stays connected.
    """

    threshold: float = DEFAULT_THRESHOLD
    removal_mode: RemovalMode = RemovalMode.EXHAUSTIVE_MINIMAL
    max_removals: Optional[int] = None

    def __post_init__(self):
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")
        if self.max_removals is not None and self.max_removals < 0:
            raise ValueError("max_removals must be nonnegative")


@dataclass(frozen=True, eq=False)
class EstimationReport:
    estimate: np.ndarray
    residual_norm: float
    detected: bool
    removed: frozenset[int]
    final_estimate: np.ndarray
    final_residual_norm: float


def chi_square_threshold(m: int, n: int, confidence: float = 0.975) -> float:
    """Residual-norm threshold for noisy runs from the chi-square quantile."""
    if m <= n:
        raise ValueError("need redundancy m > n for a chi-square bound")
    from scipy.stats import chi2  # imported here: scipy.stats dominates the package's import time

    return float(np.sqrt(chi2.ppf(confidence, df=m - n)))


def _whitened(sys: MeasurementSystem) -> tuple[np.ndarray, np.ndarray]:
    """Free-column matrix with each row scaled by its weight, and the weights."""
    H = build_matrix(sys)
    w = 1.0 / np.sqrt(np.asarray(sys.noise_variance))
    return H[:, : sys.n] * w[:, None], w


def _solve(Hw: np.ndarray, zw: np.ndarray) -> tuple[np.ndarray, float]:
    """Least squares on whitened rows; returns free angles and residual norm."""
    x, *_ = np.linalg.lstsq(Hw, zw, rcond=None)
    return x, float(np.linalg.norm(zw - Hw @ x))


def wls_estimate(sys: MeasurementSystem, z: np.ndarray) -> np.ndarray:
    """Minimum weighted-residual state, reference angle pinned at zero."""
    z = np.asarray(z, dtype=float)
    if z.shape != (sys.m,):
        raise ValueError(f"measurement vector must have length {sys.m}")
    Hw, w = _whitened(sys)
    x, _ = _solve(Hw, z * w)
    return np.append(x, 0.0)


def residual_norm(sys: MeasurementSystem, z: np.ndarray, x: np.ndarray) -> float:
    """Whitened residual magnitude of state x against measurements z."""
    H = build_matrix(sys)
    w = 1.0 / np.sqrt(np.asarray(sys.noise_variance))
    return float(np.linalg.norm((np.asarray(z) - H @ np.asarray(x)) * w))


def _keeps_connected(n: int, pairs: list, removed_positions: set[int]) -> bool:
    return connected(range(n + 1), (p for k, p in enumerate(pairs) if k not in removed_positions))


def detect_and_remove(
    sys: MeasurementSystem, z: np.ndarray, cfg: Optional[DetectorConfig] = None
) -> EstimationReport:
    """Run the residual test and, on failure, bad-data removal.

    Exhaustive mode scans removal subsets in increasing cardinality,
    skipping any subset that disconnects the measurement graph, and stops
    at the first passing one, which is therefore of minimum size. Greedy
    mode repeatedly drops the connectivity-preserving measurement with the
    largest normalized residual. Raises RemovalFailed when no subset
    within budget passes.
    """
    cfg = cfg or DetectorConfig()
    z = np.asarray(z, dtype=float)
    if z.shape != (sys.m,):
        raise ValueError(f"measurement vector must have length {sys.m}")
    m, n = sys.m, sys.n
    Hw, w = _whitened(sys)
    zw = z * w
    x0, r0 = _solve(Hw, zw)
    detected = r0 > cfg.threshold
    removed, x_final, r_final = (), x0, r0
    if detected:
        budget = m - n if cfg.max_removals is None else min(cfg.max_removals, m - n)
        if cfg.removal_mode is RemovalMode.EXHAUSTIVE_MINIMAL:
            found = _exhaustive_removal(sys, Hw, zw, cfg.threshold, budget)
        else:
            found = _greedy_removal(sys, Hw, zw, cfg.threshold, budget)
        if found is None:
            raise RemovalFailed(
                f"no connectivity-preserving removal of up to {budget} measurements passes"
            )
        removed, x_final, r_final = found
    return EstimationReport(
        estimate=np.append(x0, 0.0),
        residual_norm=r0,
        detected=detected,
        removed=frozenset(sys.measurements[k].id for k in removed),
        final_estimate=np.append(x_final, 0.0),
        final_residual_norm=r_final,
    )


def _exhaustive_removal(sys, Hw, zw, threshold, budget):
    m = sys.m
    pairs = [meas.endpoints for meas in sys.measurements]
    for size in range(1, budget + 1):
        for combo in itertools.combinations(range(m), size):
            removed = set(combo)
            if not _keeps_connected(sys.n, pairs, removed):
                continue
            keep = [k for k in range(m) if k not in removed]
            x, r = _solve(Hw[keep], zw[keep])
            if r <= threshold:
                return removed, x, r
    return None


def _greedy_removal(sys, Hw, zw, threshold, budget):
    m = sys.m
    pairs = [meas.endpoints for meas in sys.measurements]
    removed: set[int] = set()
    while True:
        keep = [k for k in range(m) if k not in removed]
        A, b = Hw[keep], zw[keep]
        x, r_norm = _solve(A, b)
        if removed and r_norm <= threshold:
            return removed, x, r_norm
        if len(removed) >= budget:
            return None
        r = b - A @ x
        # residual covariance diagonal of the whitened system: I - A(A^T A)^+ A^T
        gram_inv = np.linalg.pinv(A.T @ A)
        leverage = np.einsum("ij,jk,ik->i", A, gram_inv, A)
        omega = np.clip(1.0 - leverage, 1e-12, None)
        scores = np.abs(r) / np.sqrt(omega)
        order = sorted(range(len(keep)), key=lambda i: (-scores[i], keep[i]))
        target = None
        for i in order:
            if _keeps_connected(sys.n, pairs, removed | {keep[i]}):
                target = keep[i]
                break
        if target is None:
            return None
        removed.add(target)
