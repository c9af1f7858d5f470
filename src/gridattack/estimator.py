"""DC weighted-least-squares estimation with residual-test bad-data removal.

The estimator whitens rows by the per-measurement noise standard deviation,
solves for the free bus angles with the reference pinned at zero, and flags
bad data when the whitened residual norm exceeds the detector threshold.
Removal then discards the smallest measurement set that restores a passing
residual while keeping the measurement graph connected, either exactly
(subset search in increasing cardinality) or greedily by the largest
normalized residual. It reuses the system's one matrix, and each removal
search checks connectivity against one endpoint list.

The exact search screens each subset R before its connectivity check and
solve. With Omega = I - Hw (Hw^T Hw)^-1 Hw^T and r the whitened residual of
the full system, taken once per search, removing R leaves a squared
residual of J - r_R^T Omega_RR^-1 r_R, where J = |r|^2. A subset is skipped
only when that value exceeds threshold^2 by the margin 1e-6 J + 1e-12
|zw|^2, and only when every eigenvalue of Omega_RR is at least 1e-6. A
passing subset leaves at most threshold^2 <= J, so the first term covers the
relative rounding of the update and of lstsq; the second covers the
rounding of r itself when the measurements zw dwarf it. Every other subset,
singular or ill-conditioned Omega_RR included, takes the connectivity check
and the solve, in increasing size and then lexicographic order, so the
subset, estimate and residual returned are those of the unscreened search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import RemovalFailed, TooLarge
from .grid import MeasurementSystem, build_matrix, connected, unchecked

DEFAULT_THRESHOLD = 1e-6

# The largest whitened measurement |z_k| / sigma_k accepted. Its square, summed
# over any practical number of rows and divided by the removal screen's
# eigenvalue floor, stays finite, so no residual or screen value overflows.
WHITENED_LIMIT = 1e100

# The removal screen's margin (see the module docstring): a share of J, and
# a share of |zw|^2 for the rounding of r itself when the measurements dwarf
# it; and the smallest eigenvalue of Omega_RR the screen trusts.
_SCREEN_MARGIN_REL = 1e-6
_SCREEN_MARGIN_SIGNAL = 1e-12
_SCREEN_EIGEN_FLOOR = 1e-6
# The most removal subsets the exhaustive search may count, C(m, k) summed over
# the sizes k it reaches: it raises TooLarge before a size that would pass this.
# The largest counts are 106,761 in the tests (18 rows, sizes 1-8), 105 in the
# golden digests and 696 on the oracle benchmark (seeds 1-8). At the screen's
# 0.3-2M subsets/s, the cap bounds a search to a few seconds.
MAX_REMOVAL_SUBSETS = 1_000_000
# Subsets per screened chunk: 16 at first, then four times the last, up to
# 2^14 / size^2 so that each of a chunk's arrays stays near 128 kB.
_SCREEN_FIRST_CHUNK = 16
_SCREEN_CHUNK_ENTRIES = 1 << 14


class RemovalMode(Enum):
    GREEDY_NORMALIZED_RESIDUAL = "greedy"
    EXHAUSTIVE_MINIMAL = "exhaustive"

    __hash__ = object.__hash__  # by identity in C, as attack.AttackType


@dataclass(frozen=True)
class DetectorConfig:
    """Detection threshold and bad-data removal policy.

    ``threshold`` may be +inf, which never detects. ``max_removals`` of None
    allows removal while the graph stays connected, down to a spanning tree,
    whose residual is rounding-sized: a full budget passes at any ordinary
    threshold, so a smaller one is the only way to reach ``RemovalFailed``.
    """

    threshold: float = DEFAULT_THRESHOLD
    removal_mode: RemovalMode = RemovalMode.EXHAUSTIVE_MINIMAL
    max_removals: Optional[int] = None

    def __post_init__(self):
        if not self.threshold >= 0:
            raise ValueError(f"threshold must be nonnegative, got {self.threshold}")
        if self.max_removals is not None and self.max_removals < 0:
            raise ValueError("max_removals must be nonnegative")


DEFAULT_CONFIG = DetectorConfig()  # what a ``cfg`` of None means


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
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie strictly between 0 and 1, got {confidence}")
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
    r = zw - Hw @ x
    return x, math.sqrt(r @ r)  # numpy's norm of a vector, as a float


def _keeps_connected(n: int, pairs: list, removed_positions: set[int]) -> bool:
    return connected(n + 1, (p for k, p in enumerate(pairs) if k not in removed_positions))


def detect_and_remove(
    sys: MeasurementSystem, z: np.ndarray, cfg: Optional[DetectorConfig] = None
) -> EstimationReport:
    """Run the residual test and, on failure, bad-data removal.

    Exhaustive mode scans removal subsets in increasing cardinality,
    skipping any subset that disconnects the measurement graph, and stops
    at the first passing one, which is therefore of minimum size. Greedy
    mode repeatedly drops the connectivity-preserving measurement with the
    largest normalized residual. Raises RemovalFailed when no subset
    within budget passes, TooLarge before an exhaustive search would count
    more than ``MAX_REMOVAL_SUBSETS`` subsets, ValueError on a wrong-length
    ``z`` or one with an entry that is not finite or exceeds
    ``WHITENED_LIMIT`` once whitened.
    """
    cfg = cfg or DEFAULT_CONFIG
    z = np.asarray(z, dtype=float)
    if z.shape != (sys.m,):
        raise ValueError(f"measurement vector must have length {sys.m}")
    Hw, w = _whitened(sys)
    if not (np.abs(z) <= WHITENED_LIMIT / w).all():  # before z * w can overflow
        raise ValueError(
            f"measurement vector must be finite, with |z_k| / sigma_k at most {WHITENED_LIMIT:g}"
        )
    m, n = sys.m, sys.n
    zw = z * w
    x0, r0 = _solve(Hw, zw)
    detected = r0 > cfg.threshold
    removed, x_final, r_final = (), x0, r0
    if detected:
        budget = m - n if cfg.max_removals is None else min(cfg.max_removals, m - n)
        if cfg.removal_mode is RemovalMode.EXHAUSTIVE_MINIMAL:
            found = _exhaustive_removal(sys, Hw, zw, cfg.threshold, budget)
        else:
            found = _greedy_removal(sys, Hw, zw, x0, cfg.threshold, budget)
        if found is None:
            raise RemovalFailed(
                f"no connectivity-preserving removal of up to {budget} measurements passes"
            )
        removed, x_final, r_final = found
    estimate, final_estimate = np.zeros(n + 1), np.zeros(n + 1)  # the reference angle stays 0
    estimate[:n], final_estimate[:n] = x0, x_final
    return unchecked(
        EstimationReport,
        estimate=estimate,
        residual_norm=r0,
        detected=detected,
        removed=frozenset(sys.measurements[k].id for k in removed),
        final_estimate=final_estimate,
        final_residual_norm=r_final,
    )


def _exhaustive_removal(sys, Hw, zw, threshold, budget):
    m = sys.m
    pairs = [meas.endpoints for meas in sys.measurements]
    q, _ = np.linalg.qr(Hw)
    omega = np.eye(m) - q @ q.T
    r = omega @ zw
    J = float(r @ r)
    limit = threshold**2 + _SCREEN_MARGIN_REL * J + _SCREEN_MARGIN_SIGNAL * float(zw @ zw)
    counted = 0
    for size in range(1, budget + 1):
        counted += math.comb(m, size)
        if counted > MAX_REMOVAL_SUBSETS:
            raise TooLarge(f"exhaustive removal of up to {size} of {m} measurements counts "
                           f"{counted} subsets, over the cap {MAX_REMOVAL_SUBSETS}")
        combos = itertools.combinations(range(m), size)
        chunk, cap = _SCREEN_FIRST_CHUNK, max(1, _SCREEN_CHUNK_ENTRIES // (size * size))
        while True:
            flat = itertools.chain.from_iterable(itertools.islice(combos, chunk))
            block = np.fromiter(flat, dtype=np.intp).reshape(-1, size)
            if not len(block):
                break
            rejected = _screened_residual(omega, r, J, block) > limit
            for combo, skip in zip(block.tolist(), rejected.tolist()):
                if skip:
                    continue
                removed = set(combo)
                if not _keeps_connected(sys.n, pairs, removed):
                    continue
                keep = [k for k in range(m) if k not in removed]
                x, r_norm = _solve(Hw[keep], zw[keep])
                if r_norm <= threshold:
                    return removed, x, r_norm
            chunk = min(4 * chunk, cap)
    return None


def _screened_residual(omega, r, J, block):
    """Squared residual left by removing each row set of ``block``, or -inf.

    Removing the rows R of a system with whitened residual r leaves
    J - r_R^T Omega_RR^-1 r_R (Monticelli 1999; Mili, Van Cutsem &
    Ribbens-Pavella 1984). A set whose Omega_RR has an eigenvalue below
    _SCREEN_EIGEN_FLOOR gets -inf, so the screen never rejects it.
    """
    sub = omega[block[:, :, None], block[:, None, :]]
    eigenvalues, vectors = np.linalg.eigh(sub)
    along = np.einsum("kij,ki->kj", vectors, r[block])
    explained = np.sum(along**2 / np.maximum(eigenvalues, _SCREEN_EIGEN_FLOOR), axis=1)
    return np.where(eigenvalues[:, 0] >= _SCREEN_EIGEN_FLOOR, J - explained, -np.inf)


def _greedy_removal(sys, Hw, zw, x, threshold, budget):
    """Greedy removal from detection's full-system estimate ``x``: the first step
    scores ``Hw`` and ``zw`` as they are, and each removal takes one solve."""
    pairs = [meas.endpoints for meas in sys.measurements]
    removed: set[int] = set()
    keep, A, b = range(sys.m), Hw, zw
    while len(removed) < budget:
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
        keep = [k for k in range(sys.m) if k not in removed]
        A, b = Hw[keep], zw[keep]
        x, r_norm = _solve(A, b)
        if r_norm <= threshold:
            return removed, x, r_norm
    return None
