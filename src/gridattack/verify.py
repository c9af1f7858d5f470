"""End-to-end execution of an attack plan against the estimator.

Deletes the plan's jammed rows, builds clean measurements for the rest from
a ground-truth state, applies the plan's injections, runs detection and
removal on that reduced system, whose one matrix the estimator reuses, and
classifies the outcome against the plan's declared attack type: hidden
plans must leave the residual test silent while shifting the estimate;
detectable plans must shift the estimate with at least one injected
measurement surviving removal and the final residual test passing. The
input system's matrix is never built: its graph, a superset of the reduced
one, is checked for observability only when the reduced system fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attack import AttackPlan
from .errors import PlanMismatch, RemovalFailed, UnobservableSystem
from .estimator import DetectorConfig, EstimationReport, detect_and_remove
from .grid import MeasurementSystem, build_matrix, check_observable, remove_measurements

ESTIMATE_CHANGE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class VerificationVerdict:
    attack_type: object
    observability_ok: bool
    stealthy: bool
    estimate_changed: bool
    survived_injection: bool
    removal_failed: bool
    matches_declared_type: bool
    final_shift: Optional[np.ndarray]
    report: Optional[EstimationReport]

    @property
    def success(self) -> bool:
        return self.matches_declared_type

    @property
    def reason(self) -> Optional[str]:
        """The failed check, or None on success: ``unobservable`` (after the
        jams), ``removal-failed``, ``detected`` (a hidden plan tripped the
        residual test), ``injection-removed`` (a detectable plan lost every
        injection) or ``estimate-unchanged``."""
        if self.success:
            return None
        if not self.observability_ok:
            return "unobservable"
        if self.removal_failed:
            return "removal-failed"
        if self.attack_type.hidden and not self.stealthy:
            return "detected"
        if not self.attack_type.hidden and not self.survived_injection:
            return "injection-removed"
        return "estimate-unchanged"


def _failure(plan: AttackPlan, removal_failed: bool = False, observable: bool = False):
    return VerificationVerdict(
        attack_type=plan.attack_type,
        observability_ok=observable,
        stealthy=False,
        estimate_changed=False,
        survived_injection=False,
        removal_failed=removal_failed,
        matches_declared_type=False,
        final_shift=None,
        report=None,
    )


def default_shift_scale(sys: MeasurementSystem) -> float:
    """Injection magnitude well above detector noise: ten noise sigmas."""
    return 10.0 * float(np.sqrt(max(sys.noise_variance)))


def execute(
    sys: MeasurementSystem,
    truth: np.ndarray,
    plan: AttackPlan,
    cfg: Optional[DetectorConfig] = None,
    alpha: Optional[float] = None,
    noise_rng: Optional[np.random.Generator] = None,
) -> VerificationVerdict:
    """Run the plan and judge it against its declared attack type.

    ``alpha`` scales the injected state shift; ``noise_rng`` optionally adds
    measurement noise to the clean base vector (verification is noiseless
    by default).
    """
    known = set(sys.index_of)
    referenced = set(plan.cut.edges) | plan.injected | plan.jammed
    if not referenced <= known:
        raise PlanMismatch(f"plan references unknown measurements {sorted(referenced - known)}")
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (sys.n + 1,):
        raise ValueError(f"truth must have length {sys.n + 1}")
    if truth[-1] != 0.0:
        raise ValueError("truth must pin the reference angle at zero")
    if alpha is None:
        alpha = default_shift_scale(sys)

    reduced = remove_measurements(sys, plan.jammed)
    try:
        H = build_matrix(reduced)
    except UnobservableSystem:
        check_observable(sys)  # raises if the input itself is unobservable
        H = None
    noise = None
    if noise_rng is not None:
        # drawn for every row, jammed ones included, so seeded streams match
        keep = [k for k, meas in enumerate(sys.measurements) if meas.id not in plan.jammed]
        noise = noise_rng.normal(0.0, np.sqrt(np.asarray(sys.noise_variance)))[keep]
    shift = alpha * np.asarray(plan.injection_state_shift, dtype=float)
    if len(shift) != sys.n + 1:
        raise PlanMismatch("state shift length does not match the system")
    if H is None:
        return _failure(plan, observable=False)
    z = H @ truth
    if noise is not None:
        z = z + noise
    inject_mask = np.array([meas.id in plan.injected for meas in reduced.measurements], bool)
    try:
        report = detect_and_remove(reduced, z + np.where(inject_mask, H @ shift, 0.0), cfg)
    except RemovalFailed:
        return _failure(plan, removal_failed=True, observable=True)

    final_shift = report.final_estimate - truth
    estimate_changed = bool(np.max(np.abs(final_shift[:-1])) > ESTIMATE_CHANGE_TOL)
    stealthy = not report.detected
    survived = bool(plan.injected - report.removed) if plan.injected else False
    if plan.attack_type.hidden:
        success = stealthy and estimate_changed
    else:
        # final residual test passed, otherwise RemovalFailed was raised
        success = estimate_changed and survived
    return VerificationVerdict(
        attack_type=plan.attack_type,
        observability_ok=True,
        stealthy=stealthy,
        estimate_changed=estimate_changed,
        survived_injection=survived,
        removal_failed=False,
        matches_declared_type=success,
        final_shift=final_shift,
        report=report,
    )
