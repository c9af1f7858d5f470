"""End-to-end execution of an attack plan against the estimator.

Deletes the plan's jammed rows, builds clean measurements for the rest from
a ground-truth state, applies the plan's injections, and runs detection and
removal on that reduced system, whose one matrix the estimator reuses. The
verdict records only what that run did; the attack type judges those facts:
a hidden plan must leave the residual test silent while shifting the
estimate; a detectable plan must shift the estimate with at least one
injected measurement surviving removal and the final residual test
passing. The run does not depend on the type, so a copy of its verdict
with only the type changed judges the plan as any type. The input system's
matrix is never built. A plan that jams nothing keeps the input's rows,
whose observability ``remove_measurements`` passes on; otherwise the reduced
system's graph is searched, and the input's only when that fails.

A noiseless run of a designed plan is kept, with read-only arrays, in this
module's entry of the ``cut_memo`` of the graph object the plan was designed
on. Keyed by (id(system), truth bytes, detector config, alpha, jammed
insecure, jammed secure, injected, state shift), it holds (system, {attack
type: verdict}, the run's verdict), and every plan on that graph with the
same inputs to the run reuses it. Every input check runs on every call, on
the system's id set and noise sigma cached per system object. The entry
keeps one verdict per attack type, each made once as a copy of the run's
verdict with only the type changed, so a hit is a lookup. Noisy calls never
read or write the memo, and nothing is stored on the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attack import AttackPlan
from .errors import PlanMismatch, RemovalFailed, UnobservableSystem
from .estimator import (
    DEFAULT_CONFIG, WHITENED_LIMIT, DetectorConfig, EstimationReport, detect_and_remove,
)
from .grid import MeasurementSystem, build_matrix, check_observable, remove_measurements, unchecked

ESTIMATE_CHANGE_TOL = 1e-6

# |alpha| outside this range makes a verdict depend on alpha, not on the plan.
# At the default noise (sigma 0.01, default alpha 0.1) with susceptances across
# grid.SUSCEPTANCE_RANGE, a shift of 0.01 on a 1e-6 flow sinks under the 1e-6
# residual threshold, and from about 0.8 up rounding alone trips it.
ALPHA_RANGE = (0.02, 0.5)


def valid_alpha(alpha: float) -> bool:
    return ALPHA_RANGE[0] <= abs(alpha) <= ALPHA_RANGE[1]


@dataclass(frozen=True, eq=False)
class VerificationVerdict:
    """The facts of one estimator run, judged as ``attack_type``.

    ``success`` and ``reason`` are computed from the type and the facts, so
    ``dataclasses.replace(verdict, attack_type=other)`` judges the same run
    as ``other``. The facts default to those of a run that never reached the
    estimator.
    """

    attack_type: object
    observability_ok: bool = False
    stealthy: bool = False
    estimate_changed: bool = False
    survived_injection: bool = False
    removal_failed: bool = False
    final_shift: Optional[np.ndarray] = None
    report: Optional[EstimationReport] = None

    @property
    def success(self) -> bool:
        """Whether the run did what the declared attack type requires."""
        if self.attack_type.hidden:
            return self.stealthy and self.estimate_changed
        # the final residual test passed, or removal failed and nothing changed
        return self.estimate_changed and self.survived_injection

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


def execute(
    sys: MeasurementSystem,
    truth: np.ndarray,
    plan: AttackPlan,
    cfg: Optional[DetectorConfig] = None,
    alpha: Optional[float] = None,
    noise_rng: Optional[np.random.Generator] = None,
) -> VerificationVerdict:
    """Run the plan and judge it as its declared attack type.

    ``alpha`` scales the injected state shift, ten noise sigmas by default;
    given or by default, it must lie in ``ALPHA_RANGE`` in magnitude, or it
    raises ``ValueError``. ``noise_rng`` optionally adds measurement noise to
    the clean base vector (verification is noiseless by default).

    Inputs are checked on every call; a ``truth`` entry that is not finite
    or exceeds ``estimator.WHITENED_LIMIT`` in magnitude raises
    ``ValueError`` before the run. A noiseless call with ``plan.graph`` set
    reuses or keeps its run as the module docstring says; a noisy call
    always runs and keeps nothing.
    """
    known = sys.ids
    if not (known.issuperset(plan.cut.edges) and plan.injected <= known
            and plan.jammed_insecure <= known and plan.jammed_secure <= known):
        referenced = set(plan.cut.edges) | plan.injected | plan.jammed
        raise PlanMismatch(f"plan references unknown measurements {sorted(referenced - known)}")
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (sys.n + 1,):
        raise ValueError(f"truth must have length {sys.n + 1}")
    if truth[-1] != 0.0:
        raise ValueError("truth must pin the reference angle at zero")
    default = alpha is None
    alpha = 10.0 * sys.max_noise_std if default else alpha  # well above detector noise
    if not valid_alpha(alpha):
        lo, hi = ALPHA_RANGE
        source = " (the default, ten noise sigmas)" if default else ""
        raise ValueError(f"alpha must satisfy {lo:g} <= |alpha| <= {hi:g}, got {alpha}{source}")
    if noise_rng is not None or plan.graph is None:
        return _run(sys, truth, plan, cfg, alpha, noise_rng)

    memo = plan.graph.cut_memo["verify"]
    key = (
        id(sys), truth.tobytes(), cfg or DEFAULT_CONFIG, alpha,
        plan.jammed_insecure, plan.jammed_secure, plan.injected, plan.injection_state_shift,
    )
    entry = memo.get(key)
    if entry is None:  # the entry holds sys, so no other live system can share its id
        verdict = _run(sys, truth, plan, cfg, alpha, None)
        if verdict.report is not None:
            for array in (verdict.final_shift, verdict.report.estimate, verdict.report.final_estimate):
                array.flags.writeable = False
        entry = memo[key] = (sys, {plan.attack_type: verdict}, verdict)
    _, typed, run = entry
    if plan.attack_type not in typed:
        typed[plan.attack_type] = unchecked(
            VerificationVerdict, **{**vars(run), "attack_type": plan.attack_type})
    return typed[plan.attack_type]


def _run(
    sys: MeasurementSystem,
    truth: np.ndarray,
    plan: AttackPlan,
    cfg: Optional[DetectorConfig],
    alpha: float,
    noise_rng: Optional[np.random.Generator],
) -> VerificationVerdict:
    """One estimator run of the plan on checked inputs."""
    # here, not in execute: a memo hit's key holds checked truth. Within the
    # limit, H @ truth cannot overflow (two entries per row, each at most 1e6),
    # and the estimator bounds the measurements themselves.
    if not (np.abs(truth) <= WHITENED_LIMIT).all():
        raise ValueError(f"truth must be finite, at most {WHITENED_LIMIT:g} in magnitude")
    reduced = remove_measurements(sys, plan.jammed)
    try:
        H = build_matrix(reduced)
    except UnobservableSystem:
        check_observable(sys)  # raises if the input itself is unobservable
        H = None
    shift = alpha * np.asarray(plan.injection_state_shift, dtype=float)
    if len(shift) != sys.n + 1:  # before the noise draw, so a mismatch leaves noise_rng as it was
        raise PlanMismatch("state shift length does not match the system")
    noise = None
    if noise_rng is not None:
        # drawn for every row, jammed ones included, so seeded streams match
        keep = [k for k, meas in enumerate(sys.measurements) if meas.id not in plan.jammed]
        noise = noise_rng.normal(0.0, np.sqrt(np.asarray(sys.noise_variance)))[keep]
    if H is None:
        return VerificationVerdict(plan.attack_type)
    z = H @ truth
    if noise is not None:
        z = z + noise
    inject_mask = np.array([meas.id in plan.injected for meas in reduced.measurements], bool)
    try:
        report = detect_and_remove(reduced, z + np.where(inject_mask, H @ shift, 0.0), cfg)
    except RemovalFailed:
        return VerificationVerdict(plan.attack_type, observability_ok=True, removal_failed=True)

    final_shift = report.final_estimate - truth
    estimate_changed = bool(np.max(np.abs(final_shift[:-1])) > ESTIMATE_CHANGE_TOL)
    return unchecked(
        VerificationVerdict,
        attack_type=plan.attack_type,
        observability_ok=True,
        stealthy=not report.detected,
        estimate_changed=estimate_changed,
        survived_injection=bool(plan.injected - report.removed),
        removal_failed=False,
        final_shift=final_shift,
        report=report,
    )
