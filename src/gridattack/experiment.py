"""Randomized attack-cost sweeps over the fraction of secure measurements.

A sweep places flow meters on every line and angle meters on a random bus
subset, varies the secure fraction, designs the requested attack types,
verifies each plan against the estimator, and reports one row per
(fraction, trial, type). Rows are a pure function of (case, flags, seed).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .attack import AttackPlan, AttackType, CostModel, classify_interval, design
from .casefile import CaseFile, place_measurements
from .estimator import DetectorConfig, RemovalMode
from .grid import build_graph
from .verify import execute

CSV_HEADER = "fraction,trial,type,interval,feasible,cost,verified,greedy_escape"

MAX_TRIALS = 10_000
MAX_FRACTIONS = 100


@dataclass(frozen=True)
class SweepRow:
    fraction: float
    trial: int
    attack_type: AttackType
    interval: str
    cost: Optional[float]  # None on an infeasible row
    verified: Optional[bool]  # None on an infeasible row; the greedy_escape column is its negation

    @property
    def feasible(self) -> bool:
        return self.cost is not None


def trial_seed(base: int, fraction_index: int, trial: int) -> int:
    """Distinct deterministic seed per (fraction, trial) cell."""
    return base * 1_000_000 + fraction_index * 10_000 + trial


def check_types(types: Sequence[AttackType]) -> None:
    """Raise ValueError naming the first attack type listed twice: its rows would repeat."""
    for k, attack_type in enumerate(types):
        if attack_type in types[:k]:
            raise ValueError(f"attack type {attack_type.value} is listed twice")


def check_case(case: CaseFile) -> None:
    """Raise ValueError for a case that lists its measurements: a sweep places its own."""
    if case.measurements is not None:
        raise ValueError(f"case {case.name} lists its measurements, which a sweep does not read")


def run_sweep(
    case: CaseFile,
    types: Sequence[AttackType],
    cost: CostModel,
    fractions: Iterable[float],
    trials: int,
    seed: int,
    angle_fraction: float = 0.6,
    condition: Optional[AttackType] = None,
) -> tuple[list[SweepRow], dict[tuple[float, int], bool]]:
    """Design and verify every requested type per randomized trial.

    Within a trial the system, truth and detector are fixed and no noise is
    drawn, so the estimator run depends only on the plan's jammed set,
    injected set and state shift. ``execute`` keeps each run in the memo of
    the trial's graph, so each distinct combination is estimated once per
    trial and every row gets that verdict judged as its own attack type; the
    memo dies with the trial's graph.

    Returns the rows plus, per (fraction, trial), whether the conditioning
    attack type was feasible there (all True when no condition is given).
    Raises ValueError when a type is listed twice (``check_types``) or the
    case lists its measurements (``check_case``).
    """
    check_types(types)
    check_case(case)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    fractions = sorted(set(float(f) for f in fractions))
    if trials > MAX_TRIALS or len(fractions) > MAX_FRACTIONS:
        raise ValueError("sweep grid too large for the per-trial seed scheme")
    interval = classify_interval(cost).value
    cfg = DetectorConfig(removal_mode=RemovalMode.GREEDY_NORMALIZED_RESIDUAL)
    wanted = list(types) + ([condition] if condition and condition not in types else [])
    rows: list[SweepRow] = []
    condition_ok: dict[tuple[float, int], bool] = {}
    for f_idx, fraction in enumerate(fractions):
        for trial in range(trials):
            system = place_measurements(
                case, angle_fraction, fraction, trial_seed(seed, f_idx, trial)
            )
            graph = build_graph(system)
            truth = np.zeros(system.n + 1)
            plans = {attack_type: design(attack_type, graph, cost) for attack_type in wanted}
            condition_ok[(fraction, trial)] = (
                isinstance(plans[condition], AttackPlan) if condition else True
            )
            for attack_type in types:
                outcome = plans[attack_type]
                if not isinstance(outcome, AttackPlan):
                    rows.append(SweepRow(fraction, trial, attack_type, interval, None, None))
                    continue
                verified = execute(system, truth, outcome, cfg).success
                rows.append(
                    SweepRow(fraction, trial, attack_type, interval, outcome.total_cost, verified)
                )
    return rows, condition_ok


def summarize(
    rows: Sequence[SweepRow], condition_ok: dict[tuple[float, int], bool]
) -> dict[tuple[float, AttackType], dict]:
    """Per-(fraction, type) averages over feasible, condition-passing trials."""
    summary: dict[tuple[float, AttackType], dict] = {}
    for row in rows:
        key = (row.fraction, row.attack_type)
        cell = summary.setdefault(
            key, {"count": 0, "mean_cost": None, "verified": 0, "greedy_escapes": 0, "_total": 0.0}
        )
        if not row.feasible or not condition_ok[(row.fraction, row.trial)]:
            continue
        cell["count"] += 1
        cell["_total"] += row.cost
        cell["verified"] += bool(row.verified)
        cell["greedy_escapes"] += not row.verified
    for cell in summary.values():
        if cell["count"]:
            cell["mean_cost"] = cell.pop("_total") / cell["count"]
        else:
            cell.pop("_total")
    return summary


def _format_row(row: SweepRow) -> str:
    cost = "" if row.cost is None else f"{row.cost:.10g}"
    verified = "" if row.verified is None else str(int(row.verified))
    escape = "" if row.verified is None else str(int(not row.verified))
    return (
        f"{row.fraction:.10g},{row.trial},{row.attack_type.value},"
        f"{row.interval},{int(row.feasible)},{cost},{verified},{escape}"
    )


def write_csv(rows: Sequence[SweepRow], out_path: str) -> None:
    """Write rows as CSV; '-' means standard output; a partial file is removed."""
    lines = [CSV_HEADER] + [_format_row(r) for r in rows]
    text = "\n".join(lines) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
        return
    fh = open(out_path, "w")  # a failed open leaves any existing file alone
    try:
        with fh:
            fh.write(text)
    except BaseException:
        os.unlink(out_path)
        raise


def check_out_path(out_path: str) -> None:
    """Raise the OSError that opening ``out_path`` for writing would raise.

    '-' always passes. An existing file is opened for appending and left as
    it is; a file the check creates is removed again.
    """
    if out_path == "-":
        return
    existed = os.path.lexists(out_path)
    open(out_path, "a").close()
    if not existed:
        os.unlink(out_path)
