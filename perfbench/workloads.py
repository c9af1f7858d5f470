"""The benchmark's three workloads: what each runs, times and checks.

Each workload is prepared once (case load or input generation, warm-up)
and then driven as a sequence of units by ``run.py``. Every unit repeats the
same work: a sweep unit is one repetition of the three criterion-7 sweeps,
an oracle unit one pass over a batch of random small systems fixed by the
seed. Each trial and attack then counts its fastest repetition.
``BENCHMARK.json`` names two of them; ``ieee57-sweep`` runs by name only.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from gridattack import attack, casefile, estimator, experiment, grid, oracle, verify
from gridattack.attack import AttackPlan, AttackType, CostInterval, CostModel, NoSolutionFound

# The three criterion-7 sweeps: (label, types, costs, condition).
SWEEPS = (
    ("hi-di-hg", (AttackType.HIDDEN_INJECTION, AttackType.DETECTABLE_INJECTION,
                  AttackType.HIDDEN_GENERALIZED), (1.0, 0.5, 0.25), AttackType.HIDDEN_INJECTION),
    ("dg-dj-I", (AttackType.DETECTABLE_GENERALIZED, AttackType.DETECTABLE_JAMMING),
     (1.0, 0.8, 0.6), AttackType.DETECTABLE_JAMMING),
    ("dg-dj-II", (AttackType.DETECTABLE_GENERALIZED, AttackType.DETECTABLE_JAMMING),
     (1.0, 0.8, 0.25), AttackType.DETECTABLE_JAMMING),
)
# 0:0.5:0.05 and 0:0.5:0.25 exactly as `grid-attack sweep --fractions` expands them.
FRACTIONS = tuple(round(0.05 * k, 10) for k in range(11))
COARSE_FRACTIONS = (0.0, 0.25, 0.5)

EXHAUSTIVE = estimator.DetectorConfig(removal_mode=estimator.RemovalMode.EXHAUSTIVE_MINIMAL)
HIDDEN_TOL = 1e-12  # hidden designers are exactly optimal
DG_EXACT_TOL = 1e-9


@dataclass
class Tally:
    """What the timed units did, summed over a run."""

    trials: int = 0
    designs: int = 0
    no_solution: int = 0  # the search gave up; a documented result, not a failure
    misses: int = 0  # ... where the oracle shows an attack exists
    verify_failed: int = 0  # designed plans that failed verification
    failed: int = 0  # operations failing a check: verification, oracle or digest
    errors: list[str] = field(default_factory=list)  # what the failed checks found
    trial_s: dict = field(default_factory=dict)  # trial -> fastest seconds (oracle workload)
    attack_ms: dict = field(default_factory=dict)  # attack -> fastest milliseconds (ditto)
    dg_compared: int = 0
    dg_exact: int = 0
    digests: dict[str, str] = field(default_factory=dict)  # sweep label -> CSV sha256


def warm_up() -> None:
    """Run every designer, the verifier and the oracle once on a small fixed system."""
    rng = random.Random(0)
    system = random_system(rng)
    graph = grid.build_graph(system)
    truth = np.zeros(system.n + 1)
    for interval in CostInterval:
        cost = random_cost(rng, interval)
        for attack_type in AttackType:
            plan = attack.design(attack_type, graph, cost)
            if isinstance(plan, AttackPlan):
                verify.execute(system, truth, plan, EXHAUSTIVE)
            oracle.optimal_cost(graph, cost, attack_type)


# ---------------------------------------------------------------------------
# Sweep workloads.

@dataclass
class SweepWorkload:
    """The three sweeps through run_sweep + write_csv, as `grid-attack sweep` runs them."""

    name: str
    case_name: str
    trials: tuple[int, ...]  # per sweep, in SWEEPS order
    fractions: tuple[tuple[float, ...], ...] = (FRACTIONS,) * len(SWEEPS)  # per sweep
    unit_seconds: float = 5.0  # a unit's wall time on 2 vCPUs; sets how many units a run makes
    min_units: int = 3  # units repeat the same work; each figure is its fastest repetition
    uses_probe = True  # attack latency comes from spans; placements open trials

    def prepare(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.case = casefile.load_case(self.case_name)
        self.costs = [CostModel(*c) for _, _, c, _ in SWEEPS]
        warm_up()

    @property
    def trials_per_unit(self) -> int:
        return sum(len(f) * t for f, t in zip(self.fractions, self.trials))

    def run_unit(self, tally: Tally, new_trial=None) -> None:
        """One repetition of the sweeps; the probe's placement spans open trials."""
        for (label, types, _, condition), cost, trials, fractions in zip(
            SWEEPS, self.costs, self.trials, self.fractions
        ):
            rows, _ = experiment.run_sweep(
                self.case, types, cost, fractions, trials, self.seed,
                condition=condition,
            )
            path = self.out_dir / f"{self.name}-{label}.csv"
            experiment.write_csv(rows, str(path))
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            first = tally.digests.setdefault(label, digest)
            if digest != first:
                tally.errors.append(
                    f"{self.name}: sweep {label} CSV changed between repetitions "
                    f"({first[:12]} then {digest[:12]})"
                )
                tally.failed += 1
            escaped = sum(1 for r in rows if r.verified is False)
            tally.designs += len(rows)
            tally.verify_failed += escaped
            tally.failed += escaped
        tally.trials += self.trials_per_unit

    def check_golden(self, golden: dict, tally: Tally) -> None:
        """Compare this run's digests with the ones recorded for this seed and size."""
        expected = golden.get(self.name)
        if expected is None or (
            expected["seed"], tuple(expected["trials"]), tuple(map(tuple, expected["fractions"]))
        ) != (self.seed, self.trials, self.fractions):
            return
        for label, digest in tally.digests.items():
            if expected["sweeps"].get(label) != digest:
                tally.errors.append(
                    f"{self.name}: sweep {label} CSV sha256 {digest} differs from the "
                    f"recorded {expected['sweeps'].get(label)} at seed {self.seed}"
                )
                tally.failed += 1


# ---------------------------------------------------------------------------
# Small random systems checked against the brute-force oracle.

def random_system(rng: random.Random) -> grid.MeasurementSystem:
    """Connected system of 4..10 graph nodes and 5..20 measurements, mixed security.

    Measurements are capped at three per bus. Above that, exhaustive removal
    on a 4-node graph with up to 20 parallel measurements is exponential:
    one such system took 18 s, and 1% of systems took a third of the time.
    """
    n_buses = rng.randint(3, 9)
    m = rng.randint(max(5, n_buses), min(20, 3 * n_buses))
    nodes = list(range(n_buses + 1))
    rng.shuffle(nodes)
    pairs = [tuple(sorted((v, rng.choice(nodes[:k])))) for k, v in enumerate(nodes[1:], 1)]
    while len(pairs) < m:
        pairs.append(tuple(sorted(rng.sample(range(n_buses + 1), 2))))
    rng.shuffle(pairs)
    secure_prob = rng.choice((0.0, 0.2, 0.4, 0.6))
    measurements = []
    for mid, (u, v) in enumerate(pairs):
        secure = rng.random() < secure_prob
        if u == grid.REFERENCE_BUS:
            measurements.append(grid.Measurement(mid, grid.MeasurementKind.PHASE_ANGLE, v,
                                                 secure=secure))
        else:
            measurements.append(grid.Measurement(mid, grid.MeasurementKind.LINE_FLOW, u, v,
                                                 secure=secure))
    lines = sorted({p for p in pairs if grid.REFERENCE_BUS not in p})
    return grid.MeasurementSystem(
        buses=(grid.Bus(0, is_reference=True),) + tuple(grid.Bus(i) for i in range(1, n_buses + 1)),
        lines=tuple((i, j, 1.0) for i, j in lines),
        measurements=tuple(measurements),
    )


def random_cost(rng: random.Random, interval: CostInterval) -> CostModel:
    """Permissible cost triple drawn uniformly until it falls in ``interval``."""
    while True:
        p_i = rng.uniform(0.5, 2.0)
        p_jsc = rng.uniform(0.05, p_i)
        p_js = rng.uniform(p_jsc, p_i)
        cost = CostModel(p_i, p_js, p_jsc)
        if attack.classify_interval(cost) is interval:
            return cost


def _keep_fastest(fastest: dict, key, value: float) -> None:
    fastest[key] = min(fastest.get(key, value), value)


@dataclass
class OracleWorkload:
    """Random small systems: all six types, exhaustive verification, oracle check."""

    name: str = "smallgraph-oracle"
    # Systems per unit; a unit is one pass over all of them. More than the
    # 256 graphs oracle._cut_census caches, so no pass reuses the last one's.
    batch: int = 300
    unit_seconds: float = 6.0
    min_units: int = 3
    uses_probe = False  # times each trial and attack itself

    def prepare(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.inputs = [self.system(k) for k in range(self.batch)]
        warm_up()

    def system(self, k: int) -> tuple[grid.MeasurementSystem, list[CostModel]]:
        """The k-th input of the stream: a system and one cost triple per interval."""
        rng = random.Random(f"{self.seed}:{k}")
        system = random_system(rng)
        return system, [random_cost(rng, interval) for interval in CostInterval]

    def run_unit(self, tally: Tally, new_trial=None) -> None:
        """One pass over the batch; ``new_trial`` is called as each system starts."""
        for index, (system, costs) in enumerate(self.inputs):
            if new_trial is not None:
                new_trial()
            trial_start = perf_counter()
            graph = grid.build_graph(system)
            truth = np.zeros(system.n + 1)
            for c, cost in enumerate(costs):
                for attack_type in AttackType:
                    start = perf_counter()
                    plan = attack.design(attack_type, graph, cost)
                    verdict = None
                    if isinstance(plan, AttackPlan):
                        verdict = verify.execute(system, truth, plan, EXHAUSTIVE)
                    _keep_fastest(tally.attack_ms, (index, c, attack_type),
                                  (perf_counter() - start) * 1e3)
                    tally.designs += 1
                    problems = self._check(attack_type, graph, cost, plan, verdict, tally)
                    tally.errors.extend(
                        f"{self.name}: system {index}, {attack_type.value}, {cost}: {p}"
                        for p in problems
                    )
                    tally.failed += bool(problems)
                    tally.verify_failed += bool(verdict and not verdict.success)
            _keep_fastest(tally.trial_s, index, perf_counter() - trial_start)
            tally.trials += 1

    @staticmethod
    def _check(attack_type, graph, cost, plan, verdict, tally: Tally) -> list[str]:
        """Correctness problems of one design against the oracle and the verifier."""
        want = oracle.optimal_cost(graph, cost, attack_type)
        feasible = not isinstance(want, attack.Infeasible)
        problems = []
        if verdict is not None and not verdict.success:
            problems.append("plan fails exhaustive verification")
        if not isinstance(plan, AttackPlan):
            if isinstance(plan, NoSolutionFound):
                tally.no_solution += 1
                tally.misses += feasible
            if feasible and attack_type.hidden:
                problems.append("hidden designer missed a feasible attack")
            return problems
        if not feasible:
            return problems + ["plan returned where the oracle finds none"]
        if plan.total_cost < want[0] - HIDDEN_TOL:
            problems.append(f"cost {plan.total_cost} below the optimum {want[0]}")
        if attack_type.hidden and abs(plan.total_cost - want[0]) > HIDDEN_TOL:
            problems.append(f"hidden cost {plan.total_cost} differs from the optimum {want[0]}")
        if attack_type is AttackType.DETECTABLE_GENERALIZED:
            tally.dg_compared += 1
            tally.dg_exact += abs(plan.total_cost - want[0]) <= DG_EXACT_TOL
        return problems


WORKLOADS = {
    # Ten trials per fraction: with five, the p90 (a DG design) moved by up
    # to half from seed to seed at the same machine speed. A repetition takes
    # 7-9 s on 2 vCPUs, so a 35 s run makes four; each trial and attack
    # counts its fastest repetition.
    "ieee14-sweep": lambda: SweepWorkload(
        "ieee14-sweep", "ieee14", trials=(10, 10, 10), unit_seconds=8.0
    ),
    # Not in BENCHMARK.json: its time figures spread past the bounds there
    # (see perfbench/README.md). Run it by name for min-cut engine work.
    # One DG/DJ trial over the full fraction grid takes about 25 s, too long
    # to repeat within a run, so the two DG/DJ sweeps run 0:0.5:0.25.
    "ieee57-sweep": lambda: SweepWorkload(
        "ieee57-sweep", "ieee57", trials=(8, 1, 1),
        fractions=(FRACTIONS, COARSE_FRACTIONS, COARSE_FRACTIONS),
        unit_seconds=18.0, min_units=2,
    ),
    "smallgraph-oracle": OracleWorkload,
}
