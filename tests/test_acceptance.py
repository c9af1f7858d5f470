"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria:
  1. Exact-algorithm optimality against the brute-force oracle, under 2 min.
  2. Detectable-generalized heuristic quality and feasibility.
  3. Every designed plan verifies as its declared type (exhaustive removal).
  4. Detectable-injection cost within (.5 + 1/|C*|) of hidden-injection cost.
  5. Feasibility with a single insecure measurement; infeasibility with none.
  6. Interval-III detectable attacks collapse onto the hidden generalized plan.
  7. IEEE-14 sweep trends at the reference cost triples, under 10 min:
     7a. per trial HG <= DI <= HI with DI within (.5 + 1/|C*|) of HI, and
         strict mean orderings wherever the cut sizes leave room for them;
     7b. the jamming-secure advantage is larger in interval I than in II.
  8. Estimator numerics at 1e-9.

The IEEE-57 variant of criterion 7 is opt-in: set GRIDATTACK_ACCEPT_IEEE57=1.
"""

import os
import random
import time

import numpy as np
import pytest

import gridattack as ga
from gridattack.attack import AttackType
from gridattack.experiment import run_sweep, summarize
from conftest import random_cost, random_system

EXHAUSTIVE = ga.DetectorConfig(removal_mode=ga.RemovalMode.EXHAUSTIVE_MINIMAL)

N_GRAPHS = 200
N_TRIPLES = 21  # seven per cost interval

HIDDEN_TYPES = (
    AttackType.HIDDEN_INJECTION,
    AttackType.HIDDEN_JAMMING,
    AttackType.HIDDEN_GENERALIZED,
)

# criterion 7a: hidden generalized (HG), detectable injection (DI), hidden injection (HI)
HG, DI, HI = (
    AttackType.HIDDEN_GENERALIZED,
    AttackType.DETECTABLE_INJECTION,
    AttackType.HIDDEN_INJECTION,
)
FAMILY_COST = ga.CostModel(1.0, 0.5, 0.25)


def _status(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" -- {detail}" if detail else ""))


@pytest.fixture(scope="module")
def corpus():
    """Shared instance corpus: 200 random systems and 21 cost triples."""
    rng = random.Random(20250809)
    systems = []
    while len(systems) < N_GRAPHS:
        sys_ = random_system(rng)
        systems.append((sys_, ga.build_graph(sys_)))
    triples = []
    for interval in (ga.CostInterval.I, ga.CostInterval.II, ga.CostInterval.III):
        triples.extend(random_cost(rng, interval=interval) for _ in range(N_TRIPLES // 3))
    assert {ga.classify_interval(c) for c in triples} == set(ga.CostInterval)
    return systems, triples


def test_criterion_1_exact_algorithms_match_oracle(corpus):
    systems, triples = corpus
    start = time.time()
    compared = 0
    for _, graph in systems:
        for cost in triples:
            for attack_type in HIDDEN_TYPES:
                got = ga.design(attack_type, graph, cost)
                want = ga.optimal_cost(graph, cost, attack_type)
                if isinstance(want, ga.Infeasible):
                    assert not isinstance(got, ga.AttackPlan), attack_type
                else:
                    assert isinstance(got, ga.AttackPlan), attack_type
                    assert abs(got.total_cost - want[0]) <= 1e-12, (
                        f"{attack_type}: designed {got.total_cost} vs oracle {want[0]}"
                    )
                compared += 1
    elapsed = time.time() - start
    _status(
        "criterion 1: hidden designers exactly optimal",
        True,
        f"{compared} comparisons on {len(systems)} graphs x {len(triples)} triples "
        f"in {elapsed:.1f}s",
    )
    assert compared >= 200 * 20 * 3
    assert elapsed < 120.0, f"criterion 1 exceeded its runtime budget: {elapsed:.1f}s"


def test_criterion_2_detectable_heuristic_quality(corpus):
    systems, triples = corpus
    exact = 0
    total = 0
    gaps = []
    for sys_, graph in systems:
        truth = np.zeros(sys_.n + 1)
        for cost in triples:
            got = ga.design(AttackType.DETECTABLE_GENERALIZED, graph, cost)
            want = ga.optimal_cost(graph, cost, AttackType.DETECTABLE_GENERALIZED)
            if isinstance(want, ga.Infeasible):
                assert not isinstance(got, ga.AttackPlan)
                continue
            total += 1
            assert isinstance(got, ga.AttackPlan), "heuristic missed a feasible instance"
            assert got.total_cost >= want[0] - 1e-12, "heuristic below the true optimum"
            if got.total_cost <= want[0] + 1e-12:
                exact += 1
            else:
                gaps.append(got.total_cost - want[0])
            verdict = ga.execute(sys_, truth, got, EXHAUSTIVE)
            assert verdict.success, "a returned detectable-generalized plan failed to verify"
    share = exact / total
    detail = (
        f"exact on {exact}/{total} ({100 * share:.2f}%); "
        f"gap distribution: n={len(gaps)}"
        + (f", mean={np.mean(gaps):.4f}, max={max(gaps):.4f}" if gaps else "")
    )
    _status("criterion 2: detectable heuristic quality", share >= 0.9, detail)
    assert share >= 0.9


def test_criterion_3_all_designed_plans_verify():
    rng = random.Random(99)
    verified = 0
    for _ in range(120):
        sys_ = random_system(rng)
        graph = ga.build_graph(sys_)
        truth = np.zeros(sys_.n + 1)
        for cost in (random_cost(rng), random_cost(rng)):
            for attack_type in AttackType:
                plan = ga.design(attack_type, graph, cost)
                if not isinstance(plan, ga.AttackPlan):
                    continue
                verdict = ga.execute(sys_, truth, plan, EXHAUSTIVE)
                assert verdict.success, (attack_type, verdict)
                if attack_type.hidden:
                    # residual untouched to 1e-9 and the estimate moved
                    assert verdict.report.residual_norm < 1e-9
                    assert verdict.stealthy and verdict.estimate_changed
                else:
                    assert verdict.survived_injection
                    assert verdict.report.final_residual_norm <= EXHAUSTIVE.threshold
                    if plan.untouched:
                        # an untouched residue must trip the detector first
                        assert verdict.report.detected
                        assert not plan.injected & verdict.report.removed
                verified += 1
    _status("criterion 3: all designed plans verify", True, f"{verified} plans")
    assert verified >= 1000


def test_criterion_4_detectable_injection_ratio(corpus):
    systems, _ = corpus
    cost = ga.CostModel(1.0, 0.5, 0.25)
    checked = 0
    for _, graph in systems:
        hidden = ga.hidden_injection(graph, cost)
        if not isinstance(hidden, ga.AttackPlan):
            continue
        detect = ga.detectable_injection(graph, cost)
        assert isinstance(detect, ga.AttackPlan)
        bound = (0.5 + 1.0 / len(hidden.cut.edges)) * hidden.total_cost
        assert detect.total_cost <= bound + 1e-12
        checked += 1
    _status("criterion 4: detectable/hidden injection ratio", True, f"{checked} instances")
    assert checked >= 50


def test_criterion_5_single_insecure_feasibility():
    rng = random.Random(101)
    verified = 0
    for k in range(50):
        sys_ = random_system(rng, n_insecure=1)
        graph = ga.build_graph(sys_)
        cost = random_cost(rng)
        truth = np.zeros(sys_.n + 1)
        for designer in (ga.hidden_generalized, ga.detectable_generalized):
            plan = designer(graph, cost)
            assert isinstance(plan, ga.AttackPlan), designer.__name__
            assert ga.execute(sys_, truth, plan, EXHAUSTIVE).success
            verified += 1
        locked = random_system(rng, n_insecure=0)
        locked_graph = ga.build_graph(locked)
        assert isinstance(ga.hidden_generalized(locked_graph, cost), ga.Infeasible)
        assert isinstance(ga.detectable_generalized(locked_graph, cost), ga.Infeasible)
    _status("criterion 5: single insecure measurement suffices", True, f"{verified} plans")


def test_criterion_6_interval_three_collapse(corpus):
    systems, _ = corpus
    rng = random.Random(102)
    triples = [random_cost(rng, interval=ga.CostInterval.III) for _ in range(20)]
    checked = 0
    for _, graph in systems[:10]:
        for cost in triples:
            hidden = ga.hidden_generalized(graph, cost)
            detect = ga.detectable_generalized(graph, cost)
            if not isinstance(hidden, ga.AttackPlan):
                assert not isinstance(detect, ga.AttackPlan)
                continue
            assert detect.cut == hidden.cut
            assert len(detect.injected) == 1
            assert abs(detect.total_cost - hidden.total_cost) <= 1e-12
            checked += 1
    _status("criterion 6: interval-III collapse", True,
            f"{checked} checks over {len(triples)} triples")
    assert checked >= 100


def _sweep_injection_families(case_name: str):
    case = ga.load_case(case_name)
    fractions = [round(0.05 * k, 2) for k in range(11)]
    rows, cond = run_sweep(
        case, [HI, DI, HG], FAMILY_COST, fractions, trials=100,
        seed=20250809, condition=HI,
    )
    return fractions, rows, cond


def _sweep_interval(case_name: str, cost: ga.CostModel):
    case = ga.load_case(case_name)
    fractions = [round(0.05 * k, 2) for k in range(11)]
    types = [AttackType.DETECTABLE_GENERALIZED, AttackType.DETECTABLE_JAMMING]
    rows, cond = run_sweep(
        case, types, cost, fractions, trials=100,
        seed=20250809, condition=AttackType.DETECTABLE_JAMMING,
    )
    return fractions, summarize(rows, cond)


def _assert_family_cost_ordering(case_name: str) -> None:
    """Criterion 7a: jamming undercuts detectable injection, which undercuts hidden injection.

    Per conditioned trial, DI and HG are feasible, HG <= DI <= HI, and DI
    stays within the criterion-4 bound (1/2 + 1/|C*|) HI, where C* is the
    hidden-injection cut. A detectable injection takes a strict majority of
    its cut, so on a C* of one or two edges it injects all of it and DI = HI.
    The mean DI < HI is therefore strict only at fractions where some trial
    has |C*| >= 3. HG can inject one edge of the DI cut and jam the rest at
    no more than p_inject / 2 each, so the mean HG < DI is strict at
    fractions where some DI plan injects two or more edges.
    """
    fractions, rows, cond = _sweep_injection_families(case_name)
    summary = summarize(rows, cond)
    per_fraction: dict[float, dict[int, dict]] = {}
    for row in rows:
        if cond[(row.fraction, row.trial)]:
            per_fraction.setdefault(row.fraction, {}).setdefault(row.trial, {})[row.attack_type] = row.cost
    p = FAMILY_COST.p_inject
    failures = []
    strict_fractions = []
    print(f"\n  {case_name} costs (1, .5, .25): fraction, n, |C*|>=3, HG, DI, HI, DI<HI required")
    for f in fractions:
        counts = [summary[(f, t)]["count"] for t in (HG, DI, HI)]
        if len(set(counts)) != 1:
            failures.append(f"fraction {f}: unequal HG/DI/HI counts {counts}")
        trials = per_fraction.get(f, {})
        if not trials:
            print(f"  {f:<6} no feasible hidden-injection trials, skipped")
            continue
        wide = 0
        di_multi = False
        for trial, costs in trials.items():
            hg, di, hi = costs[HG], costs[DI], costs[HI]
            if di is None or hg is None:
                failures.append(f"fraction {f} trial {trial}: DI or HG infeasible")
                continue
            size = round(hi / p)
            wide += size >= 3
            di_multi |= di >= 2 * p - 1e-12
            bound = (0.5 + 1.0 / size) * hi
            if not (hg <= di + 1e-12 and di <= hi + 1e-12 and di <= bound + 1e-12):
                failures.append(
                    f"fraction {f} trial {trial}: HG {hg}, DI {di}, HI {hi}, "
                    f"bound {bound} with |C*| = {size}"
                )
        a, b, c = (summary[(f, t)]["mean_cost"] for t in (HG, DI, HI))
        bad = []
        if wide:
            strict_fractions.append(f)
            if not b < c:
                bad.append("DI < HI")
        if di_multi and not a < b:
            bad.append("HG < DI")
        print(
            f"  {f:<6} {counts[2]:<4} {wide:<7} {a:.4f}  {b:.4f}  {c:.4f}  "
            f"{'yes' if wide else 'no ':<3}  {'ok' if not bad else 'VIOLATED ' + ', '.join(bad)}"
        )
        failures.extend(f"fraction {f}: mean {rule} violated" for rule in bad)
    detail = (
        f"{case_name}; strict DI < HI required at fractions {strict_fractions}"
        + (f"; {len(failures)} violations: {failures[:5]}" if failures else "")
    )
    _status(
        "criterion 7a: per trial HG <= DI <= min(HI, (1/2 + 1/|C*|) HI); "
        "mean DI < HI where |C*| >= 3, mean HG < DI where DI injects >= 2",
        not failures,
        detail,
    )
    assert not failures, failures


def _assert_interval_gaps(case_name: str) -> None:
    gaps = {}
    for label, cost in (("I", ga.CostModel(1, 0.8, 0.6)), ("II", ga.CostModel(1, 0.8, 0.25))):
        fractions, summary = _sweep_interval(case_name, cost)
        per_fraction = []
        print(f"\n  {case_name} interval {label}: fraction, n, DJ, DG, gap")
        for f in fractions:
            dg = summary[(f, AttackType.DETECTABLE_GENERALIZED)]
            dj = summary[(f, AttackType.DETECTABLE_JAMMING)]
            if dj["count"] == 0:
                print(f"  {f:<6} no feasible detectable-jamming trials, skipped")
                continue
            assert dg["count"] == dj["count"]
            gap = dj["mean_cost"] - dg["mean_cost"]
            assert dg["mean_cost"] <= dj["mean_cost"] + 1e-12, (label, f)
            per_fraction.append(gap)
            print(f"  {f:<6} {dj['count']:<4} {dj['mean_cost']:.4f}  {dg['mean_cost']:.4f}  {gap:.4f}")
        gaps[label] = sum(per_fraction) / len(per_fraction)
    detail = f"{case_name}; mean gap I={gaps['I']:.4f} > II={gaps['II']:.4f}"
    _status("criterion 7b: jamming-secure advantage larger in interval I", gaps["I"] > gaps["II"], detail)
    assert gaps["I"] > gaps["II"]


def test_criterion_7_ieee14_trends():
    start = time.time()
    try:
        _assert_interval_gaps("ieee14")
        _assert_family_cost_ordering("ieee14")
    finally:
        elapsed = time.time() - start
        print(f"\n  IEEE-14 sweeps took {elapsed:.1f}s")
        assert elapsed < 600.0, f"criterion 7 exceeded its runtime budget: {elapsed:.1f}s"


@pytest.mark.skipif(
    not os.environ.get("GRIDATTACK_ACCEPT_IEEE57"),
    reason="IEEE-57 acceptance sweep is opt-in: set GRIDATTACK_ACCEPT_IEEE57=1",
)
def test_criterion_7_ieee57_trends():
    _assert_interval_gaps("ieee57")
    _assert_family_cost_ordering("ieee57")


def test_criterion_8_estimator_numerics():
    never = ga.DetectorConfig(threshold=float("inf"))  # the plain WLS solve
    rng_sys = random.Random(103)
    rng = np.random.default_rng(103)
    for _ in range(30):
        sys_ = random_system(rng_sys)
        H = ga.build_matrix(sys_)
        x = rng.normal(size=sys_.n + 1)
        x[-1] = 0.0
        c = rng.normal(size=sys_.n + 1)
        c[-1] = 0.0
        # noiseless recovery
        assert np.max(np.abs(ga.detect_and_remove(sys_, H @ x, never).estimate - x)) < 1e-9
        # hidden-shift identity
        shifted = ga.detect_and_remove(sys_, H @ x + H @ c, never).estimate
        assert np.max(np.abs(shifted - (x + c))) < 1e-9
        # residual invariance under column-space injections, relative 1e-9, with the
        # whitened residual |(z - Hx) w| taken apart from the estimator's own
        z = H @ x + rng.normal(0, 0.05, size=sys_.m)
        w = 1.0 / np.sqrt(sys_.noise_variance)
        x0 = ga.detect_and_remove(sys_, z, never).estimate
        x1 = ga.detect_and_remove(sys_, z + H @ c, never).estimate
        r0 = np.linalg.norm((z - H @ x0) * w)
        r1 = np.linalg.norm((z + H @ c - H @ x1) * w)
        assert abs(r1 - r0) <= 1e-9 * max(r0, 1.0)
    _status("criterion 8: estimator numerics at 1e-9", True, "30 random systems")
