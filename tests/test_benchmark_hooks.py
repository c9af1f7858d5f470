"""The benchmark's span tracer still finds every name it patches or constructs.

``perfbench/spans.py`` wraps package functions where each caller looks them
up, and ``perfbench/workloads.py`` builds systems from the package's public
types. A refactor that renames or deletes one of those names breaks the
benchmark without failing any other test; this one fails instead.
"""

import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
from gridattack import attack, grid, mincut, oracle, verify  # noqa: E402
from gridattack.attack import AttackPlan, AttackType, CostInterval  # noqa: E402


def test_tracer_installs_runs_and_uninstalls():
    designers = dict(attack.DESIGNERS)
    global_min_cut = mincut.CutSolver.global_min_cut
    reweighted = mincut.WeightedGraph.reweighted
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        # no designer calls it any more, but the tracer still wraps it
        assert mincut.WeightedGraph.reweighted is not reweighted
        rng = random.Random(0)
        system = workloads.random_system(rng)
        graph = grid.build_graph(system)
        cost = workloads.random_cost(rng, CostInterval.I)
        plan = attack.design(AttackType.DETECTABLE_GENERALIZED, graph, cost)
        assert isinstance(plan, AttackPlan)
        verdict = verify.execute(system, np.zeros(system.n + 1), plan, workloads.EXHAUSTIVE)
        assert verdict.success
        oracle.optimal_cost(graph, cost, AttackType.DETECTABLE_GENERALIZED)
    finally:
        tracer.uninstall()
    recorded = {tracer.names[tracer.name_of[i]] for i in range(len(tracer))}
    assert {
        "attack.design.detectable-generalized",
        "attack.constrained_min_cut",
        "mincut.CutSolver",
        "mincut.global_min_cut",
        "mincut.WeightedGraph.from_measurement_graph",
        "verify.execute",
        "estimator.detect_and_remove",
        "grid.build_matrix",
        "oracle.optimal_cost",
    } <= recorded
    assert attack.DESIGNERS == designers
    assert mincut.CutSolver.global_min_cut is global_min_cut
    assert mincut.WeightedGraph.reweighted is reweighted


def test_repeated_oracle_units_redo_their_matrix_work(tmp_path, monkeypatch):
    """Per-object caches must not turn a repeated unit's verification into lookups."""
    construct = grid.MeasurementSystem.matrix.func
    built = []

    def counting(system):
        built.append(system)
        return construct(system)

    monkeypatch.setattr(grid.MeasurementSystem.matrix, "func", counting)
    work = workloads.OracleWorkload(batch=3)
    work.prepare(seed=1, out_dir=tmp_path)
    counts = []
    for _ in range(2):
        built.clear()
        tally = workloads.Tally()
        work.run_unit(tally)
        assert tally.failed == 0, tally.errors
        counts.append(len(built))
    assert counts[0] > 0 and counts[0] == counts[1]
