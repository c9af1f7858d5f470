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
    # a classmethod read through its class is a new bound method each time
    from_measurement_graph = mincut.WeightedGraph.__dict__["from_measurement_graph"]
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    try:
        # no designer calls these any more, but the tracer still wraps them
        assert mincut.WeightedGraph.reweighted is not reweighted
        assert mincut.WeightedGraph.__dict__["from_measurement_graph"] is not from_measurement_graph
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
        "verify.execute",
        "estimator.detect_and_remove",
        "grid.build_matrix",
        "oracle.optimal_cost",
    } <= recorded
    assert attack.DESIGNERS == designers
    assert mincut.CutSolver.global_min_cut is global_min_cut
    assert mincut.WeightedGraph.reweighted is reweighted
    assert mincut.WeightedGraph.__dict__["from_measurement_graph"] is from_measurement_graph


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


def test_repeated_oracle_units_redo_their_structural_work(tmp_path, monkeypatch):
    """Census, price tables and cut solver live in each graph object's memo: every unit
    builds its own graphs, so each takes its own, and a value-equal graph shares none."""
    built = {"census": 0, "table": 0, "solver": 0}

    def counting(name, real):
        def run(*args, **kwargs):
            built[name] += 1
            return real(*args, **kwargs)
        return run

    monkeypatch.setattr(oracle, "_take_census", counting("census", oracle._take_census))
    monkeypatch.setattr(oracle, "_take_table", counting("table", oracle._take_table))
    monkeypatch.setattr(mincut.CutSolver, "__init__",
                        counting("solver", mincut.CutSolver.__init__))
    work = workloads.OracleWorkload(batch=3)
    work.prepare(seed=1, out_dir=tmp_path)
    for _ in range(2):
        built.update(census=0, table=0, solver=0)
        tally = workloads.Tally()
        work.run_unit(tally)
        assert tally.failed == 0, tally.errors
        # one census, one table per attack type and one solver per graph
        assert built == {"census": 3, "table": 3 * len(AttackType), "solver": 3}
    system, costs = work.inputs[0]
    graph, twin = grid.build_graph(system), grid.build_graph(system)
    assert twin == graph and twin is not graph

    def check(g):
        for attack_type in AttackType:
            attack.design(attack_type, g, costs[0])
            oracle.optimal_cost(g, costs[0], attack_type)

    check(graph)
    built.update(census=0, table=0, solver=0)
    check(graph)
    assert built == {"census": 0, "table": 0, "solver": 0}
    check(twin)
    assert built == {"census": 1, "table": len(AttackType), "solver": 1}


def test_repeated_sweep_units_redo_their_placements(tmp_path, monkeypatch):
    """Two sweep units place, build, solve and estimate alike, on new objects:
    only the case's own flow rows are shared between them."""
    from gridattack import casefile, experiment

    made = {"placement": [], "system": [], "graph": [], "solver": [], "estimate": []}

    def listing(name, real):
        def run(*args, **kwargs):
            result = real(*args, **kwargs)
            made[name].append(result)
            return result
        return run

    def recording(real):
        def run(cls, *args, **kwargs):
            obj = real(cls, *args, **kwargs)
            if cls is grid.MeasurementSystem:
                made["system"].append(obj)
            return obj
        return run

    monkeypatch.setattr(experiment, "place_measurements",
                        listing("placement", experiment.place_measurements))
    monkeypatch.setattr(experiment, "build_graph", listing("graph", experiment.build_graph))
    for module in (casefile, grid):  # placements and reduced systems are built unchecked
        monkeypatch.setattr(module, "unchecked", recording(module.unchecked))
    monkeypatch.setattr(mincut.CutSolver, "__init__", listing("solver", mincut.CutSolver.__init__))
    monkeypatch.setattr(verify, "detect_and_remove", listing("estimate", verify.detect_and_remove))
    work = workloads.SweepWorkload("tiny", "ieee14", trials=(2, 1, 1),
                                   fractions=((0.0, 0.25, 0.5),) * 3)
    work.prepare(seed=1, out_dir=tmp_path)
    units = []
    for _ in range(2):
        for name in made:
            made[name] = []
        tally = workloads.Tally()
        work.run_unit(tally)
        assert tally.failed == 0, tally.errors
        units.append(dict(made))  # holds every object, so no id is reused
    first, second = units
    counts = [{k: len(v) for k, v in u.items()} for u in units]
    assert counts[0] == counts[1] and all(counts[0].values()), counts
    assert counts[0]["placement"] == work.trials_per_unit
    for name in ("placement", "system", "graph"):
        assert {id(x) for x in first[name]}.isdisjoint(id(x) for x in second[name]), name
    assert all(any(p is s for s in second["system"]) for p in second["placement"])
    rows = {id(r): r for p in first["placement"] for r in p.measurements}
    _, flows, _ = work.case.placement
    shared = [r for p in second["placement"] for r in p.measurements if id(r) in rows]
    assert shared and all(r.id < len(flows) and r is flows[r.id][r.secure] for r in shared)
