"""The per-graph memo: one entry per owning module, none that keeps its graph
alive, and the same answers in any order of calls.

``MeasurementGraph.cut_memo`` is shared by the designers, the oracle and
``verify.execute``. The state machine interleaves all three on a few shared
graphs and checks every answer against the same call on a freshly built,
value-equal graph, whose memo starts empty.
"""

import dataclasses
import gc
import math
import random
import sys
import weakref
from pathlib import Path

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import gridattack as ga
from gridattack import AttackType
from conftest import describe_plan, describe_verdict, random_system, triangle_system

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

OWNERS = {"attack", "oracle", "verify"}

# one triple inside each interval, then the interval boundaries
COSTS = [ga.CostModel(*c) for c in (
    (1, .8, .6), (1, .8, .25), (1, .5, .25),
    (1, .5, .5), (1, .8, .4), (2, 1, 1), (1, 1, 1), (1, .75, .5),
)]

CONFIGS = [
    ga.DetectorConfig(removal_mode=ga.RemovalMode.EXHAUSTIVE_MINIMAL),
    ga.DetectorConfig(removal_mode=ga.RemovalMode.GREEDY_NORMALIZED_RESIDUAL),
    ga.DetectorConfig(threshold=math.inf),
]


def _system(seed: int) -> ga.MeasurementSystem:
    rng = random.Random(seed)
    return random_system(rng, n_buses=rng.randint(4, 7), m=rng.randint(7, 14),
                         secure_prob=rng.choice([0.2, 0.3, 0.4]))


# on the random ones, optima of two types share their counts on different cuts
SYSTEMS = [triangle_system(), _system(13), _system(28)]


def _design_optimum_and_verify_all(graph: ga.MeasurementGraph, system: ga.MeasurementSystem):
    truth = np.zeros(system.n + 1)
    for cost in COSTS[:3]:
        for attack_type in AttackType:
            plans = [ga.design(attack_type, graph, cost)]
            optimum = ga.optimal_cost(graph, cost, attack_type)
            if isinstance(optimum, tuple):
                plans.append(optimum[1])
            for plan in plans:
                if isinstance(plan, ga.AttackPlan):
                    ga.execute(system, truth, plan, CONFIGS[0])


def test_no_graph_outlives_its_last_reference():
    """With the cyclic collector off, reference counting alone frees a graph
    once every plan on it is dropped: no memo entry refers to the graph."""
    system = random_system(random.Random(34), n_buses=6, m=12, secure_prob=0.3)
    graph = ga.build_graph(system)
    gc.collect()
    gc.disable()
    try:
        _design_optimum_and_verify_all(graph, system)
        assert set(graph.cut_memo) == OWNERS
        alive = weakref.ref(graph)
        del graph
        assert alive() is None
    finally:
        gc.enable()


def test_oracle_unit_leaves_no_cyclic_garbage(tmp_path):
    """One benchmark unit of designs, verdicts and oracle checks makes no
    reference cycle, so the cyclic collector has nothing to free."""
    work = workloads.OracleWorkload(batch=3)
    work.prepare(seed=1, out_dir=tmp_path)
    gc.collect()
    gc.disable()
    try:
        tally = workloads.Tally()
        work.run_unit(tally)
        assert tally.failed == 0, tally.errors
        assert gc.collect() == 0
    finally:
        gc.enable()


class MemoMachine(RuleBasedStateMachine):
    """Designs, oracle optima and verdicts on shared graphs, in any order, equal
    those of the same call on a freshly built, value-equal graph."""

    def __init__(self):
        super().__init__()
        self.graphs = [ga.build_graph(s) for s in SYSTEMS]
        self.plans = []  # (system index, plan on a shared graph)

    def _keep(self, k: int, plan) -> None:
        if isinstance(plan, ga.AttackPlan):
            assert plan.graph is self.graphs[k]
            self.plans.append((k, plan))

    @rule(k=st.integers(0, len(SYSTEMS) - 1), attack_type=st.sampled_from(AttackType),
          cost=st.sampled_from(COSTS))
    def design(self, k, attack_type, cost):
        got = ga.design(attack_type, self.graphs[k], cost)
        want = ga.design(attack_type, ga.build_graph(SYSTEMS[k]), cost)
        assert describe_plan(got) == describe_plan(want)
        self._keep(k, got)

    @rule(k=st.integers(0, len(SYSTEMS) - 1), attack_type=st.sampled_from(AttackType),
          cost=st.sampled_from(COSTS))
    def optimal_cost(self, k, attack_type, cost):
        got = ga.optimal_cost(self.graphs[k], cost, attack_type)
        want = ga.optimal_cost(ga.build_graph(SYSTEMS[k]), cost, attack_type)
        assert type(got) is type(want)
        if isinstance(want, tuple):
            assert repr(got[0]) == repr(want[0])
            assert describe_plan(got[1]) == describe_plan(want[1])
            self._keep(k, got[1])
        else:
            assert got == want

    @precondition(lambda self: self.plans)
    @rule(data=st.data(), cfg=st.sampled_from(CONFIGS),
          alpha=st.sampled_from([None, 0.02, 0.3, -0.5]),
          truth=st.sampled_from([0.0, 0.25]))
    def execute(self, data, cfg, alpha, truth):
        k, plan = data.draw(st.sampled_from(self.plans))
        system = SYSTEMS[k]
        state = np.full(system.n + 1, truth)
        state[-1] = 0.0
        got = ga.execute(system, state, plan, cfg, alpha)
        fresh = dataclasses.replace(plan, graph=ga.build_graph(system))
        want = ga.execute(system, state, fresh, cfg, alpha)
        assert describe_verdict(got) == describe_verdict(want)

    @invariant()
    def one_entry_per_owner(self):
        for graph in self.graphs:
            assert set(graph.cut_memo) <= OWNERS


MemoMachine.TestCase.settings = settings(
    derandomize=True, max_examples=40, stateful_step_count=25, deadline=None, database=None
)
test_memo_answers_do_not_depend_on_call_order = MemoMachine.TestCase
