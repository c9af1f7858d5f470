"""In-memory span tracer that times gridattack's layers from outside the package.

The tracer replaces public functions and methods of the package with timing
wrappers at the place each caller looks the name up: a module attribute
(``experiment.design``, ``verify.build_matrix``), a class attribute (the
``CutSolver`` methods) or a registry entry (``attack.DESIGNERS[...]``).
Nothing inside ``src/`` is edited, and ``uninstall`` puts every original
back.

A span is (name, start, end, parent span, trial); a few spans also carry
tags read off the wrapped call's return value (``result``, ``gave_up``,
``detected``, ``removed``, ``failed``). Spans live in flat arrays while the
benchmark runs and are written out once it ends.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, Optional


class Tracer:
    """Records nested spans; single-threaded, one instance per benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.trial_of = array("l")
        self.tags: dict[int, dict] = {}
        self.trial = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(
        self,
        name: str,
        func: Callable,
        tag: Optional[Callable[[tuple, object], dict]] = None,
        new_trial: bool = False,
    ) -> Callable:
        """Timing wrapper around ``func``.

        ``tag(args, result)`` returns the span's tags; ``new_trial`` advances
        the trial id before the span opens.
        """
        nid = self._name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if new_trial:
                self.trial += 1
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.trial_of.append(self.trial)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                self.end[idx] = perf_counter()
                stack.pop()
                self.tags[idx] = {"raised": type(exc).__name__}
                raise
            self.end[idx] = perf_counter()
            stack.pop()
            if tag is not None:
                self.tags[idx] = tag(args, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # -- installing wrappers -------------------------------------------------

    def patch(self, owner, key, name: str, tag=None, new_trial: bool = False) -> None:
        """Wrap ``owner.key`` (or ``owner[key]`` for a dict) until ``uninstall``."""
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = self.wrap(name, original, tag, new_trial)
        else:
            original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            if isinstance(original, classmethod):
                setattr(owner, key, classmethod(self.wrap(name, original.__func__, tag, new_trial)))
            else:
                setattr(owner, key, self.wrap(name, original, tag, new_trial))
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- reading the spans back ----------------------------------------------

    def next_trial(self) -> None:
        """Count the spans that follow as the next trial's."""
        self.trial += 1

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: str, ids: Iterable[int]) -> None:
        """Write spans as gzip JSON lines: index, name, start, end, parent, trial, tags."""
        with gzip.open(path, "wt") as fh:
            for i in ids:
                row = [i, self.names[self.name_of[i]], self.start[i], self.end[i],
                       self.parent[i], self.trial_of[i], self.tags.get(i, {})]
                fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# Where each layer is looked up.

def _result_tag(args, result) -> dict:
    return {"result": type(result).__name__}


def _gave_up_tag(args, result) -> dict:
    return {"gave_up": int(type(result).__name__ == "NoSolutionFound")}


def _report_tag(args, report) -> dict:
    return {"detected": int(report.detected), "removed": len(report.removed)}


def _verdict_tag(args, verdict) -> dict:
    return {"type": verdict.attack_type.value, "failed": int(not verdict.success)}


def _design_tag(args, result) -> dict:
    return {"type": args[0].value, "result": type(result).__name__}


def install_layers(tracer: Tracer) -> None:
    """Wrap every public function on the workloads' call paths, at each lookup site.

    ``grid.connected`` is left alone: it is a helper called once per
    candidate removal set and per census cut, so a span around it would
    cost more than the work it times.
    """
    from gridattack import attack, estimator, experiment, grid, mincut, oracle, verify

    install_latency_probe(tracer)
    p = tracer.patch
    p(experiment, "write_csv", "experiment.write_csv")
    p(experiment, "build_graph", "grid.build_graph")
    p(experiment, "classify_interval", "attack.classify_interval")
    p(grid, "build_graph", "grid.build_graph")
    p(verify, "execute", "verify.execute", _verdict_tag)
    p(verify, "build_matrix", "grid.build_matrix")
    p(verify, "remove_measurements", "grid.remove_measurements")
    p(verify, "detect_and_remove", "estimator.detect_and_remove", _report_tag)
    p(estimator, "build_matrix", "grid.build_matrix")
    for attack_type in list(attack.DESIGNERS):
        p(attack.DESIGNERS, attack_type, f"attack.design.{attack_type.value}", _result_tag)
    p(attack, "constrained_min_cut", "attack.constrained_min_cut", _gave_up_tag)
    p(attack, "classify_interval", "attack.classify_interval")
    p(attack, "cut_from_side", "mincut.cut_from_side")
    p(mincut, "cut_from_side", "mincut.cut_from_side")
    p(mincut.CutSolver, "__init__", "mincut.CutSolver")
    p(mincut.CutSolver, "min_st_cut", "mincut.min_st_cut")
    p(mincut.CutSolver, "global_min_cut", "mincut.global_min_cut")
    p(mincut.WeightedGraph, "from_measurement_graph", "mincut.WeightedGraph.from_measurement_graph")
    p(mincut.WeightedGraph, "reweighted", "mincut.WeightedGraph.reweighted")
    p(oracle, "optimal_cost", "oracle.optimal_cost")


def install_latency_probe(tracer: Tracer) -> None:
    """The four wrappers an untraced sweep needs to time each trial and attack.

    A placement opens a trial, which lasts until the next placement or the
    end of its ``run_sweep``. ``attack.design`` spans carry the type and
    result class, ``verify.execute`` spans the type and whether
    verification failed.
    """
    from gridattack import experiment

    tracer.patch(experiment, "run_sweep", "experiment.run_sweep")
    tracer.patch(experiment, "place_measurements", "casefile.place_measurements", new_trial=True)
    tracer.patch(experiment, "design", "attack.design", _design_tag)
    tracer.patch(experiment, "execute", "verify.execute", _verdict_tag)


# ---------------------------------------------------------------------------
# Derived per-layer figures.

def layer_stats(tracer: Tracer, spans: Iterable[int]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds and summed tags.

    Self time is a span's duration minus its direct children's durations.
    Inclusive time counts only the outermost span when a name nests inside
    itself, so no interval is counted twice.
    """
    spans = list(spans)
    child_time: dict[int, float] = defaultdict(float)
    for i in spans:
        parent = tracer.parent[i]
        if parent >= 0:
            child_time[parent] += tracer.end[i] - tracer.start[i]
    stats: dict[str, dict[str, float]] = {}
    for i in spans:
        name = tracer.names[tracer.name_of[i]]
        cell = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = tracer.end[i] - tracer.start[i]
        cell["calls"] += 1
        cell["self_s"] += duration - child_time[i]
        if not _inside_same_name(tracer, i):
            cell["s"] += duration
        for key, value in tracer.tags.get(i, {}).items():
            if isinstance(value, (int, float)):
                cell[key] = cell.get(key, 0) + value
            else:
                counter = f"{key}.{value}"
                cell[counter] = cell.get(counter, 0) + 1
    return stats


def _inside_same_name(tracer: Tracer, i: int) -> bool:
    nid = tracer.name_of[i]
    parent = tracer.parent[i]
    while parent >= 0:
        if tracer.name_of[parent] == nid:
            return True
        parent = tracer.parent[parent]
    return False


def nearest_ancestor(tracer: Tracer, i: int, prefix: str) -> int:
    """Index of the closest enclosing span whose name starts with ``prefix``, or -1."""
    parent = tracer.parent[i]
    while parent >= 0:
        if tracer.names[tracer.name_of[parent]].startswith(prefix):
            return parent
        parent = tracer.parent[parent]
    return -1


def covered_seconds(tracer: Tracer, spans: Iterable[int]) -> float:
    """Wall time covered by top-level spans (those without a parent)."""
    return sum(tracer.end[i] - tracer.start[i] for i in spans if tracer.parent[i] < 0)
