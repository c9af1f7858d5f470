"""Smoke test of the benchmark itself, at tiny sizes (about 20 s).

    python3 perfbench/smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
on every workload, traced and untraced; that recorded spans nest, each child
inside its parent; and that a wrong golden digest fails the run and names
the workload. Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import sys
from argparse import Namespace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import run  # noqa: E402
import workloads  # noqa: E402


def tiny(name: str):
    """The workload at a size that runs in seconds."""
    if name == "ieee14-sweep":
        return workloads.SweepWorkload(name, "ieee14", trials=(1, 1, 1), fractions=((0.0, 0.5),) * 3)
    if name == "ieee57-sweep":
        return workloads.SweepWorkload(name, "ieee57", trials=(1, 1, 1), fractions=((0.5,),) * 3)
    return workloads.OracleWorkload(batch=3)


def run_tiny(name: str, trace: int, setup: dict, golden: dict) -> tuple[dict, str]:
    workload = tiny(name)
    workload.prepare(7, run.OUT)
    args = Namespace(workload=name, seed=7, seconds=0.5, trace=trace)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        result = run.run(workload, args, setup, golden, os.getloadavg())
    return result, printed.getvalue()


def check(ok: bool, what: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        sys.exit(1)


def spans_nest(path: Path) -> tuple[bool, int]:
    """Every span with a parent lies inside it, in the same trial or a later one.

    A sweep's run_sweep span covers many trials; every span below a placement
    belongs to that placement's trial.
    """
    with gzip.open(path, "rt") as fh:
        spans = {row[0]: row for row in map(json.loads, fh)}
    for _, _, start, end, parent, trial, _ in spans.values():
        if not start <= end:
            return False, len(spans)
        if parent >= 0:
            _, _, p_start, p_end, _, p_trial, _ = spans[parent]
            if not (p_start <= start and end <= p_end and p_trial <= trial):
                return False, len(spans)
    return bool(spans), len(spans)


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run.OUT.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        setup = run._measure_setup(Namespace(workload=name, seed=7))
        for trace in (0, 1):
            result, printed = run_tiny(name, trace, setup, golden={})
            check(result["correct"] and set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace}: correct result with the four keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[trace], f"{name} trace={trace}: every metric with its unit")
            check(all(f"metric {k} " in printed for k in wanted[trace]),
                  f"{name} trace={trace}: every metric printed by name")
        nested, count = spans_nest(run.OUT / f"trace-{name}-seed7.jsonl.gz")
        check(nested, f"{name}: {count} spans nest inside their parents")

    # A golden record that matches the tiny sweep's size but not its digest.
    name = "ieee14-sweep"
    workload = tiny(name)
    record = {"seed": 7, "trials": list(workload.trials), "fractions": [list(f) for f in workload.fractions],
              "sweeps": {label: "0" * 64 for label, *_ in workloads.SWEEPS}}
    setup = {"setup_s": 1.0}
    result, printed = run_tiny(name, 0, setup, golden={name: record})
    check(not result["correct"] and result["failed"] >= 1,
          f"{name}: a wrong golden digest fails the run")
    check(f"CORRECTNESS FAILURE {name}: sweep" in printed,
          f"{name}: the failure names the workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
