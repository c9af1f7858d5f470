"""Benchmark for gridattack: end-to-end throughput and attack latency, per-layer spans.

    python3 perfbench/run.py --workload ieee14-sweep --seed 1 --seconds 35 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics, taken
from a run that alternates untraced and traced units of work. The exit code
is 0 when every correctness check passed and 1 when one failed; a missing
package or bad arguments give 2. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
SETUP_REPEATS = 3

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("attack_ms_p50", "ms"),
    ("attack_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

DESIGN_TYPES = (
    "hidden-injection", "detectable-injection", "hidden-jamming",
    "detectable-jamming", "hidden-generalized", "detectable-generalized",
)
# Per-layer figures: span name and the fields reported for it, each per trial.
LAYERS = (
    ("mincut.min_st_cut", ("calls", "s")),
    ("mincut.global_min_cut", ("calls", "self_s")),
    ("mincut.CutSolver", ("calls", "s")),
    ("attack.constrained_min_cut", ("calls", "self_s", "boosts", "gave_up")),
    *((f"attack.design.{t}", ("calls", "self_s", "flows", "no_solution")) for t in DESIGN_TYPES),
    ("estimator.detect_and_remove", ("calls", "self_s", "detected", "removed")),
    ("grid.build_matrix", ("calls", "s")),
    ("grid.build_graph", ("s",)),
    ("verify.execute", ("calls", "self_s", "failed")),
    ("oracle.optimal_cost", ("calls", "s")),
    ("casefile.place_measurements", ("calls", "s")),
    ("experiment.run_sweep", ("self_s",)),
)
EXTRA_LAYER_METRICS = (
    ("oracle.dg_exact", "count/trial"),
    ("oracle.dg_compared", "count/trial"),
    ("trace.overhead_share", "ratio"),
    ("trace.uncovered_share", "ratio"),
)


def layer_metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in output order."""
    named = [
        (f"{layer}.{field}", "s/trial" if field in ("s", "self_s") else "count/trial")
        for layer, fields in LAYERS
        for field in fields
    ]
    return named + list(EXTRA_LAYER_METRICS)


@dataclass
class Unit:
    traced: bool
    first_trial: int
    trials: int
    seconds: float
    first_span: int
    end_span: int


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it (used for setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = _parse(argv)
    if not (SRC / "gridattack" / "__init__.py").is_file():
        print(f"perfbench: no gridattack package under {SRC}", file=sys.stderr)
        return 2
    # One single-threaded process: keep BLAS from starting worker threads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        return _setup_only(args)

    import workloads  # noqa: E402  (imports gridattack from src/)

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    workload.prepare(args.seed, OUT)
    setup = _measure_setup(args)
    result = run(workload, args, setup, json.loads(GOLDEN.read_text()), load_at_start)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _setup_only(args) -> int:
    """Import, load and warm up once, then print the phase times as JSON."""
    t0 = perf_counter()
    import workloads  # noqa: E402

    t1 = perf_counter()
    workloads.WORKLOADS[args.workload]().prepare(args.seed, OUT)
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "prepare_s": t2 - t1}))
    return 0


def _measure_setup(args) -> dict:
    """Wall time of a fresh process that imports, loads and warms up; median of several."""
    walls, phases = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        walls.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        phases.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(walls),
        "samples_s": walls,
        "import_s": statistics.median(p["import_s"] for p in phases),
        "prepare_s": statistics.median(p["prepare_s"] for p in phases),
    }


def unit_count(workload, seconds: float, traced_run: bool) -> int:
    """How many units a run makes: as many as fit in ``seconds`` at the nominal unit time.

    The count depends on ``seconds`` and the workload only, never on how fast
    the units happen to run. Each figure is the fastest of the same number of
    repetitions on every run, and a slow machine makes a run longer rather
    than cutting its repetitions. A traced run alternates untraced and traced
    units, so its count is even.
    """
    n = max(workload.min_units, round(seconds / workload.unit_seconds))
    return n + n % 2 if traced_run else n


def drive(workload, seconds: float, traced_run: bool, tracer, tally) -> list[Unit]:
    """Run ``unit_count`` units; in a traced run every second one is traced."""
    from spans import install_latency_probe, install_layers

    units: list[Unit] = []
    for k in range(unit_count(workload, seconds, traced_run)):
        traced = traced_run and k % 2 == 1
        if traced:
            install_layers(tracer)
        elif workload.uses_probe:
            install_latency_probe(tracer)
        first, first_trial, trials_before = len(tracer), tracer.trial + 1, tally.trials
        t0 = perf_counter()
        try:
            workload.run_unit(tally, tracer.next_trial)
        finally:
            t1 = perf_counter()
            tracer.uninstall()
        units.append(Unit(traced, first_trial, tally.trials - trials_before, t1 - t0,
                          first, len(tracer)))
    return units


def _rate(units: list[Unit]) -> float:
    return sum(u.trials for u in units) / sum(u.seconds for u in units)


def _span_ids(units: list[Unit]) -> list[int]:
    return [i for u in units for i in range(u.first_span, u.end_span)]


def fastest_repeats(tracer, units: list[Unit]) -> tuple[dict, dict]:
    """Fastest seconds of each trial, and milliseconds of each attack, over sweep units.

    Sweep units repeat the same work, and interference from other processes
    on a shared machine only adds time, so the fastest repetition is the
    closest reading of the work's own cost. A trial runs from its placement
    to the next placement or the end of its ``run_sweep``; an attack is
    (trial within the unit, type) and costs its design plus its verify.
    """
    trial_s: dict[int, float] = {}
    attack_ms: dict[tuple[int, str], float] = {}

    def close(trial: int, seconds: float) -> None:
        trial_s[trial] = min(trial_s.get(trial, seconds), seconds)

    for u in units:
        attacks: dict[tuple[int, str], float] = {}
        current = None  # (trial, start) of the open trial
        sweep_end = 0.0
        for i in range(u.first_span, u.end_span):
            name = tracer.names[tracer.name_of[i]]
            if name in ("experiment.run_sweep", "casefile.place_measurements"):
                if current is not None:
                    end = sweep_end if name == "experiment.run_sweep" else tracer.start[i]
                    close(current[0], end - current[1])
                    current = None
                if name == "experiment.run_sweep":
                    sweep_end = tracer.end[i]
                else:
                    current = (tracer.trial_of[i] - u.first_trial, tracer.start[i])
            elif name in ("attack.design", "verify.execute"):
                key = (tracer.trial_of[i] - u.first_trial, tracer.tags[i]["type"])
                attacks[key] = attacks.get(key, 0.0) + (tracer.end[i] - tracer.start[i]) * 1e3
        if current is not None:
            close(current[0], sweep_end - current[1])
        for key, ms in attacks.items():
            attack_ms[key] = min(attack_ms.get(key, ms), ms)
    return trial_s, attack_ms


def tail_quantile(samples: int) -> float:
    """The highest quantile, up to 0.9, that leaves at least ten samples above it."""
    return min(0.9, 1.0 - 10.0 / samples) if samples > 10 else 0.5


def run(workload, args, setup: dict, golden: dict, load_at_start) -> dict:
    """Drive a prepared workload, print what it measured and return the result object."""
    import numpy as np
    import spans
    from workloads import Tally

    tracer = spans.Tracer()
    tally = Tally()
    units = drive(workload, args.seconds, bool(args.trace), tracer, tally)
    if hasattr(workload, "check_golden"):
        workload.check_golden(golden, tally)
    if workload.uses_probe:
        tally.no_solution = sum(
            1 for i in _span_ids(units)
            if tracer.names[tracer.name_of[i]] == "attack.design"
            and tracer.tags[i]["result"] == "NoSolutionFound"
        )

    untraced = [u for u in units if not u.traced]
    traced = [u for u in units if u.traced]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "units": len(units), "traced_units": len(traced),
        "trials": sum(u.trials for u in units),
        "designs_attempted": tally.designs, "failed": tally.failed,
        "no_solution": tally.no_solution, "no_solution_misses": tally.misses,
        "verify_failed": tally.verify_failed,
        "failed_share": (tally.no_solution + tally.verify_failed) / max(tally.designs, 1),
        "dg_exact": tally.dg_exact, "dg_compared": tally.dg_compared,
        "sweep_csv_sha256": tally.digests or None,
        "setup": setup,
    }
    if args.trace:
        metrics = _layer_metrics(tracer, traced, untraced, tally)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(str(path), _span_ids(traced))
        info["spans_file"] = str(path.relative_to(ROOT))
        info["spans"] = len(_span_ids(traced))
    else:
        if workload.uses_probe:
            trial_s, attack_ms = fastest_repeats(tracer, untraced)
        else:
            trial_s, attack_ms = tally.trial_s, tally.attack_ms
        throughput = len(trial_s) / sum(trial_s.values())
        latencies = list(attack_ms.values())
        tail = tail_quantile(len(latencies))
        p50, p90 = (float(v) for v in np.quantile(latencies, [0.5, tail]))
        info["latency_samples"] = len(latencies)
        info["tail_quantile"] = tail
        info["tail_samples_beyond"] = sum(1 for v in latencies if v > p90)
        values = {
            "trials_per_s": throughput,
            "attack_ms_p50": p50,
            "attack_ms_p90": p90,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    info.update(_machine(load_at_start, args.seed))
    print("info " + json.dumps(info))
    for error in tally.errors[:20]:
        print(f"CORRECTNESS FAILURE {error}")
    if len(tally.errors) > 20:
        print(f"CORRECTNESS FAILURE ... and {len(tally.errors) - 20} more")
    for name, cell in metrics.items():
        print(f"metric {name} {cell['value']:.6g} {cell['unit']}")
    return {
        "correct": not tally.errors,
        "attempted": max(tally.designs, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }


def _layer_metrics(tracer, traced: list[Unit], untraced: list[Unit], tally) -> dict:
    """Per-layer figures per traced trial, plus the trace's own overhead and coverage."""
    from spans import covered_seconds, layer_stats, nearest_ancestor

    ids = _span_ids(traced)
    stats = layer_stats(tracer, ids)
    trials = sum(u.trials for u in traced)
    flows: dict[str, int] = {}
    boosts = -stats.get("attack.constrained_min_cut", {}).get("calls", 0)
    for i in ids:
        name = tracer.names[tracer.name_of[i]]
        if name == "mincut.min_st_cut":
            owner = nearest_ancestor(tracer, i, "attack.design.")
            if owner >= 0:
                designer = tracer.names[tracer.name_of[owner]]
                flows[designer] = flows.get(designer, 0) + 1
        elif name == "mincut.global_min_cut":
            boosts += nearest_ancestor(tracer, i, "attack.constrained_min_cut") >= 0
    values = {}
    for layer, fields in LAYERS:
        cell = stats.get(layer, {})
        for field in fields:
            if field == "flows":
                total = flows.get(layer, 0)
            elif field == "boosts":
                total = boosts
            elif field == "no_solution":
                total = cell.get("result.NoSolutionFound", 0)
            else:
                total = cell.get(field, 0)
            values[f"{layer}.{field}"] = total / trials
    values["oracle.dg_exact"] = tally.dg_exact / tally.trials
    values["oracle.dg_compared"] = tally.dg_compared / tally.trials
    traced_seconds = sum(u.seconds for u in traced)
    values["trace.overhead_share"] = 1.0 - _rate(traced) / _rate(untraced)
    values["trace.uncovered_share"] = 1.0 - covered_seconds(tracer, ids) / traced_seconds
    return {name: {"value": values[name], "unit": unit} for name, unit in layer_metric_units()}


def _machine(load_at_start, seed: int) -> dict:
    """Facts about the machine and code that the figures depend on."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "loadavg_at_start": load_at_start,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads OpenBLAS would use, read from the loaded library; None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not its own git work tree."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    """sha256 over the package's source and data files, in path order."""
    digest = hashlib.sha256()
    package = SRC / "gridattack"
    for path in sorted(p for p in package.rglob("*") if p.suffix in (".py", ".grid")):
        digest.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
