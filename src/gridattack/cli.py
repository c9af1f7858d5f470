"""Command-line front end: single-shot attack design and randomized sweeps."""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .attack import AttackPlan, AttackType, CostModel, Infeasible, NoSolutionFound, classify_interval, design
from .casefile import load_case, place_measurements, system_from_case
from .errors import InvalidCosts, ParseError, TopologyError, UnobservableSystem
from .estimator import DetectorConfig, RemovalMode
from .experiment import MAX_FRACTIONS, MAX_TRIALS, run_sweep, summarize, write_csv
from .grid import build_graph
from .verify import execute

EX_OK = 0
EX_FAILED = 1
EX_INFEASIBLE = 2
EX_NO_SOLUTION = 3
EX_USAGE = 64
EX_DATA = 65

_EXHAUSTIVE_LIMIT = 24  # measurements; larger systems verify greedily


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _fractions(text: str) -> list[float]:
    too_many = f"at most {MAX_FRACTIONS} fractions"
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("fraction range is start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not step > 0:
            raise ValueError("fraction step must be positive")
        values = []
        k = 0
        while start + k * step <= stop + 1e-9:
            if len(values) == MAX_FRACTIONS:
                raise ValueError(too_many)
            values.append(round(start + k * step, 10))
            k += 1
    else:
        values = [float(p) for p in text.split(",") if p]
        if len(set(values)) > MAX_FRACTIONS:
            raise ValueError(too_many)
    for value in values:
        _check_fraction("--fractions", value)
    return values


def _check_fraction(what: str, value: float) -> None:
    if not 0 <= value <= 1:
        raise ValueError(f"{what} must lie in [0, 1], got {value}")


def _usage_error(args, message) -> int:
    print(f"grid-attack {args.command}: error: {message}", file=sys.stderr)
    return EX_USAGE


def _build_parser() -> _Parser:
    parser = _Parser(prog="grid-attack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    type_names = [t.value for t in AttackType]

    def common(p):
        p.add_argument("--case", default="ieee14", help="case file path or bundled name")
        p.add_argument("--pi", type=float, required=True, help="cost of one data injection")
        p.add_argument("--pjs", type=float, required=True, help="cost of jamming a secure measurement")
        p.add_argument("--pjsc", type=float, required=True, help="cost of jamming an insecure measurement")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--angle-fraction", type=float, default=0.6)

    attack = sub.add_parser("attack", help="design and verify one attack")
    common(attack)
    attack.add_argument("--type", required=True, choices=type_names)
    attack.add_argument("--secure-fraction", type=float, default=0.0)
    attack.add_argument("--alpha", type=float, default=None, help="injection state-shift magnitude")
    attack.add_argument("--removal", choices=["auto", "greedy", "exhaustive"], default="auto")
    attack.add_argument("--json", action="store_true", help="print the plan as JSON")
    attack.set_defaults(func=_cmd_attack)

    sweep = sub.add_parser("sweep", help="randomized sweep over secure fractions")
    common(sweep)
    sweep.add_argument("--types", default="hidden-generalized",
                       help="comma-separated attack types")
    sweep.add_argument("--fractions", default="0:0.5:0.05",
                       help="comma list or start:stop:step range")
    sweep.add_argument("--trials", type=int, default=100)
    sweep.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    sweep.add_argument("--condition", default="none",
                       help="average only trials where this attack type is feasible")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def _plan_json(plan: AttackPlan, cost: CostModel, verdict) -> dict:
    return {
        "type": plan.attack_type.value,
        "interval": classify_interval(cost).value,
        "cut_side": sorted(plan.cut.side_a),
        "cut_edges": list(plan.cut.edges),
        "injected": sorted(plan.injected),
        "jammed_insecure": sorted(plan.jammed_insecure),
        "jammed_secure": sorted(plan.jammed_secure),
        "untouched": sorted(plan.untouched),
        "total_cost": plan.total_cost,
        "verified": verdict.success,
        "stealthy": verdict.stealthy,
        "estimate_changed": verdict.estimate_changed,
        "survived_injection": verdict.survived_injection,
    }


def _cmd_attack(args) -> int:
    try:
        _check_fraction("--angle-fraction", args.angle_fraction)
        _check_fraction("--secure-fraction", args.secure_fraction)
        if args.alpha is not None and not (math.isfinite(args.alpha) and args.alpha != 0):
            raise ValueError(f"--alpha must be finite and nonzero, got {args.alpha}")
    except ValueError as exc:
        return _usage_error(args, exc)
    case = load_case(args.case)
    cost = CostModel(args.pi, args.pjs, args.pjsc)
    if case.measurements is not None:
        system = system_from_case(case)
    else:
        system = place_measurements(case, args.angle_fraction, args.secure_fraction, args.seed)
    graph = build_graph(system)
    attack_type = AttackType(args.type)
    outcome = design(attack_type, graph, cost)
    if isinstance(outcome, Infeasible):
        print(f"infeasible: {outcome.reason}", file=sys.stderr)
        return EX_INFEASIBLE
    if isinstance(outcome, NoSolutionFound):
        print(f"no solution found: {outcome.reason}", file=sys.stderr)
        return EX_NO_SOLUTION
    if args.removal == "auto":
        mode = (
            RemovalMode.EXHAUSTIVE_MINIMAL
            if system.m <= _EXHAUSTIVE_LIMIT
            else RemovalMode.GREEDY_NORMALIZED_RESIDUAL
        )
    else:
        mode = RemovalMode(args.removal)
    verdict = execute(
        system,
        np.zeros(system.n + 1),
        outcome,
        DetectorConfig(removal_mode=mode),
        alpha=args.alpha,
    )
    if args.json:
        print(json.dumps(_plan_json(outcome, cost, verdict), indent=2))
    else:
        print(f"attack type    : {outcome.attack_type.value}")
        print(f"cost interval  : {classify_interval(cost).value}")
        print(f"case           : {case.name} ({system.n} buses, {system.m} measurements)")
        print(f"cut side       : {sorted(outcome.cut.side_a)}")
        print(f"cut edges      : {list(outcome.cut.edges)} "
              f"({outcome.cut.n_secure} secure, {outcome.cut.n_insecure} insecure)")
        print(f"inject         : {sorted(outcome.injected)}")
        print(f"jam insecure   : {sorted(outcome.jammed_insecure)}")
        print(f"jam secure     : {sorted(outcome.jammed_secure)}")
        print(f"untouched      : {sorted(outcome.untouched)}")
        print(f"total cost     : {outcome.total_cost:.10g}")
        print(f"verified       : {'yes' if verdict.success else 'NO: ' + verdict.reason} "
              f"(stealthy={verdict.stealthy}, estimate_changed={verdict.estimate_changed}, "
              f"survived={verdict.survived_injection})")
    return EX_OK if verdict.success else EX_FAILED


def _cmd_sweep(args) -> int:
    try:
        if not 1 <= args.trials <= MAX_TRIALS:
            raise ValueError(f"--trials must lie in 1..{MAX_TRIALS}, got {args.trials}")
        _check_fraction("--angle-fraction", args.angle_fraction)
        types = [AttackType(t.strip()) for t in args.types.split(",") if t.strip()]
        fractions = _fractions(args.fractions)
        condition = None if args.condition == "none" else AttackType(args.condition)
    except ValueError as exc:
        return _usage_error(args, exc)
    case = load_case(args.case)
    cost = CostModel(args.pi, args.pjs, args.pjsc)
    rows, cond_ok = run_sweep(
        case, types, cost, fractions, args.trials, args.seed,
        angle_fraction=args.angle_fraction, condition=condition,
    )
    write_csv(rows, args.out)
    summary = summarize(rows, cond_ok)
    dest = sys.stderr if args.out == "-" else sys.stdout
    print("fraction  type                      n    mean_cost  verified  escapes", file=dest)
    for (fraction, attack_type), cell in sorted(summary.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        mean = "-" if cell["mean_cost"] is None else f"{cell['mean_cost']:.4f}"
        print(
            f"{fraction:<9.3g} {attack_type.value:<24} {cell['count']:<4} {mean:<10} "
            f"{cell['verified']:<9} {cell['greedy_escapes']}",
            file=dest,
        )
    return EX_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidCosts as exc:
        print(f"grid-attack: invalid costs: {exc}", file=sys.stderr)
        return EX_USAGE
    except (ParseError, TopologyError) as exc:
        print(f"grid-attack: case error: {exc}", file=sys.stderr)
        return EX_DATA
    except FileNotFoundError as exc:
        print(f"grid-attack: {exc}", file=sys.stderr)
        return EX_DATA
    except UnobservableSystem as exc:
        print(f"grid-attack: unobservable system: {exc}", file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
