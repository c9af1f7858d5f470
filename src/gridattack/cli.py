"""Command-line front end: single-shot attack design and randomized sweeps."""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .attack import AttackPlan, AttackType, CostModel, Infeasible, NoSolutionFound, classify_interval, design
from .casefile import load_case, place_measurements, system_from_case
from .errors import InvalidCosts, ParseError, TooLarge, TopologyError, UnobservableSystem
from .estimator import DetectorConfig, RemovalMode
from .experiment import (
    MAX_FRACTIONS, MAX_TRIALS, check_case, check_out_path, check_types, run_sweep, summarize,
    write_csv,
)
from .grid import build_graph
from .verify import ALPHA_RANGE, execute, valid_alpha

EX_OK = 0
EX_FAILED = 1
EX_INFEASIBLE = 2
EX_NO_SOLUTION = 3
EX_USAGE = 64
EX_DATA = 65

_EXHAUSTIVE_LIMIT = 24  # measurements; larger systems verify greedily

# attack's placement options, left None when not given: a listed case refuses them
_PLACEMENT_DEFAULTS = {"seed": 0, "angle_fraction": 0.6, "secure_fraction": 0.0}


# a token that starts like a negative number is a value: argparse's own
# pattern takes "-1" and "-.5" but reads "-1e-3" and "-inf" as unknown options
_NEGATIVE_NUMBER = re.compile(r"^-(?:\.?\d|inf(?:inity)?$|nan$)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:  # 3.11 turns "--opt=--" into []
            self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return super()._get_values(action, arg_strings)

    def error(self, message):
        # one line, as every other usage error; --help still prints the usage
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
    if not values:
        raise ValueError(f"--fractions {text!r} gives no fraction")
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
    attack.add_argument("--secure-fraction", type=float)
    attack.add_argument("--alpha", type=float, default=None, help="injection state-shift magnitude")
    attack.add_argument("--removal", choices=["auto", "greedy", "exhaustive"], default="auto")
    attack.add_argument("--json", action="store_true", help="print the plan as JSON")
    attack.set_defaults(func=_cmd_attack, seed=None, angle_fraction=None)

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
    given = ["--" + k.replace("_", "-") for k in _PLACEMENT_DEFAULTS if getattr(args, k) is not None]
    vars(args).update((k, v) for k, v in _PLACEMENT_DEFAULTS.items() if getattr(args, k) is None)
    try:
        _check_fraction("--angle-fraction", args.angle_fraction)
        _check_fraction("--secure-fraction", args.secure_fraction)
        if args.alpha is not None and not valid_alpha(args.alpha):
            lo, hi = ALPHA_RANGE
            raise ValueError(f"--alpha must satisfy {lo:g} <= |alpha| <= {hi:g}, got {args.alpha}")
    except ValueError as exc:
        return _usage_error(args, exc)
    case = load_case(args.case)
    cost = CostModel(args.pi, args.pjs, args.pjsc)
    if case.measurements is not None:
        if given:
            return _usage_error(args, f"case {case.name} lists its measurements, so these "
                                      f"placement options do not apply: {', '.join(given)}")
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

    def run(mode: RemovalMode):
        return execute(system, np.zeros(system.n + 1), outcome, DetectorConfig(removal_mode=mode),
                       alpha=args.alpha)

    greedy = RemovalMode.GREEDY_NORMALIZED_RESIDUAL
    if args.removal != "auto":
        try:
            verdict = run(RemovalMode(args.removal))
        except TooLarge as exc:  # the subset cap, which greedy removal does not have
            raise TooLarge(f"{exc}; try --removal greedy") from exc
    elif system.m > _EXHAUSTIVE_LIMIT:
        verdict = run(greedy)
    else:
        try:
            verdict = run(RemovalMode.EXHAUSTIVE_MINIMAL)
        except TooLarge:  # past the subset cap, auto answers as greedy does
            verdict = run(greedy)
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
        if not types:
            raise ValueError(f"--types {args.types!r} names no attack type")
        check_types(types)
        fractions = _fractions(args.fractions)
        condition = None if args.condition == "none" else AttackType(args.condition)
    except ValueError as exc:
        return _usage_error(args, exc)
    case = load_case(args.case)
    try:
        check_case(case)
    except ValueError as exc:
        return _usage_error(args, exc)
    cost = CostModel(args.pi, args.pjs, args.pjsc)
    check_out_path(args.out)  # before the sweep, which can run for minutes
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
    # before any case load: a negative seed would repeat its absolute value
    if args.seed is not None and args.seed < 0:
        return _usage_error(args, f"--seed must be nonnegative, got {args.seed}")
    try:
        return args.func(args)
    except InvalidCosts as exc:
        print(f"grid-attack: invalid costs: {exc}", file=sys.stderr)
        return EX_USAGE
    except (ParseError, TopologyError) as exc:
        print(f"grid-attack: case error: {exc}", file=sys.stderr)
        return EX_DATA
    except OSError as exc:
        print(f"grid-attack: {exc}", file=sys.stderr)
        return EX_DATA
    except UnobservableSystem as exc:
        print(f"grid-attack: unobservable system: {exc}", file=sys.stderr)
        return EX_DATA
    except TooLarge as exc:
        print(f"grid-attack: too large: {exc}", file=sys.stderr)
        return EX_DATA
    except MemoryError:
        print("grid-attack: out of memory: the case is too large for this machine", file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
