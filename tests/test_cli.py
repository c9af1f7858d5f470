"""Command-line interface: exit codes, output forms, CSV determinism."""

import builtins
import contextlib
import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gridattack as ga
from gridattack import cli, estimator, experiment, verify
from gridattack.cli import main
from gridattack.experiment import CSV_HEADER, run_sweep, summarize, write_csv
from gridattack.attack import AttackType
from conftest import count_screened, parallel_bundle_case


def test_attack_hidden_generalized_exit_zero(capsys):
    code = main([
        "attack", "--case", "ieee14", "--type", "hidden-generalized",
        "--pi", "1", "--pjs", ".5", "--pjsc", ".25", "--seed", "7", "--json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "hidden-generalized"
    assert payload["interval"] == "III"
    assert payload["verified"] is True
    # the CLI run must match a direct library run
    case = ga.load_case("ieee14")
    sys_ = ga.place_measurements(case, 0.6, 0.0, seed=7)
    plan = ga.hidden_generalized(ga.build_graph(sys_), ga.CostModel(1, 0.5, 0.25))
    assert payload["total_cost"] == pytest.approx(plan.total_cost)


def test_attack_human_output(capsys):
    code = main([
        "attack", "--type", "hidden-injection",
        "--pi", "1", "--pjs", ".5", "--pjsc", ".25", "--seed", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "attack type" in out and "total cost" in out
    assert "verified       : yes (" in out


def test_attack_human_output_names_failed_check(capsys, monkeypatch):
    from gridattack import cli

    real_execute = cli.execute

    def zero_shift(system, truth, plan, *args, **kwargs):
        # a zero shift leaves the estimate where it was, so the hidden plan fails
        still = dataclasses.replace(plan, injection_state_shift=(0,) * (system.n + 1))
        return real_execute(system, truth, still, *args, **kwargs)

    monkeypatch.setattr(cli, "execute", zero_shift)
    code = main([
        "attack", "--type", "hidden-injection",
        "--pi", "1", "--pjs", ".5", "--pjsc", ".25", "--seed", "3",
    ])
    assert code == cli.EX_FAILED
    assert "verified       : NO: estimate-unchanged (" in capsys.readouterr().out


def test_attack_invalid_costs_exit_64(capsys):
    code = main([
        "attack", "--type", "detectable-generalized",
        "--pi", "1", "--pjs", ".2", "--pjsc", ".5",
    ])
    assert code == 64


@pytest.mark.parametrize("costs", [
    ("inf", "1", "1"),
    ("1", "nan", ".25"),
    ("1e300", "1e300", "1e300"),  # outside CostModel.COST_RANGE, like the two below
    ("1e-12", "8e-13", "6e-13", "--seed", "3", "--secure-fraction", ".3"),
])
def test_attack_non_finite_costs_exit_64(costs, capsys):
    pi, pjs, pjsc, *more = costs
    code = main([
        "attack", "--type", "hidden-generalized", "--pi", pi, "--pjs", pjs, "--pjsc", pjsc, *more,
    ])
    assert code == 64
    assert "invalid costs" in capsys.readouterr().err


def test_attack_unknown_flag_exit_64(capsys):
    with pytest.raises(SystemExit) as err:
        main(["attack", "--nonsense"])
    assert err.value.code == 64


def test_attack_all_secure_exit_2(capsys):
    code = main([
        "attack", "--type", "hidden-generalized", "--secure-fraction", "1",
        "--pi", "1", "--pjs", ".5", "--pjsc", ".25",
    ])
    assert code == 2


def test_attack_parse_error_exit_65(tmp_path, capsys):
    bad = tmp_path / "broken.grid"
    bad.write_text("buses 2\nlines\n1 x\n")
    code = main([
        "attack", "--case", str(bad), "--type", "hidden-generalized",
        "--pi", "1", "--pjs", ".5", "--pjsc", ".25",
    ])
    assert code == 65


def test_attack_non_finite_susceptance_exit_65(tmp_path, capsys):
    bad = tmp_path / "nan.grid"
    bad.write_text("buses 2\nlines\n1 2 nan\n2 1\n")
    code = main([
        "attack", "--case", str(bad), "--type", "hidden-generalized",
        "--pi", "1", "--pjs", ".5", "--pjsc", ".25",
    ])
    assert code == 65
    assert "susceptance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "buses \u00b2\nlines\n1 2\n",
        "buses 2\nlines\n1 2\nmeasurements\nflow 1 2 -1\nangle 1\n",
        "buses 2\nlines\n1 2\nmeasurements\nflow 1 2 nan\nangle 1\n",
        "buses 2\nlines\n1 2\nmeasurements\nflow 1 2\nangle 1\nsecure\n-1\n",
        "buses 2\nlines\n1 2\nmeasurements\nflow 1 2 1e308\nangle 1\nangle 2\n",
        "buses 2\nlines\n1 2\nmeasurements\nflow 1 2 1e7\nangle 1\nangle 2\n",
        "buses 2\nlines\n1 2\nmeasurements\nflow 1 2 1e-7\nangle 1\nangle 2\n",
    ],
    ids=["superscript-buses", "negative-flow-susceptance", "nan-flow-susceptance",
         "negative-secure-id", "1e308-flow-susceptance", "1e7-flow-susceptance",
         "1e-7-flow-susceptance"],
)
def test_attack_malformed_case_exit_65(text, tmp_path, capsys):
    bad = tmp_path / "bad.grid"
    bad.write_text(text)
    code = main([
        "attack", "--case", str(bad), "--type", "hidden-generalized",
        "--pi", "1", "--pjs", ".5", "--pjsc", ".25",
    ])
    assert code == 65
    assert capsys.readouterr().err.startswith("grid-attack: case error: line ")


@pytest.mark.parametrize("count", ["100001", "1000000"])
def test_attack_bus_count_above_cap_exit_65(count, tmp_path, capsys):
    bad = tmp_path / "big.grid"
    bad.write_text(f"buses {count}\nlines\n1 2\n")
    code = main([
        "attack", "--case", str(bad), "--type", "hidden-generalized",
        "--pi", "1", "--pjs", ".5", "--pjsc", ".25",
    ])
    assert code == 65
    assert "buses count exceeds 100000" in capsys.readouterr().err


COSTS = ["--pi", "1", "--pjs", ".5", "--pjsc", ".25"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["attack", "--type", "hidden-injection", "--secure-fraction", "2"], "--secure-fraction"),
        (["attack", "--type", "hidden-injection", "--angle-fraction", "nan"], "--angle-fraction"),
        (["attack", "--type", "hidden-injection", "--alpha", "nan"], "--alpha"),
        (["attack", "--type", "hidden-injection", "--alpha", "0"], "--alpha"),
        (["sweep", "--trials", "0"], "--trials"),
        (["sweep", "--trials", "20000"], "--trials"),
        (["sweep", "--trials", "1", "--fractions", "0,1.5"], "--fractions"),
        (["sweep", "--trials", "1", "--fractions", "0:inf:0.1"], "fractions"),
        (["sweep", "--trials", "1", "--condition", "nonsense"], "nonsense"),
        (["sweep", "--trials", "1", "--fractions", "0:nan:0.1"], "--fractions"),
        (["sweep", "--trials", "1", "--fractions", "0.5:0:0.1"], "--fractions"),
        (["sweep", "--trials", "1", "--fractions", ","], "--fractions"),
        (["sweep", "--trials", "1", "--types", ","], "--types"),
        (["attack", "--type", "hidden-injection", "--alpha", "1e200"], "--alpha"),
        (["attack", "--type", "hidden-injection", "--alpha=-1e308"], "--alpha"),
        (["attack", "--type", "hidden-injection", "--alpha", "0.01"], "--alpha"),
        (["attack", "--type", "hidden-injection", "--alpha", "-1e-3"], "--alpha"),
        (["attack", "--type", "hidden-injection", "--angle-fraction", "-inf"], "--angle-fraction"),
        (["sweep", "--trials", "2", "--fractions", "0.1",
          "--types", "hidden-injection,hidden-jamming,hidden-injection"], "hidden-injection"),
    ],
)
def test_out_of_range_options_exit_64(argv, flag, capsys):
    code = main(argv + COSTS)
    err = capsys.readouterr().err
    assert code == 64
    assert err.count("\n") == 1 and err.startswith(f"grid-attack {argv[0]}: error: ")
    assert flag in err


@pytest.mark.parametrize("command", [
    ["attack", "--type", "hidden-injection"],
    ["sweep", "--trials", "1", "--fractions", "0"],
])
def test_negative_seed_exit_64_before_case_and_out(command, tmp_path, capsys):
    """``random.Random`` seeds with the absolute value, so ``--seed=-7`` would
    print what ``--seed 7`` prints. It is refused before the case is read and
    before ``--out`` is checked, each of which would exit 65 here."""
    missing = tmp_path / "missing"
    command = command + COSTS + ["--case", str(missing / "case.grid")]
    if command[0] == "sweep":
        command += ["--out", str(missing / "out.csv")]
    for seed in (["--seed=-7"], ["--seed", "-1"]):
        code = main(command + seed)
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.count("\n") == 1 and err.startswith(f"grid-attack {command[0]}: error: --seed ")


def test_exhaustive_removal_past_the_cap_exit_65(tmp_path, capsys, monkeypatch):
    """``--removal exhaustive`` on the parallel bundle would walk about 2e10
    subsets. It exits 65 within a second, with one line naming the cap and
    ``--removal greedy``, having walked no more than the cap."""
    blocks = count_screened(monkeypatch)
    case = tmp_path / "bundle.grid"
    case.write_text(parallel_bundle_case())
    start = time.perf_counter()
    code = main(["attack", "--case", str(case), "--type", "detectable-injection",
                 "--pi", "1", "--pjs", ".8", "--pjsc", ".6", "--removal", "exhaustive"])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert code == 65
    assert err.count("\n") == 1 and err.startswith("grid-attack: too large: ")
    assert f"over the cap {estimator.MAX_REMOVAL_SUBSETS}; try --removal greedy" in err
    assert 0 < sum(blocks) <= estimator.MAX_REMOVAL_SUBSETS


def test_negative_exponent_value_runs_like_its_decimal(capsys):
    outputs = []
    for alpha in ("-0.1", "-1e-1"):
        code = main(["attack", "--type", "hidden-injection", "--alpha", alpha] + COSTS)
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1].err == ""


# log-uniform from the least subnormal to 1e308, of either sign, and the special values
_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, sys.float_info.max]),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(-323.3, 308.0)),
)
_NUMERIC_OPTIONS = {  # option: an accepted value
    "--pi": 1.0, "--pjs": 0.8, "--pjsc": 0.6, "--alpha": 0.1,
    "--angle-fraction": 0.6, "--secure-fraction": 0.3,
}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    # each option keeps its accepted value in about two draws of three, so that some
    # runs get past the option checks to design and verification
    st.fixed_dictionaries({
        k: st.builds(lambda keep, drawn, v=v: v if keep else drawn,
                     st.sampled_from([True, True, False]), _NUMBERS)
        for k, v in _NUMERIC_OPTIONS.items()
    }),
    st.sampled_from([t.value for t in AttackType]),
    st.booleans(),
)
@example({**_NUMERIC_OPTIONS, "--alpha": 1e308}, "hidden-generalized", False)
@example({**_NUMERIC_OPTIONS, "--alpha": 1e200}, "detectable-injection", False)
@example({**_NUMERIC_OPTIONS, "--pi": 1e300, "--pjs": 1e300, "--pjsc": 1e300}, "hidden-generalized", False)
@example({**_NUMERIC_OPTIONS, "--secure-fraction": 1.0}, "hidden-generalized", False)
@example({**_NUMERIC_OPTIONS, "--alpha": -1e-1}, "hidden-injection", True)
@example({**_NUMERIC_OPTIONS, "--alpha": -1e-3}, "hidden-injection", True)
@example({**_NUMERIC_OPTIONS, "--pjsc": -math.inf}, "hidden-injection", True)
def test_property_attack_numeric_options(values, attack_type, separate):
    """Any value of the numeric ``attack`` options, given as ``--opt=value`` or
    as a separate token, ends with a documented exit code, no traceback and no
    warning, and exits 2, 3, 64 and 65 print exactly one stderr line."""
    argv = ["attack", "--case", "ieee14", "--type", attack_type, "--seed", "3"]
    for option, value in values.items():
        argv += [option, repr(value)] if separate else [f"{option}={value!r}"]
    _run_attack_checked(argv)


def _run_attack_checked(argv) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``, checked against the exit-code rules."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert not caught, [str(w.message) for w in caught]
    assert code in (cli.EX_OK, cli.EX_FAILED, cli.EX_INFEASIBLE, cli.EX_NO_SOLUTION,
                    cli.EX_USAGE, cli.EX_DATA), code
    if code in (cli.EX_OK, cli.EX_FAILED):
        assert err.getvalue() == "", argv
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), (argv, err.getvalue())
    return code, err.getvalue()


def _not_a_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


_REQUIRED = {"--pi", "--pjs", "--pjsc", "--type"}
_ACCEPTED = {**{k: repr(v) for k, v in _NUMERIC_OPTIONS.items()},
             "--type": "hidden-injection", "--seed": "3"}
# per option: its accepted token, one that is not a number, or left out (None)
_MALFORMED = st.one_of(
    st.sampled_from(["abc", "", "1,5", "0x10", "1..2", "1e", "one", "--", "-x", "-1abc", "1 2"]),
    st.text(max_size=5).filter(_not_a_float),
)


def _malformed(option: str, token) -> bool:
    if token is None:
        return option in _REQUIRED
    return token != _ACCEPTED[option] if option == "--type" else _not_a_float(token)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    st.fixed_dictionaries({
        k: st.one_of(st.just(v), st.none(), _MALFORMED) for k, v in _ACCEPTED.items()
    }),
    st.booleans(),
)
@example({**_ACCEPTED, "--alpha": "abc"}, True)
@example({**_ACCEPTED, "--pjsc": None}, True)
@example({**_ACCEPTED, "--pi": "--"}, False)
def test_property_attack_malformed_options(tokens, separate):
    """A non-numeric value or a missing required option exits 64 with one
    stderr line naming the subcommand, like every other usage error."""
    argv = ["attack", "--case", "ieee14"]
    for option, token in tokens.items():
        if token is not None:
            argv += [option, token] if separate else [f"{option}={token}"]
    malformed = any(_malformed(option, token) for option, token in tokens.items())
    code, err = _run_attack_checked(argv)
    if malformed:
        assert code == cli.EX_USAGE and err.startswith("grid-attack attack: error: "), (argv, err)


def test_attack_missing_case_exit_65(capsys):
    code = main([
        "attack", "--case", "nowhere.grid", "--type", "hidden-generalized",
        "--pi", "1", "--pjs", ".5", "--pjsc", ".25",
    ])
    assert code == 65


def test_attack_case_directory_exit_65(tmp_path, capsys):
    code = main([
        "attack", "--case", str(tmp_path), "--type", "hidden-generalized",
        "--pi", "1", "--pjs", ".5", "--pjsc", ".25",
    ])
    err = capsys.readouterr().err
    assert code == 65
    assert err.count("\n") == 1 and "Is a directory" in err


def test_attack_case_not_utf8_exit_65(tmp_path, capsys):
    bad = tmp_path / "latin1.grid"
    bad.write_bytes("# caf\u00e9\nbuses 2\nlines\n1 2\n".encode("latin-1"))
    code = main([
        "attack", "--case", str(bad), "--type", "hidden-generalized",
        "--pi", "1", "--pjs", ".5", "--pjsc", ".25",
    ])
    err = capsys.readouterr().err
    assert code == 65
    assert err.count("\n") == 1 and err.startswith("grid-attack: case error: ")
    assert "not UTF-8" in err


def _no_sweep(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(cli, "run_sweep", refuse)


SWEEP_ARGS = ["sweep", "--types", "hidden-generalized", "--pi", "1", "--pjs", ".5", "--pjsc", ".25"]


def test_sweep_out_directory_exit_65(tmp_path, capsys, monkeypatch):
    _no_sweep(monkeypatch)
    code = main(SWEEP_ARGS + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 65
    assert err.count("\n") == 1 and "Is a directory" in err
    assert tmp_path.is_dir()


def test_sweep_out_checked_before_the_sweep(tmp_path, capsys, monkeypatch):
    """A missing directory, a path under a regular file and an existing file
    that cannot be opened each exit 65 with one stderr line, and no trial runs.
    """
    _no_sweep(monkeypatch)
    plain = tmp_path / "plain.csv"
    plain.write_bytes(b"kept\n")
    for out, message in (
        (tmp_path / "missing" / "sweep.csv", "No such file or directory"),
        (plain / "sweep.csv", "Not a directory"),
    ):
        assert main(SWEEP_ARGS + ["--out", str(out)]) == 65
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not out.exists()

    def refuse_open(path, mode="r", *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", path)

    monkeypatch.setattr(experiment, "open", refuse_open, raising=False)
    assert main(SWEEP_ARGS + ["--out", str(plain)]) == 65
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Permission denied" in err
    assert plain.read_bytes() == b"kept\n"


def test_sweep_out_check_leaves_files_alone(tmp_path):
    """A passing check keeps an existing file's bytes and leaves no new file."""
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"kept\n")
    experiment.check_out_path(str(kept))
    assert kept.read_bytes() == b"kept\n"
    fresh = tmp_path / "fresh.csv"
    experiment.check_out_path(str(fresh))
    assert not fresh.exists()
    experiment.check_out_path("-")


SECURE_MAJORITY_CASE = """
buses 3
lines
1 2
measurements
flow 1 2
angle 1
angle 1
angle 2
angle 2
angle 3
secure
1 2 3 4 5
"""


def test_attack_no_solution_exit_3(tmp_path, capsys):
    # every cut has a weak secure majority: the minority-cut search gives up
    case = tmp_path / "locked.grid"
    case.write_text(SECURE_MAJORITY_CASE)
    code = main([
        "attack", "--case", str(case), "--type", "detectable-injection",
        "--pi", "1", "--pjs", ".8", "--pjsc", ".6",
    ])
    assert code == 3


def test_case_dir_env_var(tmp_path, monkeypatch, capsys):
    (tmp_path / "mini.grid").write_text("buses 2\nlines\n1 2\nmeasurements\nflow 1 2\nangle 1\nangle 2\n")
    monkeypatch.setenv("GRIDATTACK_CASE_DIR", str(tmp_path))
    code = main([
        "attack", "--case", "mini", "--type", "hidden-generalized",
        "--pi", "1", "--pjs", ".5", "--pjsc", ".25",
    ])
    assert code == 0
    assert ga.load_case("mini").n_buses == 2


def test_sweep_csv_deterministic(tmp_path, capsys):
    args = [
        "sweep", "--case", "ieee14", "--types",
        "hidden-injection,hidden-generalized", "--pi", "1", "--pjs", ".5",
        "--pjsc", ".25", "--fractions", "0,0.2", "--trials", "3", "--seed", "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 3 * 2  # fractions x trials x types


def test_sweep_stdout(capsys):
    code = main([
        "sweep", "--types", "hidden-generalized", "--pi", "1", "--pjs", ".5",
        "--pjsc", ".25", "--fractions", "0", "--trials", "2", "--seed", "1",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == CSV_HEADER


def test_sweep_verifies_each_distinct_plan_once_per_trial(monkeypatch):
    """On IEEE-14 sweeps of all six types over seeds 3-7, the estimator runs
    once per distinct (jammed, injected, shift) key within a trial, in first
    appearance order and never again for a repeated key, whatever the type,
    and the rows equal those of a loop that verifies every plan fresh.
    """
    trials = []  # per trial: (system, designed plans, plans the estimator ran)
    real_place, real_design = experiment.place_measurements, experiment.design
    real_run = verify._run

    def place(*args):
        trials.append((real_place(*args), [], []))
        return trials[-1][0]

    def design(attack_type, graph, cost):
        trials[-1][1].append(real_design(attack_type, graph, cost))
        return trials[-1][1][-1]

    def run(system, truth, plan, *args):
        if plan.graph is not None:  # a memo miss; the fresh loop below runs graph-less plans
            trials[-1][2].append(plan)
        return real_run(system, truth, plan, *args)

    monkeypatch.setattr(experiment, "place_measurements", place)
    monkeypatch.setattr(experiment, "design", design)
    monkeypatch.setattr(verify, "_run", run)
    types = list(AttackType)
    cost = ga.CostModel(1, 0.8, 0.25)
    fractions = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]

    def key(plan):
        return plan.jammed, plan.injected, plan.injection_state_shift

    cfg = ga.DetectorConfig(removal_mode=ga.RemovalMode.GREEDY_NORMALIZED_RESIDUAL)
    repeats = shared_jams = both_families = 0
    for seed in range(3, 8):
        trials.clear()
        rows, _ = run_sweep(ga.load_case("ieee14"), types, cost, fractions, trials=5, seed=seed)
        fresh = []
        for (system, designed, estimated), (fraction, trial) in zip(
            trials, [(f, t) for f in fractions for t in range(5)], strict=True
        ):
            plans = [p for p in designed if isinstance(p, ga.AttackPlan)]
            assert [key(p) for p in estimated] == list(dict.fromkeys(key(p) for p in plans))
            repeats += len(plans) - len(estimated)
            shared_jams += len({p.jammed for p in estimated}) < len(estimated)
            families = {}
            for p in plans:
                families.setdefault(key(p), set()).add(p.attack_type.hidden)
            both_families += sum(len(hidden) == 2 for hidden in families.values())
            for attack_type, plan in zip(types, designed, strict=True):
                if isinstance(plan, ga.AttackPlan):
                    unkept = dataclasses.replace(plan, graph=None)
                    verdict = ga.execute(system, np.zeros(system.n + 1), unkept, cfg)
                    fresh.append(experiment.SweepRow(
                        fraction, trial, attack_type, "II", plan.total_cost, verdict.success
                    ))
                else:
                    fresh.append(experiment.SweepRow(
                        fraction, trial, attack_type, "II", None, None
                    ))
        assert rows == fresh
    assert repeats >= 30 and shared_jams >= 10
    # plans estimated once and judged as both a hidden and a detectable type
    assert both_families >= 200


def test_sweep_summary_matches_row_means():
    case = ga.load_case("ieee14")
    cost = ga.CostModel(1, 0.5, 0.25)
    types = [AttackType.HIDDEN_GENERALIZED, AttackType.HIDDEN_INJECTION]
    rows, cond = run_sweep(case, types, cost, [0.0, 0.3], trials=5, seed=2,
                           condition=AttackType.HIDDEN_INJECTION)
    summary = summarize(rows, cond)
    for (fraction, attack_type), cell in summary.items():
        sample = [
            r.cost for r in rows
            if r.fraction == fraction and r.attack_type is attack_type
            and r.feasible and cond[(r.fraction, r.trial)]
        ]
        assert cell["count"] == len(sample)
        if sample:
            assert cell["mean_cost"] == pytest.approx(sum(sample) / len(sample))


def test_sweep_fraction_zero_all_feasible_and_dominated():
    case = ga.load_case("ieee14")
    cost = ga.CostModel(1, 0.5, 0.25)
    types = [AttackType.HIDDEN_INJECTION, AttackType.HIDDEN_GENERALIZED]
    rows, _ = run_sweep(case, types, cost, [0.0], trials=10, seed=6)
    assert all(r.feasible for r in rows)
    by_trial = {}
    for r in rows:
        by_trial.setdefault(r.trial, {})[r.attack_type] = r.cost
    for costs in by_trial.values():
        assert costs[AttackType.HIDDEN_GENERALIZED] <= costs[AttackType.HIDDEN_INJECTION] + 1e-12


def test_outputs_identical_across_hash_seeds_and_blas_threads(capsys):
    """Sweep CSV and ``attack --json`` bytes depend only on case, flags and seed.

    Each command runs in child processes under ``PYTHONHASHSEED`` 0, 1, 2
    and 3, paired with ``OPENBLAS_NUM_THREADS`` 1, 2, 1 and 2, both set
    only on the children, and once in this process.
    """
    sweep = [
        "sweep", "--case", "ieee14", "--types", ",".join(t.value for t in AttackType),
        "--pi", "1", "--pjs", ".8", "--pjsc", ".25", "--fractions", "0:0.3:0.1",
        "--trials", "3", "--seed", "5", "--out", "-",
    ]
    attack = [
        "attack", "--case", "ieee14", "--type", "detectable-generalized", "--pi", "1",
        "--pjs", ".8", "--pjsc", ".6", "--secure-fraction", ".3", "--seed", "7", "--json",
    ]
    src = Path(ga.__file__).resolve().parent.parent
    varied = ("PYTHONHASHSEED", "OPENBLAS_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in varied}
    for argv in (sweep, attack):
        assert main(argv) == 0
        outputs = {capsys.readouterr().out.encode()}
        for hash_seed, threads in ((0, 1), (1, 2), (2, 1), (3, 2)):
            env = {**base, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(hash_seed),
                   "OPENBLAS_NUM_THREADS": str(threads)}
            child = subprocess.run(
                [sys.executable, "-m", "gridattack.cli", *argv],
                env=env, capture_output=True, check=True, timeout=120,
            )
            outputs.add(child.stdout)
        assert len(outputs) == 1, argv[0]
        assert len(outputs.pop().splitlines()) > 10, argv[0]  # rows or a plan, not an error


def test_sweep_rows_pure_function_of_inputs():
    case = ga.load_case("ieee14")
    cost = ga.CostModel(1, 0.8, 0.6)
    rows1, _ = run_sweep(case, [AttackType.DETECTABLE_GENERALIZED], cost, [0.1], 4, seed=9)
    rows2, _ = run_sweep(case, [AttackType.DETECTABLE_GENERALIZED], cost, [0.1], 4, seed=9)
    assert rows1 == rows2


def test_sweep_rejects_a_repeated_type():
    """A type listed twice would write each of its rows twice and count each
    trial twice in the summary."""
    case = ga.load_case("ieee14")
    types = [AttackType.HIDDEN_INJECTION, AttackType.HIDDEN_JAMMING, AttackType.HIDDEN_INJECTION]
    with pytest.raises(ValueError, match="^attack type hidden-injection is listed twice$"):
        run_sweep(case, types, ga.CostModel(1, 0.5, 0.25), [0.1], 2, seed=1)
    rows, _ = run_sweep(case, types[:2], ga.CostModel(1, 0.5, 0.25), [0.1], 2, seed=1)
    assert len(rows) == 4


def test_fraction_range_parsing(capsys):
    code = main([
        "sweep", "--types", "hidden-generalized", "--pi", "1", "--pjs", ".5",
        "--pjsc", ".25", "--fractions", "0:0.1:0.05", "--trials", "1", "--seed", "1",
    ])
    captured = capsys.readouterr()
    fractions = {line.split(",")[0] for line in captured.out.splitlines()[1:]}
    assert code == 0
    assert fractions == {"0", "0.05", "0.1"}


def test_write_csv_removes_partial_output(tmp_path, monkeypatch):
    case = ga.load_case("ieee14")
    rows, _ = run_sweep(case, [AttackType.HIDDEN_GENERALIZED],
                        ga.CostModel(1, 0.5, 0.25), [0.0], 1, seed=1)
    target = tmp_path / "out" / "sweep.csv"
    with pytest.raises(FileNotFoundError):
        write_csv(rows, str(target))  # parent dir missing
    assert not target.exists()

    real_open = builtins.open

    def open_then_fail_write(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        real_write = fh.write

        def write(text):
            real_write(text[:10])
            raise OSError(errno.ENOSPC, "No space left on device")

        fh.write = write
        return fh

    target = tmp_path / "sweep.csv"
    monkeypatch.setattr(experiment, "open", open_then_fail_write, raising=False)
    with pytest.raises(OSError, match="No space"):
        write_csv(rows, str(target))
    assert not target.exists()  # this call truncated it, so it is removed

    def refuse_open(path, mode="r", *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", path)

    target.write_bytes(b"kept\n")
    monkeypatch.setattr(experiment, "open", refuse_open, raising=False)
    with pytest.raises(PermissionError):
        write_csv(rows, str(target))
    assert target.read_bytes() == b"kept\n"  # never opened, so never removed