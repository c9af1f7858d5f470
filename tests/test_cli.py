"""Command-line interface: exit codes, output forms, CSV determinism."""

import json

import pytest

import gridattack as ga
from gridattack.cli import main
from gridattack.experiment import CSV_HEADER, run_sweep, summarize, write_csv
from gridattack.attack import AttackType


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
    # a zero shift leaves the estimate where it was, so the hidden plan fails
    monkeypatch.setattr(cli, "execute", lambda *a, **kw: real_execute(*a, **{**kw, "alpha": 0.0}))
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


@pytest.mark.parametrize("costs", [("inf", "1", "1"), ("1", "nan", ".25")])
def test_attack_non_finite_costs_exit_64(costs, capsys):
    pi, pjs, pjsc = costs
    code = main([
        "attack", "--type", "hidden-generalized", "--pi", pi, "--pjs", pjs, "--pjsc", pjsc,
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
    ],
)
def test_out_of_range_options_exit_64(argv, flag, capsys):
    code = main(argv + COSTS)
    err = capsys.readouterr().err
    assert code == 64
    assert err.count("\n") == 1 and err.startswith(f"grid-attack {argv[0]}: error: ")
    assert flag in err


def test_attack_missing_case_exit_65(capsys):
    code = main([
        "attack", "--case", "nowhere.grid", "--type", "hidden-generalized",
        "--pi", "1", "--pjs", ".5", "--pjsc", ".25",
    ])
    assert code == 65


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


def test_sweep_rows_pure_function_of_inputs():
    case = ga.load_case("ieee14")
    cost = ga.CostModel(1, 0.8, 0.6)
    rows1, _ = run_sweep(case, [AttackType.DETECTABLE_GENERALIZED], cost, [0.1], 4, seed=9)
    rows2, _ = run_sweep(case, [AttackType.DETECTABLE_GENERALIZED], cost, [0.1], 4, seed=9)
    assert rows1 == rows2


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