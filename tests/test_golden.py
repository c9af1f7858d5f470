"""Golden outputs: sha256 digests of fixed-seed sweeps and single attacks.

The sweep rows and the designed plans are a pure function of case, flags and
seed, so any engine change that keeps the answers keeps these digests. The
sweep CSV does not show which side of the cut a plan reports; the
``attack --json`` digests cover ``cut_side`` as well. IEEE-57 has one
``attack --json`` digest over all six types, and its sweeps are checked
against the CSV digests the benchmark records in ``perfbench/golden.json``. The random-graph
digest covers every result field of all six designers and of the oracle's
witness plan on a seeded batch of small systems, and the census digest
every cut and class of the oracle's cut census on the same batch. The
``execute`` digest covers every verdict and estimation-report field, arrays
by their bytes.

To retake a digest after an intended change of answers, run the test and
copy the digest printed in the failure message.
"""

import hashlib
import json
import os
import random
from pathlib import Path

import numpy as np
import pytest

import gridattack as ga
from gridattack import oracle
from gridattack.attack import AttackType
from gridattack.cli import main
from gridattack.experiment import run_sweep, write_csv
from conftest import describe_verdict, random_cost, random_system

SEED = 20250809
FRACTIONS = [0.0, 0.25, 0.5]
TRIALS = 3

HI, DI, HG = (
    AttackType.HIDDEN_INJECTION,
    AttackType.DETECTABLE_INJECTION,
    AttackType.HIDDEN_GENERALIZED,
)
DG, DJ = AttackType.DETECTABLE_GENERALIZED, AttackType.DETECTABLE_JAMMING

# the three criterion-7 sweeps: (types, cost triple, conditioning type)
SWEEPS = {
    "families": ([HI, DI, HG], (1.0, 0.5, 0.25), HI),
    "interval-I": ([DG, DJ], (1.0, 0.8, 0.6), DJ),
    "interval-II": ([DG, DJ], (1.0, 0.8, 0.25), DJ),
}

SWEEP_DIGESTS = {
    "families": "8f2afef00e20339bf9f7145e82b452695130b6198dba8e2498e21ec1012d2c71",
    "interval-I": "a71d6aa94cb5f7f03890708eadf8e0d8c9ba3eaf3d9f0e9bff163fb97c7f5e66",
    "interval-II": "7d2531fa41f02ea0f5df1f343243ea1dec60be38d4d7f039e699ab5975012945",
}

# one cost triple per interval: I, II, III
ATTACK_COSTS = [("1", ".8", ".6"), ("1", ".8", ".25"), ("1", ".5", ".25")]
ATTACK_FRACTIONS = ["0", ".3"]

ATTACK_DIGESTS = {
    "hidden-injection": "adf7bba7006235700e0bfad155e25fa6e0969e137060de214601e85b5e35c1ff",
    "detectable-injection": "0a007616a4b3c20de6d0f7e6cc1f805fea806f992d272bbe1368c57f74e0c677",
    "hidden-jamming": "f36bc90f005def90206b6bcb9b112f29c6805798e3257c659d4da765c7afc52c",
    "detectable-jamming": "9f3f5bbd069e827276b1342f2a0444bfe5e038ad85fcc25e465931dc1edd2d31",
    "hidden-generalized": "e1d9f6d6b7509b4411ed8584374407cb248b31d4cdf228cbe01ce42b33c9ebec",
    "detectable-generalized": "199e5aed1dfa17c43c5ec3568a73c313b7722daa9d554ac3bc40a983a7a4609b",
}


# the benchmark's recorded IEEE-57 sweeps, read and never rewritten here
PERFBENCH_GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
PERFBENCH_SWEEPS = {  # golden.json label -> SWEEPS name
    "hi-di-hg": "families", "dg-dj-I": "interval-I", "dg-dj-II": "interval-II",
}

IEEE57_ATTACK_DIGEST = "c728895b0305356bb298ce41b4b03043d618dbfd7c9d585c9a7be7f9840f9940"


def _sweep_digest(case, name, fractions, trials, seed, path, **kwargs) -> str:
    types, costs, condition = SWEEPS[name]
    rows, _ = run_sweep(case, types, ga.CostModel(*costs), fractions, trials, seed,
                        condition=condition, **kwargs)
    write_csv(rows, path)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_digest(name, tmp_path):
    path = os.path.join(tmp_path, f"{name}.csv")
    digest = _sweep_digest(ga.load_case("ieee14"), name, FRACTIONS, TRIALS, SEED, path,
                           angle_fraction=0.6)
    assert digest == SWEEP_DIGESTS[name], f"{name} sweep CSV digest is {digest}"


def test_ieee57_sweep_csv_digests(tmp_path):
    """``run_sweep`` reproduces the benchmark's three recorded ``ieee57-sweep`` CSVs."""
    recorded = json.loads(PERFBENCH_GOLDEN.read_text())["ieee57-sweep"]
    case = ga.load_case("ieee57")
    digests = {
        label: _sweep_digest(case, PERFBENCH_SWEEPS[label], fractions, trials, recorded["seed"],
                             os.path.join(tmp_path, f"{label}.csv"))
        for label, trials, fractions in zip(
            recorded["sweeps"], recorded["trials"], recorded["fractions"]
        )
    }
    assert digests == recorded["sweeps"], f"ieee57 sweep CSV digests are {digests}"


def _attack_json_digest(case: str, attack_types, capsys) -> str:
    """Exit code, stdout and stderr of ``attack --json`` over costs and fractions."""
    h = hashlib.sha256()
    for attack_type in attack_types:
        for pi, pjs, pjsc in ATTACK_COSTS:
            for fraction in ATTACK_FRACTIONS:
                argv = [
                    "attack", "--case", case, "--type", attack_type, "--seed", "7",
                    "--secure-fraction", fraction, "--pi", pi, "--pjs", pjs, "--pjsc", pjsc,
                    "--json",
                ]
                code = main(argv)
                out = capsys.readouterr()
                h.update(f"{' '.join(argv)}\n{code}\n{out.out}\n{out.err}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("attack_type", [t.value for t in AttackType])
def test_attack_json_digest(attack_type, capsys):
    digest = _attack_json_digest("ieee14", [attack_type], capsys)
    assert digest == ATTACK_DIGESTS[attack_type], f"{attack_type} attack digest is {digest}"


def test_ieee57_attack_json_digest(capsys):
    """All six types on IEEE-57: cut sides, edges and verdicts at every cost and fraction."""
    digest = _attack_json_digest("ieee57", [t.value for t in AttackType], capsys)
    assert digest == IEEE57_ATTACK_DIGEST, f"ieee57 attack digest is {digest}"


RANDOM_SEED = 4
RANDOM_SYSTEMS = 40
RANDOM_DIGEST = "dbd011ea0e241d70e68e7facf4246df4e3bcb2cd10b1e959f1c19969b11cad42"
CENSUS_DIGEST = "81801f9755b7253527639cc7f5350279f302f4129a395dccc775044c990fbb3b"


def _describe(result) -> str:
    """Every field of a design or oracle result, floats in full precision."""
    if isinstance(result, tuple):  # oracle: (optimal cost, witness plan)
        value, plan = result
        return f"optimum {value!r} " + _describe(plan)
    if not isinstance(result, ga.AttackPlan):
        return f"{type(result).__name__}: {result.reason}"
    cut = result.cut
    return (
        f"{result.attack_type.value} side={sorted(cut.side_a)} edges={cut.edges} "
        f"weight={cut.weight!r} n_secure={cut.n_secure} n_insecure={cut.n_insecure} "
        f"injected={sorted(result.injected)} jammed_insecure={sorted(result.jammed_insecure)} "
        f"jammed_secure={sorted(result.jammed_secure)} "
        f"shift={result.injection_state_shift} total={result.total_cost!r}"
    )


def _random_batch():
    """The seeded batch of small systems, each with one cost triple per interval."""
    rng = random.Random(RANDOM_SEED)
    for k in range(RANDOM_SYSTEMS):
        graph = ga.build_graph(random_system(rng))
        yield k, graph, [random_cost(rng, interval) for interval in ga.CostInterval]


def test_random_graph_digest():
    """All six designers and the oracle witness, one cost triple per interval."""
    h = hashlib.sha256()
    for k, graph, costs in _random_batch():
        for cost in costs:
            for attack_type in AttackType:
                design = _describe(ga.design(attack_type, graph, cost))
                witness = _describe(ga.optimal_cost(graph, cost, attack_type))
                h.update(f"{k} {cost}\n{design}\n{witness}\n".encode())
    digest = h.hexdigest()
    assert digest == RANDOM_DIGEST, f"random-graph digest is {digest}"


def test_census_digest():
    """Every census cut, in order, and every class with its first index, on the same batch."""
    h = hashlib.sha256()
    for k, graph, _ in _random_batch():
        sides, classes = oracle._take_census(graph)
        for cut in (oracle._census_cut(graph, side) for side in sides):
            h.update(
                f"{k} side={sorted(cut.side_a)} edges={cut.edges} weight={cut.weight!r} "
                f"n_secure={cut.n_secure} n_insecure={cut.n_insecure}\n".encode()
            )
        h.update(f"{k} classes={classes}\n".encode())
    digest = h.hexdigest()
    assert digest == CENSUS_DIGEST, f"census digest is {digest}"


EXECUTE_SEED = 6
EXECUTE_SYSTEMS = 30
EXECUTE_IEEE14_SEEDS = 3
EXECUTE_DIGEST = "0e69584f2f90dc3bcdbd69894a705c87ab5350ff2ada5d3566726f654bfe5e87"

EXHAUSTIVE = ga.DetectorConfig(removal_mode=ga.RemovalMode.EXHAUSTIVE_MINIMAL)
GREEDY = ga.DetectorConfig(removal_mode=ga.RemovalMode.GREEDY_NORMALIZED_RESIDUAL)


def _execute_all(h, label, system, costs, modes) -> None:
    """Hash the verdict of every designed plan and oracle witness under each mode.

    A mode is (name, config, noise seed or None); noisy modes draw their
    measurement noise from a fresh generator per verdict.
    """
    graph = ga.build_graph(system)
    truth = np.linspace(-0.5, 0.5, system.n + 1)
    truth[-1] = 0.0
    for cost in costs:
        for attack_type in AttackType:
            plans = [ga.design(attack_type, graph, cost)]
            if len(graph.nodes) <= oracle.MAX_ORACLE_NODES:
                plans.append(ga.optimal_cost(graph, cost, attack_type))
            for source, plan in zip(("design", "oracle"), plans):
                if isinstance(plan, tuple):
                    plan = plan[1]
                if not isinstance(plan, ga.AttackPlan):
                    continue
                for mode_name, cfg, noise_seed in modes:
                    noise = None if noise_seed is None else np.random.default_rng(noise_seed)
                    try:
                        verdict = describe_verdict(ga.execute(system, truth, plan, cfg,
                                                               noise_rng=noise))
                    except ga.GridAttackError as exc:
                        verdict = f"{type(exc).__name__}: {exc}"
                    h.update(f"{label} {cost} {source} {mode_name}\n{verdict}\n".encode())


def test_execute_digest():
    """Every verdict and report field of ``execute``: exhaustive, greedy and noisy
    exhaustive (chi-square threshold) on small random systems, greedy on placed
    IEEE-14 systems; designed plans and oracle witnesses."""
    rng = random.Random(EXECUTE_SEED)
    h = hashlib.sha256()
    for k in range(EXECUTE_SYSTEMS):
        system = random_system(rng, m=rng.randint(5, 14))
        costs = [random_cost(rng, interval) for interval in ga.CostInterval]
        modes = [("exhaustive", EXHAUSTIVE, None), ("greedy", GREEDY, None)]
        if system.m > system.n:
            noisy = ga.DetectorConfig(threshold=ga.chi_square_threshold(system.m, system.n))
            modes.append(("noisy", noisy, k))
        _execute_all(h, f"small {k}", system, costs, modes)
    case = ga.load_case("ieee14")
    costs = [ga.CostModel(*map(float, c)) for c in ATTACK_COSTS]
    for seed in range(EXECUTE_IEEE14_SEEDS):
        for fraction in (0.0, 0.3):
            system = ga.place_measurements(case, 0.6, fraction, SEED + seed)
            _execute_all(h, f"ieee14 {seed} {fraction}", system, costs,
                         [("greedy", GREEDY, None)])
    digest = h.hexdigest()
    assert digest == EXECUTE_DIGEST, f"execute digest is {digest}"
