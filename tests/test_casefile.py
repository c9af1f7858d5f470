"""Case parsing, bundled topologies, and randomized placement."""

import collections
import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import gridattack as ga
from gridattack.casefile import CaseFile
from gridattack.experiment import trial_seed
from conftest import over_budget_case, reference_connected

MINIMAL = """
buses 2
lines
1 2
"""


def test_parse_minimal():
    case = ga.parse_case(MINIMAL)
    assert case.n_buses == 2
    assert case.lines == ((1, 2, 1.0),)
    assert case.measurements is None


def test_parse_bundled_ieee14():
    case = ga.load_case("ieee14")
    assert case.name == "ieee14"
    assert case.n_buses == 14
    assert len(case.lines) == 20


def test_parse_bundled_ieee57():
    case = ga.load_case("ieee57")
    assert case.n_buses == 57
    assert len(case.lines) == 80
    # the two parallel branch pairs survive parsing
    pairs = [frozenset((i, j)) for i, j, _ in case.lines]
    assert pairs.count(frozenset((4, 18))) == 2
    assert pairs.count(frozenset((24, 25))) == 2


def test_ieee57_placement_observable():
    case = ga.load_case("ieee57")
    sys_ = ga.place_measurements(case, 0.6, 0.2, seed=1)
    assert sys_.m == 80 + 34
    g = ga.build_graph(sys_)
    assert len(g.nodes) == 58


def test_parse_bus_zero_rejected():
    with pytest.raises(ga.TopologyError):
        ga.parse_case("buses 2\nlines\n0 1\n")


def test_parse_self_loop_rejected():
    with pytest.raises(ga.TopologyError):
        ga.parse_case("buses 2\nlines\n1 1\n")


def test_disconnected_grid_placement_unobservable():
    # parsing tolerates a split grid; placement cannot observe it
    case = ga.parse_case("buses 4\nlines\n1 2\n3 4\n")
    with pytest.raises(ga.UnobservableSystem):
        ga.place_measurements(case, angle_fraction=0.25, secure_fraction=0.0, seed=0)


@pytest.mark.parametrize("susceptance", ["nan", "inf", "-inf", "0", "-1"])
def test_parse_rejects_non_positive_or_non_finite_susceptance(susceptance):
    with pytest.raises(ga.ParseError) as err:
        ga.parse_case(f"buses 2\nlines\n1 2 {susceptance}\n")
    assert (err.value.line, err.value.column) == (3, 3)


@pytest.mark.parametrize("susceptance", ["1e308", "1e7", "1e-7"])
def test_parse_rejects_susceptance_outside_range(susceptance):
    with pytest.raises(ga.ParseError) as err:
        ga.parse_case(f"buses 2\nlines\n1 2 {susceptance}\n")
    assert (err.value.line, err.value.column) == (3, 3)
    with pytest.raises(ga.ParseError) as err:
        ga.parse_case(f"buses 2\nlines\n1 2\nmeasurements\nflow 1 2 {susceptance}\nangle 1\n")
    assert (err.value.line, err.value.column) == (5, 4)


def test_parse_accepts_range_ends():
    case = ga.parse_case("buses 3\nlines\n1 2 1e6\n2 3 1e-6\n"
                         "measurements\nflow 1 2 1e6\nflow 2 3 1e-6\nangle 1\n")
    assert ga.build_matrix(ga.system_from_case(case))[:2, :3].tolist() == [
        [1e6, -1e6, 0.0], [0.0, 1e-6, -1e-6]]


def test_parse_error_carries_line_number():
    with pytest.raises(ga.ParseError) as err:
        ga.parse_case("buses 2\nlines\n1 2\n1 x\n")
    assert err.value.line == 4


def test_parse_measurements_and_secure():
    text = """
buses 2
lines
1 2
measurements
flow 1 2
angle 1
angle 2
secure
1
"""
    case = ga.parse_case(text)
    assert case.measurements == (("flow", 1, 2, 1.0), ("angle", 1), ("angle", 2))
    assert case.secure_ids == frozenset({1})
    sys_ = ga.system_from_case(case)
    assert sys_.m == 3
    assert [m.secure for m in sys_.measurements] == [False, True, False]


def test_parse_secure_requires_measurements():
    with pytest.raises(ga.ParseError):
        ga.parse_case("buses 2\nlines\n1 2\nsecure\n0\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("buses \u00b2\nlines\n1 2\n", 1),  # superscript two passes isdigit, not int
        ("buses 2\nlines\n1 2\nmeasurements\nflow 1 2 -1\nangle 1\n", 5),
        ("buses 2\nlines\n1 2\nmeasurements\nflow 1 2 nan\nangle 1\n", 5),
        ("buses 2\nlines\n1 2\nmeasurements\nflow 1 2 inf\nangle 1\n", 5),
        ("buses 2\nlines\n1 2\nmeasurements\nflow 1 2\nangle 1\nsecure\n0 -1\n", 8),
    ],
)
def test_parse_rejects_malformed_numbers(text, line):
    with pytest.raises(ga.ParseError) as err:
        ga.parse_case(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "count", ["100001", "1000000", "9" * 5000], ids=["100001", "1000000", "5000-digits"]
)
def test_parse_rejects_bus_count_above_cap(count):
    with pytest.raises(ga.ParseError, match="exceeds 100000") as err:
        ga.parse_case(f"buses {count}\nlines\n1 2\n")
    assert err.value.line == 1
    assert ga.parse_case("buses 0100000\nlines\n1 2\n").n_buses == ga.casefile.MAX_BUSES


@pytest.mark.parametrize("listed", [False, True], ids=["placed", "listed"])
def test_system_past_the_size_budget_raises_before_building(listed, monkeypatch):
    """A case whose measurement matrix would pass the budget raises ``TooLarge``
    within a second, before it builds its placement or a single ``Bus``."""
    case = ga.parse_case(over_budget_case(listed))
    buses = []
    monkeypatch.setattr(ga.casefile, "_buses", buses.append)
    start = time.perf_counter()
    with pytest.raises(ga.TooLarge, match=f"over the budget {ga.casefile.MAX_MATRIX_ENTRIES}$"):
        if listed:
            ga.system_from_case(case)
        else:
            ga.place_measurements(case, 0.6, 0.0, 0)
    assert time.perf_counter() - start < 1.0
    assert "placement" not in vars(case) and not buses


def test_size_budget_counts_the_placed_matrix(monkeypatch):
    """On IEEE-14 at angle fraction .6 (20 flows, 8 angles, 15 columns) and on
    a listed 3-bus case, a budget of exactly m * (n + 1) entries admits the
    system and one entry less refuses it."""
    ieee14 = ga.load_case("ieee14")
    listed = ga.parse_case("buses 3\nlines\n1 2\n2 3\nmeasurements\nflow 1 2\nflow 2 3\nangle 1\n")
    for build, entries in ((lambda: ga.place_measurements(ieee14, 0.6, 0.3, 1), 28 * 15),
                           (lambda: ga.system_from_case(listed), 3 * 4)):
        monkeypatch.setattr(ga.casefile, "MAX_MATRIX_ENTRIES", entries)
        system = build()
        assert system.m * (system.n + 1) == entries
        monkeypatch.setattr(ga.casefile, "MAX_MATRIX_ENTRIES", entries - 1)
        with pytest.raises(ga.TooLarge, match=f"{entries} matrix entries"):
            build()


def test_parse_flow_on_missing_line():
    with pytest.raises(ga.TopologyError):
        ga.parse_case("buses 3\nlines\n1 2\n2 3\nmeasurements\nflow 1 3\n")


_SUSCEPTANCE = "susceptance outside (1e-06, 1000000.0)"


@pytest.mark.parametrize("text, error, line, column, message", [
    ("buses 2\nlines\n1 2\nmeasurements\nflow 1 1\n",
     ga.TopologyError, 5, None, "case: line 5: self-loop on bus 1"),
    ("buses 2\nlines\n1 2\nmeasurements\nflow 2 2 0.5\nangle x\n",
     ga.TopologyError, 5, None, "case: line 5: self-loop on bus 2"),
    ("buses 2\nlines\n2 2\n", ga.TopologyError, 3, None, "case: line 3: self-loop on bus 2"),
    ("lines\n1 2 3 4\nbuses 2\n",
     ga.ParseError, 2, 1, "line 2, col 1: line entries are: from to [susceptance]"),
    ("lines\n1 2\nbuses 2\n", ga.ParseError, 2, 1, "line 2, col 1: lines section before buses count"),
    ("buses 2\nlines\n1 2\nmeasurements\nflow 1 x 0.5\n",
     ga.ParseError, 5, 1, "line 5, col 1: bad number in ['flow', '1', 'x', '0.5']"),
    ("buses 2\nlines\n1 2\nmeasurements\nflow 1 2 1e7\n",
     ga.ParseError, 5, 4, f"line 5, col 4: {_SUSCEPTANCE}"),
    ("buses 2\nlines\n1 2 1e7\n", ga.ParseError, 3, 3, f"line 3, col 3: {_SUSCEPTANCE}"),
    ("buses 2\nlines\n1 2\nmeasurements\nangle \u00b2\n",
     ga.ParseError, 5, 1, "line 5, col 1: bad number in ['angle', '\u00b2']"),
], ids=["flow-self-loop", "flow-self-loop-before-a-later-error", "line-self-loop",
        "line-token-count-before-buses", "line-before-buses", "flow-bad-number",
        "flow-susceptance", "line-susceptance", "angle-bad-number"])
def test_parse_error_table(text, error, line, column, message):
    """Lines and flow meters share one row grammar: a flow on one bus is the
    lines section's self-loop at its own line, and a susceptance out of range
    is reported at its own column, 3 in a line row and 4 in a flow row."""
    with pytest.raises(error) as err:
        ga.parse_case(text)
    assert type(err.value) is error and str(err.value) == message
    assert (getattr(err.value, "line", line), getattr(err.value, "column", None)) == (line, column)


@pytest.mark.parametrize("bundled", [None, "ieee14"], ids=["minimal", "ieee14"])
def test_system_from_case_refuses_a_placed_case(bundled):
    case = ga.load_case(bundled) if bundled else ga.parse_case(MINIMAL)
    with pytest.raises(ValueError, match=f"^case {case.name} has no fixed measurement list$"):
        ga.system_from_case(case)


def test_place_measurements_ieee14_sixty_percent():
    case = ga.load_case("ieee14")
    sys_ = ga.place_measurements(case, angle_fraction=0.6, secure_fraction=0.0, seed=9)
    flows = [m for m in sys_.measurements if m.kind is ga.MeasurementKind.LINE_FLOW]
    angles = [m for m in sys_.measurements if m.kind is ga.MeasurementKind.PHASE_ANGLE]
    assert len(flows) == 20 and len(angles) == 8
    assert not any(m.secure for m in sys_.measurements)


def test_place_all_secure_blocks_generalized_attacks():
    case = ga.load_case("ieee14")
    sys_ = ga.place_measurements(case, 0.6, 1.0, seed=2)
    assert all(m.secure for m in sys_.measurements)
    g = ga.build_graph(sys_)
    cost = ga.CostModel(1.0, 0.5, 0.25)
    assert isinstance(ga.hidden_generalized(g, cost), ga.Infeasible)
    assert isinstance(ga.detectable_generalized(g, cost), ga.Infeasible)


def test_place_deterministic_in_seed():
    case = ga.load_case("ieee14")
    a = ga.place_measurements(case, 0.6, 0.3, seed=17)
    b = ga.place_measurements(case, 0.6, 0.3, seed=17)
    assert a == b
    c = ga.place_measurements(case, 0.6, 0.3, seed=18)
    assert a != c


def test_secure_count_matches_rounded_target_exactly():
    case = ga.load_case("ieee14")  # m = 28 with 60% angles
    for fraction, expected in [(0.0, 0), (0.125, 4), (0.25, 7), (0.5, 14), (1.0, 28)]:
        sys_ = ga.place_measurements(case, 0.6, fraction, seed=4)
        assert sum(m.secure for m in sys_.measurements) == expected


def test_round_half_to_even_counts():
    # 2-bus case: angle_fraction 0.25 -> 0.5 buses -> rounds to 0 (even), not 1
    case = ga.parse_case(MINIMAL)
    with pytest.raises(ga.UnobservableSystem):
        ga.place_measurements(case, angle_fraction=0.25, secure_fraction=0.0, seed=0)
    sys_ = ga.place_measurements(case, angle_fraction=0.75, secure_fraction=0.0, seed=0)
    angles = [m for m in sys_.measurements if m.kind is ga.MeasurementKind.PHASE_ANGLE]
    assert len(angles) == 2  # 1.5 rounds to 2


def _checked_placement(case, angle_fraction, secure_fraction, seed):
    """Reference: the same draws as ``place_measurements``, every row and
    the system built through their checking constructors."""
    rng = random.Random(seed)
    n = case.n_buses
    n_angles = round(angle_fraction * n)
    angle_buses = sorted(rng.sample(range(1, n + 1), n_angles))
    m = len(case.lines) + n_angles
    secure = set(rng.sample(range(m), round(secure_fraction * m)))
    rows = [
        ga.Measurement(mid, ga.MeasurementKind.LINE_FLOW, i, j, susceptance=b, secure=mid in secure)
        for mid, (i, j, b) in enumerate(case.lines)
    ]
    rows += [
        ga.Measurement(len(case.lines) + k, ga.MeasurementKind.PHASE_ANGLE, bus,
                       secure=len(case.lines) + k in secure)
        for k, bus in enumerate(angle_buses)
    ]
    buses = (ga.Bus(0, is_reference=True),) + tuple(ga.Bus(i) for i in range(1, n + 1))
    return ga.MeasurementSystem(buses=buses, lines=case.lines, measurements=tuple(rows))


@pytest.mark.parametrize("name", ["ieee14", "ieee57"])
def test_placement_equals_checked_constructors(name):
    """Every placement of the criterion-7 sweeps (11 fractions, 100 trials,
    seed 20250809, 60% angle meters) equals the checked build, row by row."""
    case = ga.load_case(name)
    fractions = [round(0.05 * k, 2) for k in range(11)]
    for f_idx, fraction in enumerate(fractions):
        for trial in range(100):
            seed = trial_seed(20250809, f_idx, trial)
            got = ga.place_measurements(case, 0.6, fraction, seed)
            want = _checked_placement(case, 0.6, fraction, seed)
            assert got == want
            assert [r.endpoints for r in got.measurements] == [r.endpoints for r in want.measurements]
            assert all(type(r) is ga.Measurement for r in got.measurements)


def test_placement_observability_matches_graph_search():
    """A placement raises ``UnobservableSystem`` exactly when the conftest union-find
    finds its rows leave a bus unjoined to the reference. The cases are random,
    with parallel lines, lines that leave buses apart, placements with no
    angle meter and cases with no bus, so the rule that skips the search meets
    each of its branches."""
    rng = random.Random(36)
    seen = collections.Counter()
    for _ in range(800):
        n = rng.randint(0, 8)
        n_lines = rng.randint(1, 2 * n) if n > 1 else 0
        lines = tuple((*rng.sample(range(1, n + 1), 2), 1.0) for _ in range(n_lines))
        case = CaseFile("random", n, lines)
        angle_fraction = rng.choice([0.0, 0.1, 0.25, 0.5, 1.0, rng.random()])
        args = (angle_fraction, rng.random(), rng.randrange(10**6))
        want = _checked_placement(case, *args)
        observable = reference_connected(range(n + 1), [r.endpoints for r in want.measurements])
        joined = reference_connected(range(1, n + 1), [(i, j) for i, j, _ in lines])
        seen[joined, want.m > len(lines), observable] += 1
        if observable:
            got = ga.place_measurements(case, *args)
            assert got == want and got.observable
        else:
            with pytest.raises(ga.UnobservableSystem):
                ga.place_measurements(case, *args)
    # (lines join buses 1..n, an angle meter placed, observable)
    assert seen[True, True, True] >= 100
    assert seen[True, False, False] >= 50
    assert seen[False, True, False] >= 100
    assert seen[False, True, True] >= 20
    assert seen[False, False, False] >= 20
    assert seen[True, False, True] >= 20  # no bus: the reference alone
    assert len(seen) == 6


@pytest.mark.parametrize("lines, message", [
    (((1, 2, 1.0), (2, 9, 1.0)), "line (2,9) has endpoints outside 1..3"),
    (((1, 2, 1.0), (0, 2, 1.0)), "measurement 1: flows connect real buses only"),
    (((1, 2, 1.0), (2, 3, 1e9)), "measurement 1: susceptance outside (1e-06, 1000000.0)"),
    (((1, 2, 1.0), (2, 2, 1.0)), "measurement 1: flow endpoints must differ"),
])
def test_placement_rejects_bad_hand_built_case(lines, message):
    """A ``CaseFile`` built by hand skips the parser; placement still raises
    the row and system checks' ValueError, on every call."""
    case = CaseFile("bad", 3, lines)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ga.place_measurements(case, 0.6, 0.3, seed=1)


def test_negative_seed_rejected():
    """``random.Random`` seeds with the absolute value, so -1 would repeat 1's
    placement, and the sweep cell (-1, 99, 5) that of (0, 0, 9995)."""
    case = ga.parse_case(MINIMAL)
    assert ga.place_measurements(case, 0.5, 0.5, seed=0).m
    for seed in (-1, trial_seed(-1, 99, 5)):
        with pytest.raises(ValueError, match=f"seed must be nonnegative, got {seed}"):
            ga.place_measurements(case, 0.5, 0.5, seed=seed)


def test_fraction_bounds_validated():
    case = ga.parse_case(MINIMAL)
    with pytest.raises(ValueError):
        ga.place_measurements(case, 1.5, 0.0, seed=0)
    with pytest.raises(ValueError):
        ga.place_measurements(case, 0.5, -0.1, seed=0)


def test_load_case_missing():
    with pytest.raises(FileNotFoundError):
        ga.load_case("no-such-case")


# -- property: arbitrary case text fails only with package errors ---------------

_BUS = st.integers(1, 3).map(str)
_ODD = st.sampled_from(
    ["-1", "0", "4", "\u00b2", "\u0661", "nan", "inf", "-inf", "1e308", "1e-320", "1_0", "x", "#"]
)
_NUMBER = st.one_of(_BUS, st.sampled_from(["0.5", "2"]), _ODD)
_PAIR = st.sampled_from([("1", "2"), ("2", "3"), ("3", "1")])
_B = st.sampled_from([(), ("0.5",), ("2",)])  # optional susceptance
_LINE = st.builds(lambda pair, b: pair + b, _PAIR, _B)
_METER = st.one_of(
    st.builds(lambda pair, b: ("flow",) + pair + b, _PAIR, _B),
    st.tuples(st.just("angle"), _BUS),
)
_IDS = st.lists(st.integers(0, 2).map(str), min_size=1, max_size=3).map(tuple)
_ENTRY = st.one_of(
    st.sampled_from([("lines",), ("measurements",), ("secure",)]),
    st.tuples(st.just("buses"), _NUMBER),
    st.tuples(st.just("name"), st.text(max_size=3)),
    st.lists(_NUMBER, min_size=1, max_size=4).map(tuple),
    st.tuples(st.sampled_from(["flow", "angle"]), _NUMBER, _NUMBER),
)


def _render(rows, position, token):
    """Case text from token rows, with one token replaced when ``token`` is given."""
    rows = [list(row) for row in rows]
    slots = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    if token is not None and slots:
        i, j = slots[position % len(slots)]
        rows[i][j] = token
    return "\n".join(" ".join(row) for row in rows)


# every section in grammar order with well-formed entries, then at most one
# token swapped for a malformed one; or any sequence of loose entries
_SECTIONED = st.builds(
    lambda lines, meters, secure: (
        [("buses", "3"), ("lines",)] + lines + [("measurements",)] + meters
        + ([("secure",)] + secure if secure else [])
    ),
    st.lists(_LINE, min_size=1, max_size=4),
    st.lists(_METER, max_size=6),
    st.lists(_IDS, max_size=2),
)
_CASE_TEXT = st.one_of(
    st.builds(_render, _SECTIONED, st.integers(0, 64), st.none() | _ODD),
    st.builds(_render, st.lists(_ENTRY, max_size=16), st.just(0), st.none()),
)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_CASE_TEXT)
@example("buses \u00b2\nlines\n1 2\n")
@example("buses 2\nlines\n1 2\nmeasurements\nflow 1 2 -1\nangle 1\n")
@example("buses 2\nlines\n1 2\nmeasurements\nflow 1 2 nan\nangle 1\n")
@example("buses 2\nlines\n1 2\nmeasurements\nflow 1 2\nangle 1\nsecure\n-1\n")
@example("buses 2\nlines\n1 2\nmeasurements\nbuses 1\n")  # a second count
def test_case_text_raises_only_package_errors(text):
    """Parsing and building the system, its graph and its matrix raise only GridAttackError."""
    try:
        case = ga.parse_case(text)
        if case.measurements is not None:
            system = ga.system_from_case(case)
            ga.build_graph(system)
            ga.build_matrix(system)
    except ga.GridAttackError:
        pass
