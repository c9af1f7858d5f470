"""Grid case files: parsing, bundled topologies, randomized measurement placement.

Case file format, line oriented, ``#`` starts a comment:

    name ieee14
    buses 14
    lines
    1 2
    1 5 1.0          # optional susceptance, defaults to 1.0
    measurements     # optional; omit to place measurements randomly
    flow 1 2
    angle 3
    secure           # optional; 0-based ids into the measurement list
    0 2

Susceptances default to 1.0: attack structure only depends on the
incidence pattern, so bundled topologies normalize them away. Given ones
must lie in ``grid.SUSCEPTANCE_RANGE``, [1e-6, 1e6].
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .errors import ParseError, TopologyError
from .grid import (
    SUSCEPTANCE_RANGE,
    Bus,
    Measurement,
    MeasurementKind,
    MeasurementSystem,
    check_observable,
    valid_susceptance,
)

BUNDLED = ("ieee14", "ieee57")

# Systems are built with one object per bus before any topology check, so an
# unbounded count lets a one-line case file exhaust memory; IEEE-57 is the
# largest bundled case.
MAX_BUSES = 100_000


@dataclass(frozen=True)
class CaseFile:
    name: str
    n_buses: int
    lines: tuple[tuple[int, int, float], ...]
    measurements: Optional[tuple[tuple, ...]] = None  # ("flow", i, j, B) | ("angle", i)
    secure_ids: Optional[frozenset[int]] = None


def _check_bus(case_name: str, n: int, bus: int, line_no: int) -> None:
    if not 1 <= bus <= n:
        raise TopologyError(f"{case_name}: line {line_no}: bus {bus} outside 1..{n}")


def parse_case(text: str, name: str = "case") -> CaseFile:
    """Parse case text; raises ParseError or TopologyError."""
    n_buses: Optional[int] = None
    lines: list[tuple[int, int, float]] = []
    measurements: list[tuple] = []
    secure: set[int] = set()
    have_measurements = False
    have_secure = False
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        tokens = content.split()
        head = tokens[0].lower()
        if head == "name" and len(tokens) == 2:
            name = tokens[1]
            continue
        if head == "buses":
            digits = tokens[1].lstrip("0") if len(tokens) == 2 and tokens[1].isdecimal() else ""
            if not digits:
                raise ParseError("buses takes one positive integer", line_no)
            # compare lengths first: int() refuses strings of over 4,300 digits
            if len(digits) > len(str(MAX_BUSES)) or int(digits) > MAX_BUSES:
                raise ParseError(f"buses count exceeds {MAX_BUSES}", line_no)
            if n_buses is not None:
                raise ParseError("buses count given twice", line_no)
            n_buses = int(digits)
            continue
        if head in ("lines", "measurements", "secure") and len(tokens) == 1:
            section = head
            have_measurements |= head == "measurements"
            have_secure |= head == "secure"
            continue
        if section == "lines":
            if len(tokens) not in (2, 3):
                raise ParseError("line entries are: from to [susceptance]", line_no)
            if n_buses is None:
                raise ParseError("lines section before buses count", line_no)
            try:
                i, j = int(tokens[0]), int(tokens[1])
                b = float(tokens[2]) if len(tokens) == 3 else 1.0
            except ValueError:
                raise ParseError(f"bad number in {tokens}", line_no) from None
            _check_bus(name, n_buses, i, line_no)
            _check_bus(name, n_buses, j, line_no)
            if i == j:
                raise TopologyError(f"{name}: line {line_no}: self-loop on bus {i}")
            if not valid_susceptance(b):
                raise ParseError(f"susceptance outside {SUSCEPTANCE_RANGE}", line_no, 3)
            lines.append((i, j, b))
        elif section == "measurements":
            if n_buses is None:
                raise ParseError("measurements section before buses count", line_no)
            kind = tokens[0].lower()
            try:
                if kind == "flow" and len(tokens) in (3, 4):
                    i, j = int(tokens[1]), int(tokens[2])
                    b = float(tokens[3]) if len(tokens) == 4 else 1.0
                    _check_bus(name, n_buses, i, line_no)
                    _check_bus(name, n_buses, j, line_no)
                    if not valid_susceptance(b):
                        raise ParseError(f"susceptance outside {SUSCEPTANCE_RANGE}", line_no, 4)
                    measurements.append(("flow", i, j, b))
                elif kind == "angle" and len(tokens) == 2:
                    i = int(tokens[1])
                    _check_bus(name, n_buses, i, line_no)
                    measurements.append(("angle", i))
                else:
                    raise ParseError(f"unknown measurement entry {content!r}", line_no)
            except ValueError:
                raise ParseError(f"bad number in {tokens}", line_no) from None
        elif section == "secure":
            try:
                ids = [int(t) for t in tokens]
            except ValueError:
                raise ParseError(f"secure ids must be integers, got {tokens}", line_no) from None
            if min(ids) < 0:
                raise ParseError(f"secure id {min(ids)} is negative", line_no)
            secure.update(ids)
        else:
            raise ParseError(f"unexpected content {content!r}", line_no)
    if n_buses is None:
        raise ParseError("missing buses count")
    if not lines:
        raise ParseError("missing lines section")
    if have_secure and not have_measurements:
        raise ParseError("secure section requires an explicit measurement list")
    if have_secure and secure and max(secure) >= len(measurements):
        raise ParseError(f"secure id {max(secure)} beyond measurement count {len(measurements)}")
    line_pairs = {frozenset((i, j)) for i, j, _ in lines}
    for entry in measurements:
        if entry[0] == "flow" and frozenset((entry[1], entry[2])) not in line_pairs:
            raise TopologyError(f"{name}: flow measurement on missing line {entry[1:3]}")
    return CaseFile(
        name=name,
        n_buses=n_buses,
        lines=tuple(lines),
        measurements=tuple(measurements) if have_measurements else None,
        secure_ids=frozenset(secure) if have_secure else None,
    )


CASE_DIR_ENV = "GRIDATTACK_CASE_DIR"


def load_case(name_or_path: str) -> CaseFile:
    """Read a case from a path, the GRIDATTACK_CASE_DIR directory, or the bundle."""
    path = Path(name_or_path)
    if path.exists():
        return parse_case(path.read_text(), name=path.stem)
    case_dir = os.environ.get(CASE_DIR_ENV)
    if case_dir:
        candidate = Path(case_dir) / f"{name_or_path}.grid"
        if candidate.exists():
            return parse_case(candidate.read_text(), name=name_or_path)
    if name_or_path in BUNDLED:
        text = resources.files("gridattack").joinpath(f"data/{name_or_path}.grid").read_text()
        return parse_case(text, name=name_or_path)
    raise FileNotFoundError(f"no such case file or bundled case: {name_or_path}")


def _buses(n: int) -> tuple[Bus, ...]:
    return (Bus(0, is_reference=True),) + tuple(Bus(i) for i in range(1, n + 1))


def system_from_case(case: CaseFile) -> MeasurementSystem:
    """Build the system from a case with an explicit measurement list."""
    if case.measurements is None:
        raise ValueError(f"case {case.name} has no fixed measurement list")
    secure = case.secure_ids or frozenset()
    measurements = []
    for mid, entry in enumerate(case.measurements):
        if entry[0] == "flow":
            measurements.append(
                Measurement(mid, MeasurementKind.LINE_FLOW, entry[1], entry[2],
                            susceptance=entry[3], secure=mid in secure)
            )
        else:
            measurements.append(
                Measurement(mid, MeasurementKind.PHASE_ANGLE, entry[1], secure=mid in secure)
            )
    return MeasurementSystem(
        buses=_buses(case.n_buses),
        lines=case.lines,
        measurements=tuple(measurements),
    )


def place_measurements(
    case: CaseFile,
    angle_fraction: float,
    secure_fraction: float,
    seed: int,
) -> MeasurementSystem:
    """Flows on every line plus randomized angle meters and secure flags.

    Angle meters go on round(angle_fraction * n) distinct buses, never the
    reference; round(secure_fraction * m) measurements are flagged secure.
    Counts round half to even. Pure function of (case, fractions, seed).
    """
    if not 0 <= angle_fraction <= 1 or not 0 <= secure_fraction <= 1:
        raise ValueError("fractions must lie in [0, 1]")
    rng = random.Random(seed)
    n = case.n_buses
    n_angles = round(angle_fraction * n)
    angle_buses = sorted(rng.sample(range(1, n + 1), n_angles))
    m = len(case.lines) + n_angles
    n_secure = round(secure_fraction * m)
    secure = set(rng.sample(range(m), n_secure))
    measurements = []
    for i, j, b in case.lines:
        mid = len(measurements)
        measurements.append(
            Measurement(mid, MeasurementKind.LINE_FLOW, i, j, susceptance=b,
                        secure=mid in secure)
        )
    for bus in angle_buses:
        mid = len(measurements)
        measurements.append(
            Measurement(mid, MeasurementKind.PHASE_ANGLE, bus, secure=mid in secure)
        )
    system = MeasurementSystem(
        buses=_buses(n),
        lines=case.lines,
        measurements=tuple(measurements),
    )
    check_observable(system)
    return system
