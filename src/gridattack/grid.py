"""DC measurement model and the measurement multigraph that attacks cut.

Buses are numbered 1..n and a synthetic reference node 0 carries the fixed
zero phase angle. A phase-angle measurement on bus i behaves like a flow on
a unit-susceptance line between i and the reference node, so every
measurement is exactly one edge of a multigraph over the n+1 nodes, joining
its ``endpoints``. A set of measurements can steer the estimate in a
coordinated way precisely when it forms a cut of that graph.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import UnobservableSystem
from .mincut import CutResult, cut_from_side

REFERENCE_BUS = 0

DEFAULT_NOISE_STD = 0.01

# Flow susceptances outside this range defeat the 1e-6 residual test: at
# 1e10 against unit angle meters, rounding alone left a residual of 7e-6.
SUSCEPTANCE_RANGE = (1e-6, 1e6)


# Noise variances outside this range (sigma from 1e-6 to 1e6, the span of
# SUSCEPTANCE_RANGE) are refused at construction: near 1e-300 an ordinary 1e-3
# measurement whitens past estimator.WHITENED_LIMIT, which would raise only
# at estimation time.
NOISE_VARIANCE_RANGE = (1e-12, 1e12)


def valid_susceptance(b: float) -> bool:
    return SUSCEPTANCE_RANGE[0] <= b <= SUSCEPTANCE_RANGE[1]


class MeasurementKind(Enum):
    LINE_FLOW = "flow"
    PHASE_ANGLE = "angle"


@dataclass(frozen=True)
class Bus:
    id: int
    is_reference: bool = False


@dataclass(frozen=True)
class Measurement:
    """One metered quantity: a line flow or a bus phase angle."""

    id: int
    kind: MeasurementKind
    bus_i: int
    bus_j: Optional[int] = None
    susceptance: float = 1.0
    secure: bool = False

    def __post_init__(self):
        if self.kind is MeasurementKind.LINE_FLOW:
            if self.bus_j is None:
                raise ValueError(f"measurement {self.id}: flow needs two endpoints")
            if self.bus_i == self.bus_j:
                raise ValueError(f"measurement {self.id}: flow endpoints must differ")
            if self.bus_i == REFERENCE_BUS or self.bus_j == REFERENCE_BUS:
                raise ValueError(f"measurement {self.id}: flows connect real buses only")
        else:
            if self.bus_j is not None:
                raise ValueError(f"measurement {self.id}: angle takes a single bus")
            if self.bus_i == REFERENCE_BUS:
                raise ValueError(f"measurement {self.id}: reference bus carries no angle meter")
            if self.susceptance != 1.0:
                raise ValueError(f"measurement {self.id}: angle susceptance is fixed at 1")
        if not valid_susceptance(self.susceptance):
            raise ValueError(f"measurement {self.id}: susceptance outside {SUSCEPTANCE_RANGE}")

    @cached_property
    def endpoints(self) -> tuple[int, int]:
        """Graph endpoints; angles attach to the reference node."""
        if self.kind is MeasurementKind.LINE_FLOW:
            return self.bus_i, self.bus_j  # type: ignore[return-value]
        return self.bus_i, REFERENCE_BUS


@dataclass(frozen=True)
class MeasurementSystem:
    """A grid topology plus its measurement set and noise model."""

    buses: tuple[Bus, ...]
    lines: tuple[tuple[int, int, float], ...]
    measurements: tuple[Measurement, ...]
    noise_variance: tuple[float, ...] = ()

    def __post_init__(self):
        refs = [b for b in self.buses if b.is_reference]
        if len(refs) != 1 or refs[0].id != REFERENCE_BUS:
            raise ValueError("exactly one reference bus with id 0 is required")
        real = sorted(b.id for b in self.buses if not b.is_reference)
        if real != list(range(1, len(real) + 1)):
            raise ValueError("non-reference buses must be numbered 1..n")
        n = len(real)
        for i, j, b in self.lines:
            if i == j or not (1 <= i <= n) or not (1 <= j <= n):
                raise ValueError(f"line ({i},{j}) has endpoints outside 1..{n}")
            if not valid_susceptance(b):
                raise ValueError(f"line ({i},{j}): susceptance outside {SUSCEPTANCE_RANGE}")
        line_pairs = {frozenset((i, j)) for i, j, _ in self.lines}
        ids = [m.id for m in self.measurements]
        if len(set(ids)) != len(ids):
            raise ValueError("measurement ids must be unique")
        for m in self.measurements:
            if m.kind is MeasurementKind.LINE_FLOW:
                if frozenset((m.bus_i, m.bus_j)) not in line_pairs:
                    raise ValueError(f"measurement {m.id}: no line between {m.bus_i} and {m.bus_j}")
            elif not (1 <= m.bus_i <= n):
                raise ValueError(f"measurement {m.id}: bus {m.bus_i} outside 1..{n}")
        if self.noise_variance:
            if len(self.noise_variance) != len(self.measurements):
                raise ValueError("noise variance length must match measurement count")
            lo, hi = NOISE_VARIANCE_RANGE
            if not all(lo <= v <= hi for v in self.noise_variance):
                raise ValueError(f"noise variances must lie in [{lo:g}, {hi:g}]")
        else:
            object.__setattr__(
                self, "noise_variance", (DEFAULT_NOISE_STD**2,) * len(self.measurements)
            )

    @property
    def n(self) -> int:
        """Number of non-reference buses (free state dimension)."""
        return len(self.buses) - 1

    @property
    def m(self) -> int:
        return len(self.measurements)

    @cached_property
    def ids(self) -> frozenset[int]:
        return frozenset(m.id for m in self.measurements)

    @cached_property
    def max_noise_std(self) -> float:
        return float(np.sqrt(max(self.noise_variance)))

    @cached_property
    def observable(self) -> bool:
        """Whether the measurements join the buses 0..n; see ``check_observable``."""
        return connected(len(self.buses), [meas.endpoints for meas in self.measurements])

    @cached_property
    def matrix(self) -> np.ndarray:
        """Read-only measurement matrix; see ``build_matrix``."""
        check_observable(self)
        width = self.n + 1
        flat = array("d", bytes(8 * self.m * width))
        for k, meas in enumerate(self.measurements):
            u, v = meas.endpoints
            row = k * width - 1  # bus i is column i - 1, the reference the last
            flat[row + (u or width)] = meas.susceptance
            flat[row + (v or width)] = -meas.susceptance
        H = np.frombuffer(flat).reshape(self.m, width)
        H.setflags(write=False)
        return H


@dataclass(frozen=True)
class MeasurementGraph:
    """Multigraph over the nodes 0..n, in order: the buses and the reference.
    Its edges are the measurements themselves, with distinct ids, each
    joining two nodes, its ``endpoints``; other graphs raise ``ValueError``."""

    nodes: tuple[int, ...]
    edges: tuple[Measurement, ...]

    def __post_init__(self):
        n = len(self.nodes)
        if tuple(self.nodes) != tuple(range(n)):
            raise ValueError(f"graph nodes must be 0..{n - 1} in order")
        for e in self.edges:  # a measurement's own check keeps its two ends apart
            if not all(v in range(n) for v in e.endpoints):
                raise ValueError(f"edge {e.id} joins a node outside 0..{n - 1}")
        if len({e.id for e in self.edges}) != len(self.edges):
            raise ValueError("edge ids must be distinct")

    @cached_property
    def secure_ids(self) -> tuple[int, ...]:
        return tuple(e.id for e in self.edges if e.secure)

    @cached_property
    def insecure_ids(self) -> tuple[int, ...]:
        return tuple(e.id for e in self.edges if not e.secure)

    @cached_property
    def cut_memo(self) -> defaultdict:
        """Work already done on this graph object, one dict per owning module,
        under its name; no module reads or writes another's.

        "attack" keeps the graph's ``CutSolver``, cut searches and plan splits;
        "oracle" its census, price tables and witness cuts; "verify" its
        noiseless estimator runs. Each module documents its own keys. No entry
        refers to the graph, so dropping the last reference to the graph frees
        it at once. It is held per object, not by value: a value-equal graph
        built separately starts with an empty memo.
        """
        return defaultdict(dict)


def build_matrix(sys: MeasurementSystem) -> np.ndarray:
    """Susceptance-weighted incidence matrix, m rows by n+1 columns.

    A flow row carries +B at the from-bus column and -B at the to-bus
    column; an angle row carries +1 at its bus and -1 in the trailing
    reference column. The n free columns have full rank exactly when the
    measurement graph is connected, so UnobservableSystem is raised by
    that graph rule (``check_observable``), not by a numerical rank test.
    It is built once per system object, never shared by value, and is
    read-only so callers can reuse it.
    """
    return sys.matrix


def check_observable(sys: MeasurementSystem) -> None:
    """Raise UnobservableSystem unless the measurements connect every bus to the reference.

    Connectivity is decided once per system object: by ``connected``, or by
    the code that built the system where it already knows the answer (a
    placement whose lines join every bus; a ``remove_measurements`` copy
    that keeps every row). Every call on a disconnected system raises.
    """
    if not sys.observable:
        raise UnobservableSystem("measurement graph is disconnected")


def connected(n: int, pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether the pairs of positions in 0..n-1 join all n nodes; True for n == 0.

    The package's one connectivity search: breadth-first from node 0 over
    neighbour bitmasks, one bit per node.
    """
    if not n:
        return True
    adjacent = [0] * n
    for a, b in pairs:
        adjacent[a] |= 1 << b
        adjacent[b] |= 1 << a
    reached = frontier = 1
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= adjacent[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & ~reached
        reached |= frontier
    return reached == (1 << n) - 1


def build_graph(sys: MeasurementSystem) -> MeasurementGraph:
    """A new graph whose edges are the system's own measurements; requires connectivity."""
    check_observable(sys)
    # unchecked: a checked system's graph passes the graph's checks
    return unchecked(MeasurementGraph, nodes=tuple(range(sys.n + 1)), edges=sys.measurements)


def cut_edges(graph: MeasurementGraph, node_set: Iterable[int]) -> CutResult:
    """Edges with exactly one endpoint inside ``node_set``, at unit weight.

    ``node_set`` must be a proper nonempty subset of the nodes.
    """
    side = frozenset(node_set)
    all_nodes = set(graph.nodes)
    if not side or side == all_nodes or not side <= all_nodes:
        raise ValueError("node_set must be a proper nonempty subset of the graph nodes")
    return cut_from_side(graph.edges, [1.0] * len(graph.edges), side)


def remove_measurements(sys: MeasurementSystem, ids: Iterable[int]) -> MeasurementSystem:
    """System with the given measurements deleted; ids of the rest are kept.

    A subset of a valid system is valid, so the constructor's checks are
    not run again; the result equals the system built from the kept rows.
    A result that keeps every row takes the input's ``observable``.
    """
    drop = set(ids)
    keep = [k for k, m in enumerate(sys.measurements) if m.id not in drop]
    known = {"observable": sys.observable} if len(keep) == sys.m else {}
    return unchecked(
        MeasurementSystem,
        known,
        buses=sys.buses,
        lines=sys.lines,
        measurements=tuple(sys.measurements[k] for k in keep),
        noise_variance=tuple(sys.noise_variance[k] for k in keep),
    )


def unchecked(cls, shared=(), /, **fields):
    """An instance of a frozen dataclass built without running ``__post_init__``.

    Only for values whose checks are known to pass, such as rows and
    systems derived from checked ones. Every field must be given, in the
    ``shared`` mapping or by keyword; a cached property may be given its
    value too.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(shared, **fields)
    return obj
