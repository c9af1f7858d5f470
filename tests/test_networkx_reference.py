"""Both cut engines against networkx, on the integer capacities ``CutSolver`` packs.

networkx (Hagberg, Schult & Swart, SciPy 2008) is an independent reference:
its Stoer-Wagner and its preflow-push minimum cut share no code with
``mincut``. Packed capacities make every minimum cut unique, so each engine
must give networkx's value and networkx's side, not just an equal value. The
inputs are random multigraphs with weights 0, 1e-13 and +inf among ordinary
ones, and IEEE-14 and IEEE-57 placements at the hidden-generalized (HG) and
hidden-injection (HI) class weights. On the same inputs, the sweep that
finds the lightest cut through an insecure edge (``attack._sweep``) is
checked against networkx's Gomory-Hu tree (Gomory & Hu, SIAM J. 1961).
"""

import collections
import math
import random
from types import SimpleNamespace

import networkx as nx
import pytest

import gridattack as ga
from conftest import random_edge_list
from gridattack.attack import _sweep
from gridattack.mincut import _max_flow, _stoer_wagner

Edge = collections.namedtuple("Edge", "id endpoints secure")

WEIGHTS = (0.0, 1e-13, 0.25, 0.5, 1.0, math.inf)


def _nx_graph(rows) -> nx.Graph:
    """The packed rows as an undirected graph, each pair's capacity as its weight."""
    g = nx.Graph()
    g.add_nodes_from(range(len(rows)))
    for a, row in enumerate(rows):
        g.add_weighted_edges_from((a, b, cap) for b, cap in row.items() if a < b)
    return g


def _check(rows, pairs) -> int:
    """Compare both engines with networkx on the rows; returns the checks made."""
    g = _nx_graph(rows)
    value, side = _stoer_wagner(rows)
    want_value, parts = nx.stoer_wagner(g)
    assert value == want_value
    assert side == next(set(p) for p in parts if 0 in p)
    for s, t in pairs:
        value, side = _max_flow(rows, s, t)
        want_value, (source_side, _) = nx.minimum_cut(g, s, t, capacity="weight")
        assert value == want_value
        assert side == source_side
    return 1 + len(pairs)


def test_cut_engines_match_networkx_on_random_multigraphs():
    """Random connected multigraphs of 2-12 nodes with parallel edges, each
    edge weighted 0, 1e-13, +inf or an ordinary value."""
    rng = random.Random(37)
    seen = collections.Counter()
    for _ in range(120):
        n_nodes = rng.randint(2, 12)
        pairs = random_edge_list(rng, n_nodes - 1, rng.randint(n_nodes - 1, 3 * n_nodes))
        graph = SimpleNamespace(nodes=tuple(range(n_nodes)), edges=tuple(
            Edge(k, pair, rng.random() < 0.4) for k, pair in enumerate(pairs)))
        weights = [rng.choice(WEIGHTS) for _ in pairs]
        st_pairs = [tuple(rng.sample(range(n_nodes), 2)) for _ in range(2)]
        seen["checks"] += _check(ga.CutSolver(graph)._rows(weights), st_pairs)
        seen["parallel"] += len(set(map(frozenset, pairs))) < len(pairs)
        for special in (0.0, 1e-13, math.inf):
            seen[special] += special in weights
    assert seen["checks"] == 360
    assert min(seen["parallel"], seen[0.0], seen[1e-13], seen[math.inf]) >= 50, seen


@pytest.mark.parametrize("case_name, seeds", [("ieee14", range(4)), ("ieee57", range(2))])
def test_cut_engines_match_networkx_on_bundled_placements(case_name, seeds):
    """Placements of the bundled grids at HG weights (jamming costs .5 and
    .25) and HI weights (secure edges +inf, insecure ones 1), with flows
    between the first and the last insecure pair, as the sweep runs them."""
    case = ga.load_case(case_name)
    checks = 0
    for seed in seeds:
        for fraction in (0.0, 0.3, 0.6):
            graph = ga.build_graph(ga.place_measurements(case, 0.6, fraction, seed))
            solver = ga.CutSolver(graph)
            insecure = sorted({tuple(sorted(e.endpoints)) for e in graph.edges if not e.secure})
            for secure_w, insecure_w in ((0.5, 0.25), (math.inf, 1.0)):
                weights = [secure_w if e.secure else insecure_w for e in graph.edges]
                checks += _check(solver._rows(weights), [insecure[0], insecure[-1]])
    assert checks == 18 * len(seeds)


def _check_sweep(graph, secure_w, insecure_w) -> bool:
    """Compare the sweep's cut with the Gomory-Hu minimum over insecure pairs,
    on the rows ``CutSolver`` packs at the class weights; returns whether the
    global cut missed every insecure edge, so the sweep ran its s-t flows."""
    weights = [secure_w if e.secure else insecure_w for e in graph.edges]
    rows = ga.CutSolver(graph)._rows(weights)
    tree = nx.gomory_hu_tree(_nx_graph(rows), capacity="weight")
    pairs = {tuple(sorted(e.endpoints)) for e in graph.edges if not e.secure}
    paths = {(s, t): nx.shortest_path(tree, s, t) for s, t in pairs}
    value, (s, t), (a, b) = min(
        (tree[a][b]["weight"], pair, (a, b)) for pair, path in paths.items() for a, b in zip(path, path[1:])
    )
    tree.remove_edge(a, b)
    want_side = nx.node_connected_component(tree, a)
    cut = _sweep(graph, secure_w, insecure_w)
    assert sum(rows[u][v] for u in cut.side_a for v in rows[u] if v not in cut.side_a) == value
    assert want_side in (cut.side_a, set(graph.nodes) - cut.side_a)
    side = _stoer_wagner(rows)[1]
    return all((u in side) == (v in side) for u, v in pairs)


def test_sweep_matches_gomory_hu_minimum_over_insecure_pairs():
    """The sweep's cut has the least packed value of any cut separating an
    insecure pair, as the Gomory-Hu tree of the packed rows gives it, and is
    the tree's cut for that pair. Random connected multigraphs of 2-12 nodes
    at class weights drawn from the module's weights, and the bundled grids'
    placements at HG and HI weights; both the global-cut shortcut and the
    s-t fallback are reached."""
    rng = random.Random(41)
    seen = collections.Counter()
    for _ in range(100):
        n_nodes = rng.randint(2, 12)
        pairs = random_edge_list(rng, n_nodes - 1, rng.randint(n_nodes - 1, 3 * n_nodes))
        edges = tuple(Edge(k, pair, rng.random() < 0.5) for k, pair in enumerate(pairs))
        if all(e.secure for e in edges):
            continue
        graph = SimpleNamespace(nodes=tuple(range(n_nodes)), edges=edges,
                                cut_memo=collections.defaultdict(dict))
        seen[_check_sweep(graph, rng.choice(WEIGHTS), rng.choice(WEIGHTS))] += 1
    for case_name, seeds in (("ieee14", range(4)), ("ieee57", range(2))):
        case = ga.load_case(case_name)
        for seed in seeds:
            for fraction in (0.0, 0.3, 0.6):
                graph = ga.build_graph(ga.place_measurements(case, 0.6, fraction, seed))
                for weights in ((0.5, 0.25), (math.inf, 1.0)):
                    seen[_check_sweep(graph, *weights)] += 1
    assert seen[False] >= 80 and seen[True] >= 25, seen
