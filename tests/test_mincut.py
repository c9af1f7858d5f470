"""Cut engines against exhaustive enumeration and an independent flow solver."""

import collections
import itertools
import math
import random

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

import gridattack as ga
from conftest import (
    all_cuts, random_weighted_graph, reference_connected, reference_labels,
)
from gridattack.grid import connected
from gridattack.mincut import _reach


def _graph(nodes, edges):
    return ga.WeightedGraph(
        nodes=tuple(nodes),
        edges=tuple(ga.WeightedEdge(*e) for e in edges),
    )


def test_path_st_cut():
    g = _graph([0, 1, 2], [(0, 0, 1, 2.0), (1, 1, 2, 3.0)])
    cut = ga.min_st_cut(g, 0, 2)
    assert cut.edges == (0,)
    assert cut.weight == pytest.approx(2.0)
    assert cut.side_a == frozenset({0})


def test_triangle_weighted_cuts():
    g = _graph(
        [0, 1, 2],
        [(0, 1, 2, 0.25, False), (1, 1, 0, 0.5, True), (2, 2, 0, 0.25, False)],
    )
    cut = ga.global_min_cut(g)
    assert cut.weight == pytest.approx(0.5)
    assert cut.edges == (0, 2)
    st = ga.min_st_cut(g, 1, 2)
    assert st.weight == pytest.approx(0.5)


def test_infinite_weight_absorbing():
    g = _graph(
        [0, 1, 2],
        [(0, 0, 1, math.inf), (1, 0, 1, 1.0), (2, 1, 2, 5.0)],
    )
    cut = ga.min_st_cut(g, 0, 2)
    assert 0 not in cut.edges
    assert cut.edges == (2,)
    # when every cut is infinite the reported weight is infinite
    blocked = ga.min_st_cut(_graph([0, 1], [(0, 0, 1, math.inf)]), 0, 1)
    assert math.isinf(blocked.weight)


def test_enumerate_counts():
    """The brute-force reference: one cut per proper bipartition, in mask order."""
    tri = _graph([0, 1, 2], [(0, 0, 1, 1.0), (1, 1, 2, 1.0), (2, 0, 2, 1.0)])
    cuts = all_cuts(tri)
    assert len(cuts) == 3
    assert sorted(c.edges for c in cuts) == [(0, 1), (0, 2), (1, 2)]
    assert [sorted(c.side_a) for c in cuts] == [[1], [2], [1, 2]]
    four = _graph([0, 1, 2, 3], [(0, 0, 1, 1.0), (1, 1, 2, 1.0), (2, 2, 3, 1.0)])
    cuts = all_cuts(four)
    assert len(cuts) == 7
    assert all(0 not in c.side_a for c in cuts)


def test_reachability_matches_union_find_reference():
    """``grid.connected``, ``_reach`` inside a mask, and the labels of
    ``CutSolver._contracted`` all agree with the conftest union-find.

    Random node sets in shuffled order: the empty set, isolated nodes,
    parallel pairs, disconnected sets, and sets of more than 64 nodes.
    """
    rng = random.Random(18)
    seen = collections.Counter()
    for k in range(400):
        n = 0 if k % 40 == 0 else rng.choice((rng.randint(1, 10), rng.randint(65, 90)))
        nodes = rng.sample(range(3 * n + 5), n)
        pairs = []
        if n >= 2:
            if rng.random() < 0.5:  # a spanning tree, so large sets are connected too
                pairs = [(v, rng.choice(nodes[:i])) for i, v in enumerate(nodes[1:], 1)]
            pairs += [tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(0, n))]
            pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 3)))
            rng.shuffle(pairs)
        want = reference_connected(nodes, pairs)
        assert connected(nodes, pairs) == want
        seen["empty" if not n else (n > 64, want)] += 1
        seen["isolated"] += n > 1 and bool(set(nodes) - {v for p in pairs for v in p})
        seen["parallel"] += len({frozenset(p) for p in pairs}) < len(pairs)

        position = {v: i for i, v in enumerate(nodes)}
        adjacent = [0] * n
        for a, b in pairs:
            adjacent[position[a]] |= 1 << position[b]
            adjacent[position[b]] |= 1 << position[a]
        within = rng.getrandbits(n) if n else 0
        if within:
            inside = [v for v in nodes if within >> position[v] & 1]
            induced = [(a, b) for a, b in pairs if a in inside and b in inside]
            got = _reach(within & -within, adjacent, within) == within
            assert got == reference_connected(inside, induced)
            seen["induced", got] += 1

        if n:
            edges = tuple(
                ga.WeightedEdge(i, a, b, math.inf if rng.random() < 0.6 else 1.0)
                for i, (a, b) in enumerate(pairs)
            )
            labels, _ = ga.CutSolver(ga.WeightedGraph(nodes=tuple(nodes), edges=edges))._contracted()
            infinite = [(e.u, e.v) for e in edges if math.isinf(e.weight)]
            assert labels == reference_labels(nodes, infinite)
            seen["merged"] += len(set(labels)) < n
    assert seen["empty"] == 10 and seen["isolated"] >= 50 and seen["parallel"] >= 50
    assert min(seen[True, True], seen[True, False], seen[False, True], seen[False, False]) >= 20
    assert min(seen["induced", True], seen["induced", False]) >= 50 and seen["merged"] >= 100


def test_triangle_unit_global_cut():
    tri = _graph([0, 1, 2], [(0, 0, 1, 1.0), (1, 1, 2, 1.0), (2, 0, 2, 1.0)])
    cut = ga.global_min_cut(tri)
    assert cut.weight == pytest.approx(2.0)


def test_star_unit_global_cut():
    star = _graph([0, 1, 2, 3], [(0, 0, 1, 1.0), (1, 0, 2, 1.0), (2, 0, 3, 1.0)])
    cut = ga.global_min_cut(star)
    assert cut.weight == pytest.approx(1.0)
    assert len(cut.edges) == 1


def test_tie_prefers_fewer_edges():
    # cut {e0} and cut {e1,e2} both weigh 1.0; fewer edges wins
    g = _graph([0, 1, 2], [(0, 0, 1, 1.0), (1, 1, 2, 0.5), (2, 1, 2, 0.5)])
    cut = ga.global_min_cut(g)
    assert cut.edges == (0,)


def test_tie_prefers_lexicographically_smallest_ids():
    tri = _graph([0, 1, 2], [(0, 0, 1, 1.0), (1, 1, 2, 1.0), (2, 0, 2, 1.0)])
    cut = ga.global_min_cut(tri)
    assert cut.edges == (0, 1)


def test_parallel_edges_reported_individually():
    g = _graph([0, 1], [(0, 0, 1, 1.0), (1, 0, 1, 1.0), (2, 0, 1, 1.0)])
    cut = ga.min_st_cut(g, 0, 1)
    assert cut.edges == (0, 1, 2)
    assert cut.weight == pytest.approx(3.0)


def _min_enumerated(g, separating=None):
    best = None
    for cut in all_cuts(g):
        if separating is not None:
            s, t = separating
            if (s in cut.side_a) == (t in cut.side_a):
                continue
        if best is None or cut.weight < best:
            best = cut.weight
    return best


def _tie_break_key(g, cut):
    """Weight (infinite edges first, then 1e-12 quanta), edge count, sorted ids."""
    by_id = {e.id: e for e in g.edges}
    weights = [by_id[i].weight for i in cut.edges]
    finite = sum(round(w * 10**12) for w in weights if not math.isinf(w))
    return (sum(map(math.isinf, weights)), finite, len(cut.edges), cut.edges)


def test_global_min_matches_enumeration():
    rng = random.Random(11)
    with_inf = with_parallel = 0
    for _ in range(60):
        g = random_weighted_graph(rng, weights=(0.25, 0.5, 0.6, 1.0, math.inf))
        with_inf += any(math.isinf(e.weight) for e in g.edges)
        with_parallel += len({(e.u, e.v) for e in g.edges}) < len(g.edges)
        want = min(all_cuts(g), key=lambda c: _tie_break_key(g, c))
        got = ga.global_min_cut(g)
        assert got.edges == want.edges
        assert got.weight == want.weight
        # enumeration never puts the first node in its side; the solver always does
        assert got.side_a == frozenset(g.nodes) - want.side_a
        assert g.nodes[0] in got.side_a
    assert with_inf >= 10 and with_parallel >= 10


def test_global_min_disconnected_reports_first_component():
    g = _graph([0, 1, 2, 3], [(0, 0, 1, 1.0), (1, 2, 3, 1.0)])
    cut = ga.global_min_cut(g)
    assert cut.edges == () and cut.weight == 0
    assert cut.side_a == frozenset({0, 1})


def test_global_min_when_infinite_edges_join_every_node():
    """Merging the infinite pairs leaves one node, so the phases run unmerged."""
    g = _graph([0, 1, 2], [(0, 0, 1, math.inf), (1, 1, 2, math.inf), (2, 0, 2, 1.0)])
    cut = ga.global_min_cut(g)
    want = min(all_cuts(g), key=lambda c: _tie_break_key(g, c))
    assert cut.edges == want.edges == (0, 2)
    assert math.isinf(cut.weight)
    assert cut.side_a == frozenset({0})
    # two components, each merged to one node: the first node's component, at weight 0
    split = _graph([0, 1, 2, 3], [(0, 0, 1, math.inf), (1, 2, 3, math.inf)])
    cut = ga.global_min_cut(split)
    assert cut.edges == () and cut.weight == 0
    assert cut.side_a == frozenset({0, 1})


def _everything_cut(solver, nodes):
    """The global cut and every s-t cut, each with its packed value."""
    return [solver.global_min_cut()] + [
        solver.min_st_cut(s, t) for s, t in itertools.permutations(nodes, 2)
    ]


def test_set_weight_matches_fresh_solver():
    """Reweighting in place leaves the solver as a fresh one on the reweighted graph.

    Random multigraphs with parallel edges, zero and infinite weights, some
    disconnected, each take a random sequence of reweightings.
    """
    rng = random.Random(17)
    choices = (0.0, 1e-13, 0.25, 1.0, 2.5, math.inf)
    moves = collections.Counter()
    disconnected = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        edges = []
        for eid in range(rng.randint(0, 12)):
            u, v = rng.sample(range(n), 2)
            weight, secure = rng.choice(choices), rng.random() < 0.4
            edges.append(ga.WeightedEdge(3 * eid + 2, u, v, weight, secure))
        rng.shuffle(edges)
        g = ga.WeightedGraph(nodes=tuple(range(n)), edges=tuple(edges))
        disconnected += ga.global_min_cut(g).edges == ()
        solver = ga.CutSolver(g)
        weights = {e.id: e.weight for e in edges}
        for _ in range(8 if edges else 0):
            eid = rng.choice(sorted(weights))
            new = rng.choice(choices)
            moves[math.isinf(weights[eid]), math.isinf(new)] += 1
            weights[eid] = new
            solver.set_weight(eid, new)
            fresh = ga.CutSolver(g.reweighted(weights))
            assert solver._pair_caps == fresh._pair_caps
            assert _everything_cut(solver, g.nodes) == _everything_cut(fresh, g.nodes)
    assert disconnected >= 10
    assert min(moves[False, True], moves[True, False]) >= 40 and moves[False, False] >= 40


def test_set_weight_rejects_bad_weights():
    solver = ga.CutSolver(_graph([0, 1], [(0, 0, 1, 1.0)]))
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            solver.set_weight(0, bad)


def test_long_path_lightest_edge():
    """1,200-node path, distinct weights: both engines cut the lightest edge."""
    n = 1200
    weights = [1.0 + ((37 * k + 500) % (n - 1)) / n for k in range(n - 1)]
    g = _graph(range(n), [(k, k, k + 1, w) for k, w in enumerate(weights)])
    lightest = min(range(n - 1), key=weights.__getitem__)
    st = ga.min_st_cut(g, 0, n - 1)
    assert st.edges == (lightest,)
    assert st.side_a == frozenset(range(lightest + 1))
    glob = ga.global_min_cut(g)
    assert glob.edges == (lightest,)
    assert glob.side_a == frozenset(range(lightest + 1))


def test_st_min_matches_enumeration():
    rng = random.Random(12)
    for _ in range(25):
        g = random_weighted_graph(rng)
        nodes = list(g.nodes)
        for s, t in itertools.combinations(nodes, 2):
            want = _min_enumerated(g, separating=(s, t))
            got = ga.min_st_cut(g, s, t)
            assert got.weight == pytest.approx(want, abs=1e-12)
            assert (s in got.side_a) != (t in got.side_a)


def test_duality_against_independent_flow_solver():
    """Cut weight equals the max flow computed by scipy's solver."""
    rng = random.Random(13)
    for _ in range(20):
        g = random_weighted_graph(rng)
        index = {v: i for i, v in enumerate(g.nodes)}
        n = len(g.nodes)
        caps = np.zeros((n, n), dtype=np.int64)
        for e in g.edges:
            caps[index[e.u], index[e.v]] += round(e.weight * 10**6)
            caps[index[e.v], index[e.u]] += round(e.weight * 10**6)
        s, t = rng.sample(list(g.nodes), 2)
        flow = maximum_flow(csr_matrix(caps), index[s], index[t]).flow_value
        cut = ga.min_st_cut(g, s, t)
        assert cut.weight == pytest.approx(flow / 10**6, abs=1e-6)


def test_weight_equals_member_sum():
    rng = random.Random(14)
    for _ in range(20):
        g = random_weighted_graph(rng)
        by_id = {e.id: e for e in g.edges}
        cut = ga.global_min_cut(g)
        assert cut.weight == pytest.approx(sum(by_id[i].weight for i in cut.edges))
        assert cut.n_secure + cut.n_insecure == len(cut.edges)


def test_determinism():
    rng = random.Random(15)
    for _ in range(10):
        g = random_weighted_graph(rng)
        assert ga.global_min_cut(g) == ga.global_min_cut(g)
        s, t = list(g.nodes)[:2]
        assert ga.min_st_cut(g, s, t) == ga.min_st_cut(g, s, t)


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        _graph([0, 1], [(0, 0, 1, -1.0)])
