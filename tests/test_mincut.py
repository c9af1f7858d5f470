"""Cut engines against exhaustive enumeration and an independent flow solver."""

import collections
import heapq
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
from gridattack.mincut import _stoer_wagner, cut_from_side


def _graph(nodes, edges):
    return ga.WeightedGraph(
        nodes=tuple(nodes),
        edges=tuple(ga.WeightedEdge(*e) for e in edges),
    )


def _st_cut(g, s, t):
    """``CutSolver.min_st_cut`` under the weights ``g``'s edges carry."""
    return ga.CutSolver(g).min_st_cut([e.weight for e in g.edges], s, t)[1]


def _global_cut(g):
    """``CutSolver.global_min_cut`` under the weights ``g``'s edges carry."""
    return ga.CutSolver(g).global_min_cut([e.weight for e in g.edges])[1]


def test_path_st_cut():
    g = _graph([0, 1, 2], [(0, 0, 1, 2.0), (1, 1, 2, 3.0)])
    cut = _st_cut(g, 0, 2)
    assert cut.edges == (0,)
    assert cut.weight == pytest.approx(2.0)
    assert cut.side_a == frozenset({0})


def test_triangle_weighted_cuts():
    g = _graph(
        [0, 1, 2],
        [(0, 1, 2, 0.25, False), (1, 1, 0, 0.5, True), (2, 2, 0, 0.25, False)],
    )
    cut = _global_cut(g)
    assert cut.weight == pytest.approx(0.5)
    assert cut.edges == (0, 2)
    st = _st_cut(g, 1, 2)
    assert st.weight == pytest.approx(0.5)


def test_infinite_weight_absorbing():
    g = _graph(
        [0, 1, 2],
        [(0, 0, 1, math.inf), (1, 0, 1, 1.0), (2, 1, 2, 5.0)],
    )
    cut = _st_cut(g, 0, 2)
    assert 0 not in cut.edges
    assert cut.edges == (2,)
    # when every cut is infinite the reported weight is infinite
    blocked = _st_cut(_graph([0, 1], [(0, 0, 1, math.inf)]), 0, 1)
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
    """``grid.connected`` agrees with the conftest union-find.

    Random labelled node sets in shuffled order, each label mapped to its
    position for ``connected``: the empty set, isolated nodes, parallel
    pairs, disconnected sets, and sets of more than 64 nodes.
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
        position = {v: k for k, v in enumerate(nodes)}
        assert connected(n, [(position[a], position[b]) for a, b in pairs]) == want
        seen["empty" if not n else (n > 64, want)] += 1
        seen["isolated"] += n > 1 and bool(set(nodes) - {v for p in pairs for v in p})
        seen["parallel"] += len({frozenset(p) for p in pairs}) < len(pairs)
    assert seen["empty"] == 10 and seen["isolated"] >= 50 and seen["parallel"] >= 50
    assert min(seen[True, True], seen[True, False], seen[False, True], seen[False, False]) >= 20


def test_triangle_unit_global_cut():
    tri = _graph([0, 1, 2], [(0, 0, 1, 1.0), (1, 1, 2, 1.0), (2, 0, 2, 1.0)])
    cut = _global_cut(tri)
    assert cut.weight == pytest.approx(2.0)


def test_star_unit_global_cut():
    star = _graph([0, 1, 2, 3], [(0, 0, 1, 1.0), (1, 0, 2, 1.0), (2, 0, 3, 1.0)])
    cut = _global_cut(star)
    assert cut.weight == pytest.approx(1.0)
    assert len(cut.edges) == 1


def test_tie_prefers_fewer_edges():
    # cut {e0} and cut {e1,e2} both weigh 1.0; fewer edges wins
    g = _graph([0, 1, 2], [(0, 0, 1, 1.0), (1, 1, 2, 0.5), (2, 1, 2, 0.5)])
    cut = _global_cut(g)
    assert cut.edges == (0,)


def test_tie_prefers_lexicographically_smallest_ids():
    tri = _graph([0, 1, 2], [(0, 0, 1, 1.0), (1, 1, 2, 1.0), (2, 0, 2, 1.0)])
    cut = _global_cut(tri)
    assert cut.edges == (0, 1)


def test_parallel_edges_reported_individually():
    g = _graph([0, 1], [(0, 0, 1, 1.0), (1, 0, 1, 1.0), (2, 0, 1, 1.0)])
    cut = _st_cut(g, 0, 1)
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
    """Weight (infinite edges first, then quanta of 1e-12 of the binade of the
    largest finite weight), edge count, sorted ids."""
    top = math.frexp(max((e.weight for e in g.edges if not math.isinf(e.weight)), default=0.0))[1]
    by_id = {e.id: e for e in g.edges}
    weights = [by_id[i].weight for i in cut.edges]
    finite = sum(round(math.ldexp(w, -top) * 10**12) for w in weights if not math.isinf(w))
    return (sum(map(math.isinf, weights)), finite, len(cut.edges), cut.edges)


def test_global_min_matches_enumeration():
    rng = random.Random(11)
    with_inf = with_parallel = 0
    for _ in range(60):
        g = random_weighted_graph(rng, weights=(0.25, 0.5, 0.6, 1.0, math.inf))
        with_inf += any(math.isinf(e.weight) for e in g.edges)
        with_parallel += len({(e.u, e.v) for e in g.edges}) < len(g.edges)
        want = min(all_cuts(g), key=lambda c: _tie_break_key(g, c))
        got = _global_cut(g)
        assert got.edges == want.edges
        assert got.weight == want.weight
        # enumeration never puts the first node in its side; the solver always does
        assert got.side_a == frozenset(g.nodes) - want.side_a
        assert g.nodes[0] in got.side_a
    assert with_inf >= 10 and with_parallel >= 10


def test_global_min_disconnected_reports_first_component():
    g = _graph([0, 1, 2, 3], [(0, 0, 1, 1.0), (1, 2, 3, 1.0)])
    cut = _global_cut(g)
    assert cut.edges == () and cut.weight == 0
    assert cut.side_a == frozenset({0, 1})


def test_global_min_when_infinite_edges_join_every_node():
    """Infinite edges join every node: each cut is infinite, and the tie-break still holds."""
    g = _graph([0, 1, 2], [(0, 0, 1, math.inf), (1, 1, 2, math.inf), (2, 0, 2, 1.0)])
    cut = _global_cut(g)
    want = min(all_cuts(g), key=lambda c: _tie_break_key(g, c))
    assert cut.edges == want.edges == (0, 2)
    assert math.isinf(cut.weight)
    assert cut.side_a == frozenset({0})
    # two components, each joined by an infinite edge: the first node's component, at weight 0
    split = _graph([0, 1, 2, 3], [(0, 0, 1, math.inf), (1, 2, 3, math.inf)])
    cut = _global_cut(split)
    assert cut.edges == () and cut.weight == 0
    assert cut.side_a == frozenset({0, 1})


def _merged_adjacency(labels, rows):
    """Symmetric packed capacities between labels; nodes that share a label are merged."""
    adj = [{} for _ in range(max(labels) + 1)]
    for a, row in enumerate(rows):
        for b, cap in row.items():
            la, lb = labels[a], labels[b]
            if la != lb:
                adj[la][lb] = adj[la].get(lb, 0) + cap
    return adj


def _plain_stoer_wagner(labels, rows):
    """Reference: Stoer–Wagner phases that merge only the last two labels.

    Nodes that share a label are merged first. Each phase grows a
    maximum-adjacency order from label 0, takes the cut isolating the last
    label added, and merges it into the one before. On a disconnected graph
    the side is node 0's component, at value 0.
    """
    adj = _merged_adjacency(labels, rows)
    n = len(adj)
    groups = {label: [] for label in range(n)}
    for i, label in enumerate(labels):
        groups[label].append(i)
    best = None
    while len(groups) > 1:
        key = [0] * n
        added = [False] * n
        heap = [(0, 0)]
        left = len(groups)
        prev = last = 0
        while left:
            if not heap:
                return 0, {i for i, label in enumerate(labels) if added[label]}
            v = heapq.heappop(heap)[1]
            if added[v]:
                continue
            added[v] = True
            left -= 1
            prev, last = last, v
            for u, cap in adj[v].items():
                if not added[u]:
                    key[u] += cap
                    heapq.heappush(heap, (-key[u], u))
        if best is None or key[last] < best[0]:
            best = (key[last], groups[last])
        groups[prev].extend(groups.pop(last))
        for u, cap in adj[last].items():
            if u != prev:
                adj[prev][u] = adj[prev].get(u, 0) + cap
                adj[u][prev] = adj[u].get(prev, 0) + cap
            del adj[u][last]
    value, group = best
    return value, set(group) if 0 in group else set(range(len(labels))) - set(group)


def test_contracting_engine_matches_plain_phases():
    """``_stoer_wagner`` with Nagamochi–Ono–Ibaraki contraction returns the
    plain phase loop's value, edge set and side, with and without merging
    the infinite pairs first.

    360 random multigraphs of 2–16 nodes in shuffled order, with parallel
    edges and weights 0, 1e-13 (below the quantum), 0.5, 1 and +inf.
    Every fourth graph is split into parts no edge joins, every fourth has
    a spanning tree of infinite edges, so merging the infinite pairs leaves
    one node, and every fourth has a finite spanning tree. The plain loop
    runs on unmerged nodes and, when the graph has infinite edges, on the
    union-find labels of the infinite pairs, unless they leave one node.
    """
    rng = random.Random(19)
    seen = collections.Counter()
    for k in range(360):
        n = rng.randint(2, 16)
        split = rng.randint(1, n - 1) if k % 4 == 0 else n
        pairs = []
        if k % 4 in (1, 2):  # a spanning tree, infinite or finite
            finite = (0.0, 1e-13, 0.5, 1.0)
            pairs = [(v, rng.randrange(v), math.inf if k % 4 == 1 else rng.choice(finite))
                     for v in range(1, n)]
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            if (u < split) == (v < split):
                pairs.append((u, v, rng.choice((0.0, 1e-13, 0.5, 1.0, math.inf))))
        pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 3)))  # parallel edges
        rng.shuffle(pairs)
        edges = tuple(
            ga.WeightedEdge(eid, u, v, w, rng.random() < 0.4) for eid, (u, v, w) in enumerate(pairs)
        )
        g = ga.WeightedGraph(nodes=tuple(rng.sample(range(n), n)), edges=edges)
        weights = [e.weight for e in edges]
        rows = ga.CutSolver(g)._rows(weights)
        position = {v: i for i, v in enumerate(g.nodes)}
        infinite = [(position[e.u], position[e.v]) for e in edges if math.isinf(e.weight)]
        runs = [range(n)]
        if infinite:
            merged = reference_labels(range(n), infinite)
            if max(merged):
                runs.append(merged)
            seen["all merged"] += not max(merged)
        got = _stoer_wagner(rows)
        for labels in runs:
            want = _plain_stoer_wagner(labels, rows)
            assert got[0] == want[0]
            assert got[1] == want[1]
            cut = cut_from_side(g.edges, weights, frozenset(g.nodes[i] for i in got[1]))
            assert cut == cut_from_side(g.edges, weights, frozenset(g.nodes[i] for i in want[1]))
            seen["merged"] += max(labels) < n - 1
            seen["disconnected" if cut.edges == () else "connected"] += 1
            seen["infinite"] += math.isinf(cut.weight)
            seen["zero"] += cut.weight == 0 and len(cut) > 0
            seen["not single"] += 1 < len(got[1]) < n - 1
        seen["parallel"] += len({frozenset((e.u, e.v)) for e in edges}) < len(edges)
    assert seen["disconnected"] >= 90 and seen["connected"] >= 200
    assert seen["all merged"] >= 90 and seen["merged"] >= 150 and seen["parallel"] >= 200
    assert seen["infinite"] >= 90 and seen["zero"] >= 20 and seen["not single"] >= 50


def _everything_cut(solver, weights, nodes):
    """The global cut and every s-t cut under ``weights``, each with its packed value."""
    return [solver.global_min_cut(weights)] + [
        solver.min_st_cut(weights, s, t) for s, t in itertools.permutations(nodes, 2)
    ]


def test_packing_memo_follows_weights_edited_in_place():
    """A solver's kept packing follows the weights' values, not the list object.

    Random multigraphs with parallel edges, zero and infinite weights, some
    disconnected. Each takes a random sequence of in-place edits to one
    weights list, with a solve after each edit. The packing and every cut
    then equal those of a fresh solver given a copy of the list.
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
        disconnected += _global_cut(g).edges == ()
        solver = ga.CutSolver(g)
        weights = [e.weight for e in edges]
        solver.global_min_cut(weights)
        slot = {e.id: k for k, e in enumerate(edges)}
        for _ in range(8 if edges else 0):
            k = slot[rng.choice(sorted(slot))]
            new = rng.choice(choices)
            moves[math.isinf(weights[k]), math.isinf(new)] += 1
            weights[k] = new
            fresh = ga.CutSolver(g)
            got = _everything_cut(solver, weights, g.nodes)
            assert got == _everything_cut(fresh, list(weights), g.nodes)
            assert solver._rows(weights) == fresh._rows(list(weights))
    assert disconnected >= 10
    assert min(moves[False, True], moves[True, False]) >= 40 and moves[False, False] >= 40


def _reference_rows(g, weights):
    """Rows packed as the solver once packed them: a capacity per node-index
    pair in a dict, keyed by the pair in ascending order and filled in edge
    order, then spread into symmetric rows pair by pair."""
    index = {v: i for i, v in enumerate(g.nodes)}
    m = len(g.edges)
    ranks = {eid: r for r, eid in enumerate(sorted(e.id for e in g.edges))}
    count_unit = 1 << (m + 2)
    weight_unit = (m + 2) * count_unit
    top = math.frexp(max((w for w in weights if not math.isinf(w)), default=0.0))[1]
    quanta = [None if math.isinf(w) else round(math.ldexp(w, -top) * 10**12) for w in weights]
    inf_quantum = sum(q for q in quanta if q is not None) + 1
    pair_caps = {}
    for e, q in zip(g.edges, quanta):
        a, b = sorted((index[e.u], index[e.v]))
        cap = (inf_quantum if q is None else q) * weight_unit + count_unit - (1 << (m - 1 - ranks[e.id]))
        pair_caps[a, b] = pair_caps.get((a, b), 0) + cap
    rows = [{} for _ in g.nodes]
    for (a, b), cap in pair_caps.items():
        rows[a][b] = rows[b][a] = cap
    return rows


def test_rows_match_pair_packing_reference():
    """The solver packs each weights list into the reference's rows, key order
    included, since the flow's breadth-first search walks that order, and no
    solve changes them.

    200 random multigraphs of 2–9 nodes in shuffled order, with parallel
    edges and weights 0, 1e-13 (below the quantum), 0.5, 1 and +inf, every
    fourth split into parts no edge joins. Each is packed under its own
    weights, two class weightings, and its weights scaled by 2**-20.
    """
    rng = random.Random(23)
    seen = collections.Counter()
    for k in range(200):
        n = rng.randint(2, 9)
        split = rng.randint(1, n - 1) if k % 4 == 0 else n
        pairs = []
        for _ in range(rng.randint(0, 3 * n)):
            u, v = rng.sample(range(n), 2)
            if (u < split) == (v < split):
                pairs.append((u, v, rng.choice((0.0, 1e-13, 0.5, 1.0, math.inf))))
        pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 3)))  # parallel edges
        rng.shuffle(pairs)
        ids = rng.sample(range(5 * len(pairs) + 1), len(pairs))
        edges = tuple(
            ga.WeightedEdge(eid, u, v, w, rng.random() < 0.4) for eid, (u, v, w) in zip(ids, pairs)
        )
        g = ga.WeightedGraph(nodes=tuple(rng.sample(range(n), n)), edges=edges)
        own = [e.weight for e in edges]
        solver = ga.CutSolver(g)
        for weights in (own, [1.0 if e.secure else 0.5 for e in edges],
                        [math.inf if e.secure else 1e-13 for e in edges],
                        [w * 2**-20 for w in own]):
            want = _reference_rows(g, weights)
            rows = solver._rows(weights)
            assert rows == want
            assert [list(row) for row in rows] == [list(row) for row in want]
            solver.global_min_cut(weights)
            for s, t in itertools.permutations(g.nodes[:3], 2):
                solver.min_st_cut(weights, s, t)
            assert solver._rows(weights) is rows and rows == want
        seen["disconnected"] += _global_cut(g).edges == ()
        seen["parallel"] += len({frozenset((e.u, e.v)) for e in edges}) < len(edges)
        seen["infinite"] += math.inf in own
        seen["order"] += any(list(row) != sorted(row) for row in want)
    assert seen["disconnected"] >= 50 and seen["parallel"] >= 100
    assert seen["infinite"] >= 100 and seen["order"] >= 100


def test_cut_weight_summed_left_to_right(monkeypatch):
    """A cut weighs its members summed left to right in edge order, also where
    the builtin ``sum`` of floats is compensated, as from Python 3.12 on."""
    monkeypatch.setattr("gridattack.mincut.sum", lambda items, start=0: start + math.fsum(items),
                        raising=False)
    edges = [ga.WeightedEdge(k, 0, k + 1, 1.0, k == 1) for k in range(3)]
    cut = cut_from_side(edges, [0.1, 0.2, 0.3], frozenset({0}))
    assert cut.weight == 0.6000000000000001 and (cut.n_secure, cut.n_insecure) == (1, 2)
    assert cut_from_side(edges, [0.1, math.inf, 0.3], frozenset({0})).weight == math.inf
    assert cut_from_side(edges, [0.1, 0.2, 0.3], frozenset({0, 1, 2, 3})).weight == 0.0


def test_solves_reject_bad_weights():
    """Both solves reject a negative or NaN weight and a list of the wrong length,
    also after a valid solve has left its packing in the solver."""
    solver = ga.CutSolver(_graph([0, 1], [(0, 0, 1, 1.0)]))
    solver.global_min_cut([1.0])
    for bad in ([-1.0], [math.nan], [], [1.0, 1.0]):
        with pytest.raises(ValueError, match="nonnegative weights"):
            solver.global_min_cut(bad)
        with pytest.raises(ValueError, match="nonnegative weights"):
            solver.min_st_cut(bad, 0, 1)


def test_st_cut_rejects_unknown_node():
    g = _graph([0, 1, 2], [(0, 0, 1, 1.0), (1, 1, 2, 1.0)])
    for s, t in ((0, 5), (5, 0)):
        with pytest.raises(ValueError, match="node 5"):
            _st_cut(g, s, t)


def test_long_path_lightest_edge():
    """1,200-node path, distinct weights: both engines cut the lightest edge."""
    n = 1200
    weights = [1.0 + ((37 * k + 500) % (n - 1)) / n for k in range(n - 1)]
    g = _graph(range(n), [(k, k, k + 1, w) for k, w in enumerate(weights)])
    lightest = min(range(n - 1), key=weights.__getitem__)
    st = _st_cut(g, 0, n - 1)
    assert st.edges == (lightest,)
    assert st.side_a == frozenset(range(lightest + 1))
    glob = _global_cut(g)
    assert glob.edges == (lightest,)
    assert glob.side_a == frozenset(range(lightest + 1))


def _assert_st_exact(g, cuts, s, t, got):
    """``got`` is the tie-break minimum of ``cuts`` separating s and t, and its
    side is that cut's s side inside s's component. Returns whether t lies
    outside s's component, where the side is that whole component.
    """
    want = min(
        (c for c in cuts if (s in c.side_a) != (t in c.side_a)),
        key=lambda c: _tie_break_key(g, c),
    )
    assert got.edges == want.edges
    labels = dict(zip(g.nodes, reference_labels(g.nodes, [(e.u, e.v) for e in g.edges])))
    component = frozenset(v for v in g.nodes if labels[v] == labels[s])
    s_side = want.side_a if s in want.side_a else frozenset(g.nodes) - want.side_a
    assert got.side_a == s_side & component
    return t not in component


def test_st_min_matches_enumeration():
    """The s-t engine returns exactly the enumerated tie-break minimum and its s side.

    Connected random graphs, then multigraphs with weights 0, 1e-13 (below
    the quantum) and +inf, a third of them split into two parts.
    """
    rng = random.Random(12)
    for _ in range(25):
        g = random_weighted_graph(rng)
        nodes = list(g.nodes)
        cuts = all_cuts(g)
        for s, t in itertools.combinations(nodes, 2):
            want = _min_enumerated(g, separating=(s, t))
            got = _st_cut(g, s, t)
            assert got.weight == pytest.approx(want, abs=1e-12)
            assert (s in got.side_a) != (t in got.side_a)
            _assert_st_exact(g, cuts, s, t, got)
    seen = collections.Counter()
    for k in range(45):
        n = rng.randint(2, 7)
        split = rng.randint(1, n - 1) if k % 3 == 0 else n  # no edge joins the two parts
        edges = []
        for eid in range(rng.randint(0, 12)):
            u, v = rng.sample(range(n), 2)
            if (u < split) == (v < split):
                weight = rng.choice((0.0, 1e-13, 0.5, 1.0, math.inf))
                edges.append(ga.WeightedEdge(eid, u, v, weight, rng.random() < 0.4))
        g = ga.WeightedGraph(nodes=tuple(rng.sample(range(n), n)), edges=tuple(edges))
        cuts = all_cuts(g)
        for s, t in itertools.permutations(g.nodes, 2):
            got = _st_cut(g, s, t)
            assert (s in got.side_a) != (t in got.side_a)
            seen["apart"] += _assert_st_exact(g, cuts, s, t, got)
            seen["infinite"] += math.isinf(got.weight)
            seen["zero"] += got.weight == 0 and len(got.edges) > 0
    assert seen["apart"] >= 200 and seen["infinite"] >= 60 and seen["zero"] >= 30


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
        cut = _st_cut(g, s, t)
        assert cut.weight == pytest.approx(flow / 10**6, abs=1e-6)


def test_weight_equals_member_sum():
    rng = random.Random(14)
    for _ in range(20):
        g = random_weighted_graph(rng)
        by_id = {e.id: e for e in g.edges}
        cut = _global_cut(g)
        assert cut.weight == pytest.approx(sum(by_id[i].weight for i in cut.edges))
        assert cut.n_secure + cut.n_insecure == len(cut.edges)


def test_determinism():
    rng = random.Random(15)
    for _ in range(10):
        g = random_weighted_graph(rng)
        assert _global_cut(g) == _global_cut(g)
        s, t = list(g.nodes)[:2]
        assert _st_cut(g, s, t) == _st_cut(g, s, t)


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        _graph([0, 1], [(0, 0, 1, -1.0)])


def test_duplicate_node_rejected():
    with pytest.raises(ValueError, match="duplicate node"):
        _graph([0, 1, 1, 2], [(0, 0, 1, 1.0), (1, 1, 2, 2.0)])
