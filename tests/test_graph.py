"""Graph structure queries against a Floyd-Warshall oracle.

The oracle computes all-pairs shortest paths by dynamic programming over an
explicit distance matrix, sharing no code with the library's BFS.
"""

import gc
import math
import weakref

import numpy as np
import pytest

import kgcl.graph
from kgcl.data import KnowledgeGraph
from kgcl.graph import (
    _index_from_triples,
    alpha_distribution,
    build_structure_index,
    distances_within,
    draw_ring_samples,
)
from support import triple_rows


def floyd_warshall(n, undirected_edges):
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in undirected_edges:
        if u != v:
            dist[u, v] = 1.0
            dist[v, u] = 1.0
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i, k] + dist[k, j]
                if through < dist[i, j]:
                    dist[i, j] = through
    return dist


def random_triples(rng, n_entities, n_edges):
    return triple_rows(*[
        (int(rng.integers(n_entities)), 0, int(rng.integers(n_entities)))
        for _ in range(n_edges)
    ])


def test_path_graph_distances():
    # 0 - 1 - 2 - 3 in a line
    idx = _index_from_triples(triple_rows((0, 0, 1), (1, 0, 2), (2, 0, 3)), 4)
    assert distances_within(idx, 0, 5).get(3) == 3
    assert distances_within(idx, 3, 5).get(0) == 3
    assert distances_within(idx, 1, 5).get(1) == 0
    d = distances_within(idx, 0, 2)
    assert d == {0: 0, 1: 1, 2: 2}


def test_unreachable_and_capped_paths():
    idx = _index_from_triples(triple_rows((0, 0, 1), (2, 0, 3)), 5)
    assert distances_within(idx, 0, 5).get(3) is None
    assert distances_within(idx, 0, 5).get(4) is None
    # a path longer than the cap is left out too
    chain = triple_rows(*[(i, 0, i + 1) for i in range(7)])
    idx2 = _index_from_triples(chain, 8)
    assert distances_within(idx2, 0, 5).get(7) is None
    assert distances_within(idx2, 0, 7).get(7) == 7


def test_direction_relation_and_duplicates_are_ignored():
    triples = triple_rows(
        (0, 0, 1),
        (1, 1, 0),   # reverse duplicate under another relation
        (0, 2, 1),   # same pair again
        (2, 0, 2),   # self-loop, dropped
    )
    idx = _index_from_triples(triples, 3)
    assert idx.indices.size == 2  # one undirected edge, stored both ways
    assert idx.neighbors(2).size == 0
    np.testing.assert_array_equal(idx.neighbors(0), [1])
    np.testing.assert_array_equal(idx.neighbors(1), [0])
    # no triples, or only self-loops: no edges, and BFS stays at its source
    for edgeless in (triple_rows(), triple_rows((0, 0, 0), (2, 1, 2))):
        idx = _index_from_triples(edgeless, 3)
        assert idx.indices.size == 0
        assert [idx.neighbors(e).size for e in range(3)] == [0, 0, 0]
        assert distances_within(idx, 1, 3) == {1: 0}


def test_bfs_matches_floyd_warshall_on_random_graphs():
    rng = np.random.default_rng(101)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        triples = random_triples(rng, n, int(rng.integers(1, 3 * n)))
        idx = _index_from_triples(triples, n)
        pairs = {(min(h, t), max(h, t)) for h, _, t in triples.tolist() if h != t}
        oracle = floyd_warshall(n, pairs)
        for e in range(n):
            partners = sorted({v for u, v in pairs if u == e} | {u for u, v in pairs if v == e})
            np.testing.assert_array_equal(idx.neighbors(e), partners)
            assert not idx.neighbors(e).flags.writeable
        for src in range(n):
            got = distances_within(idx, src, n)
            for target in range(n):
                expect = oracle[src, target]
                if math.isinf(expect):
                    assert target not in got
                else:
                    assert got[target] == int(expect)
        # spot-check the pairwise query with a tight cap
        src, target = int(rng.integers(n)), int(rng.integers(n))
        expect = oracle[src, target]
        got_d = distances_within(idx, src, 5).get(target)
        if math.isinf(expect) or expect > 5:
            assert got_d is None
        else:
            assert got_d == int(expect)


def test_two_hop_neighborhoods_match_distance_slices():
    rng = np.random.default_rng(103)
    for _ in range(10):
        n = int(rng.integers(3, 25))
        triples = random_triples(rng, n, 2 * n)
        idx = _index_from_triples(triples, n)
        pairs = {(min(h, t), max(h, t)) for h, _, t in triples.tolist() if h != t}
        oracle = floyd_warshall(n, pairs)
        for head in range(n):
            # the ring training draws structure samples from
            ring = alpha_distribution(idx, head).support.tolist()
            assert ring == [j for j in range(n) if oracle[head, j] in (1, 2)]
            assert head not in ring


def test_hop_cache_eviction_keeps_answers_correct(monkeypatch):
    monkeypatch.setattr(kgcl.graph, "HOP_CACHE_SIZE", 2)
    chain = triple_rows(*[(i, 0, i + 1) for i in range(9)])
    idx = _index_from_triples(chain, 10)
    fresh = [alpha_distribution(idx, h).support.tolist() for h in range(10)]
    again = [alpha_distribution(idx, h).support.tolist() for h in range(10)]
    assert fresh == again
    assert fresh[0] == [1, 2] and fresh[5] == [3, 4, 6, 7]
    assert idx._ring.cache_info().currsize <= 2
    cached = alpha_distribution(idx, 9)
    assert alpha_distribution(idx, 9) is cached
    with pytest.raises(ValueError):
        cached.support[0] = 0


def test_a_dropped_index_is_freed_without_the_cycle_collector():
    # the ring cache must not hold its index in a reference cycle: an
    # index per set-up would otherwise pile up until the collector runs
    idx = _index_from_triples(triple_rows((0, 0, 1), (1, 0, 2)), 3)
    assert alpha_distribution(idx, 0).support.tolist() == [1, 2]
    dropped = weakref.ref(idx)
    gc.disable()
    try:
        del idx
        assert dropped() is None
    finally:
        gc.enable()


def test_structure_index_uses_train_split_only():
    kg = KnowledgeGraph.from_string_triples(
        [("a", "r", "b"), ("b", "r", "c")],
        [("a", "r", "c")],
        [("c", "r", "d")],
    )
    idx = build_structure_index(kg)
    a, b, c = kg.entities.id_of("a"), kg.entities.id_of("b"), kg.entities.id_of("c")
    assert distances_within(idx, a, 5).get(c) == 2  # not 1: the valid edge is unseen
    d = kg.entities.id_of("d")
    assert idx.neighbors(d).size == 0


def test_entity_range_checks():
    idx = _index_from_triples(triple_rows((0, 0, 1)), 2)
    with pytest.raises(ValueError):
        idx.neighbors(2)
    with pytest.raises(ValueError):
        distances_within(idx, -1, 2)
    with pytest.raises(ValueError):
        alpha_distribution(idx, 5)
    # an index is built from a graph's split, whose ids the graph checks
    kg = KnowledgeGraph.from_string_triples([("a", "r", "b")])
    with pytest.raises(ValueError):
        kg.replace_train(triple_rows((0, 0, 2)))


def test_alpha_distribution_support_and_probability():
    # star: 0 joined to 1,2; 2 joined to 3 so N1(0)={1,2}, N2(0)={3}
    idx = _index_from_triples(triple_rows((0, 0, 1), (0, 0, 2), (2, 0, 3)), 5)
    alpha = alpha_distribution(idx, 0)
    np.testing.assert_array_equal(alpha.support, [1, 2, 3])

    # an isolated head has an empty ring, and its row of draws stays empty
    assert alpha_distribution(idx, 4).support.size == 0
    draws = draw_ring_samples(idx, np.array([4, 0]), 3, np.random.default_rng(0))
    np.testing.assert_array_equal(draws[0], [-1, -1, -1])
    assert set(draws[1].tolist()) <= {1, 2, 3}


def test_alpha_sampling_is_uniform_over_support():
    idx = _index_from_triples(
        triple_rows((0, 0, 1), (0, 0, 2), (1, 0, 3), (2, 0, 4)), 5)
    alpha = alpha_distribution(idx, 0)
    rng = np.random.default_rng(7)
    draws = draw_ring_samples(idx, np.zeros(50, dtype=np.int64), 800, rng).ravel()
    assert set(np.unique(draws)) <= set(alpha.support.tolist())
    freq = np.array([(draws == s).mean() for s in alpha.support])
    np.testing.assert_allclose(freq, 1.0 / alpha.support.size, atol=0.01)


@pytest.mark.parametrize("m", [0, 1, 8])
def test_ring_draws_match_a_per_row_choice_loop(m):
    """One batched draw gives the ids, in the same stream, of one
    rng.choice(support, m) per head with a non-empty ring, and consumes
    nothing for a head with an empty ring."""
    graph_rng = np.random.default_rng(41 + m)
    for _ in range(20):
        n = int(graph_rng.integers(4, 30))
        # entities at or above `linked` are isolated
        linked = int(graph_rng.integers(2, n))
        triples = random_triples(graph_rng, linked, int(graph_rng.integers(1, 2 * linked)))
        idx = _index_from_triples(triples, n)
        heads = graph_rng.integers(0, n, size=int(graph_rng.integers(1, 40)))
        heads[0] = n - 1
        seed = int(graph_rng.integers(2**32))
        batched_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = draw_ring_samples(idx, heads, m, batched_rng)
        expect = np.full((heads.size, m), -1)
        for i, head in enumerate(heads.tolist()):
            support = alpha_distribution(idx, head).support
            if support.size and m:
                expect[i] = loop_rng.choice(support, size=m, replace=True)
        assert got.shape == (heads.size, m) and got.dtype == np.int64
        np.testing.assert_array_equal(got, expect)
        assert (got[0] == -1).all()
        assert batched_rng.integers(0, 2**40) == loop_rng.integers(0, 2**40)
