"""Graph structure queries against a Floyd-Warshall oracle.

The oracle computes all-pairs shortest paths by dynamic programming over an
explicit distance matrix, sharing no code with the library's BFS.
"""

import math

import numpy as np
import pytest

from kgcl.data import KnowledgeGraph, Triple
from kgcl.graph import (
    DEFAULT_DISTANCE_CAP,
    UNREACHABLE,
    alpha_distribution,
    build_structure_index,
    distances_within,
    shortest_path_length,
    two_hop_neighborhoods,
)
from kgcl.graph import _index_from_triples


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
    return [
        Triple(int(rng.integers(n_entities)), 0, int(rng.integers(n_entities)))
        for _ in range(n_edges)
    ]


def test_path_graph_distances():
    # 0 - 1 - 2 - 3 in a line
    idx = _index_from_triples([Triple(0, 0, 1), Triple(1, 0, 2), Triple(2, 0, 3)], 4)
    assert shortest_path_length(idx, 0, 3) == 3
    assert shortest_path_length(idx, 3, 0) == 3
    assert shortest_path_length(idx, 1, 1) == 0
    d = distances_within(idx, 0, 2)
    assert d == {0: 0, 1: 1, 2: 2}


def test_unreachable_and_capped_paths():
    idx = _index_from_triples([Triple(0, 0, 1), Triple(2, 0, 3)], 5)
    assert shortest_path_length(idx, 0, 3) == UNREACHABLE
    assert shortest_path_length(idx, 0, 4) == UNREACHABLE
    # a path longer than the cap reports UNREACHABLE too
    chain = [Triple(i, 0, i + 1) for i in range(7)]
    idx2 = _index_from_triples(chain, 8)
    assert shortest_path_length(idx2, 0, 7, cap=5) == UNREACHABLE
    assert shortest_path_length(idx2, 0, 7, cap=7) == 7


def test_direction_relation_and_duplicates_are_ignored():
    triples = [
        Triple(0, 0, 1),
        Triple(1, 1, 0),   # reverse duplicate under another relation
        Triple(0, 2, 1),   # same pair again
        Triple(2, 0, 2),   # self-loop, dropped
    ]
    idx = _index_from_triples(triples, 3)
    assert idx.edge_count() == 1
    assert idx.degree(2) == 0
    np.testing.assert_array_equal(idx.neighbors(0), [1])
    np.testing.assert_array_equal(idx.neighbors(1), [0])


def test_bfs_matches_floyd_warshall_on_random_graphs():
    rng = np.random.default_rng(101)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        triples = random_triples(rng, n, int(rng.integers(1, 3 * n)))
        idx = _index_from_triples(triples, n)
        pairs = {(min(h, t), max(h, t)) for h, _, t in triples if h != t}
        oracle = floyd_warshall(n, pairs)
        for src in range(n):
            got = distances_within(idx, src, n)
            for target in range(n):
                expect = oracle[src, target]
                if math.isinf(expect):
                    assert target not in got
                    assert shortest_path_length(idx, src, target, cap=n) == UNREACHABLE
                else:
                    assert got[target] == int(expect)
        # spot-check the pairwise query with a tight cap
        src, target = int(rng.integers(n)), int(rng.integers(n))
        expect = oracle[src, target]
        got_d = shortest_path_length(idx, src, target, cap=DEFAULT_DISTANCE_CAP)
        if math.isinf(expect) or expect > DEFAULT_DISTANCE_CAP:
            assert got_d == UNREACHABLE
        else:
            assert got_d == int(expect)


def test_two_hop_neighborhoods_match_distance_slices():
    rng = np.random.default_rng(103)
    for _ in range(10):
        n = int(rng.integers(3, 25))
        triples = random_triples(rng, n, 2 * n)
        idx = _index_from_triples(triples, n)
        pairs = {(min(h, t), max(h, t)) for h, _, t in triples if h != t}
        oracle = floyd_warshall(n, pairs)
        for head in range(n):
            n1, n2 = two_hop_neighborhoods(idx, head)
            assert n1 == {j for j in range(n) if oracle[head, j] == 1}
            assert n2 == {j for j in range(n) if oracle[head, j] == 2}
            assert head not in n1 and head not in n2
            assert not (n1 & n2)


def test_hop_cache_eviction_keeps_answers_correct():
    chain = [Triple(i, 0, i + 1) for i in range(9)]
    idx = _index_from_triples(chain, 10, cache_size=2)
    fresh = [alpha_distribution(idx, h).support.tolist() for h in range(10)]
    again = [alpha_distribution(idx, h).support.tolist() for h in range(10)]
    assert fresh == again
    assert fresh[0] == [1, 2] and fresh[5] == [3, 4, 6, 7]
    assert len(idx._hop_cache) <= 2
    cached = alpha_distribution(idx, 9)
    assert alpha_distribution(idx, 9) is cached
    with pytest.raises(ValueError):
        cached.support[0] = 0


def test_structure_index_uses_train_split_only():
    kg = KnowledgeGraph.from_string_triples(
        [("a", "r", "b"), ("b", "r", "c")],
        [("a", "r", "c")],
        [("c", "r", "d")],
    )
    idx = build_structure_index(kg)
    a, b, c = kg.entities.id_of("a"), kg.entities.id_of("b"), kg.entities.id_of("c")
    assert shortest_path_length(idx, a, c) == 2  # not 1: the valid edge is unseen
    d = kg.entities.id_of("d")
    assert idx.degree(d) == 0


def test_entity_range_checks():
    idx = _index_from_triples([Triple(0, 0, 1)], 2)
    with pytest.raises(ValueError):
        idx.neighbors(2)
    with pytest.raises(ValueError):
        distances_within(idx, -1, 2)
    with pytest.raises(ValueError):
        shortest_path_length(idx, 0, 5)


def test_alpha_distribution_support_and_probability():
    # star: 0 joined to 1,2; 2 joined to 3 so N1(0)={1,2}, N2(0)={3}
    idx = _index_from_triples([Triple(0, 0, 1), Triple(0, 0, 2), Triple(2, 0, 3)], 5)
    alpha = alpha_distribution(idx, 0)
    np.testing.assert_array_equal(alpha.support, [1, 2, 3])
    assert alpha.probability == pytest.approx(1.0 / 3.0)
    assert not alpha.is_empty

    isolated = alpha_distribution(idx, 4)
    assert isolated.is_empty
    assert isolated.probability == 0.0
    with pytest.raises(ValueError):
        isolated.sample(3, np.random.default_rng(0))


def test_alpha_sampling_is_uniform_over_support():
    idx = _index_from_triples(
        [Triple(0, 0, 1), Triple(0, 0, 2), Triple(1, 0, 3), Triple(2, 0, 4)], 5)
    alpha = alpha_distribution(idx, 0)
    rng = np.random.default_rng(7)
    draws = alpha.sample(40000, rng)
    assert set(np.unique(draws)) <= set(alpha.support.tolist())
    freq = np.array([(draws == s).mean() for s in alpha.support])
    np.testing.assert_allclose(freq, alpha.probability, atol=0.01)
