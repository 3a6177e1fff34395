"""Graph structure queries against a Floyd-Warshall oracle.

The oracle computes all-pairs shortest paths by dynamic programming over an
explicit distance matrix, sharing no code with the library's BFS.
"""

import gc
import math
import tracemalloc
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
    hops_at,
)
from support import bfs_distances, ring_oracle, triple_rows


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
    assert [row.tolist() for row in np.split(idx.indices, idx.indptr[1:-1])] == [[1], [0], []]
    # no triples, or only self-loops: no edges, and BFS stays at its source
    for edgeless in (triple_rows(), triple_rows((0, 0, 0), (2, 1, 2))):
        idx = _index_from_triples(edgeless, 3)
        assert idx.indices.size == 0
        assert idx.indptr.tolist() == [0, 0, 0, 0]
        assert distances_within(idx, 1, 3) == {1: 0}


def test_bfs_matches_floyd_warshall_on_random_graphs():
    rng = np.random.default_rng(101)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        triples = random_triples(rng, n, int(rng.integers(1, 3 * n)))
        idx = _index_from_triples(triples, n)
        pairs = {(min(h, t), max(h, t)) for h, _, t in triples.tolist() if h != t}
        oracle = floyd_warshall(n, pairs)
        assert not idx.indptr.flags.writeable and not idx.indices.flags.writeable
        for e in range(n):
            partners = sorted({v for u, v in pairs if u == e} | {u for u, v in pairs if v == e})
            np.testing.assert_array_equal(idx.indices[idx.indptr[e] : idx.indptr[e + 1]], partners)
        for src in range(n):
            got = distances_within(idx, src, n)
            assert bfs_distances(idx, src, n) == got  # the tests' BFS oracle
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


def test_hops_at_one_source_per_block_matches_one_block(monkeypatch):
    """The hops read one source per block equal the hops read from one
    block, at every cell of every source, asked in descending and then in
    ascending order; sources may repeat and may be isolated."""
    rng = np.random.default_rng(107)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        idx = _index_from_triples(random_triples(rng, n, int(rng.integers(1, 2 * n))), n)
        sources = rng.integers(0, n, size=int(rng.integers(1, 30)))
        cap = int(rng.integers(0, 6))
        cells = np.arange(sources.size * n)
        keys = np.concatenate([cells[::-1], cells])
        monkeypatch.setattr(kgcl.graph, "HOP_BLOCK_CELLS", sources.size * n)
        whole = hops_at(idx, sources, cap, keys)
        monkeypatch.setattr(kgcl.graph, "HOP_BLOCK_CELLS", 1)
        hops = hops_at(idx, sources, cap, keys)
        np.testing.assert_array_equal(hops, whole)
        np.testing.assert_array_equal(hops[: cells.size], hops[cells.size :][::-1])
        assert hops.dtype == np.int64 and hops.min() >= 0 and hops.max() <= cap + 1
        # each source reaches itself at hop 0
        assert np.count_nonzero(hops[cells.size :] == 0) == sources.size


def test_hops_at_checks_sources_and_takes_none():
    idx = _index_from_triples(triple_rows((0, 0, 1)), 3)
    none = np.zeros(0, dtype=np.int64)
    for bad in ([3], [-1, 0]):
        with pytest.raises(ValueError, match="source ids"):
            hops_at(idx, np.array(bad), 2, none)
    hops = hops_at(idx, none, 2, none)
    assert hops.size == 0 and hops.dtype == np.int64
    # a key beyond the one source's row reads as beyond the cap
    assert hops_at(idx, np.array([0]), 2, np.array([-1, 3, 1, 2])).tolist() == [3, 3, 1, 3]


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


@pytest.mark.parametrize("rows", ["one", "all"])
def test_ring_table_matches_a_bfs_per_head(monkeypatch, rows):
    """Every head's slice of the ring table equals the per-head BFS oracle,
    built one source per block (with second-hop pieces of at most N steps
    plus one degree) and with every source in one block. The graphs have
    isolated heads, self-loops, and duplicate and reversed edges."""
    rng = np.random.default_rng(109)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        linked = int(rng.integers(1, n + 1))  # entities at or above are isolated
        triples = random_triples(rng, linked, int(rng.integers(0, 3 * linked)))
        triples = np.concatenate([triples, triples[:, ::-1], triples[: triples.shape[0] // 2]])
        idx = _index_from_triples(triples, n)
        monkeypatch.setattr(kgcl.graph, "HOP_BLOCK_CELLS", 1 if rows == "one" else n * (n + 1))
        indptr, indices = idx.rings
        assert indptr.dtype == np.int64 and indices.dtype == np.min_scalar_type(n - 1)
        assert not indptr.flags.writeable and not indices.flags.writeable
        for head in range(n):
            support = alpha_distribution(idx, head).support
            np.testing.assert_array_equal(support, ring_oracle(idx, head))
            assert np.shares_memory(support, indices) or support.size == 0
            assert not support.flags.writeable
    chain = _index_from_triples(triple_rows(*[(i, 0, i + 1) for i in range(9)]), 10)
    assert alpha_distribution(chain, 0).support.tolist() == [1, 2]
    support = alpha_distribution(chain, 5).support
    assert support.tolist() == [3, 4, 6, 7]
    with pytest.raises(ValueError):
        support[0] = 0


def test_the_ring_table_is_built_on_the_first_lookup_only():
    kg = KnowledgeGraph.from_string_triples([("a", "r", "b"), ("b", "r", "c")])
    idx = build_structure_index(kg)
    assert "rings" not in vars(idx)
    assert alpha_distribution(idx, 0).support.size
    table = vars(idx)["rings"]
    alpha_distribution(idx, 1)
    assert idx.rings is table


def hub_index():
    """A 3,000-entity graph of 20,000 edges whose ends are drawn Zipf(0.9),
    so the low ids are hubs."""
    n, edges = 3000, 20000
    rng = np.random.default_rng(113)
    weights = np.arange(1, n + 1) ** -0.9
    ends = rng.choice(n, size=(edges, 2), p=weights / weights.sum())
    return _index_from_triples(triple_rows(*[(h, 0, t) for h, t in ends.tolist()]), n)


def traced_peak(call):
    """call() and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_block_bytes(n):
    """The bytes one hop block may hold at HOP_BLOCK_CELLS = 4096: its cells,
    and a walk piece of at most a quarter of them (1024 steps) plus one
    entity's degree (< n), five int64s a step."""
    return 4096 + 5 * 8 * (1024 + n)


def test_the_ring_build_holds_the_table_and_one_block(monkeypatch):
    """On a graph with hubs, the traced peak of the build is at most the
    table plus one block. A build that kept a second copy of the table
    would fail that bound."""
    idx = hub_index()
    monkeypatch.setattr(kgcl.graph, "HOP_BLOCK_CELLS", 4096)
    (indptr, indices), peak = traced_peak(lambda: idx.rings)
    table = indptr.nbytes + indices.nbytes
    block = one_block_bytes(idx.entity_count)
    assert table > 10 * block  # the bound is tight enough to see a second table
    assert peak <= table + block


@pytest.mark.parametrize("cap", [2, 3])
def test_hops_at_from_hubs_holds_its_keys_their_order_its_output_and_one_block(
        monkeypatch, cap):
    """hops_at at every cell of the eight hubs of that graph peaks at no
    more than a sorted copy of its keys, their order, its output and one
    block, where a walk of a whole depth from the hubs' frontier at once
    would fail that bound, and the hops read in those pieces equal the hops
    read from one block."""
    idx = hub_index()
    keys = np.arange(8 * idx.entity_count)
    whole = hops_at(idx, np.arange(8), cap, keys)
    monkeypatch.setattr(kgcl.graph, "HOP_BLOCK_CELLS", 4096)
    hops, peak = traced_peak(lambda: hops_at(idx, np.arange(8), cap, keys))
    # a sorted copy of the keys, their int64 order, the output and one block
    assert peak <= keys.nbytes + 8 * keys.size + hops.nbytes + one_block_bytes(idx.entity_count)
    np.testing.assert_array_equal(hops, whole)
    assert np.count_nonzero(hops <= cap) > 8


def test_a_dropped_index_is_freed_without_the_cycle_collector():
    # the cached ring table must not hold its index in a reference cycle:
    # an index per set-up would otherwise pile up until the collector runs
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
    a, b, c = kg.entities["a"], kg.entities["b"], kg.entities["c"]
    assert distances_within(idx, a, 5).get(c) == 2  # not 1: the valid edge is unseen
    d = kg.entities["d"]
    assert idx.indptr[d] == idx.indptr[d + 1]  # no neighbours


def test_entity_range_checks():
    idx = _index_from_triples(triple_rows((0, 0, 1)), 2)
    with pytest.raises(ValueError):
        distances_within(idx, -1, 2)
    for head in (-1, 2, 5):
        with pytest.raises(ValueError):
            alpha_distribution(idx, head)
    # one head out of range fails the whole batch of draws
    for heads in ([0, 2], [-1, 1]):
        with pytest.raises(ValueError):
            draw_ring_samples(idx, np.array(heads), 3, np.random.default_rng(0))
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
