"""Ranking against an exhaustive-sort oracle, metric arithmetic, and the
filtered evaluation protocol."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgcl.data import KnowledgeGraph
import kgcl.sampling
from kgcl.evaluation import (
    FULL_CANDIDATE_THRESHOLD,
    SUBSAMPLE_CANDIDATES,
    _gold_scores,
    default_candidate_limit,
    evaluate,
    metrics_from_ranks,
    write_json,
)
from kgcl.model import aggregate_batch, init_model
from support import known_tails, query, rank_from_scores, sum_model


def oracle_rank(gold_score, others):
    """Sort every candidate and place the gold at the ceiling of its tie
    block's average position."""
    scores = np.concatenate([[gold_score], np.asarray(others, dtype=np.float64)])
    ranked = np.sort(-scores)
    positions = [i + 1 for i, s in enumerate(ranked) if -s == gold_score]
    return math.ceil(sum(positions) / len(positions))


def seeded_pool(num_entities, limit, seed):
    """The candidate subsample evaluate documents: limit entities drawn
    without replacement from a generator seeded with seed, sorted."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(num_entities, size=limit, replace=False))


def direct_ranks(model, kg, split, filtered, pool=None):
    """Rank every triple of a split from scratch: one query per triple, one
    dot product per candidate, and the sort oracle. Candidates are the pool
    (all entities by default) plus the gold tail, less its other known
    tails when filtered."""
    ranks = []
    known = known_tails(kg)
    for head, relation, tail in kg.split(split).tolist():
        q = query(model, head, relation)
        candidates = set(range(kg.num_entities()) if pool is None else pool.tolist())
        candidates.discard(tail)
        if filtered:
            candidates -= known[(head, relation)]
        others = [float(model.entity_table[e] @ q) for e in sorted(candidates)]
        ranks.append(oracle_rank(float(model.entity_table[tail] @ q), others))
    return ranks


def rows_per_chunk(monkeypatch, rows, pool_size):
    """Patch the cell budget so evaluate ranks rows triples per chunk over a
    pool of pool_size candidates."""
    monkeypatch.setattr(kgcl.sampling, "CELL_BUDGET", rows * pool_size)


def ring_kg(n, n_relations=1):
    rows = [
        ("e%d" % i, "r%d" % (i % n_relations), "e%d" % ((i + 1) % n))
        for i in range(n)
    ]
    return KnowledgeGraph.from_string_triples(rows)


# ---------------------------------------------------------------------------
# rank arithmetic


def test_rank_without_ties():
    assert rank_from_scores(5.0, np.array([1.0, 2.0, 3.0])) == 1
    assert rank_from_scores(2.5, np.array([1.0, 2.0, 3.0])) == 2
    assert rank_from_scores(0.0, np.array([1.0, 2.0, 3.0])) == 4


@pytest.mark.parametrize("n_entities", [4, 5, 9])
def test_all_tied_scores_give_middle_rank(n_entities):
    others = np.zeros(n_entities - 1)
    assert rank_from_scores(0.0, others) == math.ceil((1 + n_entities) / 2)


def test_rank_matches_sort_oracle_on_random_ties():
    rng = np.random.default_rng(59)
    for _ in range(300):
        # quantized scores make ties common
        others = np.round(rng.normal(size=rng.integers(1, 12)), 1)
        gold = float(np.round(rng.normal(), 1))
        assert rank_from_scores(gold, others) == oracle_rank(gold, others)


TIED_SCORES = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gold=TIED_SCORES, others=st.lists(TIED_SCORES, max_size=12))
def test_rank_lies_between_first_and_last(gold, others):
    others = np.array(others, dtype=np.float64)
    assert 1 <= rank_from_scores(gold, others) <= len(others) + 1


def test_metric_arithmetic_matches_hand_values():
    report = metrics_from_ranks([1, 2, 10])
    np.testing.assert_allclose(report.mrr, 8.0 / 15.0, rtol=1e-12)
    np.testing.assert_allclose(report.mr, 13.0 / 3.0, rtol=1e-12)
    np.testing.assert_allclose(report.hit1, 1.0 / 3.0)
    np.testing.assert_allclose(report.hit3, 2.0 / 3.0)
    np.testing.assert_allclose(report.hit10, 1.0)
    assert report.triple_count == 3


def test_empty_rank_list_gives_zero_report():
    report = metrics_from_ranks([])
    assert report.triple_count == 0
    assert report.mrr == 0.0 and report.mr == 0.0


def test_random_scores_give_harmonic_mean_reciprocal_rank():
    # under continuous random scores the rank is uniform on 1..c, so the
    # expected reciprocal rank is H_c / c
    rng = np.random.default_rng(61)
    c = 30
    samples = [
        1.0 / rank_from_scores(float(rng.normal()), rng.normal(size=c - 1))
        for _ in range(20000)
    ]
    h_c = sum(1.0 / r for r in range(1, c + 1))
    np.testing.assert_allclose(np.mean(samples), h_c / c, atol=0.005)


# ---------------------------------------------------------------------------
# evaluate and the filtered protocol


def one_hot_model(num_entities, dim_pad=0, kind="sum"):
    """Entity i embeds to the i-th basis vector; the query of (h, r) is e_h
    because relations embed to zero. So score(h, t) = 1 when t == h."""
    dim = num_entities + dim_pad
    return sum_model(np.eye(num_entities, dim))


def test_evaluate_counts_better_candidates():
    kg = ring_kg(5)
    model = one_hot_model(5)
    # the query of (e_i, r0) is e_i's basis vector: entity i scores 1, all
    # others 0, so each gold tail ties with 3 others behind its head
    report = evaluate(model, kg, split="train", filtered=False)
    assert report.ranks == [1 + 1 + (3 + 1) // 2] * 5


def test_filtered_ranking_removes_other_known_tails():
    kg = KnowledgeGraph.from_string_triples(
        [("a", "r", "b"), ("a", "r", "c"), ("a", "r", "d")],
        [("a", "r", "e")],
        [],
    )
    model = one_hot_model(kg.num_entities())
    a = kg.entities["a"]
    b = kg.entities["b"]
    # b scores below every other candidate, so its rank is the number of
    # candidates left
    model.entity_table[b, a] = -1.0
    raw = evaluate(model, kg, split="train", filtered=False)
    filtered = evaluate(model, kg, split="train", filtered=True)
    assert kg.train[0].tolist() == [a, 0, b]
    # c, d (train) and e (valid) leave the candidate list; a stays
    assert raw.ranks[0] == 5
    assert filtered.ranks[0] == 2


def test_filtered_rank_never_exceeds_raw_rank():
    kg = KnowledgeGraph.from_string_triples(
        [("a", "r", "b"), ("a", "r", "c"), ("b", "r", "c"), ("c", "r", "a")],
        [("a", "r", "d")],
        [("b", "r", "a")],
    )
    for seed in range(20):
        model = init_model(kg.num_entities(), kg.num_relations(), 6, kind="sum",
                           seed=seed, init_scale=1.0)
        for split in ("train", "valid", "test"):
            raw = evaluate(model, kg, split=split, filtered=False)
            filt = evaluate(model, kg, split=split, filtered=True)
            assert all(f <= r for f, r in zip(filt.ranks, raw.ranks))


def test_candidate_subset_always_includes_the_gold_tail():
    kg = ring_kg(6)
    model = init_model(6, 1, 4, kind="sum", seed=2)
    pool = seeded_pool(6, 3, seed=4)
    report = evaluate(model, kg, split="train", filtered=False, candidate_limit=3, seed=4)
    # a gold tail outside the pool joins it
    assert any(t not in pool for t in kg.train[:, 2].tolist())
    assert report.ranks == direct_ranks(model, kg, "train", False, pool)
    assert all(1 <= r <= 4 for r in report.ranks)


def test_evaluate_matches_oracle_for_random_models():
    kg = ring_kg(8, n_relations=2)
    for seed in range(30):
        model = init_model(8, kg.num_relations(), 5, kind="gru", seed=seed,
                           init_scale=0.9)
        report = evaluate(model, kg, split="train", filtered=True)
        assert report.ranks == direct_ranks(model, kg, "train", True)


def test_subsample_filters_known_tails_with_the_gold_outside_the_pool():
    # a head with many known tails, half of them held out in valid
    tails = ["x%d" % i for i in range(12)]
    train = [("a", "r", t) for t in tails[::2]] + [("b", "s", t) for t in tails]
    valid = [("a", "r", t) for t in tails[1::2]]
    kg = KnowledgeGraph.from_string_triples(train, valid, [])
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="mlp", seed=3,
                       init_scale=0.8)
    pool = seeded_pool(kg.num_entities(), 6, seed=9)
    known = known_tails(kg)[(kg.entities["a"], kg.relations["r"])]
    gold_outside = [t for t in kg.valid[:, 2].tolist() if t not in pool]
    assert gold_outside and any(e in known for e in pool.tolist())
    filtered = evaluate(model, kg, split="valid", filtered=True, candidate_limit=6, seed=9)
    raw = evaluate(model, kg, split="valid", filtered=False, candidate_limit=6, seed=9)
    assert filtered.ranks == direct_ranks(model, kg, "valid", True, pool)
    assert raw.ranks == direct_ranks(model, kg, "valid", False, pool)
    assert all(f <= r for f, r in zip(filtered.ranks, raw.ranks))
    assert filtered.ranks != raw.ranks


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_agrees_with_per_triple_ranking(monkeypatch):
    kg = ring_kg(10, n_relations=2)
    model = init_model(10, kg.num_relations(), 4, kind="mlp", seed=7, init_scale=0.8)
    rows_per_chunk(monkeypatch, 3, 10)
    for filtered in (False, True):
        report = evaluate(model, kg, split="train", filtered=filtered)
        assert report.ranks == direct_ranks(model, kg, "train", filtered)


def test_evaluate_is_worker_invariant_and_deterministic(monkeypatch):
    kg = ring_kg(12)
    model = init_model(12, 1, 4, kind="sum", seed=3)
    rows_per_chunk(monkeypatch, 2, 12)
    a = evaluate(model, kg, split="train")
    b = evaluate(model, kg, split="train", workers=4)
    assert a.ranks == b.ranks
    assert a.to_dict() == b.to_dict()


def test_workers_on_a_graph_with_unbuilt_fact_keys_rank_as_one_worker(monkeypatch):
    # each (head, relation) has two tails, one of them held out in valid
    rows = [("e%d" % (i % 10), "r%d" % (i % 3), "e%d" % ((7 * i + 1) % 31)) for i in range(60)]

    def fresh():
        return KnowledgeGraph.from_string_triples(rows[:40], rows[40:], [])

    kg = fresh()
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="gru", seed=2,
                       init_scale=0.7)
    assert "known_facts" not in vars(kg)
    rows_per_chunk(monkeypatch, 2, kg.num_entities())
    four = evaluate(model, kg, split="valid", workers=4)
    one = evaluate(model, fresh(), split="valid")
    assert four.ranks == one.ranks
    assert four.ranks == direct_ranks(model, kg, "valid", True)
    assert four.ranks != evaluate(model, kg, split="valid", filtered=False).ranks


def test_evaluate_is_worker_invariant_under_a_candidate_limit(monkeypatch):
    kg = ring_kg(40)
    model = init_model(40, 1, 4, kind="gru", seed=5, init_scale=0.5)
    rows_per_chunk(monkeypatch, 3, 8)
    one = evaluate(model, kg, split="train", candidate_limit=8, seed=1)
    two = evaluate(model, kg, split="train", candidate_limit=8, seed=1, workers=2)
    assert one.ranks == two.ranks
    assert one.ranks == direct_ranks(model, kg, "train", True, seeded_pool(40, 8, 1))


def test_evaluate_candidate_limit_bounds_ranks():
    kg = ring_kg(40)
    model = init_model(40, 1, 4, kind="sum", seed=5)
    limited = evaluate(model, kg, split="train", candidate_limit=8, seed=1)
    assert max(limited.ranks) <= 9  # 8 sampled candidates plus the gold
    full = evaluate(model, kg, split="train", candidate_limit=0)
    assert max(full.ranks) <= 40
    # a limit at or above the entity count falls back to the full set
    same = evaluate(model, kg, split="train", candidate_limit=40)
    assert same.ranks == full.ranks


def per_row_ranks(model, kg, split, filtered, pool):
    """Rank each triple of a split on its own: its query from one batched
    aggregate over the split, its gold score as table[t] @ q, its other
    candidates scored against q, and the per-row rank_from_scores."""
    triples = kg.split(split)
    queries, _ = aggregate_batch(model, triples[:, 0], triples[:, 1])
    known = known_tails(kg)
    ranks = []
    for (head, relation, tail), q in zip(triples.tolist(), queries):
        others = set(pool) - {tail}
        if filtered:
            others -= known[(head, relation)]
        others = model.entity_table[sorted(others)].reshape(-1, q.size) @ q
        ranks.append(rank_from_scores(float(model.entity_table[tail] @ q), others))
    return ranks


def random_graph(rng, n):
    """A graph over n entities and two relations whose (head, relation)
    pairs often have several tails, spread over all three splits."""
    rows = [(f"e{i}", "r0", f"e{(i + 1) % n}") for i in range(n)]
    rows += [(f"e{rng.integers(n // 3)}", f"r{rng.integers(2)}", f"e{rng.integers(n)}")
             for _ in range(3 * n)]
    return KnowledgeGraph.from_string_triples(rows[: 2 * n], rows[2 * n : 3 * n], rows[3 * n :])


def planted_model(kg, kind, rng, seed):
    """random: a seeded init; one_hot: entity i is the i-th basis vector, so
    each gold ties every entity but its head; constant: one dyadic row for
    every entity and zero relations, so every score ties; dyadic: rows in
    multiples of 1/8, so scores are exact in any summation order."""
    n = kg.num_entities()
    if kind == "one_hot":
        return sum_model(np.eye(n), num_relations=kg.num_relations())
    aggregator = ("sum", "gru", "mlp")[seed % 3] if kind == "random" else "sum"
    model = init_model(n, kg.num_relations(), 6, kind=aggregator, seed=seed, init_scale=0.8)
    if kind == "constant":
        model.entity_table[:] = rng.integers(-4, 5, size=6) / 8.0
        model.relation_table[:] = 0.0
    elif kind == "dyadic":
        for table in (model.entity_table, model.relation_table):
            table[:] = rng.integers(-2, 3, size=table.shape) / 8.0
    return model


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_batched_ranks_equal_the_per_row_oracle(monkeypatch, rows, workers):
    rng = np.random.default_rng(100 * rows + workers)
    gold_outside = 0
    for seed in range(12):
        kg = random_graph(rng, int(rng.integers(9, 16)))
        n = kg.num_entities()
        kind = ("random", "one_hot", "constant", "dyadic")[seed % 4]
        model = planted_model(kg, kind, rng, seed)
        for limit in (0, int(rng.integers(2, n))):
            pool = seeded_pool(n, limit, seed).tolist() if limit else list(range(n))
            rows_per_chunk(monkeypatch, rows, len(pool))
            for split in ("train", "valid"):
                gold_outside += sum(t not in pool for t in kg.split(split)[:, 2].tolist())
                for filtered in (False, True):
                    report = evaluate(model, kg, split=split, filtered=filtered,
                                      candidate_limit=limit, seed=seed, workers=workers)
                    assert report.ranks == per_row_ranks(model, kg, split, filtered, pool)
    assert gold_outside


def test_stacked_gold_scores_equal_per_row_dots_bit_for_bit():
    rng = np.random.default_rng(5)
    for kind, dim in (("sum", 3), ("gru", 16), ("mlp", 64), ("gru", 200)):
        model = init_model(50, 3, dim, kind=kind, seed=dim, init_scale=1.3)
        heads, gold = rng.integers(50, size=(2, 300))
        rels = rng.integers(3, size=300)
        queries, _ = aggregate_batch(model, heads, rels)
        got = _gold_scores(model.entity_table, gold, queries)
        want = np.array([model.entity_table[t] @ q for t, q in zip(gold, queries)])
        assert got.shape == (300, 1)
        assert got[:, 0].tobytes() == want.tobytes()


def test_evaluate_validates_entity_count_and_handles_empty_split():
    kg = ring_kg(6)
    small = init_model(5, 1, 4, kind="sum", seed=0)
    with pytest.raises(ValueError):
        evaluate(small, kg, split="train")
    model = init_model(6, 1, 4, kind="sum", seed=0)
    report = evaluate(model, kg, split="valid")
    assert report.triple_count == 0 and report.mrr == 0.0


@pytest.mark.parametrize("workers", [0, -3])
@pytest.mark.parametrize("split", ["train", "valid"])
def test_evaluate_rejects_a_worker_count_below_1(workers, split):
    # the empty valid split is refused too, not reported as zeros
    kg = ring_kg(6)
    model = init_model(6, 1, 4, kind="sum", seed=0)
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        evaluate(model, kg, split=split, workers=workers)


@pytest.mark.parametrize("poison", ["nan_entity_table", "inf_gru_bias"])
def test_evaluate_rejects_a_model_with_non_finite_parameters(poison):
    kg = ring_kg(6)
    model = init_model(6, 1, 4, kind="gru", seed=0)
    if poison == "nan_entity_table":
        model.entity_table[:] = np.nan
        named = "entity table"
    else:
        model.aggregator["b_z"][1] = np.inf
        named = "'b_z'"
    with pytest.raises(ValueError, match=named):
        evaluate(model, kg, split="train")


def test_report_serialization(tmp_path):
    report = metrics_from_ranks([1, 3, 4])
    json_path = tmp_path / "metrics.json"
    write_json(report.to_dict(), str(json_path))
    loaded = json.loads(json_path.read_text())
    assert loaded == report.to_dict()
    assert "ranks" not in loaded
    csv_path = tmp_path / "ranks.csv"
    report.write_ranks_csv(str(csv_path))
    assert csv_path.read_text().splitlines() == [
        "triple_index,rank", "0,1", "1,3", "2,4"]


def test_default_candidate_limit_policy():
    assert default_candidate_limit(500) == 0
    assert default_candidate_limit(FULL_CANDIDATE_THRESHOLD) == 0
    assert default_candidate_limit(FULL_CANDIDATE_THRESHOLD + 1) == SUBSAMPLE_CANDIDATES
    assert default_candidate_limit(100, requested=30) == 30
    assert default_candidate_limit(100, requested=1000) == 100
