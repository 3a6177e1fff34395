"""Ranking against an exhaustive-sort oracle, metric arithmetic, and the
filtered evaluation protocol."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgcl.data import KnowledgeGraph
from kgcl.evaluation import (
    FULL_CANDIDATE_THRESHOLD,
    SUBSAMPLE_CANDIDATES,
    default_candidate_limit,
    evaluate,
    metrics_from_ranks,
    rank_from_scores,
    write_json,
)
from kgcl.model import EmbeddingModel, init_model
from support import known_tails, query


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
    for t in kg.split(split):
        q = query(model, t.head, t.relation)
        candidates = set(range(kg.num_entities()) if pool is None else pool.tolist())
        candidates.discard(t.tail)
        if filtered:
            candidates -= known[(t.head, t.relation)]
        others = [float(model.entity_table[e] @ q) for e in sorted(candidates)]
        ranks.append(oracle_rank(float(model.entity_table[t.tail] @ q), others))
    return ranks


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
    entity = np.eye(num_entities, dim)
    relation = np.zeros((1, dim))
    return EmbeddingModel(entity_table=entity, relation_table=relation,
                          kind="sum", aggregator={})


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
    a = kg.entities.id_of("a")
    b = kg.entities.id_of("b")
    # b scores below every other candidate, so its rank is the number of
    # candidates left
    model.entity_table[b, a] = -1.0
    raw = evaluate(model, kg, split="train", filtered=False)
    filtered = evaluate(model, kg, split="train", filtered=True)
    assert kg.train[0] == (a, 0, b)
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
    assert any(t.tail not in pool for t in kg.train)
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
    known = known_tails(kg)[(kg.entities.id_of("a"), kg.relations.id_of("r"))]
    gold_outside = [t.tail for t in kg.valid if t.tail not in pool]
    assert gold_outside and any(e in known for e in pool.tolist())
    filtered = evaluate(model, kg, split="valid", filtered=True, candidate_limit=6, seed=9)
    raw = evaluate(model, kg, split="valid", filtered=False, candidate_limit=6, seed=9)
    assert filtered.ranks == direct_ranks(model, kg, "valid", True, pool)
    assert raw.ranks == direct_ranks(model, kg, "valid", False, pool)
    assert all(f <= r for f, r in zip(filtered.ranks, raw.ranks))
    assert filtered.ranks != raw.ranks


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_agrees_with_per_triple_ranking():
    kg = ring_kg(10, n_relations=2)
    model = init_model(10, kg.num_relations(), 4, kind="mlp", seed=7, init_scale=0.8)
    for filtered in (False, True):
        report = evaluate(model, kg, split="train", filtered=filtered, chunk_size=3)
        assert report.ranks == direct_ranks(model, kg, "train", filtered)


def test_evaluate_is_worker_invariant_and_deterministic():
    kg = ring_kg(12)
    model = init_model(12, 1, 4, kind="sum", seed=3)
    a = evaluate(model, kg, split="train", chunk_size=2)
    b = evaluate(model, kg, split="train", chunk_size=2, workers=4)
    assert a.ranks == b.ranks
    assert a.to_dict() == b.to_dict()


def test_workers_on_a_graph_with_unbuilt_fact_keys_rank_as_one_worker():
    # each (head, relation) has two tails, one of them held out in valid
    rows = [("e%d" % (i % 10), "r%d" % (i % 3), "e%d" % ((7 * i + 1) % 31)) for i in range(60)]

    def fresh():
        return KnowledgeGraph.from_string_triples(rows[:40], rows[40:], [])

    kg = fresh()
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="gru", seed=2,
                       init_scale=0.7)
    assert "known_facts" not in vars(kg)
    four = evaluate(model, kg, split="valid", chunk_size=2, workers=4)
    one = evaluate(model, fresh(), split="valid", chunk_size=2)
    assert four.ranks == one.ranks
    assert four.ranks == direct_ranks(model, kg, "valid", True)
    assert four.ranks != evaluate(model, kg, split="valid", filtered=False).ranks


def test_evaluate_is_worker_invariant_under_a_candidate_limit():
    kg = ring_kg(40)
    model = init_model(40, 1, 4, kind="gru", seed=5, init_scale=0.5)
    one = evaluate(model, kg, split="train", candidate_limit=8, seed=1, chunk_size=3)
    two = evaluate(model, kg, split="train", candidate_limit=8, seed=1, chunk_size=3,
                   workers=2)
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


def test_evaluate_validates_entity_count_and_handles_empty_split():
    kg = ring_kg(6)
    small = init_model(5, 1, 4, kind="sum", seed=0)
    with pytest.raises(ValueError):
        evaluate(small, kg, split="train")
    model = init_model(6, 1, 4, kind="sum", seed=0)
    report = evaluate(model, kg, split="valid")
    assert report.triple_count == 0 and report.mrr == 0.0


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
