"""Negative samplers, their distributions, and the false-negative counting
experiment."""

import numpy as np
import pytest

from kgcl.data import KnowledgeGraph, Triple, TripleBatch, make_batches
from kgcl.graph import build_structure_index, alpha_distribution
from kgcl.model import aggregate, init_model
from kgcl.sampling import (
    DEFAULT_HARD_K,
    FalseNegReport,
    NegativeSampleBatch,
    assemble_training_negatives,
    bucket_labels,
    hard_negative_softmax_sample,
    hard_negative_topk,
    in_batch_negative_sample,
    run_false_negative_experiment,
    simple_negative_probs,
    split_retain_missing,
    write_false_negative_counts,
    write_false_negative_histogram,
)


def chain_kg(n=8):
    rows = [("e%d" % i, "r", "e%d" % (i + 1)) for i in range(n - 1)]
    return KnowledgeGraph.from_string_triples(rows)


def batch_of(triples):
    heads = np.fromiter((t.head for t in triples), dtype=np.int64)
    tails = np.fromiter((t.tail for t in triples), dtype=np.int64)
    return TripleBatch(triples=list(triples), batch_entities=np.concatenate([heads, tails]))


# ---------------------------------------------------------------------------
# analytic distributions


def test_simple_negative_probs_are_tail_frequencies():
    batch = batch_of([Triple(0, 0, 5), Triple(1, 0, 5), Triple(2, 0, 6)])
    ids, probs = simple_negative_probs(batch)
    np.testing.assert_array_equal(ids, [5, 6])
    np.testing.assert_allclose(probs, [2.0 / 3.0, 1.0 / 3.0])
    assert probs.sum() == pytest.approx(1.0)


def test_hard_topk_picks_highest_scores_with_id_tiebreak():
    model = init_model(6, 2, 3, kind="sum", seed=0)
    model.relation_table[...] = 0.0
    model.entity_table[...] = 0.0
    model.entity_table[0, 0] = 1.0  # the query is (1, 0, 0)
    # candidate scores: 3 -> 2.0, 1 and 4 -> 1.0 tie, others 0
    model.entity_table[3, 0] = 2.0
    model.entity_table[1, 0] = 1.0
    model.entity_table[4, 0] = 1.0
    q = aggregate(model, 0, 0)
    picked = hard_negative_topk(q, np.arange(1, 6), model, k=3)
    np.testing.assert_array_equal(picked, [3, 1, 4])


def test_hard_topk_filters_known_positives_and_checks_supply():
    model = init_model(5, 1, 2, kind="sum", seed=1)
    q = aggregate(model, 0, 0)
    picked = hard_negative_topk(q, np.arange(5), model, k=2,
                                known_positives=frozenset({0, 1, 2}))
    assert set(picked.tolist()) <= {3, 4}
    with pytest.raises(ValueError):
        hard_negative_topk(q, np.arange(5), model, k=3,
                           known_positives=frozenset({0, 1, 2}))


def test_hard_softmax_sample_matches_analytic_distribution():
    model = init_model(4, 1, 2, kind="sum", seed=3)
    model.relation_table[...] = 0.0
    model.entity_table[0] = [1.0, 0.0]
    model.entity_table[1] = [0.5, 0.0]
    model.entity_table[2] = [1.5, 0.0]
    model.entity_table[3] = [-0.5, 0.0]
    q = aggregate(model, 0, 0)
    candidates = np.array([1, 2, 3])
    scores = model.entity_table[candidates] @ q
    expected = np.exp(scores - scores.max())
    expected /= expected.sum()
    draws = hard_negative_softmax_sample(q, candidates, model, 60000, np.random.default_rng(11))
    freq = np.array([(draws == c).mean() for c in candidates])
    tv = 0.5 * np.abs(freq - expected).sum()
    assert tv < 0.02


def test_hard_softmax_sample_is_seeded():
    model = init_model(4, 1, 2, kind="sum", seed=3)
    q = aggregate(model, 0, 0)

    def draw(seed):
        return hard_negative_softmax_sample(q, np.arange(4), model, 16, np.random.default_rng(seed))

    a, b, c = draw(5), draw(5), draw(6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        hard_negative_softmax_sample(
            q, np.zeros(0, dtype=np.int64), model, 4, np.random.default_rng(0)
        )


def test_in_batch_sample_excludes_own_tail_and_draws_nothing_from_an_empty_pool():
    tails = np.array([4, 7, 4, 9], dtype=np.int64)
    draws = in_batch_negative_sample(tails, 4, 50, np.random.default_rng(2))
    assert draws.size == 50 and set(draws.tolist()) <= {7, 9}
    rng = np.random.default_rng(3)
    assert in_batch_negative_sample(np.array([4, 4]), 4, 5, rng).size == 0
    # the empty pool consumed no randomness
    assert rng.integers(1 << 30) == np.random.default_rng(3).integers(1 << 30)


# ---------------------------------------------------------------------------
# training negative assembly


def test_simple_mode_uses_batch_slots_minus_own_tail():
    kg = chain_kg(6)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=0)
    (batch,) = make_batches(kg, batch_size=5, seed=2)
    out = assemble_training_negatives(batch, model, kg, None, 0, seed=9, mode="simple")
    for i, triple in enumerate(batch.triples):
        expected = batch.batch_entities[batch.batch_entities != triple.tail]
        np.testing.assert_array_equal(out.hard_and_batch_negatives[i], expected)
        assert triple.tail not in out.hard_and_batch_negatives[i]
        assert out.structure_samples[i].size == 0
        assert out.negative_contexts[i].size == 0


def test_simple_and_hard_modes_ignore_the_seed():
    kg = chain_kg(6)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="gru", seed=1)
    (batch,) = make_batches(kg, batch_size=5, seed=2)
    for mode in ("simple", "hard"):
        a = assemble_training_negatives(batch, model, kg, None, 0, seed=1, mode=mode)
        b = assemble_training_negatives(batch, model, kg, None, 0, seed=99, mode=mode)
        for x, y in zip(a.hard_and_batch_negatives, b.hard_and_batch_negatives):
            np.testing.assert_array_equal(x, y)


def test_hard_mode_appends_top_scoring_unknown_tails():
    kg = chain_kg(7)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="gru", seed=5,
                       init_scale=0.8)
    batch = make_batches(kg, batch_size=4, seed=0)[0]
    out = assemble_training_negatives(batch, model, kg, None, 0, seed=0, mode="hard",
                                      hard_k=2)
    for i, triple in enumerate(batch.triples):
        ids = out.hard_and_batch_negatives[i]
        base = batch.batch_entities[batch.batch_entities != triple.tail]
        assert ids.size == base.size + 2
        extras = ids[base.size:]
        # recompute the expected top 2 from scratch
        q = aggregate(model, triple.head, triple.relation)
        scores = model.entity_table @ q
        known = kg.train_positive_tails.get((triple.head, triple.relation), frozenset())
        allowed = [e for e in range(kg.num_entities()) if e not in known]
        ranked = sorted(allowed, key=lambda e: (-scores[e], e))
        np.testing.assert_array_equal(extras, ranked[:2])
        assert triple.tail not in extras


def test_hasa_mode_draws_structure_samples_from_the_hop_ring():
    kg = chain_kg(8)
    idx = build_structure_index(kg)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=2)
    batch = make_batches(kg, batch_size=4, seed=1)[0]
    out = assemble_training_negatives(batch, model, kg, idx, 6, seed=3, mode="hasa")
    for i, triple in enumerate(batch.triples):
        support = set(alpha_distribution(idx, triple.head).support.tolist())
        draws = out.structure_samples[i]
        assert draws.size == 6
        assert set(draws.tolist()) <= support
    again = assemble_training_negatives(batch, model, kg, idx, 6, seed=3, mode="hasa")
    other = assemble_training_negatives(batch, model, kg, idx, 6, seed=4, mode="hasa")
    for a, b in zip(out.structure_samples, again.structure_samples):
        np.testing.assert_array_equal(a, b)
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(out.structure_samples, other.structure_samples))


def test_hasa_plus_mode_lists_other_batch_positions():
    kg = chain_kg(6)
    idx = build_structure_index(kg)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=2)
    batch = make_batches(kg, batch_size=4, seed=1)[0]
    out = assemble_training_negatives(batch, model, kg, idx, 2, seed=0, mode="hasa_plus")
    for i in range(len(batch)):
        np.testing.assert_array_equal(
            out.negative_contexts[i], [j for j in range(len(batch)) if j != i])


def test_assembly_validates_mode_and_index():
    kg = chain_kg(5)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=0)
    (batch,) = make_batches(kg, batch_size=4, seed=1)
    with pytest.raises(ValueError):
        assemble_training_negatives(batch, model, kg, None, 0, seed=0, mode="weird")
    with pytest.raises(ValueError):
        assemble_training_negatives(batch, model, kg, None, 2, seed=0, mode="hasa")


def test_mean_negative_count():
    nsb = NegativeSampleBatch(
        hard_and_batch_negatives=[np.arange(3), np.arange(5)])
    assert nsb.mean_negative_count() == 4.0
    assert NegativeSampleBatch(hard_and_batch_negatives=[]).mean_negative_count() == 0.0


# ---------------------------------------------------------------------------
# retain/missing split


def test_split_retain_missing_sizes_and_order():
    triples = [Triple(i, 0, i + 1) for i in range(10)]
    retain, missing = split_retain_missing(triples, 0.3, seed=4)
    assert len(missing) == 3 and len(retain) == 7
    assert sorted(retain + missing) == sorted(triples)
    # both halves keep the original relative order
    positions = {t: i for i, t in enumerate(triples)}
    assert [positions[t] for t in retain] == sorted(positions[t] for t in retain)
    assert [positions[t] for t in missing] == sorted(positions[t] for t in missing)


def test_split_retain_missing_is_seeded():
    triples = [Triple(i, 0, i + 1) for i in range(20)]
    a = split_retain_missing(triples, 0.25, seed=1)
    b = split_retain_missing(triples, 0.25, seed=1)
    c = split_retain_missing(triples, 0.25, seed=2)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        split_retain_missing(triples, 0.0, seed=0)
    with pytest.raises(ValueError):
        split_retain_missing(triples, 1.0, seed=0)


def test_bucket_labels():
    assert bucket_labels(3) == ["0", "1", "2", "3+"]
    assert bucket_labels(5) == ["0", "1", "2", "3", "4", "5+"]


# ---------------------------------------------------------------------------
# the false-negative experiment


def test_report_arithmetic():
    report = FalseNegReport(
        sampler="simple",
        removal_fraction=0.2,
        distance_cap=3,
        counts=[(7, "simple", 4), (15, "simple", 9)],
        histogram={("false", "1"): 6, ("false", "3+"): 2,
                   ("true", "2"): 5, ("true", "3+"): 5},
        total_sampled={"false": 8, "true": 10},
    )
    assert report.false_count(7) == 4
    assert report.false_count(15) == 9
    with pytest.raises(KeyError):
        report.false_count(31)
    np.testing.assert_allclose(report.mean_distance("false"), (6 * 1 + 2 * 3) / 8.0)
    np.testing.assert_allclose(report.mean_distance("true"), (5 * 2 + 5 * 3) / 10.0)
    np.testing.assert_allclose(report.fraction_within("false", 2), 6 / 8.0)
    np.testing.assert_allclose(report.fraction_within("true", 2), 5 / 10.0)
    with pytest.raises(ValueError):
        report.mean_distance("other")


def planted_kg_and_seed():
    """A 3-triple graph and a seed whose retain/missing split hides exactly
    (a, r, d), so every simple-sampler draw for (a, r, b) is a known false
    negative and every draw for (c, r, d) is a true negative."""
    kg = KnowledgeGraph.from_string_triples(
        [("a", "r", "b"), ("c", "r", "d"), ("a", "r", "d")])
    target = kg.train[2]
    for seed in range(200):
        retain, missing = split_retain_missing(kg.train, 1.0 / 3.0, seed)
        if missing == [target]:
            return kg, seed
    raise AssertionError("no seed found that hides exactly the planted fact")


def test_experiment_labels_hidden_facts_as_false():
    kg, seed = planted_kg_and_seed()
    report = run_false_negative_experiment(
        kg, removal_fraction=1.0 / 3.0, sampler="simple", model=None,
        k_values=[5], seed=seed)
    # retained batch tails are {b, d}: the (a, r, b) triple can only draw d,
    # which is the hidden fact, and (c, r, d) can only draw b, which is not
    assert report.false_count(5) == 5
    assert report.total_sampled == {"false": 5, "true": 5}
    # the retained graph has edges a-b and c-d only, so both sampled
    # entities are unreachable from the query head
    assert report.histogram == {("false", "5+"): 5, ("true", "5+"): 5}


def test_experiment_distance_buckets_use_the_retained_graph():
    # chain a-b-c plus hidden (a, r, c): c sits at distance 2 from a
    kg = KnowledgeGraph.from_string_triples(
        [("a", "r", "b"), ("b", "r", "c"), ("a", "r", "c")])
    target = kg.train[2]
    seed = next(
        s for s in range(300)
        if split_retain_missing(kg.train, 1.0 / 3.0, s)[1] == [target])
    report = run_false_negative_experiment(
        kg, removal_fraction=1.0 / 3.0, sampler="simple", model=None,
        k_values=[4], seed=seed)
    assert report.histogram.get(("false", "2"), 0) > 0
    for (label, bucket), count in report.histogram.items():
        assert bucket in bucket_labels(5)


def test_experiment_is_deterministic_and_thread_count_invariant():
    kg = chain_kg(20)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=0,
                       init_scale=0.3)
    kwargs = dict(kg=kg, removal_fraction=0.25, sampler="hard", model=model,
                  k_values=[3, 7], seed=13)
    a = run_false_negative_experiment(**kwargs)
    b = run_false_negative_experiment(**kwargs)
    c = run_false_negative_experiment(**kwargs, workers=4)
    assert a.counts == b.counts == c.counts
    assert a.histogram == b.histogram == c.histogram
    assert a.total_sampled["true"] + a.total_sampled["false"] == \
        sum(a.histogram.values())


def test_experiment_validates_inputs():
    kg = chain_kg(6)
    with pytest.raises(ValueError):
        run_false_negative_experiment(kg, 0.2, "fancy", None, [3], seed=0)
    with pytest.raises(ValueError):
        run_false_negative_experiment(kg, 0.2, "hard", None, [3], seed=0)
    with pytest.raises(ValueError):
        run_false_negative_experiment(kg, 0.2, "simple", None, [], seed=0)
    with pytest.raises(ValueError):
        run_false_negative_experiment(kg, 0.2, "simple", None, [0], seed=0)


def test_max_triples_subsampling_caps_the_workload():
    kg = chain_kg(30)
    full = run_false_negative_experiment(kg, 0.2, "simple", None, [3], seed=5)
    capped = run_false_negative_experiment(kg, 0.2, "simple", None, [3], seed=5,
                                           max_triples=6)
    assert sum(capped.total_sampled.values()) < sum(full.total_sampled.values())


def test_csv_writers_emit_stable_headers(tmp_path):
    kg, seed = planted_kg_and_seed()
    report = run_false_negative_experiment(
        kg, removal_fraction=1.0 / 3.0, sampler="simple", model=None,
        k_values=[5], seed=seed)
    counts_path = tmp_path / "counts.csv"
    hist_path = tmp_path / "hist.csv"
    write_false_negative_counts([report], str(counts_path))
    write_false_negative_histogram([report], str(hist_path))
    counts_lines = counts_path.read_text().splitlines()
    assert counts_lines[0] == "K,sampler,false_count"
    assert counts_lines[1] == "5,simple,5"
    hist_lines = hist_path.read_text().splitlines()
    assert hist_lines[0] == "sampler,label,d_bucket,count"
    assert "simple,false,5+,5" in hist_lines
    # one row per (bucket, label) pair
    assert len(hist_lines) == 1 + 2 * len(bucket_labels(report.distance_cap))
