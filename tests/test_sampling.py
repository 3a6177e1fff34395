"""Negative samplers, their distributions, and the false-negative counting
experiment."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgcl.sampling
from kgcl.data import KnowledgeGraph, make_batches
from kgcl.graph import (
    _index_from_triples,
    alpha_distribution,
    build_structure_index,
    distances_within,
)
from kgcl.model import init_model
from kgcl.sampling import (
    DEFAULT_HARD_K,
    LABELS,
    TOPK_CELL_BUDGET,
    FalseNegReport,
    NegativeSampleBatch,
    _select_topk,
    assemble_training_negatives,
    bucket_labels,
    hard_negative_softmax_sample,
    in_batch_negative_sample,
    run_false_negative_experiment,
    split_retain_missing,
    write_false_negative_counts,
    write_false_negative_histogram,
)
from kgcl.synthetic import SyntheticKGSpec, generate_knowledge_graph
from support import query, tails_by_query, triple_rows


def filled(row):
    return row[row >= 0]


def batch_slots(batch):
    """The in-batch slots oracle: every head, then every tail, in row order."""
    rows = batch.tolist()
    return np.array([h for h, _, _ in rows] + [t for _, _, t in rows], dtype=np.int64)


def chain_kg(n=8):
    rows = [("e%d" % i, "r", "e%d" % (i + 1)) for i in range(n - 1)]
    return KnowledgeGraph.from_string_triples(rows)


# ---------------------------------------------------------------------------
# analytic distributions


def test_hard_topk_picks_highest_scores_with_id_tiebreak():
    model = init_model(6, 2, 3, kind="sum", seed=0)
    model.relation_table[...] = 0.0
    model.entity_table[...] = 0.0
    model.entity_table[0, 0] = 1.0  # the query is (1, 0, 0)
    # candidate scores: 3 -> 2.0, 1 and 4 -> 1.0 tie, others 0
    model.entity_table[3, 0] = 2.0
    model.entity_table[1, 0] = 1.0
    model.entity_table[4, 0] = 1.0
    scores = (model.entity_table @ query(model, 0, 0))[None]
    known = np.arange(6)[None] == 0  # the candidates are entities 1..5
    picked = _select_topk(scores, known, 3)
    np.testing.assert_array_equal(picked, [[3, 1, 4]])


def test_hard_topk_filters_known_positives_and_checks_supply():
    model = init_model(5, 1, 2, kind="sum", seed=1)
    scores = (model.entity_table @ query(model, 0, 0))[None]
    known = np.isin(np.arange(5), [0, 1, 2])[None]
    picked = _select_topk(scores, known, 2)
    assert sorted(picked[0].tolist()) == [3, 4]
    with pytest.raises(ValueError):
        _select_topk(scores, known, 3)


def lexsort_topk(scores, known, k):
    """The per-row reference: drop the known columns, then lexsort by
    (-score, column), which ranks NaN last."""
    picked = []
    for row, mask in zip(scores, known):
        ids = np.flatnonzero(~mask)
        if ids.size < k:
            raise ValueError("too few candidates")
        picked.append(ids[np.lexsort((ids, -row[ids]))][:k])
    return np.array(picked, dtype=np.int64).reshape(len(scores), k)


@pytest.mark.parametrize("k", [0, 1, 3, 9])
def test_batched_topk_matches_a_per_row_lexsort(k):
    rng = np.random.default_rng(k)
    # NaN comes with either sign bit
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0])
    for _ in range(40):
        # multiples of 1/8 plant exact ties; some cells are NaN, +-inf or -0.0
        scores = rng.integers(-3, 4, size=(7, 12)) / 8.0
        odd = rng.random(scores.shape) < 0.3
        scores[odd] = rng.choice(specials, size=odd.sum())
        scores[1], scores[2], scores[3] = specials[np.arange(12) % 2], np.inf, -np.inf
        known = rng.random(scores.shape) < 0.3
        # row 0 keeps exactly k candidates; no row keeps fewer
        known[0] = True
        known[0, rng.choice(12, size=k, replace=False)] = False
        for row in range(1, 7):
            while np.count_nonzero(~known[row]) < k:
                known[row, rng.choice(np.flatnonzero(known[row]))] = False
        picked = _select_topk(scores, known, k)
        np.testing.assert_array_equal(picked, lexsort_topk(scores, known, k))
        assert picked.shape == (7, k) and picked.dtype == np.int64
        assert not np.take_along_axis(known, picked, axis=1).any()
        if k:
            known[4, :] = True
            known[4, : k - 1] = False
            with pytest.raises(ValueError, match=f"top-{k} requested but only {k - 1} candidates"):
                _select_topk(scores, known, k)
            with pytest.raises(ValueError):
                lexsort_topk(scores, known, k)


# finite scores full of exact ties: multiples of 1/8, both zeros, and the
# largest magnitudes a float64 holds
FINITE_TIES = [i / 8 for i in range(-8, 9)] + [-0.0, np.finfo(np.float64).max,
                                             -np.finfo(np.float64).max]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), k=st.sampled_from([0, 1, 3, 7]))
def test_topk_on_finite_blocks_matches_a_per_row_lexsort(data, k):
    """On an all-finite block dense with ties, including ties at +-finfo.max,
    the picks equal the reference's: ties to the lower column and -0.0 tied
    with 0.0."""
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(max(k, 1), 16))
    cells = st.lists(st.sampled_from(FINITE_TIES), min_size=rows * cols, max_size=rows * cols)
    scores = np.array(data.draw(cells)).reshape(rows, cols)
    marks = st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols)
    known = np.array(data.draw(marks)).reshape(rows, cols)
    # row 0 keeps exactly k free columns; every other row keeps at least k
    known[0] = True
    known[0, data.draw(st.permutations(range(cols)))[:k]] = False
    for row in range(1, rows):
        while np.count_nonzero(~known[row]) < k:
            known[row, np.flatnonzero(known[row])[0]] = False
    assert np.isfinite(scores).all()
    picked = _select_topk(scores, known, k)
    np.testing.assert_array_equal(picked, lexsort_topk(scores, known, k))
    assert picked.shape == (rows, k) and picked.dtype == np.int64
    assert not np.take_along_axis(known, picked, axis=1).any()


def test_hard_softmax_sample_matches_analytic_distribution():
    model = init_model(4, 1, 2, kind="sum", seed=3)
    model.relation_table[...] = 0.0
    model.entity_table[0] = [1.0, 0.0]
    model.entity_table[1] = [0.5, 0.0]
    model.entity_table[2] = [1.5, 0.0]
    model.entity_table[3] = [-0.5, 0.0]
    q = query(model, 0, 0)
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
    q = query(model, 0, 0)

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
    slots = batch_slots(batch)
    for i, (_, _, tail) in enumerate(batch.tolist()):
        expected = slots[slots != tail]
        np.testing.assert_array_equal(filled(out.hard_and_batch_negatives[i]), expected)
        assert tail not in out.hard_and_batch_negatives[i]
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
    train_tails = tails_by_query(kg.train)
    slots = batch_slots(batch)
    for i, (head, relation, tail) in enumerate(batch.tolist()):
        ids = filled(out.hard_and_batch_negatives[i])
        base = slots[slots != tail]
        assert ids.size == base.size + 2
        extras = ids[base.size:]
        # recompute the expected top 2 from scratch
        q = query(model, head, relation)
        scores = model.entity_table @ q
        known = train_tails.get((head, relation), set())
        allowed = [e for e in range(kg.num_entities()) if e not in known]
        ranked = sorted(allowed, key=lambda e: (-scores[e], e))
        np.testing.assert_array_equal(extras, ranked[:2])
        assert tail not in extras


def test_topk_rows_in_chunks_match_one_block(monkeypatch):
    """Scoring, masking and selecting a few rows at a time changes no id.
    Dyadic tables make every score exact, so the tie-breaking is what gets
    compared, whatever rows a chunk's product holds."""
    assert TOPK_CELL_BUDGET // 2048 >= 256  # a B=256 batch over 2,048 entities is one pass
    spec = SyntheticKGSpec(block_count=3, entities_per_block=6, relation_count=2, seed=4)
    kg = generate_knowledge_graph(spec)
    idx = build_structure_index(kg)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=3)
    rng = np.random.default_rng(8)
    model.entity_table[...] = rng.integers(-2, 3, size=model.entity_table.shape) / 8
    model.relation_table[...] = rng.integers(-2, 3, size=model.relation_table.shape) / 8
    batch = make_batches(kg, batch_size=20, seed=5)[0]
    whole = assemble_training_negatives(batch, model, kg, idx, 4, seed=6, mode="hasa_plus")
    calls = []
    select = kgcl.sampling._select_topk

    def counted(scores, known, k):
        calls.append(len(known))
        return select(scores, known, k)

    monkeypatch.setattr(kgcl.sampling, "_select_topk", counted)
    for rows in (1, 3, 7):
        monkeypatch.setattr(kgcl.sampling, "TOPK_CELL_BUDGET", rows * kg.num_entities())
        calls.clear()
        chunked = assemble_training_negatives(batch, model, kg, idx, 4, seed=6, mode="hasa_plus")
        assert calls == [min(rows, len(batch) - at) for at in range(0, len(batch), rows)]
        for block in ("hard_and_batch_negatives", "structure_samples", "negative_contexts"):
            np.testing.assert_array_equal(getattr(chunked, block), getattr(whole, block))


def test_hasa_mode_draws_structure_samples_from_the_hop_ring():
    kg = chain_kg(8)
    idx = build_structure_index(kg)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=2)
    batch = make_batches(kg, batch_size=4, seed=1)[0]
    out = assemble_training_negatives(batch, model, kg, idx, 6, seed=3, mode="hasa")
    for i, (head, _, _) in enumerate(batch.tolist()):
        support = set(alpha_distribution(idx, head).support.tolist())
        draws = filled(out.structure_samples[i])
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
            filled(out.negative_contexts[i]), [j for j in range(len(batch)) if j != i])


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
        hard_and_batch_negatives=np.array([[0, 1, 2, -1, -1], [0, 1, 2, 3, 4]]),
        structure_samples=np.zeros((2, 0), dtype=np.int64),
        negative_contexts=np.zeros((2, 0), dtype=np.int64))
    assert nsb.mean_negative_count() == 4.0
    empty = np.zeros((0, 0), dtype=np.int64)
    assert NegativeSampleBatch(empty, empty, empty).mean_negative_count() == 0.0


# ---------------------------------------------------------------------------
# retain/missing split


def test_split_retain_missing_sizes_and_order():
    listed = [(i, i % 3, i + 1) for i in range(10)]
    triples = triple_rows(*listed)
    for seed, fraction, n_missing in ((4, 0.3, 3), (0, 0.5, 5), (7, 0.04, 0)):
        retain, missing = split_retain_missing(triples, fraction, seed=seed)
        assert retain.shape == (10 - n_missing, 3) and missing.shape == (n_missing, 3)
        # the first round(fraction * n) positions of the seeded permutation
        # are missing, and both halves keep the input order
        hidden = set(np.random.default_rng(seed).permutation(10)[:n_missing].tolist())
        assert [tuple(t) for t in retain.tolist()] == [
            t for i, t in enumerate(listed) if i not in hidden]
        assert [tuple(t) for t in missing.tolist()] == [
            t for i, t in enumerate(listed) if i in hidden]


def test_split_retain_missing_is_seeded():
    triples = triple_rows(*[(i, 0, i + 1) for i in range(20)])
    a, b, c = ([half.tolist() for half in split_retain_missing(triples, 0.25, seed=seed)]
               for seed in (1, 1, 2))
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


def cap3_report(true_row, false_row):
    """A cap-3 report: columns 0, 1, 2 hops and the overflow column."""
    return FalseNegReport(
        sampler="simple",
        removal_fraction=0.2,
        distance_cap=3,
        counts=[(7, "simple", 4), (15, "simple", 9)],
        histogram=np.array([true_row, false_row], dtype=np.int64),
    )


def test_report_arithmetic():
    report = cap3_report(true_row=[0, 0, 5, 5], false_row=[0, 6, 0, 2])
    assert report.false_count(7) == 4
    assert report.false_count(15) == 9
    with pytest.raises(KeyError):
        report.false_count(31)
    assert report.total_sampled == {"true": 10, "false": 8}
    np.testing.assert_allclose(report.mean_distance("false"), (6 * 1 + 2 * 3) / 8.0)
    np.testing.assert_allclose(report.mean_distance("true"), (5 * 2 + 5 * 3) / 10.0)
    np.testing.assert_allclose(report.fraction_within("false", 2), 6 / 8.0)
    np.testing.assert_allclose(report.fraction_within("true", 2), 5 / 10.0)
    # at or beyond the cap the overflow column still never counts as near
    for d in (3, 4, 10):
        np.testing.assert_allclose(report.fraction_within("false", d), 6 / 8.0)
        np.testing.assert_allclose(report.fraction_within("true", d), 5 / 10.0)
    assert report.fraction_within("false", 0) == report.fraction_within("false", -1) == 0.0
    with pytest.raises(ValueError):
        report.mean_distance("other")
    with pytest.raises(ValueError):
        report.fraction_within("other", 2)
    empty = cap3_report(true_row=[1, 0, 0, 0], false_row=[0, 0, 0, 0])
    with pytest.raises(ValueError, match="no sampled negatives labeled 'false'"):
        empty.mean_distance("false")
    with pytest.raises(ValueError, match="no sampled negatives labeled 'false'"):
        empty.fraction_within("false", 2)


def test_mean_distance_counts_the_overflow_column_at_the_cap():
    report = cap3_report(true_row=[0, 0, 0, 4], false_row=[1, 0, 0, 3])
    assert report.mean_distance("true") == 3.0
    assert report.mean_distance("false") == (0 * 1 + 3 * 3) / 4.0


def test_reports_pool_by_adding_their_histograms():
    a = cap3_report(true_row=[2, 0, 1, 0], false_row=[0, 3, 0, 0])
    b = cap3_report(true_row=[0, 1, 0, 4], false_row=[0, 1, 2, 1])
    pooled = replace(a, histogram=a.histogram + b.histogram)
    # true: 2 at 0, 1 at 1, 1 at 2, 4 overflow; false: 4 at 1, 2 at 2, 1 overflow
    assert pooled.total_sampled == {"true": 8, "false": 7}
    assert pooled.mean_distance("true") == (0 * 2 + 1 * 1 + 2 * 1 + 3 * 4) / 8.0
    assert pooled.mean_distance("false") == (1 * 4 + 2 * 2 + 3 * 1) / 7.0
    assert pooled.fraction_within("true", 1) == 3 / 8.0
    assert pooled.fraction_within("false", 2) == 6 / 7.0


def planted_kg_and_seed():
    """A 3-triple graph and a seed whose retain/missing split hides exactly
    (a, r, d), so every simple-sampler draw for (a, r, b) is a known false
    negative and every draw for (c, r, d) is a true negative."""
    kg = KnowledgeGraph.from_string_triples(
        [("a", "r", "b"), ("c", "r", "d"), ("a", "r", "d")])
    target = kg.train[2].tolist()
    for seed in range(200):
        retain, missing = split_retain_missing(kg.train, 1.0 / 3.0, seed)
        if missing.tolist() == [target]:
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
    np.testing.assert_array_equal(report.histogram, [[0, 0, 0, 0, 0, 5], [0, 0, 0, 0, 0, 5]])


def test_experiment_distance_buckets_use_the_retained_graph():
    # chain a-b-c plus hidden (a, r, c): c sits at distance 2 from a
    kg = KnowledgeGraph.from_string_triples(
        [("a", "r", "b"), ("b", "r", "c"), ("a", "r", "c")])
    target = kg.train[2].tolist()
    seed = next(
        s for s in range(300)
        if split_retain_missing(kg.train, 1.0 / 3.0, s)[1].tolist() == [target])
    report = run_false_negative_experiment(
        kg, removal_fraction=1.0 / 3.0, sampler="simple", model=None,
        k_values=[4], seed=seed)
    assert report.histogram.shape == (2, 6)
    assert report.histogram[LABELS.index("false"), 2] > 0


def per_draw_counts(triples, k, sampler, model, hidden_facts, idx, cap, seed_key):
    """Reference for one experiment batch: the same draws, each labelled by
    set membership and placed by its own BFS from the head."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    rows = triples.tolist()
    heads = np.array([h for h, _, _ in rows])
    tails = np.array([t for _, _, t in rows])
    support = np.unique(np.concatenate([heads, tails]))
    counts = np.zeros((2, cap + 1), dtype=np.int64)
    for head, relation, tail in rows:
        if sampler == "simple":
            draws = in_batch_negative_sample(tails, tail, k, rng)
        else:
            cand = support[support != tail]
            if cand.size == 0:
                continue
            e_hr = query(model, head, relation)
            draws = hard_negative_softmax_sample(e_hr, cand, model, k, rng)
        dist = distances_within(idx, head, cap - 1)
        for neg in draws.tolist():
            hidden = (head, relation, neg) in hidden_facts
            counts[LABELS.index("false" if hidden else "true"), dist.get(neg, cap)] += 1
    return counts


@pytest.mark.parametrize("sampler", ["simple", "hard"])
@pytest.mark.parametrize("cap", [1, 2, 5])
def test_batch_counts_match_a_per_draw_loop(monkeypatch, sampler, cap):
    spec = SyntheticKGSpec(block_count=3, entities_per_block=8, relation_count=1,
                           intra_block_edge_probability=0.5,
                           inter_block_edge_probability=0.05, seed=4)
    kg = generate_knowledge_graph(spec)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=0,
                       init_scale=0.5)
    retain, missing = split_retain_missing(kg.train, 0.3, seed=2)
    hidden = {tuple(t) for t in missing.tolist()}
    idx = _index_from_triples(retain, kg.num_entities())
    batches = []
    batch_counts = kgcl.sampling._experiment_batch

    def recorded(*args):
        batches.append((args, batch_counts(*args)))
        return batches[-1][1]

    monkeypatch.setattr(kgcl.sampling, "_experiment_batch", recorded)
    report = run_false_negative_experiment(kg, 0.3, sampler, model, [3, 15], seed=2,
                                           distance_cap=cap)
    total = 0
    for (triples, k, *_, seed_key), counts in batches:
        np.testing.assert_array_equal(
            counts, per_draw_counts(triples, k, sampler, model, hidden, idx, cap, seed_key))
        total = total + counts
    np.testing.assert_array_equal(report.histogram, total)
    assert report.histogram[LABELS.index("false")].sum() > 0
    assert report.histogram[LABELS.index("true"), :cap].sum() > 0


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
    np.testing.assert_array_equal(a.histogram, b.histogram)
    np.testing.assert_array_equal(a.histogram, c.histogram)
    assert a.total_sampled["true"] + a.total_sampled["false"] == a.histogram.sum()


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
    # a cap of 0 used to file draws at the head under "0", a bucket the
    # histogram CSV never writes
    with pytest.raises(ValueError, match="distance_cap"):
        run_false_negative_experiment(kg, 0.2, "simple", None, [3], seed=0, distance_cap=0)
    # no triple to label would report zero false negatives at every K
    for max_triples in (0, -2):
        with pytest.raises(ValueError, match="max_triples must be >= 1"):
            run_false_negative_experiment(kg, 0.2, "simple", None, [3], seed=0,
                                          max_triples=max_triples)


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
