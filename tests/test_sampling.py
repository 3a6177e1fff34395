"""Negative samplers, their distributions, and the false-negative counting
experiment."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgcl.graph
import kgcl.sampling
from kgcl.data import KnowledgeGraph, make_batches
from kgcl.graph import (
    _index_from_triples,
    alpha_distribution,
    build_structure_index,
)
from kgcl.model import aggregate_batch, init_model
from kgcl.sampling import (
    LABELS,
    CELL_BUDGET,
    FalseNegReport,
    NegativeSampleBatch,
    TrainingDiverged,
    _select_topk,
    assemble_training_negatives,
    bucket_labels,
    draw_in_batch_negatives,
    draw_softmax_negatives,
    run_false_negative_experiment,
    split_retain_missing,
    write_false_negative_counts,
    write_false_negative_histogram,
)
from kgcl.synthetic import SyntheticKGSpec, generate_knowledge_graph
from support import (
    bfs_distances,
    fraction_within,
    hard_negative_softmax_sample,
    in_batch_negative_sample,
    mean_distance,
    query,
    tails_by_query,
    triple_rows,
)


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
    # a block of no rows lacks no candidates, however few columns it has
    assert _select_topk(np.zeros((0, 2)), np.zeros((0, 2), dtype=bool), 3).shape == (0, 3)


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


def refused_rows(scores, known, k):
    """The rows whose top-k is refused: for k >= 1, an unmarked NaN, or under
    k unmarked numbers above -inf."""
    free = ~known
    nan = (np.isnan(scores) & free).any(axis=1)
    return (nan | (np.count_nonzero((scores > -np.inf) & free, axis=1) < k)) & (k > 0)


@pytest.mark.parametrize("k", [0, 1, 3, 9])
def test_batched_topk_matches_a_per_row_lexsort(k):
    """Rows of numbers, +inf and +-0.0 get the reference's picks; a row that
    picks a NaN or reaches a -inf pick refuses its block, wherever it sits."""
    rng = np.random.default_rng(k)
    # NaN comes with either sign bit
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0])
    refusals = 0
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
        refused = refused_rows(scores, known, k)
        # rows 1 (NaN of either sign) and 3 (all -inf) refuse; row 2 (all +inf) does not
        assert refused[[1, 3]].tolist() == [k > 0] * 2 and not refused[2]
        picked = _select_topk(scores[~refused], known[~refused], k)
        np.testing.assert_array_equal(picked, lexsort_topk(scores[~refused], known[~refused], k))
        assert picked.shape == (np.count_nonzero(~refused), k) and picked.dtype == np.int64
        assert not np.take_along_axis(known[~refused], picked, axis=1).any()
        for row in np.flatnonzero(refused):
            refusals += 1
            message = f"1 of 1 rows pick NaN or -inf in their top-{k}"
            with pytest.raises(TrainingDiverged, match=message):
                _select_topk(scores[[row]], known[[row]], k)
        if k:
            with pytest.raises(TrainingDiverged, match=f"{refused.sum()} of 7 rows"):
                _select_topk(scores.copy(), known, k)
            known[4, :] = True
            known[4, : k - 1] = False
            with pytest.raises(ValueError, match=f"top-{k} requested but only {k - 1} candidates"):
                _select_topk(scores, known, k)
            with pytest.raises(ValueError):
                lexsort_topk(scores, known, k)
    assert refusals > 80 if k else refusals == 0


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
    picked = _select_topk(scores.copy(), known, k)
    np.testing.assert_array_equal(picked, lexsort_topk(scores, known, k))
    assert picked.shape == (rows, k) and picked.dtype == np.int64
    assert not np.take_along_axis(known, picked, axis=1).any()


@pytest.mark.parametrize("row, known_row, k", [
    # argmax picks the NaN first; after 2.0 the two -inf picks land on its column
    ([np.nan, -np.inf, -np.inf, 2.0], [False] * 4, 4),
    # one number above -inf; the -inf picks would land on the known columns
    ([5.0, 1.0, -np.inf, 0.5, -np.inf], [True, True, False, False, False], 3),
])
def test_a_row_that_picks_nan_or_minus_inf_refuses_the_block(row, known_row, k):
    # a finite row above the odd one keeps its picks when alone
    finite = np.arange(len(row), dtype=np.float64)
    scores = np.array([finite, row])
    known = np.array([[False] * len(row), known_row])
    assert refused_rows(scores, known, k).tolist() == [False, True]
    np.testing.assert_array_equal(_select_topk(scores[:1].copy(), known[:1], k),
                                  lexsort_topk(scores[:1], known[:1], k))
    with pytest.raises(TrainingDiverged, match=f"1 of 2 rows pick NaN or -inf in their top-{k}"):
        _select_topk(scores.copy(), known, k)


def test_a_finite_product_sized_block_is_never_refused_and_matches_lexsort():
    rng = np.random.default_rng(24)
    # 256 x 2,048 at k 3, as a mid step scores: multiples of 1/64 plant exact
    # ties, and a fifth of the zeros are -0.0
    scores = rng.integers(-64, 65, size=(256, 2048)) / 64.0
    scores[(scores == 0) & (rng.random(scores.shape) < 0.2)] = -0.0
    # some rows tie at their top score across several columns
    scores[::7, rng.choice(2048, size=5, replace=False)] = 1.0
    known = rng.random(scores.shape) < 0.01
    assert np.signbit(scores[scores == 0]).any() and np.isfinite(scores).all()
    picked = _select_topk(scores.copy(), known, 3)
    np.testing.assert_array_equal(picked, lexsort_topk(scores, known, 3))


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
    # the own tail 0 leaves candidates 1, 2, 3 of the support
    draws = draw_softmax_negatives(model, q[None], np.arange(4), np.array([0]), 60000,
                                   np.random.default_rng(11))[0]
    freq = np.array([(draws == c).mean() for c in candidates])
    tv = 0.5 * np.abs(freq - expected).sum()
    assert tv < 0.02


def test_hard_softmax_sample_is_seeded():
    model = init_model(4, 1, 2, kind="sum", seed=3)
    q = query(model, 0, 0)

    def draw(seed):
        return draw_softmax_negatives(model, q[None], np.arange(4), np.array([2]), 16,
                                      np.random.default_rng(seed))

    a, b, c = draw(5), draw(5), draw(6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert 2 not in a
    with pytest.raises(ValueError, match="not finite"):
        draw_softmax_negatives(model, np.full((1, 2), np.nan), np.arange(4), np.array([2]), 4,
                               np.random.default_rng(0))


def test_in_batch_sample_excludes_own_tail_and_draws_nothing_from_an_empty_pool():
    tails = np.array([4, 7, 4, 9], dtype=np.int64)
    draws = draw_in_batch_negatives(tails, 50, np.random.default_rng(2))
    assert draws.shape == (4, 50) and set(draws[0].tolist()) <= {7, 9}
    rng = np.random.default_rng(3)
    np.testing.assert_array_equal(draw_in_batch_negatives(np.array([4, 4]), 5, rng), -1)
    # the empty pool consumed no randomness
    assert rng.integers(1 << 30) == np.random.default_rng(3).integers(1 << 30)


@pytest.mark.parametrize("k", [1, 4, 31])
def test_batched_in_batch_draws_match_a_per_row_choice_loop(k):
    """One batched draw gives the ids, in the same stream, of one
    rng.choice(pool, k) per row, and a row whose every tail is its own (an
    empty pool) draws nothing and consumes nothing."""
    case_rng = np.random.default_rng(70 + k)
    for _ in range(40):
        size = int(case_rng.integers(1, 24))
        tails = case_rng.integers(0, int(case_rng.integers(1, 6)), size=size)
        seed = int(case_rng.integers(2**32))
        batched_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = draw_in_batch_negatives(tails, k, batched_rng)
        expect = np.full((size, k), -1)
        for i, tail in enumerate(tails.tolist()):
            draws = in_batch_negative_sample(tails, tail, k, loop_rng)
            if draws.size:
                expect[i] = draws
        np.testing.assert_array_equal(got, expect)
        assert batched_rng.random() == loop_rng.random()
    # a batch of one repeated tail has only empty pools
    rng = np.random.default_rng(1)
    assert (draw_in_batch_negatives(np.array([3, 3, 3]), k, rng) == -1).all()
    assert rng.random() == np.random.default_rng(1).random()


@pytest.mark.parametrize("kind, budget", [("sum", CELL_BUDGET), ("gru", CELL_BUDGET), ("gru", 1)])
def test_batched_softmax_draws_match_a_per_row_choice_loop(monkeypatch, kind, budget):
    """One batched draw gives the ids, in the same stream, of one
    rng.choice(candidates, k, p=softmax) per row over the support without
    the row's own tail, also when each row's comparisons are a chunk of
    their own; a support of one entity draws nothing and consumes nothing."""
    monkeypatch.setattr(kgcl.sampling, "CELL_BUDGET", budget)
    case_rng = np.random.default_rng(91)
    model = init_model(40, 3, 8, kind=kind, seed=5, init_scale=1.5)
    for _ in range(40):
        size = int(case_rng.integers(1, 20))
        heads = case_rng.integers(0, 40, size=size)
        rels = case_rng.integers(0, 3, size=size)
        tails = case_rng.integers(0, int(case_rng.integers(1, 40)), size=size)
        k = int(case_rng.integers(1, 40))
        support = np.unique(np.concatenate([heads, tails]))
        queries, _ = aggregate_batch(model, heads, rels)
        seed = int(case_rng.integers(2**32))
        batched_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = draw_softmax_negatives(model, queries, support, tails, k, batched_rng)
        expect = np.stack([
            hard_negative_softmax_sample(queries[i], support[support != tail], model, k, loop_rng)
            for i, tail in enumerate(tails.tolist())
        ])
        np.testing.assert_array_equal(got, expect)
        assert batched_rng.random() == loop_rng.random()
    # a batch whose heads and tails are all one entity
    rng = np.random.default_rng(2)
    one = np.array([7, 7])
    queries, _ = aggregate_batch(model, one, np.array([0, 1]))
    got = draw_softmax_negatives(model, queries, np.array([7]), one, 5, rng)
    np.testing.assert_array_equal(got, np.full((2, 5), -1))
    assert rng.random() == np.random.default_rng(2).random()


# ---------------------------------------------------------------------------
# training negative assembly


def test_simple_mode_uses_batch_slots_minus_own_tail():
    kg = chain_kg(6)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=0)
    (batch,) = make_batches(kg, batch_size=5, seed=2)
    out = assemble_training_negatives(batch, model, kg, None, 0, seed=9, mode="simple", hard_k=3)
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
        a = assemble_training_negatives(batch, model, kg, None, 0, seed=1, mode=mode, hard_k=3)
        b = assemble_training_negatives(batch, model, kg, None, 0, seed=99, mode=mode, hard_k=3)
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
    assert CELL_BUDGET // 2048 >= 256  # a B=256 batch over 2,048 entities is one pass
    spec = SyntheticKGSpec(block_count=3, entities_per_block=6, relation_count=2, seed=4)
    kg = generate_knowledge_graph(spec)
    idx = build_structure_index(kg)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=3)
    rng = np.random.default_rng(8)
    model.entity_table[...] = rng.integers(-2, 3, size=model.entity_table.shape) / 8
    model.relation_table[...] = rng.integers(-2, 3, size=model.relation_table.shape) / 8
    batch = make_batches(kg, batch_size=20, seed=5)[0]
    whole = assemble_training_negatives(batch, model, kg, idx, 4, seed=6,
                                        mode="hasa_plus", hard_k=3)
    calls = []
    select = kgcl.sampling._select_topk

    def counted(scores, known, k):
        calls.append(len(known))
        return select(scores, known, k)

    monkeypatch.setattr(kgcl.sampling, "_select_topk", counted)
    for rows in (1, 3, 7):
        monkeypatch.setattr(kgcl.sampling, "CELL_BUDGET", rows * kg.num_entities())
        calls.clear()
        chunked = assemble_training_negatives(batch, model, kg, idx, 4, seed=6,
                                              mode="hasa_plus", hard_k=3)
        assert calls == [min(rows, len(batch) - at) for at in range(0, len(batch), rows)]
        for block in ("hard_and_batch_negatives", "structure_samples", "negative_contexts"):
            np.testing.assert_array_equal(getattr(chunked, block), getattr(whole, block))


def test_hasa_mode_draws_structure_samples_from_the_hop_ring():
    kg = chain_kg(8)
    idx = build_structure_index(kg)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=2)
    batch = make_batches(kg, batch_size=4, seed=1)[0]
    out = assemble_training_negatives(batch, model, kg, idx, 6, seed=3, mode="hasa", hard_k=3)
    for i, (head, _, _) in enumerate(batch.tolist()):
        support = set(alpha_distribution(idx, head).support.tolist())
        draws = filled(out.structure_samples[i])
        assert draws.size == 6
        assert set(draws.tolist()) <= support
    again = assemble_training_negatives(batch, model, kg, idx, 6, seed=3, mode="hasa", hard_k=3)
    other = assemble_training_negatives(batch, model, kg, idx, 6, seed=4, mode="hasa", hard_k=3)
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
    out = assemble_training_negatives(batch, model, kg, idx, 2, seed=0, mode="hasa_plus", hard_k=3)
    for i in range(len(batch)):
        np.testing.assert_array_equal(
            filled(out.negative_contexts[i]), [j for j in range(len(batch)) if j != i])


def test_assembly_validates_mode_and_index():
    kg = chain_kg(5)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=0)
    (batch,) = make_batches(kg, batch_size=4, seed=1)
    with pytest.raises(ValueError):
        assemble_training_negatives(batch, model, kg, None, 0, seed=0, mode="weird", hard_k=3)
    with pytest.raises(ValueError):
        assemble_training_negatives(batch, model, kg, None, 2, seed=0, mode="hasa", hard_k=3)


def test_mean_negative_count():
    nsb = NegativeSampleBatch(
        hard_and_batch_negatives=np.array([[0, 1, 2, -1, -1], [0, 1, 2, 3, 4]]),
        structure_samples=np.zeros((2, 0), dtype=np.int64),
        negative_contexts=np.zeros((2, 0), dtype=np.int64))
    assert nsb.mean_negative_count() == 4.0
    empty = np.zeros((0, 0), dtype=np.int64)
    assert NegativeSampleBatch(empty, empty, empty).mean_negative_count() == 0.0
    no_rows = np.zeros((0, 5), dtype=np.int64)
    assert NegativeSampleBatch(no_rows, empty, empty).mean_negative_count() == 0.0


def test_mean_negative_count_equals_the_mean_of_the_row_counts():
    # ragged rows, each emptied at its own random rate and the first wholly:
    # the flat count over the block gives the per-row mean's float exactly
    rng = np.random.default_rng(17)
    for rows in (1, 3, 7, 256):
        block = rng.integers(0, 50, size=(rows, 13))
        block[rng.random(block.shape) < rng.random((rows, 1))] = -1
        block[0] = -1
        nsb = NegativeSampleBatch(block, np.zeros((rows, 0), dtype=np.int64),
                                  np.zeros((rows, 0), dtype=np.int64))
        got = nsb.mean_negative_count()
        assert type(got) is float
        assert got == float(np.count_nonzero(block >= 0, axis=1).mean())


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
    assert report.total_sampled == {"true": 10, "false": 8}
    np.testing.assert_allclose(mean_distance(report, "false"), (6 * 1 + 2 * 3) / 8.0)
    np.testing.assert_allclose(mean_distance(report, "true"), (5 * 2 + 5 * 3) / 10.0)
    np.testing.assert_allclose(fraction_within(report, "false", 2), 6 / 8.0)
    np.testing.assert_allclose(fraction_within(report, "true", 2), 5 / 10.0)
    # at or beyond the cap the overflow column still never counts as near
    for d in (3, 4, 10):
        np.testing.assert_allclose(fraction_within(report, "false", d), 6 / 8.0)
        np.testing.assert_allclose(fraction_within(report, "true", d), 5 / 10.0)
    assert fraction_within(report, "false", 0) == fraction_within(report, "false", -1) == 0.0
    with pytest.raises(ValueError):
        mean_distance(report, "other")
    with pytest.raises(ValueError):
        fraction_within(report, "other", 2)
    empty = cap3_report(true_row=[1, 0, 0, 0], false_row=[0, 0, 0, 0])
    with pytest.raises(ValueError, match="no sampled negatives labeled 'false'"):
        mean_distance(empty, "false")
    with pytest.raises(ValueError, match="no sampled negatives labeled 'false'"):
        fraction_within(empty, "false", 2)


def test_mean_distance_counts_the_overflow_column_at_the_cap():
    report = cap3_report(true_row=[0, 0, 0, 4], false_row=[1, 0, 0, 3])
    assert mean_distance(report, "true") == 3.0
    assert mean_distance(report, "false") == (0 * 1 + 3 * 3) / 4.0


def test_reports_pool_by_adding_their_histograms():
    a = cap3_report(true_row=[2, 0, 1, 0], false_row=[0, 3, 0, 0])
    b = cap3_report(true_row=[0, 1, 0, 4], false_row=[0, 1, 2, 1])
    pooled = replace(a, histogram=a.histogram + b.histogram)
    # true: 2 at 0, 1 at 1, 1 at 2, 4 overflow; false: 4 at 1, 2 at 2, 1 overflow
    assert pooled.total_sampled == {"true": 8, "false": 7}
    assert mean_distance(pooled, "true") == (0 * 2 + 1 * 1 + 2 * 1 + 3 * 4) / 8.0
    assert mean_distance(pooled, "false") == (1 * 4 + 2 * 2 + 3 * 1) / 7.0
    assert fraction_within(pooled, "true", 1) == 3 / 8.0
    assert fraction_within(pooled, "false", 2) == 6 / 7.0


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
    assert report.counts == [(5, "simple", 5)]
    assert report.total_sampled == {"false": 5, "true": 5}
    # the retained graph has edges a-b and c-d only, so both sampled
    # entities are unreachable from the query head
    np.testing.assert_array_equal(report.histogram, [[0, 0, 0, 0, 0, 5], [0, 0, 0, 0, 0, 5]])


@pytest.mark.parametrize("sampler", ["simple", "hard"])
def test_a_study_with_nothing_hidden_labels_every_draw_true(sampler):
    kg = chain_kg(12)
    # round(0.04 * 11) hides no fact
    assert split_retain_missing(kg.train, 0.04, 0)[1].size == 0
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=1)
    report = run_false_negative_experiment(kg, 0.04, sampler, model, [3, 7], seed=0)
    assert [count for _, _, count in report.counts] == [0, 0]
    assert not report.histogram[LABELS.index("false")].any()
    assert report.total_sampled["true"] == report.histogram.sum() > 0


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


def test_a_cap_beyond_the_int8_hop_range_files_far_draws_in_its_last_column():
    # on 12 entities the hop table fits int8, while the overflow column 300
    # does not
    kg = chain_kg(12)
    report = run_false_negative_experiment(kg, 0.25, "simple", None, [5], seed=3,
                                           distance_cap=300)
    # no path is longer than 11 hops, so column 12 holds the unreachable draws
    near = run_false_negative_experiment(kg, 0.25, "simple", None, [5], seed=3,
                                         distance_cap=12)
    assert report.histogram.shape == (2, 301)
    np.testing.assert_array_equal(report.histogram[:, :12], near.histogram[:, :12])
    np.testing.assert_array_equal(report.histogram[:, 300], near.histogram[:, 12])
    assert not report.histogram[:, 12:300].any()


def per_draw_counts(triples, k, sampler, model, hidden_facts, idx, cap, seed_key, kg):
    """Reference for one experiment batch: the same draws as fact keys
    (h * R + r) * N + t in row order, and their (2 x cap + 1) counts, each
    draw labelled by set membership and placed by its own BFS from the head."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    rows = triples.tolist()
    heads = np.array([h for h, _, _ in rows])
    tails = np.array([t for _, _, t in rows])
    support = np.unique(np.concatenate([heads, tails]))
    facts = []
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
        dist = bfs_distances(idx, head, cap - 1)
        for neg in draws.tolist():
            facts.append((head * kg.num_relations() + relation) * kg.num_entities() + neg)
            hidden = (head, relation, neg) in hidden_facts
            counts[LABELS.index("false" if hidden else "true"), dist.get(neg, cap)] += 1
    return np.array(facts, dtype=np.int64), counts


@pytest.mark.parametrize("sampler", ["simple", "hard"])
@pytest.mark.parametrize("cap", [1, 2, 5])
def test_batch_counts_match_a_per_draw_loop(monkeypatch, sampler, cap):
    """Each batch's fact keys equal the per-draw loop's draws, and the
    report's counts and histogram equal the loop's counts summed."""
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
    batch_draws = kgcl.sampling._experiment_batch

    def recorded(*args):
        batches.append((args, batch_draws(*args)))
        return batches[-1][1]

    monkeypatch.setattr(kgcl.sampling, "_experiment_batch", recorded)
    report = run_false_negative_experiment(kg, 0.3, sampler, model, [3, 15], seed=2,
                                           distance_cap=cap)
    total, false_by_k = 0, {3: 0, 15: 0}
    for (triples, k, *_, seed_key), facts in batches:
        want_facts, counts = per_draw_counts(triples, k, sampler, model, hidden, idx, cap,
                                             seed_key, kg)
        np.testing.assert_array_equal(facts, want_facts)
        assert facts.dtype == np.int64
        total = total + counts
        false_by_k[k] += int(counts[LABELS.index("false")].sum())
    np.testing.assert_array_equal(report.histogram, total)
    assert report.counts == [(k, sampler, false_by_k[k]) for k in (3, 15)]
    assert report.histogram[LABELS.index("false")].sum() > 0
    assert report.histogram[LABELS.index("true"), :cap].sum() > 0


@pytest.mark.parametrize("sampler", ["simple", "hard"])
def test_an_empty_retained_split_gives_zero_counts_and_a_zero_histogram(sampler):
    kg = KnowledgeGraph.from_string_triples([("a", "r", "b")])
    # round(0.6 * 1) hides the one fact
    assert split_retain_missing(kg.train, 0.6, 0)[0].size == 0
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=1)
    report = run_false_negative_experiment(kg, 0.6, sampler, model, [3, 7], seed=0,
                                           distance_cap=4)
    assert report.counts == [(3, sampler, 0), (7, sampler, 0)]
    np.testing.assert_array_equal(report.histogram, np.zeros((2, 5), dtype=np.int64))
    assert report.histogram.dtype == np.int64


@pytest.mark.parametrize("sampler", ["simple", "hard"])
@pytest.mark.parametrize("cap", [1, 3, 5])
def test_the_report_is_unchanged_with_one_source_per_hop_block(monkeypatch, sampler, cap):
    spec = SyntheticKGSpec(block_count=4, entities_per_block=10, relation_count=2,
                           intra_block_edge_probability=0.3,
                           inter_block_edge_probability=0.03, seed=6)
    kg = generate_knowledge_graph(spec)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum", seed=0,
                       init_scale=0.5)
    args = (kg, 0.3, sampler, model, [3, 7, 15], 5)
    whole = run_false_negative_experiment(*args, distance_cap=cap)
    monkeypatch.setattr(kgcl.graph, "HOP_BLOCK_CELLS", 1)
    blocked = run_false_negative_experiment(*args, distance_cap=cap)
    assert blocked.counts == whole.counts
    np.testing.assert_array_equal(blocked.histogram, whole.histogram)
    assert whole.histogram[:, 1:cap].sum() > 0 or cap == 1


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


def test_experiment_rejects_duplicate_k_values():
    # two rows for one K used to report contradictory counts
    kg = chain_kg(12)
    with pytest.raises(ValueError, match="distinct"):
        run_false_negative_experiment(kg, 0.3, "simple", None, [7, 7], seed=0)
    with pytest.raises(ValueError, match="distinct"):
        run_false_negative_experiment(kg, 0.3, "simple", None, [3, 7, 3], seed=0)


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
