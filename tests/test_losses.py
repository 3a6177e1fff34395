"""Loss values against independent scalar oracles, plus gradient checks.

The oracles below re-implement every loss formula in plain Python over
floats and lists, with no stabilization tricks and no shared code with the
library. Library results must match them to 1e-12 on well-scaled inputs.
The batched core must also match its earlier, allocating form
(support.contrastive_oracle) bit for bit.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fdcheck import loss_grad_rel_err
from kgcl.graph import build_structure_index
from kgcl.losses import (
    LossConfig,
    _log_estimate,
    _log_mass,
    _score,
    hard_infonce,
    hasa_loss,
    hasa_plus_loss,
    simple_infonce,
)
from kgcl.model import GradientTape, init_model
from kgcl.sampling import NegativeSampleBatch, assemble_training_negatives
from kgcl.synthetic import SyntheticKGSpec, generate_knowledge_graph
from kgcl.training import make_batches
from support import contrastive_oracle, grad_row, query, sum_model, triple_rows


# ---------------------------------------------------------------------------
# oracles


def oracle_infonce(s_pos, neg_scores):
    return math.log(math.exp(s_pos) + sum(math.exp(s) for s in neg_scores)) - s_pos


def oracle_self_normalized(scores):
    return sum(math.exp(2 * s) for s in scores) / sum(math.exp(s) for s in scores)


def oracle_mean_exp(scores):
    return sum(math.exp(s) for s in scores) / len(scores)


def oracle_raw_mass(neg_scores, struct_scores, cfg):
    k = len(neg_scores)
    if cfg.debias_variant == "eq7":
        neg = oracle_self_normalized(neg_scores)
        false = oracle_self_normalized(struct_scores) if struct_scores else 0.0
        return k * (neg - cfg.tau * false) / (1.0 - cfg.tau)
    neg = oracle_mean_exp(neg_scores)
    false = oracle_mean_exp(struct_scores) if struct_scores else 0.0
    return k * (neg / (1.0 - cfg.tau) - cfg.tau * false)


def oracle_neg_mass(neg_scores, struct_scores, cfg):
    return max(oracle_raw_mass(neg_scores, struct_scores, cfg),
               len(neg_scores) * cfg.floor_epsilon)


def oracle_hasa(s_pos, neg_scores, struct_scores, cfg):
    mass = oracle_neg_mass(neg_scores, struct_scores, cfg)
    return math.log(math.exp(s_pos) + mass) - s_pos


def oracle_context_term(s_pos, ctx_scores):
    if not ctx_scores:
        return 0.0
    return math.log(math.exp(s_pos) + sum(math.exp(s) for s in ctx_scores)) - s_pos


# ---------------------------------------------------------------------------
# the loss's row estimators, called on a single row


def log_estimate(scores, variant):
    """log E[exp(s)]: the row estimate carries the count K, so less log K.
    The estimator writes its derivatives over its block, so it gets a copy."""
    scores = np.array(scores, dtype=np.float64)
    return float(_log_estimate(scores[None, :], variant)[0][0]) - math.log(scores.size)


def self_normalized_exp_estimate(scores):
    return math.exp(log_estimate(scores, "eq7"))


def mean_exp_estimate(scores):
    return math.exp(log_estimate(scores, "alg1"))


def log_debiased_mass(neg_scores, structure_scores, cfg):
    # copies, since the mass writes its derivatives over its blocks
    sigma = np.array(neg_scores, dtype=np.float64)[None, :]
    rho = np.array(structure_scores, dtype=np.float64)[None, :]
    knobs = (cfg.tau, cfg.debias_variant, cfg.floor_epsilon)
    return float(_log_mass(sigma, rho, *knobs)[0][0])


# ---------------------------------------------------------------------------
# instance construction helpers


def block(lists):
    """Ragged id lists as one int64 block, each row padded with -1."""
    out = np.full((len(lists), max(map(len, lists), default=0)), -1, dtype=np.int64)
    for row, ids in zip(out, lists):
        row[:len(ids)] = ids
    return out


def filled(row):
    return row[row >= 0]


def neg_batch(neg_lists, struct_lists=None, ctx_lists=None):
    n = len(neg_lists)
    return NegativeSampleBatch(
        hard_and_batch_negatives=block(neg_lists),
        structure_samples=block(struct_lists if struct_lists is not None else [[]] * n),
        negative_contexts=block(ctx_lists if ctx_lists is not None else [[]] * n),
    )


def random_instance(rng, kind="sum", dim=4, n_entities=12, n_relations=3,
                    n_triples=3, k_neg=4, m_struct=2, with_ctx=False):
    model = init_model(n_entities, n_relations, dim, kind=kind,
                       seed=int(rng.integers(2**31)), init_scale=0.5)
    triples = [
        (int(rng.integers(n_entities)), int(rng.integers(n_relations)),
         int(rng.integers(n_entities)))
        for _ in range(n_triples)
    ]
    negs, structs, ctxs = [], [], []
    for i, (_, _, tail) in enumerate(triples):
        pool = np.setdiff1d(np.arange(n_entities), [tail])
        negs.append(rng.choice(pool, size=k_neg, replace=True).astype(np.int64))
        if m_struct:
            structs.append(rng.integers(0, n_entities, size=m_struct).astype(np.int64))
        else:
            structs.append(np.zeros(0, dtype=np.int64))
        if with_ctx:
            ctxs.append(np.array([j for j in range(n_triples) if j != i], dtype=np.int64))
        else:
            ctxs.append(np.zeros(0, dtype=np.int64))
    return model, triple_rows(*triples), neg_batch(negs, structs, ctxs)


def instance_scores(model, batch, negatives):
    """Score lists per triple, computed with plain dot products."""
    rows = []
    for i, (head, relation, tail) in enumerate(batch.tolist()):
        q = query(model, head, relation)
        s_pos = float(q @ model.entity_table[tail])
        neg_ids = filled(negatives.hard_and_batch_negatives[i])
        sigma = [float(q @ model.entity_table[j]) for j in neg_ids]
        rho = [float(q @ model.entity_table[j]) for j in filled(negatives.structure_samples[i])]
        rows.append((s_pos, sigma, rho, q))
    return rows


# ---------------------------------------------------------------------------
# InfoNCE values


@pytest.mark.parametrize("k", [1, 4, 31])
def test_equal_scores_loss_is_log_k_plus_one(k):
    # all embeddings zero, so every score is 0 and the softmax is uniform
    model = sum_model(np.zeros((4, 3)))
    batch = triple_rows((0, 0, 1))
    negatives = neg_batch([[2] * k])
    out = simple_infonce(batch, negatives, model)
    assert abs(out.loss - math.log(k + 1)) < 1e-12


def test_single_negative_closed_form():
    # s+ = 1 and sigma = 0 give loss log(1 + exp(-1))
    model = sum_model([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    batch = triple_rows((0, 0, 1))
    out = simple_infonce(batch, neg_batch([[2]]), model)
    assert abs(out.loss - math.log(1.0 + math.exp(-1.0))) < 1e-12


def test_infonce_matches_scalar_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(10):
        model, batch, negatives = random_instance(rng, n_triples=4, k_neg=3, m_struct=0)
        expected = sum(
            oracle_infonce(s_pos, sigma)
            for s_pos, sigma, _, _ in instance_scores(model, batch, negatives)
        )
        out = simple_infonce(batch, negatives, model)
        np.testing.assert_allclose(out.loss, expected, rtol=1e-12)


def test_hard_equals_simple_with_identical_negatives():
    rng = np.random.default_rng(3)
    model, batch, negatives = random_instance(rng, n_triples=3, m_struct=0)
    a = simple_infonce(batch, negatives, model)
    b = hard_infonce(batch, negatives, model)
    assert a.loss == b.loss


def test_higher_scoring_negatives_raise_the_loss():
    # entity 2 scores 0 against the query, entity 3 scores 2
    model = sum_model([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    batch = triple_rows((0, 0, 1))
    low = simple_infonce(batch, neg_batch([[2]]), model).loss
    high = hard_infonce(batch, neg_batch([[3]]), model).loss
    assert high > low


def test_triple_without_negatives_contributes_nothing():
    model = sum_model(np.arange(8.0).reshape(4, 2))
    batch = triple_rows((0, 0, 1), (2, 0, 3))
    negatives = neg_batch([[2], []])
    tape = GradientTape(model)
    out = simple_infonce(batch, negatives, model, tape)
    solo = simple_infonce(triple_rows((0, 0, 1)), neg_batch([[2]]), model)
    np.testing.assert_allclose(out.loss, solo.loss, rtol=1e-15)
    # the skipped triple's rows stay off the tape
    ids, _ = tape.entity_rows()
    assert 3 not in ids.tolist()


def test_mismatched_negative_batch_raises():
    model = sum_model(np.zeros((4, 2)))
    batch = triple_rows((0, 0, 1), (1, 0, 2))
    with pytest.raises(ValueError):
        simple_infonce(batch, neg_batch([[2]]), model)
    with pytest.raises(ValueError, match="structure"):
        hasa_loss(batch, neg_batch([[2], [3]], struct_lists=[]), model, LossConfig())
    with pytest.raises(ValueError, match="contexts"):
        hasa_plus_loss(batch, neg_batch([[2], [3]], ctx_lists=[[1]]), model, LossConfig())


def test_loss_value_mean_and_diagnostics():
    model = sum_model([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    batch = triple_rows((0, 0, 1))
    out = simple_infonce(batch, neg_batch([[2]]), model)
    assert out.triple_count == 1
    assert out.mean == out.loss
    np.testing.assert_allclose(out.pos, math.exp(1.0), rtol=1e-12)
    np.testing.assert_allclose(out.neg, 1.0, rtol=1e-12)
    assert out.clamp_hits == 0


# ---------------------------------------------------------------------------
# estimators


def test_self_normalized_estimate_single_score():
    assert abs(self_normalized_exp_estimate(np.array([0.7])) - math.exp(0.7)) < 1e-12


def test_self_normalized_estimate_uniform_zero_scores():
    assert self_normalized_exp_estimate(np.zeros(5)) == 1.0


def test_estimators_match_oracles():
    rng = np.random.default_rng(11)
    for _ in range(20):
        scores = rng.normal(size=rng.integers(1, 9))
        np.testing.assert_allclose(
            self_normalized_exp_estimate(scores), oracle_self_normalized(scores.tolist()),
            rtol=1e-12)
        np.testing.assert_allclose(
            mean_exp_estimate(scores), oracle_mean_exp(scores.tolist()), rtol=1e-12)


def test_estimators_survive_large_scores():
    # naive sum(exp(2s)) overflows here; the stabilized form must not
    scores = np.array([400.0, 399.0])
    expected = math.exp(400.0) * (1.0 + math.exp(-2.0)) / (1.0 + math.exp(-1.0))
    np.testing.assert_allclose(self_normalized_exp_estimate(scores), expected, rtol=1e-12)
    assert np.isfinite(mean_exp_estimate(scores))


@pytest.mark.parametrize("variant", ["eq7", "alg1"])
def test_debiased_estimate_tau_zero_keeps_plain_mass(variant):
    rng = np.random.default_rng(5)
    sigma = rng.normal(size=6)
    rho = rng.normal(size=3)
    cfg = LossConfig(tau=0.0, debias_variant=variant)
    est = oracle_self_normalized if variant == "eq7" else oracle_mean_exp
    np.testing.assert_allclose(
        math.exp(log_debiased_mass(sigma, rho, cfg)), 6 * est(sigma.tolist()), rtol=1e-12)


def test_debiased_estimate_uniform_zero_scores_equals_k():
    cfg = LossConfig(tau=0.0)
    assert log_debiased_mass(np.zeros(7), np.zeros(0), cfg) == math.log(7.0)


@pytest.mark.parametrize("variant", ["eq7", "alg1"])
def test_debiased_estimate_matches_oracle(variant):
    rng = np.random.default_rng(13)
    for _ in range(20):
        sigma = rng.normal(size=rng.integers(1, 8))
        rho = rng.normal(size=rng.integers(0, 5))
        cfg = LossConfig(tau=float(rng.uniform(0, 0.5)), debias_variant=variant)
        got = math.exp(log_debiased_mass(sigma, rho, cfg))
        want = oracle_neg_mass(sigma.tolist(), rho.tolist(), cfg)
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_debiased_estimate_clamps_at_floor():
    # a large false-negative estimate drives the raw mass negative
    cfg = LossConfig(tau=0.5, floor_epsilon=1e-6)
    got = log_debiased_mass(np.zeros(4), np.array([5.0]), cfg)
    assert got == math.log(4e-6)


@pytest.mark.parametrize("variant", ["eq7", "alg1"])
def test_row_estimators_keep_rows_apart(variant):
    # rows of 3, 1, 0 and 5 scores with their empty cells scattered through
    # the block: each row's estimate and derivatives equal those of that
    # row computed alone, and an empty cell gets no derivative
    rng = np.random.default_rng(59)
    block = np.full((4, 6), -np.inf)
    for row, count in enumerate((3, 1, 0, 5)):
        block[row, rng.choice(6, size=count, replace=False)] = rng.normal(0.0, 2.0, size=count)
    value, grad = _log_estimate(block.copy(), variant)
    assert value[2] == -math.inf
    assert np.all(grad[block == -np.inf] == 0.0)
    oracle = oracle_self_normalized if variant == "eq7" else oracle_mean_exp
    for row, count in ((0, 3), (1, 1), (3, 5)):
        mine = block[row] > -np.inf
        alone, alone_grad = _log_estimate(block[row, mine][None, :], variant)
        np.testing.assert_allclose(value[row], alone[0], rtol=1e-15)
        np.testing.assert_allclose(grad[row, mine], alone_grad[0], rtol=1e-15)
        np.testing.assert_allclose(
            math.exp(value[row]), count * oracle(block[row, mine].tolist()), rtol=1e-12)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(tau=1.0)
    with pytest.raises(ValueError):
        LossConfig(tau=-0.1)
    for floor in (0.0, -1e-6, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="floor_epsilon"):
            LossConfig(floor_epsilon=floor)
    with pytest.raises(ValueError):
        LossConfig(debias_variant="nope")


def test_mixture_decomposition_identity():
    """On a finite labeled distribution with tau equal to the true fact
    mass, the enumerated nonfact expectation of exp(s) equals
    E_all/(1-tau) - tau*E_fact/(1-tau)."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        fact_scores = rng.normal(size=4).tolist()
        nonfact_scores = rng.normal(size=12).tolist()
        everything = np.array(fact_scores + nonfact_scores)
        tau = len(fact_scores) / everything.size
        e_all = mean_exp_estimate(everything)
        e_fact = mean_exp_estimate(np.array(fact_scores))
        e_nonfact = oracle_mean_exp(nonfact_scores)
        recovered = e_all / (1.0 - tau) - tau * e_fact / (1.0 - tau)
        np.testing.assert_allclose(recovered, e_nonfact, rtol=1e-10)


# ---------------------------------------------------------------------------
# hasa and hasa_plus values


def test_hasa_tau_zero_alg1_equals_hard_infonce_exactly():
    rng = np.random.default_rng(19)
    for _ in range(10):
        model, batch, negatives = random_instance(rng, n_triples=3, m_struct=2)
        cfg = LossConfig(tau=0.0, debias_variant="alg1")
        a = hasa_loss(batch, negatives, model, cfg)
        b = hard_infonce(batch, negatives, model)
        assert a.loss == b.loss


def test_hasa_tau_zero_eq7_uses_self_normalized_mass():
    rng = np.random.default_rng(23)
    for _ in range(10):
        model, batch, negatives = random_instance(rng, n_triples=2, m_struct=2)
        cfg = LossConfig(tau=0.0, debias_variant="eq7")
        out = hasa_loss(batch, negatives, model, cfg)
        expected = 0.0
        for s_pos, sigma, _, _ in instance_scores(model, batch, negatives):
            mass = len(sigma) * oracle_self_normalized(sigma)
            expected += math.log(math.exp(s_pos) + mass) - s_pos
        np.testing.assert_allclose(out.loss, expected, rtol=1e-12)


@pytest.mark.parametrize("variant", ["eq7", "alg1"])
def test_hasa_single_triple_scalar_oracle(variant):
    # K=2 negatives, M=1 structure sample, d=2, fixed numbers
    model = sum_model([
        [0.8, -0.3],   # head, the query
        [0.5, 0.4],    # tail
        [-0.2, 0.9],   # negative
        [0.7, 0.1],    # negative
        [0.3, -0.6],   # structure sample
    ])
    batch = triple_rows((0, 0, 1))
    negatives = neg_batch([[2, 3]], [[4]])
    cfg = LossConfig(tau=0.1, debias_variant=variant)
    out = hasa_loss(batch, negatives, model, cfg)
    q = [0.8, -0.3]
    dot = lambda a, b: a[0] * b[0] + a[1] * b[1]
    s_pos = dot(q, [0.5, 0.4])
    sigma = [dot(q, [-0.2, 0.9]), dot(q, [0.7, 0.1])]
    rho = [dot(q, [0.3, -0.6])]
    np.testing.assert_allclose(out.loss, oracle_hasa(s_pos, sigma, rho, cfg), rtol=1e-12)


@pytest.mark.parametrize("variant", ["eq7", "alg1"])
def test_hasa_batch_matches_oracle(variant):
    rng = np.random.default_rng(29)
    for _ in range(8):
        model, batch, negatives = random_instance(rng, kind="mlp", n_triples=3, m_struct=2)
        cfg = LossConfig(tau=0.2, debias_variant=variant)
        out = hasa_loss(batch, negatives, model, cfg)
        expected = sum(
            oracle_hasa(s_pos, sigma, rho, cfg)
            for s_pos, sigma, rho, _ in instance_scores(model, batch, negatives)
        )
        np.testing.assert_allclose(out.loss, expected, rtol=1e-12)


def test_hasa_empty_structure_support_drops_correction():
    rng = np.random.default_rng(31)
    model, batch, negatives = random_instance(rng, n_triples=2, m_struct=0)
    cfg = LossConfig(tau=0.3, debias_variant="eq7")
    out = hasa_loss(batch, negatives, model, cfg)
    expected = sum(
        oracle_hasa(s_pos, sigma, [], cfg)
        for s_pos, sigma, _, _ in instance_scores(model, batch, negatives)
    )
    np.testing.assert_allclose(out.loss, expected, rtol=1e-12)
    assert out.false_neg == 0.0


def test_hasa_clamp_reports_hits_and_freezes_negative_gradients():
    # structure score far above the negatives forces the raw mass negative
    model = sum_model([
        [1.0, 0.0],    # head
        [0.1, 0.1],    # tail
        [-1.0, 0.0],   # weak negative
        [8.0, 0.0],    # dominant structure sample
    ])
    batch = triple_rows((0, 0, 1))
    negatives = neg_batch([[2, 2]], [[3]])
    cfg = LossConfig(tau=0.5, floor_epsilon=1e-6)
    tape = GradientTape(model)
    out = hasa_loss(batch, negatives, model, cfg, tape)
    assert out.clamp_hits == 1
    np.testing.assert_allclose(out.neg_hasa, 2 * 1e-6, rtol=1e-12)
    s_pos = 1.0 * 0.1
    # the loss is a difference of nearly equal logs here, so allow for the
    # cancellation instead of demanding full precision on a 1e-6 value
    expected = math.log(math.exp(s_pos) + 2 * 1e-6) - s_pos
    np.testing.assert_allclose(out.loss, expected, rtol=1e-9)
    # the clamped mass is constant, so negatives and structure rows get no
    # gradient while the positive pair still does
    assert np.all(grad_row(tape.entity_rows(), 2) == 0.0)
    assert np.all(grad_row(tape.entity_rows(), 3) == 0.0)
    assert np.any(grad_row(tape.entity_rows(), 1) != 0.0)
    # nor are their rows on the tape at all, since lazy Adam would decay and
    # step a pushed zero row: only the head (through the query) and the tail
    ids, _ = tape.entity_rows()
    assert ids.tolist() == [0, 1]


def test_hasa_plus_zero_contexts_reduces_to_hasa():
    rng = np.random.default_rng(37)
    model, batch, negatives = random_instance(rng, n_triples=2, m_struct=2, with_ctx=False)
    cfg = LossConfig(tau=0.1)
    a = hasa_plus_loss(batch, negatives, model, cfg)
    b = hasa_loss(batch, negatives, model, cfg)
    assert a.loss == b.loss


def test_hasa_plus_uniform_context_scores_add_log_j_plus_one():
    # all embeddings zero: the context scores and s+ all vanish, so the
    # reversed term is log(J+1) and the hasa term is log(1 + K)
    model = sum_model(np.zeros((6, 2)))
    batch = triple_rows((0, 0, 1), (2, 0, 3), (4, 0, 5))
    negs = [[2, 4], [0, 4], [0, 2]]
    ctxs = [[1, 2], [0, 2], [0, 1]]
    structs = [[], [], []]
    cfg = LossConfig(tau=0.0)
    out = hasa_plus_loss(batch, neg_batch(negs, structs, ctxs), model, cfg)
    expected = 3 * (math.log(1 + 2) + math.log(2 + 1))
    np.testing.assert_allclose(out.loss, expected, rtol=1e-12)


@pytest.mark.parametrize("variant", ["eq7", "alg1"])
def test_hasa_plus_matches_scalar_oracle(variant):
    rng = np.random.default_rng(41)
    for _ in range(8):
        model, batch, negatives = random_instance(
            rng, kind="gru", n_triples=3, k_neg=2, m_struct=2, with_ctx=True)
        cfg = LossConfig(tau=0.15, debias_variant=variant)
        out = hasa_plus_loss(batch, negatives, model, cfg)
        rows = instance_scores(model, batch, negatives)
        queries = [row[3] for row in rows]
        expected = 0.0
        for i, (s_pos, sigma, rho, _) in enumerate(rows):
            expected += oracle_hasa(s_pos, sigma, rho, cfg)
            ctx = filled(negatives.negative_contexts[i])
            tail_row = model.entity_table[batch[i, 2]]
            ctx_scores = [float(queries[j] @ tail_row) for j in ctx]
            expected += oracle_context_term(s_pos, ctx_scores)
        np.testing.assert_allclose(out.loss, expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# loss shape properties


def loss_for_tail_offset(model, batch, negatives, offset):
    shifted = model.copy()
    shifted.entity_table[1] = shifted.entity_table[1] + offset
    cfg = LossConfig(tau=0.1)
    return {
        "simple": simple_infonce(batch, negatives, shifted).loss,
        "hard": hard_infonce(batch, negatives, shifted).loss,
        "hasa": hasa_loss(batch, negatives, shifted, cfg).loss,
        "hasa_plus": hasa_plus_loss(batch, negatives, shifted, cfg).loss,
    }


def test_losses_nonnegative_and_decreasing_in_positive_score():
    # tail is entity 1; raising its projection on the query increases s+
    # while every other score in the losses stays fixed
    model = sum_model([
        [1.0, 0.0, 0.0],   # head of the scored triple, query (1, 0, 0)
        [0.2, 0.3, 0.0],   # its tail
        [0.0, 1.0, 0.0],   # head of the context triple, query (0, 1, 0)
        [0.1, -0.4, 0.2],  # its tail
        [0.5, 0.2, -0.1],  # negative
        [-0.3, 0.1, 0.4],  # structure sample
    ])
    batch = triple_rows((0, 0, 1), (2, 0, 3))
    negatives = neg_batch([[4, 4], [4, 4]], [[5], [5]], [[1], [0]])
    lifted = np.array([0.5, 0.0, 0.0])
    base = loss_for_tail_offset(model, batch, negatives, np.zeros(3))
    up = loss_for_tail_offset(model, batch, negatives, lifted)
    for mode in ("simple", "hard", "hasa", "hasa_plus"):
        assert base[mode] > 0.0
        assert up[mode] < base[mode]


def test_gradient_conservation_and_opposition():
    """With the query fixed, the tail gradient and the summed negative
    gradients cancel, point along -e_hr and +e_hr, and their difference is
    exactly e_hr when the scores tie."""
    rng = np.random.default_rng(43)
    for loss_fn in (simple_infonce, hard_infonce):
        table = rng.normal(size=(6, 4))
        table[3] = table[1]  # one negative shares the tail's embedding
        model = sum_model(table)
        batch = triple_rows((0, 0, 1))
        negatives = neg_batch([[2, 3, 4]])
        tape = GradientTape(model)
        loss_fn(batch, negatives, model, tape)
        q = model.entity_table[0]
        g_tail = grad_row(tape.entity_rows(), 1)
        g_negs = [grad_row(tape.entity_rows(), j) for j in (2, 3, 4)]
        residual = g_tail + sum(g_negs)
        assert np.max(np.abs(residual)) < 1e-10
        unit = q / np.linalg.norm(q)
        cos_tail = float(g_tail @ unit) / np.linalg.norm(g_tail)
        np.testing.assert_allclose(cos_tail, -1.0, atol=1e-10)
        for g in g_negs:
            np.testing.assert_allclose(
                float(g @ unit) / np.linalg.norm(g), 1.0, atol=1e-10)
        # entity 3 ties the positive score, so its pull minus the tail push
        # reconstructs the query exactly
        np.testing.assert_allclose(g_negs[1] - g_tail, q, atol=1e-10)


# ---------------------------------------------------------------------------
# gradients against finite differences


def fd_loss_fn(loss_name, batch, negatives, cfg):
    def call(model, tape):
        if loss_name == "simple":
            return simple_infonce(batch, negatives, model, tape).loss
        if loss_name == "hard":
            return hard_infonce(batch, negatives, model, tape).loss
        if loss_name == "hasa":
            return hasa_loss(batch, negatives, model, cfg, tape).loss
        return hasa_plus_loss(batch, negatives, model, cfg, tape).loss
    return call


@pytest.mark.parametrize("loss_name", ["simple", "hard", "hasa", "hasa_plus"])
@pytest.mark.parametrize("kind", ["sum", "mlp", "gru"])
def test_gradients_match_finite_differences(loss_name, kind):
    rng = np.random.default_rng(47)
    for trial in range(3):
        model, batch, negatives = random_instance(
            rng, kind=kind, dim=4, n_triples=3, k_neg=3, m_struct=2,
            with_ctx=loss_name == "hasa_plus")
        cfg = LossConfig(tau=0.2 if trial else 0.0,
                         debias_variant="alg1" if trial == 2 else "eq7")
        err = loss_grad_rel_err(fd_loss_fn(loss_name, batch, negatives, cfg), model, rng)
        assert err < 1e-4, f"{loss_name}/{kind} trial {trial}: rel err {err}"


def test_duplicate_rows_coalesce_in_gradients():
    # the same entity appears as tail and negative across triples; finite
    # differences see the summed effect, the tape must agree
    rng = np.random.default_rng(53)
    batch = triple_rows((0, 0, 1), (1, 1, 0), (0, 1, 1))
    negatives = neg_batch([[2, 0], [2, 1], [2, 0]], [[1], [0], [2]],
                          [[1, 2], [0, 2], [0, 1]])
    model = init_model(3, 2, 3, kind="gru", seed=9, init_scale=0.5)
    cfg = LossConfig(tau=0.1)
    err = loss_grad_rel_err(fd_loss_fn("hasa_plus", batch, negatives, cfg), model, rng,
                            coord_count=60)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# properties of the batched core

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
LOSSES = {
    "simple": lambda b, n, m, cfg, t: simple_infonce(b, n, m, t),
    "hard": lambda b, n, m, cfg, t: hard_infonce(b, n, m, t),
    "hasa": lambda b, n, m, cfg, t: hasa_loss(b, n, m, cfg, t),
    "hasa_plus": lambda b, n, m, cfg, t: hasa_plus_loss(b, n, m, cfg, t),
}


def run_with_tape(loss_name, batch, negatives, model, cfg):
    tape = GradientTape(model)
    return LOSSES[loss_name](batch, negatives, model, cfg, tape), tape


def permuted(batch, negatives, perm):
    """The batch with old triple perm[j] at position j, its contexts mapped
    to the new positions."""
    new_pos = np.argsort(perm)
    ctx = negatives.negative_contexts[perm]
    return batch[perm], NegativeSampleBatch(
        negatives.hard_and_batch_negatives[perm],
        negatives.structure_samples[perm],
        np.where(ctx >= 0, new_pos[ctx], -1),
    )


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    loss_name=st.sampled_from(sorted(LOSSES)),
    kind=st.sampled_from(["sum", "mlp", "gru"]),
    floor_epsilon=st.sampled_from([1e-6, 1.0]),
    data=st.data(),
)
def test_permuting_the_batch_changes_no_loss_and_no_gradient(
    seed, loss_name, kind, floor_epsilon, data
):
    # a floor of 1.0 per negative clamps some rows and not others
    rng = np.random.default_rng(seed)
    n = data.draw(st.integers(1, 6))
    model, batch, negatives = random_instance(
        rng, kind=kind, n_triples=n, k_neg=3, m_struct=2, with_ctx=loss_name == "hasa_plus")
    perm = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    cfg = LossConfig(tau=0.2, floor_epsilon=floor_epsilon)
    a, tape_a = run_with_tape(loss_name, batch, negatives, model, cfg)
    b, tape_b = run_with_tape(loss_name, *permuted(batch, negatives, perm), model, cfg)
    for field in ("loss", "pos", "neg", "false_neg", "neg_hasa"):
        np.testing.assert_allclose(getattr(b, field), getattr(a, field), rtol=1e-12)
    assert b.clamp_hits == a.clamp_hits
    pairs = [(tape_a.entity_rows(), tape_b.entity_rows()),
             (tape_a.relation_rows(), tape_b.relation_rows())]
    pairs += [((None, tape_a.aggregator[k]), (None, tape_b.aggregator[k]))
              for k in tape_a.aggregator]
    for (ids_a, rows_a), (ids_b, rows_b) in pairs:
        if ids_a is not None:
            assert np.array_equal(ids_a, ids_b)
        # summation order moves with the batch order, so entries that
        # cancel to near zero are held to the scale of their array
        atol = 1e-12 * np.abs(rows_a).max(initial=0.0)
        np.testing.assert_allclose(rows_b, rows_a, rtol=1e-12, atol=atol)


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    loss_name=st.sampled_from(["hasa", "hasa_plus"]),
    kind=st.sampled_from(["sum", "mlp", "gru"]),
    variant=st.sampled_from(["eq7", "alg1"]),
)
def test_structure_samples_change_nothing_at_tau_zero(seed, loss_name, kind, variant):
    rng = np.random.default_rng(seed)
    model, batch, negatives = random_instance(
        rng, kind=kind, n_triples=4, k_neg=3, m_struct=3, with_ctx=loss_name == "hasa_plus")
    bare = NegativeSampleBatch(
        negatives.hard_and_batch_negatives,
        np.zeros((len(batch), 0), dtype=np.int64),
        negatives.negative_contexts,
    )
    cfg = LossConfig(tau=0.0, debias_variant=variant)
    a, tape_a = run_with_tape(loss_name, batch, negatives, model, cfg)
    b, tape_b = run_with_tape(loss_name, batch, bare, model, cfg)
    assert a.loss == b.loss
    for get in ("entity_rows", "relation_rows"):
        (ids_a, rows_a), (ids_b, rows_b) = getattr(tape_a, get)(), getattr(tape_b, get)()
        assert np.array_equal(ids_a, ids_b)
        assert np.array_equal(rows_a, rows_b)
    for name, grad in tape_a.aggregator.items():
        assert np.array_equal(grad, tape_b.aggregator[name])


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    loss_name=st.sampled_from(sorted(LOSSES)),
    variant=st.sampled_from(["eq7", "alg1"]),
    tau=st.sampled_from([0.0, 0.05, 0.3]),
    scale=st.floats(1.0, 1e3),
)
def test_large_scores_give_a_finite_loss_and_finite_gradients(
    seed, loss_name, variant, tau, scale
):
    # sum aggregator with zero relation rows, so every score is the product
    # of two entity rows: planar directions of length sqrt(scale), which
    # puts the scores at scale * cos(angle) in [-scale, scale]
    rng = np.random.default_rng(seed)
    model, batch, negatives = random_instance(
        rng, kind="sum", dim=2, n_triples=5, k_neg=3, m_struct=2,
        with_ctx=loss_name == "hasa_plus")
    angles = rng.uniform(0.0, 2.0 * math.pi, size=len(model.entity_table))
    model.entity_table[:] = math.sqrt(scale) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    model.relation_table[:] = 0.0
    cfg = LossConfig(tau=tau, debias_variant=variant)
    out, tape = run_with_tape(loss_name, batch, negatives, model, cfg)
    assert math.isfinite(out.loss)
    for _, rows in (tape.entity_rows(), tape.relation_rows()):
        assert np.isfinite(rows).all()


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    loss_name=st.sampled_from(["hasa", "hasa_plus"]),
    variant=st.sampled_from(["eq7", "alg1"]),
    tau=st.sampled_from([0.05, 0.3, 0.6]),
    floor_epsilon=st.sampled_from([1e-6, 0.5, 1.0, 2.0]),
)
def test_clamp_hits_count_the_rows_whose_raw_mass_is_under_the_floor(
    seed, loss_name, variant, tau, floor_epsilon
):
    rng = np.random.default_rng(seed)
    model, batch, negatives = random_instance(
        rng, n_triples=6, k_neg=3, m_struct=2, with_ctx=loss_name == "hasa_plus")
    cfg = LossConfig(tau=tau, floor_epsilon=floor_epsilon, debias_variant=variant)
    rows = [(oracle_raw_mass(sigma, rho, cfg), len(sigma) * floor_epsilon)
            for _, sigma, rho, _ in instance_scores(model, batch, negatives)]
    # rounding decides a row within a hair of the floor either way
    assume(all(abs(raw - floor) >= 1e-9 * floor for raw, floor in rows))
    out = LOSSES[loss_name](batch, negatives, model, cfg, None)
    assert out.clamp_hits == sum(raw < floor for raw, floor in rows)


# ---------------------------------------------------------------------------
# the core's column split and the rows it pushes to the tape

SPLIT_TRIPLES = [(0, 0, 1), (2, 0, 3), (4, 1, 5), (6, 1, 7)]
SPLIT_STRUCTURE = [[3, 5, 10], [1, 11, 0], [9, 8, 7], [2, 10, 5]]
# the training layout: each triple's contexts are the batch's other positions
SPLIT_CONTEXTS = np.where(np.eye(4, dtype=bool), -1, np.arange(4)).tolist()
# name: (negatives, structure samples, the table rows the negatives give
# when every filled cell pushes: one per shared column and one per other cell)
SPLIT_CASES = {
    "column_shared_by_every_row": ([[8, 10], [8, 9], [8, 11], [8, 0]], SPLIT_STRUCTURE, 5),
    "column_shared_by_all_rows_but_one": (
        [[9, 10], [9, 8], [9, 11], [2, 0]], SPLIT_STRUCTURE, 8),
    "all_empty_column": ([[-1, 10], [-1, 8], [-1, 11], [-1, 0]], SPLIT_STRUCTURE, 4),
    "row_with_repeated_structure_ids": (
        [[8, 10], [8, 9], [8, 11], [8, 0]], [[3, 3, 3], [1, 11, 1], [9, 8, 7], [2, 10, 5]], 5),
    "topk_id_equal_to_an_in_batch_id": ([[8, 8], [8, 9], [8, 8], [8, 0]], SPLIT_STRUCTURE, 5),
    "row_without_negatives": ([[8, 10], [8, 9], [-1, -1], [8, 0]], SPLIT_STRUCTURE, 4),
    # negatives far below the positive and structure samples far above it
    "clamped_row": ([[8, 10], [8, 9], [8, 11], [8, 0]], [[0, 0, 0], [9, 9, 9], [2, 2, 2], [3]], 5),
}
SPLIT_CFG = {"clamped_row": LossConfig(tau=0.6, floor_epsilon=0.5)}


def split_table():
    rng = np.random.default_rng(2024)
    table = rng.normal(0.0, 0.7, size=(12, 3))
    # the clamped case: the query of triple 0 scores the negatives 8, 10 low
    # and its structure sample 0 (the head itself) high
    table[8] = table[10] = -table[0]
    return table


def split_oracle(mode, table, negs, structs, cfg):
    """The summed loss of the split instances from plain Python floats (a
    sum model whose relation rows are zero, so the query of (h, r) is e_h),
    and whether each triple's mass clamps."""
    dot = lambda a, b: sum(x * y for x, y in zip(a, b))
    rows = [list(map(float, row)) for row in table]
    total, clamped = 0.0, []
    for i, (head, _, tail) in enumerate(SPLIT_TRIPLES):
        q = rows[head]
        s_pos = dot(q, rows[tail])
        sigma = [dot(q, rows[j]) for j in negs[i] if j >= 0]
        rho = [dot(q, rows[j]) for j in structs[i] if j >= 0]
        if mode in ("simple", "hard"):
            total += oracle_infonce(s_pos, sigma)
            clamped.append(False)
        elif sigma:
            total += oracle_hasa(s_pos, sigma, rho, cfg)
            clamped.append(oracle_raw_mass(sigma, rho, cfg) < len(sigma) * cfg.floor_epsilon)
        else:
            clamped.append(False)
        if mode == "hasa_plus":
            others = [dot(rows[SPLIT_TRIPLES[j][0]], rows[tail])
                      for j in SPLIT_CONTEXTS[i] if j >= 0]
            total += oracle_context_term(s_pos, others)
    return total, clamped


@pytest.mark.parametrize("mode", sorted(LOSSES))
@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_column_split_matches_the_oracle_and_pushes_the_rule_rows(case, mode):
    """Loss and per-entity tape gradients against the scalar oracle and its
    central differences, and the tape's ids against the push rule: the
    heads, the tail of each triple with negatives or contexts, the
    negatives of each unclamped triple and, at tau != 0, the structure
    samples of each unclamped triple with negatives."""
    negs, structs, pulled = SPLIT_CASES[case]
    cfg = SPLIT_CFG.get(case, LossConfig(tau=0.3))
    table = split_table()
    model = sum_model(table, num_relations=2)
    batch = triple_rows(*SPLIT_TRIPLES)
    negatives = neg_batch(negs, structs, SPLIT_CONTEXTS)
    heads = batch[:, 0]
    ids = negatives.hard_and_batch_negatives
    cells, own_cells, filled, pull = _score(table[heads], table, ids, ids[:, :0], ids >= 0)
    assert cells.flags.c_contiguous
    assert pull(np.zeros(cells.shape), np.zeros(own_cells.shape), filled)[1].size == pulled
    out, tape = run_with_tape(mode, batch, negatives, model, cfg)
    expected, clamped = split_oracle(mode, table, negs, structs, cfg)
    # a clamped row's term is a difference of nearly equal logs
    np.testing.assert_allclose(out.loss, expected, rtol=1e-12, atol=1e-15)
    if case == "clamped_row" and mode.startswith("hasa"):
        assert clamped[0] and not all(clamped)
    assert out.clamp_hits == sum(clamped)

    step = 1e-6
    for entity in range(len(table)):
        numeric = np.zeros(table.shape[1])
        for axis in range(table.shape[1]):
            up, down = table.copy(), table.copy()
            up[entity, axis] += step
            down[entity, axis] -= step
            numeric[axis] = (split_oracle(mode, up, negs, structs, cfg)[0]
                             - split_oracle(mode, down, negs, structs, cfg)[0]) / (2 * step)
        np.testing.assert_allclose(grad_row(tape.entity_rows(), entity), numeric,
                                   rtol=1e-6, atol=1e-8)

    pushed = {head for head, _, _ in SPLIT_TRIPLES}
    for i, (_, _, tail) in enumerate(SPLIT_TRIPLES):
        own = [j for j in negs[i] if j >= 0]
        if own or mode == "hasa_plus":
            pushed.add(tail)
        if not clamped[i]:
            pushed.update(own)
            if own and mode.startswith("hasa") and cfg.tau != 0.0:
                pushed.update(j for j in structs[i] if j >= 0)
    assert set(tape.entity_rows()[0].tolist()) == pushed


# ---------------------------------------------------------------------------
# the batched core against its earlier form (support.contrastive_oracle), bit
# for bit: every LossValue field, the coalesced tape rows and the aggregator
# gradients


ORACLE_KNOBS = {
    "simple": lambda negatives, cfg: {},
    "hard": lambda negatives, cfg: {},
    "hasa": lambda negatives, cfg: dict(
        structure=negatives.structure_samples, tau=cfg.tau, variant=cfg.debias_variant,
        floor=cfg.floor_epsilon),
    "hasa_plus": lambda negatives, cfg: dict(
        ORACLE_KNOBS["hasa"](negatives, cfg), bidirectional=True),
}


def value_bytes(value):
    fields = [value.loss, value.pos, value.neg, value.false_neg, value.neg_hasa]
    return np.array(fields).tobytes(), value.triple_count, value.clamp_hits


def tape_bytes(tape):
    out = [part.tobytes() for rows in (tape.entity_rows(), tape.relation_rows()) for part in rows]
    return out + [(name, tape.aggregator[name].tobytes()) for name in sorted(tape.aggregator)]


def assert_matches_oracle(loss_name, batch, negatives, model, cfg):
    """The loss with and without a tape against the oracle; returns the
    oracle's value."""
    oracle_tape = GradientTape(model)
    want = contrastive_oracle(batch, negatives, model, oracle_tape,
                              **ORACLE_KNOBS[loss_name](negatives, cfg))
    got, tape = run_with_tape(loss_name, batch, negatives, model, cfg)
    assert value_bytes(got) == value_bytes(want)
    assert tape_bytes(tape) == tape_bytes(oracle_tape)
    assert value_bytes(LOSSES[loss_name](batch, negatives, model, cfg, None)) == value_bytes(want)
    return want


@functools.lru_cache(maxsize=None)
def oracle_graph():
    spec = SyntheticKGSpec(block_count=3, entities_per_block=10, relation_count=2,
                           intra_block_edge_probability=0.4, seed=3)
    kg = generate_knowledge_graph(spec)
    return kg, build_structure_index(kg)


def training_steps(loss_name, kind, batch_size, seed, steps=None):
    """(model, batch, negatives) of a training step's layout: the 2B slot
    columns, the top-k block, ring samples and the B x B contexts."""
    kg, idx = oracle_graph()
    model = init_model(kg.num_entities(), kg.num_relations(), 6, kind=kind, seed=seed,
                       init_scale=1.0)
    batches = make_batches(kg, batch_size, seed)
    for step, batch in enumerate(batches if steps is None else batches[:steps]):
        yield model, batch, assemble_training_negatives(batch, model, kg, idx, 4, seed + step,
                                                        loss_name, hard_k=3)


# the plain modes ignore the knobs, so they run once per aggregator
ORACLE_CASES = [
    (loss_name, kind, variant, floor_epsilon, tau)
    for loss_name in sorted(LOSSES)
    for kind in ("sum", "gru", "mlp")
    for variant in ("eq7", "alg1")
    for floor_epsilon in (1e-6, 4.0)
    for tau in (0.0, 0.3)
    if loss_name.startswith("hasa") or (variant, floor_epsilon, tau) == ("eq7", 1e-6, 0.3)
]


@pytest.mark.parametrize("loss_name,kind,variant,floor_epsilon,tau", ORACLE_CASES)
def test_core_matches_its_earlier_form_on_training_blocks(
    loss_name, kind, variant, floor_epsilon, tau
):
    # 12 does not divide the split, so the last batch is short; a floor of
    # 4.0 per negative clamps some rows and 1e-6 none
    kg, _ = oracle_graph()
    assert len(kg.train) % 12
    cfg = LossConfig(tau=tau, floor_epsilon=floor_epsilon, debias_variant=variant)
    hits = sum(assert_matches_oracle(loss_name, batch, negatives, model, cfg).clamp_hits
               for model, batch, negatives in training_steps(loss_name, kind, 12, seed=5))
    if loss_name.startswith("hasa"):
        assert (hits > 0) == (floor_epsilon == 4.0)


@pytest.mark.parametrize("loss_name", sorted(LOSSES))
def test_core_matches_its_earlier_form_at_batch_size_one(loss_name):
    # one triple: its own tail's slot column holds no id at all
    cfg = LossConfig(tau=0.3)
    for model, batch, negatives in training_steps(loss_name, "gru", 1, seed=6, steps=6):
        assert (negatives.hard_and_batch_negatives[:, 1] == -1).all()
        assert_matches_oracle(loss_name, batch, negatives, model, cfg)


@pytest.mark.parametrize("loss_name", sorted(LOSSES))
@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_core_matches_its_earlier_form_on_the_split_layouts(case, loss_name):
    negs, structs, _ = SPLIT_CASES[case]
    model = sum_model(split_table(), num_relations=2)
    assert_matches_oracle(loss_name, triple_rows(*SPLIT_TRIPLES),
                          neg_batch(negs, structs, SPLIT_CONTEXTS), model,
                          SPLIT_CFG.get(case, LossConfig(tau=0.3)))


@pytest.mark.parametrize("loss_name", sorted(LOSSES))
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_core_matches_its_earlier_form_on_scattered_ids_and_large_scores(loss_name, scale):
    # per-row negatives drawn with replacement, so no column is shared and
    # ids repeat, over planar rows of length sqrt(scale)
    rng = np.random.default_rng(71)
    for variant in ("eq7", "alg1"):
        model, batch, negatives = random_instance(
            rng, kind="sum", dim=2, n_triples=7, k_neg=4, m_struct=3,
            with_ctx=loss_name == "hasa_plus")
        angles = rng.uniform(0.0, 2.0 * math.pi, size=len(model.entity_table))
        model.entity_table[:] = math.sqrt(scale) * np.stack([np.cos(angles), np.sin(angles)], 1)
        assert_matches_oracle(loss_name, batch, negatives, model,
                              LossConfig(tau=0.3, debias_variant=variant))


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_score_splits_a_narrow_id_block_as_an_int64_one(case):
    # the shared-column test reads -1 through the unsigned type of the
    # block's own width, so int32 and int16 blocks split as int64 ones do
    table = split_table()
    wide = block(SPLIT_CASES[case][0])
    anchors = table[[head for head, _, _ in SPLIT_TRIPLES]]
    want_cells, want_own, want_filled, _ = _score(anchors, table, wide, wide[:, :0], wide >= 0)
    for dtype in (np.int32, np.int16):
        ids = wide.astype(dtype)
        cells, own_cells, filled, _ = _score(anchors, table, ids, ids[:, :0], ids >= 0)
        assert cells.flags.c_contiguous
        assert cells.tobytes() == want_cells.tobytes()
        assert own_cells.tobytes() == want_own.tobytes()
        assert np.array_equal(filled, want_filled)
