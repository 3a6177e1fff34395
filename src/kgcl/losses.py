"""Contrastive losses over (head, relation, tail) triples.

Every loss is InfoNCE, -log(exp(s+) / (exp(s+) + NegMass)) per triple with
s = e_hr . e, computed by one per-triple core. Only the negative mass
differs between the two forms the core knows:

  plain      NegMass is the sum of exp(s) over the triple's negatives:
             simple_infonce (in-batch negatives) and hard_infonce (the
             model-ranked hard negatives appended), the same function
  debiased   NegMass is an estimate of the full negative expectation minus
             a tau-weighted estimate of the likely-false-negative
             expectation taken over structure samples from the head's
             1-/2-hop ring, scaled back to K negatives and clamped to a
             positive floor: hasa_loss

hasa_plus_loss adds a reversed term to hasa_loss: the same plain softmax
with the tail as the anchor and the batch's other (head, relation) queries
as its negatives.

Losses return the batch sum plus diagnostics, and accumulate exact analytic
gradients into a GradientTape when one is passed. Every formula here is
paired with an independent scalar oracle in the test suite, and all
gradients are verified against central finite differences.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import TripleBatch
from .model import EmbeddingModel, GradientTape, aggregate_batch, backward
from .sampling import NegativeSampleBatch

DEBIAS_VARIANTS = ("eq7", "alg1")


def _exp(x: float) -> float:
    """exp that saturates to inf instead of raising, so a diverging run
    surfaces as a non-finite loss the training loop can report."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class LossConfig:
    """Knobs of the debiased losses.

    tau is the prior probability that a sampled negative is actually a true
    fact; floor_epsilon bounds the debiased negative mass away from zero
    (the clamp is K * floor_epsilon).

    The eq7 variant uses self-normalized estimates sum(exp(2s))/sum(exp(s))
    for both terms and divides their difference by (1 - tau); the alg1
    variant uses plain averages of exp(s) and rescales only the full
    negative term by 1/(1 - tau).
    """

    tau: float = 0.0
    floor_epsilon: float = 1e-6
    debias_variant: str = "eq7"

    def __post_init__(self):
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau must lie in [0, 1), got {self.tau}")
        if self.floor_epsilon <= 0.0:
            raise ValueError(f"floor_epsilon must be > 0, got {self.floor_epsilon}")
        if self.debias_variant not in DEBIAS_VARIANTS:
            raise ValueError(
                f"debias_variant must be one of {DEBIAS_VARIANTS}, got {self.debias_variant!r}"
            )


@dataclass
class LossValue:
    """Batch loss plus the mean per-triple diagnostics of its pieces: the
    exponentiated positive score, the negative mass, the false-negative
    estimate, the debiased (clamped) negative mass, and how many triples hit
    the clamp."""

    loss: float
    triple_count: int
    pos: float
    neg: float
    false_neg: float
    neg_hasa: float
    clamp_hits: int

    @property
    def mean(self) -> float:
        return self.loss / self.triple_count if self.triple_count else 0.0


def self_normalized_exp_estimate(scores: np.ndarray) -> float:
    """sum(exp(2s)) / sum(exp(s)), evaluated stably.

    For scores of samples drawn from a proposal distribution this is the
    self-normalized importance estimate of E[exp(s)] under the proposal
    tilted by exp(s); it is exact (equals the tilted expectation) when the
    samples enumerate the support once each.
    """
    value, _ = _self_normalized_with_grad(np.asarray(scores, dtype=np.float64))
    return value


def mean_exp_estimate(scores: np.ndarray) -> float:
    """Plain Monte Carlo average of exp(s), evaluated stably."""
    value, _ = _mean_exp_with_grad(np.asarray(scores, dtype=np.float64))
    return value


def _self_normalized_with_grad(scores: np.ndarray) -> tuple[float, np.ndarray]:
    c = float(scores.max())
    w = np.exp(scores - c)
    s1 = float(w.sum())
    s2 = float((w * w).sum())
    value = _exp(c) * s2 / s1
    # d value / d s_j = exp(s_j) (2 exp(s_j) - value) / sum(exp(s))
    grad = w * (2.0 * _exp(c) * w - value) / s1
    return value, grad


def _mean_exp_with_grad(scores: np.ndarray) -> tuple[float, np.ndarray]:
    c = float(scores.max())
    w = np.exp(scores - c)
    value = _exp(c) * float(w.mean())
    grad = _exp(c) * w / scores.size
    return value, grad


def _debias_terms(neg_scores: np.ndarray, structure_scores: np.ndarray, cfg: LossConfig):
    """Assemble the debiased negative mass and everything its gradient
    needs. Returns (value, clamped, neg, false_neg, d_neg, d_false,
    coef_neg, coef_false)."""
    estimator = (
        _self_normalized_with_grad if cfg.debias_variant == "eq7" else _mean_exp_with_grad
    )
    neg, d_neg = estimator(neg_scores)
    if structure_scores.size:
        false_neg, d_false = estimator(structure_scores)
    else:
        false_neg, d_false = 0.0, None
    k = neg_scores.size
    tau = cfg.tau
    if cfg.debias_variant == "eq7":
        raw = k * (neg - tau * false_neg) / (1.0 - tau)
        coef_neg = k / (1.0 - tau)
        coef_false = -k * tau / (1.0 - tau)
    else:
        raw = k * (neg / (1.0 - tau) - tau * false_neg)
        coef_neg = k / (1.0 - tau)
        coef_false = -k * tau
    floor = k * cfg.floor_epsilon
    clamped = raw < floor
    value = floor if clamped else raw
    return value, clamped, neg, false_neg, d_neg, d_false, coef_neg, coef_false


def debiased_negative_estimate(
    neg_scores: np.ndarray, structure_scores: np.ndarray, cfg: LossConfig
) -> float:
    """The clamped debiased negative mass for one triple, given the scores
    of its K negatives and of its structure samples. An empty structure
    array drops the correction term, leaving the plain estimate."""
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    structure_scores = np.asarray(structure_scores, dtype=np.float64)
    if neg_scores.size == 0:
        raise ValueError("need at least one negative score")
    value, *_ = _debias_terms(neg_scores, structure_scores, cfg)
    return value


def _softmax_term(s_pos: float, scores: np.ndarray) -> tuple[float, float, np.ndarray]:
    """-log(exp(s_pos) / (exp(s_pos) + sum exp(scores))), evaluated stably,
    with the softmax weights of the positive and of each score."""
    m = max(s_pos, float(scores.max()))
    w_pos = math.exp(s_pos - m)
    w = np.exp(scores - m)
    z = w_pos + float(w.sum())
    return (m + math.log(z)) - s_pos, w_pos / z, w / z


def _contrastive(
    batch: TripleBatch,
    negatives: NegativeSampleBatch,
    model: EmbeddingModel,
    cfg: LossConfig | None,
    tape: GradientTape | None,
    bidirectional: bool = False,
) -> LossValue:
    """The per-triple loop behind every loss. cfg None makes the negative
    mass the plain sum of exp(s) over the negatives; a LossConfig makes it
    the clamped debiased estimate of _debias_terms.

    Two facts keep each gradient byte-identical to computing the plain and
    the debiased forms apart. A triple's tail row goes to the tape after its
    negative rows, which cannot reorder any id's summation in the tape,
    because no triple's hard_and_batch_negatives holds its own tail (the
    slots drop it and top-k filters the train tails of (h, r)). And
    d_queries[i] is built by += from zero."""
    n = len(batch)
    if len(negatives.hard_and_batch_negatives) != n:
        raise ValueError("negative sample batch does not match the triple batch size")
    if cfg is not None and len(negatives.structure_samples) != n:
        raise ValueError("structure samples missing for some triples")
    queries, cache = aggregate_batch(model, batch.heads(), batch.relations())
    table = model.entity_table
    d_queries = np.zeros_like(queries) if tape is not None else None
    total = pos_acc = neg_acc = false_acc = mass_acc = 0.0
    clamp_hits = 0
    for i, triple in enumerate(batch.triples):
        q = queries[i]
        e_t = table[triple.tail]
        s_pos = float(q @ e_t)
        pos_acc += _exp(s_pos)
        d_tail = np.zeros(model.dim)
        touched = False
        neg_ids = negatives.hard_and_batch_negatives[i]
        if neg_ids.size:
            neg_emb = table[neg_ids]
            sigma = neg_emb @ q
            # (ids, embeddings, d loss / d score) of each scored block
            pushes = []
            if cfg is None:
                term, p_pos, p_neg = _softmax_term(s_pos, sigma)
                neg_v = mass = float(np.exp(sigma).sum())
                pushes.append((neg_ids, neg_emb, p_neg))
            else:
                struct_ids = negatives.structure_samples[i]
                struct_emb = table[struct_ids] if struct_ids.size else np.zeros((0, model.dim))
                rho = struct_emb @ q
                mass, clamped, neg_v, false_v, d_neg, d_false, c_neg, c_false = _debias_terms(
                    sigma, rho, cfg
                )
                false_acc += false_v
                clamp_hits += int(clamped)
                log_mass = math.log(mass)
                m = max(s_pos, log_mass)
                lse = m + math.log(math.exp(s_pos - m) + math.exp(log_mass - m))
                term = lse - s_pos
                p_pos = math.exp(s_pos - lse)
                if not clamped:
                    # d loss / d mass = (1 - p_pos) / mass, always finite
                    # because the mass is floored away from zero
                    d_mass = (1.0 - p_pos) / mass
                    pushes.append((neg_ids, neg_emb, (d_mass * c_neg) * d_neg))
                    if rho.size and c_false != 0.0:
                        pushes.append((struct_ids, struct_emb, (d_mass * c_false) * d_false))
            total += term
            neg_acc += neg_v
            mass_acc += mass
            if tape is not None:
                touched = True
                d_tail += (p_pos - 1.0) * q
                d_queries[i] += (p_pos - 1.0) * e_t
                for ids, emb, d_scores in pushes:
                    tape.add_entity(ids, d_scores[:, None] * q[None, :])
                    d_queries[i] += d_scores @ emb
        if bidirectional and negatives.negative_contexts[i].size:
            # the reversed term: the tail against the batch's other queries
            ctx = negatives.negative_contexts[i]
            ctx_queries = queries[ctx]
            term, p_pos, p_ctx = _softmax_term(s_pos, ctx_queries @ e_t)
            total += term
            if tape is not None:
                touched = True
                d_tail += (p_pos - 1.0) * q + p_ctx @ ctx_queries
                d_queries[i] += (p_pos - 1.0) * e_t
                np.add.at(d_queries, ctx, p_ctx[:, None] * e_t[None, :])
        if touched:
            tape.add_entity(np.array([triple.tail]), d_tail[None, :])
    if tape is not None:
        backward(model, cache, d_queries, tape)
    return LossValue(
        loss=total,
        triple_count=n,
        pos=pos_acc / n,
        neg=neg_acc / n,
        false_neg=false_acc / n,
        neg_hasa=mass_acc / n,
        clamp_hits=clamp_hits,
    )


def simple_infonce(
    batch: TripleBatch,
    negatives: NegativeSampleBatch,
    model: EmbeddingModel,
    tape: GradientTape | None = None,
) -> LossValue:
    """Contrastive loss -log(exp(s+) / (exp(s+) + sum_j exp(s_j))) summed
    over the batch, with in-batch negatives. A triple with no negatives
    contributes zero loss and no gradient."""
    return _contrastive(batch, negatives, model, None, tape)


def hard_infonce(
    batch: TripleBatch,
    negatives: NegativeSampleBatch,
    model: EmbeddingModel,
    tape: GradientTape | None = None,
) -> LossValue:
    """Same functional form as simple_infonce; the difference is only where
    the negatives came from, so with identical negative ids the two losses
    agree exactly."""
    return _contrastive(batch, negatives, model, None, tape)


def hasa_loss(
    batch: TripleBatch,
    negatives: NegativeSampleBatch,
    model: EmbeddingModel,
    cfg: LossConfig,
    tape: GradientTape | None = None,
) -> LossValue:
    """Debiased contrastive loss log(exp(s+) + NegMass) - s+ per triple,
    where NegMass subtracts a tau-weighted structure-sample estimate of the
    false-negative contribution from the plain negative mass. Triples whose
    head has no 1-/2-hop ring fall back to an uncorrected negative mass."""
    return _contrastive(batch, negatives, model, cfg, tape)


def hasa_plus_loss(
    batch: TripleBatch,
    negatives: NegativeSampleBatch,
    model: EmbeddingModel,
    cfg: LossConfig,
    tape: GradientTape | None = None,
) -> LossValue:
    """hasa_loss plus, per triple, -log(exp(s+) / (exp(s+) +
    sum_j exp(e_t . q_j))) over the other (head, relation) queries q_j of
    the batch, so the tail embedding is also contrasted against competing
    contexts."""
    return _contrastive(batch, negatives, model, cfg, tape, bidirectional=True)
