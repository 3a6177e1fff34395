"""Contrastive losses over (head, relation, tail) triples.

Every loss is InfoNCE, -log(exp(s+) / (exp(s+) + NegMass)) per triple with
s = e_hr . e, computed for the whole batch by one core without a per-triple
loop. Only the negative mass differs between the two forms the core knows:

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

The core scores the batch's queries against the distinct entities of each
group with one product, forms every row's softmax or mass by segment sums
over (row, entity) pairs, and turns d loss / d score into one (batch x
distinct entities) matrix G per group: the entity rows get G^T Q and the
queries G E. Losses return the batch sum plus diagnostics, and accumulate
exact analytic gradients into a GradientTape when one is passed. Every
formula here is paired with an independent scalar oracle in the test suite,
and all gradients are verified against central finite differences.
"""

from dataclasses import dataclass

import numpy as np

from .data import TripleBatch
from .model import EmbeddingModel, GradientTape, aggregate_batch, backward
from .sampling import NegativeSampleBatch

DEBIAS_VARIANTS = ("eq7", "alg1")


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


def _exp_estimate(scores: np.ndarray, rows: np.ndarray, n: int, variant: str):
    """Per row of n, an estimate of E[exp(s)] from the scores filed under
    that row, evaluated stably (0 for a row without scores), and d estimate
    / d score for each score.

    eq7 is the self-normalized sum(exp(2s)) / sum(exp(s)): for scores of
    samples drawn from a proposal it estimates E[exp(s)] under the proposal
    tilted by exp(s), exactly so when the samples enumerate the support
    once each. alg1 is the plain mean of exp(s)."""
    c = np.full(n, -np.inf)
    np.maximum.at(c, rows, scores)
    w = np.exp(scores - c[rows])
    scale = np.exp(c)
    s1 = np.bincount(rows, w, minlength=n)
    if variant == "eq7":
        s2 = np.bincount(rows, w * w, minlength=n)
        value = np.divide(scale * s2, s1, out=np.zeros(n), where=s1 > 0)
        # d value / d s_j = exp(s_j) (2 exp(s_j) - value) / sum(exp(s))
        return value, w * (2.0 * scale[rows] * w - value[rows]) / s1[rows]
    count = np.bincount(rows, minlength=n)
    value = np.divide(scale * s1, count, out=np.zeros(n), where=count > 0)
    return value, scale[rows] * w / count[rows]


def _debiased_mass(sigma, neg_rows, rho, struct_rows, n: int, cfg: LossConfig):
    """The clamped debiased negative mass of each of n rows, from the scores
    sigma of its K negatives and rho of its structure samples; a row without
    structure samples keeps the plain estimate. Returns (mass, clamped,
    negative estimate, false-negative estimate, d mass / d sigma, d mass /
    d rho); the derivatives are zero in a clamped row, whose mass is the
    constant floor."""
    neg, d_neg = _exp_estimate(sigma, neg_rows, n, cfg.debias_variant)
    false_neg, d_false = _exp_estimate(rho, struct_rows, n, cfg.debias_variant)
    k = np.bincount(neg_rows, minlength=n).astype(np.float64)
    tau = cfg.tau
    if cfg.debias_variant == "eq7":
        raw = k * (neg - tau * false_neg) / (1.0 - tau)
        coef_false = -k * tau / (1.0 - tau)
    else:
        raw = k * (neg / (1.0 - tau) - tau * false_neg)
        coef_false = -k * tau
    floor = k * cfg.floor_epsilon
    clamped = raw < floor
    d_neg *= np.where(clamped, 0.0, k / (1.0 - tau))[neg_rows]
    d_false *= np.where(clamped, 0.0, coef_false)[struct_rows]
    return np.where(clamped, floor, raw), clamped, neg, false_neg, d_neg, d_false


def _softmax_rows(s_pos: np.ndarray, scores: np.ndarray, rows: np.ndarray):
    """Per row: -log(exp(s_pos) / (exp(s_pos) + sum of exp over the row's
    scores)), evaluated stably, with the softmax weight of each positive and
    of each score. A row without scores has loss 0 and weight 1."""
    m = s_pos.copy()
    np.maximum.at(m, rows, scores)
    w_pos = np.exp(s_pos - m)
    w = np.exp(scores - m[rows])
    z = w_pos + np.bincount(rows, w, minlength=s_pos.size)
    return m + np.log(z) - s_pos, w_pos / z, w / z[rows]


def _flat(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A block's filled cells in row-major order: (row of each id, ids)."""
    filled = block >= 0
    return np.nonzero(filled)[0], block[filled]


def _product(queries: np.ndarray, table: np.ndarray, ids: np.ndarray):
    """One product of the queries with the distinct rows of ids: (distinct
    ids, their rows, the B x distinct scores, the column of each id). The
    distinct ids come sorted from a presence mask over the table."""
    present = np.bincount(ids, minlength=len(table)) > 0
    distinct = np.flatnonzero(present)
    emb = table[distinct]
    return distinct, emb, queries @ emb.T, np.cumsum(present)[ids] - 1


def _push(tape, queries, distinct, emb, entries, pushed) -> np.ndarray:
    """Fold the (rows, columns, d loss / d score) entries of one product
    into its B x distinct matrix G. The table rows of the pushed columns get
    G^T Q in one tape entry; returns the queries' gradient G E."""
    rows, cols, grads = (np.concatenate(part) for part in zip(*entries))
    size = distinct.size
    g = np.bincount(rows * size + cols, grads, minlength=len(queries) * size)
    g = g.reshape(len(queries), size)
    keep = np.bincount(pushed, minlength=size) > 0
    tape.add_entity(distinct[keep], g[:, keep].T @ queries)
    return g @ emb


def _contrastive(
    batch: TripleBatch,
    negatives: NegativeSampleBatch,
    model: EmbeddingModel,
    cfg: LossConfig | None,
    tape: GradientTape | None,
    bidirectional: bool = False,
) -> LossValue:
    """The batched core behind every loss. cfg None makes the negative mass
    the plain sum of exp(s) over the negatives; a LossConfig makes it the
    clamped debiased estimate of _debiased_mass.

    One product scores the batch's tails and negatives, and a second one the
    structure samples, so that they cannot change how the negatives' scores
    round. The tape gets the tail of each triple with negatives or contexts,
    the negatives of each unclamped triple and, at tau != 0, the structure
    samples of each unclamped triple."""
    n = len(batch)
    if len(negatives.hard_and_batch_negatives) != n:
        raise ValueError("negative sample batch does not match the triple batch size")
    if cfg is not None and len(negatives.structure_samples) != n:
        raise ValueError("structure samples missing for some triples")
    if bidirectional and len(negatives.negative_contexts) != n:
        raise ValueError("negative contexts missing for some triples")
    queries, cache = aggregate_batch(model, batch.heads(), batch.relations())
    rows = np.arange(n)
    tails = np.fromiter((t.tail for t in batch.triples), dtype=np.int64, count=n)
    neg_rows, neg_ids = _flat(negatives.hard_and_batch_negatives)
    ids, emb, scores, col = _product(queries, model.entity_table, np.concatenate([tails, neg_ids]))
    tail_col, neg_col = col[:n], col[n:]
    s_pos, sigma = scores[rows, tail_col], scores[neg_rows, neg_col]
    has_neg = np.bincount(neg_rows, minlength=n) > 0
    touched = has_neg  # the triples whose tail goes to the tape
    clamped, false_neg = np.zeros(n, dtype=bool), np.zeros(n)
    with np.errstate(over="ignore", divide="ignore"):
        pos = np.exp(s_pos)
        if cfg is None:
            term, p_pos, g_neg = _softmax_rows(s_pos, sigma, neg_rows)
            neg = mass = np.bincount(neg_rows, np.exp(sigma), minlength=n)
        else:
            # a triple without negatives contributes nothing at all
            structure = np.where(has_neg[:, None], negatives.structure_samples, -1)
            struct_rows, struct_ids = _flat(structure)
            s_ids, s_emb, s_scores, s_col = _product(queries, model.entity_table, struct_ids)
            rho = s_scores[struct_rows, s_col]
            mass, clamped, neg, false_neg, d_neg, d_false = _debiased_mass(
                sigma, neg_rows, rho, struct_rows, n, cfg
            )
            # a row without negatives has mass 0: log -inf, loss 0, p_pos 1
            lse = np.logaddexp(s_pos, np.log(mass))
            term = lse - s_pos
            p_pos = np.exp(s_pos - lse)
            d_mass = np.exp(-lse)  # d loss / d mass = 1 / (exp(s+) + mass)
            g_neg = d_mass[neg_rows] * d_neg
    entries = [(rows, tail_col, p_pos - 1.0), (neg_rows, neg_col, g_neg)]
    total = term.sum()
    if bidirectional:
        # the reversed term: each tail against the batch's other queries,
        # whose scores sit in the tail's column of the product
        ctx_rows, ctx = _flat(negatives.negative_contexts)
        ctx_term, p_back, p_ctx = _softmax_rows(s_pos, scores[ctx, tail_col[ctx_rows]], ctx_rows)
        total += ctx_term.sum()
        entries += [(rows, tail_col, p_back - 1.0), (ctx, tail_col[ctx_rows], p_ctx)]
        touched = has_neg | (np.bincount(ctx_rows, minlength=n) > 0)
    value = LossValue(
        loss=float(total),
        triple_count=n,
        pos=float(pos.sum()) / n,
        neg=float(neg.sum()) / n,
        false_neg=float(false_neg.sum()) / n,
        neg_hasa=float(mass.sum()) / n,
        clamp_hits=int(clamped.sum()),
    )
    if tape is None:
        return value
    pushed = np.concatenate([tail_col[touched], neg_col[~clamped[neg_rows]]])
    d_queries = _push(tape, queries, ids, emb, entries, pushed)
    if cfg is not None and cfg.tau != 0.0:
        entry = (struct_rows, s_col, d_mass[struct_rows] * d_false)
        pushed = s_col[~clamped[struct_rows]]
        d_queries += _push(tape, queries, s_ids, s_emb, [entry], pushed)
    backward(model, cache, d_queries, tape)
    return value


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
