"""Contrastive losses over (head, relation, tail) triples.

Every loss is InfoNCE, log(exp(s+) + M) - s+ per triple with s = e_hr . e,
computed for the whole batch by one core without a per-triple loop. The
negative mass M is carried as a log, so large scores give a finite loss:

  log M = log(K / (1 - tau)) + log neg + log1p(-share), at least log(K eps)

where neg estimates E[exp(s)] from the triple's K negatives, fn the same
from its structure samples (drawn from the head's 1-/2-hop ring), share is
tau fn / neg (eq7) or tau (1 - tau) fn / neg (alg1), and eps the floor.
simple_infonce (in-batch negatives) and hard_infonce (hard negatives
appended) are one plain form: tau 0, alg1, no floor and no structure
samples, where K times the mean of exp(s) is the plain sum. hasa_loss reads
its knobs from a LossConfig, and hasa_plus_loss adds a reversed term: the
plain form with the tail as the anchor and the batch's other (head,
relation) queries as its negatives.

The core scores the batch's queries against the distinct entities of each
group with one product, reads each row's scores as a (batch x width) block,
and turns d loss / d score into one (batch x distinct entities) matrix G
per group: the entity rows get G^T Q and the queries G E. Losses return the
batch sum plus diagnostics, and accumulate exact analytic gradients into a
GradientTape when one is passed. Every formula here is paired with an
independent scalar oracle in the test suite, and all gradients are verified
against central finite differences.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import TripleBatch
from .model import EmbeddingModel, GradientTape, aggregate_batch, backward
from .sampling import NegativeSampleBatch

DEBIAS_VARIANTS = ("eq7", "alg1")


@dataclass(frozen=True)
class LossConfig:
    """Knobs of the debiased losses: tau is the prior probability that a
    sampled negative is actually a true fact, floor_epsilon bounds the
    negative mass from below at K * floor_epsilon, and debias_variant picks
    eq7, M = K (neg - tau fn) / (1 - tau) over self-normalized estimates, or
    alg1, M = K (neg / (1 - tau) - tau fn) over plain means."""

    tau: float = 0.0
    floor_epsilon: float = 1e-6
    debias_variant: str = "eq7"

    def __post_init__(self):
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau must lie in [0, 1), got {self.tau}")
        if not 0.0 < self.floor_epsilon < math.inf:
            raise ValueError(f"floor_epsilon must be finite and > 0, got {self.floor_epsilon}")
        if self.debias_variant not in DEBIAS_VARIANTS:
            raise ValueError(
                f"debias_variant must be one of {DEBIAS_VARIANTS}, got {self.debias_variant!r}"
            )


@dataclass
class LossValue:
    """Batch loss plus the mean per-triple diagnostics of its pieces: the
    exponentiated positive score, the negative mass (the plain sum for the
    plain losses, the estimate neg before debiasing for the debiased ones),
    the false-negative estimate, the debiased (clamped) negative mass, and
    how many triples hit the clamp. A diagnostic too large for a float is
    inf."""

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


_LOWEST = -np.finfo(np.float64).max  # a finite shift for a row without scores
_LOG_MAX = math.log(np.finfo(np.float64).max)  # exp overflows above it


def _log_estimate(block: np.ndarray, variant: str):
    """Per row of a block of scores, -inf marking an empty cell: the log of
    an estimate of E[exp(s)] (-inf for a row without scores), the block of
    d log estimate / d score, and the count K of scores. With c the row's
    maximum and w = exp(s - c), eq7 is the self-normalized sum(exp(2s)) /
    sum(exp(s)) = exp(c) sum(w^2) / sum(w), which for samples drawn from a
    proposal estimates E[exp(s)] under the proposal tilted by exp(s); alg1
    is the mean exp(c) sum(w) / K."""
    if not block.size:
        return np.full(len(block), -np.inf), block, np.zeros(len(block), dtype=np.int64)
    count = (block > -np.inf).sum(axis=1)
    c = block.max(axis=1, initial=-np.inf)
    w = np.exp(block - np.maximum(c, _LOWEST)[:, None])
    # a row's maximum has w = 1, so only a row without scores sums below 1
    s1 = np.maximum(w.sum(axis=1), 1.0)
    if variant == "eq7":
        s2 = np.maximum((w * w).sum(axis=1), 1.0)
        return c + np.log(s2 / s1), w * (2.0 * w / s2[:, None] - 1.0 / s1[:, None]), count
    return c + np.log(s1 / np.maximum(count, 1)), w / s1[:, None], count


def _log_mass(neg: np.ndarray, struct: np.ndarray, tau=0.0, variant="alg1", floor=0.0):
    """log M per row from blocks of negative and structure-sample scores (see
    the module docstring); the defaults give the plain sum of exp(s). Returns
    (log M, clamped, d log M / d neg, d log M / d struct, log neg, log fn).
    A row without negatives has log M = -inf; a clamped row has the floor
    and zero derivatives. A step that cannot change M is skipped: the share
    at a rate of 0 or without structure samples, the clamp without a floor."""
    log_neg, d_neg, k = _log_estimate(neg, variant)
    log_fn, d_fn, _ = _log_estimate(struct, variant)
    log_mass = np.log(np.maximum(k, 1) / (1.0 - tau)) + log_neg
    rate = tau if variant == "eq7" else tau * (1.0 - tau)
    if rate and struct.size:
        share = np.exp(np.minimum(math.log(rate) + log_fn - np.maximum(log_neg, _LOWEST), 0.0))
        # a share of 1 stands for a raw mass <= 0, whose log is -inf
        log_mass += np.log1p(-share, out=np.full(len(k), -np.inf), where=share < 1.0)
        # d log M / d neg = d log neg / (1 - share) and d log M / d struct =
        # -share d log fn / (1 - share)
        inv = np.divide(1.0, 1.0 - share, out=np.zeros(len(k)), where=share < 1.0)
        d_neg *= inv[:, None]
        d_fn *= -(share * inv)[:, None]
    else:
        d_fn *= 0.0  # the share is 0 whatever the structure scores
    clamped = np.zeros(len(k), dtype=bool)
    if floor:
        least = k * floor
        log_floor = np.log(least, out=np.full(len(k), -np.inf), where=least > 0.0)
        clamped = log_mass < log_floor
        log_mass = np.where(clamped, log_floor, log_mass)
        d_neg *= ~clamped[:, None]
        d_fn *= ~clamped[:, None]
    return log_mass, clamped, d_neg, d_fn, log_neg, log_fn


def _term(s_pos: np.ndarray, log_mass: np.ndarray):
    """Per row, log(exp(s+) + M) - s+ and d term / d log M = M / (exp(s+) +
    M); d term / d s+ is minus the latter. A row with M = 0 has term 0."""
    lse = np.logaddexp(s_pos, log_mass)
    return lse - s_pos, np.exp(log_mass - lse)


def _mean_exp(logs: np.ndarray) -> list[float]:
    """Per row of logs, the mean of exp evaluated stably: 0 for a row of
    -inf, inf where it overflows."""
    log_mean = np.logaddexp.reduce(logs, axis=1) - math.log(logs.shape[1])
    return [math.inf if x > _LOG_MAX else math.exp(x) for x in log_mean.tolist()]


def _product(queries: np.ndarray, table: np.ndarray, block: np.ndarray):
    """One product of the queries with the distinct entities of a block of
    ids, -1 marking an empty cell: (the sorted ids of the product's columns,
    their rows, the scores, each cell's column, each cell's score in its row
    or -inf if empty). Empty cells share one extra last column, id
    len(table), which borrows a table row: it is masked out of the cells
    and gets no gradient."""
    present = np.zeros(len(table) + 1, dtype=bool)
    present[block] = True
    ids = np.flatnonzero(present)
    emb = table[np.minimum(ids, len(table) - 1)]
    scores = queries @ emb.T
    col = np.cumsum(present)[block] - 1
    cells = np.where(block >= 0, scores[np.arange(len(block))[:, None], col], -np.inf)
    return ids, emb, scores, col, cells


def _push(tape, queries, ids, emb, entries, pushed) -> np.ndarray:
    """Fold the (rows, columns, d loss / d score) blocks of one product into
    its B x columns matrix G. The table rows of the pushed columns get G^T Q
    in one tape entry; returns the queries' gradient G E."""
    size = len(emb)
    index = np.concatenate([(rows * size + cols).ravel() for rows, cols, _ in entries])
    grads = np.concatenate([grads.ravel() for _, _, grads in entries])
    g = np.bincount(index, grads, minlength=len(queries) * size).reshape(len(queries), size)
    keep = np.bincount(pushed, minlength=size) > 0
    tape.add_entity(ids[keep], g[:, keep].T @ queries)
    return g @ emb


def _contrastive(batch, negatives, model, tape, structure=None, tau=0.0, variant="alg1",
                 floor=0.0, bidirectional=False) -> LossValue:
    """The batched core behind every loss: structure is the (B x M) block of
    structure samples the mass reads (the plain forms read none), and tau,
    variant and floor are the knobs of _log_mass, whose defaults give the
    plain sum.

    One product scores the batch's tails and negatives, and a second one the
    structure samples, so that they cannot change how the negatives' scores
    round. The tape gets the tail of each triple with negatives or contexts,
    the negatives of each unclamped triple and, at tau != 0, the structure
    samples of each unclamped triple."""
    n = len(batch)
    if len(negatives.hard_and_batch_negatives) != n:
        raise ValueError("negative sample batch does not match the triple batch size")
    if structure is not None and len(structure) != n:
        raise ValueError("structure samples missing for some triples")
    if bidirectional and len(negatives.negative_contexts) != n:
        raise ValueError("negative contexts missing for some triples")
    queries, cache = aggregate_batch(model, batch.heads(), batch.relations())
    rows = np.arange(n)[:, None]
    # column 0 holds each triple's tail, the others its negatives
    block = np.concatenate([batch.tails()[:, None], negatives.hard_and_batch_negatives], axis=1)
    ids, emb, scores, col, cells = _product(queries, model.entity_table, block)
    s_pos = cells[:, 0]
    filled = block[:, 1:] >= 0
    has_neg = filled.any(axis=1)
    touched = has_neg  # the triples whose tail goes to the tape
    rho = np.empty((n, 0))
    if structure is not None:
        # a triple without negatives contributes nothing at all
        structure = np.where(has_neg[:, None], structure, -1)
        s_ids, s_emb, _, s_col, rho = _product(queries, model.entity_table, structure)
    log_mass, clamped, d_neg, d_rho, log_neg, log_fn = _log_mass(
        cells[:, 1:], rho, tau, variant, floor
    )
    term, p_mass = _term(s_pos, log_mass)
    grad = np.concatenate([-p_mass[:, None], p_mass[:, None] * d_neg], axis=1)
    entries = [(rows, col, grad)]
    total = term.sum()
    if bidirectional:
        # the reversed term: each tail against the batch's other queries,
        # whose scores sit in the tail's column of the product
        ctx = negatives.negative_contexts
        ctx_scores = np.where(ctx >= 0, scores[ctx, col[:, :1]], -np.inf)
        ctx_mass, _, d_ctx, *_ = _log_mass(ctx_scores, np.empty((n, 0)))
        ctx_term, p_ctx = _term(s_pos, ctx_mass)
        total += ctx_term.sum()
        grad[:, 0] -= p_ctx
        # an empty cell has d_ctx 0, so any row index serves it
        entries.append((np.maximum(ctx, 0), col[:, :1], p_ctx[:, None] * d_ctx))
        touched = has_neg | (ctx >= 0).any(axis=1)
    # the plain forms, the only ones without a floor, report their sum as neg
    diagnostics = [s_pos, log_neg if floor else log_mass, log_fn, log_mass]
    pos, neg, false_neg, neg_hasa = _mean_exp(np.array(diagnostics))
    value = LossValue(float(total), n, pos, neg, false_neg, neg_hasa, int(clamped.sum()))
    if tape is None:
        return value
    unclamped = ~clamped[:, None]
    pushed = np.concatenate([col[touched, 0], col[:, 1:][filled & unclamped]])
    d_queries = _push(tape, queries, ids, emb, entries, pushed)
    if tau != 0.0:
        entry = (rows, s_col, p_mass[:, None] * d_rho)
        pushed = s_col[(structure >= 0) & unclamped]
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
    return _contrastive(batch, negatives, model, tape)


def hard_infonce(
    batch: TripleBatch,
    negatives: NegativeSampleBatch,
    model: EmbeddingModel,
    tape: GradientTape | None = None,
) -> LossValue:
    """Same functional form as simple_infonce; the difference is only where
    the negatives came from, so with identical negative ids the two losses
    agree exactly."""
    return _contrastive(batch, negatives, model, tape)


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
    return _contrastive(batch, negatives, model, tape, negatives.structure_samples, cfg.tau,
                        cfg.debias_variant, cfg.floor_epsilon)


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
    return _contrastive(batch, negatives, model, tape, negatives.structure_samples, cfg.tau,
                        cfg.debias_variant, cfg.floor_epsilon, bidirectional=True)
