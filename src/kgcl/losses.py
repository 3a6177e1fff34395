"""Contrastive losses over (head, relation, tail) triples.

Every loss is InfoNCE, log(exp(s+) + M) - s+ per triple with s = e_hr . e,
computed for the whole batch by one core without a per-triple loop. The
negative mass M is carried as a log, so large scores give a finite loss:

  log M = log(K neg) - log(1 - tau) + log1p(-share), at least log(K eps)

where neg estimates E[exp(s)] from the triple's K negatives (the estimator
returns K neg directly), fn the same from its structure samples (drawn
from the head's 1-/2-hop ring), share is tau fn / neg (eq7) or
tau (1 - tau) fn / neg (alg1), and eps the floor. simple_infonce (in-batch
negatives) and hard_infonce (hard negatives appended) are one plain form:
tau 0, alg1, no floor and no structure samples, where K neg is the plain
sum of exp(s). hasa_loss reads its knobs from a LossConfig, and
hasa_plus_loss adds a reversed term: the plain form with the tail as the
anchor and the batch's other (head, relation) queries as its negatives.

The core splits a block of ids by column. A column whose filled cells all
hold one id is shared, as the 2B batch slots of a training step are: one
product Q E^T scores all shared columns, and their block G of d loss /
d score is that product's gradient, so their rows get G^T Q and the
queries G E without a gather or scatter. Every other cell (a tail, a top-k
negative, a structure sample) is a row dot with its gathered row, and each
one that reaches the table adds its own gradient row to the tape, which
coalesces them to one row per distinct entity. Losses return the batch sum
plus diagnostics, and accumulate exact analytic gradients into a
GradientTape when one is passed. Every formula here is paired with an
independent scalar oracle in the test suite, and all gradients are verified
against central finite differences.
"""

import math
from dataclasses import dataclass

import numpy as np

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
    """Batch loss plus the mean per-triple diagnostics of its pieces: pos,
    the exponentiated positive score; neg, the negative mass before
    debiasing, K neg in the units of neg_hasa in every mode (the plain sum
    for the plain losses); false_neg, the false-negative estimate fn;
    neg_hasa, the debiased (clamped) negative mass M; and how many triples
    hit the clamp. A diagnostic too large for a float is inf."""

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


def _log_estimate(block: np.ndarray, variant: str, count=None):
    """Per row of a block of scores, -inf marking an empty cell: log K neg,
    where neg estimates E[exp(s)] from the row's K scores (-inf for a row
    without scores), and its derivatives by the scores, written over block.
    With c the row's maximum and w = exp(s - c), alg1 takes the mean, so
    K neg is the plain sum exp(c) sum(w). eq7 takes the self-normalized
    sum(exp(2s)) / sum(exp(s)) = exp(c) sum(w^2) / sum(w), which for samples
    drawn from a proposal estimates E[exp(s)] under the proposal tilted by
    exp(s); its K is count, each row's scores above -inf, or counted here."""
    if not block.size:
        return np.full(len(block), -np.inf), block
    c = block.max(axis=1)
    count = (block > -np.inf).sum(axis=1) if count is None and variant == "eq7" else count
    w = np.exp(np.subtract(block, np.maximum(c, _LOWEST)[:, None], out=block), out=block)
    # a row's maximum has w = 1, so only a row without scores sums below 1
    s1 = np.maximum(w.sum(axis=1), 1.0)
    if variant == "eq7":
        d = np.multiply(w, w)  # one scratch block: w^2, then 2 w / s2 - 1 / s1
        s2 = np.maximum(d.sum(axis=1), 1.0)
        np.divide(np.multiply(w, 2.0, out=d), s2[:, None], out=d)
        d -= (1.0 / s1)[:, None]
        return c + np.log(np.maximum(count, 1) * s2 / s1), np.multiply(w, d, out=w)
    return c + np.log(s1), np.divide(w, s1[:, None], out=w)


def _log_mass(neg: np.ndarray, struct=None, tau=0.0, variant="alg1", floor=0.0):
    """log M per row from blocks of negative and structure-sample scores (see
    the module docstring); no struct block means no structure samples, and
    the defaults give the plain sum of exp(s). Returns (log M, clamped,
    d log M / d neg, d log M / d struct, log K neg, log fn). A row without
    negatives has log M = -inf; a clamped row has the floor and zero
    derivatives. A step that cannot change M is skipped: the share at a
    rate of 0 or without structure samples, the clamp without a floor. The
    derivatives are written over the blocks of scores."""
    rate = tau if variant == "eq7" else tau * (1.0 - tau)
    debias = rate and struct is not None and struct.size
    k = (neg > -np.inf).sum(axis=1) if floor or debias or variant == "eq7" else None
    log_neg, d_neg = _log_estimate(neg, variant, k)
    log_mass, log_fn, d_fn = log_neg - math.log1p(-tau), np.full(len(neg), -np.inf), neg[:, :0]
    if struct is not None:
        samples = (struct > -np.inf).sum(axis=1)
        log_fn, d_fn = _log_estimate(struct, variant, samples)
        log_fn -= np.log(np.maximum(samples, 1))
    scale = None  # d_neg's row scale, None for 1
    if debias:
        # share = rate fn / neg, with neg = K neg / K
        log_k = np.log(k, out=np.full(len(k), -np.inf), where=k > 0)
        share = np.exp(np.minimum(math.log(rate) + log_fn + log_k - np.maximum(log_neg, _LOWEST),
                                  0.0))
        # a share of 1 stands for a raw mass <= 0, whose log is -inf
        log_mass += np.log1p(-share, out=np.full(len(k), -np.inf), where=share < 1.0)
        # d log M / d neg = d log neg / (1 - share) and d log M / d struct =
        # -share d log fn / (1 - share)
        scale = np.divide(1.0, 1.0 - share, out=np.zeros(len(k)), where=share < 1.0)
        d_fn *= -(share * scale)[:, None]
    elif d_fn.size:
        d_fn *= 0.0  # the share is 0 whatever the structure scores
    clamped = np.zeros(len(neg), dtype=bool)
    if floor:
        least = k * floor
        log_floor = np.log(least, out=np.full(len(k), -np.inf), where=least > 0.0)
        clamped = log_mass < log_floor
        log_mass = np.where(clamped, log_floor, log_mass)
        # exact: a clamped row's factor is 0.0 and an unclamped row's 1.0
        scale = ~clamped if scale is None else scale * ~clamped
        d_fn *= ~clamped[:, None]
    if scale is not None:
        d_neg *= scale[:, None]
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


def _score(anchors, table, block, own, present):
    """Score each row's anchor against the table rows its rows of two blocks
    of ids name, -1 marking an empty cell (present is block >= 0): the shared
    columns of block with one product, every other cell, own's included,
    with a row dot. Returns block's cells (C-contiguous: shared columns, then
    the rest) and own's, -inf where empty; which of them hold an id, side by
    side; and pull(grad, grad_own, push). Given d loss / d cell over block's
    cells and own's leading columns, and the cells whose table row takes the
    gradient, pull returns d loss / d anchors, and the table ids with their
    gradient rows: one per shared column with a cell in push, one per other
    cell."""
    top, unsigned = block.max(axis=0), block.dtype.char.upper()  # int64 -> uint64
    # -1 reads as the largest unsigned id, so a column whose unsigned minimum
    # is its largest id is shared, and so is one without ids
    shared = block.view(unsigned).min(axis=0) >= top.view(unsigned)
    every, k = shared.all(), block.shape[1]
    dense_ids = top if every else top[shared]
    ids = own if every else np.concatenate([block.compress(~shared, axis=1), own], axis=1)
    dense, rows, size = table[dense_ids], table[ids], dense_ids.size
    # a view when the shared columns lead, as a training step's slots do
    lead = present[:, :size] if every or shared[:size].all() else present.compress(shared, axis=1)
    filled = np.concatenate([lead, ids >= 0], axis=1)
    cells, own_cells = np.empty(block.shape), np.empty(own.shape)
    np.matmul(anchors, dense.T, out=cells[:, :size])
    if k > size:  # an einsum costs its dispatch even over no cells
        np.einsum("bwd,bd->bw", rows[:, : k - size], anchors, out=cells[:, size:])
    np.einsum("bwd,bd->bw", rows[:, k - size :], anchors, out=own_cells)
    np.copyto(cells, -np.inf, where=~filled[:, :k])
    np.copyto(own_cells, -np.inf, where=~filled[:, k:])

    def pull(grad, grad_own, push):
        # the shared block of grad is the gradient G of their product: its
        # rows get G^T anchors and the anchors G dense
        g_dense = grad[:, :size]
        g_own = grad_own if k == size else np.concatenate([grad[:, size:], grad_own], axis=1)
        width = g_own.shape[1]
        d_anchors = g_dense @ dense + np.einsum("bw,bwd->bd", g_own, rows[:, :width])
        keep, cells = push[:, :size].any(axis=0), push[:, size:]
        pushed = np.concatenate([dense_ids[keep], ids[:, :width][cells]])
        grads = [(g_dense.T @ anchors)[keep], (g_own[:, :, None] * anchors[:, None, :])[cells]]
        return d_anchors, pushed, np.concatenate(grads)

    return cells, own_cells, filled, pull


def _contrastive(batch, negatives, model, tape, structure=None, tau=0.0, variant="alg1",
                 floor=0.0, bidirectional=False) -> LossValue:
    """The batched core behind every loss: structure is the (B x M) block of
    structure samples the mass reads (the plain forms read none), and tau,
    variant and floor are the knobs of _log_mass, whose defaults give the
    plain sum. The tape gets the tail of each triple with negatives or
    contexts, the negatives of each unclamped triple and, at tau != 0, the
    structure samples of each unclamped triple."""
    n = len(batch)
    if len(negatives.hard_and_batch_negatives) != n:
        raise ValueError("negative sample batch does not match the triple batch size")
    if structure is not None and len(structure) != n:
        raise ValueError("structure samples missing for some triples")
    if bidirectional and len(negatives.negative_contexts) != n:
        raise ValueError("negative contexts missing for some triples")
    heads, relations, tails = batch.T
    queries, cache = aggregate_batch(model, heads, relations)
    block = negatives.hard_and_batch_negatives
    k = block.shape[1]
    present = block >= 0
    has_neg = present.any(axis=1)
    own = tails[:, None]  # the tail's cell, then the structure samples'
    if structure is not None:
        # a triple without negatives contributes nothing at all
        own = np.concatenate([own, np.where(has_neg[:, None], structure, -1)], axis=1)
    cells, own_cells, filled, pull = _score(queries, model.entity_table, block, own, present)
    s_pos = own_cells[:, 0]  # read before the gradient is written over the cells
    log_mass, clamped, d_neg, d_rho, log_neg, log_fn = _log_mass(
        cells, None if structure is None else own_cells[:, 1:], tau, variant, floor
    )
    term, p_mass = _term(s_pos, log_mass)
    total, d_pos, touched = term.sum(), -p_mass, has_neg
    if bidirectional:
        # the reversed term: each tail against the batch's other queries
        contexts = negatives.negative_contexts
        anchors = model.entity_table[tails]
        ctx_cells, _, ctx_filled, ctx_pull = _score(anchors, queries, contexts, own[:, :0],
                                                    contexts >= 0)
        ctx_mass, _, d_ctx, *_ = _log_mass(ctx_cells)
        ctx_term, p_ctx = _term(s_pos, ctx_mass)
        total, d_pos = total + ctx_term.sum(), d_pos - p_ctx
        touched = has_neg | ctx_filled.any(axis=1)
    value = LossValue(float(total), n, *_mean_exp(np.array([s_pos, log_neg, log_fn, log_mass])),
                      int(clamped.sum()) if floor else 0)
    if tape is None:
        return value
    # the gradient by the cells, written over them: negatives, tail, structure
    d_neg *= p_mass[:, None]
    own_cells[:, 0], width = d_pos, 1 + (d_rho.shape[1] if tau != 0.0 else 0)
    if width > 1:  # the structure gradient is read only when it is pushed
        d_rho *= p_mass[:, None]
    push = filled[:, : k + width]
    if floor:
        push &= ~clamped[:, None]
    push[:, k] = touched
    d_queries, ids, rows = pull(d_neg, own_cells[:, :width], push)
    tape.add_entity(ids, rows)
    if bidirectional:
        d_ctx *= p_ctx[:, None]
        d_tails, at, rows = ctx_pull(d_ctx, d_ctx[:, :0], ctx_filled)
        tape.add_entity(tails[touched], d_tails[touched])
        np.add.at(d_queries, at, rows)
    backward(model, cache, d_queries, tape)
    return value


def simple_infonce(batch: np.ndarray, negatives: NegativeSampleBatch, model: EmbeddingModel,
                   tape: GradientTape | None = None) -> LossValue:
    """Contrastive loss -log(exp(s+) / (exp(s+) + sum_j exp(s_j))) summed
    over the batch, with in-batch negatives. A triple with no negatives
    contributes zero loss and no gradient."""
    return _contrastive(batch, negatives, model, tape)


def hard_infonce(batch: np.ndarray, negatives: NegativeSampleBatch, model: EmbeddingModel,
                 tape: GradientTape | None = None) -> LossValue:
    """Same functional form as simple_infonce; the difference is only where
    the negatives came from, so with identical negative ids the two losses
    agree exactly."""
    return _contrastive(batch, negatives, model, tape)


def hasa_loss(batch: np.ndarray, negatives: NegativeSampleBatch, model: EmbeddingModel,
              cfg: LossConfig, tape: GradientTape | None = None) -> LossValue:
    """Debiased contrastive loss log(exp(s+) + NegMass) - s+ per triple,
    where NegMass subtracts a tau-weighted structure-sample estimate of the
    false-negative contribution from the plain negative mass. Triples whose
    head has no 1-/2-hop ring fall back to an uncorrected negative mass."""
    return _contrastive(batch, negatives, model, tape, negatives.structure_samples, cfg.tau,
                        cfg.debias_variant, cfg.floor_epsilon)


def hasa_plus_loss(batch: np.ndarray, negatives: NegativeSampleBatch, model: EmbeddingModel,
                   cfg: LossConfig, tape: GradientTape | None = None) -> LossValue:
    """hasa_loss plus, per triple, -log(exp(s+) / (exp(s+) +
    sum_j exp(e_t . q_j))) over the other (head, relation) queries q_j of
    the batch, so the tail embedding is also contrasted against competing
    contexts."""
    return _contrastive(batch, negatives, model, tape, negatives.structure_samples, cfg.tau,
                        cfg.debias_variant, cfg.floor_epsilon, bidirectional=True)
