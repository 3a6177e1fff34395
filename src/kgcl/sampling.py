"""Negative sampling: in-batch negatives, model-ranked hard negatives,
structure samples from the head's hop neighborhood, and the controlled
experiment that counts how many sampled negatives are actually missing true
facts."""

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import KnowledgeGraph, fact_keys
from .graph import StructureIndex, _draw_segments, _index_from_triples, draw_ring_samples, hop_table
from .model import EmbeddingModel, aggregate_batch

SAMPLER_KINDS = ("simple", "hard")

# the rows of a FalseNegReport histogram
LABELS = ("true", "false")

LOSS_MODES = ("simple", "hard", "hasa", "hasa_plus")

# cells per chunk of a (rows x columns) scan: a top-k pass, or the softmax
# draw's comparisons; B=256 over at most 4,096 entities takes one top-k pass
CELL_BUDGET = 1 << 20


@dataclass
class NegativeSampleBatch:
    """The negative material of one training batch as three (B x width)
    int64 blocks, row i belonging to triple i and -1 marking an empty cell.
    A loss reads only each block's filled cells.

    hard_and_batch_negatives: entity ids scored against the query; never
    contains the triple's own positive tail.
    structure_samples: entity ids drawn from the head's 1-/2-hop ring, used
    by the debiased losses; may legitimately contain the positive tail.
    negative_contexts: positions into the batch whose (head, relation) pairs
    act as competing queries for the tail; used by the bidirectional loss.
    """

    hard_and_batch_negatives: np.ndarray
    structure_samples: np.ndarray
    negative_contexts: np.ndarray

    def __len__(self) -> int:
        return len(self.hard_and_batch_negatives)

    def mean_negative_count(self) -> float:
        block = self.hard_and_batch_negatives  # an exact count: the mean of the row counts
        return float(np.count_nonzero(block >= 0) / len(block)) if len(block) else 0.0


def _select_topk(scores: np.ndarray, known: np.ndarray, k: int) -> np.ndarray:
    """Per row of a (B x N) score block, which it writes over, the k columns
    of highest score that known does not mark, best first: a tie goes to the
    lower column and NaN ranks below every number, as in a per-row lexsort of
    (column, -score). Raises ValueError when a row has under k unmarked columns."""
    # the fewest unmarked columns of a row, or k for no rows, with no ~known block
    free = known.shape[1] - np.count_nonzero(known, axis=1).max(initial=known.shape[1] - k)
    if free < k:
        raise ValueError(f"top-{k} requested but only {free} candidates are not known tails")
    np.copyto(scores, -np.inf, where=known)
    # k argmax passes: the first maximum wins, so a tie (-0.0 ties 0.0) goes left
    ids = np.zeros((len(scores), k), dtype=np.int64)
    picked = np.zeros((len(scores), k), dtype=scores.dtype)
    for j in range(k):
        ids[:, [j]] = at = np.argmax(scores, axis=1, keepdims=True)
        picked[:, [j]] = np.take_along_axis(scores, at, axis=1)
        np.put_along_axis(scores, at, -np.inf, axis=1)
    # a pick not above -inf is a NaN or a -inf cell, maybe known or picked twice:
    # its row is restored, last pick first, and ranked again by the exact key
    if (redo := np.flatnonzero(~(picked > -np.inf).all(axis=1))).size:
        for j in reversed(range(k)):
            scores[redo, ids[redo, j]] = picked[redo, j]
        ids[redo] = _key_topk(scores[redo], known[redo], k)
    return ids


def _key_topk(scores: np.ndarray, known: np.ndarray, k: int) -> np.ndarray:
    """_select_topk's picks by an int64 key; leaves the scores as they are."""
    # an order-preserving int64 key of score (x + 0.0 folds -0.0 into 0.0), then
    # NaN below -inf and a known column below everything
    work = np.add(scores, 0.0, dtype=np.float64).view(np.int64)
    work ^= (work >> 63) & np.iinfo(np.int64).max
    floor = np.iinfo(np.int64).min
    np.copyto(work, floor + 1, where=np.isnan(scores))
    np.copyto(work, floor, where=known)
    ids = np.zeros((len(work), k), dtype=np.int64)
    for j in range(k):
        ids[:, j] = np.argmax(work, axis=1)
        np.put_along_axis(work, ids[:, [j]], floor, axis=1)
    return ids


def assemble_training_negatives(
    batch: np.ndarray,
    model: EmbeddingModel,
    kg: KnowledgeGraph,
    idx: StructureIndex | None,
    m_structure: int,
    seed: int,
    mode: str,
    hard_k: int,
) -> NegativeSampleBatch:
    """Build the NegativeSampleBatch for one step.

    Every mode starts from the batch's 2B entity slots with each copy of
    the triple's own tail emptied; the hard modes append the hard_k
    highest-scoring entities not known to be true train tails of (h, r).
    Structure samples are drawn with replacement from the uniform 1-/2-hop
    ring of each head in batch order; an empty ring leaves its row empty.
    Only those draws consume randomness. The hasa_plus contexts of a triple
    are the batch's other positions.
    """
    if mode not in LOSS_MODES:
        raise ValueError(f"unknown negative mode {mode!r}, expected one of {LOSS_MODES}")
    needs_structure = mode in ("hasa", "hasa_plus")
    if needs_structure and idx is None:
        raise ValueError(f"mode {mode!r} requires a structure index")
    size = len(batch)
    heads, rels, tails = batch.T
    slots = np.concatenate([heads, tails])
    negatives = slots[None, :].repeat(size, axis=0)
    np.copyto(negatives, -1, where=slots == tails[:, None])
    if mode != "simple":
        queries, _ = aggregate_batch(model, heads, rels)
        # score, mask and select a few rows at a time to bound the B x N block
        step = max(1, CELL_BUDGET // model.num_entities())
        hard = [
            _select_topk(
                queries[at : at + step] @ model.entity_table.T,
                kg.train_tail_mask(heads[at : at + step], rels[at : at + step]),
                hard_k,
            )
            for at in range(0, size, step)
        ]
        negatives = np.hstack([negatives, np.vstack(hard)])
    structure = (draw_ring_samples(idx, heads, m_structure, np.random.default_rng(seed))
                 if needs_structure else np.zeros((size, 0), dtype=np.int64))
    width = size if mode == "hasa_plus" else 0
    contexts = np.where(np.eye(size, width, dtype=bool), -1, np.arange(width))
    return NegativeSampleBatch(negatives, structure, contexts)


def split_retain_missing(
    triples: np.ndarray, fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Partition (n x 3) triples into a retained set and a "missing facts"
    set whose size is round(fraction * len(triples)). Both halves preserve
    the input order; the choice is a seeded permutation."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    order = np.random.default_rng(seed).permutation(len(triples))
    missing = np.zeros(len(triples), dtype=bool)
    missing[order[: int(round(fraction * len(triples)))]] = True
    return triples[~missing], triples[missing]


def bucket_labels(cap: int) -> list[str]:
    return [str(d) for d in range(cap)] + [f"{cap}+"]


@dataclass
class FalseNegReport:
    """Outcome of one sampler's false-negative experiment.

    counts holds one (K, sampler, false_count) row per requested K.
    histogram is a (2, distance_cap + 1) int64 array summed over all K
    values: row i counts the sampled negatives labeled LABELS[i], column d
    those d hops from the head in the retained graph, and the last column
    pools draws distance_cap or more hops away with unreachable ones.
    Reports with the same cap pool by adding their histograms.
    """

    sampler: str
    removal_fraction: float
    distance_cap: int
    counts: list[tuple[int, str, int]]
    histogram: np.ndarray

    @property
    def total_sampled(self) -> dict[str, int]:
        return dict(zip(LABELS, self.histogram.sum(axis=1).tolist()))


def draw_in_batch_negatives(tails: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """A (B x k) block: row i draws k negatives i.i.d. from the batch's tails
    without the copies of tails[i], as rng.choice(pool, k) would, rows in
    order from one stream; a -1 row has an empty pool and draws nothing."""
    others = tails != tails[:, None]
    # every row's pool in batch order, rows one after another
    pools = np.broadcast_to(tails, others.shape)[others]
    return _draw_segments(pools, np.count_nonzero(others, axis=1), k, rng)


def draw_softmax_negatives(
    model: EmbeddingModel,
    queries: np.ndarray,
    support: np.ndarray,
    tails: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """A (B x k) block: row i draws k ids i.i.d. from the softmax of their
    scores against queries[i] over the sorted support, which holds every
    tail, without tails[i], as rng.choice(candidates, k, p=softmax) would,
    rows in order from one stream. A one-entity support draws nothing (-1
    rows); non-finite probabilities raise ValueError."""
    if support.size < 2:
        return np.full((tails.size, k), -1, dtype=np.int64)
    # row i's column c holds support[c] before its own tail, support[c + 1] after
    cols = np.arange(support.size - 1)
    candidates = support[cols + (cols >= np.searchsorted(support, tails)[:, None])]
    # the stacked matvec rounds each row as the row's own matvec does
    scores = (model.entity_table[candidates] @ queries[:, :, None])[:, :, 0]
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs = weights / weights.sum(axis=1, keepdims=True)
    if not np.isfinite(probs).all():
        raise ValueError("candidate probabilities are not finite")
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random((tails.size, k))
    # a pick counts the row's cdf entries <= u, as searchsorted(side="right")
    # does, in row chunks of at most CELL_BUDGET comparisons
    step = max(1, CELL_BUDGET // max(1, k * cols.size))
    picks = np.vstack([
        np.count_nonzero(cdf[at : at + step, None] <= u[at : at + step, :, None], axis=2)
        for at in range(0, len(u), step)
    ])
    return np.take_along_axis(candidates, picks, axis=1)


def _experiment_batch(
    triples: np.ndarray,
    k: int,
    sampler: str,
    model: EmbeddingModel | None,
    reached: tuple[np.ndarray, np.ndarray, np.ndarray],
    hidden: np.ndarray,
    relation_count: int,
    entity_count: int,
    cap: int,
    seed_key: list[int],
) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    heads, rels, tails = triples.T
    if sampler == "simple":
        drawn = draw_in_batch_negatives(tails, k, rng)
    else:
        queries, _ = aggregate_batch(model, heads, rels)
        support = np.unique(np.concatenate([heads, tails]))
        drawn = draw_softmax_negatives(model, queries, support, tails, k, rng)
    filled = drawn >= 0
    owner, drawn = np.nonzero(filled)[0], drawn[filled]
    sources, keys, hops = reached
    wanted = np.searchsorted(sources, heads[owner]) * entity_count + drawn
    at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    # a draw beyond cap - 1 hops, or unreachable, falls in the last column;
    # the int64 hops keep a cap above the hop dtype's range from wrapping
    column = np.where(keys[at] == wanted, hops[at].astype(np.int64), cap)
    facts = (heads[owner] * relation_count + rels[owner]) * entity_count + drawn
    cells = (hidden[np.searchsorted(hidden, facts)] == facts) * (cap + 1) + column
    return np.bincount(cells, minlength=2 * (cap + 1)).reshape(2, cap + 1)


def run_false_negative_experiment(
    kg: KnowledgeGraph,
    removal_fraction: float,
    sampler: str,
    model: EmbeddingModel | None,
    k_values: list[int],
    seed: int,
    distance_cap: int = 5,
    max_triples: int | None = None,
    workers: int = 1,
) -> FalseNegReport:
    """Hide a seeded fraction of train facts, then measure how often each
    sampler proposes one of the hidden facts as a negative.

    For each K the retained triples are batched with B = (K+1)/2 rounded
    down, matching K = 2B - 1 in-batch negatives per positive. Each batch
    draws K negatives per triple from its own seed stream, in one call: the
    simple sampler from the batch tail-frequency distribution
    (draw_in_batch_negatives), the hard sampler from the softmax of model
    scores over the distinct batch entities (draw_softmax_negatives); both
    exclude the triple's own tail and renormalize. A sampled negative t is
    labeled false when (h, r, t) is one of the hidden facts, and counted in
    the report's histogram under its label and its hop distance from h in
    the retained graph, read from one hop_table over the distinct heads; the
    batches' count arrays are summed. K values must be distinct."""
    if sampler not in SAMPLER_KINDS:
        raise ValueError(f"unknown sampler {sampler!r}, expected one of {SAMPLER_KINDS}")
    if sampler == "hard" and model is None:
        raise ValueError("the hard sampler needs a scoring model")
    if not k_values or min(k_values) < 1 or len(set(k_values)) < len(k_values):
        raise ValueError(f"k_values must be one or more distinct K >= 1, got {k_values}")
    if distance_cap < 1:
        raise ValueError(f"distance_cap must be >= 1, got {distance_cap}")
    if max_triples is not None and max_triples < 1:
        raise ValueError(f"max_triples must be >= 1, got {max_triples}")
    retain, missing = split_retain_missing(kg.train, removal_fraction, seed)
    n = kg.num_entities()
    r = kg.num_relations()
    # a sentinel above every key: each search lands on an entry, even with none hidden
    hidden = np.append(fact_keys(missing, r, n), np.iinfo(np.int64).max)
    idx = _index_from_triples(retain, n)
    if max_triples is not None and len(retain) > max_triples:
        sub_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        chosen = np.sort(sub_rng.choice(len(retain), size=max_triples, replace=False))
        retain = retain[chosen]
    # each distinct head's entities within cap - 1 hops, read by every batch
    sources = np.unique(retain[:, 0])
    reached = (sources, *hop_table(idx, sources, distance_cap - 1))
    sampler_id = SAMPLER_KINDS.index(sampler)
    counts = []
    hist = np.zeros((len(LABELS), distance_cap + 1), dtype=np.int64)
    for k_pos, k in enumerate(k_values):
        batch_size = max(1, (k + 1) // 2)
        order_rng = np.random.default_rng(np.random.SeedSequence([seed, 2, k_pos]))
        order = order_rng.permutation(len(retain))
        batches = [retain[order[start : start + batch_size]]
                   for start in range(0, len(order), batch_size)]
        jobs = [
            (chunk, k, sampler, model, reached, hidden, r, n, distance_cap,
             [seed, 3, sampler_id, k_pos, b])
            for b, chunk in enumerate(batches)
        ]
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(lambda j: _experiment_batch(*j), jobs))
        else:
            results = [_experiment_batch(*j) for j in jobs]
        k_hist = sum(results, np.zeros_like(hist))
        counts.append((k, sampler, int(k_hist[LABELS.index("false")].sum())))
        hist += k_hist
    return FalseNegReport(
        sampler=sampler,
        removal_fraction=removal_fraction,
        distance_cap=distance_cap,
        counts=counts,
        histogram=hist,
    )


def write_false_negative_counts(reports: list[FalseNegReport], path: str) -> None:
    """CSV with one row per (K, sampler): K,sampler,false_count."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["K", "sampler", "false_count"])
        for report in reports:
            for k, sampler, count in report.counts:
                writer.writerow([k, sampler, count])


def write_false_negative_histogram(reports: list[FalseNegReport], path: str) -> None:
    """CSV with one row per (sampler, label, bucket): sampler,label,d_bucket,count."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sampler", "label", "d_bucket", "count"])
        for report in reports:
            for d, bucket in enumerate(bucket_labels(report.distance_cap)):
                for label in ("false", "true"):
                    count = report.histogram[LABELS.index(label), d]
                    writer.writerow([report.sampler, label, bucket, count])
