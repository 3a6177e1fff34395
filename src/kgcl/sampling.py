"""Negative sampling: in-batch negatives, model-ranked hard negatives,
structure samples from the head's hop neighborhood, and the controlled
experiment that counts how many sampled negatives are actually missing true
facts."""

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .data import KnowledgeGraph, Triple, TripleBatch, fact_keys
from .graph import StructureIndex, _index_from_triples, distances_within, draw_ring_samples
from .model import EmbeddingModel, aggregate_batch

SAMPLER_KINDS = ("simple", "hard")

# the rows of a FalseNegReport histogram
LABELS = ("true", "false")

LOSS_MODES = ("simple", "hard", "hasa", "hasa_plus")

DEFAULT_HARD_K = 3

# score cells per top-k pass; B=256 over at most 4,096 entities takes one pass
TOPK_CELL_BUDGET = 1 << 20


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
        filled = np.count_nonzero(self.hard_and_batch_negatives >= 0, axis=1)
        return float(filled.mean()) if filled.size else 0.0


def in_batch_negative_sample(
    tails: np.ndarray, own_tail: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw count negatives i.i.d. from the batch's tails with every copy of
    own_tail removed, so each distinct tail is drawn in proportion to how
    often it occurs. Returns an empty array, drawing nothing, when every
    tail is own_tail."""
    pool = tails[tails != own_tail]
    if pool.size == 0:
        return pool
    return rng.choice(pool, size=count, replace=True)


def _select_topk(scores: np.ndarray, known: np.ndarray, k: int) -> np.ndarray:
    """Per row of a (B x N) score block, the k columns of highest score that
    known does not mark, best first. A tie goes to the lower column, and NaN
    ranks below every number, as in a per-row lexsort of (column, -score).
    Raises ValueError when a row has fewer than k unmarked columns."""
    free = np.count_nonzero(~known, axis=1).min(initial=k)
    if free < k:
        raise ValueError(f"top-{k} requested but only {free} candidates are not known tails")
    # an order-preserving int64 key of score (x + 0.0 folds -0.0 into 0.0), then
    # NaN below -inf and a known column below everything
    work = np.add(scores, 0.0, dtype=np.float64).view(np.int64)
    work ^= (work >> 63) & np.iinfo(np.int64).max
    floor = np.iinfo(np.int64).min
    np.copyto(work, floor + 1, where=np.isnan(scores))
    np.copyto(work, floor, where=known)
    # k passes of argmax, which returns the first maximum, so a tie goes to
    # the lower column; each pick then drops to the floor
    ids = np.zeros((len(work), k), dtype=np.int64)
    for j in range(k):
        ids[:, j] = np.argmax(work, axis=1)
        np.put_along_axis(work, ids[:, [j]], floor, axis=1)
    return ids


def hard_negative_softmax_sample(
    e_hr: np.ndarray,
    candidate_ids: np.ndarray,
    model: EmbeddingModel,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw count candidates i.i.d. from the softmax of their scores against
    the query."""
    candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
    if candidate_ids.size == 0:
        raise ValueError("cannot sample from an empty candidate set")
    scores = model.entity_table[candidate_ids] @ np.asarray(e_hr, dtype=np.float64)
    probs = _softmax(scores)
    return rng.choice(candidate_ids, size=count, replace=True, p=probs)


def _softmax(scores: np.ndarray) -> np.ndarray:
    w = np.exp(scores - scores.max())
    return w / w.sum()


def assemble_training_negatives(
    batch: TripleBatch,
    model: EmbeddingModel,
    kg: KnowledgeGraph,
    idx: StructureIndex | None,
    m_structure: int,
    seed: int,
    mode: str,
    hard_k: int = DEFAULT_HARD_K,
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
    slots = batch.batch_entities
    negatives = np.where(slots == batch.tails()[:, None], -1, slots)
    if mode != "simple":
        heads, rels = batch.heads(), batch.relations()
        queries, _ = aggregate_batch(model, heads, rels)
        # score, mask and select a few rows at a time to bound the B x N block
        step = max(1, TOPK_CELL_BUDGET // model.num_entities())
        hard = [
            _select_topk(
                queries[at : at + step] @ model.entity_table.T,
                kg.train_tail_mask(heads[at : at + step], rels[at : at + step]),
                hard_k,
            )
            for at in range(0, size, step)
        ]
        negatives = np.hstack([negatives, np.vstack(hard)])
    structure = (draw_ring_samples(idx, batch.heads(), m_structure, np.random.default_rng(seed))
                 if needs_structure else np.zeros((size, 0), dtype=np.int64))
    width = size if mode == "hasa_plus" else 0
    contexts = np.where(np.eye(size, width, dtype=bool), -1, np.arange(width))
    return NegativeSampleBatch(negatives, structure, contexts)


def split_retain_missing(
    triples: list[Triple], fraction: float, seed: int
) -> tuple[list[Triple], list[Triple]]:
    """Partition triples into a retained set and a "missing facts" set whose
    size is round(fraction * len(triples)). Both halves preserve the input
    order; the choice is a seeded permutation."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(triples))
    n_missing = int(round(fraction * len(triples)))
    missing_idx = set(order[:n_missing].tolist())
    retain = [t for i, t in enumerate(triples) if i not in missing_idx]
    missing = [t for i, t in enumerate(triples) if i in missing_idx]
    return retain, missing


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

    def false_count(self, k: int) -> int:
        for row_k, _, count in self.counts:
            if row_k == k:
                return count
        raise KeyError(f"no row for K={k}")

    def _row(self, label: str) -> np.ndarray:
        if label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}, got {label!r}")
        row = self.histogram[LABELS.index(label)]
        if not row.any():
            raise ValueError(f"no sampled negatives labeled {label!r}")
        return row

    def mean_distance(self, label: str) -> float:
        """Mean bucketed distance; the overflow column counts as the cap."""
        row = self._row(label)
        return int(row @ np.arange(row.size)) / int(row.sum())

    def fraction_within(self, label: str, max_distance: int) -> float:
        """Share of the label's draws at most max_distance hops away; the
        overflow column never counts as near."""
        row = self._row(label)
        near = row[:-1] @ (np.arange(self.distance_cap) <= max_distance)
        return int(near) / int(row.sum())


def _experiment_batch(
    triples: list[Triple],
    k: int,
    sampler: str,
    model: EmbeddingModel | None,
    reached: MappingProxyType,
    hidden: np.ndarray,
    relation_count: int,
    entity_count: int,
    cap: int,
    seed_key: list[int],
) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    heads, rels, tails = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    if sampler == "hard":
        support = np.unique(np.concatenate([heads, tails]))
        queries, _ = aggregate_batch(model, heads, rels)
    drawn, hops = [], []
    for i, triple in enumerate(triples):
        if sampler == "simple":
            draws = in_batch_negative_sample(tails, triple.tail, k, rng)
        else:
            draws = support[support != triple.tail]
            if draws.size:
                draws = hard_negative_softmax_sample(queries[i], draws, model, k, rng)
        ids, dist = reached[triple.head]
        at = np.minimum(np.searchsorted(ids, draws), ids.size - 1)
        # a draw beyond cap - 1 hops, or unreachable, falls in the last column
        hops.append(np.where(ids[at] == draws, dist[at], cap))
        drawn.append(draws)
    owner = np.repeat(np.arange(len(triples)), [d.size for d in drawn])
    keys = (heads[owner] * relation_count + rels[owner]) * entity_count + np.concatenate(drawn)
    cells = np.isin(keys, hidden) * (cap + 1) + np.concatenate(hops)
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
    down, matching K = 2B - 1 in-batch negatives per positive. The simple
    sampler draws from the batch tail-frequency distribution
    (in_batch_negative_sample), the hard sampler from the softmax of model
    scores over the distinct batch entities (hard_negative_softmax_sample);
    both exclude the triple's own tail and renormalize. A sampled negative t
    is labeled false when (h, r, t) is one of the hidden facts, and counted
    in the report's histogram under its label and its hop distance from h
    in the retained graph; the batches' count arrays are summed."""
    if sampler not in SAMPLER_KINDS:
        raise ValueError(f"unknown sampler {sampler!r}, expected one of {SAMPLER_KINDS}")
    if sampler == "hard" and model is None:
        raise ValueError("the hard sampler needs a scoring model")
    if not k_values:
        raise ValueError("k_values must not be empty")
    if min(k_values) < 1:
        raise ValueError(f"K values must be >= 1, got {min(k_values)}")
    if distance_cap < 1:
        raise ValueError(f"distance_cap must be >= 1, got {distance_cap}")
    if max_triples is not None and max_triples < 1:
        raise ValueError(f"max_triples must be >= 1, got {max_triples}")
    retain, missing = split_retain_missing(kg.train, removal_fraction, seed)
    n = kg.num_entities()
    r = kg.num_relations()
    hidden = fact_keys(missing, r, n)
    idx = _index_from_triples(retain, n)
    if max_triples is not None and len(retain) > max_triples:
        sub_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        chosen = np.sort(sub_rng.choice(len(retain), size=max_triples, replace=False))
        retain = [retain[i] for i in chosen]
    # one BFS per distinct head, shared read-only by every batch of every K:
    # the entities within cap - 1 hops, sorted, over their hop counts, in a
    # 2 x n array (the BFS's dict takes six times the memory)
    reached = MappingProxyType({
        head: np.array(sorted(distances_within(idx, head, distance_cap - 1).items()), np.int32).T
        for head in {t.head for t in retain}
    })
    sampler_id = SAMPLER_KINDS.index(sampler)
    counts = []
    hist = np.zeros((len(LABELS), distance_cap + 1), dtype=np.int64)
    for k_pos, k in enumerate(k_values):
        batch_size = max(1, (k + 1) // 2)
        order_rng = np.random.default_rng(np.random.SeedSequence([seed, 2, k_pos]))
        order = order_rng.permutation(len(retain))
        batches = [
            [retain[j] for j in order[start : start + batch_size]]
            for start in range(0, len(order), batch_size)
        ]
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
