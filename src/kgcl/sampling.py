"""Negative sampling: in-batch negatives, model-ranked hard negatives,
structure samples from the head's hop neighborhood, and the controlled
experiment that counts how many sampled negatives are actually missing true
facts."""

import csv
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import KnowledgeGraph, Triple, TripleBatch
from .graph import StructureIndex, _index_from_triples, alpha_distribution, distances_within
from .model import EmbeddingModel, aggregate_batch

SAMPLER_KINDS = ("simple", "hard")

LOSS_MODES = ("simple", "hard", "hasa", "hasa_plus")

DEFAULT_HARD_K = 3


@dataclass
class NegativeSampleBatch:
    """Per-triple negative material for one training batch.

    hard_and_batch_negatives: entity ids scored against the query; never
    contains the triple's own positive tail.
    structure_samples: entity ids drawn from the head's 1-/2-hop ring, used
    by the debiased losses; may legitimately contain the positive tail.
    negative_contexts: positions into the batch whose (head, relation) pairs
    act as competing queries for the tail; used by the bidirectional loss.
    """

    hard_and_batch_negatives: list[np.ndarray]
    structure_samples: list[np.ndarray] = field(default_factory=list)
    negative_contexts: list[np.ndarray] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.hard_and_batch_negatives)

    def mean_negative_count(self) -> float:
        if not self.hard_and_batch_negatives:
            return 0.0
        return float(np.mean([ids.size for ids in self.hard_and_batch_negatives]))


def simple_negative_probs(batch: TripleBatch) -> tuple[np.ndarray, np.ndarray]:
    """Tail-frequency distribution of the batch: each distinct tail entity
    with probability count / batch size. Ids are sorted ascending."""
    tails = batch.tails()
    ids, counts = np.unique(tails, return_counts=True)
    return ids, counts / float(tails.size)


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


def _select_topk(
    scores: np.ndarray,
    candidate_ids: np.ndarray,
    known_positives: frozenset[int],
    k: int,
) -> np.ndarray:
    if known_positives:
        known = np.fromiter(known_positives, dtype=np.int64, count=len(known_positives))
        keep = ~np.isin(candidate_ids, known)
        candidate_ids = candidate_ids[keep]
        scores = scores[keep]
    if candidate_ids.size < k:
        raise ValueError(
            f"top-{k} requested but only {candidate_ids.size} candidates remain "
            f"after filtering {len(known_positives)} known positives"
        )
    # primary key: score descending; ties broken by lower entity id
    order = np.lexsort((candidate_ids, -scores))
    return candidate_ids[order[:k]]


def hard_negative_topk(
    e_hr: np.ndarray,
    candidate_ids: np.ndarray,
    model: EmbeddingModel,
    k: int,
    known_positives: frozenset[int] = frozenset(),
) -> np.ndarray:
    """The k candidates scoring highest against the query, after dropping
    every candidate known to be a true tail. Deterministic: score ties are
    broken toward the lower entity id."""
    candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
    scores = model.entity_table[candidate_ids] @ np.asarray(e_hr, dtype=np.float64)
    return _select_topk(scores, candidate_ids, frozenset(known_positives), k)


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

    Every mode starts from the batch's 2B entity slots with all occurrences
    of the triple's own positive tail removed. The hard modes append the
    hard_k highest-scoring entities not known to be true train tails of
    (h, r). Structure samples are drawn with replacement from the uniform
    1-/2-hop distribution around the head; heads with an empty ring get an
    empty sample array. Only the structure draws consume randomness, so the
    other components are fully determined by the model and the batch.
    """
    if mode not in LOSS_MODES:
        raise ValueError(f"unknown negative mode {mode!r}, expected one of {LOSS_MODES}")
    needs_structure = mode in ("hasa", "hasa_plus")
    if needs_structure and idx is None:
        raise ValueError(f"mode {mode!r} requires a structure index")
    slots = batch.batch_entities
    size = len(batch)
    rng = np.random.default_rng(seed)
    queries = None
    scores = None
    if mode != "simple":
        queries, _ = aggregate_batch(model, batch.heads(), batch.relations())
        scores = queries @ model.entity_table.T
    all_ids = np.arange(model.num_entities(), dtype=np.int64)
    negatives: list[np.ndarray] = []
    structure: list[np.ndarray] = []
    contexts: list[np.ndarray] = []
    empty = np.zeros(0, dtype=np.int64)
    for i, triple in enumerate(batch.triples):
        base = slots[slots != triple.tail]
        if mode == "simple":
            negatives.append(base)
        else:
            known = kg.train_positive_tails.get((triple.head, triple.relation), frozenset())
            top = _select_topk(scores[i], all_ids, known, hard_k)
            negatives.append(np.concatenate([base, top]))
        if needs_structure:
            alpha = alpha_distribution(idx, triple.head)
            if alpha.is_empty or m_structure == 0:
                structure.append(empty)
            else:
                structure.append(alpha.sample(m_structure, rng))
        else:
            structure.append(empty)
        if mode == "hasa_plus":
            others = np.concatenate(
                [np.arange(i, dtype=np.int64), np.arange(i + 1, size, dtype=np.int64)]
            )
            contexts.append(others)
        else:
            contexts.append(empty)
    return NegativeSampleBatch(
        hard_and_batch_negatives=negatives,
        structure_samples=structure,
        negative_contexts=contexts,
    )


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


def _distance_bucket(dist: dict[int, int], entity: int, cap: int) -> str:
    d = dist.get(entity)
    return str(d) if d is not None else f"{cap}+"


def bucket_labels(cap: int) -> list[str]:
    return [str(d) for d in range(cap)] + [f"{cap}+"]


@dataclass
class FalseNegReport:
    """Outcome of one sampler's false-negative experiment.

    counts holds one (K, sampler, false_count) row per requested K.
    histogram maps (label, bucket) to how many sampled negatives labeled
    true/false sat at that graph distance from the head, aggregated over all
    K values; the final bucket pools distances at or beyond the cap together
    with unreachable pairs.
    """

    sampler: str
    removal_fraction: float
    distance_cap: int
    counts: list[tuple[int, str, int]]
    histogram: dict[tuple[str, str], int]
    total_sampled: dict[str, int]

    def false_count(self, k: int) -> int:
        for row_k, _, count in self.counts:
            if row_k == k:
                return count
        raise KeyError(f"no row for K={k}")

    def mean_distance(self, label: str) -> float:
        """Mean bucketed distance; the overflow bucket counts as the cap."""
        total = 0
        weighted = 0.0
        for (lab, bucket), count in self.histogram.items():
            if lab != label:
                continue
            value = self.distance_cap if bucket.endswith("+") else int(bucket)
            weighted += value * count
            total += count
        if total == 0:
            raise ValueError(f"no sampled negatives labeled {label!r}")
        return weighted / total

    def fraction_within(self, label: str, max_distance: int) -> float:
        total = self.total_sampled.get(label, 0)
        if total == 0:
            raise ValueError(f"no sampled negatives labeled {label!r}")
        near = sum(
            count
            for (lab, bucket), count in self.histogram.items()
            if lab == label and not bucket.endswith("+") and int(bucket) <= max_distance
        )
        return near / total


def _experiment_batch(
    triples: list[Triple],
    k: int,
    sampler: str,
    model: EmbeddingModel | None,
    idx: StructureIndex,
    missing_set: set[Triple],
    cap: int,
    seed_key: list[int],
) -> tuple[int, Counter]:
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    tails = np.fromiter((t.tail for t in triples), dtype=np.int64, count=len(triples))
    heads = np.fromiter((t.head for t in triples), dtype=np.int64, count=len(triples))
    if sampler == "hard":
        rels = np.fromiter((t.relation for t in triples), dtype=np.int64, count=len(triples))
        support = np.unique(np.concatenate([heads, tails]))
        queries, _ = aggregate_batch(model, heads, rels)
    false_count = 0
    hist: Counter = Counter()
    for i, triple in enumerate(triples):
        if sampler == "simple":
            draws = in_batch_negative_sample(tails, triple.tail, k, rng)
        else:
            cand = support[support != triple.tail]
            if cand.size == 0:
                continue
            draws = hard_negative_softmax_sample(queries[i], cand, model, k, rng)
        if draws.size == 0:
            continue
        dist = distances_within(idx, triple.head, cap - 1)
        for neg in draws.tolist():
            label = "false" if Triple(triple.head, triple.relation, neg) in missing_set else "true"
            if label == "false":
                false_count += 1
            hist[(label, _distance_bucket(dist, neg, cap))] += 1
    return false_count, hist


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
    both exclude the triple's own tail and renormalize. Every
    sampled negative t is labeled false when (h, r, t) is one of the hidden
    facts, and its graph distance from h (in the retained graph) is
    bucketed."""
    if sampler not in SAMPLER_KINDS:
        raise ValueError(f"unknown sampler {sampler!r}, expected one of {SAMPLER_KINDS}")
    if sampler == "hard" and model is None:
        raise ValueError("the hard sampler needs a scoring model")
    if not k_values:
        raise ValueError("k_values must not be empty")
    retain, missing = split_retain_missing(kg.train, removal_fraction, seed)
    missing_set = set(missing)
    idx = _index_from_triples(retain, kg.num_entities())
    if max_triples is not None and len(retain) > max_triples:
        sub_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        chosen = np.sort(sub_rng.choice(len(retain), size=max_triples, replace=False))
        retain = [retain[i] for i in chosen]
    sampler_id = SAMPLER_KINDS.index(sampler)
    counts = []
    hist: Counter = Counter()
    for k_pos, k in enumerate(k_values):
        if k < 1:
            raise ValueError(f"K values must be >= 1, got {k}")
        batch_size = max(1, (k + 1) // 2)
        order_rng = np.random.default_rng(np.random.SeedSequence([seed, 2, k_pos]))
        order = order_rng.permutation(len(retain))
        batches = [
            [retain[j] for j in order[start : start + batch_size]]
            for start in range(0, len(order), batch_size)
        ]
        jobs = [
            (chunk, k, sampler, model, idx, missing_set, distance_cap,
             [seed, 3, sampler_id, k_pos, b])
            for b, chunk in enumerate(batches)
        ]
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(lambda j: _experiment_batch(*j), jobs))
        else:
            results = [_experiment_batch(*j) for j in jobs]
        k_false = 0
        for false_count, batch_hist in results:
            k_false += false_count
            hist.update(batch_hist)
        counts.append((k, sampler, k_false))
    totals = {"true": 0, "false": 0}
    for (label, _), count in hist.items():
        totals[label] += count
    return FalseNegReport(
        sampler=sampler,
        removal_fraction=removal_fraction,
        distance_cap=distance_cap,
        counts=counts,
        histogram=dict(hist),
        total_sampled=totals,
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
            for bucket in bucket_labels(report.distance_cap):
                for label in ("false", "true"):
                    count = report.histogram.get((label, bucket), 0)
                    writer.writerow([report.sampler, label, bucket, count])
