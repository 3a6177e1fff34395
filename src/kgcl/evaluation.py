"""Link-prediction evaluation: tail ranking with tie-averaged ranks, the
filtered protocol, and aggregate metrics."""

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import sampling
from .data import KnowledgeGraph
from .model import EmbeddingModel, aggregate_batch

FULL_CANDIDATE_THRESHOLD = 20000
SUBSAMPLE_CANDIDATES = 10000


@dataclass
class MetricsReport:
    mr: float
    mrr: float
    hit1: float
    hit3: float
    hit10: float
    triple_count: int
    ranks: list[int] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        """Every field but the ranks."""
        return {name: value for name, value in vars(self).items() if name != "ranks"}

    def write_ranks_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["triple_index", "rank"])
            for i, rank in enumerate(self.ranks):
                writer.writerow([i, rank])


def write_json(payload: dict, path: str) -> None:
    """payload as JSON with sorted keys, indented by 2, and a final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def metrics_from_ranks(ranks: list[int]) -> MetricsReport:
    if not ranks:
        return MetricsReport(0.0, 0.0, 0.0, 0.0, 0.0, 0)
    arr = np.asarray(ranks, dtype=np.float64)
    return MetricsReport(
        mr=float(arr.mean()),
        mrr=float((1.0 / arr).mean()),
        hit1=float((arr <= 1).mean()),
        hit3=float((arr <= 3).mean()),
        hit10=float((arr <= 10).mean()),
        triple_count=len(ranks),
        ranks=list(ranks),
    )


def _check_finite(model: EmbeddingModel) -> None:
    """Every comparison with NaN is false, so a non-finite model would rank
    each gold tail first. Refuse such a model instead of scoring it."""
    params = {"entity table": model.entity_table, "relation table": model.relation_table}
    params.update({f"aggregator parameter {k!r}": v for k, v in model.aggregator.items()})
    for what, values in params.items():
        if not np.isfinite(values).all():
            raise ValueError(f"cannot evaluate: the model's {what} holds non-finite values")


def _gold_scores(table: np.ndarray, gold: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(rows x 1) score of each row's gold tail by its own dot product, one
    stacked matvec that rounds as table[gold[i]] @ queries[i] does."""
    return (table[gold][:, None, :] @ queries[:, :, None])[:, 0]


def _rank_chunk(model, kg, known, candidates, slot, triples):
    heads, rels, gold = triples.T
    queries, _ = aggregate_batch(model, heads, rels)
    scores = queries @ candidates.T
    golds = _gold_scores(model.entity_table, gold, queries)
    # count over every pool column, then take back the cells of each row's
    # gold and other known tails; slot P is an entity outside the pool
    known_rows, known_tails = kg.tails_of(known, heads, rels)
    rows = np.concatenate([np.arange(len(triples)), known_rows])
    width = len(candidates) + 1
    cells = np.unique(rows * width + slot[np.concatenate([gold, known_tails])])
    rows, cols = np.divmod(cells[cells % width < len(candidates)], width)
    taken, taken_golds = scores[rows, cols], golds[rows, 0]
    above = np.add.reduce((scores > golds).view(np.int8), axis=1, dtype=np.int32)
    above -= np.bincount(rows[taken > taken_golds], minlength=len(triples))
    ties = np.add.reduce((scores == golds).view(np.int8), axis=1, dtype=np.int32)
    ties -= np.bincount(rows[taken == taken_golds], minlength=len(triples))
    return (1 + above + (ties + 1) // 2).tolist()


def evaluate(
    model: EmbeddingModel,
    kg: KnowledgeGraph,
    split: str = "valid",
    filtered: bool = True,
    candidate_limit: int = 0,
    seed: int = 0,
    workers: int = 1,
) -> MetricsReport:
    """Tail-ranking metrics (MR, MRR, Hit@1/3/10) over a split.

    candidate_limit > 0 ranks against a seeded entity subsample of that size
    (plus the gold tail when it falls outside); 0 keeps the full entity set.
    Results are deterministic for a given seed and independent of workers.
    A worker count below 1, or a model with a non-finite parameter, is
    refused with a ValueError.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    triples = kg.split(split)
    if not len(triples):
        return MetricsReport(0.0, 0.0, 0.0, 0.0, 0.0, 0)
    if model.num_entities() != kg.num_entities():
        raise ValueError(
            f"model has {model.num_entities()} entities but the dataset has {kg.num_entities()}"
        )
    _check_finite(model)
    n = kg.num_entities()
    if candidate_limit and candidate_limit < n:
        rng = np.random.default_rng(seed)
        pool = np.sort(rng.choice(n, size=candidate_limit, replace=False))
    else:
        pool = np.arange(n)
    slot = np.full(n, pool.size, dtype=np.int64)
    slot[pool] = np.arange(pool.size)
    candidates = model.entity_table[pool]
    # rank a few rows at a time to bound the (rows x P) score block
    step = max(1, sampling.CELL_BUDGET // pool.size)
    chunks = [triples[i : i + step] for i in range(0, len(triples), step)]
    # built here, before any worker thread could race to build it; raw
    # ranking takes back only the gold
    known = kg.known_facts if filtered else np.empty(0, dtype=np.int64)
    rank = partial(_rank_chunk, model, kg, known, candidates, slot)
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool_exec:
            results = list(pool_exec.map(rank, chunks))
    else:
        results = [rank(c) for c in chunks]
    ranks = [r for chunk_ranks in results for r in chunk_ranks]
    return metrics_from_ranks(ranks)


def default_candidate_limit(num_entities: int, requested: int = 0) -> int:
    """The validation-time candidate budget: full set for small entity
    vocabularies, a subsample above the threshold, or the explicit request."""
    if requested > 0:
        return min(requested, num_entities)
    if num_entities <= FULL_CANDIDATE_THRESHOLD:
        return 0
    return SUBSAMPLE_CANDIDATES
