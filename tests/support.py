"""Helpers shared by the test modules: (n x 3) triple rows, a set oracle of
a graph's facts built from its splits, one-pair queries and gradient rows,
per-row oracles of the study's two negative samplers, of tail ranking and
of the logistic function, and a tiny cycle graph.

The fact oracle is plain Python sets over the splits' triples, so it checks
the library's int64 fact keys without sharing any code with them. The
sampler oracles draw one row at a time with rng.choice, so they check the
library's batched draws id for id and stream for stream. The rank oracle
counts one row's scores at a time, so it checks evaluate's batched counts
rank for rank. The logistic oracle is the two-branch form with masked
stores, so it checks model._sigmoid bit for bit."""

import numpy as np

from kgcl.data import KnowledgeGraph
from kgcl.model import aggregate_batch


def triple_rows(*triples) -> np.ndarray:
    """The given (head, relation, tail) tuples as an (n x 3) int64 array, the
    form of a split and of a training batch."""
    return np.array(triples, dtype=np.int64).reshape(len(triples), 3)


def tails_by_query(*splits) -> dict[tuple[int, int], set[int]]:
    """{(head, relation): its tails} over every triple of the given splits."""
    out: dict[tuple[int, int], set[int]] = {}
    for triples in splits:
        for h, r, t in triples.tolist():
            out.setdefault((h, r), set()).add(t)
    return out


def known_tails(kg) -> dict[tuple[int, int], set[int]]:
    return tails_by_query(kg.train, kg.valid, kg.test)


def query(model, head: int, relation: int) -> np.ndarray:
    """The query embedding of one (head, relation) pair."""
    return aggregate_batch(model, np.array([head]), np.array([relation]))[0][0]


def in_batch_negative_sample(
    tails: np.ndarray, own_tail: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """count draws i.i.d. from the batch's tails with every copy of own_tail
    removed; an empty pool draws nothing and consumes nothing."""
    pool = tails[tails != own_tail]
    if pool.size == 0:
        return pool
    return rng.choice(pool, size=count, replace=True)


def hard_negative_softmax_sample(
    e_hr: np.ndarray, candidate_ids: np.ndarray, model, count: int, rng: np.random.Generator
) -> np.ndarray:
    """count draws i.i.d. from the softmax of the candidates' scores against
    the query e_hr."""
    scores = model.entity_table[candidate_ids] @ np.asarray(e_hr, dtype=np.float64)
    weights = np.exp(scores - scores.max())
    return rng.choice(candidate_ids, size=count, replace=True, p=weights / weights.sum())


def rank_from_scores(gold_score: float, other_scores: np.ndarray) -> int:
    """Rank of the gold candidate among other_scores: one plus the number of
    strictly better scores, with ties counted at their average position,
    rounded up."""
    above = int(np.count_nonzero(other_scores > gold_score))
    ties = int(np.count_nonzero(other_scores == gold_score))
    return 1 + above + (ties + 1) // 2


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) where x >= 0 and exp(x) / (1 + exp(x)) elsewhere,
    each branch stored through a boolean mask."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def grad_row(rows: tuple[np.ndarray, np.ndarray], row: int) -> np.ndarray:
    """One row of a coalesced (ids, gradients) pair such as
    tape.entity_rows(); zeros when the tape never touched the row."""
    ids, grads = rows
    hit = np.flatnonzero(ids == row)
    return grads[hit[0]] if hit.size else np.zeros(grads.shape[1])


def toy_cycle_kg(ring_size: int = 6) -> KnowledgeGraph:
    """Two rings of ring_size entities with fully functional relations:
    "next" walks each ring and "pair" jumps between rings. Validation and
    test repeat a third of the train facts each, so a model that memorizes
    the train split scores perfectly under filtered ranking."""
    if ring_size < 3:
        raise ValueError(f"ring_size must be >= 3, got {ring_size}")
    names = [f"n{i}" for i in range(2 * ring_size)]
    facts = []
    for ring in (0, 1):
        base = ring * ring_size
        for i in range(ring_size):
            facts.append((names[base + i], "next", names[base + (i + 1) % ring_size]))
    for i in range(ring_size):
        facts.append((names[i], "pair", names[ring_size + i]))
        facts.append((names[ring_size + i], "pair", names[i]))
    valid = facts[::3]
    test = facts[1::3]
    return KnowledgeGraph.from_string_triples(facts, valid, test)
