"""Helpers shared by the test modules: (n x 3) triple rows, a set oracle of
a graph's facts built from its splits, one-pair queries and gradient rows,
and a tiny cycle graph.

The oracle is plain Python sets over the splits' triples, so it checks the
library's int64 fact keys without sharing any code with them."""

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
