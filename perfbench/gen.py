"""Vectorized block-community triple generator for the training workloads.

Entities live in equal blocks; each ordered pair inside a block becomes a
fact with probability p_intra, and pairs across blocks with probability
p_inter. A fraction of all facts is held out as planted missing facts, split
half and half into valid and test, as kgcl.synthetic does. The output is
plain string triples, so the inputs depend only on the seed and the shape,
never on program code.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BlockShape:
    blocks: int
    per_block: int
    relations: int
    p_intra: float
    p_inter: float
    missing_fraction: float = 0.3

    @property
    def entities(self) -> int:
        return self.blocks * self.per_block


def block_facts(shape: BlockShape, rng: np.random.Generator) -> np.ndarray:
    """(F, 3) int64 array of distinct (head, relation, tail) facts, no self-loops."""
    b, k, n = shape.blocks, shape.per_block, shape.entities
    hit = rng.random((b, k, k)) < shape.p_intra
    hit[:, np.arange(k), np.arange(k)] = False
    blk, i, j = np.nonzero(hit)
    intra = np.stack([blk * k + i, blk * k + j], axis=1)
    inter_count = rng.binomial(n * (n - k), shape.p_inter)
    pairs = np.zeros((0, 2), dtype=np.int64)
    while len(pairs) < inter_count:
        draw = rng.integers(n, size=(2 * (inter_count - len(pairs)) + 16, 2))
        draw = draw[draw[:, 0] // k != draw[:, 1] // k]
        pairs = np.unique(np.concatenate([pairs, draw]), axis=0)
    if len(pairs) > inter_count:
        pairs = pairs[np.sort(rng.choice(len(pairs), size=inter_count, replace=False))]
    edges = np.concatenate([intra, pairs]).astype(np.int64)
    # every entity appears in some fact: isolated ones link to their block neighbour
    covered = np.zeros(n, dtype=bool)
    covered[edges.ravel()] = True
    lonely = np.flatnonzero(~covered)
    partner = lonely - lonely % k + (lonely % k + 1) % k
    edges = np.concatenate([edges, np.stack([lonely, partner], axis=1)])
    rels = rng.integers(shape.relations, size=len(edges))
    return np.stack([edges[:, 0], rels, edges[:, 1]], axis=1)


def generate(shape: BlockShape, seed: int) -> dict[str, list[tuple[str, str, str]]]:
    """String triples per split; the held-out facts never appear in train."""
    rng = np.random.default_rng(seed)
    facts = block_facts(shape, rng)
    facts = facts[rng.permutation(len(facts))]
    n_missing = int(round(shape.missing_fraction * len(facts)))
    n_valid = (n_missing + 1) // 2
    ent = np.array([f"e{i}" for i in range(shape.entities)], dtype=object)
    rel = np.array([f"r{i}" for i in range(shape.relations)], dtype=object)

    def strings(rows: np.ndarray) -> list[tuple[str, str, str]]:
        return list(zip(ent[rows[:, 0]], rel[rows[:, 1]], ent[rows[:, 2]]))

    return {
        "valid": strings(facts[:n_valid]),
        "test": strings(facts[n_valid:n_missing]),
        "train": strings(facts[n_missing:]),
    }
