"""Synthetic knowledge graphs: a block-community generator whose held-out
splits are planted missing facts."""

import math
import os
from dataclasses import dataclass

import numpy as np

from .data import SPLIT_NAMES, KnowledgeGraph, _write_replacing

StringTriple = tuple[str, str, str]


@dataclass(frozen=True)
class SyntheticKGSpec:
    """Blocky random graph: entities live in dense blocks with sparse links
    between blocks, every directed pair gets at most one fact, and
    missing_fraction of all facts is moved out of train into valid and test
    (half each, so the held-out splits are facts the train graph is blind
    to)."""

    block_count: int = 4
    entities_per_block: int = 12
    relation_count: int = 3
    intra_block_edge_probability: float = 0.5
    inter_block_edge_probability: float = 0.02
    missing_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.block_count < 1 or self.entities_per_block < 1 or self.relation_count < 1:
            raise ValueError("block_count, entities_per_block and relation_count must be >= 1")
        for name in ("intra_block_edge_probability", "inter_block_edge_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if not 0.0 < self.missing_fraction < 1.0:
            raise ValueError(
                f"missing_fraction must lie in (0, 1), got {self.missing_fraction}"
            )

    def num_entities(self) -> int:
        return self.block_count * self.entities_per_block


def _entity_name(block: int, index: int) -> str:
    return f"b{block}_e{index}"


def generate_synthetic_kg(spec: SyntheticKGSpec) -> dict[str, list[StringTriple]]:
    """Sample the fact set and partition it into train/valid/test.

    Isolated entities (no sampled fact at all) are given one fallback fact
    to the next entity in their block so every named entity appears in the
    files. No triple lands in more than one split.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.num_entities()
    per_block = spec.entities_per_block
    names = [_entity_name(b, i) for b in range(spec.block_count) for i in range(per_block)]
    relations = [f"rel_{j}" for j in range(spec.relation_count)]
    facts: list[StringTriple] = []
    covered = np.zeros(n, dtype=bool)
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            same_block = u // per_block == v // per_block
            p = (
                spec.intra_block_edge_probability
                if same_block
                else spec.inter_block_edge_probability
            )
            if rng.random() < p:
                rel = relations[int(rng.integers(spec.relation_count))]
                facts.append((names[u], rel, names[v]))
                covered[u] = True
                covered[v] = True
    for u in range(n):
        if not covered[u]:
            block = u // per_block
            partner = block * per_block + (u % per_block + 1) % per_block
            if partner == u:
                partner = (u + 1) % n
            facts.append((names[u], relations[u % spec.relation_count], names[partner]))
            covered[u] = True
            covered[partner] = True
    order = rng.permutation(len(facts))
    n_missing = int(round(spec.missing_fraction * len(facts)))
    n_valid = math.ceil(n_missing / 2)
    # each fact's split, as its index in SPLIT_NAMES
    split = np.zeros(len(facts), dtype=np.int8)
    split[order[:n_valid]], split[order[n_valid:n_missing]] = 1, 2
    return {name: [facts[i] for i in np.flatnonzero(split == code)]
            for code, name in enumerate(SPLIT_NAMES)}


def generate_knowledge_graph(spec: SyntheticKGSpec) -> KnowledgeGraph:
    dataset = generate_synthetic_kg(spec)
    return KnowledgeGraph.from_string_triples(
        dataset["train"], dataset["valid"], dataset["test"]
    )


def write_dataset_files(
    dataset: dict[str, list[StringTriple]], out_dir: str
) -> dict[str, str]:
    """Write train.tsv, valid.tsv and test.tsv, each replaced atomically;
    returns the path per split."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for split in ("train", "valid", "test"):
        paths[split] = os.path.join(out_dir, f"{split}.tsv")
        _write_replacing(_write_tsv, dataset[split], paths[split])
    return paths


def _write_tsv(rows: list[StringTriple], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for h, r, t in rows:
            handle.write(f"{h}\t{r}\t{t}\n")
