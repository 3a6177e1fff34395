"""Synthetic knowledge graphs: a block-community generator whose held-out
splits are planted missing facts."""

import math
import os
from dataclasses import dataclass

import numpy as np

from .data import SPLIT_NAMES, KnowledgeGraph, _write_replacing

StringTriple = tuple[str, str, str]
_CHUNK, _WINDOW = 1 << 14, 256  # pairs (and words) per array pass; pairs per accept search


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
        for name in ("block_count", "entities_per_block", "relation_count", "seed"):
            value, low = getattr(self, name), int(name != "seed")
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
        for name in ("intra_block_edge_probability", "inter_block_edge_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if not 0.0 < self.missing_fraction < 1.0:
            raise ValueError(f"missing_fraction must lie in (0, 1), got {self.missing_fraction}")

    def num_entities(self) -> int:
        return self.block_count * self.entities_per_block


def _entity_name(block: int, index: int) -> str:
    return f"b{block}_e{index}"


def _draw_relation(words, at, buffered, count, bits):
    """rng.integers(count), count <= 2**32, as numpy reads it: the buffered
    32-bit half (`buffered` is the bit generator's (has_uint32, uinteger)), else
    the low half of word `at` (from `bits` past the end of `words`), buffering
    the high half; Lemire's rejection (2019) redraws while (half * count) % 2**32
    < 2**32 % count. Returns the value, the next word index and `buffered`."""
    has, value = buffered
    while count > 1:
        if has:
            half, has = value, 0
        else:
            word = int(words[at] if at < len(words) else bits.random_raw())
            half, has, value, at = word & 0xFFFFFFFF, 1, word >> 32, at + 1
        if (half * count) & 0xFFFFFFFF >= (1 << 32) % count:
            return (half * count) >> 32, at, (has, value)
    return 0, at, buffered


def _draw_edges(spec: SyntheticKGSpec, rng: np.random.Generator):
    """Heads, relations and tails as `for u != v: if rng.random() < p: rng.integers(R)`
    samples them, leaving rng where that loop does. random() < p is the exact test
    (word >> 11) < ceil(p * 2**53), so windows of pairs test words drawn in bulk."""
    n, block, bits = spec.num_entities(), spec.entities_per_block, rng.bit_generator
    start, pairs, count = bits.state, n * (n - 1), spec.relation_count
    buffered = (start["has_uint32"], start["uinteger"])
    intra, inter = (math.ceil(p * 2**53) for p in (spec.intra_block_edge_probability,
                                                    spec.inter_block_edge_probability))
    words, base, at, accepted, relations = np.empty(0, np.uint64), 0, 0, [], []
    for first in range(0, pairs, _CHUNK):  # words[i] is the stream's word base + i
        u, r = np.divmod(np.arange(first, min(first + _CHUNK, pairs)), n - 1)
        limit, j = np.where(u // block == (r + (r >= u)) // block, intra, inter), 0
        while j < len(limit):
            if at + _WINDOW > len(words):
                words = np.concatenate((words[at:], bits.random_raw(_CHUNK)))
                high, base, at = (words >> 11).astype(np.int64), base + at, 0
            span = min(_WINDOW, len(limit) - j)
            hits = high[at:at + span] < limit[j:j + span]
            k = int(hits.argmax())
            if not hits[k]:
                j, at = j + span, at + span
                continue
            accepted.append(first + j + k)
            rel, at, buffered = _draw_relation(words, at + k + 1, buffered, count, bits)
            relations.append(rel)
            j += k + 1
    bits.state = start
    bits.state = {**bits.advance(base + at).state, "has_uint32": buffered[0],
                  "uinteger": buffered[1]}
    heads, rest = np.divmod(np.array(accepted, dtype=np.int64), max(n - 1, 1))
    return heads, relations, rest + (rest >= heads)


def generate_synthetic_kg(spec: SyntheticKGSpec) -> dict[str, list[StringTriple]]:
    """Sample the fact set and partition it into train/valid/test.

    Isolated entities (no sampled fact at all) are given one fallback fact
    to the next entity in their block so every named entity appears in the
    files. No triple lands in more than one split.
    """
    rng = np.random.default_rng(spec.seed)
    n, per_block = spec.num_entities(), spec.entities_per_block
    names = [_entity_name(b, i) for b in range(spec.block_count) for i in range(per_block)]
    relations = [f"rel_{j}" for j in range(spec.relation_count)]
    heads, rels, tails = _draw_edges(spec, rng)
    facts = [(names[u], relations[r], names[v])
             for u, r, v in zip(heads.tolist(), rels, tails.tolist())]
    covered = np.zeros(n, dtype=bool)
    covered[heads] = covered[tails] = True
    for u in range(n):
        if not covered[u]:
            block = u // per_block
            partner = block * per_block + (u % per_block + 1) % per_block
            if partner == u:
                partner = (u + 1) % n
            facts.append((names[u], relations[u % spec.relation_count], names[partner]))
            covered[u] = covered[partner] = True
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
