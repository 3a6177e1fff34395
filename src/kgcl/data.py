"""Triple datasets: parsing, vocabularies, reverse augmentation, batching."""

import logging
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

REVERSE_SUFFIX = "_reverse"

SPLIT_NAMES = ("train", "valid", "test")


class ParseError(ValueError):
    """A dataset file contains a line that is not three tab-separated fields."""


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


class Vocabulary:
    """Bijection between surface strings and dense integer ids.

    Ids are assigned by first appearance, so the construction order fully
    determines the mapping.
    """

    def __init__(self, tokens: Iterable[str] = ()):
        self._tokens: list[str] = []
        self._ids: dict[str, int] = {}
        for token in tokens:
            self.add(token)

    def add(self, token: str) -> int:
        idx = self._ids.get(token)
        if idx is None:
            idx = len(self._tokens)
            self._tokens.append(token)
            self._ids[token] = idx
        return idx

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise KeyError(f"unknown token {token!r}") from None

    def token_of(self, idx: int) -> str:
        return self._tokens[idx]

    def tokens(self) -> list[str]:
        return list(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __len__(self) -> int:
        return len(self._tokens)


def _deduplicate(rows: list[tuple[str, str, str]], split: str) -> list[tuple[str, str, str]]:
    seen = set()
    out = []
    for row in rows:
        if row in seen:
            continue
        seen.add(row)
        out.append(row)
    dropped = len(rows) - len(out)
    if dropped:
        logger.warning("dropped %d duplicate triples from the %s split", dropped, split)
    return out


def fact_keys(triples: list[Triple], num_relations: int, num_entities: int) -> np.ndarray:
    """The triples as sorted unique int64 keys (h * R + r) * N + t, one per fact."""
    flat = np.fromiter(chain.from_iterable(triples), dtype=np.int64, count=3 * len(triples))
    h, r, t = flat.reshape(-1, 3).T
    return np.unique((h * num_relations + r) * num_entities + t)


@dataclass
class KnowledgeGraph:
    """Encoded train/valid/test triples and their facts as fact_keys.

    known_facts covers all three splits and backs filtered ranking;
    train_facts covers the train split only and backs negative filtering
    during training, so validation and test facts never leak into sampling
    decisions. Both are built on first use, so a copy made with
    dataclasses.replace builds its own.
    """

    entities: Vocabulary
    relations: Vocabulary
    train: list[Triple]
    valid: list[Triple]
    test: list[Triple]
    reverse_augmented: bool = False

    @classmethod
    def from_string_triples(
        cls,
        train: list[tuple[str, str, str]],
        valid: list[tuple[str, str, str]] = (),
        test: list[tuple[str, str, str]] = (),
    ) -> "KnowledgeGraph":
        """Build vocabularies by first appearance (train, then valid, then
        test) and encode the splits.

        Duplicates within one split are dropped with a warning; the same
        triple appearing in two different splits is kept in both.
        """
        raw = {"train": list(train), "valid": list(valid), "test": list(test)}
        if not raw["train"]:
            raise ValueError("train split is empty")
        entities = Vocabulary()
        relations = Vocabulary()
        encoded: dict[str, list[Triple]] = {}
        for split in SPLIT_NAMES:
            rows = _deduplicate(raw[split], split)
            encoded[split] = [
                Triple(entities.add(h), relations.add(r), entities.add(t))
                for h, r, t in rows
            ]
        return cls(entities, relations, **encoded)

    def split(self, name: str) -> list[Triple]:
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {name!r}, expected one of {SPLIT_NAMES}")
        return getattr(self, name)

    def replace_train(self, train: list[Triple]) -> "KnowledgeGraph":
        """Copy of this graph with the train split swapped out. Vocabularies
        are shared, not copied."""
        return replace(self, train=list(train))

    def num_entities(self) -> int:
        return len(self.entities)

    @cached_property
    def train_facts(self) -> np.ndarray:
        return fact_keys(self.train, self.num_relations(), self.num_entities())

    @cached_property
    def known_facts(self) -> np.ndarray:
        return fact_keys(self.train + self.valid + self.test, self.num_relations(),
                         self.num_entities())

    def tails_of(
        self, facts: np.ndarray, heads: np.ndarray, relations: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(row, tail) pairs: tail t for row i when facts holds
        (heads[i], relations[i], t); rows ascending, tails ascending within."""
        n = self.num_entities()
        low = (np.asarray(heads, dtype=np.int64) * self.num_relations() + relations) * n
        start, end = np.searchsorted(facts, [low, low + n])
        counts = end - start
        rows = np.repeat(np.arange(low.size), counts)
        cells = np.arange(rows.size) + (start - np.cumsum(counts) + counts)[rows]
        return rows, facts[cells] % n

    def train_tail_mask(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """(len(heads) x N) bools: row i marks the train tails of (heads[i], relations[i])."""
        rows, tails = self.tails_of(self.train_facts, heads, relations)
        mask = np.zeros((len(heads), self.num_entities()), dtype=bool)
        mask[rows, tails] = True
        return mask

    def num_relations(self) -> int:
        return len(self.relations)


def _read_tsv(path: str) -> list[tuple[str, str, str]]:
    rows = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(
                    f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            rows.append((fields[0], fields[1], fields[2]))
    return rows


def load_dataset(train_path: str, valid_path: str, test_path: str) -> KnowledgeGraph:
    """Read three head<TAB>relation<TAB>tail files into a KnowledgeGraph."""
    return KnowledgeGraph.from_string_triples(
        _read_tsv(train_path), _read_tsv(valid_path), _read_tsv(test_path)
    )


def augment_reverse(kg: KnowledgeGraph) -> KnowledgeGraph:
    """Append a reversed copy (t, r_reverse, h) of every triple to its split.

    Each relation r gains a twin named r + "_reverse" whose id is
    num_relations + id(r). Augmenting twice is an error, as is a dataset that
    already contains a relation named like a generated twin.
    """
    if kg.reverse_augmented:
        raise ValueError("knowledge graph is already reverse-augmented")
    base_tokens = kg.relations.tokens()
    base_set = set(base_tokens)
    for token in base_tokens:
        twin = token + REVERSE_SUFFIX
        if twin in base_set:
            raise ValueError(
                f"relation {twin!r} already exists; cannot add a reverse twin for {token!r}"
            )
    relations = Vocabulary(base_tokens + [t + REVERSE_SUFFIX for t in base_tokens])
    offset = len(base_tokens)
    splits = {}
    for name in SPLIT_NAMES:
        triples = kg.split(name)
        reversed_triples = [Triple(t, r + offset, h) for h, r, t in triples]
        splits[name] = triples + reversed_triples
    return KnowledgeGraph(kg.entities, relations, **splits, reverse_augmented=True)


@dataclass
class TripleBatch:
    """A training batch: its triples and the flat array of the 2B entity
    slots (all heads, then all tails) that in-batch sampling draws from."""

    triples: list[Triple]
    batch_entities: np.ndarray

    def __len__(self) -> int:
        return len(self.triples)

    def heads(self) -> np.ndarray:
        return np.fromiter((t.head for t in self.triples), dtype=np.int64, count=len(self.triples))

    def relations(self) -> np.ndarray:
        return np.fromiter(
            (t.relation for t in self.triples), dtype=np.int64, count=len(self.triples)
        )

    def tails(self) -> np.ndarray:
        return np.fromiter((t.tail for t in self.triples), dtype=np.int64, count=len(self.triples))


def make_batches(kg: KnowledgeGraph, batch_size: int, seed: int) -> list[TripleBatch]:
    """Shuffle the train split with the given seed and chunk it. The final
    batch may be short; every train triple appears exactly once."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(kg.train))
    batches = []
    for start in range(0, len(order), batch_size):
        triples = [kg.train[i] for i in order[start : start + batch_size]]
        slots = np.fromiter(
            (t.head for t in triples), dtype=np.int64, count=len(triples)
        )
        tails = np.fromiter((t.tail for t in triples), dtype=np.int64, count=len(triples))
        batches.append(TripleBatch(triples=triples, batch_entities=np.concatenate([slots, tails])))
    return batches
