"""Knowledge graph datasets: parsing, vocabularies, reverse augmentation, batching."""

import logging
import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np

logger = logging.getLogger(__name__)

REVERSE_SUFFIX = "_reverse"

SPLIT_NAMES = ("train", "valid", "test")


class ParseError(ValueError):
    """A dataset file contains a line that is not three tab-separated fields."""


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


def fact_keys(triples: np.ndarray, num_relations: int, num_entities: int) -> np.ndarray:
    """The (n x 3) triples as sorted unique int64 keys (h * R + r) * N + t, one per fact."""
    h, r, t = triples.T
    return np.unique((h * num_relations + r) * num_entities + t)


@dataclass(eq=False)
class KnowledgeGraph:
    """Encoded train/valid/test triples and their facts as fact_keys.

    Each split is a read-only (n x 3) int64 array of (head, relation, tail)
    rows, copied from what the constructor is given; an id outside the
    vocabularies is a ValueError.

    known_facts covers all three splits and backs filtered ranking;
    train_facts covers the train split only and backs negative filtering
    during training, so validation and test facts never leak into sampling
    decisions. Both are built on first use, so a copy made with
    dataclasses.replace builds its own.
    """

    entities: Vocabulary
    relations: Vocabulary
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    reverse_augmented: bool = False

    def __post_init__(self):
        bounds = (self.num_entities(), self.num_relations(), self.num_entities())
        for name in SPLIT_NAMES:
            rows = np.array(getattr(self, name), dtype=np.int64)
            if rows.shape == (0,):
                rows = rows.reshape(0, 3)
            if rows.ndim != 2 or rows.shape[1] != 3:
                raise ValueError(f"{name} split must be (n x 3) triples, got shape {rows.shape}")
            if not ((rows >= 0) & (rows < bounds)).all():
                raise ValueError(f"{name} split holds an id outside the vocabularies")
            rows.flags.writeable = False
            setattr(self, name, rows)

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
        encoded = {}
        for split in SPLIT_NAMES:
            rows = np.array(
                [(entities.add(h), relations.add(r), entities.add(t)) for h, r, t in raw[split]],
                dtype=np.int64,
            ).reshape(-1, 3)
            # the first copy of each fact, in input order
            h, r, t = rows.T
            first = np.unique((h * len(relations) + r) * len(entities) + t, return_index=True)[1]
            if first.size < len(rows):
                logger.warning("dropped %d duplicate triples from the %s split",
                               len(rows) - first.size, split)
            encoded[split] = rows[np.sort(first)]
        return cls(entities, relations, **encoded)

    def split(self, name: str) -> np.ndarray:
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {name!r}, expected one of {SPLIT_NAMES}")
        return getattr(self, name)

    def replace_train(self, train: np.ndarray) -> "KnowledgeGraph":
        """Copy of this graph with the train split swapped out. Vocabularies
        are shared, not copied."""
        return replace(self, train=train)

    def num_entities(self) -> int:
        return len(self.entities)

    @cached_property
    def train_facts(self) -> np.ndarray:
        return fact_keys(self.train, self.num_relations(), self.num_entities())

    @cached_property
    def known_facts(self) -> np.ndarray:
        return fact_keys(np.concatenate([self.train, self.valid, self.test]),
                         self.num_relations(), self.num_entities())

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
        splits[name] = np.concatenate([triples, triples[:, ::-1] + (0, offset, 0)])
    return KnowledgeGraph(kg.entities, relations, **splits, reverse_augmented=True)


def make_batches(kg: KnowledgeGraph, batch_size: int, seed: int) -> list[np.ndarray]:
    """Shuffle the train split with the given seed and chunk it into
    (B x 3) row blocks. The final batch may be short; every train triple
    appears exactly once."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(len(kg.train))
    return [kg.train[order[start : start + batch_size]]
            for start in range(0, len(order), batch_size)]


def _write_replacing(write, obj, path: str) -> None:
    """write(obj, tmp) to a temporary file beside path, then os.replace it
    onto path; on any failure it is removed and the old file stays."""
    tmp = f"{path}.tmp"
    try:
        write(obj, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
