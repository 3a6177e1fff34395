"""Undirected entity graph over the train split: truncated BFS distances,
1-/2-hop neighborhoods, and the uniform near-miss distribution used to
estimate the false-negative term."""

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .data import KnowledgeGraph, Triple

UNREACHABLE = math.inf

DEFAULT_DISTANCE_CAP = 5


class StructureIndex:
    """Deduplicated undirected adjacency built from train triples only.

    Relation labels and edge direction are discarded; self-loops are dropped.
    The structure distribution of each head is memoized in a bounded LRU
    cache so repeated heads during training stay cheap.
    """

    def __init__(self, adjacency: list[np.ndarray], cache_size: int = 1024):
        self.adjacency = adjacency
        self.entity_count = len(adjacency)
        self.cache_size = cache_size
        self._hop_cache: OrderedDict[int, AlphaDistribution] = OrderedDict()

    def neighbors(self, entity: int) -> np.ndarray:
        self._check_entity(entity)
        return self.adjacency[entity]

    def degree(self, entity: int) -> int:
        return int(self.neighbors(entity).size)

    def edge_count(self) -> int:
        return sum(a.size for a in self.adjacency) // 2

    def _check_entity(self, entity: int) -> None:
        if not 0 <= entity < self.entity_count:
            raise ValueError(
                f"entity id {entity} out of range [0, {self.entity_count})"
            )

    def _cache_get(self, head: int):
        hit = self._hop_cache.get(head)
        if hit is not None:
            self._hop_cache.move_to_end(head)
        return hit

    def _cache_put(self, head: int, value) -> None:
        self._hop_cache[head] = value
        if len(self._hop_cache) > self.cache_size:
            self._hop_cache.popitem(last=False)


def _index_from_triples(
    triples: list[Triple], entity_count: int, cache_size: int = 1024
) -> StructureIndex:
    pairs = set()
    for h, _, t in triples:
        if h == t:
            continue
        pairs.add((h, t) if h < t else (t, h))
    buckets: list[list[int]] = [[] for _ in range(entity_count)]
    for u, v in pairs:
        buckets[u].append(v)
        buckets[v].append(u)
    adjacency = [np.array(sorted(b), dtype=np.int64) for b in buckets]
    return StructureIndex(adjacency, cache_size=cache_size)


def build_structure_index(kg: KnowledgeGraph, cache_size: int = 1024) -> StructureIndex:
    """Index the train split. Validation and test triples contribute no
    edges, so structure-based sampling never sees held-out facts."""
    return _index_from_triples(kg.train, kg.num_entities(), cache_size=cache_size)


def distances_within(idx: StructureIndex, source: int, cap: int) -> dict[int, int]:
    """BFS level sets: every entity at distance <= cap from source, mapped to
    its exact distance. The source itself is included at distance 0."""
    idx._check_entity(source)
    dist = {source: 0}
    frontier = [source]
    depth = 0
    while frontier and depth < cap:
        depth += 1
        nxt = []
        for node in frontier:
            for nb in idx.adjacency[node]:
                nb = int(nb)
                if nb not in dist:
                    dist[nb] = depth
                    nxt.append(nb)
        frontier = nxt
    return dist


def shortest_path_length(
    idx: StructureIndex, source: int, target: int, cap: int = DEFAULT_DISTANCE_CAP
) -> float:
    """Length of the shortest undirected path, or UNREACHABLE when it exceeds
    the cap (or no path exists). Symmetric in source and target."""
    idx._check_entity(target)
    return distances_within(idx, source, cap).get(target, UNREACHABLE)


def two_hop_neighborhoods(idx: StructureIndex, head: int) -> tuple[frozenset[int], frozenset[int]]:
    """(N1, N2): entities at exact distance 1 and exact distance 2 from head.

    The two sets are disjoint and never contain head itself.
    """
    dist = distances_within(idx, head, cap=2)
    n1 = frozenset(node for node, d in dist.items() if d == 1)
    n2 = frozenset(node for node, d in dist.items() if d == 2)
    return n1, n2


@dataclass(frozen=True)
class AlphaDistribution:
    """Uniform distribution over the 1- and 2-hop ring around a head entity.

    support is sorted; every member has probability 1 / len(support). An
    isolated head yields an empty support, which callers must treat as "no
    structure signal" rather than sampling from it.
    """

    head: int
    support: np.ndarray

    @property
    def is_empty(self) -> bool:
        return self.support.size == 0

    @property
    def probability(self) -> float:
        return 0.0 if self.is_empty else 1.0 / float(self.support.size)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw count entities i.i.d. with replacement."""
        if self.is_empty:
            raise ValueError(f"alpha distribution for head {self.head} has empty support")
        return rng.choice(self.support, size=count, replace=True)


def alpha_distribution(idx: StructureIndex, head: int) -> AlphaDistribution:
    """The uniform distribution over head's 1- and 2-hop ring, built once per
    head and kept in the index's LRU cache. The cached support is read-only."""
    cached = idx._cache_get(head)
    if cached is not None:
        return cached
    dist = distances_within(idx, head, 2)
    support = np.array(sorted(node for node, d in dist.items() if d > 0), dtype=np.int64)
    support.flags.writeable = False
    alpha = AlphaDistribution(head=head, support=support)
    idx._cache_put(head, alpha)
    return alpha
