"""Undirected entity graph over the train split: truncated BFS distances
and the uniform distribution over each head's 1-/2-hop ring, used to
estimate the false-negative term."""

import weakref
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .data import KnowledgeGraph

# how many heads' structure distributions a StructureIndex keeps
HOP_CACHE_SIZE = 1024


class StructureIndex:
    """Deduplicated undirected adjacency built from train triples only, in
    CSR form: the neighbours of entity n are indices[indptr[n]:indptr[n+1]],
    in ascending order. Both arrays are read-only.

    Relation labels and edge direction are discarded; self-loops are dropped.
    The structure distribution of each head is memoized in an LRU cache of
    HOP_CACHE_SIZE heads so repeated heads during training stay cheap.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self.indptr = indptr
        self.indices = indices
        self.entity_count = indptr.size - 1
        # a weak self in the cache, so no cycle keeps a dropped index alive
        self._ring = lru_cache(maxsize=HOP_CACHE_SIZE)(partial(_build_ring, weakref.proxy(self)))

    def neighbors(self, entity: int) -> np.ndarray:
        self._check_entity(entity)
        return self.indices[self.indptr[entity] : self.indptr[entity + 1]]

    def _check_entity(self, entity: int) -> None:
        if not 0 <= entity < self.entity_count:
            raise ValueError(
                f"entity id {entity} out of range [0, {self.entity_count})"
            )



def _index_from_triples(triples: np.ndarray, entity_count: int) -> StructureIndex:
    """Index the rows of a KnowledgeGraph split, whose ids the graph checked."""
    ends = triples[:, [0, 2]]
    ends = ends[ends[:, 0] != ends[:, 1]]
    # one key lo * N + hi per undirected pair, then both directions in
    # (source, neighbour) order
    pairs = np.unique(ends.min(axis=1) * entity_count + ends.max(axis=1))
    lo, hi = pairs // entity_count, pairs % entity_count
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.argsort(src * entity_count + dst)
    indptr = np.zeros(entity_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=entity_count), out=indptr[1:])
    return StructureIndex(indptr, dst[order])


def build_structure_index(kg: KnowledgeGraph) -> StructureIndex:
    """Index the train split. Validation and test triples contribute no
    edges, so structure-based sampling never sees held-out facts."""
    return _index_from_triples(kg.train, kg.num_entities())


def distances_within(idx: StructureIndex, source: int, cap: int) -> dict[int, int]:
    """BFS level sets: every entity at distance <= cap from source, mapped to
    its exact distance. The source itself is included at distance 0."""
    idx._check_entity(source)
    dist = {source: 0}
    frontier = [source]
    depth = 0
    indptr, indices = idx.indptr, idx.indices
    while frontier and depth < cap:
        depth += 1
        nxt = []
        for node in frontier:
            for nb in indices[indptr[node] : indptr[node + 1]].tolist():
                if nb not in dist:
                    dist[nb] = depth
                    nxt.append(nb)
        frontier = nxt
    return dist


@dataclass(frozen=True)
class AlphaDistribution:
    """Uniform distribution over the 1- and 2-hop ring around a head entity.

    support is sorted; every member has probability 1 / len(support). An
    isolated head yields an empty support: no structure signal, and nothing
    to draw.
    """

    head: int
    support: np.ndarray


def _build_ring(idx: StructureIndex, head: int) -> AlphaDistribution:
    dist = distances_within(idx, head, 2)
    support = np.array(sorted(node for node, d in dist.items() if d > 0), dtype=np.int64)
    support.flags.writeable = False
    return AlphaDistribution(head=head, support=support)


def alpha_distribution(idx: StructureIndex, head: int) -> AlphaDistribution:
    """The uniform distribution over head's 1- and 2-hop ring, built once per
    head and kept in the index's LRU cache. The cached support is read-only."""
    return idx._ring(head)


def draw_ring_samples(
    idx: StructureIndex, heads: np.ndarray, m: int, rng: np.random.Generator
) -> np.ndarray:
    """A (B x m) block: row i draws m entities with replacement from the ring
    of heads[i] as rng.choice(support, m) would, rows in order from one
    stream; a -1 row has an empty ring and, like m == 0, draws nothing."""
    supports = [alpha_distribution(idx, head).support for head in heads.tolist()]
    sizes = np.array([support.size for support in supports], dtype=np.int64)
    out = np.full((len(supports), m), -1, dtype=np.int64)
    full = np.flatnonzero(sizes)
    if m and full.size:
        picks = rng.integers(0, sizes[full, None], size=(full.size, m))
        out[full] = np.concatenate(supports)[(np.cumsum(sizes) - sizes)[full, None] + picks]
    return out
