"""Undirected entity graph over the train split: truncated BFS distances
and the uniform distribution over each head's 1-/2-hop ring, used to
estimate the false-negative term."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import KnowledgeGraph

# cells per dense (sources x N) block of the ring table's build, and steps
# per piece of its second-hop walk
RING_BLOCK_CELLS = 2**19

# sources per dense hop block of hop_table
HOP_TABLE_CHUNK = 8


class StructureIndex:
    """Deduplicated undirected adjacency built from train triples only, in
    CSR form: the neighbours of entity n are indices[indptr[n]:indptr[n+1]],
    in ascending order. Both arrays are read-only.

    Relation labels and edge direction are discarded; self-loops are dropped.
    The 1-/2-hop ring of every entity is built once, on the first ring
    lookup, as a second read-only CSR (rings); modes that draw no structure
    samples never build it.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self.indptr = indptr
        self.indices = indices
        self.entity_count = indptr.size - 1

    @cached_property
    def rings(self) -> tuple[np.ndarray, np.ndarray]:
        """(ring_indptr, ring_indices): the sorted ids at distance 1 or 2 from
        entity n are ring_indices[ring_indptr[n]:ring_indptr[n+1]], in the
        smallest integer dtype that holds N - 1. Both arrays are read-only."""
        return _ring_table(self)

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


def _walk(idx: StructureIndex, rows: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, ...]:
    """One hop from the frontier pairs (rows, nodes): every (row, neighbour)
    pair, read from the CSR in frontier order."""
    starts, counts = idx.indptr[nodes], idx.indptr[nodes + 1] - idx.indptr[nodes]
    walk = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    return np.repeat(rows, counts), idx.indices[walk]


def hop_table(idx: StructureIndex, sources: np.ndarray, cap: int) -> tuple[np.ndarray, ...]:
    """distances_within for many sources at once: the sorted int64 keys
    i * N + v of every entity v within cap hops of sources[i], and each
    key's hop count. The sources are walked HOP_TABLE_CHUNK at a time over a
    dense (chunk x N) hop block, one frontier per depth."""
    n = idx.entity_count
    if sources.size and not (0 <= sources.min() and sources.max() < n):
        raise ValueError(f"source ids must lie in [0, {n})")
    # -1 marks an unreached entity; the dtype holds every depth a BFS can reach
    dtype = np.min_scalar_type(-1 - max(0, min(cap, n)))
    keys, hops = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=dtype)]
    for at in range(0, sources.size, HOP_TABLE_CHUNK):
        chunk = sources[at : at + HOP_TABLE_CHUNK]
        block = np.full((chunk.size, n), -1, dtype=dtype)
        rows, nodes = np.arange(chunk.size), chunk
        block[rows, nodes] = 0
        for depth in range(1, cap + 1):
            rows, nodes = _walk(idx, rows, nodes)
            if not rows.size:
                break
            fresh = block[rows, nodes] < 0
            block[rows[fresh], nodes[fresh]] = depth
            if depth < cap:
                rows, nodes = np.nonzero(block == depth)
        reached = np.flatnonzero(block >= 0)
        keys.append(reached + at * n)
        hops.append(block.ravel()[reached])
    return np.concatenate(keys), np.concatenate(hops)


def _ring_blocks(idx: StructureIndex):
    """Yield (first, block) for consecutive sources first, first + 1, ...: a
    dense boolean block of at most RING_BLOCK_CELLS cells (one row at least)
    whose row i marks the ring of source first + i. The second hop is walked
    in pieces of at most RING_BLOCK_CELLS steps plus one entity's degree, so
    no block's walk grows with the degrees of its sources' neighbours."""
    n = idx.entity_count
    degree = np.diff(idx.indptr)
    step = max(1, RING_BLOCK_CELLS // max(n, 1))
    for first in range(0, n, step):
        sources = np.arange(first, min(first + step, n))
        block = np.zeros((sources.size, n), dtype=bool)
        rows, nodes = _walk(idx, sources - first, sources)
        block[rows, nodes] = True
        cuts = (np.flatnonzero(np.diff(np.cumsum(degree[nodes]) // RING_BLOCK_CELLS)) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, nodes.size]):
            block[_walk(idx, rows[lo:hi], nodes[lo:hi])] = True
        block[sources - first, sources] = False
        yield first, block


def _ring_table(idx: StructureIndex) -> tuple[np.ndarray, np.ndarray]:
    """The rings of StructureIndex.rings, in two passes over the blocks: one
    counts each ring, one writes the ids into a table allocated at its exact
    size. Beyond the table, the build holds one block at a time."""
    n = idx.entity_count
    indptr = np.zeros(n + 1, dtype=np.int64)
    for first, block in _ring_blocks(idx):
        indptr[first + 1 : first + 1 + len(block)] = np.count_nonzero(block, axis=1)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.min_scalar_type(max(n - 1, 0)))
    for first, block in _ring_blocks(idx):
        # row-major nonzeros come out sorted by row, then by id
        found = np.flatnonzero(block)
        indices[indptr[first] : indptr[first + len(block)]] = np.remainder(found, n, out=found)
    indptr.flags.writeable = False
    indices.flags.writeable = False
    return indptr, indices


@dataclass(frozen=True)
class AlphaDistribution:
    """Uniform distribution over the 1- and 2-hop ring around a head entity.

    support is sorted; every member has probability 1 / len(support). An
    isolated head yields an empty support: no structure signal, and nothing
    to draw.
    """

    head: int
    support: np.ndarray


def alpha_distribution(idx: StructureIndex, head: int) -> AlphaDistribution:
    """The uniform distribution over head's 1- and 2-hop ring: a read-only
    slice of the index's ring table, which the first call builds."""
    idx._check_entity(head)
    indptr, indices = idx.rings
    return AlphaDistribution(head=head, support=indices[indptr[head] : indptr[head + 1]])


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
