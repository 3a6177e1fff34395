"""Undirected entity graph over the train split: truncated BFS distances
and the uniform distribution over each head's 1-/2-hop ring, used to
estimate the false-negative term."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import KnowledgeGraph

# cells per dense (sources x N) hop block of the ring table and hops_at
HOP_BLOCK_CELLS = 2**19


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
    """Every entity at distance <= cap from source, mapped to its exact
    distance, the source itself at 0: the hop walk's one block for source."""
    idx._check_entity(source)
    cap = max(0, min(cap, idx.entity_count))
    row = next(_hop_blocks(idx, np.array([source]), cap))[1][0]
    reached = np.flatnonzero(row)
    return dict(zip(reached.tolist(), (cap + 1 - row[reached]).tolist()))


def _walk(idx: StructureIndex, rows: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, ...]:
    """One hop from the frontier pairs (rows, nodes): every (row, neighbour)
    pair, read from the CSR in frontier order."""
    starts, counts = idx.indptr[nodes], idx.indptr[nodes + 1] - idx.indptr[nodes]
    walk = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    return np.repeat(rows, counts), idx.indices[walk]


def _hop_blocks(idx: StructureIndex, sources: np.ndarray, cap: int):
    """Yield (first, block) for consecutive runs of sources: a dense block of
    at most HOP_BLOCK_CELLS cells (one row at least) whose cell (i, v) counts
    the depths 0..cap at which v lay within reach of sources[first + i]:
    cap + 1 - hop, or 0 beyond cap hops. The first hop's pairs are the next
    frontier (a source's neighbours are distinct), a later one the cells
    counted once; each later depth is walked in pieces of at most a quarter
    of the block's cell count of steps (in cache) plus one entity's degree."""
    n = idx.entity_count
    degree = np.diff(idx.indptr)
    step = max(1, HOP_BLOCK_CELLS // max(n, 1))
    for first in range(0, sources.size, step):
        nodes = sources[first : first + step]
        rows = np.arange(nodes.size)
        seen = np.zeros((nodes.size, n), dtype=bool)
        seen[rows, nodes] = True
        block = seen.astype(np.min_scalar_type(cap + 1))
        for depth in range(1, cap + 1):
            if depth == 1:  # a source's neighbours are distinct: the next frontier
                rows, nodes = _walk(idx, rows, nodes)
                seen[rows, nodes] = True
            else:
                piece = max(1, seen.size // 4)
                cuts = (np.flatnonzero(np.diff(np.cumsum(degree[nodes]) // piece)) + 1).tolist()
                for lo, hi in zip([0, *cuts], [*cuts, nodes.size]):
                    seen[_walk(idx, rows[lo:hi], nodes[lo:hi])] = True
            block += seen.view(np.uint8)
            if 1 < depth < cap:  # the cells first seen at this depth
                rows, nodes = np.divmod(np.flatnonzero(block == 1), n)
            if not nodes.size:  # no later depth sees a new cell
                block[seen] += cap - depth
                break
        yield first, block


def hops_at(idx: StructureIndex, sources: np.ndarray, cap: int, keys: np.ndarray) -> np.ndarray:
    """The int64 hop count from sources[i] to v at each key i * N + v, or
    cap + 1 when v lies beyond cap hops or the key beyond the sources: the
    keys argsorted once, then read from the blocks of _hop_blocks in turn."""
    n = idx.entity_count
    if sources.size and not (0 <= sources.min() and sources.max() < n):
        raise ValueError(f"source ids must lie in [0, {n})")
    depth = max(0, min(cap, n))  # no BFS reaches deeper than N hops
    # a block cell counts depth + 1 - hop, or 0 beyond the walk
    hop_of = np.append(cap + 1, np.arange(depth, -1, -1))
    order = np.argsort(keys)
    ordered, hops = keys[order], np.full(keys.size, cap + 1, dtype=np.int64)
    for first, block in _hop_blocks(idx, sources, depth):
        lo, hi = np.searchsorted(ordered, [first * n, (first + len(block)) * n])
        hops[order[lo:hi]] = hop_of[block.ravel()[ordered[lo:hi] - first * n]]
    return hops


def _ring_table(idx: StructureIndex) -> tuple[np.ndarray, np.ndarray]:
    """The rings of StructureIndex.rings: hops 1 and 2 of the hop blocks at
    cap 2, in two passes. One counts each ring, one writes the ids into a
    table of its exact size, so the build holds one block beyond the table."""
    n = idx.entity_count
    indptr = np.zeros(n + 1, dtype=np.int64)
    for first, block in _hop_blocks(idx, np.arange(n), 2):
        np.fill_diagonal(block[:, first:], 0)  # each source's own cell
        indptr[first + 1 : first + 1 + len(block)] = np.count_nonzero(block, axis=1)
    np.cumsum(indptr, out=indptr)
    indices = np.empty(indptr[-1], dtype=np.min_scalar_type(max(n - 1, 0)))
    for first, block in _hop_blocks(idx, np.arange(n), 2):
        np.fill_diagonal(block[:, first:], 0)
        # row-major nonzeros come out sorted by row, then by id; a boolean
        # block reads back several times faster than the uint8 one
        found = np.flatnonzero(block != 0)
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

    support: np.ndarray


def alpha_distribution(idx: StructureIndex, head: int) -> AlphaDistribution:
    """The uniform distribution over head's 1- and 2-hop ring: a read-only
    slice of the index's ring table, which the first call builds."""
    idx._check_entity(head)
    indptr, indices = idx.rings
    return AlphaDistribution(support=indices[indptr[head] : indptr[head + 1]])


def _draw_segments(
    pool: np.ndarray, sizes: np.ndarray, m: int, rng: np.random.Generator
) -> np.ndarray:
    """A (len(sizes) x m) block: row i draws m entries with replacement from
    pool's next sizes[i] entries as rng.choice(segment, m) would, rows in
    order from one stream; an empty segment gives a -1 row and draws nothing."""
    out = np.full((sizes.size, m), -1, dtype=np.int64)
    full = np.flatnonzero(sizes)
    if m and full.size:
        picks = rng.integers(0, sizes[full, None], size=(full.size, m))
        out[full] = pool[(np.cumsum(sizes) - sizes)[full, None] + picks]
    return out


def draw_ring_samples(
    idx: StructureIndex, heads: np.ndarray, m: int, rng: np.random.Generator
) -> np.ndarray:
    """A (B x m) block: row i draws m entities with replacement from the ring
    of heads[i] as rng.choice(support, m) would, rows in order from one
    stream; a -1 row has an empty ring and, like m == 0, draws nothing."""
    supports = [alpha_distribution(idx, head).support for head in heads.tolist()]
    sizes = np.array([support.size for support in supports], dtype=np.int64)
    # the empty sizes[:0] keeps a batch of no heads concatenable
    return _draw_segments(np.concatenate([*supports, sizes[:0]]), sizes, m, rng)
