"""
Graph distances and the structure distribution around a head
=============================================================

"""

import numpy as np

from kgcl.data import KnowledgeGraph
from kgcl.graph import alpha_distribution, build_structure_index, distances_within, draw_ring_samples

# Build a small knowledge graph: a path a-b-c-d-e plus a shortcut a-f-e.
rows = [
    ("a", "r", "b"),
    ("b", "r", "c"),
    ("c", "r", "d"),
    ("d", "r", "e"),
    ("a", "s", "f"),
    ("f", "s", "e"),
]
kg = KnowledgeGraph.from_string_triples(rows, [], [])
idx = build_structure_index(kg)
names = list(kg.entities)  # the vocabulary maps name to id, in id order
a, e = kg.entities["a"], kg.entities["e"]

# The index treats every fact as an undirected edge and ignores relation
# labels; structure only cares about who is connected to whom.
print("undirected edges:", idx.indices.size // 2)

# Bounded breadth-first search from one entity.
dist = distances_within(idx, a, cap=3)
print("distances from a (cap 3):",
      {names[v]: d for v, d in sorted(dist.items())})

print("shortest a-e path:", distances_within(idx, a, cap=5).get(e))

# The 1-hop and 2-hop rings around a head entity: the distance-1 and
# distance-2 slices of a search capped at 2.
ring = distances_within(idx, a, cap=2)
print("1-hop of a:", sorted(names[v] for v, d in ring.items() if d == 1))
print("2-hop of a:", sorted(names[v] for v, d in ring.items() if d == 2))

# The structure distribution is uniform over that union; the debiased
# losses draw their likely-false-negative samples from it, because an
# entity close to the head is far more likely to be a hidden true tail.
alpha = alpha_distribution(idx, a)
print("support:", [names[v] for v in alpha.support],
      "each with probability", round(1 / alpha.support.size, 4))

draws = draw_ring_samples(idx, np.array([a]), 8, np.random.default_rng(0))[0]
print("eight draws:", [names[v] for v in draws])
