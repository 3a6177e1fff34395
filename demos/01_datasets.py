"""
Loading triple datasets and generating synthetic ones
======================================================

"""

import os
import tempfile

from kgcl.data import augment_reverse, load_dataset
from kgcl.synthetic import SyntheticKGSpec, generate_synthetic_kg, write_dataset_files

# A dataset is three TSV files of (head, relation, tail) rows. The synthetic
# generator plants a blocky community graph and hides a fraction of its
# facts in the valid/test splits, so they are genuinely missing from train.
spec = SyntheticKGSpec(
    block_count=3,
    entities_per_block=8,
    relation_count=2,
    intra_block_edge_probability=0.5,
    inter_block_edge_probability=0.03,
    missing_fraction=0.3,
    seed=0,
)
dataset = generate_synthetic_kg(spec)
print("generated facts per split:", {s: len(rows) for s, rows in dataset.items()})

out_dir = tempfile.mkdtemp(prefix="kgcl_demo_")
paths = write_dataset_files(dataset, out_dir)
print("wrote", sorted(os.path.basename(p) for p in paths.values()), "to", out_dir)

# Loading assigns integer ids in order of first appearance. Each split is a
# read-only (n x 3) int64 array of (h, r, t) rows. Each fact is one sorted
# int64 key, (h * R + r) * N + t, so the known tails of a (head, relation)
# pair are one range of keys, found by binary search.
kg = load_dataset(paths["train"], paths["valid"], paths["test"])
print("entities:", kg.num_entities(), "relations:", kg.num_relations())
print("train/valid/test shapes:", kg.train.shape, kg.valid.shape, kg.test.shape)

# The vocabularies are dicts from name to id, in id order, so list() reads
# the names back by id.
head, relation, tail = kg.train[0].tolist()
entity_names, relation_names = list(kg.entities), list(kg.relations)
names = (entity_names[head], relation_names[relation], entity_names[tail])
print("first train triple:", names, "->", (head, relation, tail))

_, tails = kg.tails_of(kg.known_facts, [head], [relation])
print("all known tails of that (head, relation):", tails.tolist())

# Reverse augmentation doubles every split with (tail, twin relation, head)
# rows, the standard trick that lets one tail-ranking model answer head
# queries too.
aug = augment_reverse(kg)
print("after augmentation:", len(aug.train), "train triples,",
      aug.num_relations(), "relations")
