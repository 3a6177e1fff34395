"""Block-community generator, and the toy cycle graph the tests train on."""

import dataclasses
import math

import pytest

from kgcl.data import load_dataset
from kgcl.synthetic import (
    SyntheticKGSpec,
    generate_knowledge_graph,
    generate_synthetic_kg,
    write_dataset_files,
)
from support import synthetic_splits_oracle, toy_cycle_kg


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticKGSpec(block_count=0)
    with pytest.raises(ValueError):
        SyntheticKGSpec(relation_count=0)
    with pytest.raises(ValueError):
        SyntheticKGSpec(intra_block_edge_probability=1.5)
    with pytest.raises(ValueError):
        SyntheticKGSpec(inter_block_edge_probability=-0.1)
    with pytest.raises(ValueError):
        SyntheticKGSpec(missing_fraction=0.0)
    with pytest.raises(ValueError):
        SyntheticKGSpec(missing_fraction=1.0)
    assert SyntheticKGSpec(block_count=3, entities_per_block=7).num_entities() == 21


def test_generation_is_deterministic_per_seed():
    spec = SyntheticKGSpec(seed=5)
    assert generate_synthetic_kg(spec) == generate_synthetic_kg(spec)
    other = generate_synthetic_kg(SyntheticKGSpec(seed=6))
    assert generate_synthetic_kg(spec) != other


def test_split_sizes_follow_the_missing_fraction():
    spec = SyntheticKGSpec(block_count=3, entities_per_block=10,
                           missing_fraction=0.25, seed=1)
    ds = generate_synthetic_kg(spec)
    total = sum(len(ds[s]) for s in ("train", "valid", "test"))
    n_missing = int(round(0.25 * total))
    assert len(ds["valid"]) == math.ceil(n_missing / 2)
    assert len(ds["test"]) == n_missing - len(ds["valid"])
    assert len(ds["train"]) == total - n_missing


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("missing", [0, 1, 7, 10])
def test_splits_match_the_set_and_loop_oracle(seed, missing):
    """Each split holds its facts in generation order, for held-out counts of
    0, 1, odd and even (valid takes the odd one)."""
    base = SyntheticKGSpec(block_count=3, entities_per_block=5, seed=seed)
    total = sum(len(rows) for rows in generate_synthetic_kg(base).values())
    spec = dataclasses.replace(base, missing_fraction=max(missing, 0.4) / total)
    ds = generate_synthetic_kg(spec)
    assert (len(ds["valid"]), len(ds["test"])) == (math.ceil(missing / 2), missing // 2)
    assert ds == synthetic_splits_oracle(spec)


def test_splits_are_disjoint_and_facts_unique():
    ds = generate_synthetic_kg(SyntheticKGSpec(seed=2))
    train, valid, test = set(ds["train"]), set(ds["valid"]), set(ds["test"])
    assert len(train) == len(ds["train"])
    assert not train & valid
    assert not train & test
    assert not valid & test


def test_every_entity_appears_somewhere():
    # probabilities low enough that isolated entities occur, exercising the
    # fallback fact
    spec = SyntheticKGSpec(block_count=6, entities_per_block=4,
                           relation_count=2,
                           intra_block_edge_probability=0.05,
                           inter_block_edge_probability=0.0,
                           missing_fraction=0.2, seed=3)
    ds = generate_synthetic_kg(spec)
    seen = set()
    for split in ds.values():
        for h, _, t in split:
            seen.add(h)
            seen.add(t)
    expected = {f"b{b}_e{i}" for b in range(6) for i in range(4)}
    assert seen == expected


def test_no_self_loops_or_duplicate_directed_pairs():
    ds = generate_synthetic_kg(SyntheticKGSpec(seed=4))
    pairs = []
    for split in ds.values():
        for h, _, t in split:
            assert h != t
            pairs.append((h, t))
    assert len(pairs) == len(set(pairs))


def test_written_files_round_trip(tmp_path):
    spec = SyntheticKGSpec(block_count=2, entities_per_block=6, seed=7)
    ds = generate_synthetic_kg(spec)
    paths = write_dataset_files(ds, str(tmp_path))
    assert set(paths) == {"train", "valid", "test"}
    kg = load_dataset(paths["train"], paths["valid"], paths["test"])
    direct = generate_knowledge_graph(spec)
    for name in ("train", "valid", "test"):
        assert kg.split(name).tolist() == direct.split(name).tolist()
    assert list(kg.entities) == list(direct.entities)



def test_a_failed_dataset_write_leaves_every_old_file_whole(tmp_path):
    spec = SyntheticKGSpec(block_count=2, entities_per_block=6, seed=7)
    paths = write_dataset_files(generate_synthetic_kg(spec), str(tmp_path))
    before = {split: open(path, "rb").read() for split, path in paths.items()}
    # the valid split fails after its first row; train is already replaced
    broken = {"train": [("x", "r", "y")], "valid": [("x", "r", "z"), None], "test": []}
    with pytest.raises(TypeError):
        write_dataset_files(broken, str(tmp_path))
    assert open(paths["train"], "rb").read() == b"x\tr\ty\n"
    assert open(paths["valid"], "rb").read() == before["valid"]
    assert open(paths["test"], "rb").read() == before["test"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["test.tsv", "train.tsv", "valid.tsv"]

def test_toy_cycle_graph_shape():
    kg = toy_cycle_kg(6)
    assert kg.num_entities() == 12
    assert kg.num_relations() == 2
    assert len(kg.train) == 24
    assert kg.valid.tolist() == kg.train[::3].tolist()
    assert kg.test.tolist() == kg.train[1::3].tolist()
    next_id = kg.relations["next"]
    n0, n1 = kg.entities["n0"], kg.entities["n1"]
    assert [n0, next_id, n1] in kg.train.tolist()
    with pytest.raises(ValueError):
        toy_cycle_kg(2)
