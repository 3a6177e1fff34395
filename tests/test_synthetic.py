"""Block-community generator, and the toy cycle graph the tests train on."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from kgcl.data import load_dataset
from kgcl.synthetic import (
    SyntheticKGSpec,
    _draw_edges,
    _draw_relation,
    generate_knowledge_graph,
    generate_synthetic_kg,
    write_dataset_files,
)
from support import synthetic_pair_loop, synthetic_splits_oracle, toy_cycle_kg

# analyze-negatives' benchmark graph: 512 entities, 261,632 ordered pairs
ANALYZE_SPEC = dict(block_count=16, entities_per_block=32, relation_count=3,
                    intra_block_edge_probability=0.3, inter_block_edge_probability=0.005)
STREAM_SPECS = [
    *(SyntheticKGSpec(**ANALYZE_SPEC, seed=seed) for seed in (1, 2, 3)),
    *(SyntheticKGSpec(relation_count=count, seed=seed)
      for seed in (0, 5) for count in (1, 2, 3, 7)),
    SyntheticKGSpec(block_count=1, entities_per_block=1),
    SyntheticKGSpec(intra_block_edge_probability=0.0, inter_block_edge_probability=0.0),
    SyntheticKGSpec(intra_block_edge_probability=1.0, inter_block_edge_probability=1.0),
    SyntheticKGSpec(block_count=40, entities_per_block=5, inter_block_edge_probability=0.5),
]


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


@pytest.mark.parametrize("field, value", [
    ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", "3"), ("entities_per_block", 2.5),
    ("block_count", True), ("relation_count", np.float64(2.0)), ("entities_per_block", 0),
])
def test_spec_rejects_a_count_or_seed_that_is_not_an_int_in_range(field, value):
    """Counts and the seed are ints (bool excluded), the seed >= 0 and the
    counts >= 1, checked when the spec is built and named in the error."""
    with pytest.raises(ValueError, match=f"^{field} must be an int >= [01], got "):
        SyntheticKGSpec(**{field: value})


def test_spec_takes_numpy_ints_and_seed_zero():
    spec = SyntheticKGSpec(block_count=np.int64(2), entities_per_block=np.int32(3), seed=0)
    assert spec.num_entities() == 6
    assert generate_synthetic_kg(spec) == generate_synthetic_kg(
        SyntheticKGSpec(block_count=2, entities_per_block=3, seed=0))


@pytest.mark.parametrize("spec", STREAM_SPECS, ids=repr)
def test_generator_matches_the_pair_loop_oracle(spec):
    """Whole datasets (facts, relations, order and splits) equal the pair
    loop's, which makes one rng.random() and rng.integers() call at a time."""
    assert generate_synthetic_kg(spec) == synthetic_splits_oracle(spec)


@pytest.mark.parametrize("spec", STREAM_SPECS, ids=repr)
def test_edge_draws_leave_the_generator_where_the_pair_loop_does(spec):
    """The edge draws hand the generator back in the loop's exact state,
    buffered 32-bit half and stale uinteger included, so the shuffle after
    them draws the same permutation."""
    rng = np.random.default_rng(spec.seed)
    heads, relations, tails = _draw_edges(spec, rng)
    edges, loop_rng = synthetic_pair_loop(spec)
    assert list(zip(heads.tolist(), relations, tails.tolist())) == edges
    assert rng.bit_generator.state == loop_rng.bit_generator.state


class WordFeed:
    """A bit generator stand-in for _draw_edges that serves the given words,
    then all-ones words."""

    def __init__(self, words):
        self.words, self.state = list(words), {"has_uint32": 0, "uinteger": 0}

    def random_raw(self, size):
        served, self.words = self.words[:size], self.words[size:]
        return np.array(served + [2**64 - 1] * (size - len(served)), dtype=np.uint64)

    def advance(self, delta):
        return self


@pytest.mark.parametrize("p", [0.3, 0.005, 0.1 + 0.2, 1e-300])
def test_the_accept_test_is_exact_next_to_the_threshold(p):
    """random() < p reads a word as (word >> 11) * 2**-53; the integer test
    decides as it does on words at and next to p * 2**53, whose low 11 bits
    are set."""
    spec = SyntheticKGSpec(block_count=1, entities_per_block=2, relation_count=1,
                           intra_block_edge_probability=p)
    near = [max(math.floor(p * 2**53) + step, 0) for step in (-1, 0, 1, 2)]
    for first, second in zip(near, near[1:]):
        feed = WordFeed([first << 11 | 0x7FF, second << 11 | 0x7FF])
        heads = _draw_edges(spec, SimpleNamespace(bit_generator=feed))[0]
        accepted = [m * 2.0**-53 < p for m in (first, second)]
        assert heads.tolist() == [u for u, hit in enumerate(accepted) if hit]


def test_stream_specs_end_with_and_without_a_buffered_half():
    # the small specs alone hold both parities; the 512-entity loops are slow
    parities = {synthetic_pair_loop(spec)[1].bit_generator.state["has_uint32"]
                for spec in STREAM_SPECS[3:]}
    assert parities == {0, 1}


@pytest.mark.parametrize("count", [2, 3, 7, 2**31 + 1, 3 * 2**30, 2**32 - 1])
def test_relation_draw_matches_generator_integers(count):
    """_draw_relation reads numpy's integers(count) from raw words: Lemire's
    multiply-and-reject over 32-bit halves, the high half buffered across
    random() calls. At 2**31 + 1 about half the halves are rejected; at
    3 * 2**30 a quarter are, and a quarter sit exactly on the threshold."""
    reference = np.random.default_rng(11)
    twin = np.random.default_rng(11).bit_generator
    words = twin.random_raw(500)  # the draw reads later words from twin itself
    randoms_before = np.random.default_rng(12).integers(0, 3, size=10_000)
    at, buffered, halves = 0, (0, 0), 0
    for randoms in randoms_before.tolist():
        for _ in range(randoms):
            word = int(words[at] if at < len(words) else twin.random_raw())
            assert (word >> 11) * 2.0**-53 == reference.random()
            at += 1
        before = (at, buffered[0])
        value, at, buffered = _draw_relation(words, at, buffered, count, twin)
        assert value == reference.integers(count)
        halves += 2 * (at - before[0]) + before[1] - buffered[0]
    rejected = halves - len(randoms_before)
    # rejections per draw: q / (1 - q) for a rejected share q of the halves
    mean = {2**31 + 1: 1.0, 3 * 2**30: 1 / 3}.get(count, 0.0) * len(randoms_before)
    assert 0.9 * mean <= rejected <= 1.1 * mean
    expected = np.random.default_rng(11).bit_generator
    state = expected.advance(at).state
    state["has_uint32"], state["uinteger"] = buffered
    assert reference.bit_generator.state == state


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
