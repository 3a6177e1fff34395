"""Dataset parsing, vocabularies, reverse augmentation and batching."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgcl.data import (
    REVERSE_SUFFIX,
    KnowledgeGraph,
    ParseError,
    Triple,
    Vocabulary,
    augment_reverse,
    fact_keys,
    load_dataset,
    make_batches,
)
from support import tails_by_query


def test_vocabulary_assigns_ids_by_first_appearance():
    vocab = Vocabulary(["b", "a", "b", "c"])
    assert len(vocab) == 3
    assert vocab.id_of("b") == 0
    assert vocab.id_of("a") == 1
    assert vocab.id_of("c") == 2
    assert vocab.token_of(1) == "a"
    assert vocab.tokens() == ["b", "a", "c"]
    assert "a" in vocab and "z" not in vocab
    with pytest.raises(KeyError):
        vocab.id_of("z")


def test_vocabulary_add_is_idempotent():
    vocab = Vocabulary()
    first = vocab.add("x")
    second = vocab.add("x")
    assert first == second == 0
    assert len(vocab) == 1


def test_from_string_triples_encodes_in_split_order():
    kg = KnowledgeGraph.from_string_triples(
        [("a", "likes", "b"), ("b", "likes", "c")],
        [("c", "knows", "a")],
        [("a", "knows", "c")],
    )
    assert kg.num_entities() == 3
    assert kg.num_relations() == 2
    assert kg.entities.id_of("a") == 0
    assert kg.relations.id_of("knows") == 1
    assert kg.train == [Triple(0, 0, 1), Triple(1, 0, 2)]
    assert kg.valid == [Triple(2, 1, 0)]
    assert kg.test == [Triple(0, 1, 2)]


def test_duplicates_within_a_split_are_dropped_with_warning(caplog):
    with caplog.at_level("WARNING"):
        kg = KnowledgeGraph.from_string_triples(
            [("a", "r", "b"), ("a", "r", "b"), ("b", "r", "a")])
    assert len(kg.train) == 2
    assert any("duplicate" in record.message for record in caplog.records)


def test_cross_split_duplicates_are_kept():
    kg = KnowledgeGraph.from_string_triples(
        [("a", "r", "b")], [("a", "r", "b")], [])
    assert len(kg.train) == 1 and len(kg.valid) == 1
    assert kg.train[0] == kg.valid[0]


def test_empty_train_split_is_rejected():
    with pytest.raises(ValueError):
        KnowledgeGraph.from_string_triples([], [("a", "r", "b")], [])


def test_fact_keys_separate_training_from_evaluation():
    kg = KnowledgeGraph.from_string_triples(
        [("a", "r", "b"), ("a", "r", "c")],
        [("a", "r", "d")],
        [],
    )
    a, r = kg.entities.id_of("a"), kg.relations.id_of("r")
    b, c, d = (kg.entities.id_of(x) for x in "bcd")
    assert kg.tails_of(kg.known_facts, [a], [r])[1].tolist() == sorted([b, c, d])
    assert kg.tails_of(kg.train_facts, [a], [r])[1].tolist() == sorted([b, c])


def test_fact_keys_are_sorted_unique_h_r_t_codes():
    triples = [Triple(1, 0, 2), Triple(0, 1, 1), Triple(1, 0, 2)]
    keys = fact_keys(triples, 2, 3)
    # (h * R + r) * N + t with R = 2 and N = 3
    np.testing.assert_array_equal(keys, [(0 * 2 + 1) * 3 + 1, (1 * 2 + 0) * 3 + 2])
    assert keys.dtype == np.int64
    assert fact_keys([], 2, 3).dtype == np.int64 and fact_keys([], 2, 3).size == 0


def test_split_lookup_validates_name():
    kg = KnowledgeGraph.from_string_triples([("a", "r", "b")])
    assert kg.split("train") == kg.train
    with pytest.raises(ValueError):
        kg.split("dev")


def test_replace_train_rebuilds_facts_and_shares_vocab():
    kg = KnowledgeGraph.from_string_triples(
        [("a", "r", "b"), ("b", "r", "c")], [("c", "r", "a")], [])
    a, b, c = (kg.entities.id_of(x) for x in "abc")
    r = kg.relations.id_of("r")
    assert kg.tails_of(kg.train_facts, [b], [r])[1].tolist() == [c]
    smaller = kg.replace_train(kg.train[:1])
    assert smaller.entities is kg.entities
    assert len(smaller.train) == 1
    assert smaller.tails_of(smaller.train_facts, [b], [r])[1].size == 0
    # valid facts still count
    assert smaller.tails_of(smaller.known_facts, [c], [r])[1].tolist() == [a]


def oracle_mask(tails, heads, relations, n):
    mask = np.zeros((len(heads), n), dtype=bool)
    for i, key in enumerate(zip(heads.tolist(), relations.tolist())):
        mask[i, sorted(tails.get(key, ()))] = True
    return mask


def test_train_tail_mask_matches_a_set_oracle():
    rng = np.random.default_rng(17)
    rows = [(f"e{rng.integers(12)}", f"r{rng.integers(3)}", f"e{rng.integers(12)}")
            for _ in range(60)]
    kg = augment_reverse(KnowledgeGraph.from_string_triples(rows[:45], rows[45:], []))
    # every (head, relation) pair, many of them with no train tail
    heads, relations = np.divmod(np.arange(kg.num_entities() * kg.num_relations()),
                                 kg.num_relations())
    train_tails = tails_by_query(kg.train)
    assert any((h, r) not in train_tails for h, r in zip(heads.tolist(), relations.tolist()))
    full = kg.train_tail_mask(heads, relations)
    assert full.dtype == bool and full.shape == (heads.size, kg.num_entities())
    np.testing.assert_array_equal(full, oracle_mask(train_tails, heads, relations,
                                                    kg.num_entities()))
    picked = rng.integers(0, heads.size, size=40)
    np.testing.assert_array_equal(kg.train_tail_mask(heads[picked], relations[picked]),
                                  full[picked])
    # a replaced train split gets its own keys, not the ones built above
    smaller = kg.replace_train(kg.train[::3])
    np.testing.assert_array_equal(
        smaller.train_tail_mask(heads, relations),
        oracle_mask(tails_by_query(smaller.train), heads, relations, kg.num_entities()))
    assert smaller.train_tail_mask(heads, relations).sum() < full.sum()


def check_facts_against_the_oracle(kg):
    """fact_keys, tails_of over train and known facts, and train_tail_mask
    against sets built from the splits, for every (head, relation) pair in
    both orders."""
    n, r = kg.num_entities(), kg.num_relations()
    pairs = np.arange(n * r)
    heads, relations = np.divmod(np.concatenate([pairs, pairs[::-1]]), r)
    queries = list(zip(heads.tolist(), relations.tolist()))
    for facts, splits in ((kg.train_facts, [kg.train]),
                          (kg.known_facts, [kg.train, kg.valid, kg.test])):
        assert facts.dtype == np.int64 and np.all(np.diff(facts) > 0)
        decoded = {(k // n // r, k // n % r, k % n) for k in facts.tolist()}
        assert decoded == {tuple(t) for triples in splits for t in triples}
        oracle = tails_by_query(*splits)
        rows, tails = kg.tails_of(facts, heads, relations)
        expected = [(i, t) for i, key in enumerate(queries) for t in sorted(oracle.get(key, ()))]
        assert list(zip(rows.tolist(), tails.tolist())) == expected
    np.testing.assert_array_equal(kg.train_tail_mask(heads, relations),
                                  oracle_mask(tails_by_query(kg.train), heads, relations, n))


fact_rows = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 2), st.integers(0, 6)).map(
        lambda f: (f"e{f[0]}", f"r{f[1]}", f"e{f[2]}")),
    max_size=25,
)


@given(train=fact_rows.filter(bool), valid=fact_rows, test=fact_rows,
       shared=st.integers(0, 4), reverse=st.booleans(), stride=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_fact_index_matches_a_set_oracle(train, valid, test, shared, reverse, stride):
    # train facts repeated in valid and test, then the same facts after
    # augmentation, a replaced train split and emptied held-out splits
    kg = KnowledgeGraph.from_string_triples(train, valid + train[:shared], train[:shared] + test)
    if reverse:
        kg = augment_reverse(kg)
    check_facts_against_the_oracle(kg)
    check_facts_against_the_oracle(kg.replace_train(kg.train[::stride]))
    # a copy made after kg built its keys must build its own
    blind = dataclasses.replace(kg, valid=[], test=[])
    check_facts_against_the_oracle(blind)
    np.testing.assert_array_equal(blind.known_facts, kg.train_facts)


# ---------------------------------------------------------------------------
# file loading


def write_tsv(path, rows):
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")


def test_load_dataset_round_trip(tmp_path):
    write_tsv(tmp_path / "train.tsv", [("a", "r", "b"), ("b", "r", "c")])
    write_tsv(tmp_path / "valid.tsv", [("a", "r", "c")])
    write_tsv(tmp_path / "test.tsv", [("c", "r", "a")])
    kg = load_dataset(
        str(tmp_path / "train.tsv"), str(tmp_path / "valid.tsv"), str(tmp_path / "test.tsv"))
    assert len(kg.train) == 2 and len(kg.valid) == 1 and len(kg.test) == 1
    assert kg.num_entities() == 3


def test_load_dataset_skips_blank_lines(tmp_path):
    (tmp_path / "train.tsv").write_text("a\tr\tb\n\n\nb\tr\tc\n", encoding="utf-8")
    write_tsv(tmp_path / "valid.tsv", [])
    write_tsv(tmp_path / "test.tsv", [])
    kg = load_dataset(
        str(tmp_path / "train.tsv"), str(tmp_path / "valid.tsv"), str(tmp_path / "test.tsv"))
    assert len(kg.train) == 2


def test_malformed_line_reports_path_and_line_number(tmp_path):
    (tmp_path / "train.tsv").write_text("a\tr\tb\na b c\n", encoding="utf-8")
    write_tsv(tmp_path / "valid.tsv", [])
    write_tsv(tmp_path / "test.tsv", [])
    with pytest.raises(ParseError) as err:
        load_dataset(
            str(tmp_path / "train.tsv"), str(tmp_path / "valid.tsv"),
            str(tmp_path / "test.tsv"))
    message = str(err.value)
    assert "train.tsv:2" in message
    assert "expected 3 tab-separated fields, got 1" in message


# ---------------------------------------------------------------------------
# reverse augmentation


def test_augment_reverse_doubles_every_split():
    kg = KnowledgeGraph.from_string_triples(
        [("a", "r", "b"), ("b", "s", "c")], [("a", "s", "c")], [("c", "r", "a")])
    aug = augment_reverse(kg)
    assert aug.reverse_augmented
    assert len(aug.train) == 4 and len(aug.valid) == 2 and len(aug.test) == 2
    assert aug.num_relations() == 4
    r = kg.relations.id_of("r")
    assert aug.relations.token_of(r + 2) == "r" + REVERSE_SUFFIX
    a, b = kg.entities.id_of("a"), kg.entities.id_of("b")
    assert aug.train[2] == Triple(b, r + 2, a)  # reversed copy of (a, r, b)


def test_augment_reverse_twice_is_an_error():
    kg = KnowledgeGraph.from_string_triples([("a", "r", "b")])
    with pytest.raises(ValueError):
        augment_reverse(augment_reverse(kg))


def test_augment_reverse_rejects_colliding_relation_names():
    kg = KnowledgeGraph.from_string_triples(
        [("a", "r", "b"), ("b", "r" + REVERSE_SUFFIX, "a")])
    with pytest.raises(ValueError):
        augment_reverse(kg)


# ---------------------------------------------------------------------------
# batching


def test_make_batches_partitions_the_train_split():
    rows = [("e%d" % i, "r", "e%d" % ((i + 1) % 7)) for i in range(7)]
    kg = KnowledgeGraph.from_string_triples(rows)
    batches = make_batches(kg, batch_size=3, seed=0)
    assert [len(b) for b in batches] == [3, 3, 1]
    seen = [t for b in batches for t in b.triples]
    assert sorted(seen) == sorted(kg.train)


def test_make_batches_is_seeded_and_shuffles():
    rows = [("e%d" % i, "r", "e%d" % ((i + 1) % 30)) for i in range(30)]
    kg = KnowledgeGraph.from_string_triples(rows)
    a = make_batches(kg, 10, seed=1)
    b = make_batches(kg, 10, seed=1)
    c = make_batches(kg, 10, seed=2)
    assert [x.triples for x in a] == [x.triples for x in b]
    assert [x.triples for x in a] != [x.triples for x in c]
    assert [x.triples for x in a] != [[kg.train[i] for i in range(10)],
                                      [kg.train[i] for i in range(10, 20)],
                                      [kg.train[i] for i in range(20, 30)]]


def test_batch_entities_lists_heads_then_tails():
    kg = KnowledgeGraph.from_string_triples(
        [("a", "r", "b"), ("c", "r", "d"), ("e", "r", "f")])
    (batch,) = make_batches(kg, batch_size=3, seed=5)
    heads = batch.heads()
    tails = batch.tails()
    np.testing.assert_array_equal(batch.batch_entities[:3], heads)
    np.testing.assert_array_equal(batch.batch_entities[3:], tails)
    np.testing.assert_array_equal(
        batch.relations(), np.zeros(3, dtype=np.int64))


def test_make_batches_rejects_bad_batch_size():
    kg = KnowledgeGraph.from_string_triples([("a", "r", "b")])
    with pytest.raises(ValueError):
        make_batches(kg, 0, seed=0)
