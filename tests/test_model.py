"""Aggregator forward/backward math and the checkpoint byte format.

The GRU and MLP forwards are re-derived here with standalone NumPy
expressions so the library implementations are checked against independent
code, and all backward passes are checked against central differences.
"""

import struct

import numpy as np
import pytest

from fdcheck import loss_grad_rel_err
from kgcl.model import (
    AGGREGATOR_KINDS,
    GradientTape,
    _sigmoid,
    aggregate_batch,
    aggregator_param_shapes,
    backward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from support import coalesce_oracle, grad_row, gru_oracle, masked_sigmoid, query, sum_model


def test_aggregator_param_shapes():
    assert aggregator_param_shapes("sum", 5) == []
    assert aggregator_param_shapes("mlp", 3) == [("w", (3, 6)), ("b", (3,))]
    gru = aggregator_param_shapes("gru", 2)
    assert [name for name, _ in gru] == [
        "w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_n", "u_n", "b_n"]
    assert all(shape == (2, 2) for name, shape in gru if name.startswith(("w", "u")))
    with pytest.raises(ValueError):
        aggregator_param_shapes("nope", 2)


def test_init_model_is_seed_deterministic_and_bounded():
    a = init_model(7, 3, 5, kind="gru", seed=42, init_scale=0.1)
    b = init_model(7, 3, 5, kind="gru", seed=42, init_scale=0.1)
    np.testing.assert_array_equal(a.entity_table, b.entity_table)
    np.testing.assert_array_equal(a.relation_table, b.relation_table)
    for name in a.aggregator:
        np.testing.assert_array_equal(a.aggregator[name], b.aggregator[name])
    c = init_model(7, 3, 5, kind="gru", seed=43, init_scale=0.1)
    assert not np.array_equal(a.entity_table, c.entity_table)
    assert np.abs(a.entity_table).max() <= 0.1
    with pytest.raises(ValueError):
        init_model(0, 1, 4)


def test_model_copy_is_independent():
    a = init_model(4, 2, 3, kind="mlp", seed=0)
    b = a.copy()
    b.entity_table[0, 0] += 1.0
    b.aggregator["b"][0] += 1.0
    assert a.entity_table[0, 0] != b.entity_table[0, 0]
    assert a.aggregator["b"][0] != b.aggregator["b"][0]


def test_init_model_draws_params_as_the_per_part_draws_did():
    """One uniform draw over params gives the values that one draw per
    table and per aggregator parameter, in checkpoint order, gave."""
    for kind in AGGREGATOR_KINDS:
        rng = np.random.default_rng(11)
        parts = [rng.uniform(-0.1, 0.1, size=(6, 4)), rng.uniform(-0.1, 0.1, size=(2, 4))]
        parts += [rng.uniform(-0.1, 0.1, size=shape)
                  for _, shape in aggregator_param_shapes(kind, 4)]
        model = init_model(6, 2, 4, kind=kind, seed=11, init_scale=0.1)
        assert model.params.tobytes() == np.concatenate([p.ravel() for p in parts]).tobytes()


def test_every_part_of_a_model_is_a_view_of_params(tmp_path):
    """Models from init_model, copy() and load_checkpoint hold every table
    and aggregator parameter as a view of params, in checkpoint order, and
    a checkpoint's payload is params' bytes; a tape's aggregator gradients
    are views of its aggregator_grad."""
    for kind in AGGREGATOR_KINDS:
        model = init_model(5, 2, 3, kind=kind, seed=7)
        path = tmp_path / f"{kind}.kge"
        save_checkpoint(model, str(path))
        assert path.read_bytes().split(b"\n", 1)[1] == model.params.tobytes()
        for m in (model, model.copy(), load_checkpoint(str(path))):
            named = [m.aggregator[name] for name, _ in aggregator_param_shapes(kind, 3)]
            assert all(np.shares_memory(part, m.params)
                       for part in [m.tables, m.entity_table, m.relation_table, *named])
            in_order = np.concatenate([p.ravel() for p in [m.entity_table, m.relation_table,
                                                           *named]])
            assert in_order.tobytes() == m.params.tobytes() == model.params.tobytes()
        assert not np.shares_memory(model.copy().params, model.params)
        tape = GradientTape(model)
        assert all(np.shares_memory(g, tape.aggregator_grad) for g in tape.aggregator.values())
        assert tape.aggregator_grad.size == model.params.size - model.tables.size


# ---------------------------------------------------------------------------
# aggregator forwards against standalone reimplementations


def reference_gru_query(model, head, relation):
    sigmoid = lambda v: 1.0 / (1.0 + np.exp(-v))
    p = model.aggregator
    h = np.zeros(model.dim)
    for x in (model.entity_table[head], model.relation_table[relation]):
        z = sigmoid(p["w_z"] @ x + p["u_z"] @ h + p["b_z"])
        r = sigmoid(p["w_r"] @ x + p["u_r"] @ h + p["b_r"])
        n = np.tanh(p["w_n"] @ x + p["u_n"] @ (r * h) + p["b_n"])
        h = (1.0 - z) * n + z * h
    return h


def test_sum_aggregator_adds_rows():
    model = init_model(5, 2, 4, kind="sum", seed=1)
    q = query(model, 3, 1)
    np.testing.assert_array_equal(q, model.entity_table[3] + model.relation_table[1])


def test_mlp_aggregator_matches_reference():
    model = init_model(5, 2, 4, kind="mlp", seed=5, init_scale=0.7)
    q = query(model, 2, 0)
    x = np.concatenate([model.entity_table[2], model.relation_table[0]])
    expected = np.tanh(model.aggregator["w"] @ x + model.aggregator["b"])
    np.testing.assert_allclose(q, expected, rtol=1e-14)


def test_gru_aggregator_matches_reference():
    model = init_model(6, 3, 5, kind="gru", seed=7, init_scale=0.8)
    for head, relation in [(0, 0), (4, 2), (5, 1)]:
        q = query(model, head, relation)
        np.testing.assert_allclose(
            q, reference_gru_query(model, head, relation), rtol=1e-13)


@pytest.mark.parametrize("init_scale", [0.05, 1.0])
@pytest.mark.parametrize("batch_size", [1, 37])
def test_gru_matches_two_full_cells_from_a_zero_state_bit_for_bit(init_scale, batch_size):
    # the first cell skips the zero state's recurrent products and reset
    # gate, whose values and gradients are exactly zero
    rng = np.random.default_rng(batch_size)
    model = init_model(29, 4, 6, kind="gru", seed=batch_size, init_scale=init_scale)
    heads, relations = rng.integers(0, 29, batch_size), rng.integers(0, 4, batch_size)
    d_query = rng.normal(size=(batch_size, 6))
    queries, cache = aggregate_batch(model, heads, relations)
    tape, oracle_tape = GradientTape(model), GradientTape(model)
    backward(model, cache, d_query, tape)
    assert queries.tobytes() == gru_oracle(model, heads, relations, d_query, oracle_tape).tobytes()
    for got, want in ((tape.entity_rows(), oracle_tape.entity_rows()),
                      (tape.relation_rows(), oracle_tape.relation_rows())):
        assert [part.tobytes() for part in got] == [part.tobytes() for part in want]
    for name, grad in tape.aggregator.items():
        assert grad.tobytes() == oracle_tape.aggregator[name].tobytes(), name


def test_gru_with_zero_parameters_emits_zero():
    # zero gates give z=0.5 and n=tanh(0)=0 from a zero state, so the
    # hidden state never leaves zero
    model = init_model(3, 2, 4, kind="gru", seed=0)
    for name in model.aggregator:
        model.aggregator[name][...] = 0.0
    np.testing.assert_array_equal(query(model, 1, 1), np.zeros(4))


def test_aggregate_batch_validates_ids_and_shapes():
    model = init_model(3, 2, 4, kind="sum", seed=0)
    with pytest.raises(ValueError):
        aggregate_batch(model, np.array([0, 1]), np.array([0]))
    # the check reads ids as unsigned, where -1 and int64 min lie above any bound
    lowest = np.iinfo(np.int64).min
    for heads, relations, what in [([3], [0], "entity"), ([0], [2], "relation"),
                                   ([-1], [0], "entity"), ([0], [-1], "relation"),
                                   ([0, lowest], [0, 0], "entity"), ([0], [lowest], "relation")]:
        with pytest.raises(ValueError, match=f"^{what} id out of range"):
            aggregate_batch(model, np.array(heads), np.array(relations))
    queries, _ = aggregate_batch(model, np.array([2, 0]), np.array([1, 1]))  # N - 1 and R - 1
    np.testing.assert_array_equal(queries, model.entity_table[[2, 0]] + model.relation_table[1])
    queries, _ = aggregate_batch(model, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert queries.shape == (0, 4)


def test_aggregate_is_deterministic():
    model = init_model(5, 2, 6, kind="gru", seed=11)
    np.testing.assert_array_equal(query(model, 2, 1), query(model, 2, 1))


def test_sigmoid_equals_the_masked_two_branch_form_bit_for_bit():
    rng = np.random.default_rng(17)
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324],
        [709.0, -709.0, 746.0, -746.0],
        rng.normal(scale=1.0, size=4000),
        rng.normal(scale=800.0, size=4000),
    ]).reshape(-1, 1)
    got, want = _sigmoid(x), masked_sigmoid(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# backward


@pytest.mark.parametrize("kind", ["sum", "mlp", "gru"])
def test_backward_matches_finite_differences(kind):
    rng = np.random.default_rng(13)
    heads = np.array([0, 2, 2, 4])
    rels = np.array([1, 0, 2, 1])
    weights = rng.normal(size=(4, 5))

    def linear_probe(model, tape):
        queries, cache = aggregate_batch(model, heads, rels)
        value = float((queries * weights).sum())
        if tape is not None:
            backward(model, cache, weights, tape)
        return value

    model = init_model(5, 3, 5, kind=kind, seed=17, init_scale=0.6)
    err = loss_grad_rel_err(linear_probe, model, rng, coord_count=150)
    assert err < 1e-4


def test_backward_sum_passes_gradient_through():
    model = init_model(4, 2, 3, kind="sum", seed=0)
    queries, cache = aggregate_batch(model, np.array([1]), np.array([0]))
    tape = GradientTape(model)
    upstream = np.array([[0.5, -1.0, 2.0]])
    backward(model, cache, upstream, tape)
    np.testing.assert_array_equal(grad_row(tape.entity_rows(), 1), upstream[0])
    np.testing.assert_array_equal(grad_row(tape.relation_rows(), 0), upstream[0])


def test_backward_zero_upstream_gives_zero_gradients():
    model = init_model(4, 2, 3, kind="gru", seed=3)
    queries, cache = aggregate_batch(model, np.array([1, 2]), np.array([0, 1]))
    tape = GradientTape(model)
    backward(model, cache, np.zeros((2, 3)), tape)
    ids, grads = tape.entity_rows()
    assert np.all(grads == 0.0)
    for name, grad in tape.aggregator.items():
        assert np.all(grad == 0.0)


def test_backward_without_cache_is_an_error():
    model = init_model(4, 2, 3, kind="sum", seed=0)
    with pytest.raises(ValueError):
        backward(model, None, np.zeros((1, 3)), GradientTape(model))


def test_tape_coalesces_repeated_rows():
    model = init_model(5, 2, 2, kind="sum", seed=0)
    tape = GradientTape(model)
    tape.add_entity(np.array([3, 1, 3]), np.array([[1.0, 0.0], [0.5, 0.5], [2.0, 1.0]]))
    tape.add_entity(np.array([1]), np.array([[0.5, -0.5]]))
    ids, grads = tape.entity_rows()
    np.testing.assert_array_equal(ids, [1, 3])
    np.testing.assert_allclose(grads, [[1.0, 0.0], [3.0, 1.0]])
    np.testing.assert_array_equal(grad_row(tape.entity_rows(), 0), np.zeros(2))


@pytest.mark.parametrize("seed", range(5))
def test_tape_coalescing_matches_add_at_bit_for_bit(seed):
    # repeated ids over several entries, magnitudes far apart so that the
    # order of the additions shows in the bits, and -0.0 cells, some of them
    # in an id whose rows are all -0.0
    rng = np.random.default_rng(seed)
    dim = 3
    model = init_model(40, 2, dim, kind="sum", seed=0)
    tape = GradientTape(model)
    chunks = []
    for size in (0, 1, 7, 60):
        ids = rng.integers(0, 12, size=size)
        grads = rng.normal(size=(size, dim)) * 10.0 ** rng.integers(-12, 12, size=(size, dim))
        grads[rng.random((size, dim)) < 0.2] = -0.0
        ids[rng.random(size) < 0.1] = 39
        grads[ids == 39] = -0.0
        tape.add_entity(ids, grads)
        chunks.append((ids, grads))
    ids = np.concatenate([c[0] for c in chunks])
    grads = np.concatenate([c[1] for c in chunks])
    unique, inverse = np.unique(ids, return_inverse=True)
    expected = np.zeros((unique.size, dim))
    np.add.at(expected, inverse, grads)
    got_ids, got = tape.entity_rows()
    np.testing.assert_array_equal(got_ids, unique)
    assert got.tobytes() == expected.tobytes()


def coalesce_cases():
    """(name, entities, relations, dim, [(table, ids, rows) per add])."""
    rng = np.random.default_rng(29)
    repeated = [("entity", [3, 1, 3], [[1.0, 0.0], [0.5, 0.5], [2.0, 1.0]]),
                ("relation", [1, 0], [[0.25, -1.0], [1e-300, 3.0]]),
                ("entity", [1, 4, 3, 3], [[0.5, -0.5], [7.0, 8.0], [1e16, 1.0], [-1e16, 2.0]]),
                ("relation", [1], [[-0.25, 1.0]])]
    zeros = [("entity", [2, 2, 0], [[-0.0, -0.0], [-0.0, 1.0], [-0.0, -0.0]]),
             ("relation", [0, 0], [[-0.0, 0.0], [-0.0, -0.0]])]
    ends = [("entity", [4, 0, 4], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
            ("relation", [1, 0], [[1.0, 1.0], [2.0, 2.0]])]
    ids, rows = rng.integers(0, 2048, size=4096), rng.normal(size=(4096, 32))
    rows *= 10.0 ** rng.integers(-8, 8, size=rows.shape)
    rows[rng.random(rows.shape) < 0.05] = -0.0
    many = [("entity", ids[at : at + 1024], rows[at : at + 1024]) for at in range(0, 4096, 1024)]
    many.append(("relation", ids[:300] % 5, rows[:300]))
    return [("repeated_ids", 5, 2, 2, repeated), ("negative_zeros", 5, 2, 2, zeros),
            ("single_row", 5, 2, 2, [("entity", [3], [[1.5, -0.0]])]),
            ("first_and_last_ids", 5, 2, 2, ends), ("random_4096_rows", 2048, 5, 32, many)]


@pytest.mark.parametrize("case", coalesce_cases(), ids=lambda case: case[0])
def test_tape_rows_match_the_coalesce_oracle_byte_for_byte(case):
    _, entities, relations, dim, adds = case
    tape = GradientTape(init_model(entities, relations, dim, kind="sum", seed=0))
    chunks = {"entity": ([], []), "relation": ([], [])}
    for table, ids, rows in adds:
        ids, rows = np.array(ids, dtype=np.int64), np.array(rows, dtype=np.float64)
        getattr(tape, f"add_{table}")(ids, rows)
        chunks[table][0].append(ids)
        chunks[table][1].append(rows)
    for table, got in (("entity", tape.entity_rows()), ("relation", tape.relation_rows())):
        want = coalesce_oracle(*chunks[table], dim)
        assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes()
        assert got[1].shape == want[1].shape and got[1].tobytes() == want[1].tobytes()


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    model = init_model(6, 3, 4, kind="gru", seed=23, init_scale=0.4)
    path = tmp_path / "model.kge"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.kind == "gru"
    np.testing.assert_array_equal(loaded.entity_table, model.entity_table)
    np.testing.assert_array_equal(loaded.relation_table, model.relation_table)
    for name in model.aggregator:
        np.testing.assert_array_equal(loaded.aggregator[name], model.aggregator[name])


def test_checkpoint_byte_layout(tmp_path):
    entity = np.array([[1.0, 2.0], [3.0, 4.0]])
    relation = np.array([[5.0, 6.0]])
    model = sum_model(entity, relation)
    path = tmp_path / "tiny.kge"
    save_checkpoint(model, str(path))
    raw = path.read_bytes()
    expected = b"KGE v1 2 1 2 sum\n" + struct.pack("<6d", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert raw == expected


def test_checkpoint_rejects_corrupt_files(tmp_path):
    model = init_model(3, 2, 2, kind="mlp", seed=1)
    path = tmp_path / "model.kge"
    save_checkpoint(model, str(path))
    raw = path.read_bytes()

    truncated = tmp_path / "short.kge"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        load_checkpoint(str(truncated))

    bad_magic = tmp_path / "magic.kge"
    bad_magic.write_bytes(b"XYZ" + raw[3:])
    with pytest.raises(ValueError):
        load_checkpoint(str(bad_magic))

    not_a_checkpoint = tmp_path / "plain.txt"
    not_a_checkpoint.write_text("just some text\n")
    with pytest.raises(ValueError):
        load_checkpoint(str(not_a_checkpoint))

    # sizes below 1, each with exactly the payload its header asks for
    for header, doubles in (("KGE v1 -2 3 4 sum", 4), ("KGE v1 3 1 0 sum", 0)):
        small = tmp_path / "small.kge"
        small.write_bytes(f"{header}\n".encode("ascii") + np.zeros(doubles).tobytes())
        with pytest.raises(ValueError, match="must all be >= 1"):
            load_checkpoint(str(small))
