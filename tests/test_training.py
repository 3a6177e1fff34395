"""Sparse Adam semantics, the training loop's reproducibility contract, and
the tau sweep."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from kgcl.data import KnowledgeGraph, _write_replacing
from kgcl.evaluation import write_json
from kgcl.model import GradientTape, init_model, load_checkpoint
from kgcl.synthetic import SyntheticKGSpec, _write_tsv, generate_knowledge_graph
from kgcl.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    sweep_tau,
    train,
    write_log,
    write_sweep_csv,
)
from support import toy_cycle_kg


def models_equal(a, b):
    return (
        np.array_equal(a.entity_table, b.entity_table)
        and np.array_equal(a.relation_table, b.relation_table)
        and all(np.array_equal(a.aggregator[k], b.aggregator[k]) for k in a.aggregator)
    )


def chain_kg(n=8, with_valid=True):
    rows = [("e%d" % i, "r", "e%d" % (i + 1)) for i in range(n - 1)]
    valid = [("e0", "r", "e2")] if with_valid else []
    return KnowledgeGraph.from_string_triples(rows, valid, [])


# ---------------------------------------------------------------------------
# optimizer


def test_zero_learning_rate_and_decay_change_nothing():
    model = init_model(5, 2, 3, kind="mlp", seed=1)
    before = model.copy()
    tape = GradientTape(model)
    tape.add_entity(np.array([1, 3]), np.ones((2, 3)))
    tape.add_relation(np.array([0]), np.ones((1, 3)))
    tape.aggregator["b"] += 1.0
    AdamState(model).apply(model, tape, lr=0.0, decay=0.0)
    assert models_equal(model, before)


def test_zero_learning_rate_with_decay_shrinks_touched_rows_only():
    model = init_model(5, 2, 3, kind="sum", seed=2)
    before = model.copy()
    tape = GradientTape(model)
    tape.add_entity(np.array([1]), np.ones((1, 3)))
    AdamState(model).apply(model, tape, lr=0.0, decay=0.25)
    np.testing.assert_array_equal(model.entity_table[1], before.entity_table[1] * 0.75)
    untouched = [0, 2, 3, 4]
    np.testing.assert_array_equal(model.entity_table[untouched],
                                  before.entity_table[untouched])
    np.testing.assert_array_equal(model.relation_table, before.relation_table)


def test_first_adam_step_matches_hand_formula():
    model = init_model(4, 1, 3, kind="sum", seed=3)
    p0 = model.entity_table[2].copy()
    g = np.array([0.5, -1.5, 0.01])
    tape = GradientTape(model)
    tape.add_entity(np.array([2]), g[None, :])
    lr, decay = 0.01, 0.1
    AdamState(model).apply(model, tape, lr=lr, decay=decay)
    m_hat = ((1 - ADAM_BETA1) * g) / (1 - ADAM_BETA1)
    v_hat = ((1 - ADAM_BETA2) * g * g) / (1 - ADAM_BETA2)
    expected = p0 * (1 - decay) - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    np.testing.assert_allclose(model.entity_table[2], expected, rtol=1e-12)


def test_bias_correction_uses_the_global_step():
    # the second step touches a row never seen before; its moments are fresh
    # but the bias correction reflects step 2
    model = init_model(4, 1, 2, kind="sum", seed=4)
    state = AdamState(model)
    tape1 = GradientTape(model)
    tape1.add_entity(np.array([0]), np.array([[1.0, 1.0]]))
    state.apply(model, tape1, lr=0.1, decay=0.0)
    p0 = model.entity_table[3].copy()
    g = np.array([2.0, -0.5])
    tape2 = GradientTape(model)
    tape2.add_entity(np.array([3]), g[None, :])
    state.apply(model, tape2, lr=0.1, decay=0.0)
    assert state.step == 2
    m_hat = ((1 - ADAM_BETA1) * g) / (1 - ADAM_BETA1**2)
    v_hat = ((1 - ADAM_BETA2) * g * g) / (1 - ADAM_BETA2**2)
    expected = p0 - 0.1 * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    np.testing.assert_allclose(model.entity_table[3], expected, rtol=1e-12)


def test_aggregator_parameters_follow_the_same_update():
    model = init_model(3, 1, 2, kind="mlp", seed=5)
    b0 = model.aggregator["b"].copy()
    g = np.array([0.3, -0.7])
    tape = GradientTape(model)
    tape.aggregator["b"] += g
    AdamState(model).apply(model, tape, lr=0.05, decay=0.2)
    m_hat = ((1 - ADAM_BETA1) * g) / (1 - ADAM_BETA1)
    v_hat = ((1 - ADAM_BETA2) * g * g) / (1 - ADAM_BETA2)
    expected = b0 * 0.8 - 0.05 * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    np.testing.assert_allclose(model.aggregator["b"], expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(loss_mode="contrastive")
    with pytest.raises(ValueError):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(tau=1.0)
    with pytest.raises(ValueError):
        TrainConfig(debias_variant="eq8")
    with pytest.raises(ValueError):
        TrainConfig(floor_epsilon=-1e-6)
    with pytest.raises(ValueError):
        TrainConfig(loss_mode="hard", hard_k=-1)
    TrainConfig(loss_mode="hard", hard_k=0)
    with pytest.raises(ValueError):
        TrainConfig(m_structure=-1)
    with pytest.raises(ValueError, match="aggregator"):
        TrainConfig(aggregator="lstm")
    with pytest.raises(ValueError, match="dim"):
        TrainConfig(dim=0)
    with pytest.raises(ValueError, match="eval_every"):
        TrainConfig(eval_every=-1)
    TrainConfig(eval_every=0)
    for workers in (0, -4):
        with pytest.raises(ValueError, match="workers"):
            TrainConfig(workers=workers)
    with pytest.raises(ValueError, match="eval_candidates"):
        TrainConfig(eval_candidates=-5)
    TrainConfig(eval_candidates=0)
    for mode in ("simple", "hasa", "hasa_plus"):
        with pytest.raises(ValueError):
            TrainConfig(loss_mode=mode, self_normalized=True)
    for lr in (-1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
    TrainConfig(learning_rate=0.0)
    for decay in (-1e-4, 1.0, 2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="weight_decay"):
            TrainConfig(weight_decay=decay)
    TrainConfig(weight_decay=0.0)
    with pytest.raises(ValueError, match="floor_epsilon"):
        TrainConfig(floor_epsilon=math.nan)


def test_self_normalized_hard_mode_maps_to_ratio_estimator_config():
    cfg = TrainConfig(loss_mode="hard", self_normalized=True, tau=0.5, m_structure=9)
    lc = cfg.loss_config()
    assert lc.tau == 0.0
    assert lc.debias_variant == "eq7"
    plain = TrainConfig(loss_mode="hasa", tau=0.5, m_structure=9, debias_variant="alg1")
    assert plain.loss_config().tau == 0.5
    assert plain.loss_config().debias_variant == "alg1"


# ---------------------------------------------------------------------------
# the training loop


def small_cfg(**overrides):
    base = dict(loss_mode="simple", aggregator="sum", dim=6, batch_size=4,
                epochs=4, learning_rate=0.05, weight_decay=0.0, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def test_training_reduces_the_loss():
    kg = toy_cycle_kg(4)
    result = train(small_cfg(aggregator="gru", dim=8, epochs=20,
                             learning_rate=0.1), kg)
    steps = [r for r in result.log if r["event"] == "step"]
    first = np.mean([r["loss_mean"] for r in steps[:3]])
    last = np.mean([r["loss_mean"] for r in steps[-3:]])
    assert last < first * 0.8


def test_identical_runs_are_bitwise_identical():
    kg = chain_kg(10)
    cfg = small_cfg(loss_mode="hasa_plus", aggregator="gru", tau=0.05,
                    m_structure=3, epochs=2, weight_decay=1e-4)
    a = train(cfg, kg)
    b = train(cfg, kg)
    assert models_equal(a.model, b.model)
    assert a.log == b.log
    c = train(small_cfg(loss_mode="hasa_plus", aggregator="gru", tau=0.05,
                        m_structure=3, epochs=2, weight_decay=1e-4, seed=1), kg)
    assert not models_equal(a.model, c.model)


def test_epochs_shuffle_batches_differently():
    kg = chain_kg(20, with_valid=False)
    cfg = small_cfg(epochs=2, batch_size=5, learning_rate=0.0)
    result = train(cfg, kg)
    # with lr 0 the model never moves, so any difference between epochs
    # comes from batch order alone; k_mean varies with tail collisions
    records = [r for r in result.log if r["event"] == "step"]
    assert len(records) == 8


def test_hasa_at_tau_zero_alg1_trains_identically_to_hard():
    # the two losses are the same function of the scores but are evaluated
    # through different log-sum-exp groupings, so trajectories agree to
    # rounding rather than bitwise
    kg = chain_kg(12)
    shared = dict(aggregator="gru", dim=5, batch_size=4, epochs=3,
                  learning_rate=0.01, weight_decay=1e-4, seed=7)
    hard = train(TrainConfig(loss_mode="hard", **shared), kg)
    hasa = train(TrainConfig(loss_mode="hasa", tau=0.0, m_structure=4,
                             debias_variant="alg1", **shared), kg)
    np.testing.assert_allclose(hasa.model.entity_table,
                               hard.model.entity_table, rtol=1e-9, atol=1e-13)
    np.testing.assert_allclose(hasa.model.relation_table,
                               hard.model.relation_table, rtol=1e-9, atol=1e-13)
    for key in hard.model.aggregator:
        np.testing.assert_allclose(hasa.model.aggregator[key],
                                   hard.model.aggregator[key],
                                   rtol=1e-9, atol=1e-13)


def test_hasa_at_tau_zero_eq7_matches_self_normalized_hard():
    kg = chain_kg(12)
    shared = dict(aggregator="mlp", dim=5, batch_size=4, epochs=3,
                  learning_rate=0.01, weight_decay=1e-4, seed=9)
    hard = train(TrainConfig(loss_mode="hard", self_normalized=True, **shared), kg)
    hasa = train(TrainConfig(loss_mode="hasa", tau=0.0, m_structure=4,
                             debias_variant="eq7", **shared), kg)
    assert models_equal(hard.model, hasa.model)


@pytest.mark.parametrize("mode", ["simple", "hard", "hasa", "hasa_plus"])
def test_held_out_facts_change_no_trained_parameter(mode):
    # the planted missing facts sit in valid and test; training may read
    # only the train split, so emptying both (vocabularies kept) must leave
    # every trained table bit for bit
    kg = generate_knowledge_graph(SyntheticKGSpec(seed=3))
    assert len(kg.valid) and len(kg.test)
    blind = dataclasses.replace(kg, valid=[], test=[])
    cfg = small_cfg(loss_mode=mode, hard_k=5, tau=0.1, m_structure=3, epochs=2, eval_every=0)
    assert models_equal(train(cfg, kg).model, train(cfg, blind).model)


@pytest.mark.parametrize("mode", ["simple", "hard", "hasa", "hasa_plus"])
def test_divergence_aborts_and_dumps_the_batch(tmp_path, mode):
    kg = chain_kg(8)
    out = tmp_path / "run"
    cfg = small_cfg(loss_mode=mode, learning_rate=1e308, epochs=50, out_dir=str(out))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged):
            train(cfg, kg)
    dump = json.loads((out / "diverged_batch.json").read_text())
    assert {"epoch", "step", "loss", "triples"} <= set(dump)
    assert dump["triples"]


@pytest.mark.parametrize("mode", ["hard", "hasa", "hasa_plus"])
def test_hard_k_beyond_the_surviving_candidates_fails_before_any_file(tmp_path, mode):
    kg = toy_cycle_kg(4)  # 8 entities, one train tail per (head, relation)
    out = tmp_path / "run"
    with pytest.raises(ValueError) as err:
        train(small_cfg(loss_mode=mode, hard_k=8, out_dir=str(out)), kg)
    assert "hard_k 8" in str(err.value) and "7 candidates" in str(err.value)
    assert not out.exists()
    train(small_cfg(loss_mode=mode, hard_k=7, epochs=1), kg)


def test_a_failed_replace_keeps_the_old_artifacts_and_leaves_no_temporary_file(
        tmp_path, monkeypatch):
    kg = toy_cycle_kg(4)
    out = tmp_path / "run"
    train(small_cfg(epochs=1, out_dir=str(out)), kg)
    names = ["checkpoint_final.kge", "checkpoint_best.kge", "train_log.jsonl"]
    before = {name: (out / name).read_bytes() for name in names}

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        train(small_cfg(epochs=2, seed=5, out_dir=str(out)), kg)
    assert sorted(p.name for p in out.iterdir()) == sorted(names)
    assert {name: (out / name).read_bytes() for name in names} == before


# each input makes its writer fail after it has written its first rows
@pytest.mark.parametrize("write, obj", [
    (write_sweep_csv, [{"tau": 0.1}, None]),
    (write_log, [{"step": 1}, {"step": object()}]),
    (write_json, {"epoch": 0, "triples": [[0, 0, 1], object()]}),
    (_write_tsv, [("a", "r", "b"), None]),
])
def test_a_writer_that_raises_midway_leaves_the_old_file_whole(tmp_path, write, obj):
    path = tmp_path / "artifact"
    path.write_bytes(b"old contents\n")
    with pytest.raises((AttributeError, TypeError)):
        _write_replacing(write, obj, str(path))
    assert path.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_output_files_and_log_shape(tmp_path):
    kg = toy_cycle_kg(4)
    out = tmp_path / "run"
    cfg = small_cfg(epochs=3, eval_every=2, out_dir=str(out))
    result = train(cfg, kg)
    assert (out / "checkpoint_final.kge").exists()
    assert (out / "checkpoint_best.kge").exists()
    lines = (out / "train_log.jsonl").read_text().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert parsed == result.log
    events = {r["event"] for r in parsed}
    assert events == {"step", "validation"}
    for record in parsed:
        assert "time" not in record and "timestamp" not in record
        if record["event"] == "step":
            assert {"epoch", "step", "loss_mean", "pos", "neg", "false_neg",
                    "neg_hasa", "clamp_hits", "k_mean"} <= set(record)
        else:
            assert {"step", "mr", "mrr", "hit1", "hit3", "hit10"} <= set(record)
    final = load_checkpoint(str(out / "checkpoint_final.kge"))
    assert models_equal(final, result.model)
    validations = [r for r in parsed if r["event"] == "validation"]
    assert result.best_valid_mrr == max(v["mrr"] for v in validations)


def test_zero_epochs_still_runs_final_validation():
    kg = chain_kg(8)
    result = train(small_cfg(epochs=0), kg)
    assert result.final_valid is not None
    assert result.best_valid_mrr == result.final_valid.mrr
    assert all(r["event"] == "validation" for r in result.log)


def test_no_validation_split_yields_no_metrics():
    kg = chain_kg(8, with_valid=False)
    result = train(small_cfg(epochs=1), kg)
    assert result.final_valid is None
    assert result.best_valid_mrr is None


def test_write_log_is_stable(tmp_path):
    path = tmp_path / "log.jsonl"
    write_log([{"b": 1, "a": 2}], str(path))
    assert path.read_text() == '{"a": 2, "b": 1}\n'


# ---------------------------------------------------------------------------
# tau sweep


def test_sweep_requires_a_debiased_mode():
    kg = chain_kg(8)
    with pytest.raises(ValueError):
        sweep_tau(small_cfg(loss_mode="simple"), [0.0, 0.1], kg)


def test_sweep_rows_and_csv(tmp_path):
    kg = chain_kg(10)
    cfg = small_cfg(loss_mode="hasa", m_structure=2, epochs=2,
                    out_dir=str(tmp_path / "sweep"))
    rows = sweep_tau(cfg, [0.0, 0.05], kg)
    assert [row["tau"] for row in rows] == [0.0, 0.05]
    assert all("mrr" in row for row in rows)
    assert (tmp_path / "sweep" / "tau_0" / "checkpoint_final.kge").exists()
    assert (tmp_path / "sweep" / "tau_0.05" / "checkpoint_final.kge").exists()
    csv_path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, str(csv_path))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "tau,mr,mrr,hit1,hit3,hit10,triple_count"
    assert len(lines) == 3


def test_sweep_tau_zero_row_matches_self_normalized_hard_metrics():
    kg = chain_kg(10)
    shared = dict(aggregator="sum", dim=6, batch_size=4, epochs=2,
                  learning_rate=0.05, weight_decay=0.0, seed=3)
    rows = sweep_tau(TrainConfig(loss_mode="hasa", m_structure=2, **shared),
                     [0.0], kg)
    hard = train(TrainConfig(loss_mode="hard", self_normalized=True, **shared), kg)
    assert rows[0]["mrr"] == hard.final_valid.mrr
    assert rows[0]["mr"] == hard.final_valid.mr
