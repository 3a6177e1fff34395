"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import kgcl  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from gen import BlockShape, generate  # noqa: E402
from workloads import WORKLOADS, AnalyzeWorkload, TrainWorkload  # noqa: E402

TINY_TRAIN = TrainWorkload(
    name="tiny_train",
    shape=BlockShape(blocks=4, per_block=8, relations=2, p_intra=0.3, p_inter=0.02),
    config=dict(
        loss_mode="hasa", aggregator="gru", dim=8, batch_size=16, hard_k=2, m_structure=4,
        tau=0.05, learning_rate=0.05, epochs=1, eval_every=2,
    ),
    mrr_floor=0.0,
)

TINY_ANALYZE = AnalyzeWorkload(
    name="tiny_analyze",
    spec=dict(block_count=3, entities_per_block=8, relation_count=2,
              intra_block_edge_probability=0.4, inter_block_edge_probability=0.02),
    removal_fraction=0.3,
    pretrain=dict(loss_mode="simple", aggregator="gru", dim=8, batch_size=16, epochs=1,
                  learning_rate=0.03, weight_decay=0.0),
    k_values=(3, 7),
    distance_cap=3,
    max_triples=32,
    mrr_floor=0.0,
)


@pytest.mark.parametrize("samples", [20, 21, 88, 99, 100, 101, 206, 999, 1000, 1830, 5000])
def test_tail_level_leaves_ten_samples_beyond_and_is_the_highest_such(samples):
    level = run.tail_level(samples)
    values = np.random.default_rng(samples).permutation(samples).astype(float)
    assert np.count_nonzero(values > np.percentile(values, level)) >= 10
    if level < 99:
        assert samples * (100 - (level + 1)) / 100 < 10


def test_tail_level_refuses_too_few_samples():
    with pytest.raises(ValueError):
        run.tail_level(19)


def test_self_time_subtracts_the_union_of_direct_children_clipped_to_the_parent():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.inner", 1.5, 2.0, 1, None],
        ["b", 3.0, 6.0, 0, None],  # overlaps a: together they cover [1, 6]
        ["c", 9.0, 12.0, 0, None],  # only [9, 10] lies inside root
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.5, 0.5, 3.0, 3.0])
    assert tracing.covered_within(spans, 0, (2.0, 9.5)) == pytest.approx(4.5)


def test_tracer_records_nesting_and_step_ids(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing, "clock", lambda: float(next(ticks)))
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    tracer.step = 7
    outer()
    names = [(name, parent, step) for name, _, _, parent, step in tracer.spans]
    assert names == [("outer", -1, 7), ("inner", 0, 7), ("inner", 0, 7)]
    # outer spans ticks 0..5, each inner call one tick
    assert tracing.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_step_windows_skip_validation_time():
    clock = tracing.StepClock()
    clock.train_starts = [(0.0, 0.0), (10.0, 7.0)]
    clock.step_ends = [(1.0, 1.0), (2.0, 1.5), (5.0, 3.0), (11.0, 8.0)]
    clock.validations = [((2.5, 2.0), (4.0, 2.5))]
    assert clock.step_windows() == [
        ((0.0, 0.0), (1.0, 1.0)),
        ((1.0, 1.0), (2.0, 1.5)),
        ((4.0, 2.5), (5.0, 3.0)),
        ((10.0, 7.0), (11.0, 8.0)),
    ]


def _bindings():
    """Every attribute of every kgcl module and class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "kgcl" or name.startswith("kgcl."):
            for attr, value in vars(module).items():
                seen[(name, attr)] = value
                if isinstance(value, type):
                    for member, obj in vars(value).items():
                        seen[(name, attr, member)] = obj
    return seen


def test_traced_repetition_restores_every_wrapped_function(tmp_path):
    before = _bindings()
    patcher = tracing.Patcher()
    tracing.StepClock().install(patcher, kgcl)
    tracing.Tracer().install(patcher, kgcl)
    assert kgcl.training.assemble_training_negatives is not before[
        ("kgcl.training", "assemble_training_negatives")
    ]
    assert kgcl.training.evaluate is not before[("kgcl.training", "evaluate")]
    patcher.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    inputs = TINY_TRAIN.inputs(3)
    rep = run.Repetition(kgcl, TINY_TRAIN, inputs, 3, True, str(tmp_path))
    assert rep.error is None
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", [TINY_TRAIN, TINY_ANALYZE], ids=lambda w: w.name)
def test_tracing_changes_no_result_and_fills_every_declared_layer_metric(workload, tmp_path):
    inputs = workload.inputs(5)
    plain = run.Repetition(kgcl, workload, inputs, 5, False, str(tmp_path))
    traced = run.Repetition(kgcl, workload, inputs, 5, True, str(tmp_path))
    assert plain.error is None and traced.error is None
    assert traced.outcome.digest == plain.outcome.digest
    assert traced.outcome.false_counts == plain.outcome.false_counts
    problems = []
    assert run.check(traced, workload, plain, problems) == 0, problems
    assert len(plain.step_seconds()) == plain.plan.steps
    windows = [(start[0], end[0]) for start, end in traced.clock.step_windows()]
    layers = tracing.layer_metrics(traced.tracer, windows)
    declared = run.declared_metrics()["per_layer"]
    assert set(layers) | {"trace.overhead_ratio", "evaluation.valid_mrr"} == set(declared)
    assert layers["training.adam_rows_updated"] == layers["model.tape_rows_unique"]
    if workload is TINY_TRAIN:
        assert layers["model.aggregate_calls_per_step"] == 2
        assert layers["graph.alpha_calls"] == traced.outcome.triples
    else:
        assert layers["sampling.negatives_labeled"] == 2 * traced.plan.draws_per_sampler


def test_generator_is_seeded_and_keeps_held_out_facts_out_of_train():
    shape = BlockShape(blocks=5, per_block=10, relations=3, p_intra=0.2, p_inter=0.01)
    first, again, other = generate(shape, 1), generate(shape, 1), generate(shape, 2)
    assert first == again
    assert first != other
    train = set(first["train"])
    assert not train & set(first["valid"]) and not train & set(first["test"])
    entities = {e for split in first.values() for h, _, t in split for e in (h, t)}
    assert len(entities) == shape.entities


def test_benchmark_workloads_match_the_declared_ones():
    import json

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        declared = [w["name"] for w in json.load(f)["workloads"]]
    assert declared == list(WORKLOADS)
