"""Timing hooks installed from outside the program.

Every hook wraps a public kgcl function at each name a caller looks it up
by: a module that did `from .sampling import assemble_training_negatives`
holds its own binding, so the wrapper replaces the function in every kgcl
module that binds it, and class attributes are replaced on the class.
`Patcher.restore` puts every original object back.

Two hook sets exist. `StepClock` is the untraced run's: one timestamp per
optimizer step, a pair around each validation call and one per train()
call. `Tracer` adds spans (name, start, end, parent span, step id) and
counts at every layer boundary, kept in memory and written out when the run
ends.
"""

import sys
import time
from collections import Counter

import numpy as np

clock = time.perf_counter
cpu_clock = time.process_time


class Patcher:
    """Replaces attributes and remembers the originals, newest last."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace_function(self, module, name: str, make_wrapper) -> None:
        """Wrap module.name and rebind the wrapper in every kgcl module that
        holds the same function object."""
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kgcl" or mod_name.startswith("kgcl.")):
                continue
            if mod.__dict__.get(name) is original:
                self._saved.append((mod, name, original))
                setattr(mod, name, wrapper)

    def replace_method(self, cls, name: str, make_wrapper) -> None:
        """Wrap a plain method or a classmethod on its class."""
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            wrapper = classmethod(make_wrapper(original.__func__))
        else:
            wrapper = make_wrapper(original)
        self._saved.append((cls, name, original))
        setattr(cls, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class StepClock:
    """The only hooks of an untraced run: a timestamp when train() is
    called, one when each optimizer step ends and a pair around each
    validation call. Each timestamp is a (wall, process CPU) pair."""

    def __init__(self):
        self.train_starts: list[tuple[float, float]] = []
        self.step_ends: list[tuple[float, float]] = []
        self.validations: list[tuple[tuple[float, float], tuple[float, float]]] = []

    @staticmethod
    def now() -> tuple[float, float]:
        return clock(), cpu_clock()

    def install(self, patcher: Patcher, kgcl) -> None:
        now = self.now

        def timed_train(train):
            def wrapper(*args, **kwargs):
                self.train_starts.append(now())
                return train(*args, **kwargs)

            return wrapper

        def timed_apply(apply):
            def wrapper(*args, **kwargs):
                result = apply(*args, **kwargs)
                self.step_ends.append(now())
                return result

            return wrapper

        def timed_evaluate(evaluate):
            def wrapper(*args, **kwargs):
                start = now()
                result = evaluate(*args, **kwargs)
                self.validations.append((start, now()))
                return result

            return wrapper

        patcher.replace_function(kgcl.training, "train", timed_train)
        patcher.replace_method(kgcl.training.AdamState, "apply", timed_apply)
        patcher.replace_function(kgcl.evaluation, "evaluate", timed_evaluate)

    def step_windows(self) -> list[tuple[tuple[float, float], tuple[float, float]]]:
        """(start, end) timestamps of each optimizer step. A step starts
        where the previous one ended or, if a validation ran in between,
        where that ended; the first step of a train() call starts with it."""
        events = sorted(
            [(t, "train") for t in self.train_starts]
            + [(t, "step") for t in self.step_ends]
            + [(end, "validation") for _, end in self.validations]
        )
        windows = []
        last = None
        for t, kind in events:
            if kind == "step":
                windows.append((last, t))
            last = t
        return windows


class Tracer:
    """Spans and counts at layer boundaries.

    spans[i] is [name, start, end, parent index or -1, step id or None]; the
    step id is the optimizer step in progress inside train(), counted from 1
    per train() call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.ring_sizes: list[int] = []
        self.step: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.step]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def parent_name(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def install(self, patcher: Patcher, kgcl) -> None:
        counts = self.counts

        def span(name, after=None):
            return lambda fn: self.wrap(name, fn, after)

        def add_rows(fn):
            def wrapper(tape, ids, grads):
                counts["model.tape_rows_in"] += np.size(ids)
                return fn(tape, ids, grads)

            return wrapper

        def coalesced(args, kwargs, result):
            counts["model.tape_rows_unique"] += result[0].size
            if self.parent_name() == "training.adam":
                counts["training.adam_rows_updated"] += result[0].size

        def adam_done(args, kwargs, result):
            self.step += 1

        def train_start(fn):
            inner = self.wrap("training.train", fn)

            def wrapper(*args, **kwargs):
                self.step = 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.step = None

            return wrapper

        def alpha_done(args, kwargs, result):
            self.ring_sizes.append(result.support.size)

        def topk_call(args, kwargs, result):
            counts["sampling.topk_candidates_scanned"] += args[1].size

        def assembled(args, kwargs, result):
            counts["sampling.negatives_total"] += sum(
                ids.size for ids in result.hard_and_batch_negatives
            )
            counts["sampling.triples"] += len(result)

        def loss_done(args, kwargs, result):
            negatives = args[1]
            counts["losses.scored_pairs"] += result.triple_count + sum(
                ids.size
                for group in (
                    negatives.hard_and_batch_negatives,
                    negatives.structure_samples,
                    negatives.negative_contexts,
                )
                for ids in group
            )
            counts["losses.clamp_hits"] += result.clamp_hits

        def experiment_name(fn):
            simple = self.wrap("sampling.experiment_simple", fn)
            hard = self.wrap("sampling.experiment_hard", fn)

            def wrapper(kg, fraction, sampler, *args, **kwargs):
                chosen = simple if sampler == "simple" else hard
                report = chosen(kg, fraction, sampler, *args, **kwargs)
                counts["sampling.negatives_labeled"] += sum(report.total_sampled.values())
                return report

            return wrapper

        def evaluated(args, kwargs, result):
            model = args[0]
            limit = kwargs.get("candidate_limit", 0)
            pool = limit if 0 < limit < model.num_entities() else model.num_entities()
            counts["evaluation.candidates_scored"] += result.triple_count * pool

        data, graph, model = kgcl.data, kgcl.graph, kgcl.model
        patcher.replace_method(data.KnowledgeGraph, "from_string_triples", span("data.encode"))
        patcher.replace_function(data, "augment_reverse", span("data.encode"))
        patcher.replace_function(kgcl.synthetic, "generate_synthetic_kg", span("synthetic.generate"))
        patcher.replace_function(graph, "_index_from_triples", span("graph.build_index"))
        patcher.replace_function(graph, "alpha_distribution", span("graph.alpha", alpha_done))
        patcher.replace_function(graph, "distances_within", span("graph.distances_within"))
        patcher.replace_function(model, "aggregate_batch", span("model.aggregate"))
        patcher.replace_function(model, "backward", span("model.backward"))
        for name in ("entity_rows", "relation_rows"):
            patcher.replace_method(model.GradientTape, name, span("model.coalesce", coalesced))
        for name in ("add_entity", "add_relation"):
            patcher.replace_method(model.GradientTape, name, add_rows)
        sampling = kgcl.sampling
        patcher.replace_function(
            sampling, "assemble_training_negatives", span("sampling.assemble", assembled)
        )
        patcher.replace_function(sampling, "_select_topk", span("sampling.topk", topk_call))
        patcher.replace_function(sampling, "run_false_negative_experiment", experiment_name)
        for name in ("simple_infonce", "hard_infonce", "hasa_loss", "hasa_plus_loss"):
            patcher.replace_function(kgcl.losses, name, span("losses.loss", loss_done))
        patcher.replace_method(kgcl.training.AdamState, "apply", span("training.adam", adam_done))
        patcher.replace_function(kgcl.training, "train", train_start)
        patcher.replace_function(kgcl.evaluation, "evaluate", span("evaluation.evaluate", evaluated))


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the part of it that its direct children
    cover, children clipped to the parent's interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, step in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, step) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end]
        out.append((end - start) - union_length(kids))
    return out


def covered_within(spans: list, parent: int, window: tuple[float, float]) -> float:
    """Length of the window covered by the direct children of one span."""
    lo, hi = window
    parts = [
        (max(s, lo), min(e, hi))
        for name, s, e, p, step in spans
        if p == parent and e > lo and s < hi
    ]
    return union_length(parts)


def layer_metrics(tracer: Tracer, step_windows: list[tuple[float, float]]) -> dict[str, float]:
    """Per-layer totals of one traced repetition, named as in BENCHMARK.json."""
    spans = tracer.spans
    own = self_times(spans)
    total: Counter = Counter()
    self_total: Counter = Counter()
    calls: Counter = Counter()
    for (name, start, end, _, _), self_s in zip(spans, own):
        total[name] += end - start
        self_total[name] += self_s
        calls[name] += 1
    c = tracer.counts
    steps = calls["training.adam"]
    ring_misses = sum(
        1
        for name, _, _, parent, _ in spans
        if name == "graph.distances_within" and parent >= 0 and spans[parent][0] == "graph.alpha"
    )
    train_aggregates = sum(
        1
        for name, _, _, parent, _ in spans
        if name == "model.aggregate"
        and parent >= 0
        and spans[parent][0] in ("sampling.assemble", "losses.loss")
    )
    step_other = 0.0
    for index, (name, start, end, _, _) in enumerate(spans):
        if name != "training.train":
            continue
        for lo, hi in step_windows:
            if start <= lo and hi <= end:
                step_other += (hi - lo) - covered_within(spans, index, (lo, hi))

    def ratio(num, den):
        return num / den if den else 0.0

    experiments = ("sampling.experiment_simple", "sampling.experiment_hard")
    return {
        "data.encode_s": total["data.encode"],
        "synthetic.generate_s": total["synthetic.generate"],
        "graph.build_index_s": total["graph.build_index"],
        "graph.alpha_s": total["graph.alpha"],
        "graph.alpha_calls": calls["graph.alpha"],
        "graph.ring_cache_hit_ratio": 1.0 - ratio(ring_misses, calls["graph.alpha"])
        if calls["graph.alpha"]
        else 0.0,
        "graph.ring_size_mean": ratio(sum(tracer.ring_sizes), len(tracer.ring_sizes)),
        "graph.distances_within_s": total["graph.distances_within"],
        "graph.distances_within_calls": calls["graph.distances_within"],
        "model.aggregate_s": total["model.aggregate"],
        "model.aggregate_calls_per_step": ratio(train_aggregates, steps),
        "model.backward_s": total["model.backward"],
        "model.coalesce_s": total["model.coalesce"],
        "model.tape_rows_in": c["model.tape_rows_in"],
        "model.tape_rows_unique": c["model.tape_rows_unique"],
        "model.tape_unique_ratio": ratio(c["model.tape_rows_unique"], c["model.tape_rows_in"]),
        "sampling.assemble_s": total["sampling.assemble"],
        "sampling.assemble_self_s": self_total["sampling.assemble"],
        "sampling.topk_s": total["sampling.topk"],
        "sampling.topk_candidates_scanned": c["sampling.topk_candidates_scanned"],
        "sampling.negatives_per_triple": ratio(c["sampling.negatives_total"], c["sampling.triples"]),
        "sampling.experiment_simple_s": total[experiments[0]],
        "sampling.experiment_hard_s": total[experiments[1]],
        "sampling.experiment_self_s": sum(self_total[name] for name in experiments),
        "sampling.negatives_labeled": c["sampling.negatives_labeled"],
        "losses.loss_s": total["losses.loss"],
        "losses.loss_self_s": self_total["losses.loss"],
        "losses.scored_pairs": c["losses.scored_pairs"],
        "losses.clamp_hits": c["losses.clamp_hits"],
        "training.adam_s": total["training.adam"],
        "training.adam_self_s": self_total["training.adam"],
        "training.adam_rows_updated": c["training.adam_rows_updated"],
        "training.train_s": total["training.train"],
        "training.step_other_s": step_other,
        "evaluation.evaluate_s": total["evaluation.evaluate"],
        "evaluation.candidates_scored": c["evaluation.candidates_scored"],
    }
