"""Training loop: lazy Adam over the touched rows with decoupled weight
decay, deterministic batch and sampling streams, JSON-lines logging, and
checkpointing.

Reproducibility contract: a (config, seed) pair pins the initial model, the
batch order of every epoch, and every random draw, so two runs produce
byte-identical checkpoints and logs. Log records therefore carry no
timestamps."""

import csv
import json
import math
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .data import KnowledgeGraph, _write_replacing, make_batches
from .evaluation import MetricsReport, default_candidate_limit, evaluate, write_json
from .graph import StructureIndex, build_structure_index
from .losses import LossConfig, hard_infonce, hasa_loss, hasa_plus_loss, simple_infonce
from .model import AGGREGATOR_KINDS, EmbeddingModel, GradientTape, init_model, save_checkpoint
from .sampling import LOSS_MODES, assemble_training_negatives

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# stream tags keep the per-purpose random streams disjoint
_STREAM_BATCHES = 11
_STREAM_STRUCTURE = 22


class TrainingDiverged(RuntimeError):
    """Raised when a step produces a non-finite loss."""


@dataclass
class TrainConfig:
    loss_mode: str = "simple"
    aggregator: str = "gru"
    dim: int = 100
    batch_size: int = 256
    epochs: int = 1
    learning_rate: float = 2e-5
    weight_decay: float = 1e-4
    tau: float = 2e-5
    m_structure: int = 8
    debias_variant: str = "eq7"
    floor_epsilon: float = 1e-6
    hard_k: int = 3
    seed: int = 0
    init_scale: float = 0.05
    eval_every: int = 0
    eval_candidates: int = 0
    workers: int = 1
    train_path: str = ""
    valid_path: str = ""
    test_path: str = ""
    out_dir: str = ""

    def __post_init__(self):
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")
        if self.aggregator not in AGGREGATOR_KINDS:
            raise ValueError(
                f"aggregator must be one of {AGGREGATOR_KINDS}, got {self.aggregator!r}"
            )
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0.0 <= self.init_scale < math.inf:
            raise ValueError(f"init_scale must be finite and >= 0, got {self.init_scale}")
        if not 0.0 <= self.weight_decay < 1.0:
            raise ValueError(f"weight_decay must lie in [0, 1), got {self.weight_decay}")
        if self.eval_every < 0:
            raise ValueError(
                f"eval_every must be >= 0 (0 validates at the end only), got {self.eval_every}"
            )
        if self.hard_k < 0:
            raise ValueError(f"hard_k must be >= 0, got {self.hard_k}")
        if self.m_structure < 0:
            raise ValueError(f"m_structure must be >= 0, got {self.m_structure}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.eval_candidates < 0:
            raise ValueError(f"eval_candidates must be >= 0, got {self.eval_candidates}")
        # delegate range checks for the loss knobs
        self.loss_config()

    def loss_config(self) -> LossConfig:
        return LossConfig(
            tau=self.tau,
            floor_epsilon=self.floor_epsilon,
            debias_variant=self.debias_variant,
        )


@dataclass
class TrainResult:
    model: EmbeddingModel
    log: list[dict]
    best_valid_mrr: float | None
    final_valid: MetricsReport | None


class AdamState:
    """Adam with one dense pair of moments shaped like the model's params,
    and one global step counter for bias correction. Updates are lazy: only
    the table rows a step touched get their moments, decay and step, so an
    untouched row keeps its moments and its value; the aggregator part is
    updated whole. Weight decay is decoupled from the gradient and from the
    learning rate: every touched row is shrunk by (1 - weight_decay) before
    the Adam step, so a zero learning rate leaves pure shrinkage."""

    def __init__(self, model: EmbeddingModel):
        self.step = 0
        self.m = np.zeros_like(model.params)
        self.v = np.zeros_like(model.params)

    def apply(self, model: EmbeddingModel, tape: GradientTape, lr: float, decay: float) -> None:
        self.step += 1
        bc1 = 1.0 - ADAM_BETA1**self.step
        bc2 = 1.0 - ADAM_BETA2**self.step
        ent_ids, ent_grads = tape.entity_rows()
        rel_ids, rel_grads = tape.relation_rows()
        cut, shape = model.tables.size, model.tables.shape
        # (parameter, first moment, second moment, rows, gradient of those
        # rows): the touched rows of tables, where relation r is row N + r,
        # then the whole aggregator part
        groups = [
            (model.tables, self.m[:cut].reshape(shape), self.v[:cut].reshape(shape),
             np.concatenate([ent_ids, rel_ids + model.num_entities()]),
             np.concatenate([ent_grads, rel_grads])),
            (model.params[cut:], self.m[cut:], self.v[cut:], ..., tape.aggregator_grad),
        ]
        for param, m, v, rows, g in groups:
            if not g.size:  # such as the sum aggregator's empty part
                continue
            m_rows = ADAM_BETA1 * m[rows] + (1.0 - ADAM_BETA1) * g
            v_rows = ADAM_BETA2 * v[rows] + (1.0 - ADAM_BETA2) * g * g
            m[rows] = m_rows
            v[rows] = v_rows
            if decay:
                param[rows] *= 1.0 - decay
            param[rows] -= lr * (m_rows / bc1) / (np.sqrt(v_rows / bc2) + ADAM_EPSILON)


def _dump_diverged_batch(cfg: TrainConfig, epoch, step, batch, value) -> None:
    if not cfg.out_dir:
        return
    payload = {
        "epoch": epoch,
        "step": step,
        "loss": repr(value.loss),
        "triples": batch.tolist(),
    }
    _write_replacing(write_json, payload, os.path.join(cfg.out_dir, "diverged_batch.json"))


def train(
    cfg: TrainConfig, kg: KnowledgeGraph, idx: StructureIndex | None = None
) -> TrainResult:
    """Run the configured training loop over kg.train.

    The structure index is only consulted by the debiased modes and is built
    from the train split on demand when not supplied. Checkpoints
    (checkpoint_final.kge, checkpoint_best.kge) and the JSON-lines log
    (train_log.jsonl) are written to cfg.out_dir when it is set; best means
    highest validation MRR seen at any evaluation point; each is replaced
    atomically."""
    if cfg.loss_mode != "simple":
        # the most train tails any one (head, relation) has
        pairs = kg.train_facts // kg.num_entities()
        most_known = int(np.unique(pairs, return_counts=True)[1].max(initial=0))
        if kg.num_entities() - most_known < cfg.hard_k:
            raise ValueError(
                f"hard_k {cfg.hard_k} exceeds the {kg.num_entities() - most_known} candidates "
                f"left for some (head, relation) after filtering its known train tails"
            )
    if idx is None and cfg.loss_mode in ("hasa", "hasa_plus"):
        idx = build_structure_index(kg)
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
    # looked up per call of train(), so a wrapper rebound to a module name
    # (as the benchmark's tracer does) is the one that runs
    loss_cfg = cfg.loss_config()
    loss = {
        "simple": simple_infonce,
        "hard": hard_infonce,
        "hasa": partial(hasa_loss, cfg=loss_cfg),
        "hasa_plus": partial(hasa_plus_loss, cfg=loss_cfg),
    }[cfg.loss_mode]
    model = init_model(
        kg.num_entities(),
        kg.num_relations(),
        cfg.dim,
        kind=cfg.aggregator,
        seed=cfg.seed,
        init_scale=cfg.init_scale,
    )
    optimizer = AdamState(model)
    log: list[dict] = []
    best_mrr: float | None = None
    best_model: EmbeddingModel | None = None
    candidate_limit = default_candidate_limit(kg.num_entities(), cfg.eval_candidates)

    def run_validation(step: int) -> MetricsReport | None:
        nonlocal best_mrr, best_model
        if not len(kg.valid):
            return None
        report = evaluate(
            model,
            kg,
            split="valid",
            filtered=True,
            candidate_limit=candidate_limit,
            seed=cfg.seed,
            workers=cfg.workers,
        )
        record = {"event": "validation", "step": step}
        record.update(report.to_dict())
        log.append(record)
        if best_mrr is None or report.mrr > best_mrr:
            best_mrr = report.mrr
            best_model = model.copy()
        return report

    step, final_valid = 0, None
    for epoch in range(cfg.epochs):
        batch_seed = np.random.SeedSequence(
            [cfg.seed, _STREAM_BATCHES, epoch]
        ).generate_state(1)[0]
        batches = make_batches(kg, cfg.batch_size, int(batch_seed))
        for batch in batches:
            step += 1
            structure_seed = 0  # the plain modes never draw from the structure stream
            if cfg.loss_mode in ("hasa", "hasa_plus"):
                stream = np.random.SeedSequence([cfg.seed, _STREAM_STRUCTURE, step])
                structure_seed = int(stream.generate_state(1)[0])
            negatives = assemble_training_negatives(batch, model, kg, idx, cfg.m_structure,
                                                    structure_seed, cfg.loss_mode, cfg.hard_k)
            tape = GradientTape(model)
            value = loss(batch, negatives, model, tape=tape)
            if not np.isfinite(value.loss):
                _dump_diverged_batch(cfg, epoch, step, batch, value)
                raise TrainingDiverged(
                    f"non-finite loss {value.loss!r} at epoch {epoch} step {step}"
                )
            optimizer.apply(model, tape, cfg.learning_rate, cfg.weight_decay)
            log.append(
                {
                    "event": "step",
                    "epoch": epoch,
                    "step": step,
                    "loss_mean": value.mean,
                    "pos": value.pos,
                    "neg": value.neg,
                    "false_neg": value.false_neg,
                    "neg_hasa": value.neg_hasa,
                    "clamp_hits": value.clamp_hits,
                    "k_mean": negatives.mean_negative_count(),
                }
            )
            if cfg.eval_every and step % cfg.eval_every == 0:
                final_valid = run_validation(step)
    if final_valid is None or log[-1]["event"] != "validation":
        final_valid = run_validation(step)
    else:  # the last step validated this same model: log its report again
        log.append(dict(log[-1]))
    if best_model is None:
        best_model = model
    if cfg.out_dir:
        for write, obj, name in (
            (save_checkpoint, model, "checkpoint_final.kge"),
            (save_checkpoint, best_model, "checkpoint_best.kge"),
            (write_log, log, "train_log.jsonl"),
        ):
            _write_replacing(write, obj, os.path.join(cfg.out_dir, name))
    return TrainResult(model=model, log=log, best_valid_mrr=best_mrr, final_valid=final_valid)


def write_log(log: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in log:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


def sweep_tau(
    cfg: TrainConfig,
    tau_values: list[float],
    kg: KnowledgeGraph,
    idx: StructureIndex | None = None,
) -> list[dict]:
    """Train one model per tau, sharing the seed and every other knob, and
    report final validation metrics per value. Rows come back in the input
    tau order."""
    if cfg.loss_mode not in ("hasa", "hasa_plus"):
        raise ValueError("the tau sweep applies to the debiased loss modes")
    if not tau_values:
        raise ValueError("the tau sweep needs at least one tau value")
    # every config is built, and so validated, before the first run writes
    names = [f"tau_{tau:g}" for tau in tau_values]
    if len(set(names)) < len(names):
        raise ValueError(f"the taus {tau_values} give two runs one directory name tau_<tau:g>")
    run_cfgs = [
        replace(cfg, tau=tau, out_dir=cfg.out_dir and os.path.join(cfg.out_dir, name))
        for tau, name in zip(tau_values, names)
    ]
    if idx is None:
        idx = build_structure_index(kg)
    rows = []
    for run_cfg in run_cfgs:
        result = train(run_cfg, kg, idx)
        row = {"tau": run_cfg.tau}
        if result.final_valid is not None:
            row.update(result.final_valid.to_dict())
        rows.append(row)
    return rows


def write_sweep_csv(rows: list[dict], path: str) -> None:
    fields = ["tau", "mr", "mrr", "hit1", "hit3", "hit10", "triple_count"]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fields})
