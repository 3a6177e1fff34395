"""The three benchmark workloads and one repetition of each.

A repetition is set-up (timed on its own) followed by the workload's calls
into kgcl's public API. Every repetition of one seed does identical work, so
its checkpoint digest, its validation MRR and its false-negative counts must
repeat exactly. Each workload is run with workers=1.
"""

import hashlib
import math
import os
from dataclasses import dataclass, field

from gen import BlockShape, generate
from tracing import clock


@dataclass
class Outcome:
    """What one repetition did, for the metrics and the correctness checks."""

    run_s: float
    triples: int
    step_losses: list[float]
    mrr: float
    mr: float
    digest: str
    false_counts: tuple = ()
    labeled: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Plan:
    """Operations a repetition attempts: steps, validation calls of
    valid_queries queries each, and false-negative experiment batches per
    sampler."""

    steps: int
    validations: int
    valid_queries: int
    batches_per_sampler: int = 0
    draws_per_sampler: int = 0

    @property
    def operations(self) -> int:
        return self.steps + self.validations * self.valid_queries + 2 * self.batches_per_sampler


def checkpoint_digest(kgcl, model, scratch_dir: str) -> str:
    path = os.path.join(scratch_dir, f"digest-{os.getpid()}.kge")
    kgcl.model.save_checkpoint(model, path)
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    finally:
        os.remove(path)


def _train_plan(train_count: int, valid_count: int, cfg) -> Plan:
    steps = cfg.epochs * math.ceil(train_count / cfg.batch_size)
    periodic = steps // cfg.eval_every if cfg.eval_every else 0
    return Plan(steps=steps, validations=periodic + 1, valid_queries=valid_count)


def _step_losses(log: list[dict]) -> list[float]:
    return [record["loss_mean"] for record in log if record["event"] == "step"]


@dataclass(frozen=True)
class TrainWorkload:
    """Generated block-community triples, encoded and reverse-augmented,
    then train() and its validation calls."""

    name: str
    shape: BlockShape
    config: dict
    mrr_floor: float

    def inputs(self, seed: int):
        return generate(self.shape, seed)

    def setup(self, kgcl, inputs, seed: int):
        """Encode, augment, index and initialise: ready to train."""
        kg = kgcl.data.KnowledgeGraph.from_string_triples(
            inputs["train"], inputs["valid"], inputs["test"]
        )
        kg = kgcl.data.augment_reverse(kg)
        idx = kgcl.graph.build_structure_index(kg)
        cfg = kgcl.training.TrainConfig(seed=seed, workers=1, **self.config)
        # train() draws the same model again from the seed; timing the draw
        # here counts table initialisation in setup_s.
        kgcl.model.init_model(
            kg.num_entities(), kg.num_relations(), cfg.dim, kind=cfg.aggregator, seed=cfg.seed
        )
        return kg, idx, cfg

    def plan(self, state) -> Plan:
        kg, _, cfg = state
        return _train_plan(len(kg.train), len(kg.valid), cfg)

    def shape_facts(self, state) -> dict:
        kg, _, cfg = state
        return _kg_facts(kg) | {"steps": self.plan(state).steps, "config": self.config}

    def run(self, kgcl, state, scratch_dir: str) -> Outcome:
        kg, idx, cfg = state
        start = clock()
        result = kgcl.training.train(cfg, kg, idx)
        run_s = clock() - start
        return Outcome(
            run_s=run_s,
            triples=cfg.epochs * len(kg.train),
            step_losses=_step_losses(result.log),
            mrr=result.final_valid.mrr,
            mr=result.final_valid.mr,
            digest=checkpoint_digest(kgcl, result.model, scratch_dir),
        )


@dataclass(frozen=True)
class AnalyzeWorkload:
    """kgcl analyze-negatives on a synthetic graph: pretrain on the retained
    facts, then the false-negative experiment for both samplers."""

    name: str
    spec: dict
    removal_fraction: float
    pretrain: dict
    k_values: tuple[int, ...]
    distance_cap: int
    max_triples: int
    mrr_floor: float

    def inputs(self, seed: int):
        return dict(self.spec, seed=seed)

    def setup(self, kgcl, inputs, seed: int):
        """Generate the graph and split off the facts the experiment hides."""
        kg = kgcl.synthetic.generate_knowledge_graph(kgcl.synthetic.SyntheticKGSpec(**inputs))
        retain, _ = kgcl.sampling.split_retain_missing(kg.train, self.removal_fraction, seed)
        cfg = kgcl.training.TrainConfig(seed=seed, workers=1, **self.pretrain)
        return kg, retain, cfg

    def plan(self, state) -> Plan:
        kg, retain, cfg = state
        base = _train_plan(len(retain), len(kg.valid), cfg)
        n = min(self.max_triples, len(retain))
        batch_sizes = [max(1, (k + 1) // 2) for k in self.k_values]
        return Plan(
            steps=base.steps,
            validations=base.validations,
            valid_queries=base.valid_queries,
            batches_per_sampler=sum(math.ceil(n / b) for b in batch_sizes),
            draws_per_sampler=sum(k * n for k in self.k_values),
        )

    def shape_facts(self, state) -> dict:
        kg, retain, cfg = state
        return _kg_facts(kg) | {
            "retained": len(retain),
            "steps": self.plan(state).steps,
            "experiment_triples": min(self.max_triples, len(retain)),
            "k_values": list(self.k_values),
            "spec": self.spec,
            "pretrain": self.pretrain,
        }

    def run(self, kgcl, state, scratch_dir: str) -> Outcome:
        kg, retain, cfg = state
        start = clock()
        result = kgcl.training.train(cfg, kg.replace_train(retain))
        reports = [
            kgcl.sampling.run_false_negative_experiment(
                kg,
                self.removal_fraction,
                sampler,
                result.model,
                list(self.k_values),
                cfg.seed,
                distance_cap=self.distance_cap,
                max_triples=self.max_triples,
                workers=1,
            )
            for sampler in ("simple", "hard")
        ]
        run_s = clock() - start
        return Outcome(
            run_s=run_s,
            triples=cfg.epochs * len(retain),
            step_losses=_step_losses(result.log),
            mrr=result.final_valid.mrr,
            mr=result.final_valid.mr,
            digest=checkpoint_digest(kgcl, result.model, scratch_dir),
            false_counts=tuple(row for report in reports for row in report.counts),
            labeled={report.sampler: sum(report.total_sampled.values()) for report in reports},
        )


def _kg_facts(kg) -> dict:
    return {
        "entities": kg.num_entities(),
        "relations": kg.num_relations(),
        "train": len(kg.train),
        "valid": len(kg.valid),
        "test": len(kg.test),
    }


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            name="train_hasa_gru_mid",
            shape=BlockShape(blocks=64, per_block=32, relations=8, p_intra=0.1, p_inter=3.75e-4),
            config=dict(
                loss_mode="hasa",
                aggregator="gru",
                dim=32,
                batch_size=256,
                hard_k=3,
                m_structure=8,
                tau=0.05,
                learning_rate=0.1,
                epochs=1,
                eval_every=11,
            ),
            mrr_floor=0.005,
        ),
        TrainWorkload(
            name="train_simple_sum_wide",
            shape=BlockShape(
                blocks=1280, per_block=16, relations=11, p_intra=0.06, p_inter=1e-6,
                missing_fraction=0.4,
            ),
            config=dict(
                loss_mode="simple",
                aggregator="sum",
                dim=32,
                batch_size=256,
                learning_rate=0.3,
                epochs=1,
                eval_every=52,
            ),
            mrr_floor=0.0015,
        ),
        AnalyzeWorkload(
            name="analyze_negatives_blocky",
            spec=dict(
                block_count=16,
                entities_per_block=32,
                relation_count=3,
                intra_block_edge_probability=0.3,
                inter_block_edge_probability=0.005,
            ),
            removal_fraction=0.3,
            pretrain=dict(
                loss_mode="simple",
                aggregator="sum",
                dim=16,
                batch_size=16,
                epochs=10,
                learning_rate=0.01,
                weight_decay=0.0,
                eval_every=366,
            ),
            k_values=(15, 31, 63),
            distance_cap=5,
            max_triples=256,
            mrr_floor=0.05,
        ),
    )
}
