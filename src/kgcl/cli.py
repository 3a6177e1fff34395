"""Command line interface: train, eval, analyze-negatives, sweep-tau and
gen-synthetic subcommands.

Train-like subcommands accept --config FILE holding flat key=value lines
(# starts a comment); explicit flags win over file values, which win over
defaults."""

import argparse
import dataclasses
import json
import os
import sys

from .data import (SPLIT_NAMES, KnowledgeGraph, ParseError, _write_replacing, augment_reverse,
                   load_dataset)
from .evaluation import MetricsReport, default_candidate_limit, evaluate, write_json
from .losses import DEBIAS_VARIANTS
from .model import AGGREGATOR_KINDS, load_checkpoint
from .sampling import (
    LOSS_MODES,
    run_false_negative_experiment,
    split_retain_missing,
    write_false_negative_counts,
    write_false_negative_histogram,
)
from .synthetic import SyntheticKGSpec, generate_synthetic_kg, write_dataset_files
from .training import TrainConfig, sweep_tau, train, write_sweep_csv

# each TrainConfig field's type parses its config value and its flag; the
# flag is --field-name unless renamed here, and three fields take choices
_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_DATASET_FIELDS = ("train_path", "valid_path", "test_path")
_FLAG_NAMES = {"train_path": "--train", "valid_path": "--valid", "test_path": "--test",
               "loss_mode": "--loss", "learning_rate": "--lr"}
_CHOICES = {"loss_mode": LOSS_MODES, "aggregator": AGGREGATOR_KINDS,
            "debias_variant": DEBIAS_VARIANTS}


def _flag(dest: str) -> str:
    return _FLAG_NAMES.get(dest, "--" + dest.replace("_", "-"))


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _coerce(name: str, raw: str, path: str):
    parse = _CONFIG_FIELDS.get(name)
    if parse is None:
        raise ValueError(f"{path}: unknown config key {name!r}")
    try:
        return parse(raw.strip())
    except ValueError as exc:
        raise ValueError(f"{path}: config key {name!r}: {exc}") from None


def read_config_file(path: str) -> dict:
    """Parse key=value lines into typed TrainConfig overrides; a key set
    twice is an error."""
    overrides, lines = {}, {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in lines:
                raise ValueError(f"{path}:{lineno}: config key {key!r} is already set on line "
                                 f"{lines[key]}")
            overrides[key] = _coerce(key, value, f"{path}:{lineno}")
            lines[key] = lineno
    return overrides


def build_train_config(args: argparse.Namespace, **defaults) -> TrainConfig:
    """Config file values over defaults, then explicit flags over both."""
    values = dict(defaults)
    if getattr(args, "config", None):
        values.update(read_config_file(args.config))
    for name in _CONFIG_FIELDS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    return TrainConfig(**values)


def _add_config_flags(parser: argparse.ArgumentParser, names=tuple(_CONFIG_FIELDS)) -> None:
    """One flag per named TrainConfig field, its dest the field's name."""
    for name in names:
        parser.add_argument(_flag(name), dest=name, type=_CONFIG_FIELDS[name],
                            choices=_CHOICES.get(name))


def _load_kg(cfg_or_args, augment: bool) -> KnowledgeGraph:
    paths = [getattr(cfg_or_args, name, "") for name in _DATASET_FIELDS]
    for label, path in zip(SPLIT_NAMES, paths):
        if not path:
            raise ValueError(f"missing required {label} dataset path")
        if not os.path.exists(path):
            raise ValueError(f"{label} dataset file not found: {path}")
    kg = load_dataset(*paths)
    return augment_reverse(kg) if augment else kg


def cmd_train(args: argparse.Namespace) -> int:
    cfg = build_train_config(args)
    kg = _load_kg(cfg, augment=not args.no_augment)
    result = train(cfg, kg)
    summary = {"steps": sum(1 for r in result.log if r.get("event") == "step")}
    if result.final_valid is not None:
        summary["valid"] = result.final_valid.to_dict()
    print(json.dumps(summary, sort_keys=True))
    return 0


def _load_fitting_checkpoint(path: str, kg: KnowledgeGraph):
    """The checkpoint's model, provided its tables match the dataset's
    entity and relation counts."""
    model = load_checkpoint(path)
    for what, have, want in (
        ("entities", model.num_entities(), kg.num_entities()),
        ("relations", model.num_relations(), kg.num_relations()),
    ):
        if have != want:
            raise ValueError(f"checkpoint holds {have} {what} but the dataset has {want}")
    return model


def cmd_eval(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be an int >= 0, got {args.seed}")
    kg = _load_kg(args, augment=not args.no_augment)
    model = _load_fitting_checkpoint(args.checkpoint, kg)
    limit = default_candidate_limit(kg.num_entities(), args.candidates)
    if args.split == "test":
        limit = 0 if args.candidates == 0 else limit
    report = evaluate(
        model,
        kg,
        split=args.split,
        filtered=not args.raw,
        candidate_limit=limit,
        seed=args.seed,
        workers=args.workers,
    )
    print(json.dumps(report.to_dict(), sort_keys=True))
    if args.metrics_json:
        _write_replacing(write_json, report.to_dict(), args.metrics_json)
    if args.ranks_csv:
        _write_replacing(MetricsReport.write_ranks_csv, report, args.ranks_csv)
    return 0


def _given_flags(args: argparse.Namespace, *dests: str) -> str:
    """The flags of these dests that were given."""
    return ", ".join(_flag(d) for d in dests if getattr(args, d) is not None)


def _spec_from_args(args: argparse.Namespace) -> SyntheticKGSpec:
    fields = {"block_count": args.blocks, "entities_per_block": args.block_entities,
              "relation_count": args.relations, "missing_fraction": args.missing_fraction,
              "intra_block_edge_probability": args.p_intra,
              "inter_block_edge_probability": args.p_inter}
    return SyntheticKGSpec(seed=args.seed, **{f: v for f, v in fields.items() if v is not None})


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    for flag, kind in (("--blocks", int), ("--block-entities", int), ("--relations", int),
                       ("--p-intra", float), ("--p-inter", float), ("--missing-fraction", float)):
        parser.add_argument(flag, type=kind)


def _parse_k_grid(text: str) -> list[int]:
    try:
        k_values = [int(v) for v in text.split(",") if v]
    except ValueError:
        raise ValueError(f"--k-grid must be comma-separated integers, got {text!r}") from None
    if not k_values or min(k_values) < 1 or len(set(k_values)) < len(k_values):
        raise ValueError(f"--k-grid needs one or more distinct K >= 1, got {text!r}")
    return k_values


def cmd_analyze_negatives(args: argparse.Namespace) -> int:
    from .synthetic import generate_knowledge_graph

    k_values = _parse_k_grid(args.k_grid)
    if args.cap < 1:
        raise ValueError(f"--cap must be >= 1, got {args.cap}")
    if args.seed < 0:
        raise ValueError(f"seed must be an int >= 0, got {args.seed}")
    if args.max_triples is not None and args.max_triples < 1:
        raise ValueError(f"--max-triples must be >= 1, got {args.max_triples}")
    if args.checkpoint and (given := _given_flags(args, "dim", "aggregator", "pretrain_epochs",
                                                  "pretrain_lr")):
        raise ValueError(f"--checkpoint replaces pretraining: drop {given}")
    if args.synthetic:
        if given := [_flag(d) for d in ("augment", *_DATASET_FIELDS) if getattr(args, d)]:
            raise ValueError(f"--synthetic generates its own dataset: drop {', '.join(given)}")
        kg = generate_knowledge_graph(_spec_from_args(args))
    elif given := _given_flags(args, "blocks", "block_entities", "relations", "p_intra",
                               "p_inter", "missing_fraction"):
        raise ValueError(f"the generator flags need --synthetic: drop {given} or add --synthetic")
    else:
        kg = _load_kg(args, augment=args.augment)
    if args.checkpoint:
        model = _load_fitting_checkpoint(args.checkpoint, kg)
    else:
        retain, _ = split_retain_missing(kg.train, args.removal_fraction, args.seed)
        pre_cfg = TrainConfig(
            loss_mode="simple",
            aggregator="gru" if args.aggregator is None else args.aggregator,
            dim=16 if args.dim is None else args.dim,
            batch_size=16,
            epochs=5 if args.pretrain_epochs is None else args.pretrain_epochs,
            learning_rate=0.01 if args.pretrain_lr is None else args.pretrain_lr,
            weight_decay=0.0,
            seed=args.seed,
        )
        model = train(pre_cfg, kg.replace_train(retain)).model
    reports = [
        run_false_negative_experiment(
            kg,
            args.removal_fraction,
            sampler,
            model,
            k_values,
            args.seed,
            distance_cap=args.cap,
            max_triples=args.max_triples,
        )
        for sampler in ("simple", "hard")
    ]
    _write_replacing(write_false_negative_counts, reports, args.out_counts)
    _write_replacing(write_false_negative_histogram, reports, args.out_histogram)
    for report in reports:
        for k, sampler, count in report.counts:
            print(f"K={k} sampler={sampler} false_negatives={count}")
    return 0


def cmd_sweep_tau(args: argparse.Namespace) -> int:
    try:
        taus = [float(v) for v in args.taus.split(",") if v]
    except ValueError:
        raise ValueError(f"--taus must be comma-separated numbers, got {args.taus!r}") from None
    cfg = build_train_config(args, loss_mode="hasa")
    kg = _load_kg(cfg, augment=not args.no_augment)
    rows = sweep_tau(cfg, taus, kg)
    _write_replacing(write_sweep_csv, rows, args.out)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return 0


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    dataset = generate_synthetic_kg(_spec_from_args(args))
    paths = write_dataset_files(dataset, args.out_dir)
    counts = {split: len(rows) for split, rows in dataset.items()}
    print(json.dumps({"paths": paths, "counts": counts}, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgcl",
        description="Contrastive knowledge graph embeddings with debiased negative sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("--config", help="flat key=value config file")
    _add_config_flags(p_train)
    p_train.add_argument(
        "--no-augment",
        action="store_true",
        help="skip adding reversed triples to every split",
    )
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    _add_config_flags(p_eval, _DATASET_FIELDS)
    p_eval.add_argument("--split", choices=("valid", "test"), default="test")
    p_eval.add_argument("--raw", action="store_true", help="skip known-positive filtering")
    p_eval.add_argument("--candidates", type=_non_negative, default=0)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--workers", type=int, default=1)
    p_eval.add_argument("--metrics-json", dest="metrics_json")
    p_eval.add_argument("--ranks-csv", dest="ranks_csv")
    p_eval.add_argument("--no-augment", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_ana = sub.add_parser(
        "analyze-negatives",
        help="count sampled negatives that are hidden true facts",
    )
    _add_config_flags(p_ana, _DATASET_FIELDS)
    p_ana.add_argument("--synthetic", action="store_true", help="use a generated dataset")
    _add_spec_flags(p_ana)
    p_ana.add_argument("--augment", action="store_true")
    p_ana.add_argument("--checkpoint", help="scoring model for the hard sampler")
    p_ana.add_argument("--removal-fraction", dest="removal_fraction", type=float, default=0.3)
    p_ana.add_argument("--k-grid", dest="k_grid", default="7,15,31")
    p_ana.add_argument("--cap", type=int, default=5)
    p_ana.add_argument("--seed", type=int, default=0)
    p_ana.add_argument("--dim", type=int)
    p_ana.add_argument("--aggregator", choices=AGGREGATOR_KINDS)
    p_ana.add_argument("--pretrain-epochs", type=int)
    p_ana.add_argument("--pretrain-lr", type=float)
    p_ana.add_argument("--max-triples", dest="max_triples", type=int, default=None)
    p_ana.add_argument("--out-counts", dest="out_counts", default="false_negative_counts.csv")
    p_ana.add_argument(
        "--out-histogram", dest="out_histogram", default="false_negative_histogram.csv"
    )
    p_ana.set_defaults(func=cmd_analyze_negatives)

    p_sweep = sub.add_parser("sweep-tau", help="train once per tau and tabulate metrics")
    p_sweep.add_argument("--config", help="flat key=value config file")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--taus", default="1e-06,2e-05,1e-04,5e-04,1e-03,2e-03")
    p_sweep.add_argument("--out", default="tau_sweep.csv")
    p_sweep.add_argument("--no-augment", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep_tau)

    p_gen = sub.add_parser("gen-synthetic", help="write a synthetic dataset")
    _add_spec_flags(p_gen)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-dir", dest="out_dir", required=True)
    p_gen.set_defaults(func=cmd_gen_synthetic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
