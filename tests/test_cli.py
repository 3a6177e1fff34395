"""Config file parsing, flag precedence, and end-to-end subcommand runs."""

import argparse
import dataclasses
import json
import os

import pytest

import kgcl.cli
import kgcl.training
from kgcl.cli import build_parser, build_train_config, main, read_config_file
from kgcl.data import load_dataset
from kgcl.model import init_model, save_checkpoint


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_config_file_parses_types_and_comments(tmp_path):
    path = write_config(tmp_path, """
# a comment line
dim = 8
learning_rate=0.5   # trailing comment
loss_mode=hasa

epochs=3
""")
    values = read_config_file(path)
    assert values == {"dim": 8, "learning_rate": 0.5, "loss_mode": "hasa", "epochs": 3}


def test_config_file_rejects_unknown_keys_and_bad_lines(tmp_path):
    path = write_config(tmp_path, "momentum=0.9\n")
    with pytest.raises(ValueError) as err:
        read_config_file(path)
    assert f"{path}:1" in str(err.value)
    assert "momentum" in str(err.value)

    path2 = write_config(tmp_path, "dim 8\n")
    with pytest.raises(ValueError) as err:
        read_config_file(path2)
    assert "expected key=value" in str(err.value)


def test_train_has_no_self_normalized_flag_or_key(tmp_path, capsys):
    """The hard loss with the ratio-form mass is hasa at tau 0 with eq7, so
    no knob selects it: the flag and the config key both exit 2."""
    with pytest.raises(SystemExit) as err:
        main(["train", "--self-normalized"])
    assert err.value.code == 2
    path = write_config(tmp_path, "self_normalized=yes\n")
    assert main(["train", "--config", path]) == 2
    assert "self_normalized" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    path = write_config(tmp_path, "dim=4\nepochs=1\nseed=9\n")
    args = argparse.Namespace(config=path, dim=8, epochs=None, workers=None)
    cfg = build_train_config(args)
    assert cfg.dim == 8
    assert cfg.epochs == 1
    assert cfg.seed == 9


@pytest.mark.parametrize("command", ["train", "sweep-tau"])
def test_every_config_field_has_a_flag(command):
    """TrainConfig's fields and the config flags are two lists of one set of
    knobs: each field is a key of the parsed namespace."""
    args = vars(build_parser().parse_args([command]))
    missing = [f.name for f in dataclasses.fields(kgcl.training.TrainConfig) if f.name not in args]
    assert not missing, f"{command} has no flag for {missing}"


@pytest.mark.parametrize("flags", [["--workers", "0"], ["--workers", "-4"],
                                   ["--eval-candidates", "-5"]])
def test_train_rejects_bad_worker_and_candidate_counts(tmp_path, capsys, flags):
    run = tmp_path / "run"
    assert main(["train", *flags, "--out-dir", str(run)]) == 2
    assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
    assert not run.exists()


@pytest.mark.parametrize("argv, message", [
    (["eval", "--candidates", "-5"], "must be >= 0"),
    # the study runs serially: it has no worker flag
    (["analyze-negatives", "--workers", "2"], "unrecognized arguments: --workers 2"),
])
def test_negative_worker_and_candidate_flags_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--checkpoint", "model.kge"])
    assert stop.value.code == 2
    assert message in capsys.readouterr().err


def test_missing_dataset_paths_exit_with_an_error(capsys):
    assert main(["train", "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "train dataset path" in err


def test_nonexistent_file_exits_with_an_error(capsys, tmp_path):
    missing = str(tmp_path / "nope.tsv")
    code = main(["train", "--train", missing, "--valid", missing,
                 "--test", missing])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_tsv_reports_file_and_line(capsys, tmp_path):
    bad = tmp_path / "train.tsv"
    bad.write_text("a\trel\tb\nc only_two_fields\n")
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    code = main(["train", "--train", str(bad), "--valid", str(empty),
                 "--test", str(empty), "--epochs", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "train.tsv:2" in err
    assert "3 tab-separated fields" in err


def gen_dataset(tmp_path, capsys, seed=0):
    out = tmp_path / "data"
    code = main(["gen-synthetic", "--blocks", "2", "--block-entities", "5",
                 "--relations", "2", "--p-intra", "0.6", "--p-inter", "0.05",
                 "--missing-fraction", "0.3", "--seed", str(seed),
                 "--out-dir", str(out)])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    return out, info


def test_gen_synthetic_writes_all_three_splits(tmp_path, capsys):
    out, info = gen_dataset(tmp_path, capsys)
    for split in ("train", "valid", "test"):
        path = out / f"{split}.tsv"
        assert path.exists()
        assert info["counts"][split] == len(path.read_text().splitlines())
    assert info["counts"]["train"] > 0


@pytest.mark.parametrize("flag, value, name", [
    ("--lr", "nan", "learning_rate"),
    ("--init-scale", "nan", "init_scale"),
    ("--init-scale", "-0.05", "init_scale"),
])
def test_a_bad_learning_rate_or_init_scale_exits_2_and_writes_no_file(
    tmp_path, capsys, flag, value, name
):
    data, _ = gen_dataset(tmp_path, capsys)
    run = tmp_path / "run"
    code = main(["train", "--train", str(data / "train.tsv"),
                 "--valid", str(data / "valid.tsv"),
                 "--test", str(data / "test.tsv"),
                 "--loss", "simple", "--aggregator", "sum", "--dim", "8",
                 "--epochs", "2", "--batch-size", "8", flag, value,
                 "--out-dir", str(run)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and name in err and "Traceback" not in err
    assert not run.exists()


def test_train_then_eval_round_trip(tmp_path, capsys):
    data, _ = gen_dataset(tmp_path, capsys)
    run = tmp_path / "run"
    code = main(["train", "--train", str(data / "train.tsv"),
                 "--valid", str(data / "valid.tsv"),
                 "--test", str(data / "test.tsv"),
                 "--loss", "simple", "--aggregator", "sum", "--dim", "8",
                 "--epochs", "2", "--lr", "0.05", "--batch-size", "8",
                 "--seed", "0", "--out-dir", str(run)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps"] > 0
    checkpoint = run / "checkpoint_final.kge"
    assert checkpoint.exists()

    metrics_path = tmp_path / "metrics.json"
    code = main(["eval", "--checkpoint", str(checkpoint),
                 "--train", str(data / "train.tsv"),
                 "--valid", str(data / "valid.tsv"),
                 "--test", str(data / "test.tsv"),
                 "--split", "valid",
                 "--metrics-json", str(metrics_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    # the final validation pass recorded during training is reproducible
    # from the written checkpoint alone
    assert report == summary["valid"]
    assert json.loads(metrics_path.read_text()) == report


def test_train_runs_to_the_end_whatever_the_environment_says(tmp_path, capsys, monkeypatch):
    """The worker count comes from the config and its flags alone: a value
    in the environment is not read."""
    monkeypatch.setenv("KGE_WORKERS", "bogus")
    data, _ = gen_dataset(tmp_path, capsys)
    run = tmp_path / "run"
    code = main(["train", "--train", str(data / "train.tsv"),
                 "--valid", str(data / "valid.tsv"),
                 "--test", str(data / "test.tsv"),
                 "--loss", "simple", "--aggregator", "sum", "--dim", "4",
                 "--epochs", "1", "--batch-size", "8", "--out-dir", str(run)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["steps"] > 0
    assert (run / "checkpoint_final.kge").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_eval_rejects_a_worker_count_below_1(tmp_path, capsys, workers):
    data, _ = gen_dataset(tmp_path, capsys)
    paths = [str(data / f"{split}.tsv") for split in ("train", "valid", "test")]
    kg = load_dataset(*paths)
    checkpoint = tmp_path / "model.kge"
    save_checkpoint(init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum"),
                    str(checkpoint))
    metrics_path = tmp_path / "metrics.json"
    code = main(["eval", "--checkpoint", str(checkpoint), "--no-augment", "--workers", workers,
                 "--train", paths[0], "--valid", paths[1], "--test", paths[2],
                 "--metrics-json", str(metrics_path)])
    assert code == 2
    assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not metrics_path.exists()


def test_eval_rejects_a_mismatched_checkpoint(tmp_path, capsys):
    data, _ = gen_dataset(tmp_path, capsys)
    other = tmp_path / "other"
    code = main(["gen-synthetic", "--blocks", "3", "--block-entities", "4",
                 "--out-dir", str(other)])
    assert code == 0
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(["train", "--train", str(data / "train.tsv"),
                 "--valid", str(data / "valid.tsv"),
                 "--test", str(data / "test.tsv"),
                 "--loss", "simple", "--dim", "4", "--epochs", "1",
                 "--out-dir", str(run)]) == 0
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(run / "checkpoint_final.kge"),
                 "--train", str(other / "train.tsv"),
                 "--valid", str(other / "valid.tsv"),
                 "--test", str(other / "test.tsv")])
    assert code == 2
    assert "entities" in capsys.readouterr().err


def test_analyze_negatives_writes_both_csv_reports(tmp_path, capsys):
    counts_path = tmp_path / "counts.csv"
    hist_path = tmp_path / "hist.csv"
    code = main(["analyze-negatives", "--synthetic",
                 "--blocks", "2", "--block-entities", "6", "--relations", "2",
                 "--p-intra", "0.5", "--p-inter", "0.05",
                 "--k-grid", "3,7", "--pretrain-epochs", "2",
                 "--aggregator", "sum", "--dim", "8", "--seed", "0",
                 "--out-counts", str(counts_path),
                 "--out-histogram", str(hist_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "sampler=simple" in out and "sampler=hard" in out
    counts_lines = counts_path.read_text().splitlines()
    assert counts_lines[0] == "K,sampler,false_count"
    assert len(counts_lines) == 1 + 4  # two samplers times two K values
    hist_lines = hist_path.read_text().splitlines()
    assert hist_lines[0] == "sampler,label,d_bucket,count"


@pytest.mark.parametrize("grid", ["0", "7,x", ",", "7,7"])
def test_analyze_negatives_rejects_a_bad_k_grid_before_pretraining(
        tmp_path, capsys, monkeypatch, grid):
    def no_training(*args, **kwargs):
        raise AssertionError("pretraining ran before the K grid was checked")

    monkeypatch.setattr(kgcl.cli, "train", no_training)
    counts_path = tmp_path / "counts.csv"
    code = main(["analyze-negatives", "--synthetic", "--k-grid", grid,
                 "--out-counts", str(counts_path),
                 "--out-histogram", str(tmp_path / "hist.csv")])
    assert code == 2
    assert "--k-grid" in capsys.readouterr().err
    assert not counts_path.exists()


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_analyze_negatives_rejects_a_bad_cap_before_pretraining(
        tmp_path, capsys, monkeypatch, cap):
    def no_training(*args, **kwargs):
        raise AssertionError("pretraining ran before the distance cap was checked")

    monkeypatch.setattr(kgcl.cli, "train", no_training)
    counts_path = tmp_path / "counts.csv"
    code = main(["analyze-negatives", "--synthetic", "--cap", cap,
                 "--out-counts", str(counts_path),
                 "--out-histogram", str(tmp_path / "hist.csv")])
    assert code == 2
    assert "--cap must be >= 1" in capsys.readouterr().err
    assert not counts_path.exists()


@pytest.mark.parametrize("flags, message", [
    (["--max-triples", "0"], "--max-triples must be >= 1"),
    (["--max-triples", "-2"], "--max-triples must be >= 1"),
    (["--dim", "0"], "dim must be >= 1"),
])
def test_analyze_negatives_rejects_a_bad_pretraining_flag_before_pretraining(
        tmp_path, capsys, monkeypatch, flags, message):
    def no_training(*args, **kwargs):
        raise AssertionError("pretraining ran before the flags were checked")

    monkeypatch.setattr(kgcl.cli, "train", no_training)
    counts_path = tmp_path / "counts.csv"
    code = main(["analyze-negatives", "--synthetic", *flags,
                 "--out-counts", str(counts_path),
                 "--out-histogram", str(tmp_path / "hist.csv")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not counts_path.exists()


@pytest.mark.parametrize("flags", [["--augment"], ["--train", "nosuch.tsv"],
                                   ["--valid", "v.tsv", "--test", "t.tsv"]])
def test_analyze_negatives_rejects_dataset_flags_with_synthetic_before_pretraining(
        tmp_path, capsys, monkeypatch, flags):
    """--synthetic generates the dataset, so a flag that names or augments
    another one would go unread: it exits 2 instead."""
    def no_training(*args, **kwargs):
        raise AssertionError("pretraining ran before the dataset flags were checked")

    monkeypatch.setattr(kgcl.cli, "train", no_training)
    counts_path = tmp_path / "counts.csv"
    code = main(["analyze-negatives", "--synthetic", *flags, "--k-grid", "3",
                 "--out-counts", str(counts_path),
                 "--out-histogram", str(tmp_path / "hist.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--synthetic" in err
    assert all(flag in err for flag in flags if flag.startswith("--"))
    assert not counts_path.exists()


@pytest.mark.parametrize("command", ["eval", "analyze-negatives"])
@pytest.mark.parametrize("extra_entities", [1, -1])
def test_a_checkpoint_that_does_not_fit_the_dataset_exits_2(
        tmp_path, capsys, command, extra_entities):
    data, _ = gen_dataset(tmp_path, capsys)
    paths = ["--train", str(data / "train.tsv"), "--valid", str(data / "valid.tsv"),
             "--test", str(data / "test.tsv")]
    kg = load_dataset(*paths[1::2])
    checkpoint = tmp_path / "model.kge"
    save_checkpoint(init_model(kg.num_entities() + extra_entities, kg.num_relations(), 4,
                               kind="sum"), str(checkpoint))
    counts_path = tmp_path / "counts.csv"
    extra = (["--no-augment"] if command == "eval" else
             ["--k-grid", "3", "--out-counts", str(counts_path),
              "--out-histogram", str(tmp_path / "hist.csv")])
    code = main([command, "--checkpoint", str(checkpoint), *paths, *extra])
    assert code == 2
    assert f"but the dataset has {kg.num_entities()}" in capsys.readouterr().err
    assert not counts_path.exists()


def test_sweep_tau_writes_the_table(tmp_path, capsys):
    # no loss given: the sweep runs the hasa loss
    data, _ = gen_dataset(tmp_path, capsys)
    out_csv = tmp_path / "sweep.csv"
    code = main(["sweep-tau", "--train", str(data / "train.tsv"),
                 "--valid", str(data / "valid.tsv"),
                 "--test", str(data / "test.tsv"),
                 "--aggregator", "sum", "--dim", "6",
                 "--epochs", "1", "--m-structure", "2", "--seed", "0",
                 "--taus", "0,0.1", "--out", str(out_csv)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [json.loads(line)["tau"] for line in lines] == [0.0, 0.1]
    csv_lines = out_csv.read_text().splitlines()
    assert csv_lines[0] == "tau,mr,mrr,hit1,hit3,hit10,triple_count"
    assert len(csv_lines) == 3


@pytest.mark.parametrize("source", ["flag", "config"])
def test_sweep_tau_rejects_a_loss_that_is_not_debiased(tmp_path, capsys, source):
    data, _ = gen_dataset(tmp_path, capsys)
    if source == "flag":
        loss_args = ["--loss", "hard"]
    else:
        loss_args = ["--config", write_config(tmp_path, "loss_mode=simple\n")]
    out_csv = tmp_path / "sweep.csv"
    code = main(["sweep-tau", "--train", str(data / "train.tsv"),
                 "--valid", str(data / "valid.tsv"),
                 "--test", str(data / "test.tsv"),
                 *loss_args, "--epochs", "1", "--taus", "0,0.1", "--out", str(out_csv)])
    assert code == 2
    assert "the tau sweep applies to the debiased loss modes" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("taus", ["0.1,1.5", "", ",", "0.1,0.1", "1e-06,1.0000001e-06"])
def test_sweep_tau_rejects_bad_taus_before_any_training(tmp_path, capsys, monkeypatch, taus):
    def no_training(*args, **kwargs):
        raise AssertionError("a sweep run started before every tau was checked")

    monkeypatch.setattr(kgcl.training, "train", no_training)
    data, _ = gen_dataset(tmp_path, capsys)
    out_csv = tmp_path / "sweep.csv"
    code = main(["sweep-tau", "--train", str(data / "train.tsv"),
                 "--valid", str(data / "valid.tsv"),
                 "--test", str(data / "test.tsv"),
                 "--epochs", "1", "--taus", taus, "--out", str(out_csv),
                 "--out-dir", str(tmp_path / "runs")])
    assert code == 2
    assert "tau" in capsys.readouterr().err
    assert not out_csv.exists()
    assert not (tmp_path / "runs").exists()


def test_eval_rejects_a_checkpoint_with_non_finite_parameters(tmp_path, capsys):
    data, _ = gen_dataset(tmp_path, capsys)
    paths = [str(data / f"{split}.tsv") for split in ("train", "valid", "test")]
    kg = load_dataset(*paths)
    model = init_model(kg.num_entities(), kg.num_relations(), 4, kind="sum")
    model.entity_table[0, 0] = float("nan")
    checkpoint = tmp_path / "model.kge"
    save_checkpoint(model, str(checkpoint))
    code = main(["eval", "--checkpoint", str(checkpoint), "--no-augment",
                 "--train", paths[0], "--valid", paths[1], "--test", paths[2]])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("header, doubles", [("KGE v1 -2 3 4 sum", 4), ("KGE v1 3 1 0 sum", 0)])
def test_eval_rejects_a_checkpoint_with_a_size_below_1(tmp_path, capsys, header, doubles):
    data, _ = gen_dataset(tmp_path, capsys)
    checkpoint = tmp_path / "model.kge"
    checkpoint.write_bytes(f"{header}\n".encode("ascii") + bytes(8 * doubles))
    code = main(["eval", "--checkpoint", str(checkpoint), "--no-augment",
                 *(f"--{split}={data / f'{split}.tsv'}" for split in ("train", "valid", "test"))])
    assert code == 2
    assert "must all be >= 1" in capsys.readouterr().err
