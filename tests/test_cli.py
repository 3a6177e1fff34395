"""Config file parsing, flag precedence, and end-to-end subcommand runs."""

import argparse
import json
import os

import pytest

import kgcl.cli
import kgcl.training
from kgcl.cli import build_train_config, main, read_config_file
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
self_normalized=yes

epochs=3
""")
    values = read_config_file(path)
    assert values == {"dim": 8, "learning_rate": 0.5, "loss_mode": "hasa",
                      "self_normalized": True, "epochs": 3}


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

    path3 = write_config(tmp_path, "self_normalized=maybe\n")
    with pytest.raises(ValueError) as err:
        read_config_file(path3)
    assert "boolean" in str(err.value)


def test_flags_override_config_file(tmp_path):
    path = write_config(tmp_path, "dim=4\nepochs=1\nseed=9\n")
    args = argparse.Namespace(config=path, dim=8, epochs=None, workers=None)
    cfg = build_train_config(args)
    assert cfg.dim == 8
    assert cfg.epochs == 1
    assert cfg.seed == 9


def test_worker_count_falls_back_to_the_environment(monkeypatch):
    monkeypatch.setenv("KGE_WORKERS", "3")
    cfg = build_train_config(argparse.Namespace())
    assert cfg.workers == 3
    monkeypatch.delenv("KGE_WORKERS")
    assert build_train_config(argparse.Namespace()).workers == 1
    # an explicit value beats the environment, which is then not read
    monkeypatch.setenv("KGE_WORKERS", "not-a-number")
    cfg = build_train_config(argparse.Namespace(workers=2))
    assert cfg.workers == 2


@pytest.mark.parametrize("raw", ["not-a-number", "0", "-2"])
def test_a_bad_worker_count_in_the_environment_exits_2(monkeypatch, capsys, raw):
    monkeypatch.setenv("KGE_WORKERS", raw)
    with pytest.raises(ValueError, match="KGE_WORKERS"):
        build_train_config(argparse.Namespace())
    assert main(["train", "--epochs", "1"]) == 2
    assert "KGE_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--workers", "0"], ["--workers", "-4"],
                                   ["--eval-candidates", "-5"]])
def test_train_rejects_bad_worker_and_candidate_counts(tmp_path, capsys, flags):
    run = tmp_path / "run"
    assert main(["train", *flags, "--out-dir", str(run)]) == 2
    assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
    assert not run.exists()


@pytest.mark.parametrize("argv", [["eval", "--candidates", "-5"], ["eval", "--workers", "-2"],
                                  ["analyze-negatives", "--workers", "-2"]])
def test_negative_worker_and_candidate_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--checkpoint", "model.kge"])
    assert stop.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


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


def test_a_nan_learning_rate_exits_2_and_writes_no_file(tmp_path, capsys):
    data, _ = gen_dataset(tmp_path, capsys)
    run = tmp_path / "run"
    code = main(["train", "--train", str(data / "train.tsv"),
                 "--valid", str(data / "valid.tsv"),
                 "--test", str(data / "test.tsv"),
                 "--loss", "simple", "--aggregator", "sum", "--dim", "8",
                 "--epochs", "2", "--lr", "nan", "--batch-size", "8",
                 "--out-dir", str(run)])
    assert code == 2
    assert "learning_rate" in capsys.readouterr().err
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


@pytest.mark.parametrize("grid", ["0", "7,x", ","])
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


@pytest.mark.parametrize("taus", ["0.1,1.5", "", ","])
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
