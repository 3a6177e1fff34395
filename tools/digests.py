"""Print the outputs of every benchmark workload, so two checkouts can be
compared for byte identity with one diff.

    python3 tools/digests.py [--seeds 1 2] > digests.txt

Run from the root of a checkout; kgcl is imported from its src/ directory
and the workloads from perfbench/workloads.py, unchanged. For each workload
and seed it runs one repetition, as the benchmark does, and prints one line:
the checkpoint digest, the validation MR, a SHA-256 of the step losses
(their float64 bytes), the false-negative counts, a SHA-256 of the ranks
of every evaluate call the run makes, in call order, with the number of
calls, and a SHA-256 of the hop walk's outputs: a train workload's ring
table (idx.rings), or the distance histograms of the analyze workload's
two studies, which the tool runs again from the workload's own fields on
a model trained again from its seed; these two cover their arrays' dtypes
and bytes. After the workloads, for each seed, it prints a SHA-256 of each
TSV the gen-synthetic subcommand writes with its default spec; then it
runs the analyze-negatives subcommand on a generated dataset through
kgcl.cli.main and prints a SHA-256 of each CSV it writes and of what it
prints; then a hard-mode train run at --hard-k 64 on a generated
dataset, printing a SHA-256 of every top-k block it picks, in call order,
and of its final checkpoint; then a hasa_plus train run over the mlp
aggregator whose floor clamps rows, printing a SHA-256 of its final
checkpoint and of its train_log.jsonl and its total clamp hits. BLAS is
pinned to one thread, as in the benchmark, before numpy is imported.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import kgcl  # noqa: E402
import kgcl.cli  # noqa: E402
from workloads import WORKLOADS, AnalyzeWorkload  # noqa: E402


@contextlib.contextmanager
def recording(module, name: str, part):
    """Rebind module.name, in every kgcl module that binds the same function,
    to a wrapper that appends part(result) of each call to the yielded list;
    the original comes back on exit."""
    original = getattr(module, name)
    holders = [mod for key, mod in list(sys.modules.items())
               if key.split(".")[0] == "kgcl" and getattr(mod, name, None) is original]
    parts = []

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        parts.append(part(result))
        return result

    for mod in holders:
        setattr(mod, name, recorded)
    try:
        yield parts
    finally:
        for mod in holders:
            setattr(mod, name, original)


def report_ranks(report) -> np.ndarray:
    return np.array(report.ranks, dtype=np.int64)


def sha256(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.dtype.str.encode() + array.tobytes())
    return digest.hexdigest()


def walk_outputs(workload, state) -> str:
    if not isinstance(workload, AnalyzeWorkload):
        _, idx, _ = state
        return f"rings={sha256(*idx.rings)}"
    kg, retain, cfg = state
    model = kgcl.training.train(cfg, kg.replace_train(retain)).model
    reports = [
        kgcl.sampling.run_false_negative_experiment(
            kg, workload.removal_fraction, sampler, model, list(workload.k_values), cfg.seed,
            distance_cap=workload.distance_cap, max_triples=workload.max_triples,
        )
        for sampler in ("simple", "hard")
    ]
    return f"histograms={sha256(*(report.histogram for report in reports))}"


def outputs(workload, seed: int, scratch_dir: str) -> str:
    state = workload.setup(kgcl, workload.inputs(seed), seed)
    with recording(kgcl.evaluation, "evaluate", report_ranks) as ranks:
        out = workload.run(kgcl, state, scratch_dir)
    losses = hashlib.sha256(np.array(out.step_losses, dtype=np.float64).tobytes()).hexdigest()
    return (f"{workload.name} seed={seed} digest={out.digest} mr={out.mr!r} "
            f"losses={losses} false_counts={list(out.false_counts)} "
            f"ranks={sha256(*ranks)} evaluations={len(ranks)} {walk_outputs(workload, state)}")


def file_sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def gen_synthetic_outputs(seed: int, scratch_dir: str) -> str:
    """The three TSVs of the gen-synthetic subcommand at its default spec."""
    data = os.path.join(scratch_dir, "gen_synthetic")
    with contextlib.redirect_stdout(io.StringIO()):
        code = kgcl.cli.main(["gen-synthetic", "--seed", str(seed), "--out-dir", data])
    files = " ".join(f"{split}={file_sha256(os.path.join(data, split + '.tsv'))}"
                     for split in ("train", "valid", "test"))
    return f"gen_synthetic seed={seed} exit={code} {files}"


def cli_outputs(seed: int, scratch_dir: str) -> str:
    """The analyze-negatives subcommand's two CSVs and its printed lines."""
    counts, histogram = (os.path.join(scratch_dir, f"cli_{name}.csv")
                         for name in ("counts", "histogram"))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = kgcl.cli.main(["analyze-negatives", "--synthetic", "--k-grid", "3,7",
                              "--pretrain-epochs", "1", "--aggregator", "sum", "--dim", "8",
                              "--seed", str(seed), "--out-counts", counts,
                              "--out-histogram", histogram])
    files = [file_sha256(path) for path in (counts, histogram)]
    stdout = hashlib.sha256(printed.getvalue().encode()).hexdigest()
    return (f"cli_analyze_negatives seed={seed} exit={code} counts={files[0]} "
            f"histogram={files[1]} stdout={stdout}")


def train_on_generated(seed: int, scratch_dir: str, name: str, flags: list[str]) -> tuple:
    """`kgcl train` with flags on a generated 128-entity dataset: (exit
    code, run directory)."""
    data, run = (os.path.join(scratch_dir, f"{name}_{part}") for part in ("data", "run"))
    with contextlib.redirect_stdout(io.StringIO()):
        kgcl.cli.main(["gen-synthetic", "--blocks", "8", "--block-entities", "16",
                       "--relations", "3", "--seed", str(seed), "--out-dir", data])
        code = kgcl.cli.main([
            "train", *(f"--{split}={os.path.join(data, split + '.tsv')}"
                       for split in ("train", "valid", "test")),
            *flags, "--dim", "8", "--batch-size", "32", "--epochs", "1",
            "--seed", str(seed), "--out-dir", run])
    return code, run


def hard_k64_outputs(seed: int, scratch_dir: str) -> str:
    """The picks and checkpoint of `kgcl train --loss hard --hard-k 64`."""
    with recording(kgcl.sampling, "_select_topk", lambda ids: ids) as picks:
        code, run = train_on_generated(seed, scratch_dir, "hard_k64", [
            "--loss", "hard", "--hard-k", "64", "--aggregator", "gru"])
    checkpoint = file_sha256(os.path.join(run, "checkpoint_final.kge"))
    return (f"train_hard_k64 seed={seed} exit={code} picks={sha256(*picks)} "
            f"checkpoint={checkpoint}")


def hasa_plus_clamped_outputs(seed: int, scratch_dir: str) -> str:
    """The checkpoint, log and clamp hits of `kgcl train --loss hasa_plus`
    over the mlp aggregator, with a floor of 1.5 per negative that clamps
    rows."""
    code, run = train_on_generated(seed, scratch_dir, "hasa_plus", [
        "--loss", "hasa_plus", "--aggregator", "mlp", "--debias-variant", "eq7",
        "--floor-epsilon", "1.5", "--tau", "0.2"])
    log = os.path.join(run, "train_log.jsonl")
    with open(log, encoding="utf-8") as handle:
        hits = sum(json.loads(line).get("clamp_hits", 0) for line in handle)
    return (f"train_hasa_plus_clamped seed={seed} exit={code} "
            f"checkpoint={file_sha256(os.path.join(run, 'checkpoint_final.kge'))} "
            f"log={file_sha256(log)} clamp_hits={hits}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append",
                        help="one workload (repeatable); every workload by default")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch_dir:
        for name in args.workload or WORKLOADS:
            for seed in args.seeds:
                print(outputs(WORKLOADS[name], seed, scratch_dir), flush=True)
        for seed in args.seeds:
            print(gen_synthetic_outputs(seed, scratch_dir), flush=True)
        for seed in args.seeds:
            print(cli_outputs(seed, scratch_dir), flush=True)
        for seed in args.seeds:
            print(hard_k64_outputs(seed, scratch_dir), flush=True)
        for seed in args.seeds:
            print(hasa_plus_clamped_outputs(seed, scratch_dir), flush=True)


if __name__ == "__main__":
    main()
