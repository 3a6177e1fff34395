"""Print the outputs of every benchmark workload, so two checkouts can be
compared for byte identity with one diff.

    python3 tools/digests.py [--seeds 1 2] > digests.txt

Run from the root of a checkout; kgcl is imported from its src/ directory
and the workloads from perfbench/workloads.py, unchanged. For each workload
and seed it runs one repetition, as the benchmark does, and prints one line:
the checkpoint digest, the validation MR, a SHA-256 of the step losses
(their float64 bytes), the false-negative counts, and a SHA-256 of the hop
walk's outputs: a train workload's ring table (idx.rings), or the distance
histograms of the analyze workload's two studies, which the tool runs again
from the workload's own fields on a model trained again from its seed;
these two cover their arrays' dtypes and bytes. After the workloads, for
each seed, it runs the analyze-negatives subcommand on a generated dataset
through kgcl.cli.main and prints a SHA-256 of each CSV it writes and of
what it prints. BLAS is pinned to one thread, as in the benchmark, before
numpy is imported.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import kgcl  # noqa: E402
import kgcl.cli  # noqa: E402
from workloads import WORKLOADS, AnalyzeWorkload  # noqa: E402


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
    out = workload.run(kgcl, state, scratch_dir)
    losses = hashlib.sha256(np.array(out.step_losses, dtype=np.float64).tobytes()).hexdigest()
    return (f"{workload.name} seed={seed} digest={out.digest} mr={out.mr!r} "
            f"losses={losses} false_counts={list(out.false_counts)} "
            f"{walk_outputs(workload, state)}")


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
    files = []
    for path in (counts, histogram):
        with open(path, "rb") as handle:
            files.append(hashlib.sha256(handle.read()).hexdigest())
    stdout = hashlib.sha256(printed.getvalue().encode()).hexdigest()
    return (f"cli_analyze_negatives seed={seed} exit={code} counts={files[0]} "
            f"histogram={files[1]} stdout={stdout}")


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
            print(cli_outputs(seed, scratch_dir), flush=True)


if __name__ == "__main__":
    main()
