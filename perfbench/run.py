"""kgcl benchmark: one workload per process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; kgcl is imported from its src/ directory.
With --trace 0 the run repeats the workload untraced, with only a
timestamp per train() call and per optimizer step and a pair around each
validation call, and reports the end-to-end metrics. With --trace 1 it alternates untraced and
traced repetitions and reports the per-layer metrics and the tracing
overhead. `--workload all` runs every workload both ways, one process each,
and ignores --trace.
The last line of standard output is the result as one JSON object; the
full record (machine facts, shapes, per-repetition figures) and the spans
go to perfbench/out/.
"""

import os
import sys

# Pinned before numpy is first imported, so the BLAS library reads it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Patcher, StepClock, Tracer, clock, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up is repeated before the repetitions until it has run this often and
# this long, so that a cheap set-up still gets a steady median.
SETUP_MIN_COUNT = 3
SETUP_MIN_SECONDS = 1.0
# Two untraced repetitions at least, so that every run checks that the
# program repeats its checkpoint exactly.
MIN_UNTRACED = 2


def tail_level(samples: int) -> int:
    """The highest whole percentile with at least 10 samples beyond it."""
    level = min(99, math.floor(100 - 1000 / samples))
    if level < 50:
        raise ValueError(f"{samples} samples leave fewer than 10 beyond the median")
    return level


def declared_metrics() -> dict[str, dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def import_kgcl():
    if not os.path.isfile(os.path.join(SRC, "kgcl", "__init__.py")):
        raise SystemExit(f"kgcl sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import kgcl

    if not os.path.abspath(kgcl.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported kgcl from {kgcl.__file__}, not from {SRC}")
    return kgcl


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


class Repetition:
    """One pass of setup plus the workload, with its hooks removed after."""

    def __init__(self, kgcl, workload, inputs, seed: int, traced: bool, scratch_dir: str):
        self.traced = traced
        self.clock = StepClock()
        self.tracer = Tracer() if traced else None
        self.error = None
        self.plan = None
        self.outcome = None
        patcher = Patcher()
        self.clock.install(patcher, kgcl)
        if traced:
            self.tracer.install(patcher, kgcl)
        start = clock()
        try:
            state = workload.setup(kgcl, inputs, seed)
            self.setup_s = clock() - start
            self.plan = workload.plan(state)
            self.outcome = workload.run(kgcl, state, scratch_dir)
        except Exception:
            self.error = traceback.format_exc()
            print(self.error, file=sys.stderr)
        finally:
            patcher.restore()
        self.wall_s = clock() - start

    def step_seconds(self, cpu: bool = False) -> list[float]:
        """Wall or process CPU time of each optimizer step."""
        return [end[cpu] - start[cpu] for start, end in self.clock.step_windows()]


def check(rep: Repetition, workload, reference: Repetition | None, problems: list[str]) -> int:
    """Operations of rep that failed a correctness check."""
    plan, out = rep.plan, rep.outcome
    failed = plan.steps - sum(1 for loss in out.step_losses if math.isfinite(loss))
    if failed:
        problems.append(f"{failed} of {plan.steps} steps had no finite loss")
    if not out.mrr > workload.mrr_floor:
        problems.append(f"valid_mrr {out.mrr} is not above the floor {workload.mrr_floor}")
        failed += plan.valid_queries
    for sampler, labeled in out.labeled.items():
        if labeled != plan.draws_per_sampler:
            problems.append(f"{sampler}: {labeled} labels for {plan.draws_per_sampler} draws")
            failed += plan.batches_per_sampler
    if reference is not None:
        if out.digest != reference.outcome.digest:
            what = "tracing changed" if rep.traced else "a repeat run changed"
            problems.append(f"{what} the checkpoint digest")
            failed += plan.steps
        if out.false_counts != reference.outcome.false_counts:
            problems.append("false-negative counts differ between repetitions")
            failed += 2 * plan.batches_per_sampler
    return min(failed, plan.operations)


def step_tail(steps: list[float]) -> tuple[int, float]:
    level = tail_level(len(steps))
    return level, float(np.percentile(steps, level))


def end_to_end(untraced: list[Repetition], setup_s: list[float]) -> dict:
    cpu_steps = np.concatenate([rep.step_seconds(cpu=True) for rep in untraced])
    rates = []
    for rep in untraced:
        queries = rep.plan.valid_queries
        rates += [queries / (end[0] - start[0]) for start, end in rep.clock.validations]
    return {
        "setup_s": float(np.median(setup_s)),
        "train_triples_per_s": float(
            np.median([rep.outcome.triples / sum(rep.step_seconds()) for rep in untraced])
        ),
        "step_cpu_ms_p50": float(np.median(cpu_steps)) * 1e3,
        "step_cpu_ms_tail": float(
            np.median([step_tail(rep.step_seconds(cpu=True))[1] for rep in untraced])
        )
        * 1e3,
        "valid_queries_per_s": float(np.median(rates)),
        "valid_mr": untraced[0].outcome.mr,
        "run_s": float(np.median([rep.outcome.run_s for rep in untraced])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced: list[Repetition], traced: list[Repetition]) -> dict:
    per_rep = [
        layer_metrics(rep.tracer, [(s[0], e[0]) for s, e in rep.clock.step_windows()])
        for rep in traced
    ]
    metrics = {name: float(np.median([m[name] for m in per_rep])) for name in per_rep[0]}
    metrics["evaluation.valid_mrr"] = traced[0].outcome.mrr
    untraced_s = np.median([rep.outcome.run_s for rep in untraced])
    metrics["trace.overhead_ratio"] = float(
        np.median([rep.outcome.run_s for rep in traced]) / untraced_s - 1.0
    )
    return metrics


def write_spans(path: str, traced: list[Repetition]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for number, rep in enumerate(traced):
            for index, (name, start, end, parent, step) in enumerate(rep.tracer.spans):
                record = {"rep": number, "id": index, "name": name, "start": start,
                          "end": end, "parent": parent, "step": step}
                handle.write(json.dumps(record) + "\n")


def measure(kgcl, workload, seed: int, seconds: float, trace: bool) -> dict:
    begin = clock()
    inputs = workload.inputs(seed)
    setup_s = []
    while len(setup_s) < SETUP_MIN_COUNT or sum(setup_s) < SETUP_MIN_SECONDS:
        start = clock()
        state = workload.setup(kgcl, inputs, seed)
        setup_s.append(clock() - start)
    shape = workload.shape_facts(state)
    del state
    reps: list[Repetition] = []
    problems: list[str] = []
    attempted = failed = 0
    reference = None
    modes = (False, True) if trace else (False,)
    minimum = 2 if trace else MIN_UNTRACED
    while len(reps) < minimum or (
        clock() - begin + float(np.median([rep.wall_s for rep in reps])) <= seconds
    ):
        traced = modes[len(reps) % len(modes)]
        rep = Repetition(kgcl, workload, inputs, seed, traced, OUT)
        reps.append(rep)
        if rep.outcome is None:
            problems.append("a repetition raised; see standard error")
            plan_ops = rep.plan.operations if rep.plan else 1
            attempted += plan_ops
            failed += plan_ops
            continue
        attempted += rep.plan.operations
        failed += check(rep, workload, reference, problems)
        if reference is None and not rep.traced:
            reference = rep
        if not rep.traced:
            setup_s.append(rep.setup_s)
    untraced = [rep for rep in reps if not rep.traced and rep.outcome is not None]
    traced = [rep for rep in reps if rep.traced and rep.outcome is not None]
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "machine": machine_facts(),
        "shape": shape,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "setup_s_samples": setup_s,
        "problems": problems,
        "valid_mrr": next((rep.outcome.mrr for rep in reps if rep.outcome), math.nan),
        "mrr_floor": workload.mrr_floor,
        "attempted": attempted,
        "failed": failed,
    }
    if untraced:
        record["step_cpu_ms_tail"] = {
            "percentile": step_tail(untraced[0].step_seconds())[0],
            "steps_per_repetition": [len(rep.step_seconds()) for rep in untraced],
        }
        record["end_to_end"] = end_to_end(untraced, setup_s)
        record["run_s_samples"] = [rep.outcome.run_s for rep in untraced]
    if traced and untraced:
        record["per_layer"] = per_layer(untraced, traced)
        record["run_s_traced_samples"] = [rep.outcome.run_s for rep in traced]
        write_spans(os.path.join(OUT, f"{workload.name}-seed{seed}-spans.jsonl"), traced)
    return record


def report(record: dict, units: dict[str, str], kind: str) -> dict:
    metrics = record.get(kind, {})
    if set(metrics) != set(units):
        raise SystemExit(
            f"{kind} metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}"
        )
    print(f"{record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['repetitions']}, shape {json.dumps(record['shape'])}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    if "step_cpu_ms_tail" in record and kind == "end_to_end":
        tail = record["step_cpu_ms_tail"]
        print(f"  step_cpu_ms_tail is the median over repetitions of p{tail['percentile']} "
              f"of {tail['steps_per_repetition']} steps")
    print(f"  valid_mrr {record['valid_mrr']:.6g} (floor {record['mrr_floor']})")
    print(f"  error_rate {record['failed']}/{record['attempted']}"
          + "".join(f"\n  problem: {p}" for p in record["problems"]))
    print("  machine " + json.dumps(record["machine"]))
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            code = max(code, subprocess.run(command, check=False).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="required unless --workload all")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.trace is None and args.workload != "all":
        parser.error("--trace is required for a single workload")
    units = declared_metrics()
    if args.workload == "all":
        return run_all(args)
    kgcl = import_kgcl()
    os.makedirs(OUT, exist_ok=True)
    record = measure(kgcl, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = report(record, units[kind], kind)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
