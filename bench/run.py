"""mcbridge benchmark.

    python3 bench/run.py --workload many-chains --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # all three workloads, untraced

Run from the repository root; the package is imported from ``src/``. One run
builds one workload from ``--seed``, measures for about ``--seconds`` seconds
in a closed loop (the next iteration starts when the previous one ends; at
least three iterations), checks every operation's output, and prints
as its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics as medians over untraced
iterations. ``--trace 1`` runs
an untraced iteration, then traced ones, and reports per-layer metrics from
spans recorded around calls into each mcbridge module, plus the tracing
overhead and coverage. Spans and the full result (machine facts, sample
counts, operations) are written under ``.bench_out/``.
"""

from __future__ import annotations

import os

# fixed before numpy is imported so every run uses the same BLAS thread count
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("many-chains", "cap-law", "pipeline")
METHODS = ("mcb", "ddpm", "ode", "sde")
SETUP_REPEATS = 5
MIN_UNTRACED = 3

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    *[(f"{m}.chain_steps_per_s", "1/s") for m in METHODS],
    ("peak_rss_mb", "MB"),
]
# printed with the end-to-end table but not part of the JSON metrics: fail_rate
# is 0 on correct code, and train/verify run only in the pipeline workload
EXTRA = [("fail_rate", "ratio"), ("train.steps_per_s", "1/s"), ("verify_s", "s")]

# (metric, unit, span or leaf whose wrap target it needs); counts are exact
PER_LAYER = [
    ("seeding.derive_rng.calls", "count", "seeding.derive_rng"),
    ("seeding.derive_rng.s", "s", "seeding.derive_rng"),
    ("samplers.rng_draw.calls", "count", "seeding.derive_rng"),
    ("samplers.rng_draw.values", "count", "seeding.derive_rng"),
    ("samplers.rng_draw.s", "s", "seeding.derive_rng"),
    ("samplers.batch_sample.s", "s", "samplers.batch_sample"),
    ("samplers.self_s", "s", "samplers.batch_sample"),
    ("predictors.temperature_rows.calls", "count", "predictors.temperature_rows"),
    ("predictors.temperature_rows.s", "s", "predictors.temperature_rows"),
    ("predictors.nucleus_rows.calls", "count", "predictors.nucleus_rows"),
    ("predictors.nucleus_rows.s", "s", "predictors.nucleus_rows"),
    ("predictors.marginals_batch.calls", "count", "samplers.batch_sample"),
    ("predictors.marginals_batch.rows", "count", "samplers.batch_sample"),
    ("predictors.marginals_batch.s", "s", "samplers.batch_sample"),
    ("oracle.joint_posterior_probs.calls", "count", "oracle.joint_posterior_probs"),
    ("oracle.joint_posterior_probs.rows", "count", "oracle.joint_posterior_probs"),
    ("oracle.joint_posterior_probs.s", "s", "oracle.joint_posterior_probs"),
    ("oracle.joint_posterior_probs.flops", "flop", "oracle.joint_posterior_probs"),
    ("oracle.joint_posterior_probs.table_bytes", "B", "oracle.joint_posterior_probs"),
    ("oracle.max_table_mb", "MB", "oracle.joint_posterior_probs"),
    ("oracle.kernel_kl_estimate.s", "s", "oracle.kernel_kl_estimate"),
    ("metrics.denoising_gap.s", "s", "metrics.denoising_gap"),
    ("metrics.factorization_check.s", "s", "metrics.factorization_check"),
    ("metrics.moment_check.s", "s", "metrics.moment_check"),
    ("predictors.train_predictor.s", "s", "predictors.train_predictor"),
    ("predictors.logsumexp.calls", "count", "predictors.logsumexp"),
    ("predictors.logsumexp.s", "s", "predictors.logsumexp"),
    ("discrete.JointDist.sample_indices.calls", "count", "discrete.JointDist.sample_indices"),
    ("discrete.JointDist.sample_indices.s", "s", "discrete.JointDist.sample_indices"),
    ("discrete.onehot_matrix.calls", "count", "discrete.onehot_matrix"),
    ("discrete.onehot_matrix.s", "s", "discrete.onehot_matrix"),
    ("cli.gen-dist.s", "s", "cli.gen-dist"),
    ("cli.train.s", "s", "cli.train"),
    ("cli.sample.s", "s", "cli.sample"),
    ("cli.verify.s", "s", "cli.verify"),
    ("cli.self_s", "s", "cli.main"),
    ("cli.output_bytes", "B", None),
    ("trace.overhead_s", "s", None),
    ("trace.coverage", "ratio", None),
]
# counts computed from array shapes and file sizes, not read from hardware
# counters; each must repeat exactly between traced iterations
COMPUTED = {
    "oracle.joint_posterior_probs.flops": "2 * rows * (L*V) * V^L, the states @ onehot.T product only",
    "oracle.joint_posterior_probs.table_bytes": "rows * V^L * 8, the float64 posterior table",
    "oracle.max_table_mb": "largest single rows * V^L * 8 table, in MiB",
    "samplers.rng_draw.values": "sum of the sizes of the arrays the chain generators returned",
    "cli.output_bytes": "total size of the files the CLI commands wrote",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy as np
    import scipy

    def proc_field(path: str, key: str) -> str | None:
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "ram": proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def median(values) -> float | None:
    return statistics.median(values) if values else None


def setup_seconds(name: str, seed: int) -> list[float]:
    """Import, law and predictor construction, each time in a fresh interpreter."""
    probe = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]\n"
        "import workloads\n"
        f"workloads.make({name!r}).build({seed})\n"
        "print(time.perf_counter() - t0)\n"
    )
    out = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"setup probe failed: {res.stderr.strip()}")
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def run_iteration(w, tracer, tracer_mod, run_id: str, deep: bool, workdir: Path):
    gc.collect()  # the previous iteration's garbage is not collected inside this one
    tracer.run_id = run_id
    undo, absent = tracer_mod.install(tracer, deep)
    try:
        t0 = perf_counter()
        ops = w.body(workdir)
        wall = perf_counter() - t0
    finally:
        tracer_mod.uninstall(undo)
    for op in ops:
        w.finish(op)
    return ops, wall, absent


def layer_metrics(tracer, run_id: str, wall: float, ops) -> dict[str, float]:
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    top = 0.0
    for name, start, end, parent, _, own, _ in tracer.spans_of(run_id):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += own
        if parent is None:
            top += end - start

    def leaf(name):
        return tracer.leaves.get((run_id, name), [0, 0.0, 0])

    def count(name):
        return tracer.counts.get((run_id, name), 0)

    m = {
        "seeding.derive_rng.calls": leaf("seeding.derive_rng")[0],
        "seeding.derive_rng.s": leaf("seeding.derive_rng")[1],
        "samplers.rng_draw.calls": leaf("samplers.rng_draw")[0],
        "samplers.rng_draw.values": leaf("samplers.rng_draw")[2],
        "samplers.rng_draw.s": leaf("samplers.rng_draw")[1],
        "samplers.batch_sample.s": total["samplers.batch_sample"],
        "samplers.self_s": self_s["samplers.batch_sample"],
        "predictors.marginals_batch.rows": count("predictors.marginals_batch.rows"),
        "oracle.joint_posterior_probs.rows": count("oracle.joint_posterior_probs.rows"),
        "oracle.joint_posterior_probs.flops": count("oracle.joint_posterior_probs.flops"),
        "oracle.joint_posterior_probs.table_bytes": count("oracle.joint_posterior_probs.table_bytes"),
        "oracle.max_table_mb": tracer.maxima.get((run_id, "oracle.max_table_mb"), 0.0),
        "cli.self_s": self_s["cli.main"] + sum(v for k, v in self_s.items() if k.startswith("cli.") and k != "cli.main"),
        "cli.output_bytes": sum(op.bytes for op in ops),
        "trace.coverage": top / wall,
    }
    for name, unit, _ in PER_LAYER:
        if name in m:
            continue
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            m[name] = calls[span]
        elif kind == "s":
            m[name] = total[span]
    return m


def end_to_end(tracer, untraced, setups, peak_rss_mb) -> tuple[dict, dict]:
    """(metric -> median, metric -> samples) over the untraced iterations."""
    samples: dict[str, list[float]] = defaultdict(list)
    samples["setup_s"] = setups
    samples["wall_s"] = [wall for _, wall, _ in untraced]
    for run_id, _, ops in untraced:
        # one rate per method and iteration: its chain steps over the wall time
        # of its batch_sample calls, which are spread across the iteration. On
        # a shared VM per-call speed can be bimodal (2 vCPUs, Xeon: ~1.5x
        # between modes), so a median over single calls flips between the
        # modes; an iteration's total does not.
        chain_steps: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _, _, _, work in tracer.spans_of(run_id):
            if name == "samplers.batch_sample":
                acc = chain_steps[work["method"]]
                acc[0] += work["chains"] * work["steps"]
                acc[1] += end - start
            elif name == "predictors.train_predictor":
                samples["train.steps_per_s"].append(work["steps"] / (end - start))
        for method, (steps, seconds) in chain_steps.items():
            samples[f"{method}.chain_steps_per_s"].append(steps / seconds)
        samples["verify_s"] += [op.seconds for op in ops if op.name == "verify" and op.error is None]
    samples["peak_rss_mb"] = [peak_rss_mb]
    return {k: median(v) for k, v in samples.items()}, dict(samples)


def check(w, iterations) -> list[tuple[str, str]]:
    """Gate the first iteration's outputs, then require every later iteration
    (traced or not) to reproduce them bit for bit. Returns (op, error) pairs."""
    failures = []
    first = {op.name: op for op in iterations[0][2]}
    passed = [op for op in first.values() if op.error is None]
    try:
        w.gate(passed)
    except Exception as exc:  # a gate that cannot run fails the iteration
        for op in passed:
            op.error = f"gate raised {type(exc).__name__}: {exc}"
    for run_id, _, ops in iterations[1:]:
        for op in ops:
            ref = first.get(op.name)
            if op.error is None and ref is not None and ref.digest is not None and op.digest != ref.digest:
                op.error = f"output of {run_id} differs from {iterations[0][0]}"
    for run_id, _, ops in iterations:
        failures += [(f"{run_id}/{op.name}", op.error) for op in ops if op.error is not None]
    return failures


def run_one(args: argparse.Namespace) -> int:
    if not (SRC / "mcbridge" / "__init__.py").is_file():
        print(f"error: no mcbridge package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracer_mod
    import workloads

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    setups = setup_seconds(args.workload, args.seed)
    w = workloads.make(args.workload)
    w.build(args.seed)

    tracer = tracer_mod.Tracer()
    iterations: list[tuple[str, bool, float, list]] = []
    absent: set[str] = set()
    plan = [False, True, True] if args.trace else [False] * MIN_UNTRACED
    longest = {False: 0.0, True: 0.0}
    t_start = perf_counter()
    k = 0
    while True:
        if k < len(plan):
            deep = plan[k]
        else:
            deep = bool(args.trace) and not iterations[-1][1]
            if perf_counter() - t_start + longest[deep] > args.seconds:
                break
        run_id = f"{'traced' if deep else 'untraced'}-{k}"
        workdir = out_dir / "work" / run_id
        workdir.mkdir(parents=True)
        ops, wall, missing = run_iteration(w, tracer, tracer_mod, run_id, deep, workdir)
        absent |= missing
        longest[deep] = max(longest[deep], wall)
        iterations.append((run_id, deep, wall, ops))
        if k > 0:
            shutil.rmtree(workdir)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = check(w, [(r, wall, ops) for r, _, wall, ops in iterations])
    attempted = sum(len(ops) for *_, ops in iterations)
    untraced = [(r, wall, ops) for r, deep, wall, ops in iterations if not deep]
    traced = [(r, wall, ops) for r, deep, wall, ops in iterations if deep]

    values, samples = end_to_end(tracer, untraced, setups, peak_rss_mb)
    if args.trace:
        per_iter = [layer_metrics(tracer, r, wall, ops) for r, wall, ops in traced]
        attempted += 1  # the repeat check on computed counts is one more operation
        layer, unsteady = {}, []
        for name, unit, needs in PER_LAYER:
            if needs in absent or name == "trace.overhead_s":
                continue
            series = [m[name] for m in per_iter]
            if unit == "s" or name == "trace.coverage":
                layer[name] = median(series)
            else:
                layer[name] = series[0]
                if any(v != series[0] for v in series):
                    unsteady.append(f"{name} {series}")
        if unsteady:
            failures.append(("trace.counts_repeat", "counts differ between traced iterations: " + "; ".join(unsteady)))
        layer["trace.overhead_s"] = median([wall for _, wall, _ in traced]) - median([wall for _, wall, _ in untraced])
        reported = {n: {"value": layer[n], "unit": u} for n, u, _ in PER_LAYER if n in layer}
        write_spans(out_dir / "spans.jsonl", tracer)
    else:
        reported = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    values["fail_rate"] = len(failures) / attempted
    samples["fail_rate"] = [1] * len(failures) + [0] * (attempted - len(failures))

    facts = machine_facts()
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": reported,
    }
    print_report(args, facts, values, samples, reported, failures, absent, len(untraced), len(traced))
    (out_dir / "result.json").write_text(
        json.dumps(
            {
                **result,
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "machine": facts,
                "end_to_end": {n: {"value": values.get(n), "samples": samples.get(n)} for n, _ in END_TO_END + EXTRA},
                "iterations": [{"run_id": r, "traced": d, "wall_s": wall} for r, d, wall, _ in iterations],
                "failures": failures,
                "absent": sorted(absent),
                "computed": COMPUTED,
            },
            indent=2,
        )
        + "\n"
    )
    print(json.dumps(result))
    return 0 if not failures else 1


def write_spans(path: Path, tracer) -> None:
    with path.open("w") as fh:
        for name, start, end, parent, run_id, self_s, work in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run_id": run_id,
                                 "self_s": self_s, "work": work}) + "\n")
        for (run_id, name), (n, seconds, values) in tracer.leaves.items():
            fh.write(json.dumps({"leaf": name, "run_id": run_id, "calls": n, "s": seconds, "values": values}) + "\n")


def print_report(args, facts, values, samples, reported, failures, absent, n_untraced, n_traced) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
          f"  iterations {n_untraced} untraced, {n_traced} traced")
    print("machine " + json.dumps(facts))
    print("end-to-end (median, samples):")
    for name, unit in END_TO_END + EXTRA:
        v = values.get(name)
        text = "absent (not run by this workload)" if v is None else f"{v:.6g} {unit}  (n={len(samples[name])})"
        print(f"  {name:<28} {text}")
    if args.trace:
        print("per-layer (one traced iteration; median over traced iterations):")
        for name, unit, needs in PER_LAYER:
            if name in reported:
                tag = "  [computed]" if name in COMPUTED else ""
                print(f"  {name:<44} {reported[name]['value']:.6g} {unit}{tag}")
            else:
                print(f"  {name:<44} absent (wrap target {needs} not found)")
    for op, err in failures:
        print(f"FAILED {op}: {err}")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True)
        lines = res.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(res.stderr)
        if not lines or res.returncode not in (0, 1):
            print(f"error: workload {name} exited {res.returncode} without a result", file=sys.stderr)
            return 2
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        combined["metrics"].update({f"{name}:{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
