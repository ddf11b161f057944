"""Pipeline benchmark for wsodkit.

    python3 perfbench/run.py --workload stock-ladder --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nothing is built. Inputs are generated from the seed
and written as JSONL under ``.perfbench_work/`` before any timing starts,
then removed. With ``--trace 0`` the run repeats set-up and the pipeline
within the time budget and reports end-to-end medians; with ``--trace 1``
it runs the pipeline once untraced and once traced and reports per-layer
metrics. Timings are in reference seconds (see ``probe.py``), with wall
seconds printed beside them. The last line of standard output is the JSON
result; the lines before it give the environment, output digests and
every metric by name with its unit. A failed stage or output check exits 1.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads: BLAS and OpenMP read these once, at import.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# The trainer's seed comes from its config, never from the caller's shell.
os.environ.pop("WSOD_SEED", None)

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import wsodkit from the checkout's ``src/``, never from elsewhere."""
    if not (SRC / "wsodkit" / "__init__.py").is_file():
        sys.exit(f"error: no wsodkit sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import wsodkit

    if Path(wsodkit.__file__).resolve().parent != SRC / "wsodkit":
        sys.exit(f"error: imported wsodkit from {wsodkit.__file__}, not {SRC}")
    return wsodkit


wsodkit = import_program()

import numpy as np  # noqa: E402

import pipeline  # noqa: E402
import spans  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    WORKLOADS,
    write_inputs,
)

# name -> (unit, better). BENCHMARK.json gates these: every workload has
# them, they are never 0, and each spans a whole run.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
# Printed, not gated: the stage throughputs time a few seconds each, too
# short to stay inside a bound from run to run on a shared host; evaluate
# does not run on large-proposals; failed_frac is 0 on a correct run.
PRINTED_ONLY = {
    "train_img_steps_per_s": ("1/s", "higher"),
    "infer_imgs_per_s": ("1/s", "higher"),
    "eval_dets_per_s": ("1/s", "higher"),
    "map50": ("frac", "higher"),
    "corloc50": ("frac", "higher"),
    "failed_frac": ("frac", "lower"),
}
# Units of metrics timed against the speed probe.
TIMED = ("s", "1/s")


def environment(seed: int) -> dict:
    return {
        "backend": wsodkit.kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def timed_setup(inputs, counter: pipeline.Counter):
    """Vocabulary and records, and the (start, end) of loading them."""
    counter.attempted += 1
    t0 = time.perf_counter()
    try:
        vocab, records = pipeline.setup(inputs)
    except Exception:
        counter.failed += 1
        print("set-up raised:", file=sys.stderr)
        traceback.print_exc()
        raise pipeline.StageFailure("setup")
    return vocab, records, (t0, time.perf_counter())


def repeated_setup(w, inputs, counter, spans_out: list):
    """Set up ``w.setup_reps`` times, from a collected heap each time."""
    for _ in range(w.setup_reps):
        loaded = None
        gc.collect()
        *loaded, span = timed_setup(inputs, counter)
        spans_out.append(span)
    return loaded


@dataclass
class Rep:
    """What one pipeline repeat leaves for the metrics, without its outputs."""

    spans: dict[str, tuple[float, float]]
    final_dets: int
    quality: dict[str, float]


def summarize(res: pipeline.Result) -> Rep:
    out = res.outputs
    quality = {}
    if out.report is not None:
        quality = {"map50": out.report.map50, "corloc50": out.report.corloc50}
    return Rep(dict(res.spans), len(out.detections[-1]), quality)


def rep_metrics(w, rep: Rep, seconds) -> dict[str, float]:
    """End-to-end metrics of one repeat; ``seconds(start, end)`` times a span."""
    t = {name: seconds(*span) for name, span in rep.spans.items()}
    steps = 2 * w.images * w.epochs
    metrics = {
        "pipeline_s": sum(t.values()),
        "train_img_steps_per_s": steps / (t["train-baseline"] + t["train-full"]),
        "infer_imgs_per_s": 2 * w.images / (t["infer-baseline"] + t["infer-full"]),
        **rep.quality,
    }
    if "evaluate" in t:
        metrics["eval_dets_per_s"] = rep.final_dets / t["evaluate"]
    return metrics


def untraced_metrics(w, setup_spans, reps, seconds) -> dict[str, float]:
    per_rep = [rep_metrics(w, r, seconds) for r in reps]
    metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    metrics["setup_s"] = statistics.median(seconds(*s) for s in setup_spans)
    return metrics


def run_untraced(w, inputs, work_dir, deadline, counter):
    # Set-up runs at the start and again at the end, so that its median
    # spans the run rather than the machine's speed in its first seconds.
    setup_spans: list[tuple[float, float]] = []
    pipe = pipeline.Pipeline(
        w, *repeated_setup(w, inputs, counter, setup_spans), work_dir, counter
    )
    reps, digests = [], []
    while True:
        t0 = time.perf_counter()
        res = pipe.run()
        reps.append(summarize(res))
        digests.append(pipeline.digest(res.outputs, work_dir))
        # Drop this repeat's outputs so that peak RSS does not grow with repeats.
        res = None
        per_rep = time.perf_counter() - t0
        if time.perf_counter() + per_rep > deadline:
            break
    pipe = None
    repeated_setup(w, inputs, counter, setup_spans)
    return setup_spans, reps, digests


def run_traced(w, inputs, work_dir, counter):
    vocab, records, _ = timed_setup(inputs, counter)
    plain = pipeline.Pipeline(w, vocab, records, work_dir, counter).run()
    digests = [pipeline.digest(plain.outputs, work_dir)]

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_id = "setup"
        vocab, records, _ = timed_setup(inputs, counter)
        pipe = pipeline.Pipeline(w, vocab, records, work_dir, counter)

        def on_stage(name):
            tracer.run_id = name

        traced = pipe.run(on_stage)
    finally:
        tracer.uninstall()
    digests.append(pipeline.digest(traced.outputs, work_dir))
    return summarize(plain), summarize(traced), tracer, digests


def traced_metrics(w, plain: Rep, traced: Rep, tracer, seconds):
    stages = set(traced.spans)
    wall = sum(end - start for start, end in traced.spans.values())
    ref = rep_metrics(w, traced, seconds)["pipeline_s"]
    metrics, missing = tracer.per_layer(w.name)
    metrics["trace.overhead_frac"] = (
        ref / rep_metrics(w, plain, seconds)["pipeline_s"] - 1.0
    )
    metrics["trace.coverage_frac"] = tracer.coverage(stages, wall)
    info = {
        "spans": len(tracer.spans),
        "stage_shares": {
            k: (end - start) / wall for k, (start, end) in traced.spans.items()
        },
        "layer_shares": tracer.layer_shares(stages, wall),
        "missing_calls": missing,
    }
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    work_dir = ROOT / ".perfbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    counter = pipeline.Counter()
    print(f"perfbench workload={w.name} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    metrics, wall, digests, info = {}, {}, [], {}
    try:
        inputs = write_inputs(w, args.seed, work_dir)
        probe = SpeedProbe(work_dir / "probe.txt")
        try:
            with probe:
                deadline = time.perf_counter() + args.seconds
                if args.trace:
                    measured = run_traced(w, inputs, work_dir, counter)
                else:
                    measured = run_untraced(w, inputs, work_dir, deadline, counter)
        except pipeline.StageFailure:
            measured = None
        if measured is not None:
            digests = measured[-1]
            kernel_ms = probe.samples[:, 1] * 1e3
            info["probe"] = {
                "samples": len(kernel_ms),
                "kernel_ms_median": round(float(np.median(kernel_ms)), 4),
            }
            if args.trace:
                metrics, traced_info = traced_metrics(
                    w, *measured[:-1], probe.reference_s
                )
                info.update(traced_info)
            else:
                setup_spans, reps, _ = measured
                metrics = untraced_metrics(w, setup_spans, reps, probe.reference_s)
                wall = untraced_metrics(w, setup_spans, reps, lambda a, b: b - a)
                info.update(setup_reps=len(setup_spans), pipeline_reps=len(reps))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    failed = counter.failed
    if digests and any(d != digests[0] for d in digests):
        print("error: output digests differ between repeats", file=sys.stderr)
        failed += 1
    if info.get("missing_calls"):
        print(f"error: no calls recorded for {info['missing_calls']}", file=sys.stderr)
        failed += 1
    if digests:
        print("digest " + json.dumps(digests[0], sort_keys=True))
    for key, value in info.items():
        print(f"{key} " + json.dumps(value))

    correct = failed == 0 and bool(metrics)
    if args.trace:
        reported = {n: {"value": metrics[n], "unit": unit_of(n)}
                    for n in spans.metric_names() if n in metrics}
        for n, m in reported.items():
            print(f"layer {n} {m['value']:.6g} {m['unit']}")
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = peak
        metrics["failed_frac"] = failed / max(counter.attempted, 1)
        for n, (unit, better) in {**END_TO_END, **PRINTED_ONLY}.items():
            if n in metrics:
                note = f"; wall {wall[n]:.6g}" if n in wall and unit in TIMED else ""
                print(f"metric {n} {metrics[n]:.6g} {unit} ({better} is better{note})")
        reported = {n: {"value": metrics[n], "unit": END_TO_END[n][0]}
                    for n in END_TO_END if n in metrics}
    print(json.dumps({
        "correct": correct,
        "attempted": max(counter.attempted, 1),
        "failed": failed,
        "metrics": reported,
    }))
    return 0 if correct else 1


def unit_of(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_us"):
        return "us"
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_frac"):
        return "frac"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
