"""Benchmark for copthrottle: run one workload for a fixed time and print
its metrics as one JSON line.

Run from the repository root:

    python3 bench/run.py --workload solve-wide --seed 1 --seconds 15 --trace 0

Workloads: solve-wide, solve-deep, sweep, verify (see workloads.py and
README.md).  The program is imported from ``src/`` of the checkout; the
benchmark exits non-zero if it is not there.

With ``--trace 0`` the run prints the end-to-end metrics: median pass wall
time, nearest-rank job percentiles, peak RSS, and median set-up time.  With
``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics, the tracing overhead and the time no span accounts for.
The last line of standard output is the result; a summary and the spans
of the last traced pass go to ``bench/results/``.
"""

from __future__ import annotations

import os

# one worker thread: pin the numeric libraries before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
MODULES = ("graph", "engine", "throttling", "strategy", "chordal", "verify", "cli")
SETUP_REPEATS = 9
# metric names, units and directions are defined once, in BENCHMARK.json
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_program() -> SimpleNamespace:
    """Import (or re-import) the package from ``src/`` of this checkout."""
    for name in [m for m in sys.modules if m == "copthrottle" or m.startswith("copthrottle.")]:
        del sys.modules[name]
    package = importlib.import_module("copthrottle")
    if Path(package.__file__).resolve().parent != SRC / "copthrottle":
        raise ImportError(f"copthrottle was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"copthrottle.{m}") for m in MODULES})


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    work_dir = RESULTS / "work"
    work_dir.mkdir(parents=True, exist_ok=True)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = import_program()
        inputs = workload.build(args.seed, mods, work_dir)
        workload.warm(mods, inputs)
        setups.append(time.perf_counter() - t0)

    tracer = Tracer() if args.trace else None
    plain, traced = [], []  # (wall, job times, failed jobs)
    layers, unattributed, last_spans = [], [], []
    first, mismatches, attempted = None, 0, 0
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and len(plain) > len(traced)
        if tracing:
            tracer.install()
            tracer.reset()
        t0 = time.perf_counter()
        times, outputs = workload.run_pass(mods, inputs)
        wall = time.perf_counter() - t0
        if tracing:
            tracer.uninstall()
            layers.append(tracer.layer_metrics())
            unattributed.append(wall - tracer.top_level_time())
            last_spans = [list(s[:4]) for s in tracer.spans]
        failed = [isinstance(out, workloads.Failed) for out in outputs]
        (traced if tracing else plain).append((wall, times, failed))
        attempted += len(outputs)
        if first is None:
            first = outputs
        elif not workload.same(first, outputs):
            mismatches += 1
        if time.perf_counter() - start >= args.seconds and (tracer is None or len(traced) == len(plain)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    fails = workload.check(mods, inputs, first, random.Random(f"{args.seed}:check"))
    if mismatches:
        fails.append(f"{mismatches} passes gave outputs different from the first pass")
    n_failed = sum(sum(f) for _, _, f in plain + traced)
    for out in first:
        if isinstance(out, workloads.Failed):
            print(f"failed job: {out.error}", file=sys.stderr)

    job_times = [t for _, times, failed in plain for t, bad in zip(times, failed) if not bad]
    if tracer is None:
        values = {
            "wall_s": statistics.median(w for w, _, _ in plain),
            "job_p50_s": quantile(job_times, 0.5),
            "job_p90_s": quantile(job_times, 0.9),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
    else:
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        traced_wall = statistics.median(w for w, _, _ in traced)
        values["trace.overhead_s"] = traced_wall - statistics.median(w for w, _, _ in plain)
        values["trace.unattributed_s"] = statistics.median(unattributed)
        # the layers' self times must cover the traced pass but for what the
        # benchmark's own loop spends between spans
        if values["trace.unattributed_s"] > max(values["trace.overhead_s"], 0.01 * traced_wall):
            fails.append(f"spans leave {values['trace.unattributed_s']:.4f} s of a {traced_wall:.3f} s pass unaccounted")
    for f in fails[:20]:
        print(f"check failed: {f}", file=sys.stderr)

    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
    }
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer" if tracer else "end_to_end"]
        },
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = dict(
        facts,
        result=result,
        setups=setups,
        untraced_passes=[{"wall": w, "jobs": times} for w, times, _ in plain],
        traced_passes=[{"wall": w, "jobs": times} for w, times, _ in traced],
    )
    (RESULTS / f"{stem}.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    if last_spans:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(last_spans), encoding="utf-8")
    print(json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
