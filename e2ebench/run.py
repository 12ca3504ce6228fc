"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload train_taobao30 --seed 0 \\
        --seconds 15 --trace 0

The workload repeats its fixed unit of work (set-up, timed region,
serving phases, correctness checks) until ``--seconds`` have passed, at
least twice.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the first repetition untraced and
the rest (at least two) traced, and prints the per-layer metrics,
including the tracing overhead.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the provenance and accounting block, which is also written, with the raw
samples and the spans of a traced run, under ``.e2ebench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import multiprocessing
import os
import sys
import traceback
from multiprocessing import resource_tracker

import numpy as np

from harness import MIN_REPS, OUT_DIR, ROOT, Run, clock, provenance


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every input (smoke tests only)")
    return parser.parse_args(argv)


def _load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _import_program():
    # Pure-Python package: "building" is putting src/ on the path.
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (fails loudly when the source is absent)


def _repeat(module, args, run, baseline):
    """Repeat the workload until the time budget is spent."""
    import report
    import spans
    from repro.utils import profiling

    tracers = []
    # The untraced first repetition of a traced run only sets the
    # overhead baseline; the printed metrics need MIN_REPS traced ones.
    min_reps = MIN_REPS + args.trace
    start = clock()
    index = 0
    while index < min_reps or clock() - start < args.seconds:
        traced = bool(args.trace) and index > 0
        target = baseline if args.trace and index == 0 else run
        tracer = spans.Tracer(f"{args.workload}-s{args.seed}-"
                              f"{os.getpid()}-r{index}") if traced else None
        with contextlib.ExitStack() as stack:
            profile = None
            if traced:
                spans.install(tracer)
                stack.callback(tracer.restore)
                profile = stack.enter_context(profiling.profile())
            module.rep(target, args.seed, args.size, tracer)
        if traced:
            report.absorb_trace(run, tracer, profile)
            tracers.append(tracer)
        index += 1
        gc.collect()
    return tracers


def _reap_children():
    """Wait for every process the run started, before exiting.

    Pool workers are already stopped by ``PredictorPool.shutdown``; the
    shared-memory resource tracker it starts would outlive this process
    by a moment, so stop it and wait for it here.
    """
    for child in multiprocessing.active_children():
        child.join(10)
    # The stdlib offers no public way to stop the tracker and wait for it.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None):
    args = _parse(argv)
    spec = _load_spec()
    _import_program()
    from workloads import WORKLOADS

    import report

    module = WORKLOADS.get(args.workload)
    if module is None:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    run, baseline = Run(), Run()
    try:
        tracers = _repeat(module, args, run, baseline)
    finally:
        _reap_children()

    if args.trace:
        wanted = spec["per_layer"]
        overhead = run.median("wall_s") - baseline.median("wall_s")
        metrics = report.per_layer(run, [m["name"] for m in wanted],
                                   overhead)
        attempted = run.attempted + baseline.attempted
        failed = run.failed + baseline.failed
    else:
        wanted = spec["end_to_end"]
        metrics = report.end_to_end(run)
        attempted, failed = run.attempted, run.failed
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        raise RuntimeError(f"metric set {sorted(metrics)} does not match "
                           f"BENCHMARK.json {sorted(names)}")

    stem = OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}"
    spans_path = f"{stem}.spans.jsonl"
    if os.path.exists(spans_path):
        os.unlink(spans_path)
    for tracer in tracers:
        tracer.write(spans_path)
    block = {
        "provenance": provenance(args.seed, args.seconds, args.trace),
        "workload": args.workload,
        "size": args.size,
        "accounting": run.accounting(),
        "baseline_accounting": baseline.accounting() if args.trace else None,
        "metrics": metrics,
    }
    np.savez_compressed(f"{stem}.samples.npz", **{
        name: np.asarray(values) for name, values in run.samples.items()})
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(block, handle, indent=1, sort_keys=True, default=str)
    print("# record " + json.dumps(block, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
