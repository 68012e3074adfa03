"""One benchmark worker: a fresh interpreter that sets up a workload and
runs its task list back to back.

Started by run.py with src/ on PYTHONPATH, from the root of a checkout.
It prints "ready" once btoep is imported and the inputs are built (the
parent times set-up up to that line), then, unless --setup-only, runs an
untimed warm-up task and batches of the task list for the given seconds,
and prints one JSON line with its figures.  With --trace 1 the seconds are
split: untraced batches first, then traced ones, whose spans give the
per-layer figures and whose extra time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import btoep
import spans
import workloads

# glibc sysconf keys; Python's os module has no names for them
SC_LEVEL2_CACHE_SIZE, SC_LEVEL3_CACHE_SIZE = 191, 194


def run_batch(wl, tracer, index) -> dict:
    rec = {"batch_s": 0.0, "attempted": 0, "failed": 0, "obs": {}, "task_s": {}}
    for task in wl.tasks:
        if tracer is not None:
            tracer.task = f"{index}:{task.name}"
        t0 = time.perf_counter()
        try:
            out, err = task.call(), None
        except Exception as exc:  # a crash fails the task, not the batch
            out, err = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.task = None
        rec["batch_s"] += dt
        rec["task_s"][task.name] = dt
        rec["attempted"] += 1
        try:
            if err is not None:
                raise err
            rec["obs"][task.name] = task.check(out) or {}
        except Exception:
            rec["failed"] += 1
            print(f"task {task.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
    return rec


def run_phase(wl, seconds, tracer=None, first=0) -> list:
    """Whole batches for about `seconds`: another batch starts only if the
    last one's duration still fits; there is always at least one.

    The first batch's record carries the peak RSS up to its end: later
    batches add heap fragmentation in numbers that depend on how many of
    them fit into the time, which is not a property of the program."""
    batches = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        batches.append(run_batch(wl, tracer, first + len(batches)))
        if len(batches) == 1:
            batches[0]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return batches


def _git_sha() -> str | None:
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None  # the benchmark checkout need not be a git repository


def _sysconf(key: int) -> int | None:
    try:
        return os.sysconf(key) or None
    except (ValueError, OSError):
        return None


def machine(wl) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = _sysconf(SC_LEVEL3_CACHE_SIZE)
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "l2_bytes": _sysconf(SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": l3,
        "largest_array_bytes_computed": wl.largest_array_bytes,
        # the bandwidth rule wants arrays of at least 4 x LLC; this L3 is
        # shared with the host and far larger than any array here, so every
        # per-vertex time is an in-cache figure
        "bandwidth_rule_met": bool(l3) and wl.largest_array_bytes >= 4 * l3,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    src = os.path.realpath("src")
    if not os.path.realpath(btoep.__file__).startswith(src + os.sep):
        print(f"btoep imported from {btoep.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    os.makedirs(args.workdir, exist_ok=True)
    try:
        workloads.warm_up()
        if not args.trace:
            batches = run_phase(wl, args.seconds)
            metrics = {
                "batch_s": statistics.median(b["batch_s"] for b in batches),
                "peak_rss_mb": batches[0]["peak_rss_mb"],
            }
            traced = []
        else:
            batches = run_phase(wl, args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_phase(wl, args.seconds / 2, tracer, first=len(batches))
            finally:
                tracer.uninstall()
            metrics = spans.layer_metrics(tracer.spans, traced)
            metrics["trace.overhead_s"] = statistics.median(b["batch_s"] for b in traced) - statistics.median(
                b["batch_s"] for b in batches
            )
            tracer.write(os.path.join(os.path.dirname(args.workdir), f"trace-{args.workload}.jsonl"))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    done = batches + traced
    result = {
        "attempted": sum(b["attempted"] for b in done),
        "failed": sum(b["failed"] for b in done),
        "batches": len(batches),
        "traced_batches": len(traced),
        # median seconds per task over the untraced batches
        "task_s": {t.name: statistics.median(b["task_s"][t.name] for b in batches) for t in wl.tasks},
        "metrics": metrics,
        "machine": machine(wl),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
