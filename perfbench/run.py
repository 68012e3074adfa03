"""Benchmark entry point for btoep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh worker processes
(perfbench/worker.py) with src/ on PYTHONPATH: a closed loop with one
client, tasks back to back in one worker, BLAS limited to the usable
cores.  With --trace 0 it sets up seven times (six set-up-only workers and
the measuring worker) and reports the median set-up time next to the
worker's batch figures; with --trace 1 it reports the per-layer figures of
a traced run.  The metric names and units come from BENCHMARK.json.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
preceded by one line holding the machine record, the number of batches
and each task's median seconds.  Exit status is nonzero,
with no result line, when btoep's sources are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("norm_matfree", "spectral_dense", "dpp_sampling", "verify_suites")
SETUPS = 7
RUN_LIMIT_S = 170  # every run must end within 180 s
HERE = os.path.dirname(os.path.abspath(__file__))


class RunError(RuntimeError):
    pass


def _readline(proc, deadline) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise RunError("worker did not report ready in time")
    return proc.stdout.readline()


def start_worker(argv, env, deadline, setup_only):
    """Start a worker and time it up to its "ready" line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        line = _readline(proc, deadline)
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RunError(f"worker set-up failed: {line.strip()!r}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup_s


def finish_worker(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("worker ran out of time") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}")
    return out


def run(args, spec) -> tuple:
    deadline = time.monotonic() + RUN_LIMIT_S
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc)
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", workdir]
    setups = []
    for _ in range(SETUPS - 1 if not args.trace else 0):
        proc, setup_s = start_worker(argv, env, deadline, setup_only=True)
        finish_worker(proc, deadline)
        setups.append(setup_s)
    proc, setup_s = start_worker(argv, env, deadline, setup_only=False)
    setups.append(setup_s)
    try:
        lines = finish_worker(proc, deadline).strip().splitlines()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    worker = json.loads(lines[-1])
    values = dict(worker["metrics"], setup_s=statistics.median(setups))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise RunError(f"worker did not report {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    result = {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    info = {key: worker[key] for key in ("machine", "batches", "traced_batches", "task_s")}
    return info, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="btoep benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "btoep", "__init__.py")):
        print("error: run from the root of a btoep checkout (src/btoep not found)", file=sys.stderr)
        return 3
    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        info, result = run(args, spec)
    except (OSError, ValueError, KeyError, RunError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
