"""Checks on the benchmark itself: gates can fail, spans add up, and a
directory without btoep's sources gives no result.

    python3 -m pytest perfbench -q
"""

import os
import shutil
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import btoep  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

F = workloads.symbols.rotate(btoep.Symbol(workloads.NORM_SYMBOL), 0.7)


def small_workload(expected_norm):
    op = btoep.BranchingOperator.uniform(2, 4, F)
    tasks = [
        workloads.norm_task(F, 2, 4, 11, expected_norm),
        workloads.Task("singular_values", lambda: workloads.spectral.singular_values(op),
                       workloads.check_singular_values(workloads.toeplitz_multiset(F, 2, 4))),
    ]
    return workloads.Workload("small", tasks, 0)


def test_wrong_expected_value_fails_the_gate():
    exact = workloads.exact_norm(F, 4)
    good = worker.run_batch(small_workload(exact), None, 0)
    assert (good["attempted"], good["failed"]) == (2, 0)
    bad = worker.run_batch(small_workload(exact * (1 + 1e-6)), None, 0)
    assert (bad["attempted"], bad["failed"]) == (2, 1)


def test_self_times_add_up_and_wrappers_come_off():
    originals = (btoep.cli.operator_norm, btoep.verify.radial_compress, np.linalg.svd,
                 btoep.BranchingOperator.__dict__["apply"], btoep.BranchingOperator.__dict__["uniform"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert btoep.cli.operator_norm is not originals[0]
        assert btoep.verify.radial_compress is not originals[1]
        batch = worker.run_batch(small_workload(workloads.exact_norm(F, 4)), tracer, 0)
    finally:
        tracer.uninstall()
    assert batch["failed"] == 0
    m = spans.layer_metrics(tracer.spans, [batch])
    layers = sum(m[f"{layer}.self_s"] for layer in (*spans.LAYERS, "linalg"))
    assert m["bench.unattributed_s"] >= 0
    assert abs(layers + m["bench.unattributed_s"] - batch["batch_s"]) < 1e-9
    assert m["cli.main.calls"] == 1 and m["spectral.operator_norm.calls"] == 1
    assert m["operators.apply.calls"] == 2 * m["spectral.operator_norm.iterations"]
    assert m["operators.materialize.bytes_computed"] == 16 * 31**2
    assert (btoep.cli.operator_norm, btoep.verify.radial_compress, np.linalg.svd,
            btoep.BranchingOperator.__dict__["apply"], btoep.BranchingOperator.__dict__["uniform"]) == originals


def test_no_result_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_suites", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
