import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btoep import cli, dpp, operators, spectral
from btoep.cli import (
    EXIT_CAP_EXCEEDED,
    EXIT_INPUT,
    EXIT_KERNEL_REJECTED,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from btoep.operators import BranchingOperator, toeplitz_dense
from btoep.spectral import operator_norm, singular_values
from btoep.symbols import Symbol
from btoep.tree import TreeShape
from btoep.verify import random_symbol

CONST_ONE = '{"coeffs": [[0, 1, 0]]}'
SKEW = '{"coeffs": [[-1, -0.6, 0], [0, 0.8, 0], [1, 0.6, 0]]}'
TWO_COS = '{"coeffs": [[-1, 1, 0], [1, 1, 0]]}'
HERMITIAN = '{"coeffs": [[-1, 0.5, 0.2], [0, 1, 0], [1, 0.5, -0.2]]}'
RAISED_COS = '{"coeffs": [[-1, 0.25, 0], [0, 0.5, 0], [1, 0.25, 0]]}'
# radius 2, complex, values in [0.04, 0.96]
TWO_RADIUS = '{"coeffs": [[-2, 0.06, 0.06], [-1, 0.12, -0.08], [0, 0.5, 0], [1, 0.12, 0.08], [2, 0.06, -0.06]]}'


class TestNorm:
    def test_identity_symbol(self, capsys):
        code = main(["norm", "--symbol", CONST_ONE, "--q", "2", "--n", "3"])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert out["norm"] == pytest.approx(1.0, abs=1e-12)
        assert out["method"] == "PowerIteration"

    def test_skew_symbol_norm(self, capsys):
        # depth-1 norm collapses to the Toeplitz value 1
        code = main(["norm", "--symbol", SKEW, "--q", "2", "--n", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert out["norm"] == pytest.approx(1.0, abs=1e-9)

    def test_non_convergence_exit_code(self, capsys):
        code = main(
            ["norm", "--symbol", TWO_COS, "--q", "2", "--n", "6",
             "--tol", "1e-15", "--max-iter", "2"]
        )
        capsys.readouterr()
        assert code == EXIT_NO_CONVERGENCE

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_rejects_tolerance_not_finite_and_positive(self, tol, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("power iteration started")

        monkeypatch.setattr(cli, "operator_norm", refuse)
        code = main(["norm", "--symbol", CONST_ONE, "--q", "2", "--n", "3", "--tol", tol])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_malformed_symbol(self, capsys):
        code = main(["norm", "--symbol", "{bad json", "--q", "2", "--n", "3"])
        assert code == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_missing_symbol(self, capsys):
        code = main(["norm", "--q", "2", "--n", "3"])
        capsys.readouterr()
        assert code == EXIT_INPUT

    def test_symbol_file(self, tmp_path, capsys):
        p = tmp_path / "f.json"
        p.write_text(CONST_ONE)
        code = main(["norm", "--symbol-file", str(p), "--q", "2", "--n", "2"])
        capsys.readouterr()
        assert code == EXIT_OK

    def test_out_file(self, tmp_path, capsys):
        p = tmp_path / "report.json"
        main(["norm", "--symbol", CONST_ONE, "--q", "2", "--n", "2", "--out", str(p)])
        printed = capsys.readouterr().out
        assert p.read_text() == printed

    def test_byte_identical_reruns(self, capsys):
        args = ["norm", "--symbol", HERMITIAN, "--q", "3", "--n", "4", "--seed", "99"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_csv_format(self, capsys):
        code = main(["norm", "--symbol", CONST_ONE, "--q", "2", "--n", "2",
                     "--format", "csv"])
        out = capsys.readouterr().out.strip().split("\n")
        assert code == EXIT_OK
        assert out[0] == "norm,method,iterations,residual"
        assert out[1].split(",")[1] == "PowerIteration"

    def test_reports_exact_norm_on_stderr(self, capsys):
        args = ["norm", "--symbol", HERMITIAN, "--q", "3", "--n", "4", "--seed", "99"]
        code = main(args)
        captured = capsys.readouterr()
        report = operator_norm(BranchingOperator.uniform(3, 4, Symbol.from_json(HERMITIAN)), seed=99)
        exact = float(np.linalg.norm(toeplitz_dense(Symbol.from_json(HERMITIAN), 4), 2))
        err = abs(report.norm_estimate - exact) / exact
        assert code == EXIT_OK
        assert captured.out == report.to_json() + "\n"
        assert captured.err == f"exact norm {exact!r} (||T_n||), power iteration relative error {err:.3e}\n"

    @pytest.mark.parametrize("q,n", [(2, 30), (8, 9)])
    def test_too_many_vertices(self, q, n, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("power iteration started")

        monkeypatch.setattr(cli, "operator_norm", refuse)
        code = main(["norm", "--symbol", CONST_ONE, "--q", str(q), "--n", str(n)])
        captured = capsys.readouterr()
        assert code == EXIT_CAP_EXCEEDED
        assert captured.err.startswith("error:") and str(cli.MAX_NORM_VERTICES) in captured.err
        assert captured.out == ""


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code = main(["verify", "--trials", "2"])
        lines = capsys.readouterr().out.strip().split("\n")
        records = [json.loads(l) for l in lines]
        assert code == EXIT_OK
        assert all(r["passed"] for r in records)
        names = {r["name"] for r in records}
        assert {"radial_compression", "block_decomposition", "truncated_isometry",
                "fejer_positivity", "weighted_equivalence", "cn_sandwich",
                "interior_multiplicativity"} <= names

    def test_fuzz_entry_fails(self, capsys):
        code = main(["verify", "--trials", "1", "--fuzz-entry"])
        lines = capsys.readouterr().out.strip().split("\n")
        records = [json.loads(l) for l in lines]
        assert code == EXIT_VERIFY_FAILED
        # every suite fails but fejer_positivity: eigvalsh never reads the perturbed M[0, -1]
        assert len(records) == 10
        assert {r["name"] for r in records if r["passed"]} == {"fejer_positivity"}

    def test_case_selector(self, capsys):
        code = main(["verify", "--case", "A3", "--trials", "50"])
        records = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
        assert code == EXIT_OK
        assert records == [records[0]]
        assert records[0]["name"] == "case_A3_norm_equality"
        assert records[0]["passed"]

    def test_byte_identical_reruns(self, capsys):
        main(["verify", "--trials", "1", "--seed", "5"])
        first = capsys.readouterr().out
        main(["verify", "--trials", "1", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second


class TestDpp:
    def test_writes_samples_and_diagnostics(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "3",
             "--samples", "1000", "--seed", "4", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        samples = (tmp_path / "run.samples.jsonl").read_text().strip().split("\n")
        assert len(samples) == 1000
        json.loads(samples[0])
        header = (tmp_path / "run.diagnostics.csv").read_text().split("\n", 1)[0]
        assert header == "statistic,analytic,empirical,stderr"

    @pytest.mark.parametrize("suffix", cli.DPP_SUFFIXES)
    def test_directory_at_either_path_writes_nothing(self, suffix, tmp_path, capsys, monkeypatch):
        # both files or neither: refused before anything is drawn
        monkeypatch.setattr(dpp, "sample_chains", lambda *a: pytest.fail("btoep dpp drew samples"))
        (tmp_path / ("run" + suffix)).mkdir()
        code = main(
            ["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "2",
             "--samples", "1000", "--out", str(tmp_path / "run")]
        )
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["run" + suffix]
        assert not any((tmp_path / ("run" + suffix)).iterdir())

    def test_rejects_sign_changing_symbol(self, tmp_path, capsys):
        out = tmp_path / "bad"
        code = main(
            ["dpp", "--symbol", TWO_COS, "--q", "2", "--n", "2",
             "--samples", "1000", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == EXIT_KERNEL_REJECTED
        assert not (tmp_path / "bad.samples.jsonl").exists()
        assert not (tmp_path / "bad.diagnostics.csv").exists()

    def test_draws_each_sample_once(self, tmp_path, capsys, monkeypatch):
        # once per sample, in seed order, through the batched chain sampler,
        # never the spectral one
        seeds, draws = [], []
        sample_chains = dpp.sample_chains

        def record(kernel, part):
            seeds.extend(part)
            got = sample_chains(kernel, part)
            draws.extend(got)
            return got

        monkeypatch.setattr(dpp, "sample_chains", record)
        monkeypatch.setattr(dpp, "sample", lambda k, s: pytest.fail("btoep dpp called dpp.sample"))
        out = tmp_path / "run"
        code = main(
            ["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "2",
             "--samples", "1000", "--seed", "11", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        assert seeds == [s.rng_seed for s in draws] == dpp.sample_seeds(1000, 11)
        monkeypatch.undo()
        kernel = dpp.build_kernel(Symbol.from_json(RAISED_COS), 2, 2)
        expected = dpp.sssp_statistics(kernel, draws).to_csv()
        assert (tmp_path / "run.diagnostics.csv").read_text() == expected
        assert (tmp_path / "run.samples.jsonl").read_text() == dpp.samples_to_jsonl(draws)

    @pytest.mark.parametrize("q, n, f", [(2, 6, RAISED_COS), (3, 4, TWO_RADIUS)])
    def test_no_dense_step(self, q, n, f, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("btoep dpp ran a dense step")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(operators._Kernel, "materialize", refuse)
        code = main(["dpp", "--symbol", f, "--q", str(q), "--n", str(n),
                     "--samples", "1000", "--out", str(tmp_path / "run")])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("q, n", [(1, 5), (2, 0)])
    def test_no_incomparable_pairs_without_warnings(self, q, n, tmp_path, capsys):
        # a path or a lone root has no incomparable pairs: the row reads nan
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["dpp", "--symbol", RAISED_COS, "--q", str(q), "--n", str(n),
                         "--samples", "1000", "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "run.diagnostics.csv").read_text().split("\n")
        assert "incomparable_pair,0.25,nan,nan" in rows

    def test_cap_exceeded(self, tmp_path, capsys):
        code = main(["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "13",
                     "--samples", "1000", "--out", str(tmp_path / "big")])
        assert code == EXIT_CAP_EXCEEDED
        assert "cap" in capsys.readouterr().err
        assert not (tmp_path / "big.samples.jsonl").exists()

    def test_seed_reproduces_its_line(self, tmp_path, capsys):
        code = main(["dpp", "--symbol", TWO_RADIUS, "--q", "3", "--n", "3",
                     "--samples", "1000", "--seed", "5", "--out", str(tmp_path / "run")])
        capsys.readouterr()
        assert code == EXIT_OK
        lines = (tmp_path / "run.samples.jsonl").read_text().splitlines()
        kernel = dpp.build_kernel(Symbol.from_json(TWO_RADIUS), 3, 3)
        for line in lines[::97]:
            record = json.loads(line)
            assert list(dpp.sample_chain(kernel, record["seed"]).occupied) == record["occupied"]

    def test_vertex_sample_limit_before_allocating(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("an oversized run reached the sampler")

        for name in ("build_kernel", "sample_seeds", "sample_chain", "sample_chains", "sample"):
            monkeypatch.setattr(dpp, name, refuse)
        code = main(["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "3",
                     "--samples", "1000000000000", "--out", str(tmp_path / "big")])
        err = capsys.readouterr().err
        assert code == EXIT_CAP_EXCEEDED
        assert err.startswith("error:") and str(cli.MAX_DPP_VERTEX_SAMPLES) in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_vertex_sample_limit_is_inclusive(self, tmp_path, capsys, monkeypatch):
        # 15 vertices x 1000 samples fit a limit of 15000, 1001 samples do not
        monkeypatch.setattr(cli, "MAX_DPP_VERTEX_SAMPLES", 15000)
        argv = ["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "3", "--out", str(tmp_path / "run")]
        assert main(argv + ["--samples", "1000"]) == EXIT_OK
        assert main(argv + ["--samples", "1001"]) == EXIT_CAP_EXCEEDED
        assert "15000" in capsys.readouterr().err

    def test_rejects_bad_sample_count(self, capsys):
        code = main(["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "2",
                     "--samples", "10"])
        capsys.readouterr()
        assert code == EXIT_INPUT


class TestTable:
    def test_columns_and_q1_identity(self, capsys):
        code = main(["table", "--symbol", HERMITIAN, "--q-max", "3", "--n-max", "3"])
        out = capsys.readouterr().out.strip().split("\n")
        assert code == EXIT_OK
        assert out[0] == "q,n,branching_norm,toeplitz_norm,gap"
        for line in out[1:]:
            q, n, bn, tn, gap = line.split(",")
            if q == "1":
                assert bn == tn and float(gap) == 0.0

    def test_hermitian_gap_small(self, capsys):
        main(["table", "--symbol", HERMITIAN, "--q-max", "3", "--n-max", "4"])
        out = capsys.readouterr().out.strip().split("\n")
        for line in out[1:]:
            gap = float(line.split(",")[4])
            assert abs(gap) <= 1e-8

    def test_cap_exceeded(self, capsys):
        code = main(["table", "--symbol", CONST_ONE, "--q-max", "8", "--n-max", "8"])
        capsys.readouterr()
        assert code == EXIT_CAP_EXCEEDED

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        p = tmp_path / "table.csv"
        main(["table", "--symbol", CONST_ONE, "--q-max", "2", "--n-max", "2",
              "--out", str(p)])
        assert p.read_text() == capsys.readouterr().out

    def test_json_format(self, capsys):
        code = main(["table", "--symbol", CONST_ONE, "--q-max", "2", "--n-max", "2",
                     "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert data["columns"] == ["q", "n", "branching_norm", "toeplitz_norm", "gap"]
        assert len(data["rows"]) == 4

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_depth_prints_an_empty_grid_at_once(self, fmt, tmp_path):
        # n_max = 0 leaves no row, so q_max is never walked
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "btoep.cli", "table", "--symbol", CONST_ONE,
             "--q-max", "100000000000", "--n-max", "0", "--format", fmt],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == EXIT_OK
        if fmt == "csv":
            assert proc.stdout == "q,n,branching_norm,toeplitz_norm,gap\n"
        else:
            assert json.loads(proc.stdout)["rows"] == []


# captured when every cell built its operator and read its top singular value
HERMITIAN_TABLE_CSV = """\
q,n,branching_norm,toeplitz_norm,gap
1,1,1.5385164807134504,1.5385164807134504,0.0
1,2,1.7615773105863908,1.7615773105863908,0.0
1,3,1.8713379692963394,1.8713379692963394,0.0
2,1,1.5385164807134504,1.5385164807134504,0.0
2,2,1.7615773105863908,1.7615773105863908,0.0
2,3,1.8713379692963394,1.8713379692963394,0.0
3,1,1.5385164807134504,1.5385164807134504,0.0
3,2,1.7615773105863908,1.7615773105863908,0.0
3,3,1.8713379692963394,1.8713379692963394,0.0
"""
CONST_ONE_TABLE_CSV = """\
q,n,branching_norm,toeplitz_norm,gap
1,1,1.0,1.0,0.0
1,2,1.0,1.0,0.0
2,1,1.0,1.0,0.0
2,2,1.0,1.0,0.0
"""


def _table(f: str, q_max: int, n_max: int, fmt: str = "csv"):
    """(exit code, stdout) of btoep table, captured without a fixture."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["table", "--symbol", f, "--q-max", str(q_max), "--n-max", str(n_max), "--format", fmt])
    return code, buf.getvalue()


class TestTableOracle:
    """Each row against the operator's own singular values, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(0, 3),
        st.sampled_from([None, "A1", "A2", "A3"]),
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.integers(0, 5),
        st.sampled_from(["csv", "json"]),
    )
    def test_rows_equal_singular_values(self, radius, case, seed, q_max, n_max, fmt):
        f = random_symbol(np.random.default_rng(seed), radius, case)
        self._check(f.to_json(), q_max, n_max, fmt)

    @pytest.mark.parametrize("f", ['{"coeffs": []}', CONST_ONE])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_tied_blocks(self, f, fmt):
        # every block has the same norm, so every k <= n attains the maximum
        self._check(f, 4, 5, fmt)

    @staticmethod
    def _check(f_json, q_max, n_max, fmt):
        code, text = _table(f_json, q_max, n_max, fmt)
        assert code == EXIT_OK
        if fmt == "json":
            rows = [tuple(r) for r in json.loads(text)["rows"]]
        else:
            rows = [(int(q), int(n), float(bn), float(tn), float(gap))
                    for q, n, bn, tn, gap in (line.split(",") for line in text.splitlines()[1:])]
        f = Symbol.from_json(f_json)
        assert [(q, n) for q, n, *_ in rows] == [(q, n) for q in range(1, q_max + 1) for n in range(1, n_max + 1)]
        for q, n, bn, tn, gap in rows:
            assert bn == float(singular_values(BranchingOperator.uniform(q, n, f))[0])
            assert tn == float(np.linalg.norm(toeplitz_dense(f, n), 2))
            assert gap == bn - tn

    @pytest.mark.parametrize("f, q_max, n_max, expected", [
        (HERMITIAN, 3, 3, HERMITIAN_TABLE_CSV),
        (CONST_ONE, 2, 2, CONST_ONE_TABLE_CSV),
    ])
    def test_csv_unchanged(self, f, q_max, n_max, expected):
        assert _table(f, q_max, n_max) == (EXIT_OK, expected)

    def test_solves_each_order_once(self, monkeypatch):
        # by the block theorem the grid needs ||T_k|| for k = 0..n_max alone:
        # no operator, no spectrum of one
        def refuse(*args, **kwargs):
            raise AssertionError("btoep table built an operator or its spectrum")

        orders = []
        dense = cli.toeplitz_dense

        def count(f, k):
            orders.append(k)
            return dense(f, k)

        monkeypatch.setattr(spectral, "singular_values", refuse)
        monkeypatch.setattr(BranchingOperator, "uniform", refuse)
        monkeypatch.setattr(cli, "toeplitz_dense", count)
        code, _ = _table(TWO_RADIUS, 4, 5)
        assert code == EXIT_OK
        assert sorted(orders) == list(range(6))


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()


class TestBadArguments:
    @pytest.mark.parametrize("argv", [
        ["norm", "--symbol", CONST_ONE, "--q", "2", "--n", "2", "--seed", "-1"],
        ["verify", "--trials", "1", "--seed", "-1"],
        ["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "2", "--samples", "1000", "--seed", "-1"],
        ["norm", "--symbol-file", "missing.json", "--q", "2", "--n", "2"],
        ["dpp", "--symbol-file", "missing.json", "--q", "2", "--n", "2", "--samples", "1000"],
        ["norm", "--symbol", CONST_ONE, "--q", "2", "--n", "2", "--out", "missing/report.json"],
        ["verify", "--trials", "1", "--out", "missing/verify.jsonl"],
        ["table", "--symbol", CONST_ONE, "--q-max", "2", "--n-max", "2", "--out", "missing/table.csv"],
        ["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "2", "--samples", "1000", "--out", "missing/run"],
        ["table", "--symbol", CONST_ONE, "--q-max", "2", "--n-max", "2", "--out", "."],
        ["norm", "--symbol", '{"coeffs": [[0, null, 0]]}', "--q", "2", "--n", "2"],
    ])
    def test_exit_1_with_error_line_and_no_file(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []


class TestDenseCapSetting:
    def test_verify_over_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("BTOEP_DENSE_CAP", "50")
        code = main(["verify", "--trials", "1"])
        assert code == EXIT_CAP_EXCEEDED
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["table", "--symbol", CONST_ONE, "--q-max", "2", "--n-max", "2"],
        ["verify", "--trials", "1"],
        ["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "2", "--samples", "1000"],
    ])
    def test_malformed_cap(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("BTOEP_DENSE_CAP", "abc")
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.startswith("error:") and "BTOEP_DENSE_CAP" in captured.err
        assert captured.out == ""


class TestOversizedInput:
    """Trees far past a size limit exit 5 at once, decided from (q, n) alone."""

    @pytest.mark.parametrize("argv", [
        ["norm", "--q", "3", "--n", "100000000"],
        ["norm", "--q", "2", "--n", "100000"],
        ["norm", "--q", "1000000000000", "--n", "1"],
        ["dpp", "--q", "3", "--n", "100000000", "--samples", "1000"],
        ["dpp", "--q", "2", "--n", "100000", "--samples", "1000"],
        ["table", "--q-max", "100000000000", "--n-max", "3"],
    ])
    def test_exit_5_without_traceback_or_file(self, argv, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "btoep.cli", *argv, "--symbol", RAISED_COS, "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == EXIT_CAP_EXCEEDED
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_limit_decision_matches_vertex_count(self, capsys):
        # the depth shortcut must agree with |B_n| x samples > limit wherever both can be formed
        for limit in (0, 1, 7, 8, 4096, 15000, 2**26):
            for q in (1, 2, 3, 7):
                for n in range(0, 32):
                    for samples in (1, 1000):
                        over = TreeShape(q, n).vertex_count * samples > limit
                        code = cli._over_limit(q, n, "test limit", limit, samples)
                        assert code == (EXIT_CAP_EXCEEDED if over else None)
        capsys.readouterr()
