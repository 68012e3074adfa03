import contextlib
import errno
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
        line = json.dumps(
            {"norm": report.norm_estimate, "method": "PowerIteration",
             "iterations": report.iterations, "residual": report.residual}
        )
        assert captured.out == line + "\n"
        assert captured.err == f"exact norm {exact!r} (||T_n||), power iteration relative error {err:.3e}\n"

    @pytest.mark.parametrize("f", [TWO_RADIUS, SKEW, '{"coeffs": [[1, 1, 0]]}', '{"coeffs": [[-1, 1, 0]]}'])
    @pytest.mark.parametrize("n", [0, 3, 7])
    def test_exact_norm_is_the_dense_two_norm(self, f, n, capsys):
        main(["norm", "--symbol", f, "--q", "2", "--n", str(n), "--max-iter", "5"])
        exact = float(np.linalg.norm(toeplitz_dense(Symbol.from_json(f), n), 2))
        assert capsys.readouterr().err.startswith(f"exact norm {exact!r} (||T_n||)")

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

    @pytest.mark.parametrize("f", [
        '{"coeffs": [[0, 1e155, 0]]}',
        '{"coeffs": [[-1, 1e-200, 0], [0, 3e-200, 0], [1, 1e-200, 0]]}',
        '{"coeffs": [[0, 1e-310, 0]]}',
    ])
    def test_symbol_scale_out_of_square_range(self, f, capsys):
        # M^* M of these symbols over- or underflows a double; an overflow
        # warning or an exception fails the test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["norm", "--symbol", f, "--q", "3", "--n", "6"])
        exact = float(np.linalg.norm(toeplitz_dense(Symbol.from_json(f), 6), 2))
        assert code == EXIT_OK
        assert abs(json.loads(capsys.readouterr().out)["norm"] - exact) <= 1e-9 * exact

    def test_wide_tree_weights_accepted(self, capsys):
        # 200,001 vertices: the norm of 200,000 equal weights stays within 1e-12 of 1
        assert main(["norm", "--symbol", HERMITIAN, "--q", "200000", "--n", "1"]) == EXIT_OK
        norm = json.loads(capsys.readouterr().out)["norm"]
        assert abs(norm - np.linalg.norm(toeplitz_dense(Symbol.from_json(HERMITIAN), 1), 2)) <= 1e-9

    def test_width_bounded_at_depth_zero(self, capsys, monkeypatch):
        # |B_0| = 1 passes any q, but q over the limit is refused before the q weights exist
        monkeypatch.setattr(cli, "MAX_NORM_VERTICES", 10)
        monkeypatch.setattr(BranchingOperator, "uniform", lambda *a, **kw: pytest.fail("weights allocated"))
        for n in (0, 1):
            assert main(["norm", "--symbol", CONST_ONE, "--q", "11", "--n", str(n)]) == EXIT_CAP_EXCEEDED
            assert capsys.readouterr() == ("", f"error: (q=11, n={n}) is over the norm limit of 10 vertices\n")

    def test_no_exact_norm_past_the_order_limit(self, capsys, monkeypatch):
        # T_1024 has order 1025 > EXACT_NORM_MAX_ORDER: the estimate is printed, T_n is never built
        monkeypatch.setattr(cli, "toeplitz_dense", lambda *a: pytest.fail("exact norm computed"))
        code = main(["norm", "--symbol", RAISED_COS, "--q", "1", "--n", "1024", "--max-iter", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_NO_CONVERGENCE
        assert captured.err == "exact norm not computed: T_n has order 1025 > 1024\n"
        assert json.loads(captured.out)["iterations"] == 2


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

    @pytest.mark.parametrize("argv", [["verify", "--trials", "1"], ["verify", "--case", "A1", "--trials", "1"]])
    def test_failed_dense_solve_exits_3(self, argv, tmp_path, capsys, monkeypatch):
        # a NaN in every materialized matrix: an SVD that does not converge
        materialize = operators._Kernel.materialize

        def corrupt(kernel):
            M = materialize(kernel)
            M[-1, 0] = np.nan
            return M

        monkeypatch.setattr(operators._Kernel, "materialize", corrupt)
        code = main(argv + ["--out", str(tmp_path / "verify.jsonl")])
        captured = capsys.readouterr()
        assert code == EXIT_VERIFY_FAILED
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


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
        seeds, sizes = [], []
        occupancy, chains = dpp._chain_occupancy, dpp._chains

        def record(kernel, part):
            seeds.extend(part)
            return occupancy(kernel, part)

        monkeypatch.setattr(dpp, "_chain_occupancy", record)
        monkeypatch.setattr(dpp, "_chains", lambda k, m, u: sizes.append(m) or chains(k, m, u))
        monkeypatch.setattr(dpp, "sample", lambda k, s: pytest.fail("btoep dpp called dpp.sample"))
        out = tmp_path / "run"
        code = main(
            ["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "2",
             "--samples", "1000", "--seed", "11", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        assert seeds == dpp.sample_seeds(1000, 11)
        assert sum(sizes) == 1000
        monkeypatch.undo()
        kernel = dpp.build_kernel(Symbol.from_json(RAISED_COS), 2, 2)
        draws = dpp.sample_chains(kernel, seeds)
        assert (tmp_path / "run.diagnostics.csv").read_text() == dpp.sssp_statistics(kernel, draws).to_csv()
        assert (tmp_path / "run.samples.jsonl").read_text() == dpp.samples_to_jsonl(draws)

    @pytest.mark.parametrize("q, n, f", [(2, 5, RAISED_COS), (1, 300, RAISED_COS), (3, 3, TWO_RADIUS), (2, 11, RAISED_COS)])
    def test_streamed_run_writes_the_library_files(self, q, n, f, tmp_path, capsys):
        # the run streams its draws from one occupancy matrix; the library
        # formats and reads the DppSample tuples: the same bytes.  (2, 11)
        # draws in many chunks
        kernel = dpp.build_kernel(Symbol.from_json(f), q, n)
        code = main(["dpp", "--symbol", f, "--q", str(q), "--n", str(n),
                     "--samples", "1000", "--seed", "6", "--out", str(tmp_path / "run")])
        capsys.readouterr()
        assert code == EXIT_OK
        draws = dpp.sample_chains(kernel, dpp.sample_seeds(1000, 6))
        assert (tmp_path / "run.samples.jsonl").read_bytes() == dpp.samples_to_jsonl(draws).encode()
        assert (tmp_path / "run.diagnostics.csv").read_bytes() == dpp.sssp_statistics(kernel, draws).to_csv().encode()

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
        # by the block theorem the grid needs ||T_k|| for k = 0..n_max alone,
        # each a leading section of one T_{n_max}: no operator, no spectrum of one
        def refuse(*args, **kwargs):
            raise AssertionError("btoep table built an operator or its spectrum")

        built, solved = [], []
        dense, norm = cli.toeplitz_dense, cli._spectral_norm

        def build(f, k):
            built.append(k)
            return dense(f, k)

        def solve(A):
            solved.append(A.shape[0] - 1)
            return norm(A)

        monkeypatch.setattr(spectral, "singular_values", refuse)
        monkeypatch.setattr(BranchingOperator, "uniform", refuse)
        monkeypatch.setattr(cli, "toeplitz_dense", build)
        monkeypatch.setattr(cli, "_spectral_norm", solve)
        code, _ = _table(TWO_RADIUS, 4, 5)
        assert code == EXIT_OK
        assert built == [5]
        assert sorted(solved) == list(range(6))


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "1"],
    ["table", "--symbol", TWO_RADIUS, "--q-max", "4", "--n-max", "5"],
])
def test_every_dense_two_norm_is_one_svd(argv, capsys, monkeypatch):
    # operators._spectral_norm takes each dense 2-norm, so np.linalg.norm
    # is left with the vector norms
    norm = np.linalg.norm

    def vector_norms_only(x, ord=None, *args, **kwargs):
        assert ord != 2, "np.linalg.norm(., 2) called"
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", vector_norms_only)
    assert main(argv) == EXIT_OK
    capsys.readouterr()


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


@pytest.mark.parametrize("argv", [
    ["norm", "--symbol", CONST_ONE, "--q", "2", "--n", "2"],
    ["verify", "--trials", "1"],
    ["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "2", "--samples", "1000"],
    ["table", "--symbol", CONST_ONE, "--q-max", "2", "--n-max", "2"],
])
def test_empty_out_is_refused_before_any_work(argv, tmp_path, capsys, monkeypatch):
    for module, name in ((cli, "operator_norm"), (cli.verify_mod, "run_all"),
                         (cli, "toeplitz_dense"), (dpp, "build_kernel")):
        monkeypatch.setattr(module, name, lambda *a, **kw: pytest.fail(f"{argv[0]} computed"))
    monkeypatch.chdir(tmp_path)
    code = main(argv + ["--out", ""])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.err == "error: --out must not be empty\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


class TestInputGate:
    """Every malformed command line exits 1 with one error line, computes
    nothing and writes nothing; main returns instead of raising SystemExit."""

    NORM = ["norm", "--symbol", CONST_ONE, "--q", "2", "--n", "2"]
    DPP = ["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "2", "--samples", "1000"]
    TABLE = ["table", "--symbol", CONST_ONE, "--q-max", "2", "--n-max", "2"]

    @staticmethod
    def _refused(argv, tmp_path, capsys, monkeypatch):
        for module, name in ((cli, "operator_norm"), (cli.verify_mod, "run_all"),
                             (cli, "toeplitz_dense"), (dpp, "build_kernel")):
            monkeypatch.setattr(module, name, lambda *a, **kw: pytest.fail(f"{argv} computed"))
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
        return captured.err

    @pytest.mark.parametrize("argv", [
        ["norm", "--symbol", CONST_ONE, "--q", "abc", "--n", "2"],
        ["norm", "--symbol", CONST_ONE, "--n", "2"],
        ["norm", "--symbol", CONST_ONE, "--q", "2", "--n", "2", "--format", "xml"],
        ["table", "--symbol", CONST_ONE, "--bogus"],
        ["verify", "--trials", "1", "--case", "A4"],
        ["frob"],
        [],
        ["norm", "--symbol", CONST_ONE, "--symbol-file", "f.json", "--q", "2", "--n", "2"],
        ["dpp", "--q", "2", "--n", "2", "--samples", "1000"],
    ])
    def test_malformed_command_line(self, argv, tmp_path, capsys, monkeypatch):
        err = self._refused(argv, tmp_path, capsys, monkeypatch)
        assert "usage:" not in err

    @pytest.mark.parametrize("argv, flag, message", [
        (NORM[:4] + ["0", "--n", "2"], "--q", "must be >= 1, got 0"),
        (NORM[:6] + ["-1"], "--n", "must be >= 0, got -1"),
        (NORM + ["--max-iter", "0"], "--max-iter", "must be >= 1, got 0"),
        (NORM + ["--seed", "-1"], "--seed", "must be >= 0, got -1"),
        (NORM + ["--tol", "0"], "--tol", "must be finite and > 0, got 0.0"),
        (NORM + ["--tol", "inf"], "--tol", "must be finite and > 0, got inf"),
        (["verify", "--trials", "0"], "--trials", "must be >= 1, got 0"),
        (["verify", "--seed", "-1"], "--seed", "must be >= 0, got -1"),
        (DPP[:4] + ["0"] + DPP[5:], "--q", "must be >= 1, got 0"),
        (DPP[:6] + ["-1"] + DPP[7:], "--n", "must be >= 0, got -1"),
        (DPP[:8] + [str(dpp.MIN_SAMPLES - 1)], "--samples", f"must be >= {dpp.MIN_SAMPLES}, got 999"),
        (DPP + ["--seed", "-1"], "--seed", "must be >= 0, got -1"),
        (TABLE[:4] + ["0"] + TABLE[5:], "--q-max", "must be >= 1, got 0"),
        (TABLE[:6] + ["-1"], "--n-max", "must be >= 0, got -1"),
    ])
    def test_range_one_step_below_its_bound(self, argv, flag, message, tmp_path, capsys, monkeypatch):
        err = self._refused(argv, tmp_path, capsys, monkeypatch)
        assert err == f"error: argument {flag}: {message}\n"

    @pytest.mark.parametrize("argv, flag, message", [
        (NORM + ["--tol", "-1e-3"], "--tol", "must be finite and > 0, got -0.001"),
        (NORM + ["--tol", "-2.5E+2"], "--tol", "must be finite and > 0, got -250.0"),
        (NORM[:6] + ["-1e3"], "--n", "invalid int value: '-1e3'"),
    ])
    def test_negative_number_with_an_exponent_is_a_value(self, argv, flag, message, tmp_path, capsys, monkeypatch):
        # not "expected one argument": argparse before 3.13 reads -1e-3 as an option
        err = self._refused(argv, tmp_path, capsys, monkeypatch)
        assert err == f"error: argument {flag}: {message}\n"

    @pytest.mark.parametrize("argv, dest, value", [
        (NORM[:4] + ["1", "--n", "0"], "q", 1),
        (NORM[:6] + ["0"], "n", 0),
        (NORM + ["--max-iter", "1"], "max_iter", 1),
        (NORM + ["--seed", "0"], "seed", 0),
        (NORM + ["--tol", "5e-324"], "tol", 5e-324),
        (["verify", "--trials", "1"], "trials", 1),
        (["verify", "--seed", "0"], "seed", 0),
        (DPP[:4] + ["1"] + DPP[5:], "q", 1),
        (DPP[:6] + ["0"] + DPP[7:], "n", 0),
        (DPP[:8] + [str(dpp.MIN_SAMPLES)], "samples", dpp.MIN_SAMPLES),
        (DPP + ["--seed", "0"], "seed", 0),
        (TABLE[:4] + ["1"] + TABLE[5:], "q_max", 1),
        (TABLE[:6] + ["0"], "n_max", 0),
    ])
    def test_each_bound_is_accepted(self, argv, dest, value):
        assert getattr(cli.build_parser().parse_args(argv), dest) == value

    def test_no_handler_refuses_a_bound(self, capsys):
        # the parser is the only range check: the bounds run to a result
        argv = self.NORM[:4] + ["1", "--n", "0", "--max-iter", "1", "--tol", "5e-324", "--seed", "0"]
        assert main(argv) in (EXIT_OK, EXIT_NO_CONVERGENCE)
        assert main(["table", "--symbol", CONST_ONE, "--q-max", "1", "--n-max", "0"]) == EXIT_OK
        assert main(["verify", "--case", "A1", "--trials", "1", "--seed", "0"]) == EXIT_OK
        assert "error:" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["-h"], ["norm", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: btoep")

    @pytest.mark.parametrize("argv", [[], ["norm", "--q", "abc", "--n", "2"]])
    def test_subprocess_prints_no_usage(self, argv, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "btoep.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "usage:" not in proc.stderr and proc.stdout == ""
        assert list(tmp_path.iterdir()) == []


class TestOutDirectory:
    """An --out that names a directory is refused before any work."""

    @pytest.mark.parametrize("argv, patch", [
        (["norm", "--symbol", CONST_ONE, "--q", "2", "--n", "2"], (cli, "operator_norm")),
        (["verify", "--trials", "1"], (cli.verify_mod, "run_all")),
        (["table", "--symbol", CONST_ONE, "--q-max", "2", "--n-max", "2"], (cli, "toeplitz_dense")),
    ])
    def test_exit_1_before_computing(self, argv, patch, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(*patch, lambda *a, **kw: pytest.fail(f"{argv[0]} computed"))
        (tmp_path / "out").mkdir()
        code = main(argv + ["--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err.startswith("error:") and "is a directory" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [tmp_path / "out"]


class TestOutNameTooLong:
    """An --out file name over its directory's NAME_MAX is refused before any work."""

    DPP = ["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "2", "--samples", "1000"]

    @pytest.mark.parametrize("argv, suffix", [
        (["norm", "--symbol", CONST_ONE, "--q", "2", "--n", "2"], ""),
        (["verify", "--case", "A1", "--trials", "1"], ""),
        (["table", "--symbol", CONST_ONE, "--q-max", "2", "--n-max", "2"], ""),
        (DPP, ".samples.jsonl"),
        (DPP, ".diagnostics.csv"),
    ])
    def test_exit_1_before_computing(self, argv, suffix, tmp_path, capsys, monkeypatch):
        for module, name in ((cli, "operator_norm"), (cli.verify_mod, "run_case_equalities"),
                             (cli, "toeplitz_dense"), (dpp, "build_kernel")):
            monkeypatch.setattr(module, name, lambda *a, **kw: pytest.fail(f"{argv[0]} computed"))
        # the named output is one byte over the limit: both dpp names are over
        # it, or only the diagnostics name, the longer one
        name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
        prefix = "r" * (name_max + 1 - len(suffix))
        assert suffix != ".diagnostics.csv" or len(prefix + ".samples.jsonl") <= name_max
        code = main(argv + ["--out", str(tmp_path / prefix)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err == f"error: --out file name {prefix + suffix!r} is longer than {name_max} bytes\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestFailedWrite:
    """A run's files are all written or none are, and stdout comes after them."""

    DPP = ["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "2", "--samples", "1000"]

    @staticmethod
    def _expect_exit_1_and_no_output(tmp_path, capsys, code, entries=()):
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        # norm's exact-norm line on stderr comes before the error line
        assert captured.err.splitlines()[-1].startswith("error:") and "Traceback" not in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(entries)
        return captured.err

    def test_dpp_second_name_too_long(self, tmp_path, capsys):
        # the samples name fits the file-name limit, the diagnostics name does not
        name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
        prefix = "r" * (name_max - len(".diagnostics.csv") + 1)
        assert len(prefix + ".samples.jsonl") <= name_max
        code = main(self.DPP + ["--out", str(tmp_path / prefix)])
        self._expect_exit_1_and_no_output(tmp_path, capsys, code)

    @pytest.mark.parametrize("argv", [
        ["norm", "--symbol", CONST_ONE, "--q", "2", "--n", "2"],
        ["verify", "--case", "A1", "--trials", "1"],
        ["table", "--symbol", CONST_ONE, "--q-max", "2", "--n-max", "2"],
    ])
    def test_out_name_too_long(self, argv, tmp_path, capsys):
        name = "r" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1)
        code = main(argv + ["--out", str(tmp_path / name)])
        self._expect_exit_1_and_no_output(tmp_path, capsys, code)

    def test_dpp_symlink_into_missing_directory(self, tmp_path, capsys, monkeypatch):
        # the link's target directory is checked before any work
        monkeypatch.setattr(dpp, "build_kernel", lambda *a: pytest.fail("btoep dpp built its kernel"))
        (tmp_path / "run.diagnostics.csv").symlink_to(tmp_path / "missing" / "run.csv")
        code = main(self.DPP + ["--out", str(tmp_path / "run")])
        err = self._expect_exit_1_and_no_output(tmp_path, capsys, code, ["run.diagnostics.csv"])
        assert f"{str(tmp_path / 'missing')!r} does not exist" in err

    @pytest.mark.parametrize("argv, last", [
        (DPP, "run.diagnostics.csv"),
        (["norm", "--symbol", CONST_ONE, "--q", "2", "--n", "2"], "run"),
        (["verify", "--case", "A1", "--trials", "1"], "run"),
        (["table", "--symbol", CONST_ONE, "--q-max", "2", "--n-max", "2"], "run"),
    ])
    def test_write_that_fails_part_way(self, argv, last, tmp_path, capsys, monkeypatch):
        # a disk that fills during the last write: the file it created goes too
        def open_filling(path, mode="r"):
            fh = open(path, mode)
            if os.path.basename(path) == last:
                def write(text):
                    type(fh).write(fh, text[:10])
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
                fh.write = write
            return fh

        monkeypatch.setattr(cli, "open", open_filling, raising=False)
        code = main(argv + ["--out", str(tmp_path / "run")])
        self._expect_exit_1_and_no_output(tmp_path, capsys, code)

    def test_streamed_write_that_fails_after_its_first_chunk(self, tmp_path, capsys, monkeypatch):
        # a disk that fills while the samples file streams: neither file stays
        written = []

        def open_filling(path, mode="r"):
            fh = open(path, mode)
            if path.endswith(".samples.jsonl"):
                def write(chunk):
                    if written:
                        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
                    written.append(chunk)
                    return type(fh).write(fh, chunk)
                fh.write = write
            return fh

        monkeypatch.setattr(cli, "open", open_filling, raising=False)
        code = main(self.DPP + ["--out", str(tmp_path / "run")])
        self._expect_exit_1_and_no_output(tmp_path, capsys, code)
        assert len(written) == 1 and written[0].startswith('{"seed": ')

    def test_symlinks_are_written_through(self, tmp_path, capsys):
        # a rename into place would replace the links instead
        (tmp_path / "data").mkdir()
        for suffix in cli.DPP_SUFFIXES:
            (tmp_path / ("run" + suffix)).symlink_to(tmp_path / "data" / suffix[1:])
        assert main(self.DPP + ["--out", str(tmp_path / "run")]) == EXIT_OK
        assert capsys.readouterr().out.startswith("wrote ")
        for suffix in cli.DPP_SUFFIXES:
            assert (tmp_path / ("run" + suffix)).is_symlink()
            assert (tmp_path / "data" / suffix[1:]).stat().st_size > 0


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

    @pytest.mark.parametrize("argv", [
        ["table", "--symbol", CONST_ONE, "--q-max", "2", "--n-max", "2"],
        ["verify", "--trials", "1"],
        ["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "2", "--samples", "1000"],
    ])
    def test_negative_cap_is_malformed(self, argv, capsys, monkeypatch):
        # not a cap that every tree is over: refused before any work, exit 1
        monkeypatch.setenv("BTOEP_DENSE_CAP", "-1")
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.err == "error: BTOEP_DENSE_CAP must be an integer >= 0, got '-1'\n"
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
        # a path of 10^8 generations: refused from the closed-form vertex
        # count, never by listing its generations
        ["norm", "--q", "1", "--n", "100000000"],
        ["dpp", "--q", "1", "--n", "100000000", "--samples", "1000"],
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

    def test_limit_decision_matches_vertex_count(self):
        # the depth shortcut must agree with |B_n| x samples > limit wherever both can be formed
        for limit in (0, 1, 7, 8, 4096, 15000, 2**26):
            for q in (1, 2, 3, 7):
                for n in range(0, 32):
                    for samples in (1, 1000):
                        over = TreeShape(q, n).vertex_count * samples > limit
                        with pytest.raises(cli._SizeLimitError) if over else contextlib.nullcontext():
                            cli._check_limit(q, n, "test limit", limit, samples)
        # a width over the limit is refused whatever the tree: |B_0| = 1 here
        cli._check_limit(9, 0, "test limit", 9, width=9)
        with pytest.raises(cli._SizeLimitError, match=r"^\(q=10, n=0\) is over the test limit of 9 vertices$"):
            cli._check_limit(10, 0, "test limit", 9, width=10)
