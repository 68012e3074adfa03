import json
import warnings

import numpy as np
import pytest

from btoep import cli, dpp
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
from btoep.spectral import operator_norm
from btoep.symbols import Symbol

CONST_ONE = '{"coeffs": [[0, 1, 0]]}'
SKEW = '{"coeffs": [[-1, -0.6, 0], [0, 0.8, 0], [1, 0.6, 0]]}'
TWO_COS = '{"coeffs": [[-1, 1, 0], [1, 1, 0]]}'
HERMITIAN = '{"coeffs": [[-1, 0.5, 0.2], [0, 1, 0], [1, 0.5, -0.2]]}'
RAISED_COS = '{"coeffs": [[-1, 0.25, 0], [0, 0.5, 0], [1, 0.25, 0]]}'


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
        assert not all(r["passed"] for r in records)

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
        draws = []
        sample = dpp.sample
        monkeypatch.setattr(dpp, "sample", lambda k, s: draws.append(s) or sample(k, s))
        out = tmp_path / "run"
        code = main(
            ["dpp", "--symbol", RAISED_COS, "--q", "2", "--n", "2",
             "--samples", "1000", "--seed", "11", "--out", str(out)]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        assert len(draws) == 1000
        monkeypatch.undo()
        kernel = dpp.build_kernel(Symbol.from_json(RAISED_COS), 2, 2)
        expected = dpp.sssp_diagnostics(kernel, 1000, 11).to_csv()
        assert (tmp_path / "run.diagnostics.csv").read_text() == expected

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
