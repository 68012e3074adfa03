import math
from types import SimpleNamespace

import numpy as np
import pytest

from btoep import operators, spectral, verify
from btoep.tree import TreeShape


@pytest.mark.parametrize(
    "suite", [verify.run_radial_compression, verify.run_multiplicativity, verify.run_isometry]
)
def test_nan_residual_fails_the_suite(suite, monkeypatch):
    # a NaN in the compression or in the dense matrix makes a NaN residual,
    # which must fail the suite and be reported, not read as 0.0
    compress, materialize = verify.radial_compress, operators._Kernel.materialize

    def with_nan(M):
        M[0, 0] = np.nan
        return M

    monkeypatch.setattr(verify, "radial_compress", lambda op: with_nan(compress(op)))
    monkeypatch.setattr(operators._Kernel, "materialize", lambda self: with_nan(materialize(self)))
    result = suite()
    assert result.passed is False
    assert math.isnan(result.residual)


def reference_block_decomposition(seed=1, trials=20, fuzz=False) -> verify.SuiteResult:
    """run_block_decomposition with all three norms of every case taken,
    the gap |total - max(radial, complement)|."""
    cross_tol, norm_tol = 1e-12, 1e-9
    worst_cross = worst_norm = 0.0
    for _, _, _, op in verify._cases(np.random.default_rng(seed), trials, range(1, 6)):
        cross, b = spectral.radial_blocks(verify._maybe_fuzz(op.materialize(), fuzz), op.shape)
        worst_cross = np.maximum(worst_cross, cross)
        worst_norm = np.maximum(worst_norm, abs(b.total - max(b.radial, b.complement)))
    passed = bool(worst_cross <= cross_tol and worst_norm <= norm_tol)
    detail = f"cross={worst_cross:.3e} norm_gap={worst_norm:.3e}"
    return verify.SuiteResult("block_decomposition", passed, float(np.maximum(worst_cross, worst_norm)), norm_tol, detail)


def reference_radial_split(M, shape):
    """_radial_split through N x N products with the dense radial basis H:
    P M Q as (M H - H R) H^T, and H A in the complement block."""
    H = spectral.radial_basis(shape)
    A = H.T @ M
    R = A @ H
    QMP = (M @ H - H @ R) @ H.T
    cross = max(np.abs(H @ (A - R @ H.T)).max(), np.abs(QMP).max())
    return float(cross), R, M - H @ A - QMP


class TestRadialSplit:
    """_radial_split repeats the rows and columns that a product with H holds,
    each entry the one term such a product adds to exact zeros, so its three
    outputs keep the bytes of the products with the dense basis."""

    @staticmethod
    def matrices():
        for seed in range(4):
            for fuzz in (False, True):
                for _, _, _, op in verify._cases(np.random.default_rng(seed), 2, range(1, 6)):
                    yield verify._maybe_fuzz(op.materialize(), fuzz), op.shape
        # paths (q = 1), whose generations hold one vertex each, and one-vertex trees (n = 0)
        rng = np.random.default_rng(37)
        for q, n in [(1, 1), (1, 4), (1, 9), (1, 0), (2, 0), (3, 0)]:
            op = operators.BranchingOperator.uniform(q, n, verify.random_symbol(rng, n))
            for fuzz in (False, True):
                yield verify._maybe_fuzz(op.materialize(), fuzz), op.shape

    def test_bytes_of_the_products_with_the_dense_basis(self):
        count = 0
        for M, shape in self.matrices():
            cross, R, QMQ = spectral._radial_split(M, shape)
            expected = reference_radial_split(M, shape)
            assert cross.hex() == expected[0].hex()
            assert R.shape == expected[1].shape and R.tobytes() == expected[1].tobytes()
            assert QMQ.shape == expected[2].shape and QMQ.tobytes() == expected[2].tobytes()
            count += 1
        # 4 seeds x 2 fuzz x 20 cases of _cases, and 6 trees x 2
        assert count == 172


class TestBlockDecomposition:
    @pytest.mark.parametrize(
        "seed, trials, fuzz", [(1, 20, False), (7, 6, False), (0, 3, False), (12, 2, False), (3, 1, False), (1, 2, True)]
    )
    def test_equals_the_suite_that_takes_every_norm(self, seed, trials, fuzz):
        result = verify.run_block_decomposition(seed=seed, trials=trials, fuzz=fuzz)
        expected = reference_block_decomposition(seed=seed, trials=trials, fuzz=fuzz)
        assert result == expected
        assert result.residual.hex() == expected.residual.hex()
        assert result.passed is not fuzz

    @staticmethod
    def _spy(monkeypatch, nan_total=False):
        """Record which block each _spectral_norm call of verify gets: "R" or
        "QMQ" of the last _radial_split, or "M"; with nan_total, ||M|| reads NaN."""
        calls, last = [], {}
        split, norm = verify._radial_split, verify._spectral_norm

        def recording_split(M, shape):
            cross, R, QMQ = split(M, shape)
            last.update(R=R, QMQ=QMQ)
            return cross, R, QMQ

        def recording_norm(A):
            kind = next((k for k, B in last.items() if A is B), "M")
            calls.append(kind)
            return np.nan if nan_total and kind == "M" else norm(A)

        monkeypatch.setattr(verify, "_radial_split", recording_split)
        monkeypatch.setattr(verify, "_spectral_norm", recording_norm)
        return calls

    def test_takes_the_complement_when_the_radial_block_does_not_attain_the_norm(self, monkeypatch):
        # zero cross blocks, a radial block of norm 0.1 and a complement of norm
        # about 1: the radial block cannot decide, so the complement is taken
        shape = TreeShape(2, 3)
        rng = np.random.default_rng(0)
        H = spectral.radial_basis(shape)
        Q = np.eye(shape.vertex_count) - H @ H.T
        C = rng.standard_normal((shape.vertex_count,) * 2) + 1j * rng.standard_normal((shape.vertex_count,) * 2)
        M = 0.1 * H @ H.T + Q @ (C / np.linalg.norm(C, 2)) @ Q

        dense = SimpleNamespace(shape=shape, materialize=M.copy)
        monkeypatch.setattr(verify, "_cases", lambda rng, trials, ns: [(2, 3, None, dense)])
        cross, b = spectral.radial_blocks(M, shape)
        assert cross <= 1e-12 and b.complement > b.radial + 0.5 and abs(b.total - b.radial) > 1e-9
        calls = self._spy(monkeypatch)
        result = verify.run_block_decomposition(trials=1)
        assert calls == ["R", "M", "QMQ"]
        assert result.passed
        assert result.residual == max(cross, abs(b.total - max(b.radial, b.complement)))

    def test_a_nan_norm_takes_the_complement_and_fails(self, monkeypatch):
        calls = self._spy(monkeypatch, nan_total=True)
        result = verify.run_block_decomposition(trials=1)
        # each of the 10 cases, q in (2, 3) and n = 1..5, takes all three norms
        assert calls == ["R", "M", "QMQ"] * 10
        assert result.passed is False
        assert math.isnan(result.residual)

    def test_default_sweep_takes_no_complement_norm(self, monkeypatch):
        calls = self._spy(monkeypatch)
        result = verify.run_block_decomposition()
        assert result.passed
        # 20 trials of q in (2, 3) and n = 1..5: ||R|| and ||M|| of each case
        assert calls == ["R", "M"] * 200
