import json
import math
import tracemalloc
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from btoep import cli, operators, spectral
from btoep.operators import BranchingOperator, gauge_transform, toeplitz_dense
from btoep.spectral import (
    _radial_lift,
    block_norms,
    certify_positive,
    cn_sandwich,
    norming_vector,
    operator_norm,
    operator_norm_dense,
    radial_basis,
    radial_compress,
    singular_values,
    sup_branching_norm,
)
from btoep.symbols import Symbol, sup_norm
from btoep.verify import random_symbol, random_unit_weights, run_cn_sandwich

SKEW = Symbol({-1: -0.6, 0: 0.8, 1: 0.6})
# the norm_matfree symbol of the benchmark
BENCH = Symbol({-2: 0.1, -1: 0.25, 0: 0.5, 1: 0.25, 2: 0.1})


class TestOperatorNorm:
    def test_identity(self):
        op = BranchingOperator.uniform(2, 3, Symbol({0: 1}))
        report = operator_norm(op)
        assert report.converged
        assert report.norm_estimate == pytest.approx(1.0, abs=1e-12)

    def test_skew_symbol_norm_equals_toeplitz(self):
        # the depth-1 ternary-block structure forces the norm down to the
        # Toeplitz value 1 (the radial block dominates the complement)
        op = BranchingOperator.uniform(2, 1, SKEW)
        report = operator_norm(op)
        assert report.norm_estimate == pytest.approx(1.0, abs=1e-9)

    def test_tridiagonal_oracle_n10(self):
        # eigenvalues of the order-m tridiagonal 0/1 Toeplitz matrix are
        # 2cos(j pi / (m+2)): brute-force oracle for the A2 norm equality
        op = BranchingOperator.uniform(2, 10, Symbol({-1: 1, 1: 1}))
        report = operator_norm(op, tol=1e-12, max_iter=50000)
        oracle = max(abs(2 * np.cos(j * np.pi / 12)) for j in range(1, 12))
        assert report.converged
        assert report.norm_estimate == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("case", [None, "A1", "A2", "A3"])
    def test_agrees_with_dense_svd(self, case):
        rng = np.random.default_rng(20)
        for q in (2, 3):
            for n in (2, 4):
                f = random_symbol(rng, 2, case)
                op = BranchingOperator.uniform(q, n, f)
                tol = 1e-10
                power = operator_norm(op, tol=tol, max_iter=50000)
                dense = operator_norm_dense(op)
                assert power.converged
                assert abs(power.norm_estimate - dense) <= max(1e-7, tol)

    # The radial start relies on the block theorem for the norm; checked
    # against the SVD of materialize() on general unit weights, paths and
    # the root alone, with symbols that are not Hermitian (cases None, A3)
    @pytest.mark.parametrize(
        "q, n, weighted",
        [(2, 4, True), (3, 3, True), (4, 3, True), (1, 0, False), (1, 6, False), (1, 30, False), (2, 0, False), (5, 0, False)],
    )
    def test_radial_start_agrees_with_dense_svd(self, q, n, weighted):
        rng = np.random.default_rng(30 + 7 * q + n)
        for case in (None, "A2", "A3"):
            f = random_symbol(rng, 2, case)
            if weighted:
                op = BranchingOperator.with_weights(random_unit_weights(rng, q), n, f)
            else:
                op = BranchingOperator.uniform(q, n, f)
            power = operator_norm(op, max_iter=50000)
            assert power.converged
            assert abs(power.norm_estimate - operator_norm_dense(op)) <= 1e-7

    def test_radial_start_iteration_guard(self):
        # a random N-vector start takes 1236 iterations here, with relative
        # error 4.5e-9; the radial start runs at the rate of T_14 alone
        report = operator_norm(BranchingOperator.uniform(2, 14, BENCH))
        exact = np.linalg.norm(toeplitz_dense(BENCH, 14), 2)
        assert report.converged
        assert report.iterations <= 150
        assert abs(report.norm_estimate - exact) <= 1e-9 * exact

    def test_deterministic(self):
        op = BranchingOperator.uniform(2, 4, Symbol({-1: 1j, 0: 0.5, 2: 1}))
        assert operator_norm(op) == operator_norm(op)

    def test_non_convergence_flagged(self):
        op = BranchingOperator.uniform(2, 6, Symbol({-1: 1, 1: 1}))
        report = operator_norm(op, tol=1e-14, max_iter=2)
        assert not report.converged
        assert report.iterations == 2

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10])
    def test_rejects_tolerance_not_finite_and_positive(self, tol):
        op = BranchingOperator.uniform(2, 3, Symbol({0: 1}))
        with pytest.raises(ValueError, match="finite and positive"):
            operator_norm(op, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_rejects_max_iter_below_one(self, max_iter):
        op = BranchingOperator.uniform(2, 3, Symbol({0: 1}))
        with pytest.raises(ValueError, match="max_iter"):
            operator_norm(op, max_iter=max_iter)

    def test_report_json_keys(self, capsys):
        # the report reaches JSON only through the norm command's output line
        assert cli.main(["norm", "--symbol", '{"coeffs": [[0, 1, 0]]}', "--q", "2", "--n", "2"]) == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert list(data) == ["norm", "method", "iterations", "residual"]
        report = operator_norm(BranchingOperator.uniform(2, 2, Symbol({0: 1})))
        assert data == {"norm": report.norm_estimate, "method": "PowerIteration",
                        "iterations": report.iterations, "residual": report.residual}

    def test_zero_operator(self):
        report = operator_norm(BranchingOperator.uniform(2, 2, Symbol({})))
        assert report.norm_estimate == 0.0 and report.converged

    @pytest.mark.parametrize("p", [600, -600])
    def test_power_of_two_scale_is_exact(self, p):
        # M^* M at 2^1200 or 2^-1200 leaves the float range; the estimate
        # must scale by exactly 2^p, with the same steps and residual
        f = Symbol({-1: 0.3 + 0.1j, 0: 0.5, 1: 0.25, 2: 0.1j})
        g = Symbol({k: complex(math.ldexp(c.real, p), math.ldexp(c.imag, p)) for k, c in f.coeffs.items()})
        weights = random_unit_weights(np.random.default_rng(31), 3)
        for make in (lambda h: BranchingOperator.uniform(2, 6, h), lambda h: BranchingOperator.with_weights(weights, 4, h)):
            base, scaled = operator_norm(make(f)), operator_norm(make(g))
            assert scaled.norm_estimate == math.ldexp(base.norm_estimate, p)
            assert (scaled.iterations, scaled.residual, scaled.converged) == (base.iterations, base.residual, True)


def power_reference(M, shape, tol, max_iter, seed):
    """operator_norm's power loop on the dense matrix M of a uniform-weight
    operator on shape, from the radial start H c, with the residual
    ||z - lam x|| / lam taken on every step: (norm, iterations, residual,
    converged)."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(shape.depth + 1) + 1j * rng.standard_normal(shape.depth + 1)
    x = radial_basis(shape) @ c
    x /= np.linalg.norm(x)
    G = M.conj().T @ M
    lam, streak = 0.0, 0
    for it in range(1, max_iter + 1):
        z = G @ x
        new_lam = np.vdot(x, z).real
        residual = np.linalg.norm(z - new_lam * x) / new_lam
        streak = streak + 1 if abs(new_lam - lam) < tol * abs(new_lam) else 0
        lam = new_lam
        if streak >= 3:
            break
        x = z / np.linalg.norm(z)
    return np.sqrt(lam), it, residual, streak >= 3


class TestPowerLoop:
    """operator_norm takes the residual only on the step it returns from,
    on both exits, and calls apply twice per step: pinned against a dense
    loop that takes it on every step."""

    OP = BranchingOperator.uniform(2, 3, Symbol({-1: 0.3 + 0.1j, 0: 0.5, 1: 0.25, 2: 0.1j}))

    @pytest.mark.parametrize("max_iter", [1, 2, 7, 10000])
    def test_reports_residual_of_last_iterate(self, max_iter, monkeypatch):
        calls = []
        apply = operators._Kernel.apply
        monkeypatch.setattr(
            operators._Kernel, "apply", lambda self, x, out=None: calls.append(1) or apply(self, x, out)
        )
        report = operator_norm(self.OP, max_iter=max_iter, seed=5)
        norm, iterations, residual, converged = power_reference(
            self.OP.materialize(), self.OP.shape, 1e-10, max_iter, 5
        )
        assert report.converged == converged == (max_iter == 10000)
        assert report.iterations == iterations
        assert abs(report.residual - residual) <= 1e-12
        assert abs(report.norm_estimate - norm) <= 1e-12
        assert len(calls) == 2 * report.iterations


class TestRadialLift:
    """_radial_lift writes c[k] times the k-fold Kronecker power of the
    weights into generation k: the start of operator_norm and the lift of
    norming_vector."""

    def test_uniform_is_radial_basis(self):
        rng = np.random.default_rng(23)
        for q, n in ((1, 4), (2, 5), (3, 4), (5, 2)):
            op = BranchingOperator.uniform(q, n, Symbol({0: 1}))
            c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            assert np.abs(_radial_lift(op, c) - radial_basis(op.shape) @ c).max() <= 1e-15

    def test_weighted_generation_is_kronecker_power(self):
        rng = np.random.default_rng(24)
        for q, n in ((2, 5), (3, 4), (4, 3)):
            a = random_unit_weights(rng, q)
            op = BranchingOperator.with_weights(a, n, Symbol({0: 1}))
            c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            vec = _radial_lift(op, c)
            starts = op.shape.generation_starts
            for k in range(n + 1):
                # entry o of a^{(x)k} is the product of a over the k base-q digits of o
                offsets = np.arange(q**k)
                power = np.prod([a[offsets // q**i % q] for i in range(k)], axis=0)
                assert np.abs(vec[starts[k] : starts[k + 1]] - c[k] * power).max() <= 1e-15


    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_bits_of_the_kronecker_chain(self, q):
        # the lift's broadcast keeps np.kron's operands; a 1-D weights
        # operand, (column[:, None] * weights).ravel(), changes bits at q = 1
        rng = np.random.default_rng(25 + q)
        n = 10 if q == 1 else 12 // q
        for op in (
            BranchingOperator.uniform(q, n, Symbol({0: 1})),
            BranchingOperator.with_weights(random_unit_weights(rng, q), n, Symbol({0: 1})),
        ):
            for _ in range(5):
                c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
                expected, column = [c[0] * np.ones(1, dtype=complex)], np.ones(1, dtype=complex)
                for k in range(1, n + 1):
                    column = np.kron(column, op.weights)
                    expected.append(c[k] * column)
                assert np.array_equal(_radial_lift(op, c), np.concatenate(expected))


class TestRadialCompression:
    def test_down_shift(self):
        op = BranchingOperator.uniform(2, 2, Symbol({1: 1}))
        C = radial_compress(op)
        expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
        assert np.allclose(C, expected, atol=1e-14)

    def test_scalar(self):
        op = BranchingOperator.uniform(3, 2, Symbol({0: 2.5}))
        assert np.allclose(radial_compress(op), 2.5 * np.eye(3), atol=1e-14)

    def test_random_matches_toeplitz(self):
        rng = np.random.default_rng(21)
        f = random_symbol(rng, 4)
        op = BranchingOperator.uniform(3, 5, f)
        assert np.abs(radial_compress(op) - toeplitz_dense(f, 5)).max() <= 1e-12

    def test_weighted_matches_toeplitz(self):
        rng = np.random.default_rng(22)
        op = BranchingOperator.with_weights(random_unit_weights(rng, 2), 3, Symbol({0: 1}))
        assert np.abs(radial_compress(op) - toeplitz_dense(op.symbol, 3)).max() <= 1e-12

    def test_weighted_columns_from_one_chain(self, monkeypatch):
        # the n+1 weighted columns come from one lift, with the bits of n+1 per-column lifts
        rng = np.random.default_rng(26)
        op = BranchingOperator.with_weights(random_unit_weights(rng, 3), 4, random_symbol(rng, 2))
        E = np.stack([_radial_lift(op, c) for c in np.eye(5)], axis=1)
        lifts = []
        monkeypatch.setattr(spectral, "_radial_lift", lambda *a: lifts.append(1) or _radial_lift(*a))
        C = radial_compress(op)
        assert len(lifts) == 1
        assert np.array_equal(C, E.conj().T @ op.apply(E.T).T)

    def test_uniform_columns_are_the_exact_basis(self):
        # btoep verify prints this compression's residual; the Kronecker lift's
        # columns, products of q^(-1/2), change its bits
        rng = np.random.default_rng(27)
        for q in (2, 3, 5):
            for n in range(1, 5):
                op = BranchingOperator.uniform(q, n, random_symbol(rng, n))
                H = radial_basis(op.shape)
                assert np.array_equal(radial_compress(op), H.T @ op.apply(H.T).T)

    def test_basis_orthonormal(self):
        H = radial_basis(BranchingOperator.uniform(3, 4, Symbol({0: 1})).shape)
        assert np.allclose(H.T @ H, np.eye(5), atol=1e-14)


class TestBlockNorms:
    def test_identity(self):
        bn = block_norms(BranchingOperator.uniform(2, 3, Symbol({0: 1})))
        assert bn.radial == pytest.approx(1.0, abs=1e-12)
        assert bn.complement == pytest.approx(1.0, abs=1e-12)
        assert bn.total == pytest.approx(1.0, abs=1e-12)

    def test_skew_example_blocks(self):
        # radial block is the 2x2 rotation-like Toeplitz matrix (norm 1);
        # the 1-dim complement acts as multiplication by b = 0.8
        bn = block_norms(BranchingOperator.uniform(2, 1, SKEW))
        assert bn.radial == pytest.approx(1.0, abs=1e-12)
        assert bn.complement == pytest.approx(0.8, abs=1e-12)
        assert bn.total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("case", ["A1", "A2", "A3"])
    def test_complement_below_radial(self, case):
        rng = np.random.default_rng(23)
        for q in (2, 3):
            for n in (2, 4):
                f = random_symbol(rng, 2, case)
                bn = block_norms(BranchingOperator.uniform(q, n, f))
                assert bn.complement <= bn.radial + 1e-9

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_norms_are_the_dense_two_norms(self, q):
        # bit for bit the np.linalg.norm(., 2) of T_n and T_{n-1}
        rng = np.random.default_rng(29)
        for f in (random_symbol(rng, 2), Symbol({1: 1}), Symbol({0: 1})):
            for n in range(1, 6):
                bn = block_norms(BranchingOperator.uniform(q, n, f))
                assert bn.radial == float(np.linalg.norm(toeplitz_dense(f, n), 2))
                assert bn.complement == (float(np.linalg.norm(toeplitz_dense(f, n - 1), 2)) if q > 1 else 0.0)

    def test_builds_the_adjoint_once(self, monkeypatch):
        # n + 1 products with M^* through one adjoint operator, not one each
        built = []
        adjoint = BranchingOperator.adjoint
        monkeypatch.setattr(BranchingOperator, "adjoint", lambda self: built.append(1) or adjoint(self))
        op = BranchingOperator.uniform(3, 6, Symbol({-1: 0.3 + 0.1j, 0: 0.5, 1: 0.25, 2: 0.1j}))
        assert block_norms(op).total > 0
        assert len(built) == 1

    CHECKED = Symbol({-1: 0.3 + 0.1j, 0: 0.5, 1: 0.25, 2: 0.1j})

    @classmethod
    def checked_operator(cls, weighted, p=0, q=3, n=6):
        """The CHECKED symbol times 2^p on (q, n), uniform or seeded weights."""
        f = Symbol({k: complex(math.ldexp(c.real, p), math.ldexp(c.imag, p)) for k, c in cls.CHECKED.coeffs.items()})
        if weighted:
            return BranchingOperator.with_weights(random_unit_weights(np.random.default_rng(32), q), n, f)
        return BranchingOperator.uniform(q, n, f)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("p", [40, -40])
    def test_verdict_is_scale_free(self, p, weighted):
        # an absolute 1e-12 refused the correct operator once its
        # coefficients reached 1e4 (random weights) or 1e6 (both kinds)
        base, scaled = block_norms(self.checked_operator(weighted)), block_norms(self.checked_operator(weighted, p))
        assert (scaled.radial, scaled.complement) == (math.ldexp(base.radial, p), math.ldexp(base.complement, p))

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("p", [0, 40, -40])
    @pytest.mark.parametrize(
        "defect",
        [
            # leaves the radial subspace: one entry on the last vertex
            lambda y, scale: np.concatenate([y[:-1], y[-1:] + 1e-9 * scale]),
            # stays in it, but the radial block is (1 + 1e-9) T_n, not T_n
            lambda y, scale: y * (1 + 1e-9),
            # a NaN on the last vertex, which a running max() would drop
            lambda y, scale: np.concatenate([y[:-1], y[-1:] + np.nan]),
        ],
        ids=["off_radial", "scaled_block", "nan"],
    )
    def test_refuses_a_broken_apply(self, defect, p, weighted, monkeypatch):
        # the defect is relative to the symbol's scale 2^p, as the check is
        apply = operators._Kernel.apply
        monkeypatch.setattr(
            operators._Kernel, "apply", lambda self, x, out=None: defect(apply(self, x, out), math.ldexp(1.0, p))
        )
        with pytest.raises(AssertionError, match="cross block"):
            block_norms(self.checked_operator(weighted, p))

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("p", [0, 40, -40])
    def test_refuses_a_defect_on_one_vertex_of_every_row(self, p, weighted, monkeypatch):
        # the check applies stacks of lifted columns: the defect sits on the
        # last vertex of each row, not on a whole row
        apply = operators._Kernel.apply

        def broken(self, x, out=None):
            y = apply(self, x, out)
            y[..., -1] += 1e-9 * math.ldexp(1.0, p)
            return y

        monkeypatch.setattr(operators._Kernel, "apply", broken)
        with pytest.raises(AssertionError, match="cross block"):
            block_norms(self.checked_operator(weighted, p))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_memory_is_a_few_vectors(self, weighted):
        # N = 32,767; stacking the radial basis and its two images took
        # 67-75 vectors of 16 N bytes
        op = self.checked_operator(weighted, q=2, n=14)
        tracemalloc.start()
        try:
            block_norms(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 16 * op.dim


# N = 131,071, 265,720 and 299,593; the uniform cases keep their ids
@pytest.mark.parametrize(
    "q, n, weighted",
    [
        pytest.param(q, n, w, id=("weighted-" if w else "") + f"{q}-{n}")
        for w in (False, True)
        for q, n in ((2, 16), (3, 11), (8, 6))
    ],
)
def test_power_iteration_holds_about_three_vectors(q, n, weighted):
    # the iterate x, its image M x, over which M^*'s apply writes M^* M x,
    # and inside each apply the last Horner level and the first descendant
    # sum, N / q entries each; a weighted last Horner step adds its N-row
    # product.  A tenth of a vector covers numpy's fixed buffers.  An apply
    # that allocated its output beside M x took 3 + 1/q + 1/q^2 uniform
    # vectors of 16 N bytes, and 4.5, 4.33 and 4.13 weighted
    f = Symbol({-2: 0.06 + 0.06j, -1: 0.12 - 0.08j, 0: 0.5, 1: 0.12 + 0.08j, 2: 0.06 - 0.06j})

    def operator(q, n):
        if weighted:
            return BranchingOperator.with_weights(random_unit_weights(np.random.default_rng(q), q), n, f)
        return BranchingOperator.uniform(q, n, f)

    # the first call's lazy imports would count as allocations
    operator_norm(operator(2, 2))
    op = operator(q, n)
    tracemalloc.start()
    try:
        assert operator_norm(op).converged
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 + weighted + 2 / q + 0.1) * 16 * op.dim


class TestPositivity:
    def test_fejer_window_psd(self):
        f = Symbol({-1: 0.5, 0: 1, 1: 0.5})
        is_psd, min_eig = certify_positive(BranchingOperator.uniform(2, 4, f), tol=1e-9)
        assert is_psd and min_eig > -1e-9

    def test_two_cos_not_psd(self):
        op = BranchingOperator.uniform(2, 1, Symbol({-1: 1, 1: 1}))
        is_psd, min_eig = certify_positive(op, tol=1e-9)
        assert not is_psd
        assert min_eig == pytest.approx(-1.0, abs=1e-12)

    def test_identity_min_eig(self):
        _, min_eig = certify_positive(BranchingOperator.uniform(3, 2, Symbol({0: 1})))
        assert min_eig == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        op = BranchingOperator.uniform(2, 2, Symbol({1: 1}))
        with pytest.raises(ValueError, match="Hermitian"):
            certify_positive(op)

    def test_reads_t_n_alone(self, monkeypatch):
        # N = 33,554,431: an array over the blocks would take 268 MB
        monkeypatch.setattr(spectral, "_block_spectrum", lambda *a: pytest.fail("block sweep"))
        f = Symbol({-2: 0.1, -1: 0.3 - 0.2j, 0: 1, 1: 0.3 + 0.2j, 2: 0.1})
        is_psd, min_eig = certify_positive(BranchingOperator.uniform(2, 24, f))
        assert min_eig == np.linalg.eigvalsh(toeplitz_dense(f, 24))[0]
        assert is_psd == (min_eig >= -1e-9)


class TestSingularValues:
    def test_identity_all_ones(self):
        s = singular_values(BranchingOperator.uniform(2, 3, Symbol({0: 1})))
        assert np.allclose(s, 1.0, atol=1e-14)

    def test_weight_independence(self):
        rng = np.random.default_rng(24)
        for q in (2, 3):
            f = random_symbol(rng, 3)
            a = random_unit_weights(rng, q)
            s_u = np.sort(singular_values(BranchingOperator.uniform(q, 4, f)))
            # singular_values reads only the symbol and the shape, so the
            # weighted side is a dense SVD of the weighted operator
            s_a = np.sort(np.linalg.svd(BranchingOperator.with_weights(a, 4, f).materialize(), compute_uv=False))
            assert np.abs(s_u - s_a).max() <= 1e-9

    def test_gauge_invariance(self):
        rng = np.random.default_rng(25)
        f = random_symbol(rng, 2)
        op = BranchingOperator.uniform(2, 4, f)
        s0 = np.sort(singular_values(op))
        s1 = np.sort(singular_values(gauge_transform(op, 1.7)))
        assert np.abs(s0 - s1).max() <= 1e-9

    def test_toeplitz_multiset_structure(self):
        # truncating the full operator cuts each shift-invariant chain at a
        # different length: the singular values are exactly those of the
        # Toeplitz truncations T_n, T_{n-1} x (q-1), T_{n-2} x (q-1)q, ...
        rng = np.random.default_rng(26)
        f = random_symbol(rng, 2)
        q, n = 2, 3
        s = np.sort(singular_values(BranchingOperator.uniform(q, n, f)))
        pieces = [np.linalg.svd(toeplitz_dense(f, n), compute_uv=False)]
        for k in range(1, n + 1):
            copies = (q - 1) * q ** (k - 1)
            sv = np.linalg.svd(toeplitz_dense(f, n - k), compute_uv=False)
            pieces.extend([sv] * copies)
        expected = np.sort(np.concatenate(pieces))
        assert np.abs(s - expected).max() <= 1e-10

    @pytest.mark.parametrize("q", range(1, 5))
    @pytest.mark.parametrize("f", [
        *(random_symbol(np.random.default_rng(seed), seed % 4) for seed in range(4)),
        Symbol({1: 1}),  # nilpotent shifts: every T_k holds an exact zero
        Symbol({-1: 1}),
        Symbol({0: 1}),  # one value, tied across every block
        Symbol({}),
    ])
    def test_bytes_of_the_full_sort(self, f, q):
        # the reference: all N values concatenated block by block, then sorted whole
        for n in range(8):
            T = toeplitz_dense(f, n)
            blocks = [(n, 1)] + [(n - j, (q - 1) * q ** (j - 1)) for j in range(1, n + 1) if q > 1]
            full = np.concatenate(
                [np.repeat(np.linalg.svd(T[: k + 1, : k + 1], compute_uv=False), mult) for k, mult in blocks]
            )
            s = singular_values(BranchingOperator.uniform(q, n, f))
            assert s.tobytes() == (-np.sort(-full)).tobytes()

    def test_multiplicities_at_a_million_vertices(self):
        # (2, 19): N = 2^20 - 1 values from 210 block values
        f, q, n = random_symbol(np.random.default_rng(27), 2), 2, 19
        s = singular_values(BranchingOperator.uniform(q, n, f))
        assert s.size == 2 ** (n + 1) - 1
        assert np.all(np.diff(s) <= 0)
        expected = defaultdict(int)
        for k, mult in [(n, 1)] + [(n - j, (q - 1) * q ** (j - 1)) for j in range(1, n + 1)]:
            for value in np.linalg.svd(toeplitz_dense(f, k), compute_uv=False):
                expected[value] += mult
        values, counts = np.unique(s, return_counts=True)
        assert dict(zip(values, counts)) == expected


class TestNormingVector:
    def test_identity_reports_radial(self):
        op = BranchingOperator.uniform(2, 2, Symbol({0: 1}))
        vec, achieved, is_radial = norming_vector(op)
        assert is_radial
        assert achieved == pytest.approx(1.0, abs=1e-12)
        H = radial_basis(op.shape)
        assert np.allclose(vec, H[:, 0], atol=1e-9)

    def test_hermitian_case_radial(self):
        op = BranchingOperator.uniform(2, 4, Symbol({-1: 1, 1: 1}))
        vec, achieved, is_radial = norming_vector(op)
        assert is_radial
        assert achieved == pytest.approx(2 * np.cos(np.pi / 6), abs=1e-10)
        M = op.materialize()
        assert np.linalg.norm(M @ vec) == pytest.approx(achieved, abs=1e-9)

    def test_skew_example_tie_breaks_radial(self):
        # radial and total norms tie at 1, so the radial witness is returned
        vec, achieved, is_radial = norming_vector(BranchingOperator.uniform(2, 1, SKEW))
        assert is_radial
        assert achieved == pytest.approx(1.0, abs=1e-10)

    def test_vector_achieves_norm(self):
        rng = np.random.default_rng(27)
        for case in ("A1", "A2", "A3"):
            f = random_symbol(rng, 2, case)
            op = BranchingOperator.uniform(2, 3, f)
            vec, achieved, is_radial = norming_vector(op)
            M = op.materialize()
            assert np.linalg.norm(M @ vec) == pytest.approx(achieved, rel=1e-9)
            assert achieved == pytest.approx(np.linalg.norm(M, 2), rel=1e-9)
            assert is_radial


class TestCnSandwich:
    def test_skew_example(self):
        # the branching norms coincide with the Toeplitz norm, so the
        # sandwich collapses to ratio 1
        t_norm, sup, ratio = cn_sandwich(SKEW, 1, 8)
        assert t_norm == pytest.approx(1.0, abs=1e-9)
        assert sup == pytest.approx(1.0, abs=1e-9)
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_toeplitz_norm_is_the_dense_two_norm(self):
        rng = np.random.default_rng(30)
        for f in (random_symbol(rng, 2), random_symbol(rng, 1, "A3"), Symbol({-1: 1})):
            for n in (1, 3):
                t_norm, _, _ = cn_sandwich(f, n, 2)
                assert t_norm == float(np.linalg.norm(toeplitz_dense(f, n), 2))

    def test_analytic_ratio_one(self):
        rng = np.random.default_rng(28)
        f = random_symbol(rng, 2, "A3")
        t_norm, sup, ratio = cn_sandwich(f, 3, 5)
        assert ratio == pytest.approx(1.0, abs=1e-8)

    def test_constant(self):
        t_norm, sup, ratio = cn_sandwich(Symbol({0: 2.0}), 2, 4)
        assert (t_norm, sup, ratio) == (pytest.approx(2.0), pytest.approx(2.0), pytest.approx(1.0))

    def test_rejects_small_qmax(self):
        with pytest.raises(ValueError):
            cn_sandwich(Symbol({0: 1}), 2, 1)

    def test_verify_suite_at_defaults(self):
        result = run_cn_sandwich()
        assert result.passed, result

    def test_violation_fails_the_suite(self, monkeypatch):
        # a sup over 3 ||T_n|| is a failed suite and exit 3, not an exception
        monkeypatch.setattr(
            spectral, "sup_branching_norm", lambda f, n, q_max: 4 * float(np.linalg.norm(toeplitz_dense(f, n), 2))
        )
        assert not run_cn_sandwich(seed=5, trials=5).passed
        assert cli.main(["verify", "--trials", "1"]) == cli.EXIT_VERIFY_FAILED


    def test_power_fallback_returns_toeplitz_norm(self, monkeypatch):
        # q = 6..8 at n = 4 have 1555, 2801 and 4681 vertices, over the dense
        # rows; each power estimate must reach ||T_4||, since the dense
        # values at q = 2..5 would hide an underestimate in the sup
        estimates = {}
        power = spectral.operator_norm
        monkeypatch.setattr(
            spectral,
            "operator_norm",
            lambda op, **kw: estimates.setdefault(op.shape.q, power(op, **kw)),
        )
        exact = np.linalg.norm(toeplitz_dense(BENCH, 4), 2)
        assert abs(sup_branching_norm(BENCH, 4, 8) - exact) <= 1e-9
        assert sorted(estimates) == [6, 7, 8]
        for report in estimates.values():
            assert report.converged
            assert abs(report.norm_estimate - exact) <= 1e-9

    def test_nan_power_estimate_is_a_nan_sup(self, monkeypatch):
        # q = 6 at n = 4 has 1555 vertices and takes the power path; its NaN
        # must reach the sup, not lose to the finite dense values at q = 2..5
        monkeypatch.setattr(spectral, "operator_norm", lambda op, **kw: SimpleNamespace(norm_estimate=math.nan))
        f = Symbol({-1: 0.3, 0: 0.5, 1: 0.2j})
        assert math.isnan(sup_branching_norm(f, 4, 6))
        assert math.isnan(cn_sandwich(f, 4, 6)[1])

    def test_dense_rows_alone_pick_the_dense_svd(self, monkeypatch):
        # q = 5, n = 4 has 781 vertices, within the dense rows: dense SVD at
        # the default cap, no power iteration
        monkeypatch.setattr(spectral, "operator_norm", lambda *a, **kw: pytest.fail("power iteration ran"))
        exact = np.linalg.norm(toeplitz_dense(BENCH, 4), 2)
        assert abs(sup_branching_norm(BENCH, 4, 5) - exact) <= 1e-9

    def test_dense_cap_does_not_swap_the_algorithm(self, monkeypatch):
        # under a cap of 700 the 781-vertex tree is refused, not iterated
        monkeypatch.setenv("BTOEP_DENSE_CAP", "700")
        with pytest.raises(operators.DenseCapError):
            sup_branching_norm(BENCH, 4, 5)

    def test_fuzzed_suite_fails_on_every_seed(self):
        # the seeds and sizes btoep verify --fuzz-entry runs for seeds 0..19
        for s in range(20):
            assert not run_cn_sandwich(seed=s + 5, trials=5, fuzz=True).passed, s

class TestTruncationMonotonicity:
    def test_nondecreasing_and_bounded_by_sup_norm(self):
        rng = np.random.default_rng(29)
        for case in (None, "A2"):
            f = random_symbol(rng, 2, case)
            bound, err = sup_norm(f)
            norms = [
                operator_norm_dense(BranchingOperator.uniform(2, n, f))
                for n in range(1, 7)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))
            assert norms[-1] <= bound + err + 1e-9
