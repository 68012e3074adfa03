import numpy as np
import pytest

from btoep.operators import (
    BranchingOperator,
    DenseCapError,
    OperatorTuple,
    WeightVector,
    gauge_transform,
    op_valued_entry,
    op_valued_materialize,
    toeplitz_dense,
    _Kernel,
    _spectral_norm,
)
from btoep.spectral import block_norms, radial_compress
from btoep.symbols import Symbol
from btoep.tree import Relation, TreeShape, Vertex, comparability, vertex_from_index
from btoep.verify import random_symbol, random_unit_weights


class TestWeights:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            WeightVector((1.0, 1.0))
        with pytest.raises(ValueError):
            BranchingOperator.with_weights([0.5, 0.5], 2, Symbol({0: 1}))

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan)])
    def test_nan_entry_rejected(self, bad):
        # a NaN norm compares False with the tolerance either way round
        with pytest.raises(ValueError):
            WeightVector((bad, 1.0))
        with pytest.raises(ValueError):
            BranchingOperator.with_weights([bad, 1.0], 2, Symbol({0: 1, 1: 0.5}))

    def test_weight_vector_accepted(self):
        w = WeightVector((0.6, 0.8j))
        op = BranchingOperator.with_weights(w, 2, Symbol({0: 1}))
        assert op.shape.q == 2 and not op.uniform

    @pytest.mark.parametrize("q", [100500, 200000, 10**6])
    def test_wide_uniform_vector_accepted(self, q):
        # a sequential sum of q equal squares drifts past the 1e-12 tolerance
        assert WeightVector(np.full(q, q**-0.5)).q == q

    def test_uniform_weights(self):
        op = BranchingOperator.uniform(4, 2, Symbol({0: 1}))
        assert np.allclose(op.weights, 0.5)
        assert op.uniform


class TestUniformFlag:
    """The uniform fast path follows from the weights, whichever constructor
    built them."""

    @pytest.mark.parametrize("q", [1, 2, 3, 8])
    def test_exact_uniform_vector_is_uniform(self, q):
        n = 3 if q < 8 else 2
        f = random_symbol(np.random.default_rng(q), 2)
        op = BranchingOperator.with_weights(np.full(q, 1 / np.sqrt(q)), n, f)
        ref = BranchingOperator.uniform(q, n, f)
        assert op.uniform
        for i in range(op.dim):
            for j in range(op.dim):
                u, v = vertex_from_index(i, op.shape), vertex_from_index(j, op.shape)
                assert np.array_equal(op.entry(u, v), ref.entry(u, v))
        assert np.array_equal(op.materialize(), ref.materialize())
        rng = np.random.default_rng(100 + q)
        x = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        assert np.array_equal(op.apply(x), ref.apply(x))
        assert np.array_equal(radial_compress(op), radial_compress(ref))
        assert block_norms(op) == block_norms(ref)

    @pytest.mark.parametrize("q", [2, 3])
    def test_adjoint_and_gauge_keep_the_flag(self, q):
        rng = np.random.default_rng(30 + q)
        f = random_symbol(rng, 2)
        for op, uniform in (
            (BranchingOperator.uniform(q, 3, f), True),
            (BranchingOperator.with_weights(random_unit_weights(rng, q), 3, f), False),
        ):
            assert op.uniform is uniform
            assert op.adjoint().uniform is uniform
            assert gauge_transform(op, 0.7).uniform is uniform

    def test_uniform_operator_tuple_is_kron_of_scalar(self):
        q, n, d = 2, 3, 2
        f = random_symbol(np.random.default_rng(40), 2)
        A = OperatorTuple(np.stack([np.eye(d) / np.sqrt(q)] * q))
        expected = np.kron(BranchingOperator.uniform(q, n, f).materialize(), np.eye(d))
        assert np.array_equal(op_valued_materialize(A, f, TreeShape(q, n)), expected)


class TestEntry:
    def test_incomparable_is_zero(self):
        op = BranchingOperator.uniform(2, 2, Symbol({-2: 1, -1: 1, 0: 1, 1: 1, 2: 1}))
        assert op.entry(Vertex(1, 0), Vertex(1, 1)) == 0

    def test_child_of_parent(self):
        op = BranchingOperator.uniform(2, 2, Symbol({1: 1}))
        assert op.entry(Vertex(1, 0), Vertex(0, 0)) == 2 ** (-1 / 2)

    def test_weighted_path_product(self):
        op = BranchingOperator.with_weights([0.6, 0.8j], 2, Symbol({2: 1}))
        val = op.entry(Vertex(2, 1), Vertex(0, 0))
        assert val == pytest.approx(0.48j, abs=1e-15)

    def test_uniform_reduction_exact(self):
        rng = np.random.default_rng(0)
        f = random_symbol(rng, 3)
        op = BranchingOperator.uniform(3, 3, f)
        shape = op.shape
        for i in range(shape.vertex_count):
            for j in range(shape.vertex_count):
                u, v = vertex_from_index(i, shape), vertex_from_index(j, shape)
                rel = comparability(u, v, shape)
                if rel.relation is Relation.INCOMPARABLE:
                    expected = 0j
                else:
                    dg = u.generation - v.generation
                    expected = 3 ** (-abs(dg) / 2) * f.coeff(dg)
                assert op.entry(u, v) == expected

    def test_entry_conjugate_symmetry(self):
        rng = np.random.default_rng(1)
        f = random_symbol(rng, 2)
        a = random_unit_weights(rng, 2)
        op = BranchingOperator.with_weights(a, 3, f)
        adj = op.adjoint()
        shape = op.shape
        for i in range(shape.vertex_count):
            for j in range(shape.vertex_count):
                u, v = vertex_from_index(i, shape), vertex_from_index(j, shape)
                assert op.entry(u, v) == pytest.approx(np.conj(adj.entry(v, u)), abs=1e-14)

    def test_out_of_range(self):
        op = BranchingOperator.uniform(2, 2, Symbol({0: 1}))
        with pytest.raises(ValueError):
            op.entry(Vertex(3, 0), Vertex(0, 0))


class TestApply:
    def test_identity_symbol(self):
        op = BranchingOperator.uniform(2, 3, Symbol({0: 1}))
        x = np.arange(op.dim, dtype=complex)
        assert np.array_equal(op.apply(x), x)

    def test_shift_spreads_root_to_children(self):
        op = BranchingOperator.uniform(2, 2, Symbol({1: 1}))
        x = np.zeros(op.dim, dtype=complex)
        x[0] = 1
        y = op.apply(x)
        expected = np.zeros(op.dim, dtype=complex)
        expected[1] = expected[2] = 2 ** (-1 / 2)
        assert np.allclose(y, expected, atol=1e-15)

    @pytest.mark.parametrize("q,n_max", [(1, 6), (2, 6), (3, 6), (5, 5)])
    def test_matches_dense_on_random_vectors(self, q, n_max):
        # dense sweep stops at the cap: |B_6(T_5)| would need 19531 rows.
        # After the sweep come n = 0, the empty symbol (radius -1 draws no
        # coefficients) and a radius above n.
        rng = np.random.default_rng(10 + q)
        sizes = [(n, min(n, 3)) for n in range(1, n_max + 1)] + [(0, 2), (2, -1), (2, 4)]
        for n, radius in sizes:
            f = random_symbol(rng, radius)
            for op in (
                BranchingOperator.uniform(q, n, f),
                BranchingOperator.with_weights(random_unit_weights(rng, q), n, f),
            ):
                M = op.materialize()
                X = rng.standard_normal((op.dim, 100)) + 1j * rng.standard_normal((op.dim, 100))
                dense = M @ X
                for c in range(X.shape[1]):
                    y = op.apply(X[:, c])
                    assert np.linalg.norm(y - dense[:, c]) <= 1e-10 * max(
                        1.0, np.linalg.norm(dense[:, c])
                    )

    @pytest.mark.parametrize(
        "coeffs",
        [
            {0: 0.5, 1: 0.3 - 0.2j, 2: 0.1},  # analytic: no descendant side
            {-2: 0.25 + 0.5j, 0: 0.5, 1: -0.3},  # h(-1) = 0 but h(-2) != 0
        ],
    )
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_one_sided_and_gapped_symbols_match_dense(self, coeffs, q):
        rng = np.random.default_rng(q)
        f = Symbol(coeffs)
        for op in (
            BranchingOperator.uniform(q, 4, f),
            BranchingOperator.with_weights(random_unit_weights(rng, q), 4, f),
        ):
            x = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
            dense = op.materialize() @ x
            assert np.linalg.norm(op.apply(x) - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_dimension_mismatch(self):
        op = BranchingOperator.uniform(2, 2, Symbol({0: 1}))
        with pytest.raises(ValueError):
            op.apply(np.zeros(3))


class TestStackedApply:
    """apply() of a (k, N d) stack is the k products, each row with the bits
    of the same row applied alone."""

    @staticmethod
    def stack(rng, k, length):
        return rng.standard_normal((k, length)) + 1j * rng.standard_normal((k, length))

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_rows_are_the_vector_products(self, q):
        rng = np.random.default_rng(40 + q)
        for n in range(7):
            for radius in range(4):
                f = random_symbol(rng, radius)
                for op in (
                    BranchingOperator.uniform(q, n, f),
                    BranchingOperator.with_weights(random_unit_weights(rng, q), n, f),
                ):
                    X = self.stack(rng, 3, op.dim)
                    Y = op.apply(X)
                    assert Y.shape == X.shape
                    for x, y in zip(X, Y):
                        assert np.array_equal(y, op.apply(x))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_operator_valued_rows_are_the_vector_products(self, d):
        rng = np.random.default_rng(50 + d)
        for q in (1, 2, 3):
            for n in range(5):
                A = rng.standard_normal((q, d, d)) + 1j * rng.standard_normal((q, d, d))
                kernel = _Kernel(A, TreeShape(q, n), random_symbol(rng, 2))
                X = self.stack(rng, 3, kernel.shape.vertex_count * d)
                Y = kernel.apply(X)
                for x, y in zip(X, Y):
                    assert np.array_equal(y, kernel.apply(x))

    @pytest.mark.parametrize("q,n", [(1, 5), (2, 4), (3, 3)])
    def test_matches_dense(self, q, n):
        rng = np.random.default_rng(60 + q)
        f = random_symbol(rng, 3)
        for op in (
            BranchingOperator.uniform(q, n, f),
            BranchingOperator.with_weights(random_unit_weights(rng, q), n, f),
        ):
            X = self.stack(rng, 4, op.dim)
            dense = (op.materialize() @ X.T).T
            assert np.abs(op.apply(X) - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("shape", [(2, 2, 7), (2, 8), (1, 6), (0,)])
    def test_rejects_other_shapes(self, shape):
        op = BranchingOperator.uniform(2, 2, Symbol({0: 1}))
        with pytest.raises(ValueError, match="expected vector of length 7"):
            op.apply(np.zeros(shape))


def reference_apply(kernel: _Kernel, x: np.ndarray) -> np.ndarray:
    """The kernel product as apply formed it before it took an out array:
    each Horner level and the output allocated from x, the output's last
    Horner step taken before the descendant sums are read from x."""
    shape, q, n, d = kernel.shape, kernel.shape.q, kernel.shape.depth, kernel.weights.shape[1]
    lead = x.shape[:-1]
    x = x.reshape(*lead, -1, d)
    starts, coeff = shape.generation_starts, kernel.symbol.coeff
    radius = min(n, kernel.symbol.support_radius)
    down = kernel.weights.conj().reshape(q * d, d)
    up = kernel.weights.transpose(2, 0, 1).reshape(d, q * d)

    def level(i):
        c = coeff(i) * (q ** (-i / 2) if kernel.uniform else 1.0)
        return c * x[..., : starts[n - i + 1], :]

    r = max((m for m in range(1, radius + 1) if coeff(m) != 0), default=0)
    y = level(r)
    for i in range(r - 1, -1, -1):
        S, y = y, level(i)
        children = y[..., 1:, :].reshape(*lead, -1, q, d)
        children += S[..., None, :] if kernel.uniform else (S @ up).reshape(*lead, -1, q, d)
    s = max((m for m in range(1, radius + 1) if coeff(-m) != 0), default=0)
    D = x[..., 1:, :].reshape(*lead, -1, q * d) @ down if s else None
    for m in range(1, s + 1):
        below = D[..., 1:, :].reshape(*lead, -1, q * d) @ down if m < s else None
        if (c := coeff(-m)) != 0:
            D = np.multiply(c, D, out=D) if D.size > 1 else c * D
            y[..., : D.shape[-2], :] += D
        D = below
    return y.reshape(*lead, -1)


class TestApplyOverX:
    """apply(x, out=x) writes the product over x with the bits of apply(x)
    and of the algorithm that allocated its output: every level read from x
    is formed before the output is written."""

    @staticmethod
    def kernels(rng, q):
        for n in range(6):
            for radius in range(4):
                # zeros below the radius move the deepest Horner level and
                # descendant sum that apply forms
                f = Symbol({k: c for k, c in random_symbol(rng, radius).coeffs.items() if rng.random() < 0.7})
                yield BranchingOperator.uniform(q, n, f)._kernel
                yield BranchingOperator.with_weights(random_unit_weights(rng, q), n, f)._kernel
                A = rng.standard_normal((q, 2, 2)) + 1j * rng.standard_normal((q, 2, 2))
                yield _Kernel(A, TreeShape(q, n), f)

    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_bytes_of_the_allocating_algorithm(self, q):
        rng = np.random.default_rng(70 + q)
        for kernel in self.kernels(rng, q):
            length = kernel.shape.vertex_count * kernel.weights.shape[1]
            # (k, 1) stacks at n = 0, d = 1 hold the one-element products
            for lead in ((), (1,), (3,)):
                x = rng.standard_normal((*lead, length)) + 1j * rng.standard_normal((*lead, length))
                expected = reference_apply(kernel, x).tobytes()
                assert kernel.apply(x).tobytes() == expected
                z = x.copy()
                assert kernel.apply(z, out=z) is z
                assert z.tobytes() == expected


class TestAdjoint:
    def test_hermitian_symbol_self_adjoint(self):
        rng = np.random.default_rng(2)
        coeffs = {0: complex(rng.uniform(-1, 1))}
        for k in (1, 2):
            c = complex(*rng.uniform(-1, 1, 2))
            coeffs[k], coeffs[-k] = c, c.conjugate()
        op = BranchingOperator.uniform(3, 4, Symbol(coeffs))
        x = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        assert np.linalg.norm(op.apply(x) - op.adjoint().apply(x)) <= 1e-10 * np.linalg.norm(x)

    def test_up_shift(self):
        op = BranchingOperator.uniform(3, 2, Symbol({1: 1}))
        x = np.zeros(op.dim, dtype=complex)
        x[1] = 1  # first child of the root
        y = op.adjoint().apply(x)
        expected = np.zeros(op.dim, dtype=complex)
        expected[0] = 3 ** (-1 / 2)
        assert np.allclose(y, expected, atol=1e-15)

    def test_inner_product_adjointness(self):
        rng = np.random.default_rng(3)
        f = random_symbol(rng, 3)
        op = BranchingOperator.uniform(3, 4, f)
        for _ in range(20):
            x = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
            y = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
            lhs = np.vdot(y, op.apply(x))
            rhs = np.vdot(op.adjoint().apply(y), x)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_adjoint_matches_dense_conjugate_transpose(self):
        rng = np.random.default_rng(4)
        f = random_symbol(rng, 2)
        a = random_unit_weights(rng, 3)
        op = BranchingOperator.with_weights(a, 3, f)
        M = op.materialize()
        assert np.allclose(op.adjoint().materialize(), M.conj().T, atol=1e-14)


class TestMaterialize:
    def test_skew_example_matrix(self):
        # kernel rows carry h(+1) below the diagonal: the (child, root)
        # entries are +a/sqrt(2), the (root, child) entries -a/sqrt(2)
        a, b = 0.6, 0.8
        op = BranchingOperator.uniform(2, 1, Symbol({-1: -a, 0: b, 1: a}))
        c = a / np.sqrt(2)
        expected = np.array([[b, -c, -c], [c, b, 0], [c, 0, b]])
        assert np.allclose(op.materialize(), expected, atol=1e-15)

    def test_identity(self):
        op = BranchingOperator.uniform(3, 2, Symbol({0: 1}))
        assert np.array_equal(op.materialize(), np.eye(op.dim))

    def test_nonzero_count_matches_comparable_pairs(self):
        rng = np.random.default_rng(5)
        radius = 2
        f = random_symbol(rng, radius)
        op = BranchingOperator.uniform(2, 4, f)
        shape = op.shape
        count = 0
        for i in range(shape.vertex_count):
            for j in range(shape.vertex_count):
                rel = comparability(
                    vertex_from_index(i, shape), vertex_from_index(j, shape), shape
                )
                if rel.relation is not Relation.INCOMPARABLE and rel.distance <= radius:
                    count += 1
        assert np.count_nonzero(op.materialize()) == count

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("BTOEP_DENSE_CAP", "10")
        op = BranchingOperator.uniform(2, 4, Symbol({0: 1}))
        with pytest.raises(DenseCapError, match="cap"):
            op.materialize()

    def test_env_cap_override(self, monkeypatch):
        monkeypatch.setenv("BTOEP_DENSE_CAP", "100")
        op = BranchingOperator.uniform(2, 4, Symbol({0: 1}))
        assert op.materialize().shape == (31, 31)

    def test_negative_cap_is_malformed(self, monkeypatch):
        # refused like a non-integer, not read as a cap every matrix is over
        op = BranchingOperator.uniform(2, 1, Symbol({0: 1}))
        for raw in ("abc", "-1"):
            monkeypatch.setenv("BTOEP_DENSE_CAP", raw)
            with pytest.raises(ValueError, match="BTOEP_DENSE_CAP must be an integer >= 0") as info:
                op.materialize()
            assert not isinstance(info.value, DenseCapError)
        # zero is a cap: every matrix is over it
        monkeypatch.setenv("BTOEP_DENSE_CAP", "0")
        with pytest.raises(DenseCapError, match="exceeds cap 0"):
            op.materialize()


class TestToeplitz:
    def test_skew_example(self):
        T = toeplitz_dense(Symbol({-1: -0.6, 0: 0.8, 1: 0.6}), 1)
        assert np.allclose(T, [[0.8, -0.6], [0.6, 0.8]], atol=1e-15)

    def test_scalar(self):
        assert np.allclose(toeplitz_dense(Symbol({0: 2.5}), 3), 2.5 * np.eye(4))

    def test_tridiagonal(self):
        T = toeplitz_dense(Symbol({-1: 1, 1: 1}), 2)
        assert np.allclose(T, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_definition(self):
        with pytest.raises(ValueError, match="order"):
            toeplitz_dense(Symbol({0: 1}), -1)
        rng = np.random.default_rng(15)
        for n in range(13):
            symbols = [Symbol()]
            for radius in range(n + 3):
                # a third of the coefficients dropped, so zeros sit inside the band too
                keep = rng.random(2 * radius + 1) < 2 / 3
                ks = np.arange(-radius, radius + 1)[keep]
                symbols.append(Symbol({int(k): complex(*rng.uniform(-1, 1, 2)) for k in ks}))
            for f in symbols:
                T = toeplitz_dense(f, n)
                assert T.shape == (n + 1, n + 1)
                assert T.dtype == np.complex128 and T.flags.c_contiguous
                for i in range(n + 1):
                    for j in range(n + 1):
                        assert T[i, j] == f.coeff(i - j)

    def test_matches_q1_operator(self):
        rng = np.random.default_rng(6)
        f = random_symbol(rng, 3)
        op = BranchingOperator.uniform(1, 5, f)
        assert np.allclose(op.materialize(), toeplitz_dense(f, 5), atol=1e-15)


def test_spectral_norm_is_the_dense_two_norm_bit_for_bit():
    # the amax that np.linalg.norm(A, 2) takes of the descending svd is its first entry
    rng = np.random.default_rng(29)
    corpus = [np.zeros((1, 1)), np.zeros((4, 3), dtype=complex), np.array([[-2.5]]), np.array([[1j]])]
    for m, n in [(1, 5), (5, 1), (3, 3), (7, 4), (4, 7), (40, 40)]:
        corpus.append(rng.standard_normal((m, n)))
        corpus.append(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    # rank-deficient: an outer product, and a repeated row
    u, v = rng.standard_normal(6) + 1j * rng.standard_normal(6), rng.standard_normal(5)
    corpus += [np.outer(u, v), np.repeat(rng.standard_normal((1, 6)), 4, axis=0)]
    # the sizes verify measures: sections T_1..T_6, whole operators up to
    # (3, 5), N = 364, and the 4 x 4 complex sum of a weight tuple
    f = random_symbol(rng, 3)
    corpus += [toeplitz_dense(f, n) for n in range(1, 7)]
    corpus += [BranchingOperator.uniform(q, n, f).materialize() for q in (2, 3) for n in (2, 5)]
    weights = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    corpus.append(sum(A.conj().T @ A for A in weights))
    for A in corpus:
        assert _spectral_norm(A) == float(np.linalg.norm(A, 2))
    assert OperatorTuple(weights).contraction_norm == float(np.linalg.norm(corpus[-1], 2))


class TestGauge:
    def test_zero_angle(self):
        f = Symbol({-1: 1j, 0: 2, 1: 1})
        op = BranchingOperator.uniform(2, 3, f)
        assert gauge_transform(op, 0.0).symbol == f

    def test_pi_negates_first_diagonal(self):
        op = BranchingOperator.uniform(2, 2, Symbol({1: 1}))
        g = gauge_transform(op, np.pi)
        assert abs(g.symbol.coeff(1) + 1) < 1e-15
        assert np.allclose(g.materialize(), -op.materialize(), atol=1e-15)

    def test_entrywise_phase_identity(self):
        rng = np.random.default_rng(7)
        f = random_symbol(rng, 2)
        a = random_unit_weights(rng, 2)
        op = BranchingOperator.with_weights(a, 3, f)
        t = 0.9
        g = gauge_transform(op, t)
        gens = np.concatenate([np.full(2**k, k) for k in range(4)])
        phases = np.exp(-1j * t * gens)
        M = op.materialize()
        assert np.allclose(phases[:, None] * M * np.conj(phases)[None, :],
                           g.materialize(), atol=1e-14)

    def test_singular_values_preserved(self):
        rng = np.random.default_rng(8)
        f = random_symbol(rng, 3)
        op = BranchingOperator.uniform(3, 4, f)
        s0 = np.linalg.svd(op.materialize(), compute_uv=False)
        s1 = np.linalg.svd(gauge_transform(op, 2.1).materialize(), compute_uv=False)
        assert np.abs(s0 - s1).max() <= 1e-9


class TestOperatorValued:
    def rand_tuple(self, rng, q=2, d=2, scale=None):
        mats = rng.standard_normal((q, d, d)) + 1j * rng.standard_normal((q, d, d))
        A = OperatorTuple(mats)
        if scale is not None:
            A = OperatorTuple(mats * np.sqrt(scale / A.contraction_norm))
        return A

    def test_scalar_degeneration(self):
        rng = np.random.default_rng(9)
        f = random_symbol(rng, 2)
        a = random_unit_weights(rng, 2)
        A = OperatorTuple(a.reshape(2, 1, 1))
        op = BranchingOperator.with_weights(a, 3, f)
        shape = TreeShape(2, 3)
        for i in range(shape.vertex_count):
            for j in range(shape.vertex_count):
                u, v = vertex_from_index(i, shape), vertex_from_index(j, shape)
                block = op_valued_entry(A, f, u, v, shape)
                assert block.shape == (1, 1)
                assert block[0, 0] == pytest.approx(op.entry(u, v), abs=1e-14)

    def test_incomparable_zero_block(self):
        rng = np.random.default_rng(10)
        A = self.rand_tuple(rng)
        f = Symbol({-1: 1, 0: 1, 1: 1})
        shape = TreeShape(2, 2)
        block = op_valued_entry(A, f, Vertex(1, 0), Vertex(1, 1), shape)
        assert np.array_equal(block, np.zeros((2, 2)))

    def test_factor_order_reverse_descent(self):
        rng = np.random.default_rng(11)
        A = self.rand_tuple(rng)
        shape = TreeShape(2, 2)
        # descent root -> (2, 1) takes child 0 then child 1
        block = op_valued_entry(A, Symbol({2: 1}), Vertex(2, 1), Vertex(0, 0), shape)
        expected = A.matrices[1] @ A.matrices[0]
        assert np.allclose(block, expected, atol=1e-14)
        up = op_valued_entry(A, Symbol({-2: 1}), Vertex(0, 0), Vertex(2, 1), shape)
        assert np.allclose(up, expected.conj().T, atol=1e-14)

    def test_commuting_tuple_matches_scalar_order(self):
        # diagonal matrices commute, so the order convention is unambiguous
        d1, d2 = np.diag([0.3, 0.4]), np.diag([0.5, 0.1])
        A = OperatorTuple(np.stack([d1, d2]).astype(complex))
        shape = TreeShape(2, 3)
        f = Symbol({3: 1})
        block = op_valued_entry(A, f, Vertex(3, 5), Vertex(0, 0), shape)
        # digits of offset 5 = 0b101: descend 1, 0, 1
        expected = d2 @ d1 @ d2
        assert np.allclose(block, expected, atol=1e-15)

    def test_materialize_blocks_match_entry(self):
        rng = np.random.default_rng(12)
        A = self.rand_tuple(rng)
        f = random_symbol(rng, 2)
        shape = TreeShape(2, 2)
        M = op_valued_materialize(A, f, shape)
        d = 2
        for i in range(shape.vertex_count):
            for j in range(shape.vertex_count):
                u, v = vertex_from_index(i, shape), vertex_from_index(j, shape)
                block = M[i * d : (i + 1) * d, j * d : (j + 1) * d]
                assert np.allclose(block, op_valued_entry(A, f, u, v, shape), atol=1e-14)

    def test_block_identity_for_constant_symbol(self):
        rng = np.random.default_rng(13)
        A = self.rand_tuple(rng)
        M = op_valued_materialize(A, Symbol({0: 1}), TreeShape(2, 2))
        assert np.array_equal(M, np.eye(14))

    def test_two_generation_principal_block(self):
        # restriction to the root and its children is [[I, A1*, A2*],
        # [A1, I, 0], [A2, 0, I]]
        rng = np.random.default_rng(14)
        A = self.rand_tuple(rng)
        f = Symbol({-1: 1, 0: 1, 1: 1})
        M = op_valued_materialize(A, f, TreeShape(2, 1))
        d = 2
        A1, A2 = A.matrices
        assert np.allclose(M[0:d, d : 2 * d], A1.conj().T, atol=1e-14)
        assert np.allclose(M[0:d, 2 * d : 3 * d], A2.conj().T, atol=1e-14)
        assert np.allclose(M[d : 2 * d, 0:d], A1, atol=1e-14)
        assert np.allclose(M[2 * d : 3 * d, d : 2 * d], 0, atol=0)

    def test_hermitian_for_hermitian_symbol(self):
        rng = np.random.default_rng(15)
        A = self.rand_tuple(rng)
        f = Symbol({-1: 0.5 - 0.25j, 0: 1, 1: 0.5 + 0.25j})
        M = op_valued_materialize(A, f, TreeShape(2, 3))
        assert np.abs(M - M.conj().T).max() < 1e-14

    def test_psd_for_contractive_tuple_and_fejer_symbol(self):
        rng = np.random.default_rng(16)
        from btoep.symbols import fejer_kernel

        A = self.rand_tuple(rng, scale=0.999)
        assert A.contraction_norm <= 1.0
        M = op_valued_materialize(A, fejer_kernel(3), TreeShape(2, 3))
        min_eig = np.linalg.eigvalsh(M).min()
        assert min_eig >= -1e-9

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_engine_apply_matches_dense(self, q):
        rng = np.random.default_rng(30 + q)
        A = self.rand_tuple(rng, q=q)
        f = random_symbol(rng, 2)
        shape = TreeShape(q, 3)
        M = op_valued_materialize(A, f, shape)
        kernel = _Kernel(A.matrices, shape, f)
        for _ in range(10):
            x = rng.standard_normal(M.shape[0]) + 1j * rng.standard_normal(M.shape[0])
            dense = M @ x
            assert np.linalg.norm(kernel.apply(x) - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(17)
        A = self.rand_tuple(rng, q=3)
        with pytest.raises(ValueError):
            op_valued_entry(A, Symbol({0: 1}), Vertex(0, 0), Vertex(0, 0), TreeShape(2, 1))
