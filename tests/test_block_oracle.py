"""The structured routes of btoep against the dense oracle materialize().

singular_values, certify_positive, block_norms and norming_vector solve
only the Toeplitz blocks T_k, and radial_compress and block_norms apply
the operator to the weighted radial basis.  Each is checked here against
a dense solve of materialize() on random (q, n, weights, symbol), q = 1,
n = 0, the empty symbol and support radius above n included.
Coefficients are multiples of 1/8, so a non-Hermitian symbol is
non-Hermitian by far more than the 1e-10 tolerance, and both checks must
reach the same decision.
The matrix-free apply, the apply of its adjoint() and entry are checked
against the same matrix, and the uniform matrix of a Hermitian symbol is
exactly self-adjoint, which btoep.dpp.build_kernel relies on.  The
engine's apply at d = 2 and 3 is checked against op_valued_materialize
on random non-commuting tuples, with symbols that skip a coefficient
next to the diagonal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btoep.operators import (
    BranchingOperator,
    OperatorTuple,
    _Kernel,
    _spectral_norm,
    op_valued_materialize,
    toeplitz_dense,
)
from btoep.spectral import (
    _radial_lift,
    block_norms,
    certify_positive,
    norming_vector,
    radial_compress,
    singular_values,
)
from btoep.symbols import Symbol, SymbolClass, classify
from btoep.tree import TreeShape, vertex_from_index
from btoep.verify import _radial_split, random_unit_weights

ORACLE = settings(max_examples=60, deadline=None, derandomize=True, database=None)
MAX_VERTICES = 1000
COEFF = st.builds(lambda re, im: complex(re, im) / 8, st.integers(-8, 8), st.integers(-8, 8))


@st.composite
def operators(draw, hermitian=False, uniform=None):
    q = draw(st.integers(1, 5))
    n = draw(st.integers(0, 5).filter(lambda n: TreeShape(q, n).vertex_count <= MAX_VERTICES))
    radius = draw(st.integers(0, n + 1))
    coeffs = draw(st.dictionaries(st.integers(-radius, radius), COEFF))
    if hermitian:
        half = {k: c for k, c in coeffs.items() if k > 0}
        coeffs = {**half, **{-k: c.conjugate() for k, c in half.items()}, 0: complex(coeffs.get(0, 0).real)}
    f = Symbol(coeffs)
    if uniform is None:
        uniform = draw(st.booleans())
    if uniform:
        return BranchingOperator.uniform(q, n, f)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return BranchingOperator.with_weights(random_unit_weights(rng, q), n, f)


@st.composite
def tuple_kernels(draw):
    """A random (q, d, d) tuple with d > 1, a tree and a symbol of radius
    0..n+1; some symbols have h(±1) = 0 under a nonzero h(±2)."""
    d = draw(st.integers(2, 3))
    q = draw(st.integers(1, 4))
    n = draw(st.integers(0, 4))
    radius = draw(st.integers(0, n + 1))
    coeffs = draw(st.dictionaries(st.integers(-radius, radius), COEFF))
    if radius >= 2 and draw(st.booleans()):
        side = draw(st.sampled_from([1, -1]))
        coeffs[side] = 0
        coeffs[2 * side] = draw(COEFF.filter(lambda c: c != 0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = (rng.standard_normal((q, d, d)) + 1j * rng.standard_normal((q, d, d))) / np.sqrt(2 * q * d)
    return OperatorTuple(A), Symbol(coeffs), TreeShape(q, n)


@ORACLE
@given(operators())
def test_singular_values_match_dense_svd(op):
    s = singular_values(op)
    dense = np.linalg.svd(op.materialize(), compute_uv=False)
    assert s.shape == dense.shape
    assert np.all(np.diff(s) <= 0)
    assert np.abs(s - dense).max() <= 1e-12


@ORACLE
@given(st.booleans().flatmap(lambda h: operators(hermitian=h)))
def test_certify_positive_matches_dense(op):
    M = op.materialize()
    dense_defect = np.abs(M - M.conj().T).max()
    if dense_defect > 1e-10:
        with pytest.raises(ValueError, match="Hermitian") as exc:
            certify_positive(op)
        assert abs(float(str(exc.value).rsplit(" ", 1)[1]) - dense_defect) <= 1e-12
        return
    is_psd, min_eig = certify_positive(op)
    dense_eig = np.linalg.eigvalsh(M)[0]
    assert abs(min_eig - dense_eig) <= 1e-12
    assert is_psd == (dense_eig >= -1e-9)


@ORACLE
@given(operators(uniform=True))
def test_block_norms_match_the_dense_radial_split(op):
    got = block_norms(op)
    M = op.materialize()
    _, R, QMQ = _radial_split(M, op.shape)
    assert abs(got.radial - _spectral_norm(R)) <= 1e-12
    assert abs(got.complement - _spectral_norm(QMQ)) <= 1e-12
    assert abs(got.total - _spectral_norm(M)) <= 1e-12


@ORACLE
@given(operators())
def test_radial_routes_match_dense_on_both_weight_kinds(op):
    # verify._radial_split splits along the uniform radial basis only, so
    # the weighted complement is measured on the projector of the weighted one
    f, n = op.symbol, op.shape.depth
    assert np.abs(radial_compress(op) - toeplitz_dense(f, n)).max() <= 1e-12
    got = block_norms(op)
    M = op.materialize()
    dense = np.linalg.norm(M, 2)
    assert abs(got.radial - dense) <= 1e-12
    assert abs(got.total - dense) <= 1e-12
    E = np.stack([_radial_lift(op, c) for c in np.eye(op.shape.depth + 1)], axis=1)
    Q = np.eye(op.dim) - E @ E.conj().T
    assert abs(got.complement - np.linalg.norm(Q @ M @ Q, 2)) <= 1e-12


@ORACLE
@given(operators())
def test_norming_vector_attains_dense_norm(op):
    vec, achieved, is_radial = norming_vector(op)
    M = op.materialize()
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(M @ vec) - achieved) <= 1e-10
    assert abs(achieved - np.linalg.norm(M, 2)) <= 1e-10
    if op.uniform:
        assert is_radial


@pytest.mark.parametrize(
    "coeffs,n",
    [
        ({0: 1}, 3),  # every singular value ties
        ({-1: -0.6, 0: 0.8, 1: 0.6}, 1),  # the skew symbol
        ({-1: 1, 1: 1}, 2),  # T_2 has eigenvalues +-sqrt(2) and 0
    ],
)
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("uniform", [True, False])
def test_norming_vector_on_tied_tops(coeffs, n, q, uniform):
    f = Symbol(coeffs)
    if uniform:
        op = BranchingOperator.uniform(q, n, f)
    else:
        op = BranchingOperator.with_weights(random_unit_weights(np.random.default_rng(q), q), n, f)
    s = np.linalg.svd(toeplitz_dense(f, n), compute_uv=False)
    assert s[0] - s[1] <= 1e-12  # the top is tied
    vec, achieved, is_radial = norming_vector(op)
    M = op.materialize()
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-10
    assert abs(np.linalg.norm(M @ vec) - achieved) <= 1e-10
    assert abs(achieved - np.linalg.norm(M, 2)) <= 1e-10
    if uniform:
        assert is_radial


def _unit_vectors(seed: int, dim: int, count: int):
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return xs / np.linalg.norm(xs, axis=1, keepdims=True)


@ORACLE
@given(operators(hermitian=True, uniform=True))
def test_hermitian_uniform_matrix_is_exactly_self_adjoint(op):
    assert SymbolClass.HERMITIAN in classify(op.symbol)
    M = op.materialize()
    assert np.array_equal(M, M.conj().T)


@ORACLE
@given(operators(), st.integers(0, 2**32 - 1))
def test_apply_matches_dense(op, seed):
    (x,) = _unit_vectors(seed, op.dim, 1)
    assert np.abs(op.apply(x) - op.materialize() @ x).max() <= 1e-12


@ORACLE
@given(operators(), st.integers(0, 2**32 - 1))
def test_entry_matches_dense(op, seed):
    M = op.materialize()
    pairs = np.random.default_rng(seed).integers(0, op.dim, size=(min(64, op.dim**2), 2))
    for i, j in pairs:
        u, v = vertex_from_index(int(i), op.shape), vertex_from_index(int(j), op.shape)
        assert abs(op.entry(u, v) - M[i, j]) <= 1e-12


@ORACLE
@given(operators(), st.integers(0, 2**32 - 1))
def test_apply_adjoint_is_the_adjoint(op, seed):
    x, y = _unit_vectors(seed, op.dim, 2)
    assert abs(np.vdot(y, op.apply(x)) - np.vdot(op.adjoint().apply(y), x)) <= 1e-12


@ORACLE
@given(tuple_kernels(), st.integers(0, 2**32 - 1))
def test_engine_apply_matches_dense_above_d_one(kernel, seed):
    A, f, shape = kernel
    M = op_valued_materialize(A, f, shape)
    (x,) = _unit_vectors(seed, M.shape[0], 1)
    assert np.abs(_Kernel(A.matrices, shape, f).apply(x) - M @ x).max() <= 1e-12
