"""The block-decomposition routes of btoep.spectral against the dense oracle.

singular_values, certify_positive, block_norms and norming_vector solve
only the Toeplitz blocks T_k.  Each is checked here against a dense solve
of materialize() on random (q, n, weights, symbol), q = 1, n = 0, the
empty symbol and support radius above n included.  Coefficients are
multiples of 1/8, so a non-Hermitian symbol is non-Hermitian by far more
than the 1e-10 tolerance, and both checks must reach the same decision.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btoep.operators import BranchingOperator
from btoep.spectral import (
    block_norms,
    certify_positive,
    norming_vector,
    radial_blocks,
    singular_values,
)
from btoep.symbols import Symbol
from btoep.tree import TreeShape
from btoep.verify import random_unit_weights

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
    assert is_psd == certify_positive(M)[0]


@ORACLE
@given(operators(uniform=True))
def test_block_norms_match_radial_blocks(op):
    got = block_norms(op)
    _, expected = radial_blocks(op.materialize(), op.shape)
    assert abs(got.radial - expected.radial) <= 1e-12
    assert abs(got.complement - expected.complement) <= 1e-12
    assert abs(got.total - expected.total) <= 1e-12


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
