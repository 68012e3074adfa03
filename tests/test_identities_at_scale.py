"""The structural identities on apply() at the sizes it runs.

materialize() stops at the dense cap of 4096 rows, yet the benchmark and
CI apply operators on trees of up to 1,048,575 vertices.  These tests
check, matrix-free at (q, n) = (2, 19), (3, 12) and (8, 6) and for uniform
and random unit weights, what the structured routes rest on: block_norms'
M E = E T_n, adjointness, interior multiplicativity, the truncated
isometry and one complement block per generation.  The symbols reach two
generations up and down, so both sides of apply and its Horner recursion
run.  Every error is bounded by TOL times sum |h(k)|, which bounds ||M||
for unit weights, and the size of the input: its largest entry for an
entrywise error, its 2-norm for an inner product.  btoep verify runs none
of this: its ten suites are its output.
"""

import numpy as np
import pytest

from btoep.operators import BranchingOperator, toeplitz_dense
from btoep.spectral import block_norms
from btoep.symbols import Symbol, poly_product
from btoep.verify import random_unit_weights

# about 45 unit roundoffs; the largest error seen was 3.8e-16, in the
# complement check at (2, 19)
TOL = 1e-14
F = Symbol({-2: 0.1 - 0.05j, -1: 0.3 + 0.1j, 0: 0.5, 1: 0.25, 2: 0.1j})
ANALYTIC = Symbol({0: 0.5, 1: 0.3 - 0.2j, 2: 0.1})
SHIFT = Symbol({1: 1})
CASES = [(q, n, weighted) for q, n in ((2, 19), (3, 12), (8, 6)) for weighted in (False, True)]
IDS = [f"q{q}-n{n}-{'weighted' if weighted else 'uniform'}" for q, n, weighted in CASES]
at_scale = pytest.mark.parametrize("q, n, weighted", CASES, ids=IDS)


def make(q, n, weighted, f=F):
    if weighted:
        return BranchingOperator.with_weights(random_unit_weights(np.random.default_rng(q * 100 + n), q), n, f)
    return BranchingOperator.uniform(q, n, f)


def abs_sum(f: Symbol) -> float:
    return sum(abs(c) for c in f.coeffs.values())


def random_vector(rng, length):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


@at_scale
def test_block_norms(q, n, weighted):
    # block_norms raises unless M E = E T_n and M^* E = E T_n^* hold
    bn = block_norms(make(q, n, weighted))
    assert bn.radial == np.linalg.norm(toeplitz_dense(F, n), 2)
    assert bn.complement == np.linalg.norm(toeplitz_dense(F, n - 1), 2)


@at_scale
def test_adjointness(q, n, weighted):
    # <M x, y> = <x, M^* y>: each side sums N products, so the bound is
    # taken in the 2-norms of x and y
    op = make(q, n, weighted)
    rng = np.random.default_rng(n)
    x, y = random_vector(rng, op.dim), random_vector(rng, op.dim)
    gap = abs(np.vdot(y, op.apply(x)) - np.vdot(op.adjoint().apply(y), x))
    assert gap <= TOL * abs_sum(F) * np.linalg.norm(x) * np.linalg.norm(y)


@at_scale
def test_interior_multiplicativity(q, n, weighted):
    # M_P M_Q x = M_{PQ} x for Q analytic and x on the generations <= n - deg Q,
    # where M_Q x loses nothing past the last generation
    P, Q, PQ = (make(q, n, weighted, f) for f in (F, ANALYTIC, poly_product(F, ANALYTIC)))
    x = np.zeros(P.dim, dtype=complex)
    cut = P.shape.generation_start(n - ANALYTIC.support_radius + 1)
    x[:cut] = random_vector(np.random.default_rng(n + 1), cut)
    err = np.abs(P.apply(Q.apply(x)) - PQ.apply(x)).max()
    assert err <= TOL * abs_sum(F) * abs_sum(ANALYTIC) * np.abs(x).max()


@at_scale
def test_truncated_isometry(q, n, weighted):
    # S^* S x = x for the down-shift S and x off the last generation
    S = make(q, n, weighted, SHIFT)
    x = np.zeros(S.dim, dtype=complex)
    cut = S.shape.generation_start(n)
    x[:cut] = random_vector(np.random.default_rng(n + 2), cut)
    assert np.abs(S.adjoint().apply(S.apply(x)) - x).max() <= TOL * np.abs(x).max()


def contrast_lift(op, j, offset, c, w):
    """The vector under vertex `offset` of generation j whose generation
    j + 1 + i holds w[i] times kron(c, a^(x)i): child k's subtree carries
    c[k] times the weighted radial vector of profile w."""
    starts = op.shape.generation_starts
    z = np.zeros(op.dim, dtype=complex)
    branch = c
    for i, wi in enumerate(w):
        lo = starts[j + 1 + i] + offset * branch.size
        z[lo : lo + branch.size] = wi * branch
        branch = np.kron(branch, op.weights)
    return z


@at_scale
def test_complement_blocks(q, n, weighted):
    # one sibling contrast c with sum_k conj(a_k) c_k = 0 per generation j,
    # lifted with profile w, maps to the lift with profile T_{n-j-1} w: the
    # block T_{n-j-1} of the decomposition, checked on a random vertex
    op = make(q, n, weighted)
    a = op.weights
    rng = np.random.default_rng(n + 3)
    for j in range(n):
        c = random_vector(rng, q)
        c -= a * np.vdot(a, c)
        w = random_vector(rng, n - j)
        offset = int(rng.integers(q**j))
        z = contrast_lift(op, j, offset, c, w)
        expected = contrast_lift(op, j, offset, c, toeplitz_dense(F, n - j - 1) @ w)
        assert np.abs(op.apply(z) - expected).max() <= TOL * abs_sum(F) * np.abs(z).max(), j
