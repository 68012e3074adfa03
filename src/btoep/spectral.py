"""Norms, spectra, block structure and positivity certificates.

A truncated branching-Toeplitz operator of arity q and depth n is unitarily
equivalent, for every unit weight vector a, to the direct sum

    T_n + T_{n-1} x (q-1) + T_{n-2} x (q-1)q + ... + T_0 x (q-1)q^(n-1)

of classical Toeplitz matrices T_k = [h(i - j)], i, j = 0..k.  The unitary
is a Haar-type wavelet on the tree: T_n acts on the weighted radial vectors
(the generation-k one is the k-fold Kronecker power of a, for uniform
weights 1_{generation k} / q^(k/2)), and each later copy on the radial
vectors of one child subtree mixed by a sibling contrast c with
sum_j conj(a_j) c_j = 0.  singular_values, certify_positive, block_norms
and norming_vector therefore take an operator and solve only its
(k+1) x (k+1) blocks, with no dense cap: O(n^3) dense work plus O(N)
output, plus for block_norms the 2(n+1) matrix-free products of its
block-theorem check, O(nN) work (about 0.58 s at (q, n) = (2, 19)).  A
spectrum sorts its (n+1)(n+2)/2 block values, then repeats each by its
multiplicity, so its N values are never sorted.  T_{k-1} is a principal
submatrix of T_k, so by interlacing the operator norm is ||T_n||, the
complement of the radial block has norm ||T_{n-1}|| and a Hermitian
operator's smallest eigenvalue is T_n's, so each spectrum builds T_n
once and solves its leading sections.
radial_compress applies M to the weighted radial columns in one stacked
product, and block_norms in chunks of columns within a fixed byte budget,
one column at a time at large N.

Every dense 2-norm is operators._spectral_norm, the top of one bare SVD.  The
dense matrix stays the independent oracle: operator_norm_dense is the 2-norm
of materialize(), the reference that the tests and sup_branching_norm (on
trees of up to SANDWICH_DENSE_ROWS vertices) measure against.  operator_norm
is a matrix-free power iteration on x -> G* G x.  Its seeded start lies in
the weighted radial subspace, which M and M* leave invariant and which
carries T_n, so it converges at the rate (s_2(T_n) / ||T_n||)^2 of T_n
alone, not at the (||T_{n-1}|| / ||T_n||)^2 of a start with a complement
part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import BranchingOperator, _spectral_norm, toeplitz_dense
from .symbols import Symbol

__all__ = [
    "SpectralReport",
    "operator_norm",
    "operator_norm_dense",
    "radial_basis",
    "radial_compress",
    "block_norms",
    "BlockNorms",
    "certify_positive",
    "singular_values",
    "norming_vector",
    "sup_branching_norm",
    "cn_sandwich",
]

POWER_SEED = 0x5EED
POWER_TOL = 1e-10
POWER_MAX_ITER = 10000
HERMITIAN_TOL = 1e-10
CROSS_BLOCK_TOL = 1e-12
RADIAL_TOL = 1e-8
SANDWICH_DENSE_ROWS = 1024
# bytes of lifted columns per stacked product in block_norms' check
CHECK_CHUNK_BYTES = 2**18


@dataclass(frozen=True)
class SpectralReport:
    norm_estimate: float
    iterations: int
    residual: float
    converged: bool


def operator_norm(
    op: BranchingOperator,
    tol: float = POWER_TOL,
    max_iter: int = POWER_MAX_ITER,
    seed: int = POWER_SEED,
) -> SpectralReport:
    """Power iteration on x -> M^* M x, M^* = op.adjoint() built once;
    returns sqrt of the top eigenvalue estimate.

    The start is the weighted radial vector of a seeded complex (n+1)-vector
    c, generation k holding c[k] times the k-fold Kronecker power of the
    weights.  The iteration stays in that subspace, whose block T_n attains
    the operator norm.  Converged when the relative eigenvalue change stays
    below tol for three consecutive iterations; on non-convergence the
    report carries converged=False and the best estimate so far.  Either
    way the residual is ||z - lam x|| / lam of the last iterate x, with z
    its image.

    The loop runs on 2^(-e) M, with 2^e just above the largest real or
    imaginary part of the coefficients h(k), |k| <= n, and scales the
    estimate back by 2^e: power-of-two scaling is exact, and M^* M then
    neither overflows nor underflows whatever the scale of the symbol.

    An iteration holds x and M x, which M^*'s apply overwrites with
    M^* M x, plus that apply's last Horner level and first descendant sum,
    N / q rows each: about 2 + 2/q complex N-vectors at its peak, and one
    more for weighted operators, whose last Horner step takes an N-row
    product.  The residual is taken in x's storage.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    rng = np.random.default_rng(seed)
    n = op.shape.depth
    r = min(n, op.symbol.support_radius)
    h = {k: op.symbol.coeff(k) for k in range(-r, r + 1)}
    e = math.frexp(max(max(abs(c.real), abs(c.imag)) for c in h.values()))[1]
    op = BranchingOperator(
        op.weights, op.shape, Symbol({k: complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e)) for k, c in h.items()})
    )
    x = _radial_lift(op, rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
    x /= np.linalg.norm(x)
    adjoint = op.adjoint()
    lam = 0.0
    streak = 0
    for it in range(1, max_iter + 1):
        # M x is dead once M^* reads it: M^* M x is written over it
        y = op.apply(x)
        z = adjoint.apply(y, out=y)
        new_lam = float(np.real(np.vdot(x, z)))
        znorm = np.linalg.norm(z)
        if znorm == 0.0:
            return SpectralReport(0.0, it, 0.0, True)
        change = abs(new_lam - lam) / max(abs(new_lam), np.finfo(float).tiny)
        lam = new_lam
        streak = streak + 1 if change < tol else 0
        if streak >= 3 or it == max_iter:
            # in x's own storage, dead by now: a subtraction rounds once, as in z - lam * x
            r = np.multiply(lam, x, out=x)
            residual = float(np.linalg.norm(np.subtract(z, r, out=r)) / max(lam, np.finfo(float).tiny))
            # a norm past the float range reads inf, not an OverflowError
            norm = float(np.ldexp(np.sqrt(max(lam, 0.0)), e))
            return SpectralReport(norm, it, residual, streak >= 3)
        # in place, and z / znorm's bits in 1.1 ms, not its 2.6 ms, at 2^20 complex entries
        x = np.multiply(z, 1.0 / znorm, out=z)


def operator_norm_dense(op: BranchingOperator) -> float:
    """Operator norm from the dense SVD of the materialized matrix."""
    return _spectral_norm(op.materialize())


def _block_spectrum(f: Symbol, shape, solve) -> np.ndarray:
    """solve(T_k) of each Toeplitz block T_k of the decomposition, ascending,
    each value repeated by its block's multiplicity; each T_k is the leading
    section of T_n.  Only the (n+1)(n+2)/2 block values are sorted, stably."""
    n, sizes = shape.depth, shape.generation_sizes
    T = toeplitz_dense(f, n)
    # T_{n-j} occurs sizes[j] - sizes[j-1] times, sizes[-1] read as 0: never past j = 0 on a path
    blocks = [(n - j, b - a) for j, (a, b) in enumerate(zip((0, *sizes), sizes)) if b > a]
    values = np.concatenate([solve(T[: k + 1, : k + 1]) for k, _ in blocks])
    mults = np.repeat([mult for _, mult in blocks], [k + 1 for k, _ in blocks])
    order = np.argsort(values, kind="stable")
    return np.repeat(values[order], mults[order])


def singular_values(op: BranchingOperator) -> np.ndarray:
    """All singular values, descending: those of each block T_k, repeated
    by its multiplicity."""
    return _block_spectrum(op.symbol, op.shape, lambda T: np.linalg.svd(T, compute_uv=False))[::-1]


def radial_basis(shape) -> np.ndarray:
    """Columns h_k = 1_{generation k} / q^(k/2), an orthonormal family."""
    n = shape.depth
    H = np.zeros((shape.vertex_count, n + 1))
    starts = shape.generation_starts
    for k in range(n + 1):
        H[starts[k] : starts[k + 1], k] = shape.q ** (-k / 2)
    return H


def radial_compress(op: BranchingOperator) -> np.ndarray:
    """Compression E^* M E to the weighted radial subspace, from one stacked
    product of M with the n+1 columns; equals the Toeplitz matrix of the symbol."""
    if op.uniform:  # the exact q^(-k/2) of the uniform kernel: btoep verify prints this residual
        E = radial_basis(op.shape)
    else:
        # one Kronecker chain, as in block_norms; a transposed (n+1, N) build changes bits
        n, sizes = op.shape.depth, op.shape.generation_sizes
        E = np.repeat(np.eye(n + 1), sizes, axis=0) * _radial_lift(op, np.ones(n + 1))[:, None]
    return E.conj().T @ op.apply(E.T).T


@dataclass(frozen=True)
class BlockNorms:
    radial: float
    complement: float
    total: float


def block_norms(op: BranchingOperator) -> BlockNorms:
    """Norms of the restrictions to the radial subspace, ||T_n||, and to its
    complement, ||T_{n-1}|| (0 when q = 1 or n = 0); total is the larger.

    Checks the block theorem they rest on, M E = E T_n and M^* E = E T_n^*
    on the weighted radial basis E, to CROSS_BLOCK_TOL sum_{|k| <= n} |h(k)|,
    a bound on ||M||.  The lifted columns go through one stacked product per
    side in chunks of CHECK_CHUNK_BYTES, one column at a time at large N, so
    the check holds O(N) memory.
    """
    f, n = op.symbol, op.shape.depth
    T = toeplitz_dense(f, n)
    bound = CROSS_BLOCK_TOL * (np.abs(T[:, 0]).sum() + np.abs(T[0, 1:]).sum())
    # E c is np.repeat(c, sizes) times E 1, whose generation k is the k-fold
    # Kronecker power; E 1 is a (1, N) row, so a one-column chunk's repeated
    # image has its shape and numpy multiplies into it in place
    flat, sizes = _radial_lift(op, np.ones(n + 1))[None, :], op.shape.generation_sizes
    adjoint = op.adjoint()
    step = max(1, CHECK_CHUNK_BYTES // (16 * op.dim))
    cross = 0.0
    for lo in range(0, n + 1, step):
        x = np.repeat(np.eye(n + 1)[lo : lo + step], sizes, axis=1) * flat
        for A, B in ((op, T), (adjoint, T.conj().T)):
            residual = A.apply(x)
            residual -= np.repeat(B[:, lo : lo + step].T, sizes, axis=1) * flat
            cross = np.maximum(cross, np.abs(residual).max())
    if not cross <= bound:
        raise AssertionError(f"cross block of size {cross} exceeds {bound}")
    radial = _spectral_norm(T)
    complement = _spectral_norm(T[:n, :n]) if op.shape.q > 1 and n > 0 else 0.0
    return BlockNorms(radial, complement, max(radial, complement))


def certify_positive(op: BranchingOperator, tol: float = 1e-9):
    """(is_psd, min_eigenvalue) of a Hermitian operator.

    The operator must be Hermitian to 1e-10 entrywise and is_psd means min
    eigenvalue >= -tol.  The largest entry of M - M^* between vertices m
    generations apart is |h(m) - conj(h(-m))| max_i |a_i|^m.  Every block
    T_k is a principal submatrix of T_n, so by interlacing the smallest
    eigenvalue is that of T_n.
    """
    f, shape = op.symbol, op.shape
    amax = float(np.abs(op.weights).max())
    herm_defect = max(abs(f.coeff(m) - f.coeff(-m).conjugate()) * amax**m for m in range(shape.depth + 1))
    if herm_defect > HERMITIAN_TOL:
        raise ValueError(f"input is not Hermitian: defect {herm_defect}")
    min_eig = float(np.linalg.eigvalsh(toeplitz_dense(f, shape.depth))[0])
    return min_eig >= -tol, min_eig


def _radial_lift(op: BranchingOperator, c: np.ndarray) -> np.ndarray:
    """The N-vector whose generation k is c[k] times the k-fold Kronecker
    power of the weights, written in place generation by generation."""
    starts = op.shape.generation_starts
    vec = np.empty(op.dim, dtype=complex)
    column = np.ones(1, dtype=complex)
    np.multiply(c[0], column, out=vec[:1])
    for k in range(1, op.shape.depth + 1):
        # the operands np.kron multiplies, without its per-call overhead; a
        # 1-D weights operand would change bits at q = 1
        column = (column[:, None] * op.weights[None, :]).ravel()
        np.multiply(c[k], column, out=vec[starts[k] : starts[k + 1]])
    return vec


def norming_vector(op: BranchingOperator):
    """(vector, achieved_norm, is_radial) for a top right-singular vector.

    The block T_n attains the operator norm, so the vector is E w for the
    top right-singular vector w of T_n that LAPACK returns, with E the
    weighted radial basis whose generation-k column is the k-fold Kronecker
    power of the weights; any w gives a vector in the weighted radial
    subspace, tied top or not.  is_radial tells whether the vector is
    constant on every generation.
    """
    _, s, vh = np.linalg.svd(toeplitz_dense(op.symbol, op.shape.depth))
    vec = _radial_lift(op, vh[0].conj())
    starts = op.shape.generation_starts
    spread = max(np.abs(vec[lo:hi] - vec[lo]).max() for lo, hi in zip(starts, starts[1:]))
    return vec, float(s[0]), bool(spread <= RADIAL_TOL)


def sup_branching_norm(f: Symbol, n: int, q_max: int) -> float:
    """sup over q in [2, q_max] of the uniform-weight branching norm.

    The row count alone picks the algorithm: trees of up to
    SANDWICH_DENSE_ROWS vertices use the dense SVD, which raises
    DenseCapError over the dense cap like every dense step; larger trees
    fall back to the matrix-free power iteration, whose estimate approaches
    the norm from below and therefore cannot fake a sandwich violation on
    either side (the small-q dense values already anchor the lower bound).
    """
    sup = 0.0
    for q in range(2, q_max + 1):
        op = BranchingOperator.uniform(q, n, f)
        est = operator_norm_dense(op) if op.dim <= SANDWICH_DENSE_ROWS else operator_norm(op).norm_estimate
        sup = np.maximum(sup, est)
    return float(sup)


def cn_sandwich(f: Symbol, n: int, q_max: int):
    """(toeplitz_norm, sup over q in [2, q_max] of the branching norm, ratio).

    The minimal sup-norm of any extension matching the first n coefficient
    pairs is sandwiched between the Toeplitz norm and three times it, and
    every branching norm is a lower bound for it.  This measures both
    sides; the cn_sandwich suite of btoep.verify judges the inequalities.
    """
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    t_norm = _spectral_norm(toeplitz_dense(f, n))
    sup = sup_branching_norm(f, n, q_max)
    ratio = sup / t_norm if t_norm > 0 else 1.0
    return t_norm, sup, ratio
