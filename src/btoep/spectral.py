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
(k+1) x (k+1) blocks: O(n^3) dense work plus O(N) output, with no dense
cap.  T_{k-1} is a principal submatrix of T_k, so by interlacing the
operator norm is ||T_n||, the complement of the radial block has norm
||T_{n-1}|| and a Hermitian operator's smallest eigenvalue is T_n's, so
each spectrum builds T_n once and solves its leading sections.
radial_compress applies M to the weighted radial columns in one stacked
product, and block_norms in chunks of columns within a fixed byte budget,
one column at a time at large N.

The dense matrix stays the independent oracle: operator_norm_dense is the
float top singular value of materialize(), the reference that the tests
and sup_branching_norm (on trees of up to SANDWICH_DENSE_ROWS vertices)
measure against, and radial_blocks measures the radial block structure of
any dense matrix for the verify suites.  operator_norm is a matrix-free
power iteration on x -> G* G x.  Its seeded start lies in the weighted
radial subspace, which M and M* leave invariant and which carries T_n, so
it converges at the rate (s_2(T_n) / ||T_n||)^2 of T_n alone, not at the
(||T_{n-1}|| / ||T_n||)^2 of a start with a complement part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import BranchingOperator, toeplitz_dense
from .symbols import Symbol

__all__ = [
    "SpectralReport",
    "operator_norm",
    "operator_norm_dense",
    "radial_basis",
    "radial_compress",
    "radial_blocks",
    "block_norms",
    "BlockNorms",
    "certify_positive",
    "singular_values",
    "norming_vector",
    "sup_branching_norm",
    "cn_sandwich",
]

POWER_SEED = 0x5EED
HERMITIAN_TOL = 1e-10
CROSS_BLOCK_TOL = 1e-12
RADIAL_TOL = 1e-8
NORM_TIE_TOL = 1e-10
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
    tol: float = 1e-10,
    max_iter: int = 10000,
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
        z = adjoint.apply(op.apply(x))
        new_lam = float(np.real(np.vdot(x, z)))
        znorm = np.linalg.norm(z)
        if znorm == 0.0:
            return SpectralReport(0.0, it, 0.0, True)
        change = abs(new_lam - lam) / max(abs(new_lam), np.finfo(float).tiny)
        lam = new_lam
        streak = streak + 1 if change < tol else 0
        if streak >= 3 or it == max_iter:
            residual = float(np.linalg.norm(z - lam * x) / max(lam, np.finfo(float).tiny))
            # a norm past the float range reads inf, not an OverflowError
            norm = float(np.ldexp(np.sqrt(max(lam, 0.0)), e))
            return SpectralReport(norm, it, residual, streak >= 3)
        x = z * (1.0 / znorm)  # the bits of z / znorm, which numpy scales by this reciprocal


def operator_norm_dense(op: BranchingOperator) -> float:
    """Operator norm from the dense SVD of the materialized matrix."""
    return float(np.linalg.svd(op.materialize(), compute_uv=False)[0])


def _block_spectrum(f: Symbol, shape, solve) -> np.ndarray:
    """solve(T_k) of each Toeplitz block T_k of the decomposition, repeated
    by its multiplicity, in one array; each T_k is the leading section of T_n."""
    q, n = shape.q, shape.depth
    T = toeplitz_dense(f, n)
    blocks = [(n, 1)] + [(n - j, (q - 1) * q ** (j - 1)) for j in range(1, n + 1) if q > 1]
    return np.concatenate([np.repeat(solve(T[: k + 1, : k + 1]), mult) for k, mult in blocks])


def singular_values(op: BranchingOperator) -> np.ndarray:
    """All singular values, descending: those of each block T_k, repeated
    by its multiplicity."""
    return -np.sort(-_block_spectrum(op.symbol, op.shape, lambda T: np.linalg.svd(T, compute_uv=False)))


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
        E = np.stack([_radial_lift(op, c) for c in np.eye(op.shape.depth + 1)], axis=1)
    # the images in np.stack(axis=1)'s row-major layout, so the product keeps its bits
    return E.conj().T @ np.ascontiguousarray(op.apply(E.T).T)


@dataclass(frozen=True)
class BlockNorms:
    radial: float
    complement: float
    total: float


def radial_blocks(M: np.ndarray, shape):
    """(cross, BlockNorms) of a dense matrix split along the radial subspace.

    cross is the largest entry of the off-diagonal blocks P M Q and Q M P,
    with P = H H^T the rank-(n+1) radial projector and Q = I - P; both are
    applied through H, never formed.
    """
    H = radial_basis(shape)
    A = H.T @ M  # (n+1, N)
    R = A @ H  # radial block in the h-basis
    QMP = (M @ H - H @ R) @ H.T
    cross = max(np.abs(H @ (A - R @ H.T)).max(), np.abs(QMP).max())
    QMQ = M - H @ A - QMP
    norms = BlockNorms(
        float(np.linalg.norm(R, 2)), float(np.linalg.norm(QMQ, 2)), float(np.linalg.norm(M, 2))
    )
    return float(cross), norms


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
    flat, sizes = _radial_lift(op, np.ones(n + 1))[None, :], np.diff(op.shape.generation_starts)
    adjoint = op.adjoint()
    step = max(1, CHECK_CHUNK_BYTES // (16 * op.dim))
    cross = 0.0
    for lo in range(0, n + 1, step):
        x = np.repeat(np.eye(n + 1)[lo : lo + step], sizes, axis=1) * flat
        for A, B in ((op, T), (adjoint, T.conj().T)):
            residual = A.apply(x)
            residual -= np.repeat(B[:, lo : lo + step].T, sizes, axis=1) * flat
            cross = max(cross, np.abs(residual).max())
    if cross > bound:
        raise AssertionError(f"cross block of size {cross} exceeds {bound}")
    radial = float(np.linalg.norm(T, 2))
    complement = float(np.linalg.norm(T[:n, :n], 2)) if op.shape.q > 1 and n > 0 else 0.0
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

    The block T_n attains the operator norm, so the vector is E w for a top
    right-singular vector w of T_n, with E the weighted radial basis whose
    generation-k column is the k-fold Kronecker power of the weights.  When
    the top singular value is degenerate (a 1e-10 tie window) w is the
    tied subspace's projection of the lowest-generation direction.
    is_radial tells whether the vector is constant on every generation.
    """
    n = op.shape.depth
    _, s, vh = np.linalg.svd(toeplitz_dense(op.symbol, n))
    achieved = float(s[0])
    w = vh[0].conj()
    ties = np.nonzero(s >= achieved - NORM_TIE_TOL)[0]
    if ties.size > 1:
        # degenerate top: prefer the lowest-generation direction
        basis = vh[ties].conj().T
        proj = basis @ basis.conj().T[:, 0]
        if np.linalg.norm(proj) > 1e-8:
            w = proj / np.linalg.norm(proj)
    vec = _radial_lift(op, w)
    starts = op.shape.generation_starts
    spread = max(np.abs(vec[lo:hi] - vec[lo]).max() for lo, hi in zip(starts, starts[1:]))
    return vec, achieved, bool(spread <= RADIAL_TOL)


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
        if op.dim <= SANDWICH_DENSE_ROWS:
            est = operator_norm_dense(op)
        else:
            est = operator_norm(op, tol=1e-10, max_iter=5000).norm_estimate
        sup = max(sup, est)
    return sup


def cn_sandwich(f: Symbol, n: int, q_max: int):
    """(toeplitz_norm, sup over q in [2, q_max] of the branching norm, ratio).

    The minimal sup-norm of any extension matching the first n coefficient
    pairs is sandwiched between the Toeplitz norm and three times it, and
    every branching norm is a lower bound for it.  This measures both
    sides; the cn_sandwich suite of btoep.verify judges the inequalities.
    """
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    t_norm = float(np.linalg.norm(toeplitz_dense(f, n), 2))
    sup = sup_branching_norm(f, n, q_max)
    ratio = sup / t_norm if t_norm > 0 else 1.0
    return t_norm, sup, ratio
