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
and norming_vector therefore solve only the (k+1) x (k+1) blocks: O(n^3)
dense work plus O(N) output, with no dense cap.  T_{k-1} is a principal
submatrix of T_k, so by interlacing the operator norm is ||T_n|| and the
complement of the radial block has norm ||T_{n-1}||.

The dense matrix stays the independent oracle: operator_norm_dense is the
SVD of materialize(), the reference that sup_branching_norm and the tests
measure against, and radial_blocks measures the radial block structure of
any dense matrix for the verify suites.  operator_norm is a matrix-free
power iteration on x -> G* G x.  Its seeded start lies in the weighted
radial subspace, which M and M* leave invariant and which carries T_n, so
it converges at the rate (s_2(T_n) / ||T_n||)^2 of T_n alone, not at the
(||T_{n-1}|| / ||T_n||)^2 of a start with a complement part: 92 steps
instead of 1236 at (q, n) = (2, 14) on {0: .5, +-1: .25, +-2: .1}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .operators import BranchingOperator, dense_cap, toeplitz_dense
from .symbols import Symbol

__all__ = [
    "NormMethod",
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
SANDWICH_TOL = 1e-9
SANDWICH_DENSE_ROWS = 1024


class NormMethod(Enum):
    POWER_ITERATION = "PowerIteration"
    DENSE_SVD = "DenseSvd"


@dataclass(frozen=True)
class SpectralReport:
    norm_estimate: float
    iterations: int
    residual: float
    method: NormMethod
    converged: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "norm": self.norm_estimate,
                "method": self.method.value,
                "iterations": self.iterations,
                "residual": self.residual,
            }
        )


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
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    rng = np.random.default_rng(seed)
    n = op.shape.depth
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
            return SpectralReport(0.0, it, 0.0, NormMethod.POWER_ITERATION, True)
        change = abs(new_lam - lam) / max(abs(new_lam), np.finfo(float).tiny)
        lam = new_lam
        streak = streak + 1 if change < tol else 0
        if streak >= 3 or it == max_iter:
            residual = float(np.linalg.norm(z - lam * x) / max(lam, np.finfo(float).tiny))
            return SpectralReport(
                float(np.sqrt(max(lam, 0.0))), it, residual, NormMethod.POWER_ITERATION, streak >= 3
            )
        x = z * (1.0 / znorm)  # the bits of z / znorm, which numpy scales by this reciprocal


def operator_norm_dense(op: BranchingOperator) -> SpectralReport:
    """Operator norm from the dense SVD of the materialized matrix."""
    s = np.linalg.svd(op.materialize(), compute_uv=False)
    return SpectralReport(float(s[0]), 0, 0.0, NormMethod.DENSE_SVD, True)


def _block_spectrum(f: Symbol, shape, solve) -> np.ndarray:
    """solve(T_k) of each Toeplitz block T_k of the decomposition, repeated
    by its multiplicity, in one array."""
    q, n = shape.q, shape.depth
    blocks = [(n, 1)] + [(n - j, (q - 1) * q ** (j - 1)) for j in range(1, n + 1) if q > 1]
    return np.concatenate([np.repeat(solve(toeplitz_dense(f, k)), mult) for k, mult in blocks])


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


def _radial_images(op: BranchingOperator, what: str):
    """(H, M H, H^T M H) from n+1 products with M on the radial basis H.

    Only the uniform-weight operator carries the radial identities on H,
    so non-uniform weights are refused.
    """
    if not op.uniform:
        raise ValueError(f"{what} requires uniform weights")
    H = radial_basis(op.shape)
    MH = np.stack([op.apply(h) for h in H.T], axis=1)
    return H, MH, H.T @ MH


def radial_compress(op: BranchingOperator) -> np.ndarray:
    """Compression to the radial subspace; equals the Toeplitz matrix of the
    symbol, entry for entry.  Non-uniform weights are refused."""
    return _radial_images(op, "radial compression")[2]


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

    Verifies the block structure on the way: the cross blocks P M Q and
    Q M P that radial_blocks measures, here from n+1 products with M and
    n+1 with M^*, must vanish to 1e-12.
    """
    H, MH, R = _radial_images(op, "block decomposition")
    adjoint = op.adjoint()
    A = np.stack([adjoint.apply(h) for h in H.T]).conj()  # H^T M
    # column k of H holds the single value q^(-k/2), so the largest entry
    # of H X is max_k q^(-k/2) max|X[k]| and that of Y H^T is read likewise
    c = H.max(axis=0)
    cross = max((c[:, None] * np.abs(A - R @ H.T)).max(), (np.abs(MH - H @ R) * c).max())
    if cross > CROSS_BLOCK_TOL:
        raise AssertionError(f"cross block of size {cross} exceeds {CROSS_BLOCK_TOL}")
    f, n = op.symbol, op.shape.depth
    radial = float(np.linalg.norm(toeplitz_dense(f, n), 2))
    complement = float(np.linalg.norm(toeplitz_dense(f, n - 1), 2)) if op.shape.q > 1 and n > 0 else 0.0
    return BlockNorms(radial, complement, max(radial, complement))


def certify_positive(matrix_or_op, tol: float = 1e-9):
    """(is_psd, min_eigenvalue) of a Hermitian dense matrix or operator.

    The input must be Hermitian to 1e-10 entrywise and is_psd means min
    eigenvalue >= -tol.  A dense matrix gets a dense Hermitian solve.  For
    an operator the largest entry of M - M^* between vertices m generations
    apart is |h(m) - conj(h(-m))| max_i |a_i|^m, and the eigenvalues are
    those of the blocks T_k.
    """
    if isinstance(matrix_or_op, BranchingOperator):
        f, shape = matrix_or_op.symbol, matrix_or_op.shape
        amax = float(np.abs(matrix_or_op.weights).max())
        herm_defect = max(abs(f.coeff(m) - f.coeff(-m).conjugate()) * amax**m for m in range(shape.depth + 1))
        spectrum = lambda: _block_spectrum(f, shape, np.linalg.eigvalsh)
    else:
        M = np.asarray(matrix_or_op, dtype=complex)
        herm_defect = np.abs(M - M.conj().T).max() if M.size else 0.0
        spectrum = lambda: np.linalg.eigvalsh(M)
    if herm_defect > HERMITIAN_TOL:
        raise ValueError(f"input is not Hermitian: defect {herm_defect}")
    eigs = spectrum()
    min_eig = float(eigs.min()) if eigs.size else 0.0
    return min_eig >= -tol, min_eig


def _radial_lift(op: BranchingOperator, c: np.ndarray) -> np.ndarray:
    """The N-vector whose generation k is c[k] times the k-fold Kronecker
    power of the weights, written in place generation by generation."""
    starts = op.shape.generation_starts
    vec = np.empty(op.dim, dtype=complex)
    column = np.ones(1, dtype=complex)
    np.multiply(c[0], column, out=vec[:1])
    for k in range(1, op.shape.depth + 1):
        column = np.kron(column, op.weights)
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
    H = radial_basis(op.shape)
    resid = np.linalg.norm(vec - H @ (H.T @ vec))
    return vec, achieved, bool(resid <= RADIAL_TOL)


def sup_branching_norm(f: Symbol, n: int, q_max: int) -> float:
    """sup over q in [2, q_max] of the uniform-weight branching norm.

    Vertex counts up to SANDWICH_DENSE_ROWS (and the dense cap) use the
    dense SVD; larger trees fall back to the matrix-free power iteration,
    whose estimate approaches the norm from below and therefore cannot
    fake a sandwich violation on either side (the small-q dense values
    already anchor the lower bound).
    """
    sup = 0.0
    for q in range(2, q_max + 1):
        op = BranchingOperator.uniform(q, n, f)
        if op.dim <= min(SANDWICH_DENSE_ROWS, dense_cap()):
            est = operator_norm_dense(op).norm_estimate
        else:
            est = operator_norm(op, tol=1e-10, max_iter=5000).norm_estimate
        sup = max(sup, est)
    return sup


def cn_sandwich(f: Symbol, n: int, q_max: int):
    """(toeplitz_norm, sup over q in [2, q_max] of the branching norm, ratio).

    The minimal sup-norm of any extension matching the first n coefficient
    pairs is sandwiched between the Toeplitz norm and three times it, and
    every branching norm is a lower bound for it; those inequalities are
    asserted here (tolerance 1e-9).
    """
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    t_norm = float(np.linalg.norm(toeplitz_dense(f, n), 2))
    sup = sup_branching_norm(f, n, q_max)
    if not (t_norm - SANDWICH_TOL <= sup <= 3 * t_norm + SANDWICH_TOL):
        raise AssertionError(
            f"sandwich violated: toeplitz={t_norm}, sup branching={sup}"
        )
    ratio = sup / t_norm if t_norm > 0 else 1.0
    return t_norm, sup, ratio
