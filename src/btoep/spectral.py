"""Norms, spectra, radial compression, and positivity certificates.

The radial subspace (vectors constant on each generation) is invariant
under every uniform-weight branching-Toeplitz matrix; in the orthonormal
basis h_k = 1_{generation k} / q^(k/2) the compression is exactly the
classical Toeplitz matrix of the same symbol.  block_norms checks the
resulting two-block structure numerically, and norming_vector reports
whether the operator norm is attained on the radial part.

operator_norm is a matrix-free power iteration on x -> G* G x with a
deterministic seeded start; dense SVD routines serve as the independent
cross-check whenever the vertex count is under the dense cap.
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
BLOCK_MAX_TOL = 1e-9
RADIAL_TOL = 1e-8
NORM_TIE_TOL = 1e-10
SANDWICH_TOL = 1e-9
SANDWICH_DENSE_ROWS = 1024


class NormMethod(Enum):
    POWER_ITERATION = "PowerIteration"
    DENSE_EIG = "DenseEig"
    DENSE_SVD = "DenseSvd"


@dataclass(frozen=True)
class SpectralReport:
    norm_estimate: float
    iterations: int
    residual: float
    method: NormMethod
    converged: bool = True

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
    """Power iteration on x -> apply_adjoint(apply(x)); returns sqrt of the
    top eigenvalue estimate.

    Converged when the relative eigenvalue change stays below tol for three
    consecutive iterations; on non-convergence the report carries
    converged=False and the best estimate so far.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    rng = np.random.default_rng(seed)
    n = op.dim
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    lam = 0.0
    residual = np.inf
    streak = 0
    for it in range(1, max_iter + 1):
        z = op.apply_adjoint(op.apply(x))
        new_lam = float(np.real(np.vdot(x, z)))
        znorm = np.linalg.norm(z)
        if znorm == 0.0:
            return SpectralReport(0.0, it, 0.0, NormMethod.POWER_ITERATION, True)
        residual = float(np.linalg.norm(z - new_lam * x) / max(new_lam, np.finfo(float).tiny))
        change = abs(new_lam - lam) / max(abs(new_lam), np.finfo(float).tiny)
        lam = new_lam
        x = z / znorm
        streak = streak + 1 if change < tol else 0
        if streak >= 3:
            return SpectralReport(
                float(np.sqrt(max(lam, 0.0))), it, residual, NormMethod.POWER_ITERATION, True
            )
    return SpectralReport(
        float(np.sqrt(max(lam, 0.0))), max_iter, residual, NormMethod.POWER_ITERATION, False
    )


def operator_norm_dense(op: BranchingOperator) -> SpectralReport:
    """Dense SVD cross-check of the operator norm."""
    s = singular_values(op)
    top = float(s[0]) if s.size else 0.0
    return SpectralReport(top, 0, 0.0, NormMethod.DENSE_SVD, True)


def singular_values(op: BranchingOperator) -> np.ndarray:
    """All singular values, descending."""
    return np.linalg.svd(op.materialize(), compute_uv=False)


def radial_basis(shape) -> np.ndarray:
    """Columns h_k = 1_{generation k} / q^(k/2), an orthonormal family."""
    n = shape.depth
    H = np.zeros((shape.vertex_count, n + 1))
    starts = shape.generation_starts
    for k in range(n + 1):
        H[starts[k] : starts[k + 1], k] = shape.q ** (-k / 2)
    return H


def radial_compress(op: BranchingOperator) -> np.ndarray:
    """Compression to the radial subspace; equals the Toeplitz matrix of the
    symbol, entry for entry.

    Only the uniform-weight operator carries this identity, so non-uniform
    weights are refused.
    """
    if not op.uniform:
        raise ValueError("radial compression requires uniform weights")
    H = radial_basis(op.shape)
    images = np.stack([op.apply(H[:, l]) for l in range(H.shape[1])], axis=1)
    return H.T @ images


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
    """Norms of the restrictions to the radial subspace and its complement.

    Verifies the block structure on the way: cross blocks must vanish to
    1e-12 and the total norm must equal the larger block norm to 1e-9.
    """
    if not op.uniform:
        raise ValueError("block decomposition requires uniform weights")
    cross, norms = radial_blocks(op.materialize(), op.shape)
    if cross > CROSS_BLOCK_TOL:
        raise AssertionError(f"cross block of size {cross} exceeds {CROSS_BLOCK_TOL}")
    if abs(norms.total - max(norms.radial, norms.complement)) > BLOCK_MAX_TOL:
        raise AssertionError(f"total norm differs from max block norm: {norms}")
    return norms


def certify_positive(matrix_or_op, tol: float = 1e-9):
    """(is_psd, min_eigenvalue) of a Hermitian dense matrix or operator.

    The input must be Hermitian to 1e-10 entrywise; eigenvalues come from a
    dense Hermitian solve and is_psd means min eigenvalue >= -tol.
    """
    if isinstance(matrix_or_op, BranchingOperator):
        M = matrix_or_op.materialize()
    else:
        M = np.asarray(matrix_or_op, dtype=complex)
    herm_defect = np.abs(M - M.conj().T).max() if M.size else 0.0
    if herm_defect > HERMITIAN_TOL:
        raise ValueError(f"input is not Hermitian: defect {herm_defect}")
    eigs = np.linalg.eigvalsh(M)
    min_eig = float(eigs[0]) if eigs.size else 0.0
    return min_eig >= -tol, min_eig


def norming_vector(op: BranchingOperator):
    """(vector, achieved_norm, is_radial) for a top right-singular vector.

    When the radial block attains the operator norm (within a 1e-10 tie
    window) the returned vector is the radial candidate, so degenerate ties
    are reported through a radial witness.
    """
    M = op.materialize()
    H = radial_basis(op.shape)
    total = float(np.linalg.norm(M, 2))
    R = H.T @ M @ H
    _, s_rad, vh_rad = np.linalg.svd(R)
    radial_norm = float(s_rad[0]) if s_rad.size else 0.0
    if op.uniform and radial_norm >= total - NORM_TIE_TOL:
        w = vh_rad[0].conj()
        ties = np.nonzero(s_rad >= radial_norm - NORM_TIE_TOL)[0]
        if ties.size > 1:
            # degenerate top: prefer the lowest-generation direction
            basis = vh_rad[ties].conj().T
            proj = basis @ basis.conj().T[:, 0]
            if np.linalg.norm(proj) > 1e-8:
                w = proj / np.linalg.norm(proj)
        vec = H @ w
        achieved = radial_norm
    else:
        _, s, vh = np.linalg.svd(M)
        vec = vh[0].conj()
        achieved = float(s[0])
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
