"""Randomized verification suites for the structural identities.

Each suite draws seeded random symbols, measures the residual of one
identity over a fixed (q, n) sweep, and reports pass/fail against the
fixed tolerance for that identity.  The CLI runs them all and maps any
failure to a nonzero exit.  fuzz=True, the negative control, adds 1e-3 to
M[0, -1] of a measured matrix (cn_sandwich: scales ||T_n|| by 1 + 1e-3),
and every suite that takes it then fails; fejer_positivity takes none.

Every suite sweeps q over (2, 3) and n over a fixed range: radial
compression n = 1..6, block decomposition and positivity 1..5, case
equalities 2..5, isometry and weighted equivalence 1..4, and
multiplicativity n = 5 alone; cn_sandwich draws n from 1..4 and takes the
sup over q = 2..5.  Only seed, trials, fuzz and case are settable.

The block suite's split of a dense matrix along the radial subspace,
_radial_split, lives here beside it: no other module runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import BranchingOperator, _spectral_norm, toeplitz_dense
from .spectral import cn_sandwich, radial_basis, radial_compress, singular_values
from .symbols import Symbol, fejer_kernel, poly_product

__all__ = [
    "SuiteResult",
    "random_symbol",
    "random_unit_weights",
    "run_radial_compression",
    "run_block_decomposition",
    "run_case_equalities",
    "run_multiplicativity",
    "run_isometry",
    "run_positivity",
    "run_weighted_equivalence",
    "run_cn_sandwich",
    "run_all",
]

DEFAULT_QS = (2, 3)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


def random_symbol(rng: np.random.Generator, radius: int, case: str | None = None) -> Symbol:
    """Random symbol of the given support radius, optionally in class A1/A2/A3."""

    def z():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    if case is None:
        return Symbol({k: z() for k in range(-radius, radius + 1)})
    if case == "A1":
        return Symbol({k: rng.uniform(0, 1) for k in range(-radius, radius + 1)})
    if case == "A2":
        coeffs = {0: complex(rng.uniform(-1, 1))}
        for k in range(1, radius + 1):
            c = z()
            coeffs[k] = c
            coeffs[-k] = c.conjugate()
        return Symbol(coeffs)
    if case == "A3":
        return Symbol({k: z() for k in range(0, radius + 1)})
    raise ValueError(f"unknown symbol class {case!r}")


def random_unit_weights(rng: np.random.Generator, q: int) -> np.ndarray:
    w = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    return w / np.linalg.norm(w)


def _maybe_fuzz(M: np.ndarray, fuzz: bool) -> np.ndarray:
    if fuzz:
        M = M.copy()
        M[0, -1] += 1e-3
    return M


def _verdict(name: str, residuals, tol: float) -> SuiteResult:
    """Passes iff max(0.0, *residuals) <= tol; np.max keeps a NaN, which fails."""
    worst = float(np.max([0.0, *residuals]))
    return SuiteResult(name, worst <= tol, worst, tol)


def _cases(rng: np.random.Generator, trials: int, ns, case: str | None = None):
    """Yield (q, n, f, uniform operator) for each trial, q in DEFAULT_QS and n in ns.

    Lazy: f (support radius 1..n) is drawn as its case is reached, so a suite
    may draw from rng between cases."""
    for _ in range(trials):
        for q in DEFAULT_QS:
            for n in ns:
                f = random_symbol(rng, rng.integers(1, n + 1), case)
                yield q, n, f, BranchingOperator.uniform(q, n, f)


def run_radial_compression(seed=0, trials=20, fuzz=False) -> SuiteResult:
    """Radial compression reproduces the Toeplitz matrix entry for entry."""
    residuals = []
    for _, n, f, op in _cases(np.random.default_rng(seed), trials, range(1, 7)):
        C = _maybe_fuzz(radial_compress(op), fuzz)
        residuals.append(np.abs(C - toeplitz_dense(f, n)).max())
    return _verdict("radial_compression", residuals, 1e-12)


def _radial_split(M: np.ndarray, shape):
    """(cross, R, QMQ) of a dense matrix split along the radial subspace, no SVD.

    cross is the largest entry of the off-diagonal blocks P M Q and Q M P,
    with P = H H^T the radial projector and Q = I - P; R is the radial block
    in the h-basis and QMQ the complement.  Row v of H is s[k] e_k in v's
    generation k, so H X and X H^T repeat s X's rows and X s's columns exactly.
    """
    H = radial_basis(shape)
    s, sizes = H.max(axis=0), shape.generation_sizes
    A = H.T @ M  # (n+1, N)
    R = A @ H
    QMH = (M @ H - H @ R) * s  # Q M P's columns, one per generation
    cross = max(np.abs(s[:, None] * (A - R @ H.T)).max(), np.abs(QMH).max())
    return float(cross), R, M - np.repeat(s[:, None] * A, sizes, axis=0) - np.repeat(QMH, sizes, axis=1)


def run_block_decomposition(seed=1, trials=20, fuzz=False) -> SuiteResult:
    """Cross blocks vanish and the norm is the larger of the two block norms.

    A case's norm gap is |total - max(radial, complement)|, with total = ||M||,
    radial = ||R|| and complement = ||QMQ|| for the radial block R and the
    complement block QMQ of _radial_split.  The complement's norm is
    taken only when |total - radial| is not within the tolerance (a NaN
    included): a compression of M by an orthogonal projector has norm at
    most ||M||, so once ||R|| is within the tolerance of ||M|| the case
    passes whatever ||QMQ|| is, and its gap is |total - radial|.  That is
    the full formula's gap, bit for bit, whenever complement <= radial.
    """
    cross_tol, norm_tol = 1e-12, 1e-9
    worst_cross = worst_norm = 0.0
    for _, _, _, op in _cases(np.random.default_rng(seed), trials, range(1, 6)):
        M = _maybe_fuzz(op.materialize(), fuzz)
        cross, R, QMQ = _radial_split(M, op.shape)
        radial, total = _spectral_norm(R), _spectral_norm(M)
        gap = abs(total - radial)
        if not gap <= norm_tol:
            gap = abs(total - max(radial, _spectral_norm(QMQ)))
        worst_cross = np.maximum(worst_cross, cross)
        worst_norm = np.maximum(worst_norm, gap)
    passed = bool(worst_cross <= cross_tol and worst_norm <= norm_tol)
    detail = f"cross={worst_cross:.3e} norm_gap={worst_norm:.3e}"
    return SuiteResult("block_decomposition", passed, float(np.maximum(worst_cross, worst_norm)), norm_tol, detail)


def run_case_equalities(case="A2", seed=2, trials=50, fuzz=False) -> SuiteResult:
    """Branching norm equals Toeplitz norm for class A1/A2/A3 symbols."""
    residuals = []
    for _, n, f, op in _cases(np.random.default_rng(seed), trials, range(2, 6), case):
        bn = _spectral_norm(_maybe_fuzz(op.materialize(), fuzz))
        tn = _spectral_norm(toeplitz_dense(f, n))
        residuals.append(abs(bn - tn) / (1 + tn))
    return _verdict(f"case_{case}_norm_equality", residuals, 1e-8)


def run_multiplicativity(seed=3, trials=20, fuzz=False) -> SuiteResult:
    """Products against analytic symbols multiply exactly on interior columns."""
    rng = np.random.default_rng(seed)
    n = 5
    residuals = []
    for _ in range(trials):
        deg_q = int(rng.integers(1, 4))
        deg_p = int(rng.integers(0, 4 - deg_q))
        P_sym = random_symbol(rng, deg_p)
        Q_sym = random_symbol(rng, deg_q, "A3")
        for q in DEFAULT_QS:
            op_p = BranchingOperator.uniform(q, n, P_sym)
            op_q = BranchingOperator.uniform(q, n, Q_sym)
            op_pq = BranchingOperator.uniform(q, n, poly_product(P_sym, Q_sym))
            cols = op_p.shape.generation_start(n - deg_q + 1)
            MP = _maybe_fuzz(op_p.materialize(), fuzz)
            prod = MP @ op_q.materialize()[:, :cols]
            target = op_pq.materialize()[:, :cols]
            residuals.append(np.abs(prod - target).max())
    return _verdict("interior_multiplicativity", residuals, 1e-10)


def run_isometry(fuzz=False) -> SuiteResult:
    """The unit down-shift symbol gives an isometry off the last generation."""
    residuals = []
    shift = Symbol({1: 1})
    for q in DEFAULT_QS:
        for n in range(1, 5):
            op = BranchingOperator.uniform(q, n, shift)
            G = _maybe_fuzz(op.materialize(), fuzz)
            gram = G.conj().T @ G
            cut = op.shape.generation_start(n)
            gram[:cut, :cut] -= np.eye(cut)
            residuals.append(np.abs(gram).max())
    return _verdict("truncated_isometry", residuals, 1e-14)


def run_positivity() -> SuiteResult:
    """Fejer-window symbols stay PSD; the sign-changing 2cos fails at n=1.
    No negative control: eigvalsh never reads the entry the fuzz perturbs."""
    tol = 1e-9
    worst = 0.0
    ok = True
    for q in DEFAULT_QS:
        for n in range(1, 6):
            for N in sorted({1, 2, 4, n}):
                f = fejer_kernel(N)
                op = BranchingOperator.uniform(q, n, f)
                min_eig = float(np.linalg.eigvalsh(op.materialize()).min())
                worst = min(worst, min_eig)
                ok = ok and min_eig >= -tol
        cos2 = Symbol({-1: 1, 1: 1})
        neg = float(np.linalg.eigvalsh(BranchingOperator.uniform(q, 1, cos2).materialize()).min())
        ok = ok and neg < -tol
    return SuiteResult("fejer_positivity", ok, abs(worst), tol)


def run_weighted_equivalence(seed=4, trials=10, fuzz=False) -> SuiteResult:
    """Singular values do not depend on the weight vector."""
    rng = np.random.default_rng(seed)
    residuals = []
    for q, n, f, op in _cases(rng, trials, range(1, 5)):
        s_blocks = singular_values(op)
        weighted = BranchingOperator.with_weights(random_unit_weights(rng, q), n, f)
        s_weighted = np.linalg.svd(_maybe_fuzz(weighted.materialize(), fuzz), compute_uv=False)
        # both descending: singular_values by construction, the SVD by LAPACK's contract
        residuals.append(np.abs(s_blocks - s_weighted).max())
    return _verdict("weighted_equivalence", residuals, 1e-9)


def run_cn_sandwich(seed=5, trials=20, fuzz=False) -> SuiteResult:
    """Toeplitz norm <= sup over q = 2..5 of the branching norm <= 3 x Toeplitz norm."""
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        f = random_symbol(rng, rng.integers(1, n + 1))
        t_norm, sup, _ = cn_sandwich(f, n, 5)
        # the sup equals ||T_n|| exactly, so only a fuzz that raises the
        # norm can show, and scaling ||T_n|| by 1 + 1e-3 always does
        t_norm *= 1 + 1e-3 if fuzz else 1
        residuals += [t_norm - sup, sup - 3 * t_norm]
    return _verdict("cn_sandwich", residuals, 1e-9)


def run_all(seed=0, trials=20, fuzz=False):
    """Every suite at CLI-default sweeps."""
    return [
        run_radial_compression(seed=seed, trials=trials, fuzz=fuzz),
        run_block_decomposition(seed=seed + 1, trials=trials, fuzz=fuzz),
        *(run_case_equalities(case, seed=seed + 2, trials=max(10, trials // 2), fuzz=fuzz)
          for case in ("A1", "A2", "A3")),
        run_multiplicativity(seed=seed + 3, trials=trials, fuzz=fuzz),
        run_isometry(fuzz=fuzz),
        run_positivity(),
        run_weighted_equivalence(seed=seed + 4, trials=max(5, trials // 4), fuzz=fuzz),
        run_cn_sandwich(seed=seed + 5, trials=max(5, trials // 4), fuzz=fuzz),
    ]
