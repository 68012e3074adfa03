"""Randomized verification suites for the structural identities.

Each suite draws seeded random symbols, measures the residual of one
identity over a fixed (q, n) sweep, and reports pass/fail against the
fixed tolerance for that identity.  The CLI runs them all and maps any
failure to a nonzero exit; fuzz=True injects a small perturbation into a
measured matrix as a negative control, proving the harness can fail.

Every suite sweeps q over (2, 3) and n over a fixed range: radial
compression n = 1..6, block decomposition and positivity 1..5, case
equalities 2..5, isometry and weighted equivalence 1..4, and
multiplicativity n = 5 alone; cn_sandwich draws n from 1..4 and takes the
sup over q = 2..5.  Only seed, trials, fuzz and case are settable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import BranchingOperator, toeplitz_dense
from .spectral import radial_blocks, radial_compress, singular_values, sup_branching_norm
from .symbols import Symbol, fejer_kernel, poly_product

__all__ = [
    "SuiteResult",
    "random_symbol",
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
    tol = 1e-12
    worst = 0.0
    for _, n, f, op in _cases(np.random.default_rng(seed), trials, range(1, 7)):
        C = _maybe_fuzz(radial_compress(op), fuzz)
        worst = max(worst, float(np.abs(C - toeplitz_dense(f, n)).max()))
    return SuiteResult("radial_compression", worst <= tol, worst, tol)


def run_block_decomposition(seed=1, trials=20, fuzz=False) -> SuiteResult:
    """Cross blocks vanish and the norm is the larger of the two block norms."""
    cross_tol, norm_tol = 1e-12, 1e-9
    worst_cross = worst_norm = 0.0
    for _, _, _, op in _cases(np.random.default_rng(seed), trials, range(1, 6)):
        cross, b = radial_blocks(_maybe_fuzz(op.materialize(), fuzz), op.shape)
        worst_cross = max(worst_cross, cross)
        worst_norm = max(worst_norm, abs(b.total - max(b.radial, b.complement)))
    passed = worst_cross <= cross_tol and worst_norm <= norm_tol
    detail = f"cross={worst_cross:.3e} norm_gap={worst_norm:.3e}"
    return SuiteResult("block_decomposition", passed, max(worst_cross, worst_norm), norm_tol, detail)


def run_case_equalities(case="A2", seed=2, trials=50, fuzz=False) -> SuiteResult:
    """Branching norm equals Toeplitz norm for class A1/A2/A3 symbols."""
    tol = 1e-8
    worst = 0.0
    for _, n, f, op in _cases(np.random.default_rng(seed), trials, range(2, 6), case):
        bn = np.linalg.norm(_maybe_fuzz(op.materialize(), fuzz), 2)
        tn = np.linalg.norm(toeplitz_dense(f, n), 2)
        worst = max(worst, float(abs(bn - tn) / (1 + tn)))
    return SuiteResult(f"case_{case}_norm_equality", worst <= tol, worst, tol)


def run_multiplicativity(seed=3, trials=20, fuzz=False) -> SuiteResult:
    """Products against analytic symbols multiply exactly on interior columns."""
    rng = np.random.default_rng(seed)
    tol = 1e-10
    n = 5
    worst = 0.0
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
            worst = max(worst, float(np.abs(prod - target).max()))
    return SuiteResult("interior_multiplicativity", worst <= tol, worst, tol)


def run_isometry(fuzz=False) -> SuiteResult:
    """The unit down-shift symbol gives an isometry off the last generation."""
    tol = 1e-14
    worst = 0.0
    shift = Symbol({1: 1})
    for q in DEFAULT_QS:
        for n in range(1, 5):
            op = BranchingOperator.uniform(q, n, shift)
            G = _maybe_fuzz(op.materialize(), fuzz)
            gram = G.conj().T @ G
            target = np.zeros_like(gram)
            cut = op.shape.generation_start(n)
            target[:cut, :cut] = np.eye(cut)
            worst = max(worst, float(np.abs(gram - target).max()))
    return SuiteResult("truncated_isometry", worst <= tol, worst, tol)


def run_positivity(fuzz=False) -> SuiteResult:
    """Fejer-window symbols stay PSD; the sign-changing 2cos fails at n=1."""
    tol = 1e-9
    worst = 0.0
    ok = True
    for q in DEFAULT_QS:
        for n in range(1, 6):
            for N in (1, 2, 4, n):
                f = fejer_kernel(N)
                op = BranchingOperator.uniform(q, n, f)
                M = _maybe_fuzz(op.materialize(), fuzz)
                min_eig = float(np.linalg.eigvalsh(M).min())
                worst = min(worst, min_eig)
                ok = ok and min_eig >= -tol
        cos2 = Symbol({-1: 1, 1: 1})
        neg = float(np.linalg.eigvalsh(BranchingOperator.uniform(q, 1, cos2).materialize()).min())
        ok = ok and neg < -tol
    return SuiteResult("fejer_positivity", ok, abs(worst), tol)


def run_weighted_equivalence(seed=4, trials=10, fuzz=False) -> SuiteResult:
    """Singular values do not depend on the weight vector."""
    rng = np.random.default_rng(seed)
    tol = 1e-9
    worst = 0.0
    for q, n, f, op in _cases(rng, trials, range(1, 5)):
        s_blocks = singular_values(op)
        weighted = BranchingOperator.with_weights(random_unit_weights(rng, q), n, f)
        s_weighted = np.linalg.svd(_maybe_fuzz(weighted.materialize(), fuzz), compute_uv=False)
        worst = max(worst, float(np.abs(np.sort(s_blocks) - np.sort(s_weighted)).max()))
    return SuiteResult("weighted_equivalence", worst <= tol, worst, tol)


def run_cn_sandwich(seed=5, trials=20, fuzz=False) -> SuiteResult:
    """Toeplitz norm <= sup over q = 2..5 of the branching norm <= 3 x Toeplitz norm."""
    rng = np.random.default_rng(seed)
    tol = 1e-9
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        f = random_symbol(rng, rng.integers(1, n + 1))
        T = toeplitz_dense(f, n)
        # the sup equals ||T_n|| exactly, so only a fuzz that raises the
        # norm can show, and scaling T_n by 1 + 1e-3 always does
        t_norm = float(np.linalg.norm(T * (1 + 1e-3) if fuzz else T, 2))
        sup = sup_branching_norm(f, n, 5)
        violation = max(t_norm - sup, sup - 3 * t_norm, 0.0)
        worst = max(worst, violation)
    return SuiteResult("cn_sandwich", worst <= tol, worst, tol)


def run_all(seed=0, trials=20, fuzz=False):
    """Every suite at CLI-default sweeps."""
    return [
        run_radial_compression(seed=seed, trials=trials, fuzz=fuzz),
        run_block_decomposition(seed=seed + 1, trials=trials, fuzz=fuzz),
        *(run_case_equalities(case, seed=seed + 2, trials=max(10, trials // 2), fuzz=fuzz)
          for case in ("A1", "A2", "A3")),
        run_multiplicativity(seed=seed + 3, trials=trials, fuzz=fuzz),
        run_isometry(fuzz=fuzz),
        run_positivity(fuzz=fuzz),
        run_weighted_equivalence(seed=seed + 4, trials=max(5, trials // 4), fuzz=fuzz),
        run_cn_sandwich(seed=seed + 5, trials=max(5, trials // 4), fuzz=fuzz),
    ]
