"""Determinantal point processes driven by branching-Toeplitz kernels.

A Hermitian symbol with values in [0, 1] yields a positive contractive
kernel on the truncated tree, hence a determinantal point process whose
k-point correlations are the principal minors.  Restricted to a rooted ray
the kernel is an ordinary damped Toeplitz matrix, so the process is
stationary along every ray with a common law, and incomparable vertices
are independent (their kernel blocks are diagonal).  sssp_diagnostics
estimates exactly these signatures from Monte Carlo samples and compares
them with the closed-form values.

Sampling uses the spectral method: select eigenvectors by independent
Bernoulli(lambda_i) draws, then sample the resulting projection process
point by point, deflating the selected basis by Gram-Schmidt against each
chosen coordinate.  The elimination pivot inside the deflation is the
column with the largest amplitude at the chosen coordinate (ties fall to
the lowest index), so a run is fully determined by its seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .operators import BranchingOperator
from .symbols import Symbol, SymbolClass, classify
from .tree import TreeShape

__all__ = [
    "DppKernel",
    "DppSample",
    "SsspReport",
    "build_kernel",
    "sample",
    "sample_many",
    "sssp_diagnostics",
    "samples_to_jsonl",
]

EIG_CLAMP = 1e-8
HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class DppKernel:
    """Eigendecomposed Hermitian PSD contraction on the truncated tree."""

    matrix: np.ndarray
    eigenvalues: np.ndarray  # clamped to [0, 1]
    eigenvectors: np.ndarray  # columns
    shape: TreeShape
    symbol: Symbol

    @property
    def dim(self) -> int:
        return self.shape.vertex_count

    @property
    def expected_points(self) -> float:
        return float(self.eigenvalues.sum())


@dataclass(frozen=True)
class DppSample:
    occupied: tuple  # sorted linear indices
    rng_seed: int


def build_kernel(f: Symbol, q: int, n: int) -> DppKernel:
    """Eigendecomposed kernel of the uniform-weight operator of f.

    The symbol must be Hermitian and must truncate to a PSD contraction:
    eigenvalues may stray from [0, 1] by at most 1e-8 (floating point
    drift) and are clamped; anything worse is rejected.
    """
    if SymbolClass.HERMITIAN not in classify(f):
        raise ValueError("DPP kernel requires a Hermitian symbol")
    op = BranchingOperator.uniform(q, n, f)
    M = op.materialize()
    defect = np.abs(M - M.conj().T).max()
    if defect > HERMITIAN_TOL:
        raise ValueError(f"kernel is not Hermitian: defect {defect}")
    eigvals, eigvecs = np.linalg.eigh(M)
    if eigvals.min() < -EIG_CLAMP or eigvals.max() > 1 + EIG_CLAMP:
        raise ValueError(
            f"eigenvalues [{eigvals.min():.3e}, {eigvals.max():.3e}] leave [0, 1] "
            f"by more than {EIG_CLAMP}; symbol does not define a [0, 1] kernel"
        )
    return DppKernel(M, np.clip(eigvals, 0.0, 1.0), eigvecs, op.shape, f)


def _sample_with_rng(kernel: DppKernel, rng: np.random.Generator) -> list:
    lam = kernel.eigenvalues
    chosen = rng.random(lam.shape[0]) < lam
    V = kernel.eigenvectors[:, chosen].copy()
    points = []
    while V.shape[1] > 0:
        k = V.shape[1]
        marginals = np.einsum("ij,ij->i", V, V.conj()).real
        marginals = np.clip(marginals, 0.0, None)
        probs = marginals / marginals.sum()
        i = int(rng.choice(marginals.shape[0], p=probs))
        points.append(i)
        if k == 1:
            break
        # Gram-Schmidt deflation against coordinate i: eliminate with the
        # largest-amplitude column, then re-orthonormalize the rest
        j = int(np.argmax(np.abs(V[i])))
        col = V[:, j] / V[i, j]
        V = V - np.outer(col, V[i])
        V = np.delete(V, j, axis=1)
        V, _ = np.linalg.qr(V)
    return sorted(points)


def sample(kernel: DppKernel, seed: int) -> DppSample:
    """One draw of the point process; the law has kernel K."""
    rng = np.random.default_rng(seed)
    return DppSample(tuple(_sample_with_rng(kernel, rng)), seed)


def sample_many(kernel: DppKernel, n_samples: int, seed: int):
    """Independent draws with per-sample seeds split off the base seed."""
    master = np.random.default_rng(seed)
    seeds = master.integers(0, 2**63, size=n_samples)
    return [sample(kernel, int(s)) for s in seeds]


def samples_to_jsonl(samples) -> str:
    lines = [
        json.dumps({"seed": s.rng_seed, "occupied": list(s.occupied)}) for s in samples
    ]
    return "\n".join(lines) + "\n"


# -- diagnostics --------------------------------------------------------------


@dataclass(frozen=True)
class SsspReport:
    """Empirical process statistics against their closed-form values.

    one_point maps generation -> (analytic, empirical, stderr);
    ray_pair_corr maps comparable-pair distance -> (analytic, empirical,
    stderr); incomparable_pair_corr is the same triple for incomparable
    pairs; across_ray_spread maps distance -> (max deviation between
    per-ray estimates, allowance) as the ray-invariance check; cardinality
    is (analytic mean, empirical mean, stderr); draws are the samples all
    of these are estimated from.
    """

    samples: int
    one_point: dict
    ray_pair_corr: dict
    incomparable_pair_corr: tuple
    across_ray_spread: dict = field(default_factory=dict)
    cardinality: tuple = (0.0, 0.0, 0.0)
    draws: list = field(default_factory=list, repr=False, compare=False)

    def to_csv(self) -> str:
        rows = ["statistic,analytic,empirical,stderr"]
        for g in sorted(self.one_point):
            a, e, s = self.one_point[g]
            rows.append(f"one_point_gen{g},{a!r},{e!r},{s!r}")
        for d in sorted(self.ray_pair_corr):
            a, e, s = self.ray_pair_corr[d]
            rows.append(f"comparable_pair_d{d},{a!r},{e!r},{s!r}")
        a, e, s = self.incomparable_pair_corr
        rows.append(f"incomparable_pair,{a!r},{e!r},{s!r}")
        a, e, s = self.cardinality
        rows.append(f"cardinality_mean,{a!r},{e!r},{s!r}")
        for d in sorted(self.across_ray_spread):
            spread, allow = self.across_ray_spread[d]
            rows.append(f"across_ray_spread_d{d},0.0,{spread!r},{allow!r}")
        return "\n".join(rows) + "\n"


def _occupancy_matrix(samples, dim: int) -> np.ndarray:
    X = np.zeros((len(samples), dim), dtype=bool)
    for t, s in enumerate(samples):
        X[t, list(s.occupied)] = True
    return X


def _mean_se(per_sample: np.ndarray):
    m = float(per_sample.mean())
    se = float(per_sample.std(ddof=1) / np.sqrt(per_sample.shape[0]))
    return m, se


def sssp_diagnostics(kernel: DppKernel, samples: int, seed: int) -> SsspReport:
    """Monte Carlo estimates of the stationarity/independence signatures."""
    if samples < 1000:
        raise ValueError("need at least 1000 samples for stable diagnostics")
    shape = kernel.shape
    q, n = shape.q, shape.depth
    starts = shape.generation_starts
    draws = sample_many(kernel, samples, seed)
    X = _occupancy_matrix(draws, kernel.dim).astype(float)
    f0 = kernel.symbol.coeff(0).real

    one_point = {}
    for g in range(n + 1):
        block = X[:, starts[g] : starts[g + 1]]
        one_point[g] = (f0, *_mean_se(block.mean(axis=1)))

    # comparable pairs at each distance: every vertex against its depth-d
    # ancestor; incomparable pairs are everything else off the diagonal
    ray_pair = {}
    comp = np.eye(kernel.dim, dtype=bool)
    gen_of = np.concatenate([np.full(q**g, g) for g in range(n + 1)])
    offs = np.concatenate([np.arange(q**g) for g in range(n + 1)])
    for d in range(1, n + 1):
        u = np.flatnonzero(gen_of >= d)
        anc = np.asarray(starts)[gen_of[u] - d] + offs[u] // q**d
        analytic = f0**2 - q ** (-d) * abs(kernel.symbol.coeff(d)) ** 2
        per_sample = (X[:, u] * X[:, anc]).mean(axis=1)
        ray_pair[d] = (analytic, *_mean_se(per_sample))
        comp[u, anc] = True
        comp[anc, u] = True
    iu, iv = np.where(np.triu(~comp))
    per_sample = (X[:, iu] * X[:, iv]).mean(axis=1)
    incomparable = (f0**2, *_mean_se(per_sample))

    # ray invariance: per-leaf ray, pool positions along the ray
    spread = {}
    leaves = np.arange(q**n)
    for d in range(1, n + 1):
        estimates = []
        ses = []
        for leaf in leaves:
            chain = [starts[g] + (leaf // q ** (n - g)) for g in range(n + 1)]
            lo = [chain[g] for g in range(0, n + 1 - d)]
            hi = [chain[g + d] for g in range(0, n + 1 - d)]
            per = (X[:, lo] * X[:, hi]).mean(axis=1)
            m, se = _mean_se(per)
            estimates.append(m)
            ses.append(se)
        estimates = np.array(estimates)
        allow = 4 * max(ses)
        spread[d] = (float(estimates.max() - estimates.min()), float(allow))

    card = X.sum(axis=1)
    cardinality = (kernel.expected_points, *_mean_se(card))

    return SsspReport(
        samples=samples,
        one_point=one_point,
        ray_pair_corr=ray_pair,
        incomparable_pair_corr=incomparable,
        across_ray_spread=spread,
        cardinality=cardinality,
        draws=draws,
    )
