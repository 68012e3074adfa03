"""Determinantal point processes driven by branching-Toeplitz kernels.

A Hermitian symbol with values in [0, 1] yields a positive contractive
kernel on the truncated tree, hence a determinantal point process whose
k-point correlations are the principal minors.  Restricted to a rooted ray
the kernel is an ordinary damped Toeplitz matrix, so the process is
stationary along every ray with a common law, and incomparable vertices
are independent (their kernel blocks are diagonal).  sssp_diagnostics
estimates exactly these signatures from Monte Carlo samples and compares
them with the closed-form values.

Sampling uses the spectral method (Hough, Krishnapur, Peres & Virag 2006;
Kulesza & Taskar 2012, Alg. 1): select eigenvectors by independent
Bernoulli(lambda_i) draws, then sample the projection process with kernel
V V^* point by point.  After points s_1..s_j the conditioned kernel is
V (I - E E^*) V^*, where E is an orthonormal basis of span{conj(V[s])}
kept by Gram-Schmidt (Tremblay, Barthelme & Amblard 2018), so the next
point is drawn with probability proportional to |V[i]|^2 - |(V E)[i]|^2.
Each point adds one column to E and costs one O(N k) read-only product
V @ e; V is never written.  A sample of k points on N vertices costs
O(N k^2), and a run is fully determined by its seed.
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
    # classify demands h(-m) == conj(h(m)) exactly, so M == M^* bit for bit
    M = op.materialize()
    eigvals, eigvecs = np.linalg.eigh(M)
    if eigvals.min() < -EIG_CLAMP or eigvals.max() > 1 + EIG_CLAMP:
        raise ValueError(
            f"eigenvalues [{eigvals.min():.3e}, {eigvals.max():.3e}] leave [0, 1] "
            f"by more than {EIG_CLAMP}; symbol does not define a [0, 1] kernel"
        )
    return DppKernel(M, np.clip(eigvals, 0.0, 1.0), eigvecs, op.shape, f)


def _sample_with_rng(kernel: DppKernel, rng: np.random.Generator) -> list:
    lam = kernel.eigenvalues
    V = kernel.eigenvectors[:, rng.random(lam.shape[0]) < lam]
    N, k = V.shape
    # E: orthonormal basis of span{conj(V[s]) : s drawn}; C = V @ E
    E = np.zeros((k, k), dtype=V.dtype)
    C = np.zeros((N, k), dtype=V.dtype)
    p = np.einsum("ij,ij->i", V, V.conj()).real
    points = []
    for j in range(k):
        marginals = np.maximum(p, 0.0)
        i = int(rng.choice(N, p=marginals / marginals.sum()))
        points.append(i)
        # condition on i: the conditioned kernel is V (I - E E^*) V^*, so
        # each marginal loses |V[r] @ e|^2 for the new direction e; the
        # norm of e itself, not p[i], keeps a draw of probability 0 finite
        e = V[i].conj() - E[:, :j] @ C[i, :j].conj()
        e /= np.sqrt(np.vdot(e, e).real)
        E[:, j] = e
        C[:, j] = c = V @ e
        p -= (c * c.conj()).real
        p[i] = 0.0
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
    is (analytic mean, empirical mean, stderr) of the number of points and
    cardinality_var the same triple for its variance; draws are the samples
    all of these are estimated from.
    """

    samples: int
    one_point: dict
    ray_pair_corr: dict
    incomparable_pair_corr: tuple
    across_ray_spread: dict = field(default_factory=dict)
    cardinality: tuple = (0.0, 0.0, 0.0)
    cardinality_var: tuple = (0.0, 0.0, 0.0)
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
        a, e, s = self.cardinality_var
        rows.append(f"cardinality_var,{a!r},{e!r},{s!r}")
        for d in sorted(self.across_ray_spread):
            spread, allow = self.across_ray_spread[d]
            rows.append(f"across_ray_spread_d{d},0.0,{spread!r},{allow!r}")
        return "\n".join(rows) + "\n"


def _occupancy(samples, dim: int) -> np.ndarray:
    """Boolean (dim, len(samples)) matrix: column t marks the points of draw t."""
    X = np.zeros((dim, len(samples)), dtype=bool)
    for t, s in enumerate(samples):
        X[list(s.occupied), t] = True
    return X


def _mean_se(per_sample: np.ndarray):
    """Mean and standard error over the draws (the last axis), as floats or
    as lists of floats, one per row."""
    m = per_sample.mean(axis=-1)
    se = per_sample.std(axis=-1, ddof=1) / np.sqrt(per_sample.shape[-1])
    return m.tolist(), se.tolist()


def sssp_diagnostics(kernel: DppKernel, samples: int, seed: int) -> SsspReport:
    """Monte Carlo estimates of the stationarity/independence signatures."""
    if samples < 1000:
        raise ValueError("need at least 1000 samples for stable diagnostics")
    shape = kernel.shape
    q, n, N = shape.q, shape.depth, kernel.dim
    starts = np.asarray(shape.generation_starts)
    draws = sample_many(kernel, samples, seed)
    X = _occupancy(draws, N)
    f0 = kernel.symbol.coeff(0).real

    one_point = {}
    for g in range(n + 1):
        one_point[g] = (f0, *_mean_se(X[starts[g] : starts[g + 1]].mean(axis=0)))

    # comparable pairs at distance d: each vertex v of generation >= d with
    # its depth-d ancestor, in row v - starts[d] of pair.  Row l of rays
    # runs from the root to leaf l, so the pairs along that ray, which the
    # ray-invariance check pools, are the rows rays[l, d:] - starts[d].
    # Every other pair is incomparable.
    gen_of = np.repeat(np.arange(n + 1), np.diff(starts))
    offs = np.arange(N) - starts[gen_of]
    rays = starts[:-1] + np.arange(q**n)[:, None] // q ** np.arange(n, -1, -1)
    ray_pair, spread = {}, {}
    comparable = np.zeros(samples, dtype=int)
    incomparable_pairs = N * (N - 1) // 2
    for d in range(1, n + 1):
        u = np.arange(starts[d], N)
        anc = starts[gen_of[u] - d] + offs[u] // q**d
        pair = X[u] & X[anc]
        count = pair.sum(axis=0)
        comparable += count
        incomparable_pairs -= u.size
        analytic = f0**2 - q ** (-d) * abs(kernel.symbol.coeff(d)) ** 2
        ray_pair[d] = (analytic, *_mean_se(count / u.size))
        estimates, ses = _mean_se(pair[rays[:, d:] - starts[d]].sum(axis=1) / (n + 1 - d))
        spread[d] = (max(estimates) - min(estimates), 4 * max(ses))

    size = X.sum(axis=0)
    if incomparable_pairs:
        per_sample = (size * (size - 1) // 2 - comparable) / incomparable_pairs
        incomparable = (f0**2, *_mean_se(per_sample))
    else:  # q = 1 or n = 0: every pair of vertices is comparable
        incomparable = (f0**2, float("nan"), float("nan"))
    cardinality = (kernel.expected_points, *_mean_se(size))
    # |S| is a sum of independent Bernoulli(lambda), one per eigenvalue;
    # the stderr is that of the sample variance, from the fourth moment
    lam = kernel.eigenvalues
    var = size.var(ddof=1)
    m4 = ((size - size.mean()) ** 4).mean()
    var_se = np.sqrt((m4 - var**2 * (samples - 3) / (samples - 1)) / samples)
    cardinality_var = (float((lam * (1 - lam)).sum()), float(var), float(var_se))

    return SsspReport(
        samples=samples,
        one_point=one_point,
        ray_pair_corr=ray_pair,
        incomparable_pair_corr=incomparable,
        across_ray_spread=spread,
        cardinality=cardinality,
        cardinality_var=cardinality_var,
        draws=draws,
    )
