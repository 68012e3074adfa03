"""Determinantal point processes driven by branching-Toeplitz kernels.

A Hermitian symbol with values in [0, 1] yields a positive contractive
kernel on the truncated tree, hence a determinantal point process whose
k-point correlations are the principal minors.  Restricted to a rooted ray
the kernel is an ordinary damped Toeplitz matrix, so the process is
stationary along every ray with a common law, and incomparable vertices
are independent (their kernel blocks are diagonal).  sssp_statistics
estimates exactly these signatures from Monte Carlo samples and compares
them with the closed-form values.

Two exact samplers draw from the same law; a run of either is fully
determined by its seed.

sample_chain is the chain-rule sampler (Poulson 2019, arXiv:1905.00165;
Launay, Galerne & Desolneux 2018, arXiv:1802.08429) and sample_chains,
which `btoep dpp` uses, runs it for many seeds at once.  It visits the
vertices one by one, takes v with probability p = K[v, v] of the current
kernel and conditions on the outcome by the Schur update
K <- K - K[:, v] K[v, :] / (p - [v not taken]).  Visited leaf
generation first, v is joined only to its ancestors at most
r = min(n, support radius) generations up, so the update touches only
entries among those ancestors, which are nonzero already: there is no
fill.  Siblings stay uncoupled, so one row of q^g uniforms decides all
of generation g, and the updates reach the ancestors by sums over
contiguous groups of q^d vertices.  The state is the diagonal and the
band K[v, anc_d(v)], d = 1..r, built from the symbol alone: O(N r^2) per
sample with no dense matrix and no eigenvectors.  sample_chains gives
the state a leading sample axis and runs the generation recursion once
per chunk of about CHAIN_CHUNK_BYTES of state.  Each sample takes its N
uniforms from one random(N) of its own default_rng(seed), the deepest
generation first, so draw t depends on seeds[t] alone and not on the
chunk it falls in; sample_chain is sample_chains on a single seed.

build_kernel needs no dense step either: the kernel is unitarily the
direct sum of the Toeplitz blocks T_k of the spectral module, so its
eigenvalues, which the [0, 1] check and the cardinality rows read, are
those of each (k+1) x (k+1) block repeated by its multiplicity.

sample and sample_many are the spectral sampler (Hough, Krishnapur,
Peres & Virag 2006; Kulesza & Taskar 2012, Alg. 1): select eigenvectors
by independent Bernoulli(lambda_i) draws, then sample the projection
process with kernel V V^* point by point.  After points s_1..s_j the
conditioned kernel is V (I - E E^*) V^*, where E is an orthonormal basis
of span{conj(V[s])} kept by Gram-Schmidt (Tremblay, Barthelme & Amblard
2018), so the next point is drawn with probability proportional to
|V[i]|^2 - |(V E)[i]|^2.  Each point adds one column to E and costs one
O(N k) read-only product V @ e; V is never written.  A sample of k points
on N vertices costs O(N k^2).  The dense eigenbasis V is the one dense
step left: the O(N^3) eigendecomposition of the materialized kernel,
made on the first spectral draw, at most once per kernel and under the
dense cap.  sssp_diagnostics draws with it.  The chain sampler is
checked against the exact law |det(K - I_{S^c})| of the dense kernel and
against the Poisson-binomial law of its eigenvalues for |S|, not against
the spectral sampler.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .operators import BranchingOperator
from .spectral import _block_spectrum
from .symbols import Symbol, SymbolClass, classify
from .tree import TreeShape

__all__ = [
    "DppKernel",
    "DppSample",
    "SsspReport",
    "build_kernel",
    "sample",
    "sample_chain",
    "sample_chains",
    "sample_many",
    "sample_seeds",
    "sssp_diagnostics",
    "sssp_statistics",
    "samples_to_jsonl",
]

EIG_CLAMP = 1e-8
# bytes of sampler state per chunk of sample_chains draws: half a 2 MiB L2
# cache, which the temporaries of one generation's update fill up
CHAIN_CHUNK_BYTES = 2**20
# family-wise false-alarm level of the ray-invariance row
RAY_LEVEL = 1e-3


@dataclass(frozen=True)
class DppKernel:
    """Hermitian PSD contraction on the truncated tree.

    The spectrum comes from the Toeplitz blocks; the dense matrix and its
    eigenbasis are computed on first use, at most once per kernel, and
    raise DenseCapError over the dense cap.
    """

    eigenvalues: np.ndarray  # ascending, clamped to [0, 1]
    shape: TreeShape
    symbol: Symbol

    @property
    def dim(self) -> int:
        return self.shape.vertex_count

    @property
    def expected_points(self) -> float:
        return float(self.eigenvalues.sum())

    @cached_property
    def matrix(self) -> np.ndarray:
        return BranchingOperator.uniform(self.shape.q, self.shape.depth, self.symbol).materialize()

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Columns, in the ascending order of eigenvalues."""
        return np.linalg.eigh(self.matrix)[1]


@dataclass(frozen=True)
class DppSample:
    occupied: tuple  # sorted linear indices
    rng_seed: int


def build_kernel(f: Symbol, q: int, n: int) -> DppKernel:
    """Kernel of the uniform-weight operator of f, with its spectrum.

    The symbol must be Hermitian and must truncate to a PSD contraction:
    eigenvalues may stray from [0, 1] by at most 1e-8 (floating point
    drift) and are clamped; anything worse is rejected.  The kernel is
    unitarily the direct sum of the Toeplitz blocks T_k, so its
    eigenvalues are those of each T_k repeated by its multiplicity: O(n^4)
    work on the blocks and a sort of the N eigenvalues, no dense matrix.
    """
    if SymbolClass.HERMITIAN not in classify(f):
        raise ValueError("DPP kernel requires a Hermitian symbol")
    shape = TreeShape(q, n)
    # classify demands h(-m) == conj(h(m)) exactly, so each T_k, like the
    # dense kernel, is Hermitian bit for bit
    eigvals = np.sort(_block_spectrum(f, shape, np.linalg.eigvalsh))
    if eigvals[0] < -EIG_CLAMP or eigvals[-1] > 1 + EIG_CLAMP:
        raise ValueError(
            f"eigenvalues [{eigvals[0]:.3e}, {eigvals[-1]:.3e}] leave [0, 1] "
            f"by more than {EIG_CLAMP}; symbol does not define a [0, 1] kernel"
        )
    return DppKernel(np.clip(eigvals, 0.0, 1.0), shape, f)


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


def sample_seeds(n_samples: int, seed: int) -> list:
    """Per-sample seeds split off the base seed: draw t of a run is the
    draw of seed sample_seeds(n_samples, seed)[t]."""
    return np.random.default_rng(seed).integers(0, 2**63, size=n_samples).tolist()


def sample_many(kernel: DppKernel, n_samples: int, seed: int):
    """Independent spectral draws with per-sample seeds split off the base seed."""
    return [sample(kernel, s) for s in sample_seeds(n_samples, seed)]


def _chains(kernel: DppKernel, samples: int, uniforms) -> np.ndarray:
    """Occupancy (samples, N) of chain draws run side by side.

    uniforms(lo, hi) gives the uniforms of vertices lo..hi-1, one
    generation, one row per sample (or one row for all of them).
    """
    shape, f = kernel.shape, kernel.symbol
    q, n, N, starts = shape.q, shape.depth, shape.vertex_count, shape.generation_starts
    r = min(n, f.support_radius)
    # band[d - 1] = K[v, anc_d(v)] of the unconditioned kernel
    band = np.array([f.coeff(d) * q ** (-d / 2) for d in range(1, r + 1)])
    if not band.imag.any():
        band = band.real
    diag = np.full((samples, N), f.coeff(0).real)
    L = np.zeros((samples, N, r), dtype=band.dtype)
    for d in range(1, r + 1):
        L[:, starts[d] :, d - 1] = band[d - 1]
    occupied = np.zeros((samples, N), dtype=bool)
    for g in range(n, -1, -1):
        lo, hi = starts[g], starts[g + 1]
        # u in [0, 1) takes v whenever p >= 1 and never when p <= 0, so
        # rounding outside [0, 1] needs no clamp and no pivot is 0
        p = diag[:, lo:hi]
        taken = occupied[:, lo:hi] = uniforms(lo, hi) < p
        rg = min(r, g)
        if not rg:
            continue
        Lg = L[:, lo:hi, :rg]
        scaled = Lg.conj() / (p - ~taken)[..., None]
        for d in range(1, rg + 1):
            # K[anc_d, anc_e] -= conj(L[v, d]) L[v, e] / (p - [v not taken])
            # for e = d..rg, summed over the q^d vertices below anc_d
            a, m = starts[g - d], (hi - lo) // q**d
            upd = (scaled[..., d - 1, None] * Lg[..., d - 1 :]).reshape(samples, m, -1, rg - d + 1).sum(axis=2)
            diag[:, a : a + m] -= upd[..., 0].real
            L[:, a : a + m, : rg - d] -= upd[..., 1:]
    return occupied


def _chain_bytes(kernel: DppKernel) -> int:
    """Sampler state of one chain draw: per vertex a uniform and a
    diagonal entry, an occupancy byte and a band of r complex entries."""
    r = min(kernel.shape.depth, kernel.symbol.support_radius)
    return kernel.shape.vertex_count * (17 + 16 * r)


def sample_chains(kernel: DppKernel, seeds) -> list:
    """Chain-rule draws of the point process with kernel K, one per seed.

    Draw t depends on seeds[t] alone.  The draws run side by side in
    chunks of about CHAIN_CHUNK_BYTES of sampler state.
    """
    N = kernel.shape.vertex_count
    chunk = max(1, CHAIN_CHUNK_BYTES // _chain_bytes(kernel))
    draws = []
    for i in range(0, len(seeds), chunk):
        part = seeds[i : i + chunk]
        # one random(N) per draw, generation n first, then n - 1, ...:
        # vertices lo..hi-1 take U[:, N - hi : N - lo]
        U = np.empty((len(part), N))
        for row, s in zip(U, part):
            np.random.default_rng(s).random(out=row)
        occupied = _chains(kernel, len(part), lambda lo, hi: U[:, N - hi : N - lo])
        draws += [DppSample(tuple(np.flatnonzero(row).tolist()), s) for row, s in zip(occupied, part)]
    return draws


def sample_chain(kernel: DppKernel, seed: int) -> DppSample:
    """One chain-rule draw of the point process with kernel K.

    Reads only kernel.shape and kernel.symbol.  Same law as sample, but a
    different use of the seed, so the two give different points.
    """
    return sample_chains(kernel, [seed])[0]


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
    per-ray estimates, allowance), a range that exact draws exceed more
    often the more rays there are; cardinality is (analytic mean,
    empirical mean, stderr) of the number of points and cardinality_var
    the same triple for its variance; ray_invariance is (max |z|, critical
    value), the calibrated ray-invariance check: z is a per-ray estimate
    of the one-point intensity or of a pair correlation minus its analytic
    value, over the stderr pooled over the rays, for every ray and
    distance, and the critical value is Sidak's at family-wise level
    RAY_LEVEL.
    """

    samples: int
    one_point: dict
    ray_pair_corr: dict
    incomparable_pair_corr: tuple
    across_ray_spread: dict
    cardinality: tuple
    cardinality_var: tuple
    ray_invariance: tuple

    def to_csv(self) -> str:
        # the spread and ray-invariance rows write 0.0 as their analytic value
        rows = [
            *((f"one_point_gen{g}", v) for g, v in sorted(self.one_point.items())),
            *((f"comparable_pair_d{d}", v) for d, v in sorted(self.ray_pair_corr.items())),
            ("incomparable_pair", self.incomparable_pair_corr),
            ("cardinality_mean", self.cardinality),
            ("cardinality_var", self.cardinality_var),
            *((f"across_ray_spread_d{d}", (0.0, *v)) for d, v in sorted(self.across_ray_spread.items())),
            ("ray_invariance_max_abs_z", (0.0, *self.ray_invariance)),
        ]
        return "statistic,analytic,empirical,stderr\n" + "".join(
            f"{name},{a!r},{e!r},{s!r}\n" for name, (a, e, s) in rows
        )


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


def _max_abs_z(estimates, ses, analytic) -> float:
    """Largest |estimate - analytic| / stderr over per-ray estimates.

    Every ray has the same law, so the stderr is pooled over the rays: a
    ray's own stderr, small exactly when its estimate is, would inflate
    the skewed tail.  Without spread z counts 0 at the analytic value and
    inf elsewhere."""
    dev = np.abs(np.subtract(estimates, analytic)).max()
    se = np.sqrt(np.mean(np.square(ses)))
    return float(dev / se) if se > 0 else (0.0 if dev == 0 else float("inf"))


def sssp_diagnostics(kernel: DppKernel, samples: int, seed: int) -> SsspReport:
    """sssp_statistics of sample_many(kernel, samples, seed), the spectral
    sampler's draws."""
    return sssp_statistics(kernel, sample_many(kernel, samples, seed))


def sssp_statistics(kernel: DppKernel, draws) -> SsspReport:
    """Monte Carlo estimates of the stationarity/independence signatures
    from the given draws of the process with this kernel."""
    samples = len(draws)
    if samples < 1000:
        raise ValueError("need at least 1000 samples for stable diagnostics")
    shape = kernel.shape
    q, n, N = shape.q, shape.depth, kernel.dim
    starts = np.asarray(shape.generation_starts)
    X = _occupancy(draws, N)
    f0 = kernel.symbol.coeff(0).real

    one_point = {}
    for g in range(n + 1):
        one_point[g] = (f0, *_mean_se(X[starts[g] : starts[g + 1]].mean(axis=0)))

    # comparable pairs at distance d: each vertex v of generation >= d with
    # its ancestor anc[v] d generations up, in row v - starts[d] of pair;
    # in level order the parent of v is (v - 1) // q.  Row l of rays runs
    # from the root to leaf l, so the pairs along that ray, which the
    # ray-invariance checks pool, are the rows rays[l, d:] - starts[d].
    # Every other pair is incomparable.
    anc = np.arange(N)
    rays = starts[:-1] + np.arange(q**n)[:, None] // q ** np.arange(n, -1, -1)
    max_z = _max_abs_z(*_mean_se(X[rays].sum(axis=1) / (n + 1)), f0)
    ray_pair, spread = {}, {}
    comparable = np.zeros(samples, dtype=int)
    incomparable_pairs = N * (N - 1) // 2
    for d in range(1, n + 1):
        anc = (anc - 1) // q
        pair = X[starts[d] :] & X[anc[starts[d] :]]
        count = pair.sum(axis=0)
        comparable += count
        incomparable_pairs -= N - starts[d]
        analytic = f0**2 - q ** (-d) * abs(kernel.symbol.coeff(d)) ** 2
        ray_pair[d] = (analytic, *_mean_se(count / (N - starts[d])))
        estimates, ses = _mean_se(pair[rays[:, d:] - starts[d]].sum(axis=1) / (n + 1 - d))
        spread[d] = (max(estimates) - min(estimates), 4 * max(ses))
        max_z = max(max_z, _max_abs_z(estimates, ses, analytic))
    # Sidak: m two-sided tests, each at level 1 - (1 - RAY_LEVEL)^(1/m),
    # keep the family-wise level at most RAY_LEVEL for jointly normal z
    # whatever their correlation; there are q^n rays and n + 1 distances
    tail = -math.expm1(math.log1p(-RAY_LEVEL) / (q**n * (n + 1)))
    ray_invariance = (max_z, -NormalDist().inv_cdf(tail / 2))

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
        ray_invariance=ray_invariance,
    )
