"""Determinantal point processes driven by branching-Toeplitz kernels.

A Hermitian symbol with values in [0, 1] yields a positive contractive
kernel on the truncated tree, hence a determinantal point process whose
k-point correlations are the principal minors.  Restricted to a rooted ray
the kernel is an ordinary damped Toeplitz matrix, so the process is
stationary along every ray with a common law, and incomparable vertices
are independent (their kernel blocks are diagonal).  sssp_statistics
estimates exactly these signatures from Monte Carlo samples and compares
them with the closed-form values.  It reads the draws as one boolean
(N, samples) occupancy matrix X, X[v, t] = [v in draw t]; the sums down
each ray come from the recursion R(v) = R(parent v) + pair[v] over the
generations, O(n N) per sample and no per-ray copy of X; the per-ray
estimates are reduced in blocks of rays sized in bytes (CHUNK_BYTES).

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
band K[v, anc_d(v)], d = 1..r, read from the entries of the uniform
operator, BranchingOperator.uniform(q, n, symbol): O(N r^2) per sample
with no dense matrix and no eigenvectors.  sample_chains gives
the state a leading sample axis and runs the generation recursion once
per chunk of about CHUNK_BYTES of state.  Each sample takes its N
uniforms from one random(N) of its own default_rng(seed), the deepest
generation first, so draw t depends on seeds[t] alone and not on the
chunk it falls in; sample_chain is sample_chains on a single seed.  Each
chunk fills its columns of the occupancy matrix.  sample_chains reads
each draw's points off its column.  chain_run, the whole run of `btoep
dpp`, keeps the matrix, gives it to the statistics and formats the JSON
lines of the samples file from it one at a time as they are read, so no
draw becomes a tuple and no file is held whole in memory.

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
|V[i]|^2 - |(V E)[i]|^2, by one lookup of a uniform in the cdf of those
marginals: the steps of Generator.choice without its per-call checks,
so the draws are those of choice.  Each point adds one column to E and
costs one O(N k) read-only product V @ e; V is never written.  A sample
of k points on N vertices costs O(N k^2).  The dense eigenbasis V is the one dense
step left: the O(N^3) eigendecomposition of the materialized kernel,
made on the first spectral draw, at most once per kernel and under the
dense cap.  sssp_diagnostics draws with it.  The chain sampler is
checked against the exact law |det(K - I_{S^c})| of the dense kernel and
against the Poisson-binomial law of its eigenvalues for |S|, not against
the spectral sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .operators import BranchingOperator
from .spectral import _block_spectrum
from .symbols import Symbol, SymbolClass, classify
from .tree import TreeShape, Vertex

__all__ = [
    "DppKernel",
    "DppSample",
    "SsspReport",
    "build_kernel",
    "chain_run",
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
# bytes of working arrays per chunk: the sampler state of a chunk of
# sample_chains draws, the float rows of a block of per-ray estimates; half
# a 2 MiB L2 cache, which the temporaries of one step fill up
CHUNK_BYTES = 2**20
# family-wise false-alarm level of the ray-invariance row
RAY_LEVEL = 1e-3
MIN_SAMPLES = 1000
# draws per contiguous copy of occupancy columns that _points reads
POINTS_BLOCK = 64


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
    work on the blocks, a sort of their (n+1)(n+2)/2 eigenvalues and O(N)
    to repeat them, no dense matrix.
    """
    if SymbolClass.HERMITIAN not in classify(f):
        raise ValueError("DPP kernel requires a Hermitian symbol")
    shape = TreeShape(q, n)
    # classify demands h(-m) == conj(h(m)) exactly, so each T_k, like the
    # dense kernel, is Hermitian bit for bit
    eigvals = _block_spectrum(f, shape, np.linalg.eigvalsh)
    if eigvals[0] < -EIG_CLAMP or eigvals[-1] > 1 + EIG_CLAMP:
        raise ValueError(
            f"eigenvalues [{eigvals[0]:.3e}, {eigvals[-1]:.3e}] leave [0, 1] "
            f"by more than {EIG_CLAMP}; symbol does not define a [0, 1] kernel"
        )
    return DppKernel(np.clip(eigvals, 0.0, 1.0), shape, f)


def _choose(rng: np.random.Generator, marginals: np.ndarray) -> int:
    """Index i drawn with probability marginals[i] / marginals.sum().

    These are the steps of rng.choice(N, p=marginals / marginals.sum()),
    without its per-call checks: the same cdf and the same one uniform, so
    the same index.  A total that is NaN, 0 or inf raises ValueError, as
    choice does.
    """
    total = marginals.sum()
    if not 0 < total < math.inf:
        raise ValueError(f"the marginals sum to {total}; no point can be drawn")
    cdf = (marginals / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


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
        i = _choose(rng, np.maximum(p, 0.0))
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
    return DppSample(tuple(_sample_with_rng(kernel, rng)), int(seed))


def _seed_array(n_samples: int, seed: int) -> np.ndarray:
    """sample_seeds as an int64 array: 8 bytes a seed, not a Python int."""
    return np.random.default_rng(seed).integers(0, 2**63, size=n_samples)


def sample_seeds(n_samples: int, seed: int) -> list:
    """Per-sample seeds split off the base seed: draw t of a run is the
    draw of seed sample_seeds(n_samples, seed)[t]."""
    return _seed_array(n_samples, seed).tolist()


def sample_many(kernel: DppKernel, n_samples: int, seed: int):
    """Independent spectral draws with per-sample seeds split off the base seed."""
    return [sample(kernel, s) for s in sample_seeds(n_samples, seed)]


def _chains(kernel: DppKernel, samples: int, decide) -> np.ndarray:
    """Occupancy (samples, N) of chain draws run side by side.

    decide(lo, hi, p) says which of vertices lo..hi-1 (one generation) are
    taken given their marginals p: a row per sample, or one row for all.
    """
    shape, f = kernel.shape, kernel.symbol
    q, n, N, starts = shape.q, shape.depth, shape.vertex_count, shape.generation_starts
    r, sizes = min(n, f.support_radius), shape.generation_sizes
    # K[v, v] and band[d - 1] = K[v, anc_d(v)] of the unconditioned kernel,
    # the same for every v under uniform weights: read down the leftmost ray
    entry, root = BranchingOperator.uniform(q, n, f).entry, Vertex(0, 0)
    band = np.array([entry(Vertex(d, 0), root) for d in range(1, r + 1)])
    if not band.imag.any():  # same draws as complex, 0.18 s not 0.24 s for 1000 at (2, 11)
        band = band.real
    diag = np.full((samples, N), entry(root, root).real)
    L = np.zeros((samples, N, r), dtype=band.dtype)
    for d in range(1, r + 1):
        L[:, starts[d] :, d - 1] = band[d - 1]
    occupied = np.zeros((samples, N), dtype=bool)
    for g in range(n, -1, -1):
        lo, hi = starts[g], starts[g + 1]
        p = diag[:, lo:hi]
        taken = occupied[:, lo:hi] = decide(lo, hi, p)
        rg = min(r, g)
        if not rg:
            continue
        Lg = L[:, lo:hi, :rg]
        scaled = Lg.conj() / (p - ~taken)[..., None]
        for d in range(1, rg + 1):
            # K[anc_d, anc_e] -= conj(L[v, d]) L[v, e] / (p - [v not taken])
            # for e = d..rg, summed over the q^d vertices below anc_d
            a, m = starts[g - d], sizes[g - d]
            upd = (scaled[..., d - 1, None] * Lg[..., d - 1 :]).reshape(samples, m, -1, rg - d + 1).sum(axis=2)
            diag[:, a : a + m] -= upd[..., 0].real
            L[:, a : a + m, : rg - d] -= upd[..., 1:]
    return occupied


def _chain_bytes(kernel: DppKernel) -> int:
    """Sampler state of one chain draw: per vertex a uniform and a
    diagonal entry, an occupancy byte and a band of r complex entries."""
    r = min(kernel.shape.depth, kernel.symbol.support_radius)
    return kernel.shape.vertex_count * (17 + 16 * r)


def _chain_occupancy(kernel: DppKernel, seeds) -> np.ndarray:
    """Boolean (N, len(seeds)) occupancy of the draws of sample_chains:
    column t marks the points of the draw of seeds[t].  The draws of at
    least POINTS_BLOCK seeds are staged as rows and copied into X at once,
    not each as N one-byte writes len(seeds) bytes apart."""
    N = kernel.shape.vertex_count
    chunk = max(1, CHUNK_BYTES // _chain_bytes(kernel))
    block = chunk * math.ceil(POINTS_BLOCK / chunk)
    X = np.empty((N, len(seeds)), dtype=bool)
    for a in range(0, len(seeds), block):
        staged = np.empty((min(block, len(seeds) - a), N), dtype=bool)
        for i in range(0, len(staged), chunk):
            part = seeds[a + i : a + i + chunk]
            # one random(N) per draw, generation n first, then n - 1, ...:
            # vertices lo..hi-1 take U[:, N - hi : N - lo]
            U = np.empty((len(part), N))
            for row, s in zip(U, part):
                np.random.default_rng(s).random(out=row)
            # u in [0, 1) takes v whenever p >= 1 and never when p <= 0, so
            # rounding outside [0, 1] needs no clamp and no pivot is 0
            staged[i : i + len(part)] = _chains(kernel, len(part), lambda lo, hi, p: U[:, N - hi : N - lo] < p)
        X[:, a : a + len(staged)] = staged.T
    return X


def _points(X: np.ndarray):
    """The points of each draw, column by column of X, as sorted lists of
    ints; the columns are read a block at a time, copied contiguous as
    rows, by one np.nonzero split by draw: it lists the points row by row,
    each row's in ascending order."""
    for a in range(0, X.shape[1], POINTS_BLOCK):
        rows = np.ascontiguousarray(X[:, a : a + POINTS_BLOCK].T)
        points = np.nonzero(rows)[1]
        start = 0
        for end in np.count_nonzero(rows, axis=1).cumsum().tolist():
            yield points[start:end].tolist()
            start = end


def sample_chains(kernel: DppKernel, seeds) -> list:
    """Chain-rule draws of the point process with kernel K, one per seed.

    Draw t depends on seeds[t] alone.  The draws run side by side in
    chunks of about CHUNK_BYTES of sampler state.
    """
    X = _chain_occupancy(kernel, seeds)
    return [DppSample(tuple(points), int(s)) for points, s in zip(_points(X), seeds)]


def sample_chain(kernel: DppKernel, seed: int) -> DppSample:
    """One chain-rule draw of the point process with kernel K.

    Reads only kernel.shape and kernel.symbol.  Same law as sample, but a
    different use of the seed, so the two give different points.
    """
    return sample_chains(kernel, [seed])[0]


def _jsonl_line(seed: int, points: list) -> str:
    """json.dumps({"seed": seed, "occupied": points}) + newline, for ints:
    a list of ints prints as its JSON array."""
    return f'{{"seed": {seed}, "occupied": {points}}}\n'


def samples_to_jsonl(samples) -> str:
    # an empty list gives one empty line
    return "".join(_jsonl_line(s.rng_seed, list(s.occupied)) for s in samples) or "\n"


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
    return _statistics(kernel, _occupancy(draws, kernel.dim))


def _pairs(X: np.ndarray, shape: TreeShape, d: int):
    """Per-sample counts of pair[v] = X[v] & X[anc_d(v)] over the vertices
    v of generation >= d, anc_d(v) being v's ancestor d generations up
    (d = 0 gives X[v]), and each ray's estimate from the n + 1 - d pairs
    down it, as _mean_se lists with a row per leaf in level order.

    R(v) = R(parent v) + pair[v], a generation at a time, leaves each ray's
    sum at its leaf; a path (q = 1) is its one ray, so there the ray sum is
    the count.  The estimates are reduced a block of about CHUNK_BYTES of
    float rows at a time: each row is reduced on its own, so they are those
    of all rays at once.
    """
    q, n, starts = shape.q, shape.depth, shape.generation_starts
    N, samples = X.shape
    if q == 1:
        count = (X[d:] & X[: N - d]).sum(axis=0)
        R = count[None]
    else:
        count, R = 0, np.zeros((1, samples), dtype=np.uint8)
        for g in range(d, n + 1):
            # generation g, grouped under its q^(g - d) ancestors d generations up
            top = X[starts[g - d] : starts[g - d + 1], None]
            gen = X[starts[g] : starts[g + 1]].reshape(len(top), -1, samples)
            # the pair bits go into the bytes of the new ray sums, whose parent
            # sums are added in place; a bool sum counts in int64, a uint8 one
            # in uint64, which the incomparable count would turn into float64
            sums = np.empty(gen.shape, dtype=np.uint8)
            pair = np.bitwise_and(gen, top, out=sums.view(bool))
            count = count + pair.sum(axis=(0, 1))
            # a ray sum is at most n + 1 < 64 on any tree with q >= 2 that fits in memory
            sums.reshape(len(R), -1, samples)[...] += R[:, None]
            R = sums.reshape(-1, samples)
    estimates, ses = [], []
    block = max(1, CHUNK_BYTES // (8 * samples))
    for a in range(0, len(R), block):
        m, se = _mean_se(R[a : a + block] / (n + 1 - d))
        estimates += m
        ses += se
    return count, estimates, ses


def chain_run(kernel: DppKernel, samples: int, seed: int):
    """The run of `btoep dpp`: the chain draws of the seeds
    sample_seeds(samples, seed), as (lines, report).  report is their
    sssp_statistics; lines yields the lines of their samples_to_jsonl one
    at a time, each formatted from the occupancy matrix as it is read."""
    seeds = _seed_array(samples, seed)
    X = _chain_occupancy(kernel, seeds)
    # the seeds become ints a block at a time, as the points do
    ints = (s for a in range(0, samples, POINTS_BLOCK) for s in seeds[a : a + POINTS_BLOCK].tolist())
    return map(_jsonl_line, ints, _points(X)), _statistics(kernel, X)


def _statistics(kernel: DppKernel, X: np.ndarray) -> SsspReport:
    """sssp_statistics of the draws whose occupancy X holds: X[v, t] marks
    vertex v in draw t."""
    samples = X.shape[1]
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples for stable diagnostics")
    shape = kernel.shape
    q, n, N = shape.q, shape.depth, kernel.dim
    starts = shape.generation_starts
    f0 = kernel.symbol.coeff(0).real

    one_point = {g: (f0, *_mean_se(X[starts[g] : starts[g + 1]].mean(axis=0))) for g in range(n + 1)}

    # comparable pairs at distance d: each vertex of generation >= d with
    # its ancestor d generations up; the ray-invariance checks pool them
    # along each ray (d = 0: the one-point rows).  Every other pair is
    # incomparable.
    ray_pair, spread, z = {}, {}, []
    comparable = np.zeros(samples, dtype=int)
    incomparable_pairs = N * (N - 1) // 2
    for d in range(n + 1):
        count, estimates, ses = _pairs(X, shape, d)
        if d == 0:
            size, analytic = count, f0
        else:
            comparable += count
            incomparable_pairs -= N - starts[d]
            analytic = f0**2 - q ** (-d) * abs(kernel.symbol.coeff(d)) ** 2
            ray_pair[d] = (analytic, *_mean_se(count / (N - starts[d])))
            spread[d] = (max(estimates) - min(estimates), 4 * max(ses))
        z.append(_max_abs_z(estimates, ses, analytic))
    # Sidak: m two-sided tests, each at level 1 - (1 - RAY_LEVEL)^(1/m),
    # keep the family-wise level at most RAY_LEVEL for jointly normal z
    # whatever their correlation; there are q^n rays and n + 1 distances
    tail = -math.expm1(math.log1p(-RAY_LEVEL) / (shape.generation_sizes[n] * (n + 1)))
    ray_invariance = (max(z), -NormalDist().inv_cdf(tail / 2))

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
        one_point=one_point,
        ray_pair_corr=ray_pair,
        incomparable_pair_corr=incomparable,
        across_ray_spread=spread,
        cardinality=cardinality,
        cardinality_var=cardinality_var,
        ray_invariance=ray_invariance,
    )
