import dataclasses
import itertools
import json
import math
import warnings
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from btoep import dpp, operators
from btoep.dpp import (
    DppSample,
    build_kernel,
    sample,
    sample_many,
    samples_to_jsonl,
    sssp_diagnostics,
    sssp_statistics,
)
from btoep.operators import DenseCapError
from btoep.symbols import Symbol
from btoep.tree import Relation, TreeShape, ancestor, comparability, linear_index, vertex_from_index

RAISED_COS = Symbol({-1: 0.25, 0: 0.5, 1: 0.25})  # (1 + cos theta) / 2
# 1/2 + 2 Re((0.2 + 0.1i) e^{i theta}) stays in [0.05, 0.95]; complex
# eigenvectors make a missing conjugate in the sampler show
COMPLEX_HERM = Symbol({-1: 0.2 - 0.1j, 0: 0.5, 1: 0.2 + 0.1j})


class TestBuildKernel:
    def test_constant_half(self):
        k = build_kernel(Symbol({0: 0.5}), 2, 2)
        assert np.allclose(k.matrix, 0.5 * np.eye(7))
        assert np.allclose(k.eigenvalues, 0.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_raised_cosine_contraction(self, n):
        k = build_kernel(RAISED_COS, 2, n)
        assert k.eigenvalues.min() >= 0.0
        assert k.eigenvalues.max() <= 1.0

    def test_sign_changing_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            build_kernel(Symbol({-1: 1, 1: 1}), 2, 3)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            build_kernel(Symbol({1: 0.5}), 2, 3)

    def test_ray_restriction_is_damped_toeplitz(self):
        k = build_kernel(RAISED_COS, 2, 4)
        q, n = 2, 4
        starts = k.shape.generation_starts
        for leaf in range(q**n):
            chain = [starts[g] + (leaf >> (n - g)) for g in range(n + 1)]
            for i, j in itertools.product(range(n + 1), repeat=2):
                expected = q ** (-abs(i - j) / 2) * k.symbol.coeff(i - j)
                assert k.matrix[chain[i], chain[j]] == pytest.approx(expected, abs=1e-14)


class TestSample:
    def test_zero_kernel_empty(self):
        k = build_kernel(Symbol({}), 2, 2)
        for seed in range(5):
            assert sample(k, seed).occupied == ()

    def test_identity_kernel_full(self):
        k = build_kernel(Symbol({0: 1}), 2, 2)
        for seed in range(5):
            assert sample(k, seed).occupied == tuple(range(7))

    def test_seed_reproducible(self):
        k = build_kernel(RAISED_COS, 2, 3)
        assert sample(k, 123) == sample(k, 123)
        draws = sample_many(k, 50, seed=7)
        again = sample_many(k, 50, seed=7)
        assert draws == again

    def test_cardinality_equals_selected_rank(self):
        # cardinality distribution: mean within 3 SE of sum of eigenvalues
        k = build_kernel(RAISED_COS, 2, 3)
        draws = sample_many(k, 4000, seed=11)
        counts = np.array([len(s.occupied) for s in draws])
        se = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(counts.mean() - k.expected_points) <= 3 * se

    def test_diagonal_kernel_iid_bernoulli(self):
        k = build_kernel(Symbol({0: 0.5}), 2, 2)
        draws = sample_many(k, 10000, seed=3)
        X = np.zeros((len(draws), 7))
        for t, s in enumerate(draws):
            X[t, list(s.occupied)] = 1
        freq = X.mean(axis=0)
        se = np.sqrt(0.25 / len(draws))
        assert np.all(np.abs(freq - 0.5) <= 3 * se + 1e-12)

    def test_jsonl_format(self):
        k = build_kernel(RAISED_COS, 2, 2)
        draws = sample_many(k, 3, seed=5)
        lines = samples_to_jsonl(draws).strip().split("\n")
        assert len(lines) == 3
        for line, s in zip(lines, draws):
            data = json.loads(line)
            assert data == {"seed": s.rng_seed, "occupied": list(s.occupied)}


class _ScriptedRng:
    """Stands in for the generator: selects every eigenvector with
    eigenvalue above 0, draws the points in a given order and multiplies up
    the probability the sampler gave each of them."""

    def __init__(self, order):
        self.order = iter(order)
        self.prob = 1.0

    def random(self, size):
        return np.zeros(size)

    def choice(self, n, p):
        i = next(self.order)
        self.prob *= p[i]
        return i


class TestExactLaw:
    """Summed over the orders of its points, the probability of a set S
    under the sampler is the projection DPP law |det V_S|^2, where V holds
    the selected eigenvectors."""

    @pytest.mark.parametrize(
        "q, n, cols",
        [(2, 2, [0]), (2, 2, [6]), (2, 2, [1, 4]), (2, 2, [0, 3, 6]), (3, 1, [0, 2]), (1, 4, [1, 2, 4]),
         (2, 3, [14]), (2, 3, [2, 9]), (2, 3, [0, 7, 13]), (2, 3, [5, 6, 12])],
    )
    def test_set_probabilities(self, q, n, cols):
        kernel = build_kernel(COMPLEX_HERM, q, n)
        lam = np.zeros(kernel.dim)
        lam[cols] = 1.0
        projection = dataclasses.replace(kernel, eigenvalues=lam)
        law = defaultdict(float)
        for order in itertools.permutations(range(kernel.dim), len(cols)):
            rng = _ScriptedRng(order)
            assert dpp._sample_with_rng(projection, rng) == sorted(order)
            law[tuple(sorted(order))] += rng.prob
        V = kernel.eigenvectors[:, cols]
        assert abs(sum(law.values()) - 1.0) <= 1e-12
        for S in itertools.combinations(range(kernel.dim), len(cols)):
            assert abs(law[S] - abs(np.linalg.det(V[list(S)])) ** 2) <= 1e-12


class _RecordingRng:
    """Stands in for the generator and keeps every probability vector the
    sampler passes to choice, with the point it returned.  With an order
    it selects every eigenvector with eigenvalue above 0 and plays that
    order; without one it draws from default_rng(seed)."""

    def __init__(self, order=None, seed=0):
        self.order = None if order is None else iter(order)
        self.rng = np.random.default_rng(seed)
        self.kept, self.drawn = [], []

    def random(self, size):
        return np.zeros(size) if self.order is not None else self.rng.random(size)

    def choice(self, n, p):
        i = next(self.order) if self.order is not None else int(self.rng.choice(n, p=p))
        self.kept.append(p.copy())
        self.drawn.append(i)
        return i


def _conditional_diagonals(V, order):
    """Row j is the diagonal of the projection kernel V V^* conditioned on
    the points order[:j], over k - j: the squared norms of the rows of
    conj(V) projected off span{conj(V[s]) : s in order[:j]}.  Householder
    QR of the chosen rows in drawing order gives nested bases of these
    spans, so one product projects off all of them."""
    k = V.shape[1]
    X = V.conj().T
    Q, _ = np.linalg.qr(X[:, order])
    removed = np.cumsum(np.abs(Q.conj().T @ X) ** 2, axis=0)
    rows = (np.abs(X) ** 2).sum(axis=0) - np.vstack([np.zeros(X.shape[1]), removed[:-1]])
    return rows / (k - np.arange(k))[:, None]


def _assert_steps(V, rng, tol):
    expected = _conditional_diagonals(V, rng.drawn)
    assert len(rng.kept) == V.shape[1]
    for j, p in enumerate(rng.kept):
        assert np.abs(p - expected[j]).max() <= tol
        # a drawn point can never be drawn again
        assert not p[rng.drawn[:j]].any()


@pytest.fixture(scope="module")
def large_kernel():
    return build_kernel(RAISED_COS, 3, 6)


class TestSamplerSteps:
    """Every probability vector the sampler draws from is the dense
    conditional diagonal, not only the law of its output."""

    @pytest.mark.parametrize("q, n", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("rank", range(1, 9))
    def test_scripted_orders(self, q, n, rank):
        kernel = build_kernel(COMPLEX_HERM, q, n)
        gen = np.random.default_rng(100 * q + rank)
        for _ in range(5):
            lam = np.zeros(kernel.dim)
            lam[gen.choice(kernel.dim, rank, replace=False)] = 1.0
            V = kernel.eigenvectors[:, lam > 0]
            # only an order of positive probability has conditionals: the
            # eigenvectors of a tree kernel vanish on whole subtrees
            order = gen.choice(kernel.dim, rank, replace=False)
            while abs(np.linalg.det(V[order])) ** 2 < 1e-6:
                order = gen.choice(kernel.dim, rank, replace=False)
            rng = _RecordingRng(order)
            dpp._sample_with_rng(dataclasses.replace(kernel, eigenvalues=lam), rng)
            _assert_steps(V, rng, 1e-12)

    def test_real_draw_at_n1093(self, large_kernel):
        rng = _RecordingRng(seed=5)
        points = dpp._sample_with_rng(large_kernel, rng)
        lam = large_kernel.eigenvalues
        V = large_kernel.eigenvectors[:, np.random.default_rng(5).random(lam.size) < lam]
        assert points == sorted(rng.drawn)
        _assert_steps(V, rng, 1e-10)


def test_large_draw_is_stable(large_kernel):
    """At N = 1093 a draw has as many distinct points as selected
    eigenvectors, and the chosen rows stay independent."""
    seed = 20261018
    lam = large_kernel.eigenvalues
    V = large_kernel.eigenvectors[:, np.random.default_rng(seed).random(lam.size) < lam]
    points = sample(large_kernel, seed).occupied
    assert len(points) == len(set(points)) == V.shape[1] > 500
    assert np.linalg.svd(V[list(points)], compute_uv=False).min() > 1e-6


@pytest.fixture(scope="module")
def raised_cos_report():
    k = build_kernel(RAISED_COS, 2, 4)
    return sssp_diagnostics(k, samples=4000, seed=42)


class TestDiagnostics:

    def test_requires_enough_samples(self):
        k = build_kernel(RAISED_COS, 2, 2)
        with pytest.raises(ValueError):
            sssp_diagnostics(k, samples=10, seed=0)

    def test_one_point_intensity(self, raised_cos_report):
        for g, (analytic, empirical, se) in raised_cos_report.one_point.items():
            assert analytic == 0.5
            assert abs(empirical - analytic) <= 4 * se

    def test_comparable_pair_values(self, raised_cos_report):
        analytic, empirical, se = raised_cos_report.ray_pair_corr[1]
        assert analytic == pytest.approx(0.21875)
        assert abs(empirical - analytic) <= 4 * se

    def test_all_distances_within_mc_error(self, raised_cos_report):
        for d, (analytic, empirical, se) in raised_cos_report.ray_pair_corr.items():
            expected = 0.25 - 2 ** (-d) * abs(RAISED_COS.coeff(d)) ** 2
            assert analytic == pytest.approx(expected)
            assert abs(empirical - analytic) <= 4 * se

    def test_incomparable_pair_factorizes(self, raised_cos_report):
        analytic, empirical, se = raised_cos_report.incomparable_pair_corr
        assert analytic == pytest.approx(0.25)
        assert abs(empirical - analytic) <= 4 * se

    def test_across_ray_invariance(self, raised_cos_report):
        for d, (spread, allowance) in raised_cos_report.across_ray_spread.items():
            assert spread <= allowance

    def test_independent_case_pairs(self):
        k = build_kernel(Symbol({0: 0.5}), 2, 2)
        report = sssp_diagnostics(k, samples=4000, seed=9)
        analytic, empirical, se = report.ray_pair_corr[1]
        assert analytic == pytest.approx(0.25)
        assert abs(empirical - analytic) <= 4 * se

    def test_csv_layout(self, raised_cos_report):
        lines = raised_cos_report.to_csv().strip().split("\n")
        assert lines[0] == "statistic,analytic,empirical,stderr"
        names = [l.split(",")[0] for l in lines[1:]]
        assert "one_point_gen0" in names
        assert "comparable_pair_d1" in names
        assert "incomparable_pair" in names
        assert "cardinality_mean" in names
        assert names[names.index("cardinality_mean") + 1] == "cardinality_var"

    def test_cardinality_variance(self, raised_cos_report):
        analytic, empirical, se = raised_cos_report.cardinality_var
        assert abs(empirical - analytic) <= 4 * se


def _cardinality_law(K):
    """Law of |S| summed over all 2^N sets S, each of probability
    |det(K - I_{S^c})|."""
    N = K.shape[0]
    law = np.zeros(N + 1)
    inside = (np.arange(2**N)[:, None] >> np.arange(N)) & 1
    for chunk in np.array_split(inside, max(1, 2**N // 4096)):
        dets = np.linalg.det(K - (1 - chunk)[:, :, None] * np.eye(N))
        law += np.bincount(chunk.sum(axis=1), weights=np.abs(dets), minlength=N + 1)
    return law


class TestCardinalityVariance:
    """The analytic cardinality_var is the variance of |S| under the exact
    law, a Poisson-binomial with one Bernoulli(lambda) per eigenvalue."""

    @pytest.mark.parametrize(
        "q, n, f", [(2, 2, RAISED_COS), (2, 3, RAISED_COS), (2, 3, COMPLEX_HERM), (3, 2, COMPLEX_HERM), (1, 6, COMPLEX_HERM)]
    )
    def test_brute_force_variance(self, q, n, f):
        kernel = build_kernel(f, q, n)
        law = _cardinality_law(kernel.matrix)
        poisson_binomial = np.ones(1)
        for lam in kernel.eigenvalues:
            poisson_binomial = np.convolve(poisson_binomial, [1 - lam, lam])
        assert np.abs(law - poisson_binomial).max() <= 1e-12
        m = np.arange(kernel.dim + 1)
        analytic = sssp_diagnostics(kernel, samples=1000, seed=3).cardinality_var[0]
        assert abs(analytic - (law @ m**2 - (law @ m) ** 2)) <= 1e-12


class TestDiagnosticsOracle:
    """The pair statistics of a report, recomputed from its own draws by
    enumerating vertex pairs and leaf rays with the tree module."""

    @pytest.mark.parametrize("q, n, f", [(2, 3, RAISED_COS), (3, 2, COMPLEX_HERM)])
    def test_pair_statistics(self, q, n, f):
        kernel = build_kernel(f, q, n)
        draws = sample_many(kernel, 1000, 17)
        report = sssp_statistics(kernel, draws)
        shape, N = kernel.shape, kernel.dim
        X = np.zeros((len(draws), N))
        for t, s in enumerate(draws):
            X[t, list(s.occupied)] = 1.0

        def mean_se(pairs):
            i, j = np.array(pairs).T
            per = (X[:, i] * X[:, j]).mean(axis=1)
            return per.mean(), per.std(ddof=1) / np.sqrt(per.size)

        vs = [vertex_from_index(i, shape) for i in range(N)]
        comparable, incomparable = defaultdict(list), []
        for i, j in itertools.combinations(range(N), 2):
            rel = comparability(vs[i], vs[j], shape)
            if rel.relation is Relation.INCOMPARABLE:
                incomparable.append((i, j))
            else:
                comparable[rel.distance].append((i, j))
        assert sorted(report.ray_pair_corr) == sorted(comparable) == list(range(1, n + 1))
        for d, pairs in comparable.items():
            assert np.abs(np.subtract(report.ray_pair_corr[d][1:], mean_se(pairs))).max() <= 1e-15
        assert np.abs(np.subtract(report.incomparable_pair_corr[1:], mean_se(incomparable))).max() <= 1e-15

        leaves = [v for v in vs if v.generation == n]
        for d, (spread, allowance) in report.across_ray_spread.items():
            per_ray = []
            for leaf in leaves:
                ray = [linear_index(ancestor(leaf, n - g, q), shape) for g in range(n + 1)]
                per_ray.append(mean_se([(ray[g], ray[g + d]) for g in range(n + 1 - d)]))
            means, ses = np.array(per_ray).T
            assert abs(spread - (means.max() - means.min())) <= 1e-15
            assert abs(allowance - 4 * ses.max()) <= 1e-15


class TestExactFactorization:
    def test_incomparable_triples_diagonal_determinant(self):
        k = build_kernel(RAISED_COS, 2, 3)
        shape = k.shape
        vs = [vertex_from_index(i, shape) for i in range(shape.vertex_count)]
        triples = 0
        for i, j, l in itertools.combinations(range(len(vs)), 3):
            if all(
                comparability(vs[a], vs[b], shape).relation is Relation.INCOMPARABLE
                for a, b in ((i, j), (i, l), (j, l))
            ):
                sub = k.matrix[np.ix_([i, j, l], [i, j, l])]
                det = np.linalg.det(sub)
                prod = sub[0, 0] * sub[1, 1] * sub[2, 2]
                assert abs(det - prod) <= 1e-12
                triples += 1
        assert triples > 0


# radius 2 and 3, complex: values stay in [0.04, 0.96] and [0.006, 0.994]
RADIUS2 = Symbol({-2: 0.06 + 0.06j, -1: 0.12 - 0.08j, 0: 0.5, 1: 0.12 + 0.08j, 2: 0.06 - 0.06j})
RADIUS3 = Symbol({-3: -0.08 - 0.03j, -2: -0.05j, -1: 0.1 - 0.05j, 0: 0.5,
                  1: 0.1 + 0.05j, 2: 0.05j, 3: -0.08 + 0.03j})


class _Path:
    """What _PathRng.random returns: compared with the marginals p, it
    gives the path's decisions for those vertices and multiplies up the
    probability the sampler gave them."""

    def __init__(self, rng, bits):
        self.rng, self.bits = rng, bits

    def __lt__(self, p):
        self.rng.prob *= np.where(self.bits, p, 1 - p).prod()
        return self.bits


class _PathRng:
    """Stands in for the generator of the chain sampler and plays one
    decision path: bit i says whether vertex i is taken.  The sampler asks
    for one generation at a time, deepest first."""

    def __init__(self, bits):
        self.bits, self.end, self.prob = bits, bits.size, 1.0

    def random(self, size):
        self.end -= size
        return _Path(self, self.bits[self.end : self.end + size])


def _play(kernel, rng):
    """Points of the chain draw that asks rng for its uniforms."""
    return np.flatnonzero(dpp._chains(kernel, 1, lambda lo, hi: rng.random(hi - lo))).tolist()


def _set_laws(K):
    """Every set S as a boolean row, and |det(K - I_{S^c})| for each."""
    N = K.shape[0]
    inside = (np.arange(2**N)[:, None] >> np.arange(N)) & 1 == 1
    law = np.concatenate([
        np.abs(np.linalg.det(K - (~chunk)[:, :, None] * np.eye(N)))
        for chunk in np.array_split(inside, max(1, 2**N // 4096))
    ])
    return inside, law


class TestChainExactLaw:
    """Summed over all 2^N decision paths, the chain sampler gives each set
    S the probability |det(K - I_{S^c})|, the law of the DPP with kernel K."""

    @pytest.mark.parametrize(
        "q, n, f",
        [(2, 2, COMPLEX_HERM), (2, 2, RADIUS2), (3, 1, RADIUS2), (2, 2, RADIUS3), (1, 6, COMPLEX_HERM),
         (1, 8, RADIUS3), (3, 2, COMPLEX_HERM), (2, 3, RADIUS3)],
    )
    def test_set_probabilities(self, q, n, f):
        kernel = build_kernel(f, q, n)
        sets, law = _set_laws(kernel.matrix)
        probs = np.empty(law.size)
        for i, bits in enumerate(sets):
            rng = _PathRng(bits)
            assert _play(kernel, rng) == np.flatnonzero(bits).tolist()
            probs[i] = rng.prob
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert np.abs(probs - law).max() <= 1e-12

    @pytest.mark.parametrize("q, n, f", [(3, 3, COMPLEX_HERM), (2, 6, RAISED_COS), (4, 3, RADIUS3)])
    def test_drawn_sets_at_larger_n(self, q, n, f):
        # too many sets to enumerate: check the sets the sampler draws, the
        # probability of a path is |det(K - I_{S^c})| to 1e-12 relative
        kernel = build_kernel(f, q, n)
        for seed in range(10):
            points = dpp.sample_chain(kernel, seed).occupied
            bits = np.zeros(kernel.dim, dtype=bool)
            bits[list(points)] = True
            rng = _PathRng(bits)
            assert tuple(_play(kernel, rng)) == points
            _, logdet = np.linalg.slogdet(kernel.matrix - np.diag(~bits * 1.0))
            assert abs(np.log(rng.prob) - logdet) <= 1e-12


class TestSampleChain:
    def test_reads_only_shape_and_symbol(self):
        kernel = build_kernel(COMPLEX_HERM, 3, 3)
        bare = SimpleNamespace(shape=kernel.shape, symbol=kernel.symbol)
        for seed in range(5):
            assert dpp.sample_chain(bare, seed) == dpp.sample_chain(kernel, seed)

    @pytest.mark.parametrize("q, n", [(1, 0), (1, 5), (2, 0), (3, 0)])
    def test_path_and_lone_root_quiet(self, q, n, capfd):
        kernel = build_kernel(RADIUS3, q, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = [dpp.sample_chain(kernel, s) for s in range(200)]
        assert capfd.readouterr().err == ""
        counts = np.bincount([i for s in draws for i in s.occupied], minlength=kernel.dim)
        assert counts.size == kernel.dim and 0 < counts.min() and counts.max() < 200

    def test_radius_beyond_depth(self):
        # radius 3 on depth 1: only the parent band exists
        kernel = build_kernel(RADIUS3, 4, 1)
        bits = np.zeros(5, dtype=bool)
        rng = _PathRng(bits)
        assert _play(kernel, rng) == []
        assert rng.prob == pytest.approx(abs(np.linalg.det(kernel.matrix - np.eye(5))), abs=1e-15)

    def test_zero_symbol_no_points(self):
        kernel = build_kernel(Symbol({}), 2, 3)
        for seed in range(5):
            assert dpp.sample_chain(kernel, seed).occupied == ()

    def test_identity_symbol_every_vertex(self):
        kernel = build_kernel(Symbol({0: 1}), 2, 3)
        for seed in range(5):
            assert dpp.sample_chain(kernel, seed).occupied == tuple(range(15))

    def test_seed_reproducible(self):
        kernel = build_kernel(RADIUS2, 2, 4)
        assert dpp.sample_chain(kernel, 123) == dpp.sample_chain(kernel, 123)
        draws = [dpp.sample_chain(kernel, s).occupied for s in range(20)]
        assert len(set(draws)) == 20

    def test_cardinality_two_sample(self):
        # two-sample Kolmogorov-Smirnov at level 1e-3 between the sizes of
        # chain draws and Poisson-binomial draws: a spectral draw keeps each
        # eigenvector with probability its eigenvalue and has one point each
        kernel = build_kernel(COMPLEX_HERM, 2, 5)
        m, lam = 3000, kernel.eigenvalues
        chain = [len(dpp.sample_chain(kernel, s).occupied) for s in dpp.sample_seeds(m, 8)]
        spectral = (np.random.default_rng(9).random((m, lam.size)) < lam).sum(axis=1)
        grid = np.arange(kernel.dim + 1)
        ecdf = [np.searchsorted(np.sort(x), grid, side="right") / m for x in (chain, spectral)]
        assert np.abs(ecdf[0] - ecdf[1]).max() <= 1.949 * np.sqrt(2 / m)

    def test_large_tree_without_dense_kernel(self):
        # N = 131,071: far over the dense cap, and the mean intensity is
        # h(0) within 5 standard errors (|S| has variance at most N / 4)
        shape = TreeShape(2, 16)
        bare = SimpleNamespace(shape=shape, symbol=RAISED_COS)
        N = shape.vertex_count
        for seed in range(3):
            points = dpp.sample_chain(bare, seed).occupied
            assert list(points) == sorted(set(points)) and 0 <= points[0] and points[-1] < N
            assert abs(len(points) / N - 0.5) <= 5 * 0.5 / np.sqrt(N)


class TestSampleChains:
    """The batched chain sampler draws, seed for seed, what sample_chain
    draws, however the seeds fall into chunks."""

    @pytest.mark.parametrize(
        "q, n, f", [(2, 5, RAISED_COS), (2, 6, RAISED_COS), (3, 4, RADIUS3), (1, 9, RADIUS3), (2, 0, RADIUS3)]
    )
    @pytest.mark.parametrize("chunk", [None, 7])
    def test_equals_single_draws(self, q, n, f, chunk, monkeypatch):
        kernel = build_kernel(f, q, n)
        seeds = dpp.sample_seeds(1000, 100 * q + n)
        single = [dpp.sample_chain(kernel, s) for s in seeds]
        sizes = []
        chains = dpp._chains
        monkeypatch.setattr(dpp, "_chains", lambda k, m, u: sizes.append(m) or chains(k, m, u))
        if chunk:
            # 142 chunks of 7 draws and a last one of 6
            monkeypatch.setattr(dpp, "CHAIN_CHUNK_BYTES", chunk * dpp._chain_bytes(kernel))
        assert dpp.sample_chains(kernel, seeds) == single
        assert sum(sizes) == 1000
        if chunk:
            assert sizes == [7] * 142 + [6]

    def test_large_tree_shares_chunks(self, monkeypatch):
        # N = 131,071, far over the dense cap; two draws share a chunk
        bare = SimpleNamespace(shape=TreeShape(2, 16), symbol=RAISED_COS)
        monkeypatch.setattr(dpp, "CHAIN_CHUNK_BYTES", 2 * dpp._chain_bytes(bare))
        seeds = [5, 6, 7]
        assert dpp.sample_chains(bare, seeds) == [dpp.sample_chain(bare, s) for s in seeds]

    def test_no_seeds(self):
        assert dpp.sample_chains(build_kernel(RAISED_COS, 2, 3), []) == []


HERMITIAN_SYMBOLS = [RAISED_COS, COMPLEX_HERM, RADIUS2, RADIUS3, Symbol({0: 0.5}), Symbol({}), Symbol({0: 1})]


class TestKernelSpectrum:
    """build_kernel takes the spectrum from the Toeplitz blocks; the dense
    matrix and its eigenbasis are built only when read."""

    @pytest.mark.parametrize("f", HERMITIAN_SYMBOLS)
    @pytest.mark.parametrize("q, depths", [(1, [*range(10), 63]), (2, range(9)), (3, range(6))])
    def test_eigenvalues_match_dense(self, f, q, depths):
        for n in depths:
            kernel = build_kernel(f, q, n)
            dense = np.clip(np.linalg.eigh(kernel.matrix)[0], 0.0, 1.0)
            assert kernel.eigenvalues.shape == dense.shape
            assert np.abs(kernel.eigenvalues - dense).max() <= 1e-12

    def test_no_dense_step(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense step ran")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(operators._Kernel, "materialize", refuse)
        kernel = build_kernel(RADIUS3, 3, 4)
        assert kernel.dim == kernel.eigenvalues.size == 121
        assert np.all(np.diff(kernel.eigenvalues) >= 0)
        for f in (Symbol({-1: 1, 1: 1}), Symbol({1: 0.5})):
            with pytest.raises(ValueError, match="eigenvalue|Hermitian"):
                build_kernel(f, 2, 3)

    def test_dense_cap(self):
        # N = 8191: the spectrum is there, the dense matrix is over the cap
        kernel = build_kernel(RAISED_COS, 2, 12)
        assert kernel.eigenvalues.size == 8191
        assert abs(kernel.expected_points - 8191 * 0.5) <= 1e-9
        with pytest.raises(DenseCapError):
            kernel.matrix
        with pytest.raises(DenseCapError):
            kernel.eigenvectors

    def test_dense_basis_once_per_kernel(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or eigh(M))
        kernel = build_kernel(COMPLEX_HERM, 2, 3)
        assert calls == []
        sample_many(kernel, 5, seed=1)
        assert calls == [(15, 15)]
        assert kernel.matrix is kernel.matrix


def test_sample_many_unchanged():
    """The spectral sampler's draws stay those of earlier releases."""
    draws = sample_many(build_kernel(COMPLEX_HERM, 2, 3), 4, seed=2026)
    assert [(s.rng_seed, s.occupied) for s in draws] == [
        (1650382356873837781, (1, 3, 6, 8, 10, 12, 13)),
        (5902157198672373343, (1, 2, 5, 8, 9, 10, 12, 14)),
        (4309790304812660981, (3, 6, 9, 10, 11)),
        (3417264201368325689, (0, 1, 4, 5, 6, 7, 8, 9, 12, 13)),
    ]
    assert [s.rng_seed for s in draws] == dpp.sample_seeds(4, 2026)


def test_sample_chains_unchanged():
    """The chain sampler's draws stay those of earlier releases."""
    draws = dpp.sample_chains(build_kernel(COMPLEX_HERM, 2, 3), dpp.sample_seeds(4, 2026))
    assert [(s.rng_seed, s.occupied) for s in draws] == [
        (1650382356873837781, (2, 4, 5, 6, 7, 9, 10, 14)),
        (5902157198672373343, (2, 3, 4, 6, 8, 9, 11, 12)),
        (4309790304812660981, (0, 1, 6, 8, 9, 12)),
        (3417264201368325689, (2, 3, 4, 5, 6, 8, 9, 10, 14)),
    ]


CSV_COMPLEX_HERM_2_3 = """\
statistic,analytic,empirical,stderr
one_point_gen0,0.5,0.494,0.015818160898606833
one_point_gen1,0.5,0.509,0.011024542645413483
one_point_gen2,0.5,0.49725,0.00789729731014382
one_point_gen3,0.5,0.50175,0.005659413968465857
comparable_pair_d1,0.225,0.2245714285714286,0.004684737248728068
comparable_pair_d2,0.25,0.255,0.005199019867759994
comparable_pair_d3,0.25,0.2475,0.008902837216893866
incomparable_pair,0.25,0.25157746478873244,0.003991293372506194
cardinality_mean,7.5,7.515,0.055990266206814104
cardinality_var,3.0500000000000003,3.13490990990991,0.13897488226350624
across_ray_spread_d1,0.0,0.020666666666666667,0.03674671397083446
across_ray_spread_d2,0.0,0.038000000000000006,0.03806132767869068
across_ray_spread_d3,0.0,0.03,0.05551109331909688
ray_invariance_max_abs_z,0.0,2.1125436611700463,4.164050097560516
"""

CSV_RADIUS2_1_6 = """\
statistic,analytic,empirical,stderr
one_point_gen0,0.5,0.5,0.015819299929208316
one_point_gen1,0.5,0.502,0.01581917337430266
one_point_gen2,0.5,0.497,0.015819015179246818
one_point_gen3,0.5,0.492,0.015817274929209084
one_point_gen4,0.5,0.513,0.01581395210189664
one_point_gen5,0.5,0.504,0.01581879370351084
one_point_gen6,0.5,0.485,0.01581217964181488
comparable_pair_d1,0.22920000000000001,0.22766666666666663,0.0064539900310315
comparable_pair_d2,0.24280000000000002,0.2454,0.006848776952547495
comparable_pair_d3,0.25,0.246,0.006939535802714557
comparable_pair_d4,0.25,0.24866666666666665,0.007601198765136427
comparable_pair_d5,0.25,0.2485,0.009114868667777437
comparable_pair_d6,0.25,0.234,0.01339490288966006
incomparable_pair,0.25,nan,nan
cardinality_mean,3.5,3.493,0.03743464107417557
cardinality_var,1.4284,1.4013523523523523,0.06194444031301562
across_ray_spread_d1,0.0,0.0,0.025815960124126
across_ray_spread_d2,0.0,0.0,0.02739510781018998
across_ray_spread_d3,0.0,0.0,0.02775814321085823
across_ray_spread_d4,0.0,0.0,0.03040479506054571
across_ray_spread_d5,0.0,0.0,0.03645947467110975
across_ray_spread_d6,0.0,0.0,0.05357961155864024
ray_invariance_max_abs_z,0.0,1.1944842102850095,3.8030622836266756
"""


@pytest.mark.parametrize(
    "f, q, n, seed, expected",
    [(COMPLEX_HERM, 2, 3, 7, CSV_COMPLEX_HERM_2_3), (RADIUS2, 1, 6, 8, CSV_RADIUS2_1_6)],
    ids=["complex_herm-2-3", "radius2-1-6"],
)
def test_diagnostics_csv_unchanged(f, q, n, seed, expected):
    """The diagnostics of fixed chain draws stay those of earlier releases,
    byte for byte; only the analytic cardinality cells, sums of LAPACK
    eigenvalues, are compared to 1e-12."""
    kernel = build_kernel(f, q, n)
    csv = sssp_statistics(kernel, dpp.sample_chains(kernel, dpp.sample_seeds(1000, seed))).to_csv()
    assert csv.endswith("\n")
    for row, pinned in zip(csv.splitlines(), expected.splitlines(), strict=True):
        if row.startswith("cardinality_"):
            name, analytic, rest = row.split(",", 2)
            pinned_name, pinned_analytic, pinned_rest = pinned.split(",", 2)
            assert abs(float(analytic) - float(pinned_analytic)) <= 1e-12
            row, pinned = (name, rest), (pinned_name, pinned_rest)
        assert row == pinned


class TestRayInvariance:
    """The ray_invariance row: per-ray one-point and pair estimates against
    their analytic values, max |z| over rays and distances, compared with
    Sidak's critical value at family-wise level RAY_LEVEL."""

    def test_oracle(self):
        kernel = build_kernel(COMPLEX_HERM, 3, 2)
        draws = [dpp.sample_chain(kernel, s) for s in dpp.sample_seeds(1000, 21)]
        report = dpp.sssp_statistics(kernel, draws)
        shape, q, n = kernel.shape, 3, 2
        X = np.zeros((len(draws), kernel.dim))
        for t, s in enumerate(draws):
            X[t, list(s.occupied)] = 1.0
        f0 = COMPLEX_HERM.coeff(0).real
        worst = 0.0
        for d in range(n + 1):
            analytic = f0 if d == 0 else f0**2 - q ** (-d) * abs(COMPLEX_HERM.coeff(d)) ** 2
            means, ses = [], []
            for leaf in map(vertex_from_index, range(shape.generation_starts[n], kernel.dim), itertools.repeat(shape)):
                ray = [linear_index(ancestor(leaf, n - g, q), shape) for g in range(n + 1)]
                per = np.mean([X[:, ray[g]] * X[:, ray[g + d]] if d else X[:, ray[g]] for g in range(n + 1 - d)], axis=0)
                means.append(per.mean())
                ses.append(per.std(ddof=1) / np.sqrt(per.size))
            worst = max(worst, np.abs(np.subtract(means, analytic)).max() / np.sqrt(np.mean(np.square(ses))))
        z, critical = report.ray_invariance
        assert abs(z - worst) <= 1e-12 * worst
        # Sidak: the q^n (n + 1) two-sided tests at this critical value
        # have family-wise level RAY_LEVEL
        tail = math.erfc(critical / math.sqrt(2))
        assert abs(1 - (1 - tail) ** (q**n * (n + 1)) - dpp.RAY_LEVEL) <= 1e-9 * dpp.RAY_LEVEL
        assert report.to_csv().splitlines()[-1] == f"ray_invariance_max_abs_z,0.0,{z!r},{critical!r}"

    def test_calibrated_on_exact_draws(self):
        # 200 fixed seeds of 1000 chain draws each: the false-alarm rate
        # stays within the nominal level plus 3 binomial standard errors
        kernel = build_kernel(RAISED_COS, 2, 6)
        seeds, level = range(200), dpp.RAY_LEVEL
        alarms = 0
        for seed in seeds:
            draws = dpp.sample_chains(kernel, dpp.sample_seeds(1000, seed))
            z, critical = dpp.sssp_statistics(kernel, draws).ray_invariance
            alarms += z > critical
        assert alarms <= len(seeds) * level + 3 * np.sqrt(len(seeds) * level * (1 - level))

    def test_power_on_planted_ray(self):
        # independent points, i.e. a diagonal kernel, of intensity 1/2
        # except below the root on the ray to leaf 0, where it is 0.55
        kernel = build_kernel(Symbol({0: 0.5}), 2, 6)
        p = np.full(kernel.dim, 0.5)
        rng = np.random.default_rng(4)

        def draws():
            return [DppSample(tuple(np.flatnonzero(rng.random(p.size) < p).tolist()), 0) for _ in range(1000)]

        z, critical = sssp_statistics(kernel, draws()).ray_invariance
        assert z <= critical
        p[list(kernel.shape.generation_starts[1:-1])] = 0.55
        z, critical = sssp_statistics(kernel, draws()).ray_invariance
        assert z > critical

    @pytest.mark.parametrize("f", [Symbol({}), Symbol({0: 1})])
    def test_draws_without_spread(self, f):
        # no points or every vertex in each draw: every estimate is its
        # analytic value exactly and no stderr, so z is 0 without a warning
        kernel = build_kernel(f, 2, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = sssp_statistics(kernel, [dpp.sample_chain(kernel, s) for s in range(1000)])
        assert report.ray_invariance[0] == 0.0
