import dataclasses
import itertools
import json
from collections import defaultdict

import numpy as np
import pytest

from btoep import dpp
from btoep.dpp import build_kernel, sample, sample_many, samples_to_jsonl, sssp_diagnostics
from btoep.symbols import Symbol
from btoep.tree import Relation, ancestor, comparability, linear_index, vertex_from_index

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


class TestDiagnosticsOracle:
    """The pair statistics of a report, recomputed from its own draws by
    enumerating vertex pairs and leaf rays with the tree module."""

    @pytest.mark.parametrize("q, n, f", [(2, 3, RAISED_COS), (3, 2, COMPLEX_HERM)])
    def test_pair_statistics(self, q, n, f):
        kernel = build_kernel(f, q, n)
        report = sssp_diagnostics(kernel, samples=1000, seed=17)
        shape, N = kernel.shape, kernel.dim
        X = np.zeros((len(report.draws), N))
        for t, s in enumerate(report.draws):
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
