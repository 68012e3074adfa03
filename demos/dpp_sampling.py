"""Sampling the tree point process of the raised-cosine symbol.

(1 + cos theta)/2 maps the circle into [0, 1], so its branching kernel is
a PSD contraction and drives a determinantal point process on the
truncated tree.  The script draws samples with the batched chain-rule
sampler, as `btoep dpp` does, prints a couple of them, and compares the
empirical one-point and pair intensities with the closed forms: h(0) on the
diagonal, h(0)^2 - q^{-d} |h(d)|^2 on comparable pairs at distance d,
and plain h(0)^2 on incomparable pairs (independence).
"""

from btoep import Symbol, build_kernel, sample_chains, sample_seeds, sssp_statistics

F = Symbol({-1: 0.25, 0: 0.5, 1: 0.25})
Q, N, SAMPLES, SEED = 2, 4, 5000, 7


def main():
    kernel = build_kernel(F, Q, N)
    print(f"kernel on {kernel.dim} vertices, expected points {kernel.expected_points:.3f}")

    draws = sample_chains(kernel, sample_seeds(SAMPLES, SEED))
    for s in draws[:3]:
        print(f"  seed {s.rng_seed}: {len(s.occupied)} points {list(s.occupied)}")

    report = sssp_statistics(kernel, draws)
    print(f"\n{'statistic':<22} {'analytic':>10} {'empirical':>10} {'stderr':>9}")
    for g, (a, e, se) in sorted(report.one_point.items()):
        print(f"one_point_gen{g:<9} {a:>10.5f} {e:>10.5f} {se:>9.5f}")
    for d, (a, e, se) in sorted(report.ray_pair_corr.items()):
        print(f"comparable_pair_d{d:<5} {a:>10.5f} {e:>10.5f} {se:>9.5f}")
    a, e, se = report.incomparable_pair_corr
    print(f"{'incomparable_pair':<22} {a:>10.5f} {e:>10.5f} {se:>9.5f}")
    a, e, se = report.cardinality
    print(f"{'cardinality_mean':<22} {a:>10.5f} {e:>10.5f} {se:>9.5f}")
    a, e, se = report.cardinality_var
    print(f"{'cardinality_var':<22} {a:>10.5f} {e:>10.5f} {se:>9.5f}")
    z, critical = report.ray_invariance
    print(f"\nray invariance: max |z| over rays and distances {z:.3f}, "
          f"Sidak critical value {critical:.3f}")


if __name__ == "__main__":
    main()
