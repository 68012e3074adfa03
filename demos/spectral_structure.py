"""Radial block structure and singular value multisets.

Three views of the same decomposition:
  1. compressing the operator to the radial subspace recovers the Toeplitz
     matrix of the symbol, entry for entry;
  2. block_norms checks that the matrix is block diagonal across
     radial/complement (M E = E T_n and M^* E = E T_n^* on the radial
     basis E), then returns the block norms ||T_n|| and ||T_{n-1}|| and,
     by construction rather than measurement, their max as the total;
  3. the full singular value list, from a dense SVD, is the union of the
     singular values of the Toeplitz truncations T_n, T_{n-1} x (q-1),
     T_{n-2} x (q-1)q, ..., which is what singular_values returns.
"""

import numpy as np

from btoep import BranchingOperator, Symbol, block_norms, radial_compress, toeplitz_dense
from btoep.spectral import singular_values

F = Symbol({-1: 0.4 - 0.2j, 0: 1, 1: 0.8 + 0.1j, 2: -0.3})
Q, N = 2, 4


def main():
    op = BranchingOperator.uniform(Q, N, F)

    C = radial_compress(op)
    T = toeplitz_dense(F, N)
    print(f"radial compression vs Toeplitz: max entry dev {np.abs(C - T).max():.2e}")

    bn = block_norms(op)
    print(f"block norms: radial {bn.radial:.8f}, complement {bn.complement:.8f}, "
          f"total {bn.total:.8f}")

    # singular_values solves the Toeplitz blocks; the dense SVD measures
    s = np.sort(np.linalg.svd(op.materialize(), compute_uv=False))
    predicted = np.sort(singular_values(op))
    print(f"dense singular values vs Toeplitz-block multiset: max dev {np.abs(s - predicted).max():.2e}")
    print(f"top five singular values: {np.round(s[::-1][:5], 8)}")


if __name__ == "__main__":
    main()
