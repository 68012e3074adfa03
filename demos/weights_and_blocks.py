"""Weight vectors, gauge phases, and operator-valued positivity.

The scalar weights along tree edges can be any unit vector in C^q without
changing the singular values of the truncation, and a diagonal phase
change (gauge) only rotates the symbol.  Replacing scalar weights by a
contractive matrix tuple keeps positive symbols positive; pushing the
tuple past the contraction bound breaks positivity already at depth 1.
"""

import numpy as np

from btoep import (
    BranchingOperator,
    OperatorTuple,
    Symbol,
    fejer_kernel,
    gauge_transform,
    op_valued_materialize,
)
from btoep.spectral import singular_values
from btoep.tree import TreeShape

F = Symbol({-1: 0.3 + 0.4j, 0: 1, 1: -0.5})


def dense_singular_values(op):
    return np.linalg.svd(op.materialize(), compute_uv=False)


def main():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a /= np.linalg.norm(a)

    # singular_values solves the Toeplitz blocks, which ignore the weights;
    # the dense SVD of the weighted and gauged matrices is the measurement
    s_uniform = np.sort(singular_values(BranchingOperator.uniform(3, 3, F)))
    s_weighted = np.sort(dense_singular_values(BranchingOperator.with_weights(a, 3, F)))
    print(f"weighted vs uniform singular values: max dev {np.abs(s_uniform - s_weighted).max():.2e}")

    op = BranchingOperator.uniform(3, 3, F)
    s_gauged = np.sort(dense_singular_values(gauge_transform(op, 1.1)))
    print(f"gauge transform singular values:     max dev {np.abs(s_uniform - s_gauged).max():.2e}")

    mats = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    A = OperatorTuple(mats)
    A = OperatorTuple(mats / np.sqrt(A.contraction_norm * 1.001))
    M = op_valued_materialize(A, fejer_kernel(2), TreeShape(2, 3))
    print(f"contractive tuple ({A.contraction_norm:.3f}): min eigenvalue "
          f"{np.linalg.eigvalsh(M).min():+.2e}")

    B = OperatorTuple(A.matrices * np.sqrt(1.5 / A.contraction_norm))
    M_bad = op_valued_materialize(B, Symbol({-1: 1, 0: 1, 1: 1}), TreeShape(2, 1))
    print(f"violating tuple  ({B.contraction_norm:.3f}): min eigenvalue "
          f"{np.linalg.eigvalsh(M_bad).min():+.2e}")


if __name__ == "__main__":
    main()
