"""Branching-Toeplitz operators on rooted q-homogeneous trees.

Construction and fast matrix-free application of the truncated kernels,
classical Toeplitz comparisons, spectral analysis (norms, block structure,
positivity certificates), and sampling of the induced determinantal point
processes.
"""

from .dpp import (
    DppKernel,
    DppSample,
    build_kernel,
    sample,
    sample_chain,
    sample_chains,
    sample_many,
    sample_seeds,
    sssp_diagnostics,
    sssp_statistics,
)
from .operators import (
    BranchingOperator,
    OperatorTuple,
    WeightVector,
    gauge_transform,
    op_valued_entry,
    op_valued_materialize,
    toeplitz_dense,
)
from .spectral import (
    SpectralReport,
    block_norms,
    certify_positive,
    cn_sandwich,
    norming_vector,
    operator_norm,
    operator_norm_dense,
    radial_basis,
    radial_compress,
    singular_values,
)
from .symbols import (
    Symbol,
    SymbolClass,
    classify,
    conjugate,
    fejer_kernel,
    fejer_smooth,
    poly_product,
    rotate,
    sup_norm,
)
from .tree import Comparability, Relation, TreeShape, Vertex, comparability, linear_index

__version__ = "0.1.0"
