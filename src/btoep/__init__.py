"""Branching-Toeplitz operators on rooted q-homogeneous trees.

Construction and fast matrix-free application of the truncated kernels,
classical Toeplitz comparisons, spectral analysis (norms, block structure,
positivity certificates), and sampling of the induced determinantal point
processes.  The package exports exactly the ``__all__`` of its library
modules dpp, operators, spectral, symbols and tree.
"""

from .dpp import *
from .operators import *
from .spectral import *
from .symbols import *
from .tree import *

__version__ = "0.1.0"
