import math

import numpy as np
import pytest

from btoep import operators, verify


@pytest.mark.parametrize(
    "suite", [verify.run_radial_compression, verify.run_multiplicativity, verify.run_isometry]
)
def test_nan_residual_fails_the_suite(suite, monkeypatch):
    # a NaN in the compression or in the dense matrix makes a NaN residual,
    # which must fail the suite and be reported, not read as 0.0
    compress, materialize = verify.radial_compress, operators._Kernel.materialize

    def with_nan(M):
        M[0, 0] = np.nan
        return M

    monkeypatch.setattr(verify, "radial_compress", lambda op: with_nan(compress(op)))
    monkeypatch.setattr(operators._Kernel, "materialize", lambda self: with_nan(materialize(self)))
    result = suite()
    assert result.passed is False
    assert math.isnan(result.residual)
