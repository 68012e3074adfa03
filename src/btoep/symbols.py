"""Finitely supported Fourier symbols and their algebra.

A symbol is a two-sided sequence of complex Fourier coefficients h(k) with
finite support; it stands for the trigonometric polynomial
sum_k h(k) e^{i k theta}.  Coefficients exactly equal to zero are dropped
on construction, so classification tests (non-negative / Hermitian /
analytic) are exact tests on stored values, never epsilon comparisons:
symbols are user-specified data, not computed quantities.

The sup norm is estimated on a dense uniform grid.  For a trigonometric
polynomial of degree m sampled at G points the relative gap between the
true sup and the grid max is at most c = (pi*m/G)^2 / 2: pick the phase
that makes f real and maximal at the true argmax; that real polynomial has
second derivative bounded by m^2 * sup|f| (Bernstein), and the nearest
grid point is within pi/G.  sup_norm reports max_grid * c / (1 - c) as the
error bound, which dominates sup|f| - max_grid because
sup|f| <= max_grid / (1 - c).
"""

from __future__ import annotations

import cmath
import json
import math
from enum import Enum

import numpy as np

__all__ = [
    "Symbol",
    "SymbolClass",
    "conjugate",
    "poly_product",
    "fejer_smooth",
    "fejer_kernel",
    "rotate",
    "sup_norm",
    "classify",
    "evaluate",
]

DEFAULT_GRID = 4096


class Symbol:
    """Immutable finitely supported coefficient sequence."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        if coeffs:
            for k, c in dict(coeffs).items():
                c = complex(c)
                if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                    raise ValueError(f"non-finite coefficient at k={k}")
                if c != 0:
                    cleaned[int(k)] = c
        object.__setattr__(self, "_coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Symbol is immutable")

    def coeff(self, k: int) -> complex:
        return self._coeffs.get(k, 0j)

    @property
    def coeffs(self) -> dict:
        return dict(self._coeffs)

    @property
    def support(self):
        return sorted(self._coeffs)

    @property
    def support_radius(self) -> int:
        if not self._coeffs:
            return 0
        return max(abs(k) for k in self._coeffs)

    def __eq__(self, other):
        return isinstance(other, Symbol) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self):
        inner = ", ".join(f"{k}: {self._coeffs[k]}" for k in self.support)
        return f"Symbol({{{inner}}})"

    # -- JSON wire format: {"coeffs": [[k, re, im], ...]} ------------------

    def to_json(self) -> str:
        rows = [[k, self._coeffs[k].real, self._coeffs[k].imag] for k in self.support]
        return json.dumps({"coeffs": rows})

    @classmethod
    def from_json(cls, text: str) -> "Symbol":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid symbol JSON: {exc}") from exc
        if not isinstance(data, dict) or not isinstance(data.get("coeffs"), list):
            raise ValueError('symbol JSON must be an object with a "coeffs" list')
        coeffs = {}
        for row in data["coeffs"]:
            if not isinstance(row, (list, tuple)) or len(row) != 3:
                raise ValueError(f"coefficient rows must be [k, re, im], got {row!r}")
            k, re, im = row
            if not isinstance(k, int) or isinstance(k, bool):
                raise ValueError(f"frequency index must be an integer, got {k!r}")
            if k in coeffs:
                raise ValueError(f"duplicate frequency index {k}")
            # JSON numbers only: float() would also take "0.5" and true
            if not {type(re), type(im)} <= {int, float}:
                raise ValueError(f"coefficient parts must be numbers, got {row!r}")
            try:
                coeffs[k] = complex(float(re), float(im))
            except OverflowError as exc:
                raise ValueError(f"coefficient parts must be finite, got {row!r}") from exc
        return cls(coeffs)


class SymbolClass(Enum):
    NONNEGATIVE_COEFFS = "A1"
    HERMITIAN = "A2"
    ANALYTIC = "A3"
    GENERAL = "general"


def conjugate(f: Symbol) -> Symbol:
    """Symbol of the pointwise complex conjugate: k -> conj(h(-k))."""
    return Symbol({-k: c.conjugate() for k, c in f.coeffs.items()})


def poly_product(f: Symbol, g: Symbol) -> Symbol:
    """Cauchy convolution of coefficients (the product of the polynomials)."""
    out = {}
    for j, cf in f.coeffs.items():
        for l, cg in g.coeffs.items():
            out[j + l] = out.get(j + l, 0j) + cf * cg
    return Symbol(out)


def fejer_smooth(f: Symbol, N: int) -> Symbol:
    """Taper coefficients by the order-N Fejer weights 1 - |k|/(N+1)."""
    if N < 0:
        raise ValueError("Fejer order must be >= 0")
    return Symbol(
        {k: (1 - abs(k) / (N + 1)) * c for k, c in f.coeffs.items() if abs(k) <= N}
    )


def fejer_kernel(N: int) -> Symbol:
    """The order-N Fejer kernel itself: h(k) = 1 - |k|/(N+1) on |k| <= N."""
    return fejer_smooth(Symbol(dict.fromkeys(range(-N, N + 1), 1)), N)


def rotate(f: Symbol, t: float) -> Symbol:
    """Rotate the argument by t: k -> h(k) * e^{-i k t}."""
    return Symbol({k: c * cmath.exp(-1j * k * t) for k, c in f.coeffs.items()})


def evaluate(f: Symbol, thetas) -> np.ndarray:
    """Values sum_k h(k) e^{i k theta} at the given angles."""
    thetas = np.asarray(thetas, dtype=float)
    out = np.zeros(thetas.shape, dtype=complex)
    for k, c in f.coeffs.items():
        out += c * np.exp(1j * k * thetas)
    return out


def sup_norm(f: Symbol, grid_points: int = DEFAULT_GRID):
    """Grid estimate of sup |f| and an a priori bound on the grid error.

    Returns (value, error_bound) with sup|f| in [value, value + error_bound].
    """
    m = f.support_radius
    if grid_points < 4 * m + 16:
        raise ValueError(
            f"grid too coarse: need at least {4 * m + 16} points for degree {m}"
        )
    thetas = np.arange(grid_points) * (2 * np.pi / grid_points)
    value = float(np.max(np.abs(evaluate(f, thetas)))) if f.coeffs else 0.0
    c = 0.5 * (np.pi * m / grid_points) ** 2
    return value, value * c / (1 - c)


def classify(f: Symbol) -> set:
    """Every class whose defining coefficient condition f satisfies."""
    out = {SymbolClass.GENERAL}
    coeffs = f.coeffs
    if all(c.imag == 0 and c.real >= 0 for c in coeffs.values()):
        out.add(SymbolClass.NONNEGATIVE_COEFFS)
    if all(coeffs.get(-k, 0j) == c.conjugate() for k, c in coeffs.items()):
        out.add(SymbolClass.HERMITIAN)
    if all(k >= 0 for k in coeffs):
        out.add(SymbolClass.ANALYTIC)
    return out
