"""Matrix-free branching-Toeplitz operators on truncated rooted trees.

A symbol f and a weight tuple A_1..A_q of d x d matrices define a kernel
on pairs of comparable vertices: if u sits m generations below v the
(u, v) block is h(m) times the path product A_{k_m} ... A_{k_1} of the
descent k_1..k_m from v to u (the last step leftmost), if u sits m
generations above v it is h(-m) times the adjoint of that product, and
incomparable pairs get zero.  Scalar weights are the case d = 1: a unit
vector a in C^q gives BranchingOperator, the uniform weight
a = (1/sqrt(q), ..., 1/sqrt(q)) gives path products q^(-m/2) and the
classical damped kernel, and q = 1 gives the ordinary Toeplitz matrix.
The operator-valued functions take an OperatorTuple of q d x d matrices.

One private engine, _Kernel, produces every entry, product and dense
matrix for both weight kinds.  It decides the uniform fast path from the
weights themselves: when every A_j is exactly q^(-1/2) I_d the path
products are the exact q^(-m/2) and apply() broadcasts, whichever
constructor built the weights.  apply() never materializes the matrix.
Descendant contributions come from a bottom-up recursion of weighted
child sums, ancestor contributions from a Horner recursion over the
parents, S_i(v) = h(i) x[v] + A_j S_{i+1}(parent(v)) for v the j-th child.
Both depth-m terms live on the generations <= n - m, about |B_n| / q^m
rows, so for q >= 2 an apply makes about three passes over the vector,
O(|B_n| * q * d^2) work whatever the support radius.  Dense
materialization is a test oracle guarded by a size cap (default 4096 rows,
override with the BTOEP_DENSE_CAP environment variable) that raises
DenseCapError.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .symbols import Symbol, conjugate, rotate
from .tree import Relation, TreeShape, Vertex, comparability

__all__ = [
    "WeightVector",
    "BranchingOperator",
    "toeplitz_dense",
    "gauge_transform",
    "OperatorTuple",
    "op_valued_entry",
    "op_valued_materialize",
    "DenseCapError",
    "dense_cap",
]

DEFAULT_DENSE_CAP = 4096
WEIGHT_NORM_TOL = 1e-12


class DenseCapError(ValueError):
    """A dense matrix would have more rows than the dense cap allows."""


def dense_cap() -> int:
    raw = os.environ.get("BTOEP_DENSE_CAP", str(DEFAULT_DENSE_CAP))
    try:
        if (cap := int(raw)) >= 0:
            return cap
    except ValueError:
        pass
    raise ValueError(f"BTOEP_DENSE_CAP must be an integer >= 0, got {raw!r}")


@dataclass(frozen=True, eq=False)
class WeightVector:
    """A point of the unit sphere in C^q, held as a read-only complex array."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 1 or not arr.size:
            raise ValueError(f"weight vector must be a non-empty vector, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        # pairwise: a sequential sum drifts past the tolerance near q = 10^5
        norm = np.sqrt(np.sum(np.abs(arr) ** 2))
        # written so that a NaN norm fails it too
        if not abs(norm - 1.0) <= WEIGHT_NORM_TOL:
            raise ValueError(f"weight vector norm {norm} differs from 1 by more than {WEIGHT_NORM_TOL}")

    @property
    def q(self) -> int:
        return self.entries.size


def _times(c, a, out: np.ndarray) -> np.ndarray:
    """c * a written into out, which is returned.  In place numpy rounds a
    one-element complex product differently from c * a, so a one-element
    product is formed apart and copied; at every other length the same."""
    if a.size > 1:
        return np.multiply(c, a, out=out)
    out[...] = c * a
    return out


class _Kernel:
    """The kernel of a symbol and a (q, d, d) weight stack on a truncated tree.

    uniform is decided from the stack: it holds exactly when every A_j is
    q^(-1/2) I_d, bit for bit (for d = 1 the array BranchingOperator.uniform
    builds), and then entry(), apply() and materialize() take the path
    products as the exact q^(-m/2).
    """

    def __init__(self, weights: np.ndarray, shape: TreeShape, symbol: Symbol):
        q, d = weights.shape[:2]
        if q != shape.q:
            raise ValueError(f"{q} weights for a tree of arity {shape.q}")
        self.weights = weights
        self.shape = shape
        self.symbol = symbol
        self.uniform = bool((weights == np.eye(d) / np.sqrt(q)).all())

    def _path(self, offsets, m: int) -> np.ndarray:
        """Path products A[k_m] ... A[k_1] of the depth-m descents ending at
        the given offsets, the last descent step leftmost."""
        q, d = self.shape.q, self.weights.shape[1]
        if self.uniform:
            return q ** (-m / 2) * np.eye(d, dtype=complex)
        P = np.eye(d, dtype=complex)
        for i in range(m):
            P = P @ self.weights[offsets // q**i % q]
        return P

    def entry(self, u: Vertex, v: Vertex) -> np.ndarray:
        """d x d block at (row u, column v)."""
        rel = comparability(u, v, self.shape)
        if rel.relation is Relation.INCOMPARABLE:
            return np.zeros(self.weights.shape[1:], dtype=complex)
        if rel.relation is Relation.U_ANCESTOR_OF_V:
            return self.symbol.coeff(-rel.distance) * self._path(v.offset, rel.distance).conj().T
        return self.symbol.coeff(rel.distance) * self._path(u.offset, rel.distance)

    def apply(self, x, out=None) -> np.ndarray:
        """Kernel times a vertex-major vector of |B_n| d entries, or times each
        row of a (k, |B_n| d) stack of them.  The stack is a leading axis, so
        every row takes the same products and loops as a vector alone.

        out, or a fresh array laid out like x, receives the product and is
        returned; an out given is a complex array of x's shape and may be x
        itself, since every level read from x is formed before it is written."""
        shape, q, n, d = self.shape, self.shape.q, self.shape.depth, self.weights.shape[1]
        x = np.asarray(x, dtype=complex)
        if x.ndim not in (1, 2) or x.shape[-1] != shape.vertex_count * d:
            raise ValueError(f"expected vector of length {shape.vertex_count * d}, got shape {x.shape}")
        lead = x.shape[:-1]
        x = x.reshape(*lead, -1, d)
        starts = shape.generation_starts
        coeff = self.symbol.coeff
        radius = min(n, self.symbol.support_radius)
        # row j*d + a, column b holds conj(A_j[a, b]), so D @ down sums A_j^* D_j
        down = self.weights.conj().reshape(q * d, d)
        # row b, column j*d + a holds A_j[a, b], so S @ up lists A_j S per child j
        up = self.weights.transpose(2, 0, 1).reshape(d, q * d)

        # ancestor side by Horner over the parents, r the largest m <= radius
        # with h(m) != 0: S_r = h(r) x, S_i(v) = h(i) x[v] + A_j S_{i+1}(p) for
        # v child j of p on the generations <= n - i, and the output is S_0.
        # Uniform weights fold q^(-i/2) into S_i: each A_j step is a broadcast.
        def level(i):
            c = coeff(i) * (q ** (-i / 2) if self.uniform else 1.0)
            return c * x[..., : starts[n - i + 1], :]

        def descend(y, S):
            children = y[..., 1:, :].reshape(*lead, -1, q, d)
            children += S[..., None, :] if self.uniform else (S @ up).reshape(*lead, -1, q, d)
            return y

        r = max((m for m in range(1, radius + 1) if coeff(m) != 0), default=0)
        S = level(r) if r else None
        for i in range(r - 1, 0, -1):
            S = descend(level(i), S)

        # descendant sums: D holds, per surviving vertex, the adjoint
        # path-weighted sum of x over its depth-m descendants, for m up to
        # s, the largest m <= radius with h(-m) != 0; deeper D_m go unread.
        # D_{m+1} is formed before D_m is scaled in place, so no c * D_m is
        # allocated beside them
        def below(D):
            return D[..., 1:, :].reshape(*lead, -1, q * d) @ down

        s = max((m for m in range(1, radius + 1) if coeff(-m) != 0), default=0)
        # out may be x, so S_1 and D_1 are read from x before the output is written
        D = below(x) if s else None
        out = np.empty_like(x).reshape(*lead, -1) if out is None else out
        y = _times(coeff(0) * 1.0, x, out.reshape(x.shape))  # level()'s factor: * 1.0 clears a -0.0 part
        if r:
            descend(y, S)
        del S
        for m in range(1, s + 1):
            deeper = below(D) if m < s else None
            if (c := coeff(-m)) != 0:
                y[..., : D.shape[-2], :] += _times(c, D, D)
            D = deeper

        return out

    def materialize(self) -> np.ndarray:
        """Dense (|B_n| d) x (|B_n| d) matrix of d x d blocks."""
        shape, n, d = self.shape, self.shape.depth, self.weights.shape[1]
        N = shape.vertex_count
        if N * d > (cap := dense_cap()):
            raise DenseCapError(f"dense materialization of {N * d} rows exceeds cap {cap}")
        starts, sizes = shape.generation_starts, shape.generation_sizes
        coeff = self.symbol.coeff
        radius = min(n, self.symbol.support_radius)
        M = np.zeros((N * d, N * d), dtype=complex)
        np.fill_diagonal(M, coeff(0))
        blocks = M.reshape(N, d, N, d)
        for g in range(1, n + 1):
            k = np.arange(sizes[g])
            rows = starts[g] + k
            for m in range(1, min(g, radius) + 1):
                P = self._path(k, m)
                cols = starts[g - m] + k // sizes[m]
                cd, cu = coeff(m), coeff(-m)
                if cd != 0:
                    blocks[rows, :, cols, :] = cd * P
                if cu != 0:
                    blocks[cols, :, rows, :] = cu * P.conj().swapaxes(-1, -2)
        return M


class BranchingOperator:
    """Truncated branching-Toeplitz operator with scalar weights.

    Construct with .uniform() for the canonical q^(-m/2) damping or
    .with_weights() for a general unit weight vector.  Instances are
    immutable and safe to share across threads; apply() allocates its own
    scratch, and its output too unless it is given one.
    """

    def __init__(self, weights, shape: TreeShape, symbol: Symbol):
        if not isinstance(weights, WeightVector):
            weights = WeightVector(weights)
        self.shape = shape
        self.symbol = symbol
        self._kernel = _Kernel(weights.entries.reshape(-1, 1, 1), shape, symbol)
        self.uniform = self._kernel.uniform

    @classmethod
    def uniform(cls, q: int, depth: int, symbol: Symbol) -> "BranchingOperator":
        return cls(np.full(q, 1.0 / np.sqrt(q)), TreeShape(q, depth), symbol)

    @classmethod
    def with_weights(cls, weights, depth: int, symbol: Symbol) -> "BranchingOperator":
        if not isinstance(weights, WeightVector):
            weights = WeightVector(weights)
        return cls(weights, TreeShape(weights.q, depth), symbol)

    @property
    def weights(self) -> np.ndarray:
        return self._kernel.weights[:, 0, 0]

    @property
    def dim(self) -> int:
        return self.shape.vertex_count

    def adjoint(self) -> "BranchingOperator":
        """Operator whose dense matrix is the conjugate transpose of this one."""
        return BranchingOperator(self.weights, self.shape, conjugate(self.symbol))

    def entry(self, u: Vertex, v: Vertex) -> complex:
        """Kernel entry at (row u, column v)."""
        return self._kernel.entry(u, v)[0, 0]

    def apply(self, x, out=None) -> np.ndarray:
        """y[u] = sum_v entry(u, v) x[v] without forming the matrix, a (k, |B_n|)
        stack giving the k products, one per row; y goes to out, a complex array
        of x's shape that may be x itself, or to a fresh array, and is returned."""
        return self._kernel.apply(x, out)

    def materialize(self) -> np.ndarray:
        """Dense matrix M[linear_index(u), linear_index(v)] = entry(u, v)."""
        return self._kernel.materialize()


def toeplitz_dense(symbol: Symbol, n: int) -> np.ndarray:
    """Classical (n+1) x (n+1) Toeplitz matrix T_n with entry (i, j) = h(i - j)."""
    if n < 0:
        raise ValueError("order must be >= 0")
    # h[k + n] = h(k) for |k| <= n, gathered once: every entry is a copy
    h = np.array([symbol.coeff(k) for k in range(-n, n + 1)], dtype=complex)
    idx = np.arange(n + 1)
    return h[idx[:, None] - idx[None, :] + n]


def _spectral_norm(A: np.ndarray) -> float:
    """||A||_2, the top of the singular values that np.linalg.norm(A, 2)
    takes the max of, without its moveaxis and amax."""
    return float(np.linalg.svd(A, compute_uv=False)[0])


def gauge_transform(op: BranchingOperator, t: float) -> BranchingOperator:
    """Conjugate by the diagonal phase e^{-i t |u|}; same as rotating the symbol."""
    return BranchingOperator(op.weights, op.shape, rotate(op.symbol, t))


# -- operator-valued kernels ----------------------------------------------


@dataclass(frozen=True)
class OperatorTuple:
    """q square matrices of common dimension d acting as matrix weights."""

    matrices: np.ndarray  # (q, d, d)

    def __post_init__(self):
        arr = np.asarray(self.matrices, dtype=complex)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected (q, d, d) stack of square matrices, got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "matrices", arr)

    @cached_property
    def contraction_norm(self) -> float:
        """Spectral norm of sum_k A_k^* A_k (kernel positivity needs <= 1)."""
        s = sum(A.conj().T @ A for A in self.matrices)
        return _spectral_norm(s)


def op_valued_entry(A: OperatorTuple, f: Symbol, u: Vertex, v: Vertex, shape: TreeShape) -> np.ndarray:
    """d x d block of the operator-valued kernel at (row u, column v)."""
    return _Kernel(A.matrices, shape, f).entry(u, v)


def op_valued_materialize(A: OperatorTuple, f: Symbol, shape: TreeShape) -> np.ndarray:
    """Dense (|B_n| d) x (|B_n| d) block matrix of the operator-valued kernel."""
    return _Kernel(A.matrices, shape, f).materialize()
