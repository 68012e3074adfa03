"""The block theorem for uniform weights, checked in exact arithmetic.

Let D = diag(q^(-g/2)) by generation g.  The frame D^{-1} M D of the
uniform operator M has entry h(m) at (u, v) where u lies m generations
below v, h(-m) q^(-m) where u lies m generations above v, and 0 at
incomparable pairs.  Its entries are rational for a rational symbol and
linear in h, so an identity that holds exactly for every monomial z^m,
|m| <= n, holds for every symbol at that (q, n).  Two such identities are
the unitary block decomposition of M, multiplicities included:

- radial block: the frame maps 1_{gen k} to sum_j h(j - k) 1_{gen j}, so
  the normalized radial vectors D 1_{gen k} carry T_n;
- complement blocks: under each vertex w of generation j < n and for
  each child c = 1..q-1, the contrasts x_i = (child 0's descendants at
  relative depth i) - (child c's), i = 0..n-j-1, are mapped to
  sum_i' h(i' - i) x_i', so they carry T_{n-j-1}.

D 1_{gen k} has norm 1, and the D-images of one contrast's vectors have a
norm that does not depend on i, so these bases are orthonormal after
scaling.  The exact checks use the stdlib fractions alone; one float
test ties the engine's materialize() to the frame.
"""

from fractions import Fraction

import numpy as np
import pytest

from btoep.operators import BranchingOperator
from btoep.symbols import Symbol
from btoep.tree import TreeShape


def frame(q, n, h):
    """Nonzero entries of D^{-1} M D as (u, v, value), for the symbol
    coefficient function h, in the level-order layout of TreeShape."""
    starts = TreeShape(q, n).generation_starts
    entries = []
    for g in range(n + 1):
        for a in range(q**g):
            u = starts[g] + a
            for m in range(g + 1):
                v = starts[g - m] + a // q**m  # the ancestor m generations up
                if h(m):
                    entries.append((u, v, h(m)))
                if m and h(-m):
                    entries.append((v, u, h(-m) * Fraction(1, q**m)))
    return entries


def apply(entries, x):
    y = [Fraction(0)] * len(x)
    for u, v, value in entries:
        y[u] += value * x[v]
    return y


def monomials(n):
    """h of z^m for |m| <= n."""
    return [lambda k, m=m: int(k == m) for m in range(-n, n + 1)]


@pytest.mark.parametrize("q, n", [(2, 5), (3, 4), (4, 3)])
def test_radial_block_is_toeplitz(q, n):
    shape = TreeShape(q, n)
    starts, N = shape.generation_starts, shape.vertex_count

    def radial(coeffs):
        # sum_j coeffs[j] 1_{gen j}
        x = [Fraction(0)] * N
        for j, c in enumerate(coeffs):
            x[starts[j] : starts[j + 1]] = [Fraction(c)] * (starts[j + 1] - starts[j])
        return x

    for h in monomials(n):
        entries = frame(q, n, h)
        for k in range(n + 1):
            assert apply(entries, radial([int(j == k) for j in range(n + 1)])) == radial(
                [h(j - k) for j in range(n + 1)]
            )


@pytest.mark.parametrize("q, n, checks", [(2, 4, 234), (3, 3, 252)])
def test_contrasts_carry_the_complement_blocks(q, n, checks):
    shape = TreeShape(q, n)
    starts, N = shape.generation_starts, shape.vertex_count

    def contrast(j, w, c, coeffs):
        # sum_i coeffs[i] x_i for the contrast of children 0 and c of
        # vertex (j, w): +coeffs[i] under child 0, -coeffs[i] under child c
        x = [Fraction(0)] * N
        for i, value in enumerate(coeffs):
            g, width = j + 1 + i, q**i
            for child, sign in ((0, 1), (c, -1)):
                lo = starts[g] + (q * w + child) * width
                x[lo : lo + width] = [Fraction(sign * value)] * width
        return x

    done = 0
    for h in monomials(n):
        entries = frame(q, n, h)
        for j in range(n):
            size = n - j  # the block T_{n-j-1} has order n - j
            for w in range(q**j):
                for c in range(1, q):
                    for i in range(size):
                        image = apply(entries, contrast(j, w, c, [int(k == i) for k in range(size)]))
                        assert image == contrast(j, w, c, [h(k - i) for k in range(size)])
                        done += 1
    assert done == checks


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3)])
def test_engine_matches_the_frame(q, n):
    f = Symbol({-2: 0.1 - 0.05j, -1: 0.3 + 0.1j, 0: 0.5, 1: 0.25, 2: 0.1j})
    gen = np.repeat(np.arange(n + 1), TreeShape(q, n).generation_sizes)
    scale = float(q) ** (gen / 2)
    framed = BranchingOperator.uniform(q, n, f).materialize() * scale[:, None] / scale[None, :]
    expected = np.zeros_like(framed)
    for u, v, value in frame(q, n, f.coeff):
        expected[u, v] = value
    bound = 1e-15 * sum(abs(c) for c in f.coeffs.values())
    assert np.abs(framed - expected).max() <= bound
