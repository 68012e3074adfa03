"""Vertex indexing and genealogy for the truncated rooted q-homogeneous tree.

The depth-n truncation of the rooted tree with constant arity q holds the
vertices of generations 0..n.  A vertex is addressed by (generation, offset)
with offset counting left to right within its generation; the children of
(g, k) are (g+1, q*k + j) for j = 0..q-1, so ancestry is integer division.

Vertices are laid out generation-major ("level order"); TreeShape owns the
layout: generation g holds generation_sizes[g] = q^g vertices from index
generation_starts[g], their prefix sum.  Children of consecutive vertices
occupy consecutive index ranges, which the matrix-free kernels exploit.

q = 1 is supported and degenerates to the half-line 0-1-2-...-n.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

__all__ = [
    "TreeShape",
    "Vertex",
    "Relation",
    "Comparability",
    "linear_index",
    "vertex_from_index",
    "comparability",
]


@dataclass(frozen=True)
class TreeShape:
    """Arity q >= 1 and truncation depth n >= 0."""

    q: int
    depth: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"arity must be >= 1, got {self.q}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")

    @cached_property
    def vertex_count(self) -> int:
        return self.generation_start(self.depth + 1)

    def generation_start(self, g: int) -> int:
        """Linear index of the first vertex of generation g, in closed form, so
        vertex_count sizes a deep tree without listing its generations."""
        return g if self.q == 1 else (self.q**g - 1) // (self.q - 1)

    @cached_property
    def generation_sizes(self) -> tuple:
        """q^g, the vertex count of generation g, for g = 0..n."""
        return tuple(self.q**g for g in range(self.depth + 1))

    @cached_property
    def generation_starts(self) -> tuple:
        """Prefix sums of generation_sizes: n + 2 entries, 0 first, N last."""
        return tuple(itertools.accumulate(self.generation_sizes, initial=0))


@dataclass(frozen=True, order=True)
class Vertex:
    generation: int
    offset: int

    def __post_init__(self):
        if self.generation < 0 or self.offset < 0:
            raise ValueError(f"invalid vertex ({self.generation}, {self.offset})")


def _check(v: Vertex, shape: TreeShape) -> None:
    if v.generation > shape.depth:
        raise ValueError(f"generation {v.generation} exceeds depth {shape.depth}")
    if v.offset >= shape.generation_sizes[v.generation]:
        raise ValueError(
            f"offset {v.offset} out of range for generation {v.generation} (q={shape.q})"
        )


def linear_index(v: Vertex, shape: TreeShape) -> int:
    """Level-order index of v; bijective onto range(shape.vertex_count)."""
    _check(v, shape)
    return shape.generation_start(v.generation) + v.offset


def vertex_from_index(i: int, shape: TreeShape) -> Vertex:
    """Inverse of linear_index."""
    if i < 0 or i >= shape.vertex_count:
        raise ValueError(f"index {i} out of range")
    g = bisect.bisect_right(shape.generation_starts, i) - 1
    return Vertex(g, i - shape.generation_starts[g])


class Relation(Enum):
    EQUAL = "equal"
    U_ANCESTOR_OF_V = "u_ancestor_of_v"
    V_ANCESTOR_OF_U = "v_ancestor_of_u"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Comparability:
    """Outcome of a comparability query: the relation and the generation
    distance, 0 for equal or incomparable pairs."""

    relation: Relation
    distance: int = 0


def comparability(u: Vertex, v: Vertex, shape: TreeShape) -> Comparability:
    """Classify the pair (u, v) under the ancestor partial order."""
    _check(u, shape)
    _check(v, shape)
    if u == v:
        return Comparability(Relation.EQUAL)
    u_up = u.generation <= v.generation
    up, down = (u, v) if u_up else (v, u)
    m = down.generation - up.generation
    if down.offset // shape.generation_sizes[m] == up.offset:
        return Comparability(Relation.U_ANCESTOR_OF_V if u_up else Relation.V_ANCESTOR_OF_U, m)
    return Comparability(Relation.INCOMPARABLE)
