"""Vertex indexing and genealogy for the truncated rooted q-homogeneous tree.

The depth-n truncation of the rooted tree with constant arity q holds the
vertices of generations 0..n.  A vertex is addressed by (generation, offset)
with offset counting left to right within its generation; the children of
(g, k) are (g+1, q*k + j) for j = 0..q-1, so ancestry is integer division.

Vertices are laid out generation-major ("level order"): generation g starts
at linear index (q^g - 1)/(q - 1).  With this layout the children of
consecutive vertices occupy consecutive index ranges, which is what the
matrix-free operator kernels exploit.

q = 1 is supported and degenerates to the half-line 0-1-2-...-n.
"""

from __future__ import annotations

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
    "parent",
    "ancestor",
    "children",
    "comparability",
    "descendants_range",
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
        if self.q == 1:
            return self.depth + 1
        return (self.q ** (self.depth + 1) - 1) // (self.q - 1)

    def generation_start(self, g: int) -> int:
        """Linear index of the first vertex of generation g."""
        if self.q == 1:
            return g
        return (self.q**g - 1) // (self.q - 1)

    @cached_property
    def generation_starts(self) -> tuple:
        return tuple(self.generation_start(g) for g in range(self.depth + 2))


@dataclass(frozen=True, order=True)
class Vertex:
    generation: int
    offset: int

    def __post_init__(self):
        if self.generation < 0 or self.offset < 0:
            raise ValueError(f"invalid vertex ({self.generation}, {self.offset})")


ROOT = Vertex(0, 0)


def _check(v: Vertex, shape: TreeShape) -> None:
    if v.generation > shape.depth:
        raise ValueError(f"generation {v.generation} exceeds depth {shape.depth}")
    if v.offset >= shape.q**v.generation:
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
    starts = shape.generation_starts
    g = 0
    while starts[g + 1] <= i:
        g += 1
    return Vertex(g, i - starts[g])


def parent(v: Vertex, q: int) -> Vertex:
    if v.generation == 0:
        raise ValueError("root has no parent")
    return Vertex(v.generation - 1, v.offset // q)


def ancestor(v: Vertex, m: int, q: int) -> Vertex:
    """Ancestor of v at distance m (m = 0 returns v itself)."""
    if m < 0 or m > v.generation:
        raise ValueError(f"no ancestor at distance {m} of generation-{v.generation} vertex")
    return Vertex(v.generation - m, v.offset // q**m)


def children(v: Vertex, shape: TreeShape):
    """The q children of v, in child-index order."""
    if v.generation >= shape.depth:
        raise ValueError("vertex at maximal generation has no children in the truncation")
    base = shape.q * v.offset
    return [Vertex(v.generation + 1, base + j) for j in range(shape.q)]


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
    q = shape.q
    if u == v:
        return Comparability(Relation.EQUAL)
    if u.generation <= v.generation:
        m = v.generation - u.generation
        if v.offset // q**m == u.offset:
            return Comparability(Relation.U_ANCESTOR_OF_V, m)
    if v.generation < u.generation:
        m = u.generation - v.generation
        if u.offset // q**m == v.offset:
            return Comparability(Relation.V_ANCESTOR_OF_U, m)
    return Comparability(Relation.INCOMPARABLE)


def descendants_range(v: Vertex, m: int, shape: TreeShape) -> range:
    """Offsets at generation v.generation + m of the depth-m descendants of v."""
    _check(v, shape)
    if m < 0 or v.generation + m > shape.depth:
        raise ValueError(f"generation {v.generation + m} exceeds depth {shape.depth}")
    q = shape.q
    return range(v.offset * q**m, (v.offset + 1) * q**m)
