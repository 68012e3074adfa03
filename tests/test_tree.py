import numpy as np
import pytest

from btoep.tree import (
    Comparability,
    Relation,
    TreeShape,
    Vertex,
    ancestor,
    children,
    comparability,
    descendants_range,
    linear_index,
    parent,
    vertex_from_index,
)


def brute_ancestors(v, q):
    """Oracle: ancestor chain by repeated parent."""
    chain = []
    while v.generation > 0:
        v = parent(v, q)
        chain.append(v)
    return chain


def brute_comparability(u, v, q):
    """Oracle: classify by walking ancestor chains."""
    if u == v:
        return Relation.EQUAL
    if u in brute_ancestors(v, q):
        return Relation.U_ANCESTOR_OF_V
    if v in brute_ancestors(u, q):
        return Relation.V_ANCESTOR_OF_U
    return Relation.INCOMPARABLE


def all_vertices(shape):
    return [vertex_from_index(i, shape) for i in range(shape.vertex_count)]


class TestShape:
    @pytest.mark.parametrize("q,n,count", [(2, 3, 15), (3, 2, 13), (1, 5, 6), (5, 0, 1)])
    def test_vertex_count(self, q, n, count):
        assert TreeShape(q, n).vertex_count == count

    def test_invalid(self):
        with pytest.raises(ValueError):
            TreeShape(0, 3)
        with pytest.raises(ValueError):
            TreeShape(2, -1)


class TestLinearIndex:
    def test_root_is_zero(self):
        assert linear_index(Vertex(0, 0), TreeShape(2, 3)) == 0

    def test_level_order(self):
        assert linear_index(Vertex(1, 1), TreeShape(2, 3)) == 2

    def test_counts_preceding_vertices(self):
        # generations 0 and 1 of the ternary tree hold 1 + 3 vertices
        assert linear_index(Vertex(2, 5), TreeShape(3, 2)) == 9

    @pytest.mark.parametrize("q,n", [(1, 6), (2, 5), (3, 4), (5, 2)])
    def test_round_trip(self, q, n):
        shape = TreeShape(q, n)
        for i in range(shape.vertex_count):
            assert linear_index(vertex_from_index(i, shape), shape) == i

    def test_out_of_range(self):
        shape = TreeShape(2, 2)
        with pytest.raises(ValueError):
            linear_index(Vertex(3, 0), shape)
        with pytest.raises(ValueError):
            linear_index(Vertex(1, 2), shape)


class TestComparability:
    def test_equal(self):
        shape = TreeShape(2, 3)
        c = comparability(Vertex(2, 3), Vertex(2, 3), shape)
        assert c == Comparability(Relation.EQUAL)

    def test_root_ancestor_digits(self):
        shape = TreeShape(2, 3)
        c = comparability(Vertex(0, 0), Vertex(2, 3), shape)
        assert c.relation is Relation.U_ANCESTOR_OF_V
        assert c.distance == 2

    def test_siblings_incomparable(self):
        shape = TreeShape(2, 3)
        c = comparability(Vertex(1, 0), Vertex(1, 1), shape)
        assert c.relation is Relation.INCOMPARABLE

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (1, 5)])
    def test_against_bruteforce(self, q, n):
        shape = TreeShape(q, n)
        vs = all_vertices(shape)
        assert len(vs) <= 1000
        for u in vs:
            for v in vs:
                assert comparability(u, v, shape).relation is brute_comparability(u, v, q)

    def test_symmetric_consistency(self):
        shape = TreeShape(3, 4)
        rng = np.random.default_rng(7)
        vs = all_vertices(shape)
        for _ in range(200):
            u, v = rng.choice(len(vs), 2)
            cu = comparability(vs[u], vs[v], shape)
            cv = comparability(vs[v], vs[u], shape)
            mirrored = {
                Relation.EQUAL: Relation.EQUAL,
                Relation.INCOMPARABLE: Relation.INCOMPARABLE,
                Relation.U_ANCESTOR_OF_V: Relation.V_ANCESTOR_OF_U,
                Relation.V_ANCESTOR_OF_U: Relation.U_ANCESTOR_OF_V,
            }
            assert cv.relation is mirrored[cu.relation]
            assert cv.distance == cu.distance

    def test_comparable_pair_density_decreases(self):
        # sparsity: the fraction of comparable pairs shrinks with depth
        ratios = []
        for n in range(2, 9):
            shape = TreeShape(2, n)
            total = shape.vertex_count
            # each vertex is comparable with its ancestors, its descendants,
            # and itself
            pairs = 0
            for g in range(n + 1):
                descendants = sum(2**m for m in range(1, n - g + 1))
                pairs += 2**g * (g + descendants + 1)
            ratios.append(pairs / total**2)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_pair_count_formula_matches_bruteforce(self):
        shape = TreeShape(2, 4)
        vs = all_vertices(shape)
        brute = sum(
            comparability(u, v, shape).relation is not Relation.INCOMPARABLE
            for u in vs
            for v in vs
        )
        n = 4
        formula = sum(
            2**g * (g + sum(2**m for m in range(1, n - g + 1)) + 1) for g in range(n + 1)
        )
        assert brute == formula


class TestGenealogy:
    def test_children_offsets(self):
        shape = TreeShape(2, 3)
        assert [c.offset for c in children(Vertex(1, 1), shape)] == [2, 3]

    def test_ancestor_at_distance(self):
        assert ancestor(Vertex(3, 5), 2, 2) == Vertex(1, 1)

    def test_descendants_range_self(self):
        assert descendants_range(Vertex(0, 0), 0, TreeShape(2, 3)) == range(0, 1)

    def test_descendants_range_grandchildren(self):
        shape = TreeShape(2, 3)
        r = descendants_range(Vertex(1, 1), 2, shape)
        assert r == range(4, 8)
        # oracle: enumerate grandchildren
        grand = [g for c in children(Vertex(1, 1), shape) for g in children(c, shape)]
        assert sorted(g.offset for g in grand) == list(r)

    def test_descendants_range_ternary(self):
        assert descendants_range(Vertex(1, 0), 1, TreeShape(3, 2)) == range(0, 3)

    def test_descendants_range_overflow(self):
        with pytest.raises(ValueError):
            descendants_range(Vertex(1, 0), 3, TreeShape(2, 3))
