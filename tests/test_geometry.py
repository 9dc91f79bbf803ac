import math
import random
from fractions import Fraction
from itertools import product

import pytest

from sds.geometry import (
    Cell,
    GeometryError,
    cell_count,
    cell_of_chain,
    locate_point,
    max_diameter_at_depth,
    squared_diameter,
)
from sds.matrices import compose_chain

F = Fraction


class TestCellOfChain:
    def test_identity_permutation_chain(self):
        cell = cell_of_chain((1,), 3)
        assert cell.vertices == (
            (F(1), F(0), F(0)),
            (F(1, 2), F(1, 2), F(0)),
            (F(1, 3), F(1, 3), F(1, 3)),
        )

    def test_empty_chain_is_standard_simplex(self):
        cell = cell_of_chain((), 3)
        assert cell.vertices == (
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
            (F(0), F(0), F(1)),
        )

    def test_vertices_lie_in_simplex(self):
        rng = random.Random(29)
        for _ in range(30):
            chain = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 3)))
            cell = cell_of_chain(chain, 3)
            for v in cell.vertices:
                assert sum(v) == 1
                assert all(x >= 0 for x in v)

    def test_depth1_cells_pairwise_distinct(self):
        seen = {frozenset(cell_of_chain((i,), 3).vertices) for i in range(1, 7)}
        assert len(seen) == 6


class TestSquaredDiameter:
    def test_standard_simplex(self):
        assert squared_diameter(cell_of_chain((), 3)) == 2

    def test_degenerate_cell(self):
        point = (F(1, 3), F(1, 3), F(1, 3))
        assert squared_diameter(Cell(vertices=(point, point, point), chain=())) == 0

    def test_depth1_max(self):
        worst = max(squared_diameter(cell_of_chain((i,), 3)) for i in range(1, 7))
        assert worst <= F(8, 9)


class TestMaxDiameterAtDepth:
    def test_depth0(self):
        assert max_diameter_at_depth(3, 0) == 2

    def test_strictly_decreasing(self):
        values = [max_diameter_at_depth(3, m) for m in range(4)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_classical_bound(self):
        for m in range(5):
            assert max_diameter_at_depth(3, m) <= F(2, 3) ** (2 * m) * 2

    def test_budget(self):
        with pytest.raises(GeometryError, match="budget"):
            max_diameter_at_depth(3, 4, cell_budget=100)

    def test_cell_count_is_the_budget_rule(self):
        for n in range(1, 5):
            for m in range(4):
                assert cell_count(n, m) == math.factorial(n) ** m
        assert cell_count(3, 2, cell_budget=36) == 36
        with pytest.raises(GeometryError, match="budget"):
            cell_count(3, 2, cell_budget=35)


class TestLocatePoint:
    def test_barycenter_shared_vertex(self):
        # the barycenter is a vertex of every depth-1 cell; smallest chain wins
        assert locate_point((F(1, 3), F(1, 3), F(1, 3)), 1) == (1,)

    def test_first_unit_vector_is_fixed(self):
        assert locate_point((1, 0, 0), 4) == (1, 1, 1, 1)

    def test_membership_by_exact_solve(self):
        rng = random.Random(37)
        for _ in range(25):
            den = 12
            a = rng.randint(0, den)
            b = rng.randint(0, den - a)
            p = (F(a, den), F(b, den), F(den - a - b, den))
            chain = locate_point(p, 2)
            assert len(chain) == 2
            t = compose_chain(chain, 3).solve(p)
            assert all(x >= 0 for x in t)
            assert sum(t) == 1

    def test_grid_covering(self):
        # every denominator-12 grid point lies in some cell at depths 1 and 2
        den = 12
        for a in range(den + 1):
            for b in range(den + 1 - a):
                p = (F(a, den), F(b, den), F(den - a - b, den))
                for depth in (1, 2):
                    chain = locate_point(p, depth)
                    assert len(chain) == depth

    def test_outside_simplex_rejected(self):
        with pytest.raises(GeometryError):
            locate_point((F(1, 2), F(1, 2), F(1, 2)), 1)
        with pytest.raises(GeometryError):
            locate_point((F(3, 2), F(-1, 2), F(0)), 1)

    def test_deterministic_tiebreak_is_lexicographic(self):
        # a point on a shared face: brute-force the smallest containing chain
        p = (F(1, 2), F(1, 2), F(0))
        found = locate_point(p, 2)
        smallest = None
        for chain in product(range(1, 7), repeat=2):
            t = compose_chain(chain, 3).solve(p)
            if all(x >= 0 for x in t):
                smallest = chain
                break
        assert found == smallest
