import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sds import geometry
from sds.geometry import (
    Cell,
    GeometryError,
    cell_count,
    cell_of_chain,
    locate_point,
    max_diameter_at_depth,
    squared_diameter,
)
from sds.matrices import MatrixError, compose_chain, enumerate_pwn

from helpers import chains

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

    def test_budget(self, monkeypatch):
        stepped = []
        monkeypatch.setattr(geometry, "pwn_step", lambda *a: stepped.append(a))
        # (3!)^8 = 1,679,616 cells, past geometry.DEFAULT_CELL_BUDGET
        with pytest.raises(GeometryError, match="budget"):
            max_diameter_at_depth(3, 8)
        assert stepped == []

    def test_cell_count_is_the_budget_rule(self, monkeypatch):
        for n in range(1, 5):
            for m in range(4):
                assert cell_count(n, m) == math.factorial(n) ** m
        monkeypatch.setattr(geometry, "DEFAULT_CELL_BUDGET", 36)
        assert cell_count(3, 2) == 36
        monkeypatch.setattr(geometry, "DEFAULT_CELL_BUDGET", 35)
        with pytest.raises(GeometryError, match="budget"):
            cell_count(3, 2)


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


def solve_locate(p, depth):
    """locate_point's rule on the dense matrices: at each level the first
    substitution matrix whose exact solve is non-negative."""
    mats = enumerate_pwn(len(p))
    chain = []
    for _ in range(depth):
        for i, b in enumerate(mats, start=1):
            t = b.solve(p)
            if all(x >= 0 for x in t):
                chain.append(i)
                p = t
                break
    return tuple(chain)


class TestAgainstMatrixReference:
    @settings(max_examples=200, deadline=None)
    @given(chains())
    def test_cell_vertices_are_the_columns(self, nc):
        n, chain = nc
        m = compose_chain(chain, n)
        assert cell_of_chain(chain, n).vertices == tuple(m.column(j) for j in range(n))

    @settings(max_examples=200, deadline=None)
    @given(chains(max_len=3), st.data())
    def test_locate_point_matches_solve(self, nc, data):
        n, chain = nc
        # a cell vertex lies on shared faces, so the tie rule decides it
        kind = data.draw(st.sampled_from(["vertex", "interior"]))
        if kind == "vertex":
            p = data.draw(st.sampled_from(cell_of_chain(chain, n).vertices))
        else:
            parts = data.draw(st.lists(st.integers(0, 12), min_size=n, max_size=n)
                              .filter(lambda xs: sum(xs) > 0))
            p = tuple(F(a, sum(parts)) for a in parts)
        depth = data.draw(st.integers(0, 3))
        assert locate_point(p, depth) == solve_locate(p, depth)

    @pytest.mark.parametrize("n,m", [(1, 3)] + [(2, m) for m in range(6)]
                             + [(3, m) for m in range(4)] + [(4, m) for m in range(3)])
    def test_max_diameter_is_the_brute_force_max(self, n, m):
        brute = max(squared_diameter(cell_of_chain(chain, n))
                    for chain in product(range(1, math.factorial(n) + 1), repeat=m))
        assert max_diameter_at_depth(n, m) == brute

    @pytest.mark.parametrize("chain", [(7,), (0,), (1, 7)])
    def test_bad_chain_index(self, chain):
        with pytest.raises(MatrixError, match="out of range"):
            cell_of_chain(chain, 3)
