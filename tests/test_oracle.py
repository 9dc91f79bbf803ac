import random
from fractions import Fraction

import pytest

from sds.corpus import EXAMPLE2_TEXT, corpus_form
from sds.forms import parse_form
from sds.oracle import (
    MAX_RANDOM_TRIALS,
    GridSpec,
    OracleError,
    grid_min,
    iter_grid,
    random_negative_search,
)

from helpers import random_form

F = Fraction
XY = ["x", "y"]
XYZ = ["x", "y", "z"]


class TestGrid:
    def test_grid_size(self):
        spec = GridSpec(denominator=4, nvars=3)
        points = list(iter_grid(spec))
        assert len(points) == spec.size() == 15
        assert all(sum(p) == 1 for p in points)
        assert points == sorted(points)

    def test_boundary_zero(self):
        value, argmin = grid_min(parse_form("x*y", XY), GridSpec(4, 2))
        assert value == 0
        assert argmin == (F(0), F(1))  # lex-least of the two attaining corners

    def test_example2_negative_on_coarse_grid(self):
        f = parse_form(EXAMPLE2_TEXT, XYZ)
        value, _ = grid_min(f, GridSpec(3, 3))
        assert value < 0
        # the barycenter itself is on the grid and already negative
        assert value <= F(-7, 270)

    def test_constant_on_simplex(self):
        f = parse_form("(x + y)^2", XY)
        for den in (1, 3, 7):
            value, _ = grid_min(f, GridSpec(den, 2))
            assert value == 1

    def test_refinement_monotone(self):
        rng = random.Random(47)
        for _ in range(10):
            f = random_form(rng, 3, rng.randint(1, 3))
            coarse, _ = grid_min(f, GridSpec(4, 3))
            fine, _ = grid_min(f, GridSpec(8, 3))
            assert fine <= coarse

    def test_budget(self):
        f = parse_form("x*y", XY)
        with pytest.raises(OracleError, match="budget"):
            grid_min(f, GridSpec(10**7, 2), budget=1000)

    def test_dimension_check(self):
        with pytest.raises(OracleError):
            grid_min(parse_form("x*y", XY), GridSpec(4, 3))


class TestRandomSearch:
    def test_trivially_positive_finds_nothing(self):
        f = parse_form("(x + y + z)^2", XYZ)
        for seed in (0, 1, 99):
            assert random_negative_search(f, 200, seed) is None

    def test_finds_negative_for_indefinite_cubic(self):
        f = parse_form(EXAMPLE2_TEXT, XYZ)
        hit = random_negative_search(f, 1000, seed=0)
        assert hit is not None
        point, value = hit
        assert value < 0
        assert sum(point) == 1 and all(x >= 0 for x in point)

    def test_finds_negative_for_power_mean_p6(self):
        # the p=6 power-mean form is indefinite; sampling exposes it
        f6 = corpus_form("example3-p6")
        hit = random_negative_search(f6, 10**5, seed=0)
        assert hit is not None
        point, value = hit
        assert value < 0

    def test_seed_reproducibility(self):
        f = parse_form(EXAMPLE2_TEXT, XYZ)
        assert random_negative_search(f, 500, 7) == random_negative_search(f, 500, 7)

    def test_trials_validation(self):
        with pytest.raises(OracleError):
            random_negative_search(parse_form("x*y", XY), 0, 0)

    def test_trials_budget(self, monkeypatch):
        # refused before the first draw
        monkeypatch.setattr(random.Random, "randint", lambda *a: pytest.fail("drew"))
        with pytest.raises(OracleError, match="budget"):
            random_negative_search(parse_form("x*y", XY), MAX_RANDOM_TRIALS + 1, 0)
