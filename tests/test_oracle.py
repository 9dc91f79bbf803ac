import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sds.corpus import EXAMPLE2_TEXT, corpus_form
import sds.oracle as oracle_module
from sds.forms import Form, parse_form
from sds.oracle import (
    MAX_RANDOM_TRIALS,
    WORK_BUDGET,
    GridSpec,
    OracleError,
    grid_min,
    iter_grid,
    random_negative_search,
)

import reference
from helpers import forms, random_form

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
            grid_min(f, GridSpec(10**7, 2))  # 10^7 + 1 points, past DEFAULT_GRID_BUDGET

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


class TestEqualsReference:
    """The integer fast paths give the reference's value and point exactly."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_grid_min(self, data):
        f = data.draw(forms(n=data.draw(st.integers(1, 3)), d=data.draw(st.integers(0, 6))))
        spec = GridSpec(data.draw(st.integers(1, 8)), f.nvars)
        assert grid_min(f, spec) == reference.grid_min(f, spec)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_search(self, data):
        f = data.draw(forms(n=data.draw(st.integers(1, 4)), d=data.draw(st.integers(0, 6))))
        trials = data.draw(st.integers(1, 40))
        seed = data.draw(st.integers(0, 10**6))
        assert random_negative_search(f, trials, seed) == reference.random_negative_search(f, trials, seed)

    def test_grid_tie_keeps_lex_least_argmin(self):
        # x*y*(x-y)^2 is 0 at (0,1), (1/2,1/2) and (1,0); the first in lex order is reported
        f = parse_form("x*y*(x - y)^2", XY)
        value, argmin = grid_min(f, GridSpec(6, 2))
        assert (value, argmin) == reference.grid_min(f, GridSpec(6, 2)) == (0, (F(0), F(1)))
        # every point of a constant-on-simplex form ties
        f = parse_form("(x + y + z)^3", XYZ)
        assert grid_min(f, GridSpec(5, 3)) == reference.grid_min(f, GridSpec(5, 3)) == (1, (0, 0, 1))

    def test_grid_negative_minimum(self):
        f = corpus_form("example3-p6")
        assert grid_min(f, GridSpec(12, 3)) == reference.grid_min(f, GridSpec(12, 3))

    def test_random_hit_is_the_same_point_and_value(self):
        f = parse_form(EXAMPLE2_TEXT, XYZ)
        for seed in range(5):
            hit = random_negative_search(f, 1000, seed)
            assert hit is not None and hit == reference.random_negative_search(f, 1000, seed)


class FirstDraw(Exception):
    pass


def _first_draw(*args):
    raise FirstDraw


class TestWorkBudget:
    """points x nvars x degree above WORK_BUDGET is refused before the first point."""

    def test_grid_refused_before_first_point(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "int_value", lambda *a: pytest.fail("evaluated"))
        f = parse_form("x^1000 - y^1000", XY)
        with pytest.raises(OracleError, match="work budget"):
            grid_min(f, GridSpec(1999999, 2))

    def test_random_refused_before_first_draw(self, monkeypatch):
        monkeypatch.setattr(random.Random, "randint", lambda *a: pytest.fail("drew"))
        f = parse_form("x^1000 + y^1000", XY)
        with pytest.raises(OracleError, match="work budget"):
            random_negative_search(f, MAX_RANDOM_TRIALS, 0)

    def test_limit_is_inclusive(self, monkeypatch):
        # WORK_BUDGET itself passes and reaches the first draw; one degree more does not
        monkeypatch.setattr(random.Random, "randint", _first_draw)
        trials = WORK_BUDGET // (2 * 50)
        with pytest.raises(FirstDraw):
            random_negative_search(Form(2, 50, {}), trials, 0)
        with pytest.raises(OracleError, match="work budget"):
            random_negative_search(Form(2, 51, {}), trials, 0)

    def test_dense_form_refused_before_first_draw(self, monkeypatch):
        # 10^6 trials x 4 variables x degree 20 passes WORK_BUDGET, but the
        # 1,771 terms take about 1.3 ms a trial: some 21 minutes in all
        monkeypatch.setattr(random.Random, "randint", lambda *a: pytest.fail("drew"))
        f = parse_form("(x+y+z+w)^20", ["x", "y", "z", "w"])
        with pytest.raises(OracleError, match="term work budget"):
            random_negative_search(f, MAX_RANDOM_TRIALS, 0)

    def test_million_trials_on_p6_allowed(self, monkeypatch):
        # 10^6 trials x 3 variables x degree 24 = 7.2e7
        monkeypatch.setattr(random.Random, "randint", _first_draw)
        with pytest.raises(FirstDraw):
            random_negative_search(corpus_form("example3-p6"), MAX_RANDOM_TRIALS, 0)
