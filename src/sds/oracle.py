"""Brute-force sampling oracles over the standard simplex.

These are evidence generators, independent of the substitution engine: an
exact minimum over the denominator-N lattice of the simplex, and a seeded
random search for negative values.  Both evaluate in exact integers
(`forms.int_value` at the scaled lattice point) and report an exact
rational value, so a reported negative value is a proof of one.  Each
refuses, before its first point, a request whose points × nvars × degree
exceeds WORK_BUDGET, as the power tables alone take nvars × degree
multiplications per point, or whose points × terms exceeds
TERM_WORK_BUDGET, as each point multiplies every term once per variable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from .forms import Form, Point, int_value

DEFAULT_GRID_BUDGET = 2_000_000
MAX_RANDOM_DENOMINATOR = 10**4
MAX_RANDOM_TRIALS = 10**6
WORK_BUDGET = 10**8
TERM_WORK_BUDGET = 4 * 10**8  # about 7 minutes at the 1 µs per point-term of (x+y+z+w)^20


class OracleError(ValueError):
    """Invalid oracle request (bad grid spec, budget exceeded)."""


@dataclass(frozen=True)
class GridSpec:
    """The lattice {(a1/N, ..., an/N) : ai >= 0 integers, sum = N}."""

    denominator: int
    nvars: int

    def size(self) -> int:
        return math.comb(self.denominator + self.nvars - 1, self.nvars - 1)


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All compositions of `total` into `parts` parts, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def iter_grid(spec: GridSpec) -> Iterator[Point]:
    for comp in _compositions(spec.denominator, spec.nvars):
        yield tuple(Fraction(a, spec.denominator) for a in comp)


def _check_work(f: Form, points: int) -> None:
    work = points * f.nvars * f.degree
    if work > WORK_BUDGET:
        raise OracleError(
            f"{points} points x {f.nvars} variables x degree {f.degree} = {work} "
            f"exceeds the work budget of {WORK_BUDGET}")
    work = points * len(f.nums)
    if work > TERM_WORK_BUDGET:
        raise OracleError(f"{points} points x {len(f.nums)} terms = {work} "
                          f"exceeds the term work budget of {TERM_WORK_BUDGET}")


def grid_min(f: Form, spec: GridSpec) -> Tuple[Fraction, Point]:
    """Exact minimum of f over the grid, with the lex-least attaining point.

    Every grid value is int_value(f, a) / (den · N^d) for the composition a
    of N, over one positive denominator, so the integers are compared
    directly; strict `<` keeps the lex-least argmin.  Only the minimum is
    turned into a Fraction and a point.
    """
    if spec.denominator < 1 or spec.nvars < 1:
        raise OracleError("grid needs a positive denominator and nvars")
    if spec.nvars != f.nvars:
        raise OracleError("grid dimension does not match the form")
    if spec.size() > DEFAULT_GRID_BUDGET:
        raise OracleError(f"grid size {spec.size()} exceeds budget {DEFAULT_GRID_BUDGET}")
    _check_work(f, spec.size())
    best_val: Optional[int] = None
    best_comp: Optional[Tuple[int, ...]] = None
    for comp in _compositions(spec.denominator, spec.nvars):
        v = int_value(f, comp)
        if best_val is None or v < best_val:
            best_val, best_comp = v, comp
    assert best_val is not None and best_comp is not None
    value = Fraction(best_val, f.den * spec.denominator ** f.degree)
    return value, tuple(Fraction(a, spec.denominator) for a in best_comp)


def random_negative_search(
    f: Form, trials: int, seed: int
) -> Optional[Tuple[Point, Fraction]]:
    """Seeded random search for a point of the simplex where f < 0.

    Each trial draws, from Python's Mersenne Twister seeded with `seed`, a
    denominator D in [1, 10^4] and n integers in [0, D]; the vector is
    normalized by its sum s (all-zero draws are skipped).  The sign of f
    there is the sign of int_value(f, draw); only a hit builds its point and
    its value int_value / (den · s^d).  Returns the first (point, value) with
    value < 0, or None after `trials` trials; more than MAX_RANDOM_TRIALS
    trials, or more work than either budget, are refused before the first draw.
    """
    if trials < 1:
        raise OracleError("trials must be >= 1")
    if trials > MAX_RANDOM_TRIALS:
        raise OracleError(f"{trials} trials exceed the budget of {MAX_RANDOM_TRIALS}")
    _check_work(f, trials)
    rng = random.Random(seed)
    n = f.nvars
    for _ in range(trials):
        d = rng.randint(1, MAX_RANDOM_DENOMINATOR)
        parts = [rng.randint(0, d) for _ in range(n)]
        s = sum(parts)
        if s == 0:
            continue
        v = int_value(f, parts)
        if v < 0:
            return tuple(Fraction(a, s) for a in parts), Fraction(v, f.den * s ** f.degree)
    return None
