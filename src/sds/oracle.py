"""Brute-force sampling oracles over the standard simplex.

These are evidence generators, independent of the substitution engine: an
exact minimum over the denominator-N lattice of the simplex, and a seeded
random search for negative values.  Both stay in rational arithmetic so a
reported negative value is a proof of one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from .forms import Form, Point, evaluate

DEFAULT_GRID_BUDGET = 2_000_000
MAX_RANDOM_DENOMINATOR = 10**4
MAX_RANDOM_TRIALS = 10**6


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


def grid_min(f: Form, spec: GridSpec) -> Tuple[Fraction, Point]:
    """Exact minimum of f over the grid, with the lex-least attaining point."""
    if spec.denominator < 1 or spec.nvars < 1:
        raise OracleError("grid needs a positive denominator and nvars")
    if spec.nvars != f.nvars:
        raise OracleError("grid dimension does not match the form")
    if spec.size() > DEFAULT_GRID_BUDGET:
        raise OracleError(f"grid size {spec.size()} exceeds budget {DEFAULT_GRID_BUDGET}")
    best_val: Optional[Fraction] = None
    best_point: Optional[Point] = None
    for point in iter_grid(spec):
        v = evaluate(f, point)
        if best_val is None or v < best_val:
            best_val, best_point = v, point
    assert best_val is not None and best_point is not None
    return best_val, best_point


def random_negative_search(
    f: Form, trials: int, seed: int
) -> Optional[Tuple[Point, Fraction]]:
    """Seeded random search for a point of the simplex where f < 0.

    Each trial draws, from Python's Mersenne Twister seeded with `seed`, a
    denominator D in [1, 10^4] and n integers in [0, D]; the vector is
    normalized by its sum (all-zero draws are skipped).  Returns the first
    (point, value) with value < 0, or None after `trials` trials; more than
    MAX_RANDOM_TRIALS trials are refused before the first draw.
    """
    if trials < 1:
        raise OracleError("trials must be >= 1")
    if trials > MAX_RANDOM_TRIALS:
        raise OracleError(f"{trials} trials exceed the budget of {MAX_RANDOM_TRIALS}")
    rng = random.Random(seed)
    n = f.nvars
    for _ in range(trials):
        d = rng.randint(1, MAX_RANDOM_DENOMINATOR)
        parts = [rng.randint(0, d) for _ in range(n)]
        s = sum(parts)
        if s == 0:
            continue
        point = tuple(Fraction(a, s) for a in parts)
        v = evaluate(f, point)
        if v < 0:
            return point, v
    return None
