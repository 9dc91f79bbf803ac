"""Cells of iterated barycentric subdivisions of the standard simplex.

A length-m chain of substitution indices corresponds to one subsimplex of
the m-th barycentric subdivision: its vertices are the columns of the
chain's composed matrix, found from integer vertices (`pwn_step`), and
points are pulled back by the bidiagonal inverse (`pwn_preimage`).
Diameters are kept as exact squared distances so no square roots are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, List, Sequence, Tuple

from .forms import Point, in_simplex
from .matrices import Chain, chain_vertices, check_length, pwn_perms, pwn_preimage, pwn_step

DEFAULT_CELL_BUDGET = 10**6


class GeometryError(ValueError):
    """Invalid geometric query (point outside simplex, budget exceeded)."""


@dataclass(frozen=True)
class Cell:
    """Subsimplex of a barycentric subdivision, with its identifying chain."""

    vertices: Tuple[Point, ...]
    chain: Chain


def cell_of_chain(chain: Sequence[int], n: int) -> Cell:
    """Cell whose vertices are the columns of the chain's composed matrix."""
    verts, den = chain_vertices(chain, n)
    return Cell(
        vertices=tuple(tuple(Fraction(x, den) for x in v) for v in verts),
        chain=tuple(chain),
    )


def _squared_diameter(vs: Sequence[Point]):
    return max((sum((a - b) ** 2 for a, b in zip(u, v)) for u, v in combinations(vs, 2)), default=0)


def squared_diameter(cell: Cell) -> Fraction:
    """Maximum squared Euclidean distance between vertex pairs."""
    return Fraction(_squared_diameter(cell.vertices))


def cell_count(n: int, m: int) -> int:
    """(n!)^m, the number of depth-m cells, multiplied up one factor at a time
    and refused (GeometryError) as soon as it passes DEFAULT_CELL_BUDGET."""
    if m < 0:
        raise GeometryError("depth must be non-negative")
    count = 1
    for _ in range(m if n > 1 else 0):
        for k in range(2, n + 1):
            count *= k
            if count > DEFAULT_CELL_BUDGET:
                raise GeometryError(f"(n!)^m = ({n}!)^{m} exceeds cell budget {DEFAULT_CELL_BUDGET}")
    return count


def walk_cells(n: int, m: int) -> Iterator[Tuple[Chain, Tuple[Tuple[int, ...], ...]]]:
    """Every depth-m cell as (chain, its integer vertices over lcm(1..n)^m, as
    `chain_vertices` gives them), depth-first in lexicographic chain order.
    Before the first cell it refuses (n!)^m past the cell budget (`cell_count`),
    then m past `check_length`, then n past `pwn_perms`."""
    cell_count(n, m)
    check_length(m)  # n = 1 has one cell of every depth
    perms = pwn_perms(n)
    stack = [((), chain_vertices((), n)[0])]  # at most m·n! cells at a time
    while stack:
        chain, verts = stack.pop()
        if len(chain) == m:
            yield chain, verts
        else:
            stack.extend(((*chain, i), pwn_step(verts, perms[i - 1])) for i in range(len(perms), 0, -1))


def max_diameter_at_depth(n: int, m: int) -> Fraction:
    """Maximum squared diameter over all (n!)^m depth-m cells of `walk_cells`."""
    best = max(_squared_diameter(verts) for _, verts in walk_cells(n, m))
    return Fraction(best, math.lcm(*range(1, n + 1)) ** (2 * m))


def locate_point(p: Sequence, depth: int) -> Chain:
    """Lexicographically smallest length-`depth` chain whose cell contains p.

    At each level the point is pulled back through the first permutation
    whose preimage has non-negative coordinates; cells with a shared face
    therefore resolve to the smallest chain.  A depth above
    MAX_CHAIN_LENGTH is refused (MatrixError) before any step.
    """
    coords = tuple(Fraction(x) for x in p)
    if not in_simplex(coords):
        raise GeometryError(f"point {coords} is not in the standard simplex")
    n = len(coords)
    perms = pwn_perms(n)
    chain: List[int] = []
    current = coords
    for _ in range(check_length(depth)):
        for i, p in enumerate(perms, start=1):
            t = pwn_preimage(p, current)
            if all(x >= 0 for x in t):
                chain.append(i)
                current = t
                break
        else:  # cells cover the simplex, so this cannot happen
            raise GeometryError(f"no cell contains {coords}")
    return tuple(chain)
