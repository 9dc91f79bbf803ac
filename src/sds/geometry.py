"""Cells of iterated barycentric subdivisions of the standard simplex.

A length-m chain of substitution indices corresponds to one subsimplex of
the m-th barycentric subdivision: its vertices are the columns of the
chain's composed matrix.  Diameters are kept as exact squared distances so
no square roots are needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .forms import Point, in_simplex
from .matrices import Chain, MatrixError, SubMatrix, compose_chain, enumerate_pwn

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
    m = compose_chain(chain, n)
    return Cell(
        vertices=tuple(m.column(j) for j in range(n)),
        chain=tuple(chain),
    )


def _squared_diameter(vs: Sequence[Point]) -> Fraction:
    best = Fraction(0)
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            d = sum((a - b) ** 2 for a, b in zip(vs[i], vs[j]))
            if d > best:
                best = d
    return best


def squared_diameter(cell: Cell) -> Fraction:
    """Maximum squared Euclidean distance between vertex pairs."""
    return _squared_diameter(cell.vertices)


def cell_count(n: int, m: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> int:
    """(n!)^m, the number of depth-m cells, multiplied up one factor at a time
    and refused (GeometryError) as soon as it passes cell_budget."""
    if m < 0:
        raise GeometryError("depth must be non-negative")
    count = 1
    for _ in range(m if n > 1 else 0):
        for k in range(2, n + 1):
            count *= k
            if count > cell_budget:
                raise GeometryError(f"(n!)^m = ({n}!)^{m} exceeds cell budget {cell_budget}")
    return count


def max_diameter_at_depth(n: int, m: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> Fraction:
    """Maximum squared diameter over all (n!)^m depth-m cells.

    Walks the chain tree depth-first, reusing prefix products.
    """
    cell_count(n, m, cell_budget)
    mats = enumerate_pwn(n)
    best = Fraction(0)

    def walk(prod: SubMatrix, depth: int) -> None:
        nonlocal best
        if depth == m:
            best = max(best, _squared_diameter(tuple(prod.column(j) for j in range(n))))
            return
        for b in mats:
            walk(prod @ b, depth + 1)

    walk(SubMatrix.identity(n), 0)
    return best


def locate_point(p: Sequence, depth: int) -> Chain:
    """Lexicographically smallest length-`depth` chain whose cell contains p.

    At each level the point is pulled back through the first matrix whose
    exact solve yields non-negative coordinates; cells with a shared face
    therefore resolve to the smallest chain.
    """
    coords = tuple(Fraction(x) for x in p)
    if not in_simplex(coords):
        raise GeometryError(f"point {coords} is not in the standard simplex")
    n = len(coords)
    mats = enumerate_pwn(n)
    chain: List[int] = []
    current = coords
    for _ in range(depth):
        for i, b in enumerate(mats, start=1):
            t = b.solve(current)
            if all(x >= 0 for x in t):
                chain.append(i)
                current = t
                break
        else:  # cells cover the simplex, so this cannot happen
            raise GeometryError(f"no cell contains {coords}")
    return tuple(chain)
