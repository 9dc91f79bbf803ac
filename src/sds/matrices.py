"""Weighted difference substitutions B = P·W_n as structured integer maps.

Column j of M·B is the mean of the first j+1 columns of M in the order P
ranks them, and B⁻¹ is bidiagonal: `pwn_step` and `pwn_preimage` use that,
in integers and without products, and `chain_vertices` gives a chain's
product matrix as integer columns over one denominator.  No dense matrix
is built here; the Fraction matrices they are tested against live with
the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Sequence, Tuple

Chain = Tuple[int, ...]

MAX_PWN_ELEMENTS = 40320  # 8!; enumerating beyond this is refused
# longer chains are refused: their vertices and barycenter gain bits at every
# step, so cost the square of the length (n = 2: 0.04 s at 5000, 0.2 s at 20,000)
MAX_CHAIN_LENGTH = 5000


class MatrixError(ValueError):
    """Invalid matrix construction or use."""


@lru_cache(maxsize=None)
def pwn_perms(n: int) -> Tuple[Tuple[int, ...], ...]:
    """All n! permutations of 1..n in lexicographic order; chain index i
    names perms[i-1].  Refused beyond MAX_PWN_ELEMENTS."""
    if n < 1:
        raise MatrixError("n must be positive")
    if math.factorial(n) > MAX_PWN_ELEMENTS:
        raise MatrixError(f"{n}! = {math.factorial(n)} exceeds the limit of {MAX_PWN_ELEMENTS}")
    return tuple(permutations(range(1, n + 1)))


def check_length(length: int) -> int:
    """`length`; MatrixError if it is above MAX_CHAIN_LENGTH."""
    if length > MAX_CHAIN_LENGTH:
        raise MatrixError(f"chain of length {length} exceeds the limit of {MAX_CHAIN_LENGTH}")
    return length


def check_chain(chain: Sequence[int], n: int) -> Chain:
    """The chain as a tuple; MatrixError unless it has at most
    MAX_CHAIN_LENGTH indices and every index is an int in 1..n!."""
    check_length(len(chain))
    count = len(pwn_perms(n))
    for idx in chain:
        if type(idx) is not int or not 1 <= idx <= count:  # bool is not an index
            raise MatrixError(f"chain index {idx} out of range 1..{count}")
    return tuple(chain)


@lru_cache(maxsize=None)
def _scales(n: int) -> Tuple[int, ...]:
    lcm = math.lcm(*range(1, n + 1))
    return tuple(lcm // j for j in range(1, n + 1))


def pwn_step(vertices: Sequence[Sequence[int]], perm: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """Vertices of the cell M·B, B = P_perm·W_n, times L = lcm(1..n).

    `vertices` are the columns of M.  Vertex j is the sum of the columns
    that perm ranks 1..j+1, scaled by L/(j+1); integer columns stay integer.
    """
    out = []
    acc = [0] * len(vertices[0])
    for scale, i in zip(_scales(len(perm)), sorted(range(len(perm)), key=perm.__getitem__)):
        acc = [a + b for a, b in zip(acc, vertices[i])]
        out.append(tuple(scale * a for a in acc))
    return tuple(out)


def pwn_preimage(perm: Sequence[int], x: Sequence) -> tuple:
    """The t with P_perm·W_n·t = x: with u_{perm[i]} = x_i and u_{n+1} = 0,
    t_j = j·(u_j − u_{j+1})."""
    n = len(perm)
    if len(x) != n:
        raise MatrixError("dimension mismatch")
    u = [0] * (n + 1)
    for r, xi in zip(perm, x):
        u[r - 1] = xi
    return tuple((j + 1) * (u[j] - u[j + 1]) for j in range(n))


def chain_vertices(chain: Sequence[int], n: int) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
    """Integer vertices V and denominator D of the chain's cell: its
    vertices, the columns of the product of the chain's matrices, are V/D."""
    perms = pwn_perms(n)
    verts = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    for idx in check_chain(chain, n):
        verts = pwn_step(verts, perms[idx - 1])
    return verts, _scales(n)[0] ** len(chain)  # _scales(n)[0] = lcm(1..n)


def barycenter_image(chain: Sequence[int], n: int) -> Tuple[Fraction, ...]:
    """Image of the barycenter (1/n, ..., 1/n) under the chain's matrix:
    the mean of the chain's cell vertices."""
    verts, den = chain_vertices(chain, n)
    return tuple(Fraction(sum(xs), n * den) for xs in zip(*verts))
