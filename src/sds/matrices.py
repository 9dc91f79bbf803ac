"""Weighted difference substitutions: structured maps, and matrices as reference.

Column j of M·B, B = P·W_n, is the mean of the first j+1 columns of M in
the order P ranks them, and B⁻¹ is bidiagonal: `pwn_step` and
`pwn_preimage` use that, in integers and without products.  The dense
Fraction `SubMatrix` (W_n, permutations, chain products) is their reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Sequence, Tuple

Chain = Tuple[int, ...]

MAX_PWN_ELEMENTS = 40320  # 8!; enumerating beyond this is refused
# longer chains are refused: a certificate walk copies every prefix of its
# chains, so its cost grows with the square of their length
MAX_CHAIN_LENGTH = 5000


class MatrixError(ValueError):
    """Invalid matrix construction or use."""


class SubMatrix:
    """Dense square matrix of Fractions (row-major storage)."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise MatrixError("matrix must be square and non-empty")
        self.n = n
        self.rows = tuple(tuple(Fraction(x) for x in r) for r in rows)

    @staticmethod
    def identity(n: int) -> "SubMatrix":
        if n < 1:
            raise MatrixError("n must be positive")
        return SubMatrix(
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __matmul__(self, other: "SubMatrix") -> "SubMatrix":
        if self.n != other.n:
            raise MatrixError("dimension mismatch")
        n = self.n
        cols = list(zip(*other.rows))
        return SubMatrix(
            [
                [sum(a * b for a, b in zip(row, col)) for col in cols]
                for row in self.rows
            ]
        )

    def matvec(self, v: Sequence) -> Tuple[Fraction, ...]:
        if len(v) != self.n:
            raise MatrixError("dimension mismatch")
        vec = [Fraction(x) for x in v]
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def column(self, j: int) -> Tuple[Fraction, ...]:
        return tuple(row[j] for row in self.rows)

    def det(self) -> Fraction:
        """Exact determinant by fraction-free-ish Gaussian elimination."""
        a = [list(row) for row in self.rows]
        n = self.n
        sign = 1
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                sign = -sign
            det *= a[col][col]
            inv = 1 / a[col][col]
            for r in range(col + 1, n):
                if a[r][col]:
                    factor = a[r][col] * inv
                    for k in range(col, n):
                        a[r][k] -= factor * a[col][k]
        return sign * det

    def solve(self, b: Sequence) -> Tuple[Fraction, ...]:
        """Exact solution x of self·x = b (raises on singular matrices)."""
        n = self.n
        if len(b) != n:
            raise MatrixError("dimension mismatch")
        a = [list(row) + [Fraction(b[i])] for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                raise MatrixError("singular matrix")
            a[col], a[pivot] = a[pivot], a[col]
            inv = 1 / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    factor = a[r][col]
                    a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
        return tuple(a[i][n] for i in range(n))

    def __repr__(self) -> str:
        return f"SubMatrix({[[str(x) for x in row] for row in self.rows]})"


def weighted_matrix(n: int) -> SubMatrix:
    """The weight matrix: entry (i, j) = 1/j for i <= j (1-based), else 0."""
    if n < 1:
        raise MatrixError("n must be positive")
    return SubMatrix(
        [
            [Fraction(1, j) if i <= j else Fraction(0) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    )


def _check_perm(perm: Sequence[int]) -> Tuple[int, ...]:
    perm = tuple(perm)
    n = len(perm)
    if n == 0 or sorted(perm) != list(range(1, n + 1)):
        raise MatrixError(f"not a permutation of 1..n: {perm}")
    return perm


def permutation_matrix(perm: Sequence[int]) -> SubMatrix:
    """0/1 matrix with entry (i, perm[i]) = 1 (1-based row convention)."""
    perm = _check_perm(perm)
    n = len(perm)
    return SubMatrix(
        [
            [Fraction(int(perm[i] == j + 1)) for j in range(n)]
            for i in range(n)
        ]
    )


def sds_matrix(perm: Sequence[int]) -> SubMatrix:
    """The weighted difference substitution matrix P_perm · W_n."""
    perm = _check_perm(perm)
    w = weighted_matrix(len(perm))
    # row i of P·W is row perm[i] of W; avoid the full product
    return SubMatrix([w.rows[perm[i] - 1] for i in range(len(perm))])


@lru_cache(maxsize=None)
def pwn_perms(n: int) -> Tuple[Tuple[int, ...], ...]:
    """All n! permutations of 1..n in lexicographic order; chain index i
    names perms[i-1].  Refused beyond MAX_PWN_ELEMENTS."""
    if n < 1:
        raise MatrixError("n must be positive")
    if math.factorial(n) > MAX_PWN_ELEMENTS:
        raise MatrixError(f"{n}! = {math.factorial(n)} exceeds the limit of {MAX_PWN_ELEMENTS}")
    return tuple(permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def enumerate_pwn(n: int) -> Tuple[SubMatrix, ...]:
    """All n! substitution matrices in lexicographic permutation order."""
    return tuple(sds_matrix(p) for p in pwn_perms(n))


def check_chain(chain: Sequence[int], n: int) -> Chain:
    """The chain as a tuple; MatrixError unless it has at most
    MAX_CHAIN_LENGTH indices and every index is an int in 1..n!."""
    if len(chain) > MAX_CHAIN_LENGTH:
        raise MatrixError(f"chain of length {len(chain)} exceeds the limit of {MAX_CHAIN_LENGTH}")
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
    vertices (the columns of compose_chain(chain, n)) are V/D."""
    perms = pwn_perms(n)
    verts = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    for idx in check_chain(chain, n):
        verts = pwn_step(verts, perms[idx - 1])
    return verts, _scales(n)[0] ** len(chain)  # _scales(n)[0] = lcm(1..n)


def compose_chain(chain: Sequence[int], n: int) -> SubMatrix:
    """Product of the chain's substitution matrices, in chain order.

    The empty chain gives the identity.  Indices are 1-based into the
    lexicographic enumeration of PW_n.
    """
    mats = enumerate_pwn(n)
    out = SubMatrix.identity(n)
    for idx in check_chain(chain, n):
        out = out @ mats[idx - 1]
    return out


def is_normalized(m: SubMatrix) -> bool:
    """True iff every column sums to exactly 1."""
    return all(sum(m.column(j)) == 1 for j in range(m.n))


def barycenter_image(chain: Sequence[int], n: int) -> Tuple[Fraction, ...]:
    """Image of the barycenter (1/n, ..., 1/n) under the chain's matrix:
    the mean of the chain's cell vertices."""
    verts, den = chain_vertices(chain, n)
    return tuple(Fraction(sum(xs), n * den) for xs in zip(*verts))
