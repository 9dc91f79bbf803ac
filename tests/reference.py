"""The dense Fraction reference for the P·W_n substitutions, and the
term-by-term evaluation the sampling oracles are checked against.

`SubMatrix`, the weight matrix W_n, the permutation matrices, the n!
matrices P·W_n and the chain products, as plain square matrices of
Fractions.  The structured maps in `sds.matrices` (`pwn_step`,
`pwn_preimage`, `chain_vertices`) and the kernel `sds.forms.substitute_pwn`
are tested against them; nothing in the package uses them.

`substitute_linear_powers` expands f(M·T) for a square matrix M from
power tables of the rows and products of powers per term, the way
`sds.forms.substitute_linear` did before its Horner scheme, which is
tested against it.

`verify_certificate_root_up` is `sds.engine.verify_certificate` as it
was before its one-pass walk, without its budgets: every entry's form is
expanded from the root by its chain's `compose_chain` product, and a
second walk over the chains alone checks that they cover the tree.  The
one-pass verifier is tested against it.

`evaluate` computes each power x**k on its own and walks the terms one by
one; `grid_min` and `random_negative_search` build a Fraction point and
value for every sample through it.  `sds.forms.evaluate`, `int_value` and
the oracles in `sds.oracle` are tested against them.

`is_nonlacunary_positive`, a sign test that nothing in the package needs,
is kept here with its test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Dict, List, Optional, Sequence, Tuple

from sds.forms import Exponent, Form, FormError, Point, _mul, is_trivially_positive, substitute_linear
from sds.matrices import MatrixError, check_chain, pwn_perms
from sds.oracle import MAX_RANDOM_DENOMINATOR, GridSpec, iter_grid


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

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.rows)

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
def enumerate_pwn(n: int) -> Tuple[SubMatrix, ...]:
    """All n! substitution matrices in lexicographic permutation order."""
    return tuple(sds_matrix(p) for p in pwn_perms(n))


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


def substitute_linear_powers(f: Form, rows: Sequence[Sequence]) -> Form:
    """Expanded form g with g(T) = f(M·T) for an exact square matrix M.

    `rows` are M's rows of rationals.  The power-table expansion that
    `sds.forms.substitute_linear` computed before its Horner scheme, kept
    unchanged as that function's reference.  It clears denominators and runs in
    integer arithmetic with the parser's `_mul`: with S the lcm of the
    matrix denominators and C = f.den, f(M·T) = (1/(C·S^d)) · f_C(S·M·T)
    where f_C = f.nums has integer coefficients.
    """
    n = f.nvars
    if len(rows) != n or any(len(r) != n for r in rows):
        raise FormError(f"matrix is not {n}x{n}")
    if f.is_zero():
        return f

    entries = [[Fraction(x) for x in r] for r in rows]
    s = math.lcm(*(x.denominator for r in entries for x in r))

    # integer linear images: variable i maps to row i of S·M
    zero = (0,) * n
    images: List[Dict[Exponent, int]] = []
    for i in range(n):
        img: Dict[Exponent, int] = {}
        for j in range(n):
            v = entries[i][j] * s
            if v:
                e = list(zero)
                e[j] = 1
                img[tuple(e)] = int(v)
        images.append(img)

    # lazily extended power tables per variable
    pow_tabs: List[List[Dict[Exponent, int]]] = [[{zero: 1}] for _ in range(n)]

    def power(i: int, k: int) -> Dict[Exponent, int]:
        tab = pow_tabs[i]
        while len(tab) <= k:
            tab.append(_mul(tab[-1], images[i], n))
        return tab[k]

    acc: Dict[Exponent, int] = {}
    for exp, ic in f.nums.items():
        factors = [power(i, e) for i, e in enumerate(exp) if e]
        factors.sort(key=len)
        if not factors:
            acc[zero] = acc.get(zero, 0) + ic
            continue
        prod = factors[0]
        for fac in factors[1:]:
            prod = _mul(prod, fac, n)
        for e, v in prod.items():
            acc[e] = acc.get(e, 0) + ic * v

    return Form._from_ints(n, f.degree, f.den * s ** f.degree, acc)


def verify_certificate_root_up(f: Form, cert: Sequence[Tuple[Tuple[int, ...], Form]]) -> bool:
    """Valid iff every entry's form equals f(M·T), M its chain's product, and
    is trivially positive, and walking from the root and descending into
    every non-certificate chain ends each branch on exactly one certificate
    chain, with no entry left unused."""
    if not cert:
        return False
    n = f.nvars
    cert_map = {check_chain(chain, n): form for chain, form in cert}
    if len(cert_map) != len(cert):  # a duplicate chain
        return False
    for chain, form in cert_map.items():
        if form != substitute_linear(f, compose_chain(chain, n)) or not is_trivially_positive(form):
            return False

    max_len = max(map(len, cert_map))
    count = len(pwn_perms(n))
    seen = set()
    stack: List[Tuple[int, ...]] = [()]
    while stack:
        chain = stack.pop()
        if chain in cert_map:
            seen.add(chain)
            continue
        if len(chain) >= max_len:
            return False
        stack.extend(chain + (i,) for i in range(count, 0, -1))
    return len(seen) == len(cert_map)


def evaluate(f: Form, p: Sequence) -> Fraction:
    """Exact value of f at p (any sequence of rationals).

    With B the lcm of the coordinate denominators, homogeneity gives
    f(p) = sum nums[e] * prod (B*p_i)^e_i / (den * B^d), all in integers.
    """
    if len(p) != f.nvars:
        raise FormError(f"point has {len(p)} coordinates, form has {f.nvars}")
    coords = [Fraction(x) for x in p]
    big_b = math.lcm(*(x.denominator for x in coords))
    ints = [x.numerator * (big_b // x.denominator) for x in coords]
    # per-variable power tables; exponents repeat heavily across monomials
    pows = [[x ** k for k in range(f.degree + 1)] for x in ints]
    total = 0
    for exp, v in f.nums.items():
        for tab, e in zip(pows, exp):
            v *= tab[e]
        total += v
    return Fraction(total, f.den * big_b ** f.degree)


def is_nonlacunary_positive(f: Form) -> bool:
    """True iff all C(d+n-1, n-1) degree-d monomials have positive coefficients."""
    n, d = f.nvars, f.degree
    for combo in combinations_with_replacement(range(n), d):
        exp = [0] * n
        for i in combo:
            exp[i] += 1
        if f.nums.get(tuple(exp), 0) <= 0:
            return False
    return True


def grid_min(f: Form, spec: GridSpec) -> Tuple[Fraction, Point]:
    """Minimum of f over the grid, first attaining point in lex order."""
    best_val: Optional[Fraction] = None
    best_point: Optional[Point] = None
    for point in iter_grid(spec):
        v = evaluate(f, point)
        if best_val is None or v < best_val:
            best_val, best_point = v, point
    return best_val, best_point


def random_negative_search(f: Form, trials: int, seed: int) -> Optional[Tuple[Point, Fraction]]:
    """The first negative (point, value) of the seeded draws, as `sds.oracle` draws them."""
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
