"""Exact sparse arithmetic for homogeneous polynomials (forms) over Q.

A form is stored as one positive integer denominator over a map from
exponent tuples to non-zero integer numerators; all exponent tuples share
the same total degree.  The zero form is the empty map.  Everything here is
exact: floating point never touches a coefficient.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

Exponent = Tuple[int, ...]
Point = Tuple[Fraction, ...]


class FormError(ValueError):
    """Invalid form construction or use (dimension/homogeneity violations)."""


class ParseError(ValueError):
    """Syntax or semantic error in polynomial text; carries a position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Form:
    """Homogeneous polynomial with exact rational coefficients.

    Stored as one positive denominator `den` over integer numerators `nums`
    (exponent -> non-zero int), in lowest terms: gcd(den, *nums) == 1.  That
    representation is canonical, so two forms are equal exactly when their
    (nvars, degree, den, nums) are.  Immutable after construction; a
    declared degree is kept even for the zero form.
    """

    __slots__ = ("nvars", "degree", "den", "nums", "_hash")

    def __init__(self, nvars: int, degree: int, terms: Mapping[Exponent, Fraction]):
        if nvars < 1:
            raise FormError("a form needs at least one variable")
        if degree < 0:
            raise FormError("degree must be non-negative")
        clean: Dict[Exponent, Fraction] = {}
        for exp, coef in terms.items():
            coef = Fraction(coef)
            if coef == 0:
                continue
            exp = tuple(exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise FormError(f"bad exponent vector {exp} for {nvars} variables")
            if sum(exp) != degree:
                raise FormError(
                    f"monomial {exp} has degree {sum(exp)}, expected {degree}"
                )
            clean[exp] = coef
        den = math.lcm(*(c.denominator for c in clean.values()))
        self._set(nvars, degree, den, {e: c.numerator * (den // c.denominator) for e, c in clean.items()})

    @classmethod
    def _from_ints(cls, nvars: int, degree: int, den: int, nums: Dict[Exponent, int]) -> "Form":
        """The form sum nums[e]/den * t^e, for den > 0 and exponents already valid.
        The form takes ownership of `nums`: the caller must not touch it again."""
        self = cls.__new__(cls)
        self._set(nvars, degree, den, nums)
        return self

    def _set(self, nvars: int, degree: int, den: int, nums: Dict[Exponent, int]) -> None:
        g = math.gcd(den, *nums.values())
        self.nvars, self.degree, self.den = nvars, degree, den // g
        # a dict already in lowest terms with no zero is kept as it is
        self.nums = nums if g == 1 and all(nums.values()) else {e: v // g for e, v in nums.items() if v}
        self._hash = None

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Read-only view of the coefficients as Fractions, built on each call."""
        return MappingProxyType({e: Fraction(v, self.den) for e, v in self.nums.items()})

    def key(self) -> tuple:
        """Canonical hashable identity: equal forms, and only those, have equal keys."""
        return (self.nvars, self.degree, self.den, tuple(sorted(self.nums.items())))

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, Form) and (
            (self.den, self.nvars, self.degree, self.nums) == (other.den, other.nvars, other.degree, other.nums))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, self.degree, self.den, frozenset(self.nums.items())))
        return self._hash

    def is_zero(self) -> bool:
        return not self.nums

    def to_text(self, vars: Sequence[str]) -> str:
        """Serialize as `coef*x^e*...` terms in graded-lex order."""
        if len(vars) != self.nvars:
            raise FormError("variable list length does not match nvars")
        if not self.nums:
            return "0"
        parts = []
        # graded-lex order: descending lex, as all degrees are equal
        for exp, coef in sorted(self.terms.items(), reverse=True):
            factors = [str(coef)]
            for name, e in zip(vars, exp):
                if e:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Form(nvars={self.nvars}, degree={self.degree}, terms={len(self.nums)})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# parentheses deeper than this are refused; each level costs the parser four
# stack frames, well inside the interpreter's recursion limit
MAX_NESTING = 100
# a product or power is refused before it expands anything when its degree
# (or a power's exponent) is above MAX_DEGREE, when it would write more
# than MAX_TERMS terms before like terms combine, or when its coefficients
# could need more than MAX_COEFF_BITS bits
MAX_DEGREE = 1000
MAX_TERMS = 200_000
MAX_COEFF_BITS = 10_000

# integers are ASCII digits; a name is a letter or '_', then letters, digits
# or '_' (\w is str.isalnum() or '_'); whitespace matches nothing, so
# finditer skips it, and any other character is a "bad" token
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*^()/])|(?P<bad>\S)")


def _check_characters(text: str) -> None:
    """Refuse the first "bad" token, or a name that starts with a numeral such as '½'."""
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad" or (kind == "name" and not (m.group()[0].isalpha() or m.group()[0] == "_")):
            raise ParseError(f"unexpected character {m.group()[0]!r}", m.start())


def _tokenize(text: str) -> Iterator[Tuple[str, str, int]]:
    """The (kind, text, position) of each token, then ("end", "", len(text))."""
    for m in _TOKEN.finditer(text):
        yield m.lastgroup, m.group(), m.start()
    yield "end", "", len(text)


class _Parser:
    """Recursive-descent parser for the input grammar.

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := ('+'|'-')* primary ('^' INT)?
    primary:= INT ['/' INT] | NAME | '(' expr ')'

    Implicit multiplication is rejected; '/' only forms rational literals.
    """

    def __init__(self, text: str, vars: Sequence[str]):
        _check_characters(text)  # a bad character is reported before any syntax error
        self.tokens = _tokenize(text)
        self.lookahead = next(self.tokens)
        self.nesting = 0
        self.nvars = len(vars)
        self.varindex = {name: i for i, name in enumerate(vars)}

    def next(self) -> Tuple[str, str, int]:
        tok = self.lookahead
        self.lookahead = next(self.tokens, tok)  # past the end, "end" again
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, at = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val or 'end of input'!r}", at)

    # polynomials inside the parser are plain {exponent: Fraction} dicts,
    # possibly non-homogeneous until the final Form check
    def parse(self) -> Dict[Exponent, Fraction]:
        poly = self.expr()
        kind, val, at = self.lookahead
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", at)
        return poly

    def expr(self) -> Dict[Exponent, Fraction]:
        poly = self.term()  # a leading sign belongs to the first factor
        while (tok := self.lookahead)[0] == "op" and tok[1] in "+-":
            self.next()
            for e, c in self.term().items():  # summed in place: no term holds a 0
                poly[e] = poly.get(e, 0) + (-c if tok[1] == "-" else c)
                if not poly[e]:
                    del poly[e]
        return poly

    def term(self) -> Dict[Exponent, Fraction]:
        poly, bits = self.factor()
        while True:
            kind, val, at = self.lookahead
            if kind == "op" and val == "*":
                self.next()
                rhs, rhs_bits = self.factor()
                bits += rhs_bits
                _check_budget(_degree(poly) + _degree(rhs), len(poly) * len(rhs), bits, at)
                poly = _mul(poly, rhs, self.nvars)
            else:
                return poly

    # factor and primary return a polynomial with a bound on its _coeff_bits
    def factor(self) -> Tuple[Dict[Exponent, Fraction], int]:
        sign = 1
        while True:
            kind, val, _ = self.lookahead
            if kind == "op" and val in "+-":
                self.next()
                if val == "-":
                    sign = -sign
            else:
                break
        base, bits = self.primary()
        kind, val, caret = self.lookahead
        if kind == "op" and val == "^":
            self.next()
            kind, val, at = self.next()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer literal", at)
            digits = val.lstrip("0") or "0"  # counted before int(), which refuses 4300 digits
            if len(digits) > len(str(MAX_DEGREE)) or int(digits) > MAX_DEGREE:
                raise ParseError(f"exponent {digits} exceeds the limit of {MAX_DEGREE}", caret)
            k = int(digits)
            bits *= k
            _check_budget(k * _degree(base), _power_writes(base, k, self.nvars), bits, caret)
            base = _pow(base, k, self.nvars)
        return _scale(base, sign), bits

    def primary(self) -> Tuple[Dict[Exponent, Fraction], int]:
        kind, val, at = self.next()
        if kind == "int":
            num = _literal(val, at)
            k2, v2, _ = self.lookahead
            if k2 == "op" and v2 == "/":
                self.next()
                k3, v3, at3 = self.next()
                if k3 != "int":
                    raise ParseError("expected integer denominator", at3)
                den = _literal(v3, at3)
                if den == 0:
                    raise ParseError("zero denominator", at3)
                return _const(Fraction(num, den), self.nvars), max(num.bit_length(), den.bit_length())
            return _const(Fraction(num), self.nvars), num.bit_length()
        if kind == "name":
            if val not in self.varindex:
                raise ParseError(f"unknown variable {val!r}", at)
            exp = [0] * self.nvars
            exp[self.varindex[val]] = 1
            return {tuple(exp): Fraction(1)}, 1
        if kind == "op" and val == "(":
            if self.nesting == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", at)
            self.nesting += 1
            poly = self.expr()
            self.expect_op(")")
            self.nesting -= 1
            return poly, _coeff_bits(poly)
        raise ParseError(f"unexpected {val or 'end of input'!r}", at)


def _literal(digits: str, at: int) -> int:
    """The value of an integer literal, refused by its digit count before
    int() when it is at least 10^(MAX_COEFF_BITS/3) > 2^MAX_COEFF_BITS."""
    digits = digits.lstrip("0")
    if (len(digits) - 1) * 3 >= MAX_COEFF_BITS:
        raise ParseError(f"coefficients could need more than {MAX_COEFF_BITS} bits", at)
    return int(digits or "0")


def _degree(p: Dict[Exponent, Fraction]) -> int:
    """Highest total degree of p's terms; 0 for the zero polynomial."""
    return max(map(sum, p), default=0)


def _power_writes(a: Dict[Exponent, Fraction], k: int, nvars: int) -> int:
    """Terms _pow(a, k) writes, at most: its k products a^i · a, with a^i
    no larger than the multisets of i terms of a or the monomials of its
    degrees.  Stops counting past MAX_TERMS."""
    if len(a) <= 1:
        return k * len(a)
    lo, hi = min(map(sum, a)), _degree(a)
    writes = 0
    for i in range(k):
        monomials = math.comb(i * hi + nvars, nvars) - math.comb(i * lo + nvars - 1, nvars)
        writes += len(a) * min(math.comb(len(a) + i - 1, i), monomials)
        if writes > MAX_TERMS:
            break
    return writes


def _coeff_bits(p: Dict[Exponent, Fraction]) -> int:
    """The larger of the bit lengths of p's absolute numerator sum over its
    denominator lcm and of that lcm.  It bounds the bits of every numerator
    and of the denominator of p; a product's is at most the sum of its
    operands', and a k-th power's at most k times its base's."""
    den = math.lcm(*(c.denominator for c in p.values()))
    total = sum(abs(c.numerator) * (den // c.denominator) for c in p.values())
    return max(den.bit_length(), total.bit_length())


def _check_budget(degree: int, writes: int, bits: int, at: int) -> None:
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the limit of {MAX_DEGREE}", at)
    if writes > MAX_TERMS:
        raise ParseError(f"expanding this would write more than {MAX_TERMS} terms", at)
    if bits > MAX_COEFF_BITS:
        raise ParseError(f"coefficients could need more than {MAX_COEFF_BITS} bits", at)


def _const(c: Fraction, nvars: int) -> Dict[Exponent, Fraction]:
    if c == 0:
        return {}
    return {(0,) * nvars: c}


def _scale(p: Dict[Exponent, Fraction], s) -> Dict[Exponent, Fraction]:
    if s == 1:
        return p
    return {e: c * s for e, c in p.items() if c * s != 0}


def _mul(a: Dict[Exponent, Fraction], b: Dict[Exponent, Fraction], nvars: int) -> Dict[Exponent, Fraction]:
    """The sparse product of a and b, Fraction or int coefficients alike."""
    out: Dict[Exponent, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _pow(a: Dict[Exponent, Fraction], k: int, nvars: int) -> Dict[Exponent, Fraction]:
    out = _const(Fraction(1), nvars)
    for _ in range(k):
        out = _mul(out, a, nvars)
    return out


def parse_form(text: str, vars: Sequence[str]) -> Form:
    """Parse and expand `text` over the ordered variable list into a Form.

    Raises ParseError on syntax/unknown-variable problems and FormError if
    the expanded polynomial is not homogeneous (or vars is empty/duplicated).
    """
    if not vars:
        raise FormError("at least one variable is required")
    if len(set(vars)) != len(vars):
        raise FormError("duplicate variable names")
    poly = _Parser(text, vars).parse()
    if not poly:
        return Form(len(vars), 0, {})
    degrees = {sum(e) for e in poly}
    if len(degrees) != 1:
        raise FormError(
            f"polynomial is not homogeneous: term degrees {sorted(degrees)}"
        )
    return Form(len(vars), degrees.pop(), poly)


# ---------------------------------------------------------------------------
# evaluation and substitution
# ---------------------------------------------------------------------------

def int_value(f: Form, p: Sequence[int]) -> int:
    """den·f(p) as an exact integer, for a point p of integers.

    Each variable gets a power table x^0..x^d built by repeated
    multiplication; one pass per variable then multiplies its exponent
    column (`zip(*f.nums)`) into the numerators, and the products are
    summed.  `evaluate` and both sampling oracles go through here.
    """
    if len(p) != f.nvars:
        raise FormError(f"point has {len(p)} coordinates, form has {f.nvars}")
    values = f.nums.values()
    for x, column in zip(p, zip(*f.nums)):
        table = [1]
        for _ in range(f.degree):
            table.append(table[-1] * x)
        values = map(operator.mul, values, map(table.__getitem__, column))
    return sum(values)


def evaluate(f: Form, p: Sequence) -> Fraction:
    """Exact value of f at p (any sequence of rationals).

    With B the lcm of the coordinate denominators, homogeneity gives
    f(p) = int_value(f, B·p) / (den · B^d): one integer pass and one Fraction.
    """
    coords = [Fraction(x) for x in p]
    big_b = math.lcm(*(x.denominator for x in coords))
    ints = [x.numerator * (big_b // x.denominator) for x in coords]
    return Fraction(int_value(f, ints), f.den * big_b ** f.degree)


# A substitution's output can hold all C(d+n-1, n-1) monomials of degree d:
# a term whose largest exponent is e >= d/n goes, under a perm that maps its
# variable to u_1, to (z_1+...+z_n)^e times the rest.  Forms with more are
# refused before any expansion.  One decide each, on a 2-vCPU x86_64 VM: n = 4,
# d = 200 (1,373,701 monomials) took 47 s and 927 MiB; d = 206 (1,499,784) 55 s and 998 MiB.
MAX_SUBSTITUTION_TERMS = 1_500_000


def check_substitution_size(n: int, d: int) -> None:
    """FormError if a substitution of a degree-d form in n variables could
    write more than MAX_SUBSTITUTION_TERMS terms."""
    size = math.comb(d + n - 1, n - 1)
    if size > MAX_SUBSTITUTION_TERMS:
        raise FormError(f"a degree-{d} form in {n} variables has {size} monomials, over the substitution "
                        f"budget of {MAX_SUBSTITUTION_TERMS} terms")


def substitute_linear(f: Form, rows: Sequence[Sequence]) -> Form:
    """Expanded form g with g(T) = f(M·T) for an exact square matrix M.

    `rows` are M's rows of rationals.  The generic expansion, sharing no
    code with `substitute_pwn`, is what `verify_certificate` checks the
    certificate's forms with.  With S the lcm of the matrix denominators and
    C = f.den, f(M·T) = (1/(C·S^d)) · f_C(L_1, ..., L_n), where f_C = f.nums
    has integer coefficients and L_i, row i of S·M, is an integer linear
    form.  f_C(L) is expanded by a multivariate Horner scheme: with the
    terms grouped by their first exponent a, f_C(L) = F_0 + L_1·(F_1 +
    L_1·(F_2 + ...)), each F_a its group's terms over L_2, ..., L_n expanded
    the same way, so the only operations are a product by one L_i and a sum.
    A non-zero form past the substitution budget is refused first (FormError).
    """
    n = f.nvars
    if len(rows) != n or any(len(r) != n for r in rows):
        raise FormError(f"matrix is not {n}x{n}")
    if f.is_zero():
        return f
    check_substitution_size(n, f.degree)

    entries = [[Fraction(x) for x in r] for r in rows]
    s = math.lcm(*(x.denominator for r in entries for x in r))
    # L_i as (j, coefficient of t_j) pairs, zero coefficients left out
    images = [[(j, int(x * s)) for j, x in enumerate(r) if x] for r in entries]

    def times(p: Dict[Exponent, int], image: List[Tuple[int, int]]) -> Dict[Exponent, int]:
        out: Dict[Exponent, int] = {}
        get = out.get
        for j, v in image:
            for e, c in p.items():
                e = e[:j] + (e[j] + 1,) + e[j + 1:]
                out[e] = get(e, 0) + c * v
        return out

    def expand(terms: List[Tuple[Exponent, int]], k: int) -> Dict[Exponent, int]:
        """sum c·prod_{i >= k} L_i^e_i over terms, which share e_0..e_k-1."""
        if k == n:
            return {(0,) * n: terms[0][1]}
        groups: Dict[int, List[Tuple[Exponent, int]]] = {}
        for term in terms:
            groups.setdefault(term[0][k], []).append(term)
        top = max(groups)
        g = expand(groups[top], k + 1)
        for a in range(top - 1, -1, -1):
            g = times(g, images[k])
            if a in groups:
                get = g.get
                for e, c in expand(groups[a], k + 1).items():
                    g[e] = get(e, 0) + c
        return g

    return Form._from_ints(n, f.degree, f.den * s ** f.degree, expand(list(f.nums.items()), 0))


def linear_writes(n: int, d: int) -> int:
    """One `substitute_linear` call's cost in term writes, dense form and rows.
    An `expand` node with remaining degree r multiplies degrees δ < r by one
    row (n·C(δ+n-1, n-1) writes) and adds a group (C(δ+n, n-1)): level[r];
    above the last variable it also expands its groups, one per a ≤ r.  The
    setup costs 16·(n² + 4) more (30 µs at n = 2, 150 µs at n = 6, 2-vCPU)."""
    size = [math.comb(k + n - 1, n - 1) for k in range(d + 2)]
    level = [0, *accumulate(n * size[delta] + size[delta + 1] for delta in range(d))]
    writes = level
    for _ in range(n - 1):
        writes = [a + b for a, b in zip(level, accumulate(writes))]
    return writes[d] + 16 * (n * n + 4)


@lru_cache(maxsize=8)  # one (n, d) per decide; a degree-1000 table holds tens of MB
def _pwn_tables(n: int, d: int) -> tuple:
    """Binomial rows 0..d, weights[j][e] = (L/(j+1))^e for e <= d, L^d and the shared output keys;
    FormError first past the substitution budget."""
    check_substitution_size(n, d)
    big_l = math.lcm(*range(1, n + 1))
    binom = [(1,)]
    for _ in range(d):
        binom.append((1, *(a + b for a, b in zip(binom[-1], binom[-1][1:])), 1))
    weights = tuple(tuple((big_l // j) ** e for e in range(d + 1)) for j in range(1, n + 1))
    return tuple(binom), weights, big_l ** d, {}


@lru_cache(maxsize=1024)
def _pwn_source(perm: Tuple[int, ...]) -> Tuple[int, ...]:
    """src[j] = i where perm[i] = j + 1; FormError unless perm permutes 1..len(perm)."""
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise FormError(f"not a permutation of 1..{len(perm)}: {perm}")
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def substitute_pwn(f: Form, perm: Sequence[int]) -> Form:
    """Expanded form g with g(T) = f(P_perm·W_n·T), without any matrix.

    Equal to substitute_linear(f, rows of P_perm·W_n), computed in integer
    arithmetic from the structure of P·W_n: x_i = u_perm[i] (a relabel),
    u_k = z_k + ... + z_n (the Taylor shifts u_k -> u_k + u_k+1 for
    k = 1..n-1, in that order) and z_j = t_j / j (a diagonal scale).  With
    C = f.den and L = lcm(1..n), the coefficient of t^e is
    v_e · prod (L/j)^e_j / (C·L^d), where v_e is the coefficient of the
    shifted integer form f.nums.  Tables that depend on (n, d) or on the
    perm alone come from bounded caches; perm entries must be ints.  Outputs
    share one key tuple per monomial for each (n, d), from a map beside the
    (n, d) tables that holds at most the C(d+n-1, n-1) monomials of degree d.
    Degree 2 takes `_substitute_quadratic`: the same map as a congruence of
    the form's matrix, by prefix sums in O(n^2) integer additions.  Any other
    degree past the substitution budget is refused first (FormError).
    """
    n, d = f.nvars, f.degree
    perm = tuple(perm)
    if len(perm) != n or any(type(p) is not int for p in perm):  # bool is not an index
        raise FormError(f"not a permutation of 1..{n}: {perm}")
    src = _pwn_source(perm)  # position j of the relabelled exponent comes from src[j]
    if f.is_zero():
        return f
    if d == 2:
        return _substitute_quadratic(f, perm)

    binom, weights, big_l_d, shared = _pwn_tables(n, d)  # refuses past the budget before the relabel
    poly: Dict[Exponent, int] = {
        tuple([exp[i] for i in src]): v for exp, v in f.nums.items()
    }
    for k in range(n - 1):
        out: Dict[Exponent, int] = {}
        get = out.get
        for exp, v in poly.items():
            a = exp[k]
            if not a:
                out[exp] = get(exp, 0) + v
                continue
            head, b, tail = exp[:k], exp[k + 1], exp[k + 2:]
            for i, binom_ai in enumerate(binom[a]):
                e = head + (i, b + a - i) + tail
                out[e] = get(e, 0) + v * binom_ai
        poly = out

    # one Fraction per coefficient on the way out (ROADMAP item 1(a): Form._from_ints)
    denom = f.den * big_l_d
    terms: Dict[Exponent, Fraction] = {}
    for exp, v in poly.items():
        if v:
            for tab, e in zip(weights, exp):
                v *= tab[e]
            terms[shared.setdefault(exp, exp)] = Fraction(v, denom)
    return Form(n, d, terms)


@lru_cache(maxsize=8)
def _quadratic_pairs(n: int) -> tuple:
    """The degree-2 table of n variables: each exponent mapped to its (i, j),
    i <= j; the output rows (exponent, a, b, w_a·w_b, 1 + (a == b)), a <= b,
    with w_a = L/(a+1); and L^2, for L = lcm(1..n)."""
    big_l = math.lcm(*range(1, n + 1))
    pairs = {tuple((k == i) + (k == j) for k in range(n)): (i, j) for i in range(n) for j in range(i, n)}
    rows = tuple((exp, a, b, (big_l // (a + 1)) * (big_l // (b + 1)), 1 + (a == b))
                 for exp, (a, b) in pairs.items())
    return pairs, rows, big_l * big_l


def _substitute_quadratic(f: Form, perm: Tuple[int, ...]) -> Form:
    """substitute_pwn at degree 2.  S, the symmetric matrix of 2·f.nums
    relabelled by perm, goes to U^T·S·U (U upper triangular of ones, the
    Taylor shifts): its 2-D prefix sums P.  The scale gives the numerators
    P_aa·w_a^2/2 (P_aa is even) and P_ab·w_a·w_b, a < b, over f.den·L^2."""
    n, (pairs, rows, big_l_2) = f.nvars, _quadratic_pairs(f.nvars)
    s = [[0] * n for _ in range(n)]
    for exp, v in f.nums.items():
        i, j = pairs[exp]
        a, b = perm[i] - 1, perm[j] - 1
        s[a][b] += v
        s[b][a] += v
    prefix = list(accumulate((list(accumulate(row)) for row in s),
                             lambda above, row: list(map(operator.add, above, row))))
    return Form._from_ints(n, 2, f.den * big_l_2, {
        exp: prefix[a][b] * w // halve for exp, a, b, w, halve in rows})


# ---------------------------------------------------------------------------
# sign predicates
# ---------------------------------------------------------------------------

VALUE_MODE = "value"
COEFFS_MODE = "coeffs"
NEGATIVITY_MODES = (VALUE_MODE, COEFFS_MODE)


def is_trivially_positive(f: Form) -> bool:
    """True iff every coefficient is non-negative (zero form included)."""
    return all(v >= 0 for v in f.nums.values())


def is_trivially_negative(f: Form, mode: str = VALUE_MODE) -> bool:
    """Trivial negativity test.

    value mode: f(1,...,1) < 0, i.e. the coefficient sum is negative.
    coeffs mode: f is non-zero and every coefficient is negative (the
    stricter test; implies value mode).  Numerators carry the signs, as
    f.den > 0.
    """
    if mode == VALUE_MODE:
        return sum(f.nums.values()) < 0
    if mode == COEFFS_MODE:
        return bool(f.nums) and all(v < 0 for v in f.nums.values())
    raise ValueError(f"unknown negativity mode {mode!r}")


def in_simplex(p: Sequence) -> bool:
    """Membership in the standard simplex: coords >= 0 summing to 1."""
    coords = [Fraction(x) for x in p]
    return all(x >= 0 for x in coords) and sum(coords) == 1
