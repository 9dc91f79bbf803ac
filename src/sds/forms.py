"""Exact sparse arithmetic for homogeneous polynomials (forms) over Q.

A form is stored as a map from exponent tuples to non-zero Fraction
coefficients; all exponent tuples share the same total degree.  The zero
form is the empty map.  Everything here is exact: floating point never
touches a coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

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

    Immutable after construction.  Zero coefficients are dropped; a
    declared degree is kept even for the zero form.
    """

    __slots__ = ("nvars", "degree", "terms", "_key")

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
        self.nvars = nvars
        self.degree = degree
        self.terms = clean
        self._key = (nvars, degree, tuple(sorted(clean.items())))

    def key(self) -> tuple:
        """Canonical hashable identity (used for dedup and equality)."""
        return self._key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Form) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> List[Tuple[Exponent, Fraction]]:
        """Terms in graded-lex order (descending lex; all degrees equal)."""
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def to_text(self, vars: Sequence[str]) -> str:
        """Serialize as `coef*x^e*...` terms in graded-lex order."""
        if len(vars) != self.nvars:
            raise FormError("variable list length does not match nvars")
        if not self.terms:
            return "0"
        parts = []
        for exp, coef in self.sorted_terms():
            factors = [str(coef)]
            for name, e in zip(vars, exp):
                if e:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Form(nvars={self.nvars}, degree={self.degree}, terms={len(self.terms)})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_OPS = set("+-*^()/")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser for the input grammar.

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := ('+'|'-')* primary ('^' INT)?
    primary:= INT ['/' INT] | NAME | '(' expr ')'

    Implicit multiplication is rejected; '/' only forms rational literals.
    """

    def __init__(self, text: str, vars: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = len(vars)
        self.varindex = {name: i for i, name in enumerate(vars)}

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, at = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val or 'end of input'!r}", at)

    # polynomials inside the parser are plain {exponent: Fraction} dicts,
    # possibly non-homogeneous until the final Form check
    def parse(self) -> Dict[Exponent, Fraction]:
        poly = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", at)
        return poly

    def expr(self) -> Dict[Exponent, Fraction]:
        kind, val, _ = self.peek()
        sign = 1
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        poly = _scale(self.term(), sign)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                poly = _add(poly, _scale(rhs, -1 if val == "-" else 1))
            else:
                return poly

    def term(self) -> Dict[Exponent, Fraction]:
        poly = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                poly = _mul(poly, self.factor(), self.nvars)
            else:
                return poly

    def factor(self) -> Dict[Exponent, Fraction]:
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                if val == "-":
                    sign = -sign
            else:
                break
        base = self.primary()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, at = self.next()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer literal", at)
            base = _pow(base, int(val), self.nvars)
        return _scale(base, sign)

    def primary(self) -> Dict[Exponent, Fraction]:
        kind, val, at = self.next()
        if kind == "int":
            num = int(val)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.next()
                k3, v3, at3 = self.next()
                if k3 != "int":
                    raise ParseError("expected integer denominator", at3)
                den = int(v3)
                if den == 0:
                    raise ParseError("zero denominator", at3)
                return _const(Fraction(num, den), self.nvars)
            return _const(Fraction(num), self.nvars)
        if kind == "name":
            if val not in self.varindex:
                raise ParseError(f"unknown variable {val!r}", at)
            exp = [0] * self.nvars
            exp[self.varindex[val]] = 1
            return {tuple(exp): Fraction(1)}
        if kind == "op" and val == "(":
            poly = self.expr()
            self.expect_op(")")
            return poly
        raise ParseError(f"unexpected {val or 'end of input'!r}", at)


def _const(c: Fraction, nvars: int) -> Dict[Exponent, Fraction]:
    if c == 0:
        return {}
    return {(0,) * nvars: c}


def _scale(p: Dict[Exponent, Fraction], s) -> Dict[Exponent, Fraction]:
    if s == 1:
        return p
    return {e: c * s for e, c in p.items() if c * s != 0}


def _add(a: Dict[Exponent, Fraction], b: Dict[Exponent, Fraction]) -> Dict[Exponent, Fraction]:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _mul(a: Dict[Exponent, Fraction], b: Dict[Exponent, Fraction], nvars: int) -> Dict[Exponent, Fraction]:
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

def evaluate(f: Form, p: Sequence) -> Fraction:
    """Exact value of f at p (any sequence of rationals)."""
    if len(p) != f.nvars:
        raise FormError(f"point has {len(p)} coordinates, form has {f.nvars}")
    coords = [Fraction(x) for x in p]
    # per-variable power tables; exponents repeat heavily across monomials
    pows: List[List[Fraction]] = [[Fraction(1)] for _ in coords]
    total = Fraction(0)
    for exp, coef in f.terms.items():
        v = coef
        for i, e in enumerate(exp):
            tab = pows[i]
            while len(tab) <= e:
                tab.append(tab[-1] * coords[i])
            v *= tab[e]
        total += v
    return total


def _int_mul(a: Dict[Exponent, int], b: Dict[Exponent, int]) -> Dict[Exponent, int]:
    if len(a) > len(b):
        a, b = b, a
    out: Dict[Exponent, int] = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def substitute_linear(f: Form, m) -> Form:
    """Expanded form g with g(T) = f(M·T) for an exact square matrix M.

    `m` may be a SubMatrix or any sequence of rows of rationals.  The kernel
    clears denominators and runs in integer arithmetic: with S the lcm of
    the matrix denominators and C the lcm of the coefficient denominators,
    f(M·T) = (1/(C·S^d)) · f_C(S·M·T) where f_C has integer coefficients.
    """
    rows = getattr(m, "rows", m)
    n = f.nvars
    if len(rows) != n or any(len(r) != n for r in rows):
        raise FormError(f"matrix is not {n}x{n}")
    if f.is_zero():
        return f

    entries = [[Fraction(x) for x in r] for r in rows]
    s = 1
    for r in entries:
        for x in r:
            s = s * x.denominator // math.gcd(s, x.denominator)
    c = 1
    for coef in f.terms.values():
        c = c * coef.denominator // math.gcd(c, coef.denominator)

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
            tab.append(_int_mul(tab[-1], images[i]))
        return tab[k]

    acc: Dict[Exponent, int] = {}
    for exp, coef in f.terms.items():
        factors = [power(i, e) for i, e in enumerate(exp) if e]
        factors.sort(key=len)
        ic = int(coef * c)
        if not factors:
            acc[zero] = acc.get(zero, 0) + ic
            continue
        prod = factors[0]
        for fac in factors[1:]:
            prod = _int_mul(prod, fac)
        for e, v in prod.items():
            acc[e] = acc.get(e, 0) + ic * v

    denom = c * s ** f.degree
    return Form(n, f.degree, {e: Fraction(v, denom) for e, v in acc.items() if v})


def substitute_pwn(f: Form, perm: Sequence[int]) -> Form:
    """Expanded form g with g(T) = f(P_perm·W_n·T), without any matrix.

    Equal to substitute_linear(f, sds_matrix(perm)), computed in integer
    arithmetic from the structure of P·W_n: x_i = u_perm[i] (a relabel),
    u_k = z_k + ... + z_n (the Taylor shifts u_k -> u_k + u_k+1 for
    k = 1..n-1, in that order) and z_j = t_j / j (a diagonal scale).  With C
    the lcm of the coefficient denominators and L = lcm(1..n), the
    coefficient of t^e is v_e · prod (L/j)^e_j / (C·L^d), where v_e is the
    coefficient of the shifted integer form.
    """
    n, d = f.nvars, f.degree
    perm = tuple(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise FormError(f"not a permutation of 1..{n}: {perm}")
    if f.is_zero():
        return f

    c = 1
    for coef in f.terms.values():
        c = c * coef.denominator // math.gcd(c, coef.denominator)
    src = [0] * n  # position j of the relabelled exponent comes from src[j]
    for i, p in enumerate(perm):
        src[p - 1] = i
    poly: Dict[Exponent, int] = {
        tuple(exp[i] for i in src): coef.numerator * (c // coef.denominator)
        for exp, coef in f.terms.items()
    }

    binom = [[1]]
    for _ in range(d):
        prev = binom[-1]
        binom.append([1] + [a + b for a, b in zip(prev, prev[1:])] + [1])
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

    big_l = math.lcm(*range(1, n + 1))
    weights = [[1] for _ in range(n)]  # weights[j][e] = (L/(j+1))^e
    for j, tab in enumerate(weights):
        w = big_l // (j + 1)
        for _ in range(d):
            tab.append(tab[-1] * w)
    denom = c * big_l ** d
    terms: Dict[Exponent, Fraction] = {}
    for exp, v in poly.items():
        if v:
            for tab, e in zip(weights, exp):
                v *= tab[e]
            terms[exp] = Fraction(v, denom)
    return Form(n, d, terms)


# ---------------------------------------------------------------------------
# sign predicates
# ---------------------------------------------------------------------------

VALUE_MODE = "value"
COEFFS_MODE = "coeffs"
NEGATIVITY_MODES = (VALUE_MODE, COEFFS_MODE)


def is_trivially_positive(f: Form) -> bool:
    """True iff every coefficient is non-negative (zero form included)."""
    return all(c >= 0 for c in f.terms.values())


def is_trivially_negative(f: Form, mode: str = VALUE_MODE) -> bool:
    """Trivial negativity test.

    value mode: f(1,...,1) < 0, i.e. the coefficient sum is negative.
    coeffs mode: f is non-zero and every coefficient is negative (the
    stricter test; implies value mode).
    """
    if mode == VALUE_MODE:
        return sum(f.terms.values()) < 0
    if mode == COEFFS_MODE:
        return bool(f.terms) and all(c < 0 for c in f.terms.values())
    raise ValueError(f"unknown negativity mode {mode!r}")


def is_nonlacunary_positive(f: Form) -> bool:
    """True iff all C(d+n-1, n-1) degree-d monomials have positive coefficients."""
    n, d = f.nvars, f.degree
    for combo in combinations_with_replacement(range(n), d):
        exp = [0] * n
        for i in combo:
            exp[i] += 1
        if f.terms.get(tuple(exp), Fraction(0)) <= 0:
            return False
    return True


def in_simplex(p: Sequence) -> bool:
    """Membership in the standard simplex: coords >= 0 summing to 1."""
    coords = [Fraction(x) for x in p]
    return all(x >= 0 for x in coords) and sum(coords) == 1
