"""Shared test utilities: seeded random forms, chains, and simplex points."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from typing import List, Tuple

from hypothesis import strategies as st

from sds.forms import Form


def random_form(rng: random.Random, nvars: int, degree: int,
                lo: int = -5, hi: int = 5, density: float = 0.7) -> Form:
    """Random homogeneous polynomial with small integer coefficients."""
    terms = {}
    for combo in combinations_with_replacement(range(nvars), degree):
        if rng.random() > density:
            continue
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        c = rng.randint(lo, hi)
        if c:
            terms[tuple(exp)] = Fraction(c)
    if not terms:
        exp = [0] * nvars
        exp[0] = degree
        terms[tuple(exp)] = Fraction(1)
    return Form(nvars, degree, terms)


def random_chain(rng: random.Random, nvars: int, max_len: int) -> Tuple[int, ...]:
    length = rng.randint(0, max_len)
    return tuple(rng.randint(1, factorial(nvars)) for _ in range(length))


def random_point(rng: random.Random, nvars: int, max_den: int = 50) -> Tuple[Fraction, ...]:
    return tuple(
        Fraction(rng.randint(-max_den, max_den), rng.randint(1, max_den))
        for _ in range(nvars)
    )


def random_simplex_point(rng: random.Random, nvars: int, den: int = 60) -> Tuple[Fraction, ...]:
    cuts = sorted(rng.randint(0, den) for _ in range(nvars - 1))
    parts: List[int] = []
    prev = 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(den - prev)
    return tuple(Fraction(a, den) for a in parts)


def chains(max_n: int = 4, max_len: int = 5):
    """Hypothesis strategy for (n, chain): n in 1..max_n, chain indices in 1..n!."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(1, factorial(n)), max_size=max_len).map(tuple),
        )
    )


def monomials(n, d):
    """The degree-d exponent vectors in n variables."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        exp = [0] * n
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return out


@st.composite
def forms(draw, n=None, d=None, min_terms=0, max_terms=None):
    """Forms in 1..4 variables of degree 0..6 (or the given n and d) with
    signed rational coefficients, min_terms to max_terms of them non-zero."""
    n = draw(st.integers(1, 4)) if n is None else n
    d = draw(st.integers(0, 6)) if d is None else d
    # every p/q with q <= 60 and |p/q| <= 100, as st.fractions(-100, 100,
    # max_denominator=60) draws them, without its flatmap: t·q // 60 takes
    # every value in -100q..100q as t runs over -6000..6000
    coefs = st.builds(lambda t, q: Fraction(t * q // 60, q), st.integers(-6000, 6000), st.integers(1, 60))
    if min_terms:
        coefs = coefs.filter(bool)
    terms = draw(st.dictionaries(st.sampled_from(monomials(n, d)), coefs, min_size=min_terms, max_size=max_terms))
    return Form(n, d, terms)  # zero coefficients dropped; {} is the zero form
