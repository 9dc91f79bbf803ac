import math
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

import sds.forms as forms_module
from sds.corpus import CORPUS_VARS, EXAMPLE1_TEXT, EXAMPLE2_TEXT, corpus_text
from sds.forms import (
    Form,
    FormError,
    ParseError,
    evaluate,
    int_value,
    is_trivially_negative,
    is_trivially_positive,
    parse_form,
    substitute_linear,
    substitute_pwn,
)

from helpers import forms, monomials, random_chain, random_form, random_point
import reference
from reference import SubMatrix, compose_chain, enumerate_pwn, is_nonlacunary_positive, sds_matrix, substitute_linear_powers

XY = ["x", "y"]
XYZ = ["x", "y", "z"]


class TestParse:
    def test_basic_expansion(self):
        f = parse_form("x^2 - 2*x*y", XY)
        assert f.nvars == 2 and f.degree == 2
        assert f.terms == {(2, 0): Fraction(1), (1, 1): Fraction(-2)}

    def test_example1_shape(self):
        f = parse_form(EXAMPLE1_TEXT, XYZ)
        assert f.nvars == 3 and f.degree == 6

    def test_rational_coefficients(self):
        f = parse_form("1/2*x^2 + 3/4*y^2", XY)
        assert f.terms[(2, 0)] == Fraction(1, 2)
        assert f.terms[(0, 2)] == Fraction(3, 4)

    def test_nested_signs_and_parens(self):
        f = parse_form("-(x - y)^2 + x^2 + y^2", XY)
        assert f.terms == {(1, 1): Fraction(2)}

    def test_power_of_monomial(self):
        assert parse_form("(2*x*y^2)^3 - 8*x^3*y^6", XY).is_zero()
        assert parse_form("(-1/2*x)^3", XY).terms == {(3, 0): Fraction(-1, 8)}
        assert parse_form("(x*y)^0", XY).terms == {(0, 0): Fraction(1)}

    @pytest.mark.parametrize("text, expansion", [("-x^2*y", "-1*x*x*y"), ("--x*y^2", "x*y*y"),
                                                 ("+-x*y*x", "-1*x*x*y"), ("-2^2*x^3", "-4*x*x*x")])
    def test_leading_signs_belong_to_the_first_factor(self, text, expansion):
        assert parse_form(text, XY) == parse_form(expansion, XY)

    def test_non_homogeneous_rejected(self):
        with pytest.raises(FormError, match="homogeneous"):
            parse_form("x + y^2", XY)

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_form("x + w", XY)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_form("x^2 + * y", XY)
        assert exc.value.pos == 6

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_form("2 x", XY)

    def test_zero_variables(self):
        with pytest.raises(FormError):
            parse_form("1", [])

    def test_duplicate_variables(self):
        with pytest.raises(FormError):
            parse_form("x", ["x", "x"])

    def test_zero_polynomial(self):
        f = parse_form("x - x", XY)
        assert f.is_zero()

    def test_slash_only_in_literals(self):
        with pytest.raises(ParseError):
            parse_form("x/2", XY)

    def test_degree_cap(self):
        assert parse_form("x^1000", XY).degree == 1000
        with pytest.raises(ParseError, match="exponent 1001 exceeds the limit of 1000") as exc:
            parse_form("x^1001", XY)
        assert exc.value.pos == 1
        with pytest.raises(ParseError, match="degree 1200 exceeds the limit of 1000") as exc:
            parse_form("x^600*y^600", XY)
        assert exc.value.pos == 5
        with pytest.raises(ParseError, match="degree 1002"):
            parse_form("(x^2)^501", XY)
        with pytest.raises(ParseError, match="exponent 100000000 exceeds"):
            parse_form("2^100000000*x", XY)

    @pytest.mark.parametrize("text", ["(x+y+z)^200", "(x+y+z)^100*(x+y+z)^100",
                                      "x^100000000-y^100000000", "(x-x)^100000000*x"])
    def test_budget_refuses_before_expanding(self, monkeypatch, text):
        def no_mul(*args):
            raise AssertionError("expanded before the budget check")

        monkeypatch.setattr(forms_module, "_mul", no_mul)
        with pytest.raises(ParseError, match="exceeds the limit|more than"):
            parse_form(text, XYZ)

    def test_term_cap_boundary(self, monkeypatch):
        # (x+y)^k writes 2·(1 + 2 + ... + k) = k(k+1) terms; a product writes
        # the product of its operands' term counts
        monkeypatch.setattr(forms_module, "MAX_TERMS", 110)
        assert parse_form("(x+y)^10", XY).degree == 10
        with pytest.raises(ParseError, match="more than 110 terms") as exc:
            parse_form("(x+y)^11", XY)
        assert exc.value.pos == 5
        monkeypatch.setattr(forms_module, "MAX_TERMS", 4)
        assert parse_form("(x+y)*(x-y)", XY).degree == 2
        with pytest.raises(ParseError, match="more than 4 terms") as exc:
            parse_form("(x+y)*(x+y)*(x+y)", XY)  # 3 terms times 2
        assert exc.value.pos == 11

    @pytest.mark.parametrize("text", ["((2^1000)^1000)^40*x", "((2^1000)^1000)^1000*x"])
    def test_coefficient_cap(self, text):
        # 2^1000 has 1001 bits, so its 1000th power could need 1,001,000
        with pytest.raises(ParseError, match="coefficients could need more than 10000 bits") as exc:
            parse_form(text, XY)
        assert exc.value.pos == 9

    def test_coefficient_cap_boundary(self, monkeypatch):
        # a literal's bound is the bits of its numerator or denominator, a
        # variable's is 1; a product adds its factors' bounds, a power
        # multiplies its base's by the exponent
        monkeypatch.setattr(forms_module, "MAX_COEFF_BITS", 10)
        assert parse_form("(2*x)^5", XY).terms == {(5, 0): 32}
        with pytest.raises(ParseError, match="more than 10 bits") as exc:
            parse_form("(2*x)^6", XY)
        assert exc.value.pos == 5
        assert parse_form("4*4*4*x", XY).terms == {(1, 0): 64}
        with pytest.raises(ParseError, match="more than 10 bits") as exc:
            parse_form("4*4*4*4*x", XY)
        assert exc.value.pos == 5
        with pytest.raises(ParseError, match="more than 10 bits") as exc:
            parse_form("(1/8)^3*x", XY)
        assert exc.value.pos == 5

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_coeff_bits_bound_products_and_powers(self, data):
        n = data.draw(st.integers(1, 3))
        a, b = (data.draw(forms(n, data.draw(st.integers(0, 3)))).terms for _ in range(2))
        k = data.draw(st.integers(1, 5))
        bits = forms_module._coeff_bits
        for c in a.values():
            assert max(c.numerator.bit_length(), c.denominator.bit_length()) <= bits(a)
        assert bits(forms_module._mul(a, b, n)) <= bits(a) + bits(b)
        assert bits(forms_module._pow(a, k, n)) <= k * bits(a)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_power_writes_bound_the_expansion(self, data):
        n = data.draw(st.integers(1, 3))
        degree = data.draw(st.integers(0, 3))
        parts = data.draw(st.lists(forms(n, degree), min_size=1, max_size=2))
        poly = {}  # possibly non-homogeneous
        for part in parts:
            poly.update(part.terms)
        k = data.draw(st.integers(0, 6))
        written = []
        real_mul = forms_module._mul

        def counting_mul(a, b, nvars):
            written.append(len(a) * len(b))
            return real_mul(a, b, nvars)

        forms_module._mul = counting_mul
        try:
            forms_module._pow(poly, k, n)
        finally:
            forms_module._mul = real_mul
        assert sum(written) <= forms_module._power_writes(poly, k, n)

    @pytest.mark.parametrize("text, message, pos", [
        ("x^\u00b2", "unexpected character '\u00b2'", 2),  # a superscript two is no integer
        ("x^\u0663", "unexpected character '\u0663'", 2),  # nor is an Arabic-Indic three
        ("2\u0663*x", "unexpected character '\u0663'", 1),
        ("\u00bd*x", "unexpected character '\u00bd'", 0),  # a numeral starts no name
        ("x^2 + * y + $", "unexpected character '$'", 12),  # before the syntax error at 6
        ("1" + "0" * 5000 + "*x", "coefficients could need more than 10000 bits", 0),
        ("1/1" + "0" * 5000 + "*x", "coefficients could need more than 10000 bits", 2),
        ("x^" + "1" * 5000, "exponent " + "1" * 5000 + " exceeds the limit of 1000", 1),
    ], ids=lambda v: v[:16] if isinstance(v, str) else None)
    def test_literals_and_characters_refused_with_a_position(self, text, message, pos):
        with pytest.raises(ParseError) as exc:
            parse_form(text, XY)
        assert str(exc.value) == f"{message} (at position {pos})"

    def test_leading_zeros_are_not_digits_of_a_budget(self):
        assert parse_form("x^" + "0" * 5000 + "2", XY) == parse_form("x^2", XY)
        assert parse_form("0" * 5000 + "3*x", XY) == parse_form("3*x", XY)
        with pytest.raises(ParseError, match="exponent 1001 exceeds") as exc:
            parse_form("x^0001001", XY)
        assert exc.value.pos == 1

    def test_parse_memory_bounded_by_the_text(self):
        # 9.9 MiB with a token list and a copy of the sum at every '+'
        text = "+".join(["x"] * 50000)
        tracemalloc.start()
        try:
            f = parse_form(text, ["x"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f == Form(1, 1, {(1,): 50000})
        assert peak < 2**20

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_only_parse_and_form_errors(self, data):
        # operands and operators alternate, so that many texts reach the parser's
        # literals and budgets before a syntax error
        digit = st.sampled_from("0123456789\u0663\u0966\u00b2\u00bd")  # ASCII and other digits
        literal = st.one_of(
            st.integers(0, 10**6).map(str),
            st.text(digit, min_size=1, max_size=6),
            st.builds(str.__mul__, digit, st.integers(1, 5000)),
        )
        operand = st.one_of(literal, st.sampled_from(["x", "y", "z", "w", "_", "x1", "(x+y)", "x\u00bd"]))
        operator = st.one_of(
            st.sampled_from("+-*^/"),
            st.text("+-*^/", min_size=1, max_size=6),
            st.sampled_from(["$", "@", ".", "(", ")", " ", "\t", "\u00a0", "\u00e9", "\u00bd"]),
        )
        body = "".join(a + b for a, b in data.draw(st.lists(st.tuples(operand, operator), max_size=8)))
        depth = data.draw(st.integers(0, 101))
        text = "(" * depth + body + data.draw(operand) + ")" * depth
        try:
            assert isinstance(parse_form(text, XYZ), Form)
        except (ParseError, FormError):
            pass

    def test_roundtrip_serialization(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_form(rng, 3, rng.randint(1, 4))
            assert parse_form(f.to_text(XYZ), XYZ) == f


class TestFormInvariants:
    def test_zero_coefficients_dropped(self):
        f = Form(2, 2, {(2, 0): Fraction(0), (1, 1): Fraction(1)})
        assert f.terms == {(1, 1): Fraction(1)}

    def test_degree_mismatch_rejected(self):
        with pytest.raises(FormError):
            Form(2, 2, {(1, 0): Fraction(1)})

    def test_bad_exponent_length(self):
        with pytest.raises(FormError):
            Form(2, 2, {(1, 1, 0): Fraction(1)})


class TestEvaluate:
    def test_example2_at_ones(self):
        f = parse_form(EXAMPLE2_TEXT, XYZ)
        # sum of the eleven coefficients: 7-12-12+6+12+6-9/10-3-3-4/5
        assert evaluate(f, (1, 1, 1)) == Fraction(-7, 10)

    def test_unit_vectors_pick_pure_powers(self):
        f = parse_form(EXAMPLE2_TEXT, XYZ)
        assert evaluate(f, (1, 0, 0)) == 7
        assert evaluate(f, (0, 1, 0)) == Fraction(-9, 10)
        assert evaluate(f, (0, 0, 1)) == Fraction(-4, 5)

    def test_homogeneous_scaling(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 4)
            f = random_form(rng, n, rng.randint(1, 4))
            p = random_point(rng, n)
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            scaled = tuple(lam * x for x in p)
            assert evaluate(f, scaled) == lam ** f.degree * evaluate(f, p)

    def test_dimension_mismatch(self):
        f = parse_form("x^2", XY)
        with pytest.raises(FormError):
            evaluate(f, (1, 2, 3))


class TestSubstitute:
    def test_identity(self):
        f = parse_form(EXAMPLE2_TEXT, XYZ)
        assert substitute_linear(f, SubMatrix.identity(3)) == f

    def test_degree_and_homogeneity_preserved(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_form(rng, 3, rng.randint(1, 5))
            b = enumerate_pwn(3)[rng.randrange(6)]
            g = substitute_linear(f, b)
            assert g.degree == f.degree
            assert all(sum(e) == g.degree for e in g.terms)

    def test_chain_composition(self):
        rng = random.Random(5)
        mats = enumerate_pwn(3)
        for _ in range(25):
            f = random_form(rng, 3, rng.randint(1, 4))
            b1 = mats[rng.randrange(6)]
            b2 = mats[rng.randrange(6)]
            lhs = substitute_linear(substitute_linear(f, b1), b2)
            assert lhs == substitute_linear(f, b1 @ b2)

    def test_pointwise_commutation(self):
        rng = random.Random(17)
        f = parse_form(EXAMPLE2_TEXT, XYZ)
        for _ in range(100):
            chain = random_chain(rng, 3, 3)
            b = compose_chain(chain, 3)
            p = random_point(rng, 3)
            assert evaluate(substitute_linear(f, b), p) == evaluate(f, b.matvec(p))

    def test_dimension_mismatch(self):
        f = parse_form("x^2", XY)
        with pytest.raises(FormError):
            substitute_linear(f, SubMatrix.identity(3))


@st.composite
def linear_substitutions(draw):
    """(f, rows): a form in 1..5 variables of degree 0..8, possibly zero or
    one-term, and a square matrix of signed fractions with some rows and
    columns zeroed."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(0, 8))
    f = draw(st.one_of(forms(n, d), forms(n, d, min_terms=1, max_terms=1)))
    entry = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    zero_rows, zero_cols = draw(st.sets(st.integers(0, n - 1))), draw(st.sets(st.integers(0, n - 1)))
    return f, [[Fraction(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
               for i, row in enumerate(rows)]


class TestHornerSubstitution:
    @settings(max_examples=150, deadline=None)
    @given(linear_substitutions())
    @example((Form(3, 4, {}), [[1, 2, 3], [0, 0, 0], [-1, Fraction(1, 2), 0]]))
    @example((parse_form("-5/6*x*y^3*z^2", XYZ), [[Fraction(-2, 3), 0, 1], [1, 0, Fraction(7, 5)], [0, 0, -3]]))
    @example((parse_form("1/2*x^4*y^4 - 3/7*x^8 + y^8", XY), [[Fraction(1, 3), -4], [0, 0]]))
    def test_equals_power_tables(self, case):
        f, rows = case
        assert substitute_linear(f, rows) == substitute_linear_powers(f, rows)

    @pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [1, 1]], [[1, 0, 0], [0, 1]]])
    def test_non_square_matrix_rejected(self, rows):
        f = parse_form("x^2 - y*z", XYZ)
        with pytest.raises(FormError):
            substitute_linear(f, rows)


def fraction_value(f, p):
    """Reference evaluation: sum of coef * prod x^e over the Fraction view."""
    coords = [Fraction(x) for x in p]
    total = Fraction(0)
    for exp, coef in f.terms.items():
        for x, e in zip(coords, exp):
            coef *= x ** e
        total += coef
    return total


coordinates = st.one_of(
    st.integers(-30, 30),
    # every p/q with q <= 40 and |p/q| <= 20, as st.fractions(-20, 20,
    # max_denominator=40) draws them: t·q // 40 takes every value in -20q..20q
    st.builds(lambda t, q: Fraction(t * q // 40, q), st.integers(-800, 800), st.integers(1, 40)),
    st.tuples(st.integers(-30, 30), st.integers(1, 40)).map(lambda t: f"{t[0]}/{t[1]}"),
)


class TestIntegerForm:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_integer_constructor_equals_fraction_constructor(self, data):
        n = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(0, 5))
        den = data.draw(st.integers(1, 10**6))
        factor = data.draw(st.integers(1, 10**4))
        nums = data.draw(st.dictionaries(st.sampled_from(monomials(n, d)), st.integers(-10**6, 10**6)))
        f = Form._from_ints(n, d, den * factor, {e: v * factor for e, v in nums.items()})
        g = Form(n, d, {e: Fraction(v, den) for e, v in nums.items()})
        assert f == g and hash(f) == hash(g) and f.key() == g.key()
        assert f.den > 0 and math.gcd(f.den, *f.nums.values()) == 1
        assert all(f.nums.values())
        assert f.terms == {e: Fraction(v, den) for e, v in nums.items() if v}

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_constructor_never_aliases_its_input(self, data):
        n = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(0, 5))
        terms = data.draw(st.dictionaries(st.sampled_from(monomials(n, d)),
                                          st.integers(-10**6, 10**6).filter(bool), min_size=1))
        f = Form(n, d, terms)
        before = (f.den, dict(f.nums), f.key())
        for e in list(terms):
            terms[e] += 1
        terms[monomials(n, d)[0]] = 7
        terms.popitem()
        assert (f.den, f.nums, f.key()) == before
        assert f == Form(n, d, {e: Fraction(v, f.den) for e, v in before[1].items()})

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_from_ints_keeps_a_canonical_dict(self, data):
        n = data.draw(st.integers(1, 4))
        d = data.draw(st.integers(0, 5))
        den = data.draw(st.integers(1, 10**6))
        nums = data.draw(st.dictionaries(st.sampled_from(monomials(n, d)), st.integers(-10**6, 10**6).filter(bool)))
        g = math.gcd(den, *nums.values())
        den, nums = den // g, {e: v // g for e, v in nums.items()}  # lowest terms, no zero
        entries = dict(nums)
        f = Form._from_ints(n, d, den, nums)
        assert f.den == den and f.nums == entries
        assert f == Form(n, d, {e: Fraction(v, den) for e, v in entries.items()})

    @settings(max_examples=150, deadline=None)
    @given(forms())
    def test_round_trip_through_terms(self, f):
        g = Form(f.nvars, f.degree, f.terms)
        assert g == f and hash(g) == hash(f) and g.key() == f.key()

    @settings(max_examples=150, deadline=None)
    @given(forms(min_terms=1))
    def test_round_trip_through_text(self, f):
        # the text of the zero form is "0", which carries no declared degree
        vars = ["x", "y", "z", "w"][:f.nvars]
        assert parse_form(f.to_text(vars), vars) == f

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_evaluate_equals_fraction_reference(self, data):
        f = data.draw(forms())
        p = data.draw(st.lists(coordinates, min_size=f.nvars, max_size=f.nvars))
        assert evaluate(f, p) == fraction_value(f, p)

    def test_zero_form_evaluates_to_zero(self):
        assert evaluate(Form(3, 4, {}), ("1/3", 0, Fraction(2, 3))) == 0

    def test_terms_view_is_read_only(self):
        f = parse_form("1/2*x^2 + 3/4*y^2", XY)
        with pytest.raises(TypeError):
            f.terms[(2, 0)] = Fraction(1)


# zero, negative and large-denominator coordinates
wide_coordinates = st.one_of(
    st.just(0),
    st.integers(-10**6, 10**6),
    # every p/q with q <= 10^12 and |p/q| <= 10^3, as st.fractions(-10**3, 10**3,
    # max_denominator=10**12) draws them
    st.builds(lambda t, q: Fraction(t * q // 10**12, q), st.integers(-10**15, 10**15), st.integers(1, 10**12)),
)


class TestIntValue:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_evaluate_equals_reference(self, data):
        f = data.draw(forms(d=data.draw(st.integers(0, 8))))
        p = data.draw(st.lists(wide_coordinates, min_size=f.nvars, max_size=f.nvars))
        assert evaluate(f, p) == reference.evaluate(f, p)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_int_value_is_den_times_value(self, data):
        f = data.draw(forms(d=data.draw(st.integers(0, 8))))
        p = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=f.nvars, max_size=f.nvars))
        v = int_value(f, p)
        assert type(v) is int and v == f.den * reference.evaluate(f, p)

    def test_zero_form(self):
        for n, d in ((1, 0), (3, 8)):
            f = Form(n, d, {})
            assert int_value(f, [7] * n) == 0
            assert evaluate(f, [Fraction(-1, 10**12)] * n) == reference.evaluate(f, [0] * n) == 0

    def test_degree_1000(self):
        f = parse_form("x^1000 - 3*x^999*y + y^1000", XY)
        assert evaluate(f, (Fraction(2, 3), Fraction(-5, 7))) == reference.evaluate(f, ("2/3", "-5/7"))


class TestSubstitutePwn:
    @settings(max_examples=150, deadline=None)
    @given(forms())
    def test_equals_generic_substitution(self, f):
        for perm in permutations(range(1, f.nvars + 1)):
            assert substitute_pwn(f, perm) == substitute_linear(f, sds_matrix(perm))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: forms(n, 2)), st.booleans())
    @example(parse_form("1/3*x*y - 2/5*y*z + 1/7*z*w - w*v + 3/4*x*v", list("xyzwv")), False)
    @example(parse_form("-1/6*x^2 + 2/5*y^2 - 1/10*x*y", XY), False)
    def test_quadratic_equals_generic(self, f, cross_only):
        # the degree-2 route, up to n = 5, which forms() alone never draws
        if cross_only:  # a zero diagonal: pure cross terms
            f = Form(f.nvars, 2, {e: c for e, c in f.terms.items() if 2 not in e})
        for perm in permutations(range(1, f.nvars + 1)):
            assert substitute_pwn(f, perm) == substitute_linear(f, sds_matrix(perm))

    def test_example3_p6_level1(self):
        f = parse_form(corpus_text("example3-p6"), CORPUS_VARS)
        for perm, b in zip(permutations(range(1, 4)), enumerate_pwn(3)):
            assert substitute_pwn(f, perm) == substitute_linear(f, b)

    def test_zero_form_unchanged(self):
        f = Form(3, 4, {})
        assert substitute_pwn(f, (2, 3, 1)) is f

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mixed_shapes_in_one_run(self, data):
        # the kernel's tables are cached per (n, d), and per n at degree 2: forms
        # of two n and two d in one example, from cold caches, catch a table
        # keyed on n or d alone
        forms_module._pwn_tables.cache_clear()
        forms_module._quadratic_pairs.cache_clear()
        ns = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=2, unique=True))
        ds = data.draw(st.lists(st.integers(0, 6), min_size=2, max_size=2, unique=True))
        for n in ns:
            for d in ds:
                f = data.draw(forms(n, d, min_terms=1))
                for perm in permutations(range(1, n + 1)):
                    assert substitute_pwn(f, perm) == substitute_linear(f, sds_matrix(perm))

    def test_caches_are_bounded(self):
        caches = [obj for obj in vars(forms_module).values() if hasattr(obj, "cache_info")]
        assert caches
        for cache in caches:
            assert cache.cache_info().maxsize is not None

    @pytest.mark.parametrize("perm", [(1, 1, 2), (0, 1, 2), (1, 2, 4), (1, 2), (1, 2, 3, 4), (),
                                      (1.0, 2.0, 3.0), (True, 2, 3), ("1", 2, 3)])
    def test_bad_perm_rejected(self, perm):
        f = parse_form(EXAMPLE2_TEXT, XYZ)
        with pytest.raises(FormError):
            substitute_pwn(f, perm)


class TestSubstitutionBudget:
    def test_budget_is_the_monomial_count(self, monkeypatch):
        # C(6, 2) = 15 monomials of degree 4 in 3 variables pass, the 21 of degree 5 do not;
        # the kernel checks on a cache miss of its (n, d) tables, so the caches start cold
        monkeypatch.setattr(forms_module, "MAX_SUBSTITUTION_TERMS", 15)
        forms_module._pwn_tables.cache_clear()
        try:
            f = parse_form("x^4 - 2*y^2*z^2", XYZ)
            assert substitute_pwn(f, (2, 3, 1)) == substitute_linear(f, sds_matrix((2, 3, 1)))
            g = parse_form("x^5 - y^5", XYZ)
            for substitute in (substitute_pwn, lambda f, p: substitute_linear(f, sds_matrix(p))):
                with pytest.raises(FormError, match="a degree-5 form in 3 variables has 21 monomials, "
                                                    "over the substitution budget of 15 terms"):
                    substitute(g, (2, 3, 1))
        finally:
            forms_module._pwn_tables.cache_clear()

    def test_generic_expansion_refused_before_it_starts(self):
        # the identity rows would expand this form at once: the refusal is from (n, d) alone
        f = parse_form("x^200*y^200*z^200*w^200*u^200 - x^1000", list("xyzwu"))
        with pytest.raises(FormError, match="42084793751 monomials, over the substitution budget of 1500000"):
            substitute_linear(f, SubMatrix.identity(5))


class TestSignPredicates:
    def test_trivially_positive(self):
        assert is_trivially_positive(parse_form("x^2 + x*y", XY))
        assert not is_trivially_positive(parse_form("x^2 - x*y", XY))
        assert is_trivially_positive(parse_form("x - x", XY))

    def test_trivially_negative_value_mode(self):
        f = parse_form(EXAMPLE2_TEXT, XYZ)
        assert is_trivially_negative(f, "value")

    def test_trivially_negative_coeffs_mode(self):
        f = parse_form(EXAMPLE2_TEXT, XYZ)
        # leading coefficient is 7 > 0, so the stricter test fails
        assert not is_trivially_negative(f, "coeffs")

    def test_all_negative_form(self):
        f = parse_form("-x^2 - y^2", XY)
        assert is_trivially_negative(f, "value")
        assert is_trivially_negative(f, "coeffs")

    def test_coeffs_implies_value(self):
        rng = random.Random(23)
        for _ in range(50):
            f = random_form(rng, 3, rng.randint(1, 4))
            if is_trivially_negative(f, "coeffs"):
                assert is_trivially_negative(f, "value")

    def test_zero_form_signs(self):
        z = parse_form("x - x", XY)
        assert is_trivially_positive(z)
        assert not is_trivially_negative(z, "value")
        assert not is_trivially_negative(z, "coeffs")

    def test_nonlacunary(self):
        assert is_nonlacunary_positive(parse_form("(x + y)^2", XY))
        assert not is_nonlacunary_positive(parse_form("x^2 + y^2", XY))
        assert not is_nonlacunary_positive(parse_form("x^2 - x*y + y^2", XY))

    def test_trivially_positive_is_nonnegative_on_grid(self):
        rng = random.Random(31)
        from sds.oracle import GridSpec, grid_min
        for _ in range(10):
            f = random_form(rng, 3, rng.randint(1, 3), lo=0, hi=5)
            assert is_trivially_positive(f)
            value, _ = grid_min(f, GridSpec(6, 3))
            assert value >= 0
