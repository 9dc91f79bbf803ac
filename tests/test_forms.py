import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings, strategies as st

from sds.corpus import CORPUS_VARS, EXAMPLE1_TEXT, EXAMPLE2_TEXT, corpus_text
from sds.forms import (
    Form,
    FormError,
    ParseError,
    evaluate,
    is_nonlacunary_positive,
    is_trivially_negative,
    is_trivially_positive,
    parse_form,
    substitute_linear,
    substitute_pwn,
)
from sds.matrices import SubMatrix, compose_chain, enumerate_pwn, sds_matrix

from helpers import random_chain, random_form, random_point

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
def forms(draw):
    """Forms in 1..4 variables of degree 0..6 with signed rational coefficients."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, 6))
    monomials = []
    for combo in combinations_with_replacement(range(n), d):
        exp = [0] * n
        for i in combo:
            exp[i] += 1
        monomials.append(tuple(exp))
    coefs = st.fractions(min_value=-100, max_value=100, max_denominator=60)
    terms = draw(st.dictionaries(st.sampled_from(monomials), coefs))
    return Form(n, d, terms)  # zero coefficients dropped; {} is the zero form


class TestSubstitutePwn:
    @settings(max_examples=150, deadline=None)
    @given(forms())
    def test_equals_generic_substitution(self, f):
        for perm in permutations(range(1, f.nvars + 1)):
            assert substitute_pwn(f, perm) == substitute_linear(f, sds_matrix(perm))

    def test_example3_p6_level1(self):
        f = parse_form(corpus_text("example3-p6"), CORPUS_VARS)
        for perm, b in zip(permutations(range(1, 4)), enumerate_pwn(3)):
            assert substitute_pwn(f, perm) == substitute_linear(f, b)

    def test_zero_form_unchanged(self):
        f = Form(3, 4, {})
        assert substitute_pwn(f, (2, 3, 1)) is f

    @pytest.mark.parametrize("perm", [(1, 1, 2), (0, 1, 2), (1, 2, 4), (1, 2), (1, 2, 3, 4), ()])
    def test_bad_perm_rejected(self, perm):
        f = parse_form(EXAMPLE2_TEXT, XYZ)
        with pytest.raises(FormError):
            substitute_pwn(f, perm)


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
