import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from sds import matrices
from sds.matrices import (
    MatrixError,
    SubMatrix,
    barycenter_image,
    check_chain,
    compose_chain,
    enumerate_pwn,
    is_normalized,
    permutation_matrix,
    pwn_perms,
    pwn_preimage,
    pwn_step,
    sds_matrix,
    weighted_matrix,
)

from helpers import chains, random_chain

F = Fraction

# the six 3x3 substitution matrices displayed for the first subdivision
SIX_DISPLAYED = [
    SubMatrix([[1, F(1, 2), F(1, 3)], [0, F(1, 2), F(1, 3)], [0, 0, F(1, 3)]]),
    SubMatrix([[0, F(1, 2), F(1, 3)], [1, F(1, 2), F(1, 3)], [0, 0, F(1, 3)]]),
    SubMatrix([[0, 0, F(1, 3)], [1, F(1, 2), F(1, 3)], [0, F(1, 2), F(1, 3)]]),
    SubMatrix([[0, 0, F(1, 3)], [0, F(1, 2), F(1, 3)], [1, F(1, 2), F(1, 3)]]),
    SubMatrix([[0, F(1, 2), F(1, 3)], [0, 0, F(1, 3)], [1, F(1, 2), F(1, 3)]]),
    SubMatrix([[1, F(1, 2), F(1, 3)], [0, 0, F(1, 3)], [0, F(1, 2), F(1, 3)]]),
]


class TestWeightedMatrix:
    def test_n3(self):
        w = weighted_matrix(3)
        assert w.rows == (
            (F(1), F(1, 2), F(1, 3)),
            (F(0), F(1, 2), F(1, 3)),
            (F(0), F(0), F(1, 3)),
        )

    def test_n1(self):
        assert weighted_matrix(1).rows == ((F(1),),)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_columns_sum_to_one(self, n):
        assert is_normalized(weighted_matrix(n))

    def test_rejects_zero(self):
        with pytest.raises(MatrixError):
            weighted_matrix(0)


class TestPermutationMatrix:
    def test_identity(self):
        assert permutation_matrix([1, 2, 3]) == SubMatrix.identity(3)

    def test_swap(self):
        assert permutation_matrix([2, 1]).rows == ((F(0), F(1)), (F(1), F(0)))

    def test_inverse_product(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(2, 5)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            inv = [0] * n
            for i, k in enumerate(perm):
                inv[k - 1] = i + 1
            assert permutation_matrix(perm) @ permutation_matrix(inv) == SubMatrix.identity(n)

    def test_malformed(self):
        with pytest.raises(MatrixError):
            permutation_matrix([1, 1, 3])


class TestSdsMatrix:
    def test_identity_perm_is_weighted_matrix(self):
        for n in range(1, 5):
            assert sds_matrix(list(range(1, n + 1))) == weighted_matrix(n)

    def test_equals_explicit_product(self):
        for perm in permutations(range(1, 4)):
            assert sds_matrix(perm) == permutation_matrix(perm) @ weighted_matrix(3)

    def test_six_displayed_matrices(self):
        # our lexicographic order may permute the display labels; compare sets
        assert set(enumerate_pwn(3)) == set(SIX_DISPLAYED)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_determinant(self, n):
        for perm in permutations(range(1, n + 1)):
            d = sds_matrix(perm).det()
            assert abs(d) == F(1, math.factorial(n))


class TestEnumeratePwn:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 6), (4, 24), (5, 120)])
    def test_counts(self, n, count):
        assert len(enumerate_pwn(n)) == count

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pairwise_distinct(self, n):
        mats = enumerate_pwn(n)
        assert len(set(mats)) == len(mats)

    def test_all_normalized_nonnegative(self):
        for n in range(1, 6):
            for m in enumerate_pwn(n):
                assert is_normalized(m)
                assert all(0 <= x <= 1 for row in m.rows for x in row)

    def test_order_is_stable(self):
        assert enumerate_pwn(3) == enumerate_pwn(3)
        assert enumerate_pwn(3)[0] == weighted_matrix(3)

    def test_limit(self, monkeypatch):
        built = []
        monkeypatch.setattr(matrices, "sds_matrix", lambda p: built.append(p))
        with pytest.raises(MatrixError, match="exceeds"):
            enumerate_pwn(9)  # 9! = 362,880, past MAX_PWN_ELEMENTS
        assert built == []


class TestComposeChain:
    def test_empty_chain_is_identity(self):
        assert compose_chain((), 3) == SubMatrix.identity(3)

    def test_singleton(self):
        mats = enumerate_pwn(3)
        for i in range(1, 7):
            assert compose_chain((i,), 3) == mats[i - 1]

    def test_concatenation(self):
        rng = random.Random(13)
        for _ in range(30):
            n = rng.randint(2, 4)
            c1 = random_chain(rng, n, 3)
            c2 = random_chain(rng, n, 3)
            assert compose_chain(c1 + c2, n) == compose_chain(c1, n) @ compose_chain(c2, n)

    def test_all_length3_chains_normalized(self):
        from itertools import product
        for chain in product(range(1, 7), repeat=3):
            assert is_normalized(compose_chain(chain, 3))

    def test_index_out_of_range(self):
        with pytest.raises(MatrixError):
            compose_chain((7,), 3)


class TestIsNormalized:
    def test_examples(self):
        assert is_normalized(weighted_matrix(4))
        assert is_normalized(SubMatrix.identity(5))
        two_i = SubMatrix([[2, 0], [0, 2]])
        assert not is_normalized(two_i)


class TestBarycenterImage:
    def test_empty_chain(self):
        assert barycenter_image((), 3) == (F(1, 3), F(1, 3), F(1, 3))

    def test_coordinates_sum_to_one(self):
        rng = random.Random(19)
        for _ in range(50):
            n = rng.randint(2, 4)
            img = barycenter_image(random_chain(rng, n, 4), n)
            assert sum(img) == 1
            assert all(x >= 0 for x in img)

    def test_reported_counterexample_chain(self):
        # the depth-2 chain found for the indefinite cubic corpus example
        assert barycenter_image((3, 6), 3) == (F(37, 108), F(49, 108), F(11, 54))


class TestStructuredMaps:
    """The structured P·W_n maps against the dense SubMatrix reference."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_perms_index_the_matrices(self, n):
        assert tuple(sds_matrix(p) for p in pwn_perms(n)) == enumerate_pwn(n)

    def test_perms_limit(self, monkeypatch):
        enumerated = []
        monkeypatch.setattr(matrices, "permutations", lambda *a: enumerated.append(a))
        with pytest.raises(MatrixError, match="exceeds"):
            pwn_perms(9)
        assert enumerated == []
        with pytest.raises(MatrixError):
            pwn_perms(0)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_step_is_the_scaled_product(self, data):
        n = data.draw(st.integers(1, 4))
        perm = data.draw(st.sampled_from(pwn_perms(n)))
        cols = data.draw(st.lists(
            st.lists(st.integers(-50, 50), min_size=n, max_size=n), min_size=n, max_size=n))
        m = SubMatrix([[cols[j][i] for j in range(n)] for i in range(n)])
        product = m @ sds_matrix(perm)
        lcm = math.lcm(*range(1, n + 1))
        assert pwn_step(cols, perm) == tuple(
            tuple(lcm * x for x in product.column(j)) for j in range(n))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_preimage_is_the_solve(self, data):
        n = data.draw(st.integers(1, 4))
        perm = data.draw(st.sampled_from(pwn_perms(n)))
        rational = st.one_of(st.integers(-30, 30), st.fractions(max_denominator=40))
        x = data.draw(st.lists(rational, min_size=n, max_size=n))
        assert pwn_preimage(perm, x) == sds_matrix(perm).solve(x)

    def test_preimage_dimension_mismatch(self):
        with pytest.raises(MatrixError):
            pwn_preimage((1, 2, 3), (F(1, 2), F(1, 2)))

    @settings(max_examples=200, deadline=None)
    @given(chains())
    def test_barycenter_image_is_the_product(self, nc):
        n, chain = nc
        assert barycenter_image(chain, n) == compose_chain(chain, n).matvec([F(1, n)] * n)

    @pytest.mark.parametrize("chain", [(7,), (0,), (1, 7), (2, -1), (True,), (1.0,), ("1",)])
    def test_bad_chain_index(self, chain):
        for check in (check_chain, barycenter_image, compose_chain):
            with pytest.raises(MatrixError, match="out of range 1..6"):
                check(chain, 3)
