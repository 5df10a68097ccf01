"""Tests for sparse sequences, products, powers, roots and norms."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftlab.seqspace import (
    L1,
    MAX_INDEX,
    SUP,
    IndexOverflowError,
    ProductKind,
    SeqVec,
    SpaceNorm,
    basis,
    cw_root,
    norm,
    power,
    product,
)

CW = ProductKind.COORDINATEWISE
CONV = ProductKind.CONVOLUTION


def vec(*pairs):
    return SeqVec(dict(pairs))


class TestBasis:
    def test_basis_zero(self):
        assert basis(0) == vec((0, 1.0))

    def test_basis_seven(self):
        assert basis(7) == vec((7, 1.0))

    def test_distinct_supports(self):
        assert basis(0) != basis(1)

    def test_negative_index_rejected(self):
        with pytest.raises(IndexOverflowError):
            basis(-1)


class TestProducts:
    def test_conv_of_basis_adds_indices(self):
        assert product(basis(2), basis(3), CONV) == basis(5)

    def test_conv_binomial(self):
        x = basis(0) + basis(1)
        assert product(x, x, CONV) == vec((0, 1.0), (1, 2.0), (2, 1.0))

    def test_cw_support_overlap(self):
        x = basis(0) + basis(1)
        y = basis(1) + basis(2)
        assert product(x, y, CW) == basis(1)

    def test_conv_index_overflow(self):
        big = basis(2**62)
        with pytest.raises(IndexOverflowError):
            product(big, big, CONV)

    def test_empty_absorbs(self):
        assert product(SeqVec(), basis(3), CONV) == SeqVec()
        assert product(SeqVec(), basis(3), CW) == SeqVec()


class TestPower:
    def test_cw_closed_form(self):
        assert power(2.0 * basis(3), 2, CW) == vec((3, 4.0))

    def test_conv_basis_power(self):
        assert power(basis(1), 3, CONV) == basis(3)

    def test_conv_binomial(self):
        assert power(basis(0) + basis(1), 2, CONV) == vec((0, 1.0), (1, 2.0), (2, 1.0))

    def test_cw_power_entrywise_exact(self):
        x = vec((0, 0.3), (5, -1.7), (9, 2.5))
        y = power(x, 3, CW)
        for k, c in x.items():
            assert y.coeff(k) == c**3  # bit-exact closed form

    def test_power_zero_rejected(self):
        with pytest.raises(ValueError):
            power(basis(0), 0, CONV)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.floats(-3, 3)), max_size=6),
           st.integers(1, 6))
    # a subnormal entry underflows in a different order along the two paths
    @example([(0, 0.5), (1, 5e-324), (2, 2.0)], 6)
    # a normal result whose intermediate entries underflow in different steps
    @example([(0, 0.71484375), (0, -0.8671875), (1, 2.581683108553186e-297),
              (2, 1.987558808359587e-11), (4, 1.375)], 6)
    def test_conv_power_matches_naive_product(self, pairs, m):
        x = SeqVec(pairs)
        fast = power(x, m, CONV)
        slow = x
        for _ in range(m - 1):
            slow = product(slow, x, CONV)
        assert fast.support() == slow.support()
        for k, c in fast.items():
            assert c == pytest.approx(slow.coeff(k), rel=1e-10, abs=1e-300)


class TestRoot:
    def test_square_root(self):
        assert cw_root(4.0 * basis(3), 2) == vec((3, 2.0))

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_roots_of_ones(self, m):
        x = basis(0) + basis(1)
        assert cw_root(x, m) == x

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            cw_root(-1.0 * basis(0), 2)

    def test_root_power_roundtrip(self):
        rng = random.Random(7)
        for _ in range(200):
            x = SeqVec({rng.randrange(50): rng.uniform(0.01, 10.0) for _ in range(5)})
            m = rng.randint(1, 6)
            back = power(cw_root(x, m), m, CW)
            for k, c in x.items():
                assert back.coeff(k) == pytest.approx(c, rel=1e-12)


class TestNorm:
    def test_l1_sum(self):
        assert norm(basis(0) + 2.0 * basis(1), L1) == 3.0

    def test_sup_max(self):
        assert norm(basis(0) + 2.0 * basis(1), SUP) == 2.0

    def test_l2_pythagoras(self):
        assert norm(3.0 * basis(0) + 4.0 * basis(5), SpaceNorm.lp(2)) == 5.0

    def test_empty_norm_is_zero(self):
        for n in (L1, SUP, SpaceNorm.lp(2.5)):
            assert norm(SeqVec(), n) == 0.0

    def test_l1_is_lp1(self):
        assert SpaceNorm.l1() == SpaceNorm.lp(1)

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            SpaceNorm.lp(0.5)

    def test_lp_tiny_vector_does_not_underflow(self):
        # the square, 1e-340, is below the least subnormal
        assert norm(1e-170 * basis(0), SpaceNorm.lp(2)) == 1e-170

    def test_lp_huge_vector_does_not_overflow(self):
        assert norm(1e200 * basis(0), SpaceNorm.lp(2)) == 1e200


def _random_sparse(rng, max_idx=60, max_nnz=8, scale=2.0):
    nnz = rng.randint(0, max_nnz)
    return SeqVec({rng.randrange(max_idx): rng.uniform(-scale, scale)
                   for _ in range(nnz)})


class TestAlgebraContracts:
    def test_conv_l1_submultiplicative_sample(self):
        rng = random.Random(1234)
        for _ in range(2000):
            x = _random_sparse(rng)
            y = _random_sparse(rng)
            lhs = norm(product(x, y, CONV), L1)
            rhs = norm(x, L1) * norm(y, L1)
            assert lhs <= rhs * (1.0 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30), st.floats(-5, 5)), max_size=8),
           st.lists(st.tuples(st.integers(0, 30), st.floats(-5, 5)), max_size=8),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    # the product's square is subnormal
    @example(xs=[(0, 3.11401635162755e-79)], ys=[(0, 3.11401635162755e-79)], p=2.0)
    def test_cw_holder_type_bound(self, xs, ys, p):
        x, y = SeqVec(xs), SeqVec(ys)
        n = SpaceNorm.lp(p)
        assert norm(product(x, y, CW), n) <= norm(x, n) * norm(y, n) * (1 + 1e-12) + 1e-300

    def test_fnorm_bullets_on_scalar_grid(self):
        x = vec((0, 1.5), (3, -0.25), (11, 2.0))
        norms = [L1, SUP, SpaceNorm.lp(2)]
        cs = [k / 50.0 for k in range(-50, 51)]
        for n in norms:
            base = norm(x, n)
            for c in cs:
                val = norm(c * x, n)
                if abs(c) <= 1.0:
                    assert val <= base * (1 + 1e-12)
                assert val <= (abs(c) + 1.0) * base * (1 + 1e-12)
            # scaling to zero
            assert norm(1e-300 * x, n) <= 1e-290


class TestCanonicalForm:
    def test_zeros_dropped(self):
        assert SeqVec({3: 0.0}) == SeqVec()

    def test_addition_cancels_to_canonical(self):
        x = vec((2, 1.5))
        assert (x - x) == SeqVec()
        assert (x - x).support_max() is None

    def test_support_max(self):
        assert vec((4, 1.0), (9, -2.0)).support_max() == 9

    def test_equality_is_entrywise(self):
        assert vec((1, 2.0), (3, -1.0)) == vec((3, -1.0), (1, 2.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SeqVec({0: float("nan")})

    def test_max_index_boundary(self):
        assert basis(MAX_INDEX).support_max() == MAX_INDEX


class TestSerialization:
    def test_roundtrip_sorted(self):
        x = vec((9, -1.25), (2, 0.5), (4, 3.0))
        obj = x.to_json_dict()
        assert obj == {"entries": [[2, 0.5], [4, 3.0], [9, -1.25]]}
        assert SeqVec.from_json_dict(obj) == x

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError):
            SeqVec.from_json_dict({"coefficients": []})

    @pytest.mark.parametrize("entry,match", [
        ([0.5, 1.0], "index must be an integer"),
        ([True, 2.0], "index must be an integer"),
        (["3", 2.0], "index must be an integer"),
        ([float("inf"), 2.0], "index must be an integer"),
        ([3, True], "coefficient must be a number"),
        ([3, "2.0"], "coefficient must be a number"),
    ])
    def test_entries_are_not_coerced(self, entry, match):
        with pytest.raises(ValueError, match=match):
            SeqVec.from_json_dict({"entries": [[1, 1.0], entry]})

    def test_integral_float_index_and_int_coefficient_accepted(self):
        # the schema's [integer >= 0, number] accepts 1.0 as an integer
        got = SeqVec.from_json_dict({"entries": [[1.0, 2], [4, 0.5]]})
        assert got == vec((1, 2.0), (4, 0.5))
        assert all(type(k) is int and type(c) is float for k, c in got.items())
