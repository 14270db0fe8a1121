import math
import operator
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import scale_exponents

from pbcjones.errors import PbcJonesError
from pbcjones.laurent import (LaurentPoly, d_poly, d_power, divide_by_d_power)

coeffs = st.dictionaries(st.integers(-12, 12), st.integers(-9, 9), max_size=6)
exact = st.one_of(st.integers(-9, 9), st.fractions(min_value=-4, max_value=4, max_denominator=6))


def poly(c):
    return LaurentPoly(c)


class TestArithmetic:
    def test_zero_and_one(self):
        assert LaurentPoly.zero().is_zero
        assert not LaurentPoly.one().is_zero
        assert LaurentPoly.one() * LaurentPoly.zero() == LaurentPoly.zero()

    def test_zero_coefficients_dropped(self):
        p = poly({3: 0, 1: 2})
        assert p.min_exp == p.max_exp == 1
        assert len(p) == 1

    def test_float_mode_drops_exact_zeros_only(self):
        p = LaurentPoly({0: 1.0, 2: 5e-13, 4: 0.0, 6: -0.0, 8: -1e-300}, "float")
        assert dict(p.terms()) == {0: 1.0, 2: 5e-13, 8: -1e-300}
        q = LaurentPoly.from_json_obj({"mode": "float", "coeffs": {"0": 1.0, "2": 5e-13}})
        assert q.coefficient(2) == 5e-13

    @given(coeffs, coeffs)
    def test_addition_commutes(self, a, b):
        assert poly(a) + poly(b) == poly(b) + poly(a)

    @given(coeffs, coeffs, coeffs)
    def test_multiplication_distributes(self, a, b, c):
        pa, pb, pc = poly(a), poly(b), poly(c)
        assert pa * (pb + pc) == pa * pb + pa * pc

    @given(coeffs, coeffs)
    def test_multiplication_commutes(self, a, b):
        assert poly(a) * poly(b) == poly(b) * poly(a)

    @given(coeffs)
    def test_negation_cancels(self, a):
        p = poly(a)
        assert (p + (-p)).is_zero

    @given(coeffs, st.integers(0, 4))
    def test_power_matches_repeated_product(self, a, n):
        p = poly(a)
        expected = LaurentPoly.one()
        for _ in range(n):
            expected = expected * p
        assert p ** n == expected

    def test_power_takes_any_nonnegative_integer_but_bool(self):
        p = poly({1: 2, -3: 1})
        assert p ** np.int64(3) == p ** 3
        assert p ** np.uint8(0) == LaurentPoly.one()
        for bad in (True, -1, np.int64(-1), 2.0, np.float64(2)):
            with pytest.raises(ValueError, match="power must be a nonnegative integer"):
                p ** bad

    @given(coeffs, st.integers(-3, 3).filter(lambda x: x != 0))
    def test_evaluate_is_ring_hom(self, a, x):
        p = poly(a)
        q = poly({0: 2, 2: -1})
        lhs = (p * q).evaluate(x)
        rhs = p.evaluate(x) * q.evaluate(x)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_scalar_multiplication(self):
        p = poly({2: 3})
        assert p * 2 == poly({2: 6})
        assert (p * 0).is_zero

    def test_fraction_coefficients_normalize(self):
        p = LaurentPoly({0: Fraction(4, 2)})
        assert p.coefficient(0) == 2
        assert isinstance(p.coefficient(0), int)

    @given(st.dictionaries(st.integers(-12, 12), exact, max_size=6), st.integers(-12, 12),
           exact.filter(bool), st.booleans())
    def test_monomial_product_matches_the_general_path(self, c, e0, v0, left):
        p, m = LaurentPoly(c), LaurentPoly({e0: v0})
        # the general path: every pair of terms, then normalization
        a, b = (m, p) if left else (p, m)
        terms = {}
        for e1, v1 in a.terms():
            for e2, v2 in b.terms():
                terms[e1 + e2] = terms.get(e1 + e2, 0) + v1 * v2
        reference = LaurentPoly(terms)
        got = a * b
        assert got == reference and got.mode == reference.mode
        assert [type(v) for _, v in got.terms()] == [type(v) for _, v in reference.terms()]
        assert got.to_json_obj() == reference.to_json_obj()

    @given(st.dictionaries(st.integers(-4, 4), exact, max_size=5),
           st.dictionaries(st.integers(-4, 4), exact, max_size=5), st.booleans())
    def test_exact_arithmetic_matches_the_normalizing_constructor(self, c1, c2, cancel):
        a = LaurentPoly(c1)
        # with cancel, b repeats a's terms, so a - b and, in part, a + -b vanish
        b = LaurentPoly({**c2, **c1} if cancel else c2)
        for op in (operator.add, operator.sub, operator.mul):
            if op is operator.mul:
                raw = {}
                for e1, v1 in a.terms():
                    for e2, v2 in b.terms():
                        raw[e1 + e2] = raw.get(e1 + e2, 0) + v1 * v2
            else:
                raw = dict(a.terms())
                for e, v in b.terms():
                    raw[e] = op(raw.get(e, 0), v)
            reference = LaurentPoly(raw)
            got = op(a, b)
            assert got.mode == "exact"
            assert [(e, v, type(v)) for e, v in got.terms()] == \
                [(e, v, type(v)) for e, v in reference.terms()]
            assert all(v != 0 and type(v) in (int, Fraction) for _, v in got.terms())
            assert all(type(v) is int for _, v in got.terms() if v.denominator == 1)

    def test_float_operands_are_rejected(self):
        # arithmetic is exact-only; float polynomials are report values
        e = poly({1: 1})
        for f in (LaurentPoly({1: 1.0}, "float"), LaurentPoly({0: 0.5, 2: -3.0}, "float")):
            for a, b in ((e, f), (f, e), (f, f)):
                for op in (operator.add, operator.sub, operator.mul):
                    with pytest.raises(TypeError):
                        op(a, b)
            for n in (1, 2, 3):
                with pytest.raises(TypeError):
                    f ** n
            for scalar in (2, Fraction(1, 2)):
                with pytest.raises(TypeError):
                    f * scalar
            for operand in (e, f):
                with pytest.raises(TypeError):
                    operand * 2.0
                with pytest.raises(TypeError):
                    0.5 * operand

    def test_scale_exponents_inverts_variable(self):
        p = poly({-2: 1, 4: 3})
        assert scale_exponents(p, -1) == poly({2: 1, -4: 3})


class TestFormatting:
    def test_str_examples(self):
        assert str(LaurentPoly.zero()) == "0"
        assert str(poly({0: -2})) == "-2"
        assert str(poly({-10: -1, -2: -1})) == "-A^-10 - A^-2"
        assert str(poly({1: 1})) == "A"

    def test_json_round_trip_exact(self):
        p = poly({-3: Fraction(1, 2), 5: -4})
        q = LaurentPoly.from_json_obj(p.to_json_obj())
        assert p == q and q.mode == "exact"

    def test_json_round_trip_float(self):
        p = LaurentPoly({0: 1.0, 2: -3.0}, "float")
        q = LaurentPoly.from_json_obj(p.to_json_obj())
        assert p == q and q.mode == "float"

    def test_json_coefficient_beyond_float_range(self):
        with pytest.raises(PbcJonesError, match="not a polynomial"):
            LaurentPoly.from_json_obj({"mode": "float", "coeffs": {"1": 10**400}})

    @pytest.mark.parametrize("text", ["1e400", "1e10000000", "0.5", "2/4", "3/1", "0/5",
                                      "-0/3", "+1/3", " 1/3", "1_0/3", "1/-3", "\uff11/3"])
    def test_json_coefficient_strings_must_be_as_written(self, text):
        # checked before parsing: Fraction("1e10000000") alone takes seconds
        message = f"^not a polynomial: coefficient '{re.escape(text)}' is not 'n/d'"
        with pytest.raises(PbcJonesError, match=message):
            LaurentPoly.from_json_obj({"coeffs": {"0": text}})

    def test_str_of_coefficients_beyond_float_range(self):
        big = 10**400
        p = LaurentPoly({-1: -big, 0: Fraction(big, 3), 2: -Fraction(1, 3), 3: big})
        assert str(p) == f"-{big}*A^-1 + {big}/3 - 1/3*A^2 + {big}*A^3"
        assert LaurentPoly.from_json_obj(p.to_json_obj()) == p

    @pytest.mark.parametrize("value", [10**4300, Fraction(1, 10**4300), -Fraction(10**4300, 3)],
                             ids=["int", "denominator", "numerator"])
    def test_coefficients_past_the_digit_limit_raise(self, value):
        # 4,301 digits: Python refuses to convert the int to a string
        message = ("^an integer has more than 4300 digits, "
                   "Python's limit for converting an int to a string$")
        p = poly({2: value})
        with pytest.raises(PbcJonesError, match=message):
            str(p)
        if isinstance(value, Fraction):  # an int stays an int until JSON writes it
            with pytest.raises(PbcJonesError, match=message):
                p.to_json_obj()

    @pytest.mark.parametrize("coeffs, key", [
        ({"1": 1, "01": 2, " 1": 5}, "01"),  # three spellings of A would merge into 5*A
        ({"1_0": 1}, "1_0"),  # int() reads it as 10
        ({"+2": 1}, "+2"),
        ({"-0": 1}, "-0"),
    ], ids=["leading-zero", "underscore", "plus", "minus-zero"])
    def test_json_exponent_keys_must_be_canonical(self, coeffs, key):
        message = f"^not a polynomial: exponent key '{re.escape(key)}' is not a plain integer$"
        with pytest.raises(PbcJonesError, match=message):
            LaurentPoly.from_json_obj({"coeffs": coeffs})

    @pytest.mark.parametrize("value, error", [(math.nan, ValueError), (math.inf, ValueError),
                                              (-math.inf, ValueError), (True, TypeError)])
    def test_bad_float_coefficient_rejected(self, value, error):
        with pytest.raises(error):
            LaurentPoly({0: value, 2: 1.5}, "float")
        with pytest.raises(PbcJonesError, match="^not a polynomial: "):
            LaurentPoly.from_json_obj({"mode": "float", "coeffs": {"0": value, "2": 1.5}})


class TestLoopValue:
    def test_d_is_minus_a2_minus_a_minus2(self):
        assert d_poly() == poly({2: -1, -2: -1})

    def test_d_power_zero_is_one(self):
        assert d_power(0) == LaurentPoly.one()

    @given(st.integers(0, 5))
    def test_d_power_matches_pow(self, k):
        assert d_power(k) == d_poly() ** k

    def test_d_power_matches_pow_up_to_40(self):
        for k in range(41):
            assert d_power(k) == d_poly() ** k

    def test_d_power_is_cached_per_k_and_survives_arithmetic(self):
        p = d_power(6)
        assert d_power(6) is p
        for q in (p * p, p + p, p - p, -p, p * 3, p * d_poly(), scale_exponents(p, 2)):
            assert q is not p  # arithmetic builds new polynomials
        assert list(d_power(6).terms()) == list((d_poly() ** 6).terms())
        assert d_power(7) == d_poly() ** 7

    def test_d_power_rejects_what_pow_rejects(self):
        d_power(2)
        for bad in (-1, 2.0, True):
            with pytest.raises(ValueError):
                d_power(bad)

    def test_d_power_takes_numpy_integers_into_one_cache_entry(self):
        assert d_power(np.int64(9)) is d_power(9)
        assert d_power(np.int32(3)) is d_power(3)
        for bad in (True, np.int64(-2), np.float64(2)):
            with pytest.raises(ValueError, match="power must be a nonnegative integer"):
                d_power(bad)

    def test_d_at_one_is_minus_two(self):
        assert d_poly().evaluate(1.0) == -2.0


class TestDivision:
    def test_power_zero_returns_input(self):
        p = poly({3: 2, -1: 5})
        res = divide_by_d_power(p, 0)
        assert res.quotient == p and res.remainder.is_zero

    def test_positive_hopf_value_splits(self):
        # -A^2 - A^10 = (A^8 - A^4 + 2) * d + 2 A^-2
        p = poly({2: -1, 10: -1})
        res = divide_by_d_power(p, 1)
        assert res.quotient == poly({8: 1, 4: -1, 0: 2})
        assert res.remainder == poly({-2: 2})
        assert res.remainder_span == 0
        assert not res.remainder_is_zero

    def test_negative_hopf_value_is_all_remainder(self):
        # every candidate quotient term would need a negative exponent
        p = poly({-2: -1, -10: -1})
        res = divide_by_d_power(p, 1)
        assert res.quotient.is_zero
        assert res.remainder == p
        assert res.remainder_span == 8

    def test_power_past_the_degree_is_all_remainder_at_once(self):
        # d^k has k + 1 terms of growing size; a polynomial of lower degree
        # is all remainder and must not build them
        p = poly({40: 3, 3: -1, -10: 7})
        start = time.perf_counter()
        res = divide_by_d_power(p, 20000)
        assert time.perf_counter() - start < 1.0
        assert res.quotient.is_zero
        assert res.remainder == p
        assert res.remainder_span == 50

    @pytest.mark.parametrize("n", range(1, 6))
    def test_unlink_value_divides_exactly(self, n):
        res = divide_by_d_power(d_power(n - 1), n - 1)
        assert res.quotient == LaurentPoly.one()
        assert res.remainder.is_zero
        assert res.remainder_is_zero

    @given(coeffs, st.integers(1, 3))
    def test_reconstruction_identity(self, c, k):
        p = poly(c)
        res = divide_by_d_power(p, k)
        assert res.quotient * d_power(k) + res.remainder == p

    @given(coeffs, st.integers(1, 3))
    def test_quotient_exponents_nonnegative(self, c, k):
        res = divide_by_d_power(poly(c), k)
        if not res.quotient.is_zero:
            assert res.quotient.min_exp >= 0

    @given(coeffs, st.integers(1, 3))
    @settings(max_examples=60)
    def test_float_division_tracks_exact(self, c, k):
        p = poly(c)
        exact = divide_by_d_power(p, k)
        approx = divide_by_d_power(LaurentPoly(c, "float"), k)
        for got, want in ((approx.quotient, exact.quotient), (approx.remainder, exact.remainder)):
            exps = {e for e, _ in got.terms()} | {e for e, _ in want.terms()}
            assert all(abs(got.coefficient(e) - want.coefficient(e)) <= 1e-9 for e in exps)

    @given(st.dictionaries(st.integers(-12, 12),
                           st.floats(-9, 9, allow_nan=False, allow_infinity=False), max_size=6),
           st.integers(0, 3), st.sampled_from([1e-9, 1e-3, 0.5]))
    @settings(max_examples=80)
    def test_float_division_drops_coefficients_at_the_tolerance(self, c, k, zero_tol):
        res = divide_by_d_power(LaurentPoly(c, "float"), k, zero_tol)
        for part in (res.quotient, res.remainder):
            assert part.mode == "float"
            assert all(abs(v) > zero_tol for _, v in part.terms())
        assert res.remainder_span == res.remainder.span
        assert res.remainder_is_zero == res.remainder.is_zero

    def test_zero_tolerance_keeps_tiny_float_terms(self):
        p = LaurentPoly({0: 1.0, 4: 3e-13, 8: 1.0}, "float")
        res = divide_by_d_power(p, 0, 0.0)
        assert res.quotient == p and res.quotient.coefficient(4) == 3e-13
        assert res.remainder.is_zero

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            divide_by_d_power(LaurentPoly.one(), -1)

    @pytest.mark.parametrize("k", [np.int64(2), np.uint16(1), np.int64(0)])
    def test_numpy_integer_power(self, k):
        p = poly({6: 2, 0: -3, 2: 1, -5: 4}) * d_power(2) + poly({1: 7})
        assert divide_by_d_power(p, k) == divide_by_d_power(p, int(k))

    @pytest.mark.parametrize("k", [1.5, 2.0, "1", True])
    def test_non_integer_power_rejected(self, k):
        with pytest.raises(ValueError, match="power must be a nonnegative integer"):
            divide_by_d_power(poly({2: -1, -2: -1}), k)

    def test_exact_multiple_has_zero_remainder(self):
        p = poly({6: 2, 0: -3, 2: 1}) * d_power(2)
        res = divide_by_d_power(p, 2)
        assert res.remainder.is_zero
        assert res.quotient == poly({6: 2, 0: -3, 2: 1})
