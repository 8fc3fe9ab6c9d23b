"""Truncated power series and polynomial-coefficient arithmetic."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc

from su3asym.series import PowerSeries
from su3asym.xpoly import XPolynomial

mp.dps = 60


def mpf_identity(order):
    return PowerSeries.constant(mpf(1), order - 1).shift(1)


def test_constructor_semantics():
    s = PowerSeries([mpf(2), mpf(3)], valuation=1)
    assert s.valuation == 1
    assert s.order == 3
    assert s.coeff(1) == 2
    assert s.coeff(2) == 3
    assert s.coeff(0) == 0
    with pytest.raises(ValueError):
        s.coeff(3)  # at/beyond truncation order is unknown, not zero
    with pytest.raises(ValueError, match="order - valuation must equal"):
        PowerSeries([mpf(2), mpf(3)], valuation=1, order=4)


def test_mul_matches_hand_expansion():
    # (1 + x)^2 = 1 + 2x + x^2
    one_plus_x = PowerSeries([mpf(1), mpf(1)] + [mpf(0)] * 3, 0, 5)
    sq = one_plus_x * one_plus_x
    assert [sq.coeff(k) for k in range(3)] == [1, 2, 1]
    assert all(sq.coeff(k) == 0 for k in range(3, sq.order))


def test_mul_valuation_and_order_tracking():
    # x^2 * x^3 = x^5; truncation order of a product is limited by both factors
    a = PowerSeries([mpf(1)] + [mpf(0)] * 3, 2, 6)
    b = PowerSeries([mpf(1)] + [mpf(0)] * 3, 3, 7)
    prod = a * b
    assert prod.coeff(5) == 1
    assert prod.order <= min(a.order + b.valuation, b.order + a.valuation)


def test_mul_by_empty_series_is_empty():
    # a factor with no known coefficient leaves nothing known in the product
    prod = PowerSeries([], 3, 3) * PowerSeries([1, 2])
    assert (prod.coeffs, prod.valuation, prod.order) == ((), 3, 3)


def test_exp_coefficients_are_inverse_factorials():
    e = mpf_identity(12).exp()
    for k in range(12):
        assert abs(e.coeff(k) - mpf(1) / math.factorial(k)) < mpf("1e-50")


def test_exp_of_zero_series_is_one():
    zero = PowerSeries.constant(mpf(0), 6)
    e = zero.exp()
    assert e.coeff(0) == 1
    assert all(e.coeff(k) == 0 for k in range(1, 6))


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        PowerSeries.constant(mpf(1), 5).exp()


_small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=12).flatmap(
        lambda order: st.tuples(
            st.lists(_small_fractions, min_size=order - 1, max_size=order - 1),
            st.lists(_small_fractions, min_size=order - 1, max_size=order - 1),
        )
    )
)
def test_exp_of_sum_is_product_of_exps(coeff_pair):
    # exp(a + b) = exp(a) exp(b) for series with zero constant term, exactly
    a, b = (PowerSeries(cs, 1, len(cs) + 1) for cs in coeff_pair)
    lhs, rhs = (a + b).exp(), a.exp() * b.exp()
    assert lhs.order == rhs.order
    assert [lhs.coeff(k) for k in range(lhs.order)] == [rhs.coeff(k) for k in range(rhs.order)]


def test_pow_real_binomial_series():
    # (1 + x)^(1/2): coefficients are the generalized binomials C(1/2, k)
    one_plus_x = PowerSeries([mpf(1), mpf(1)] + [mpf(0)] * 6, 0, 8)
    h = one_plus_x.pow_real(mpf(1) / 2)
    expected = [mpf(1), mpf("0.5"), mpf(-1) / 8, mpf(1) / 16, mpf(-5) / 128]
    for k, want in enumerate(expected):
        assert abs(h.coeff(k) - want) < mpf("1e-50")
    # consistency: h * h recovers 1 + x
    sq = h * h
    assert abs(sq.coeff(0) - 1) < mpf("1e-50")
    assert abs(sq.coeff(1) - 1) < mpf("1e-50")
    assert all(abs(sq.coeff(k)) < mpf("1e-50") for k in range(2, sq.order))


def _coeffs(series):
    return [series.coeff(k) for k in range(series.order)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.lists(_small_fractions, min_size=1, max_size=9),
    _small_fractions,
    _small_fractions,
)
def test_pow_real_exponent_laws_hold_exactly(tail, alpha, beta):
    # a^alpha a^beta == a^(alpha+beta) and a^3 == a a a, in exact rationals
    a = PowerSeries([Fraction(1)] + tail, 0, len(tail) + 1)
    lhs = a.pow_real(alpha) * a.pow_real(beta)
    assert _coeffs(lhs) == _coeffs(a.pow_real(alpha + beta))
    assert _coeffs(a.pow_real(Fraction(3))) == _coeffs(a * a * a)


def test_pow_real_requires_unit_constant_term():
    for bad in (
        PowerSeries([mpf(2), mpf(1)], 0, 2),
        PowerSeries([mpf(1), mpf(1)], 1, 3),
        PowerSeries([mpf(1), mpf(1)], -1, 1),
    ):
        with pytest.raises(ValueError):
            bad.pow_real(mpf(1) / 2)


def test_drop_below_and_truncate():
    f = PowerSeries([mpf(1), mpf(2), mpf(3), mpf(4)], valuation=-2, order=2)
    low = f.drop_below(0)
    assert low.valuation >= 0
    assert low.coeff(0) == 3
    assert low.coeff(1) == 4
    assert f.drop_below(-2) is f and f.drop_below(-5) is f  # nothing stored below
    t = f.truncate(1)
    assert t.order == 1
    assert t.coeff(-2) == 1
    assert t.coeff(0) == 3
    with pytest.raises(ValueError):
        t.coeff(1)


# -- XPolynomial coefficients --------------------------------------------------------


def test_xpoly_degree_and_arithmetic():
    p = XPolynomial([mpf(1), mpf(0), mpf(2)])  # 1 + 2 x^2
    q = XPolynomial([mpf(0), mpf(3)])  # 3 x
    assert p.degree == 2
    assert q.degree == 1
    prod = p * q
    assert prod.degree == 3
    assert prod.coeff(1) == 3
    assert prod.coeff(3) == 6
    tot = p + q
    assert [tot.coeff(k) for k in range(3)] == [1, 3, 2]
    assert XPolynomial([]).coeffs == (0,)
    assert p == XPolynomial([1, 0, 2, 0]) and not p == q
    assert p != "1 + 2 x^2"  # no comparison with a non-number


def test_xpoly_effective_degree_ignores_numerical_dust():
    p = XPolynomial([mpf(1), mpf(0), mpf("1e-70")])
    assert p.degree == 2
    assert p.effective_degree(mpf("1e-60")) == 0


def test_series_over_xpoly_ring():
    # (1 + i x z)(1 - i x z) = 1 + x^2 z^2 in the mixed polynomial/series ring
    ix = XPolynomial([mpf(0), mpc(0, 1)])
    one = XPolynomial([mpf(1)])
    f = PowerSeries([one, ix, one * 0, one * 0], 0, 4)
    g = PowerSeries([one, -ix, one * 0, one * 0], 0, 4)
    prod = f * g
    assert prod.coeff(0).coeff(0) == 1
    assert prod.coeff(1) == 0
    c2 = prod.coeff(2)
    assert c2.coeff(2) == 1
    assert c2.coeff(0) == 0


def test_series_exp_over_xpoly_ring_keeps_polynomial_coeffs():
    # exp(x z): z^k coefficient is x^k / k!, an XPolynomial of degree k
    x = XPolynomial([mpf(0), mpf(1)])
    f = PowerSeries([x] + [x * 0] * 4, 1, 6)
    e = f.exp()
    for k in range(6):
        ck = e.coeff(k)
        assert isinstance(ck, XPolynomial)
        assert abs(ck.coeff(k) - mpf(1) / math.factorial(k)) < mpf("1e-50")
