"""Expansion constants, saddle series, Laurent split, polynomial ladders, C_j."""

from __future__ import annotations

import dataclasses

import pytest
from mpmath import mp, mpf, mpc

from su3asym import saddle_expansion
from su3asym.saddle_expansion import (
    MAX_C_ORDER,
    MAX_LADDER_ORDER,
    MAX_SADDLE_ORDER,
    LadderPolys,
    _LADDER_CACHE,
    _gamma_third,
    c_constants,
    constants,
    expansion_polys,
    laurent_main,
    nu_coeff,
    saddle_series,
)
from su3asym.series import PowerSeries
from su3asym.special_functions import gamma_complex, zeta_complex
from su3asym.witten_zeta import omega_residue
from su3asym.xpoly import XPolynomial

mp.dps = 60
TOL = mpf("1e-50")


def test_constants_defining_closed_forms():
    # constants() carries 15 guard digits; the references are mpmath's Gamma
    # and zeta, 30 digits up
    for dps in (30, 60, 150):
        mp.dps = dps
        cst = constants()
        with mp.workdps(dps + 30):
            third = mpf(1) / 3
            x_def = (gamma_complex(third) ** 2 * zeta_complex(5 * third) / 9) ** (mpf(3) / 10)
            y_def = -mp.sqrt(mp.pi) * zeta_complex(mpf("0.5")) * zeta_complex(mpf("1.5"))
            assert abs(cst.X / x_def - 1) < mpf(10) ** -(dps + 10)
            assert abs(cst.Y / y_def - 1) < mpf(10) ** -(dps + 10)


@pytest.mark.parametrize("dps", [30, 60, 150, 300])
def test_gamma_third_by_the_agm(dps):
    # the identity is exact, so at any precision the AGM value is within
    # rounding, a few units in the last place, of Gamma(1/3)
    mp.dps = dps
    got, ulp = _gamma_third(), +mp.eps
    with mp.workdps(dps + 20):
        want = mp.gamma(mpf(1) / 3)
        assert abs(got / want - 1) < 4 * ulp


def test_saddle_constants_call_no_mpmath_gamma_or_zeta(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("saddle_expansion called mpmath's Gamma or zeta")

    for cache in ("_CONSTANTS_CACHE", "_NU_CACHE", "_LADDER_CACHE"):
        monkeypatch.setattr(saddle_expansion, cache, {})
    monkeypatch.setattr(mp, "gamma", refuse)
    monkeypatch.setattr(mp, "zeta", refuse)
    mp.dps = 47  # a precision no other test uses
    assert constants().X > 0
    assert all(nu_coeff(m) != 0 for m in range(4))
    assert len(c_constants(4)) == 5


def test_constants_internal_identities():
    cst = constants()
    X, Y = cst.X, cst.Y
    assert abs(cst.A1 - 5 * X**2) < TOL
    assert abs(cst.A2 - Y / X) < TOL
    assert abs(cst.A3 - 3 * Y**2 / (80 * X**4)) < TOL
    assert abs(cst.A4 - 11 * Y**3 / (3200 * X**7)) < TOL
    assert abs(cst.A5 - Y**4 / (2560 * X**10)) < TOL
    c0_def = 2 * mp.sqrt(3 * mp.pi) / mp.sqrt(5) * X ** (mpf(1) / 3) * mp.exp(-cst.A5)
    assert abs(cst.C0 - c0_def) < TOL


def test_saddle_series_closed_form_coefficients():
    cst = constants()
    X, Y = cst.X, cst.Y
    rho = saddle_series(8).rho
    assert abs(rho[0] - 1) < TOL
    assert abs(rho[1] + 3 * Y / (20 * X**3)) < TOL
    assert abs(rho[2] + 3 * Y**2 / (800 * X**6)) < TOL
    assert abs(rho[3] + 11 * Y**3 / (64000 * X**9)) < TOL
    assert abs(rho[4]) < TOL  # this coefficient vanishes
    assert abs(rho[5] - 4959 * Y**5 / (2048000000 * X**15)) < TOL


def test_saddle_series_vanishes_exactly_at_four_mod_ten():
    rho = saddle_series(40).rho
    assert [rho[k] for k in (4, 14, 24, 34)] == [0, 0, 0, 0]
    assert all(rho[k] != 0 for k in range(41) if k % 10 != 4)


def test_saddle_series_residual_vanishes(saddle_residual_max):
    assert saddle_residual_max(25) < mpf("1e-80")


@pytest.mark.parametrize(
    "build, arg, match",
    [
        (saddle_series, 0, "order must be a positive integer"),
        (nu_coeff, -1, "m must be a nonnegative integer"),
        (laurent_main, 0, "order must be a positive integer"),
        (expansion_polys, 0, "M must be a positive integer"),
        (c_constants, -1, "L must be a nonnegative integer"),
    ],
    ids=["saddle_series", "nu_coeff", "laurent_main", "expansion_polys", "c_constants"],
)
def test_orders_below_the_range_are_refused(build, arg, match):
    with pytest.raises(ValueError, match=match):
        build(arg)


def test_saddle_series_order_guard():
    with pytest.raises(ValueError):
        saddle_series(MAX_SADDLE_ORDER + 1)


def _nu_closed_form(m):
    return (
        mp.sqrt(2 * mp.pi)
        / ((16 * mp.pi) ** 3 * (mpf(8) ** 5 * mp.pi**4) ** m)
        * mp.binomial(2 * m, m)
        / (m + 1)
        * mp.factorial(6 * m + 6)
        / mp.factorial(3 * m + 3)
        * zeta_complex(m + mpf(1) / 2)
        * zeta_complex(3 * m + mpf(7) / 2)
    )


def test_nu_first_coefficient():
    # nu_0 = sqrt(2 pi) / (16 pi)^3 * (6!/3!) * zeta(1/2) zeta(7/2), a negative
    # number.  nu_m is rounded to the working precision, so it must be the
    # reference, taken 30 digits up, rounded there.
    for dps in (30, 60, 150):
        mp.dps = dps
        got = nu_coeff(0)
        with mp.workdps(dps + 30):
            want = (
                mp.sqrt(2 * mp.pi)
                / (16 * mp.pi) ** 3
                * 120
                * zeta_complex(mpf("0.5"))
                * zeta_complex(mpf("3.5"))
            )
        assert got < 0
        assert got == +want
        assert abs(got + mpf("0.00389709738506")) < mpf("1e-14")


@pytest.mark.parametrize("dps", [30, 60, 150])
def test_nu_coeff_is_its_closed_form_rounded(dps):
    # m = 0 is test_nu_first_coefficient
    mp.dps = dps
    got = [nu_coeff(m) for m in range(1, 4)]
    with mp.workdps(dps + 30):
        want = [_nu_closed_form(m) for m in range(1, 4)]
    assert got == [+w for w in want]


def test_nu_growth_is_cubic_factorial_scale():
    # implied[m-1] = (|nu_m| / m^(3m))^(1/m), the smallest C with |nu_m| <= C^m m^(3m)
    implied = [(abs(nu_coeff(m)) / mpf(m) ** (3 * m)) ** (mpf(1) / m) for m in range(1, 21)]
    worst = max(implied)
    # |nu_m|^(1/m) / m^3 stays bounded by a small constant: the series is a
    # genuinely divergent asymptotic one, growing like m^(3m) up to geometry
    assert worst < 1


def test_laurent_main_matches_named_constants():
    cst = constants()
    lm = laurent_main(6)
    # z^-4 .. z^-1 coefficients are A1, -A2, -A3, -A4 (x-degree 0 each)
    for exponent, want in ((-4, cst.A1), (-3, -cst.A2), (-2, -cst.A3), (-1, -cst.A4)):
        poly = lm.coeff(exponent)
        assert abs(poly.coeff(0) - want) < TOL
        assert poly.effective_degree(mpf("1e-45")) == 0
    # z^0 coefficient is -A5 - (5 X^2/3) x^2
    z0 = lm.coeff(0)
    assert abs(z0.coeff(0) + cst.A5) < TOL
    assert abs(z0.coeff(1)) < TOL
    assert abs(z0.coeff(2) + 5 * cst.X**2 / 3) < TOL
    assert z0.effective_degree(mpf("1e-45")) == 2


def test_laurent_positive_part_degree_bounds():
    lm = laurent_main(8)
    for ell in range(1, 8):
        assert lm.coeff(ell).effective_degree(mpf("1e-40")) <= (ell + 4) // 2


_POLY_SERIES_B = saddle_expansion._poly_series_B


def _B_with_x4_at_z6(order, X, Y):
    """_poly_series_B with an extra x^4 z^6, above the degree its ladders allow."""
    B = _POLY_SERIES_B(order, X, Y)
    coeffs = list(B.coeffs)
    coeffs[6] = coeffs[6] + XPolynomial([0, 0, 0, 0, 1])
    return PowerSeries(coeffs, B.valuation, B.order)


def test_laurent_main_refuses_constants_off_their_closed_form(monkeypatch):
    cst = constants()
    bent = dataclasses.replace(cst, A3=cst.A3 * (1 + mpf("1e-30")))
    monkeypatch.setitem(saddle_expansion._CONSTANTS_CACHE, mp.dps, bent)
    with pytest.raises(RuntimeError, match=r"z\^-2 deviates from its closed form"):
        laurent_main(6)


def test_laurent_main_refuses_a_coefficient_above_its_degree_bound(monkeypatch):
    # the expression is stationary in B at B = S, so x^4 z^6 leaves z^2 alone
    # and first shows at z^4, times the i x z^2 of B
    monkeypatch.setattr(saddle_expansion, "_poly_series_B", _B_with_x4_at_z6)
    with pytest.raises(RuntimeError, match=r"z\^4 has degree 5, above the bound 4"):
        laurent_main(6)


def test_expansion_polys_refuse_a_ladder_above_its_degree_bound(monkeypatch):
    # the true Laurent series, so that only the ladder p3 = B^(-1/3) sees the
    # bent B; p1 reads B only through z^3
    true_laurent = laurent_main(6)
    monkeypatch.setattr(saddle_expansion, "laurent_main", lambda order: true_laurent)
    monkeypatch.setattr(saddle_expansion, "_poly_series_B", _B_with_x4_at_z6)
    monkeypatch.setattr(saddle_expansion, "_LADDER_CACHE", {})
    with pytest.raises(RuntimeError, match=r"p3\[6\] has degree 4"):
        expansion_polys(6)


def test_ladder_shapes_and_units():
    lad = expansion_polys(4)
    assert lad.M == 4
    for seq in (lad.p1, lad.p2, lad.p3, lad.p4):
        assert len(seq) == 5
        assert all(isinstance(p, XPolynomial) for p in seq)
        unit = seq[0]
        assert abs(unit.coeff(0) - 1) < TOL
        assert unit.effective_degree(mpf("1e-45")) == 0


def test_ladder_product_is_convolution_of_factors():
    lad = expansion_polys(3)
    for m in range(4):
        conv = None
        for a in range(m + 1):
            for b in range(m + 1 - a):
                c = m - a - b
                term = lad.p1[a] * lad.p2[b] * lad.p3[c]
                conv = term if conv is None else conv + term
        top = max(conv.degree, lad.p4[m].degree)
        worst = max(abs(conv.coeff(k) - lad.p4[m].coeff(k)) for k in range(top + 1))
        assert worst < mpf("1e-45")


def test_ladder_order_guard():
    with pytest.raises(ValueError):
        expansion_polys(MAX_LADDER_ORDER + 1)


def test_c_constants_pipeline_head():
    cst = constants()
    cs = c_constants(2)
    assert abs(cs[0] - cst.C0) < TOL
    # regression anchors for the next two correction constants
    assert abs(cs[1] + mpf("0.600851634164368859113838")) < mpf("1e-22")
    assert abs(cs[2] + mpf("0.266043633258136158565969")) < mpf("1e-22")


def test_c_constants_are_real():
    values = c_constants(3)
    assert len(values) == 4
    assert all(isinstance(v, mpf) for v in values)


def test_c_constants_refuse_an_imaginary_even_coefficient(monkeypatch):
    # a ladder whose x^0 coefficient carries an imaginary part cannot
    # integrate to a real C_0; the build is broken and must say so
    unit = XPolynomial([mpf(1)])
    bad = XPolynomial([mpc(1, "1e-20")])
    fake = LadderPolys(M=1, p1=(unit, unit), p2=(unit, unit), p3=(unit, unit), p4=(bad, unit))
    monkeypatch.setitem(_LADDER_CACHE, (1, mp.dps), fake)
    with pytest.raises(RuntimeError, match="imaginary part"):
        c_constants(0)


def test_c_constants_order_guard():
    with pytest.raises(ValueError):
        c_constants(MAX_C_ORDER + 1)


# -- the expansion constants are residues of omega --------------------------------
#
# sum_d mult(d) d^(-w) = 2^w omega(w), so Log G(e^(-z)) is the Mellin integral of
# Gamma(w) zeta(1+w) 2^w omega(w) z^(-w), and each pole of omega gives one term
# of the expansion: 2/3 the X term, 1/2 the Y term, -1/2 - m the nu_m term.
# These tie saddle_expansion to witten_zeta, which share no code.


def _rel(a, b):
    return abs(a - b) / abs(a)


def test_x_is_the_residue_of_omega_at_two_thirds():
    cst = constants()
    want = gamma_complex(mpf(2) / 3) * zeta_complex(mpf(5) / 3) * omega_residue("two_thirds")
    assert _rel(3 * cst.X ** (mpf(10) / 3), want) < mpf("1e-55")


def test_y_is_the_residue_of_omega_at_one_half():
    want = -mp.sqrt(mp.pi) * zeta_complex(mpf(3) / 2) * omega_residue("half_minus_m", 0)
    assert _rel(constants().Y, want) < mpf("1e-55")


@pytest.mark.parametrize("m", range(11))
def test_nu_is_the_residue_of_omega_at_half_minus_m(m):
    w = -mpf(1) / 2 - m
    want = (
        gamma_complex(w)
        * zeta_complex(mpf(1) / 2 - m)
        * mpf(2) ** w
        * omega_residue("half_minus_m", m + 1)
    )
    assert _rel(nu_coeff(m), want) < mpf("1e-55")


def test_nu_coeff_cache_is_keyed_by_precision():
    # a cache keyed by m alone would hand the 30-digit value back at 100 digits
    with mp.workdps(30):
        nu_coeff(1)
    with mp.workdps(100):
        w = -mpf(3) / 2
        want = (
            gamma_complex(w)
            * zeta_complex(-mpf(1) / 2)
            * mpf(2) ** w
            * omega_residue("half_minus_m", 2)
        )
        assert _rel(nu_coeff(1), want) < mpf("1e-95")
