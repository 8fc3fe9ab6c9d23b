"""Pole-checked Gamma and zeta wrappers, exact Bernoulli numbers and the
numeric types the package accepts.

The wrappers run on mpmath, so they are checked against closed forms and
functional equations rather than against mpmath itself."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf, mpc

from su3asym.special_functions import (
    GammaPoleError,
    ZetaPoleError,
    bernoulli_fraction,
    gamma_complex,
    zeta_complex,
)
from su3asym.harness import log_G_direct
from su3asym.witten_zeta import omega_result

mp.dps = 60
TOL = mpf("1e-55")


def test_gamma_known_values():
    assert abs(gamma_complex(mpf("0.5")) - mp.sqrt(mp.pi)) < TOL
    assert abs(gamma_complex(5) - 24) < TOL
    third = mpf(1) / 3
    prod = gamma_complex(third) * gamma_complex(2 * third)
    assert abs(prod - 2 * mp.pi / mp.sqrt(3)) < TOL


def test_gamma_reflection_formula_complex():
    z = mpc("0.3", "4.0")
    lhs = gamma_complex(z) * gamma_complex(1 - z)
    rhs = mp.pi / mp.sin(mp.pi * z)
    assert abs(lhs - rhs) < TOL * max(1, abs(rhs))


def test_gamma_duplication_formula_complex():
    # Gamma(z) Gamma(z + 1/2) = 2^(1 - 2z) sqrt(pi) Gamma(2z)
    for z in (mpf("20.5"), mpc("2.5", "3.0"), mpc("-1.7", "0.4"), mpc("0.1", "-30")):
        lhs = gamma_complex(z) * gamma_complex(z + mpf(1) / 2)
        rhs = 2 ** (1 - 2 * z) * mp.sqrt(mp.pi) * gamma_complex(2 * z)
        assert abs(lhs - rhs) < mpf("1e-52") * abs(rhs)


def test_gamma_return_type_follows_input():
    assert isinstance(gamma_complex(mpf("2.5")), mpf)
    assert isinstance(gamma_complex(mpc("2.5", "0")), mpf)
    assert isinstance(gamma_complex(mpc("2.5", "1")), mpc)
    assert isinstance(zeta_complex(3), mpf)
    assert isinstance(zeta_complex(mpc("3", "0")), mpf)
    assert isinstance(zeta_complex(mpc("3", "1")), mpc)


def test_gamma_poles_raise():
    for bad in (0, -1, -7, mpc(-3, 0)):
        with pytest.raises(GammaPoleError):
            gamma_complex(bad)


def test_zeta_known_values():
    assert abs(zeta_complex(2) - mp.pi**2 / 6) < TOL
    assert abs(zeta_complex(0) + mpf(1) / 2) < TOL
    assert abs(zeta_complex(-1) + mpf(1) / 12) < TOL
    assert abs(zeta_complex(-2)) < TOL  # trivial zero
    assert abs(zeta_complex(8) - mp.pi**8 / 9450) < TOL


def test_zeta_functional_equation():
    # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s), on both sides
    # of the critical line and up the critical strip
    for s in (mpc("0.3", "2.0"), mpf("-0.4"), mpc("0.5", "14.13"), mpc("-1.5", "10")):
        lhs = zeta_complex(s)
        rhs = (
            2**s
            * mp.pi ** (s - 1)
            * mp.sin(mp.pi * s / 2)
            * gamma_complex(1 - s)
            * zeta_complex(1 - s)
        )
        assert abs(lhs - rhs) < mpf("1e-52") * max(1, abs(lhs))


def test_zeta_even_values_match_bernoulli_closed_form():
    # zeta(2n) = (-1)^(n+1) B_2n (2 pi)^(2n) / (2 (2n)!)
    for n in (1, 2, 5, 13, 30):
        b = bernoulli_fraction(2 * n)
        want = (
            (-1) ** (n + 1) * mpf(b.numerator) / b.denominator
            * (2 * mp.pi) ** (2 * n) / (2 * math.factorial(2 * n))
        )
        assert abs(zeta_complex(2 * n) - want) < TOL * want


def test_zeta_pole_raises():
    with pytest.raises(ZetaPoleError):
        zeta_complex(1)
    with pytest.raises(ZetaPoleError):
        zeta_complex(mpc(1, 0))


def test_bernoulli_numbers():
    known = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        3: Fraction(0),
        12: Fraction(-691, 2730),
    }
    for n, want in known.items():
        assert bernoulli_fraction(n) == want
    with pytest.raises(ValueError, match="Bernoulli index must be nonnegative"):
        bernoulli_fraction(-1)


def test_inputs_of_every_accepted_type_give_the_same_value():
    # a Python complex or Fraction comes in as the mpc or mpf it denotes;
    # anything else is refused
    assert omega_result(1.5 + 2.1j).value == omega_result(mpc(1.5, 2.1)).value
    assert omega_result(Fraction(3, 2)).value == omega_result(mpf(3) / 2).value
    assert log_G_direct(0.1 + 0.05j) == log_G_direct(mpc(0.1, 0.05))
    with pytest.raises(TypeError, match="unsupported numeric type"):
        omega_result("1.5")
