"""Shared test configuration.

The package's numerical routines read the global mpmath precision, so every
test runs inside a guard that restores the precision it found; a test that
raises mid-way through a precision change cannot poison its neighbours.
"""

from __future__ import annotations

import pytest
from mpmath import mp, mpf

from su3asym.precision import working_digits
from su3asym.saddle_expansion import _check_saddle_order, _saddle_series_raw, constants
from su3asym.series import PowerSeries


@pytest.fixture(autouse=True)
def _restore_precision():
    saved = mp.dps
    try:
        yield
    finally:
        mp.dps = saved


def _saddle_F(g: PowerSeries, x: PowerSeries, X, Y) -> PowerSeries:
    """F(g(x); x) = -2X^2 g^(-5/3) + Y x g^(-3/2) / (2X) + 2X^2."""
    t1 = g.pow_real(mpf(-5) / 3).scalar_mul(-2 * X**2)
    t2 = (g.pow_real(mpf(-3) / 2) * x).scalar_mul(Y / (2 * X))
    return (t1 + t2).truncate(g.order) + 2 * X**2


def _saddle_residual_max(order: int):
    """max |coefficient| of F(S(x); x) through x^order (should be ~0)."""
    _check_saddle_order(order)
    prec = working_digits()
    cst = constants()
    with mp.workdps(prec + 15 + order):
        g = _saddle_series_raw(order, cst.X, cst.Y)
        x = PowerSeries.constant(mpf(1), g.order - 1).shift(1)
        F = _saddle_F(g, x, cst.X, cst.Y)
        worst = mpf(0)
        for k in range(F.valuation, F.order):
            worst = max(worst, abs(F.coeff(k)))
    return +worst


@pytest.fixture
def saddle_residual_max():
    return _saddle_residual_max
