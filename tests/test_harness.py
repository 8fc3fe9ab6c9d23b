"""End-to-end comparisons: exact counts vs the expansion, Log G residuals."""

from __future__ import annotations

import time

import pytest
from mpmath import mp, mpf, mpc

from su3asym import harness
from su3asym.exact_counting import r_exact, su3_parts
from su3asym.harness import (
    asymptotic_log_G,
    big_A,
    compare_table,
    expansion_residual,
    log_G_direct,
)
from su3asym.saddle_expansion import constants

mp.dps = 60


def test_big_A_at_one_is_alternating_constant_sum():
    cst = constants()
    want = cst.A1 - cst.A2 - cst.A3 - cst.A4
    assert abs(big_A(1) - want) < mpf("1e-50")


def test_big_A_input_guard():
    with pytest.raises(ValueError):
        big_A(0)


@pytest.mark.parametrize(
    "n_list, L_max, error, match",
    [
        ([], 1, ValueError, "must not be empty"),
        ([0, 5], 1, ValueError, "all n must be positive integers"),
        ([5], -1, ValueError, "L_max must be a nonnegative integer"),
        ([200.9, 300, 400], 0, TypeError, "float"),
        (["300"], 0, TypeError, "str"),
    ],
    ids=["empty", "zero-n", "negative-L", "float-n", "str-n"],
)
def test_compare_table_refuses_bad_input(n_list, L_max, error, match):
    with pytest.raises(error, match=match):
        compare_table(n_list, L_max)


def test_compare_table_ratio_close_to_exact_at_ten_thousand():
    (row,) = [row for row in compare_table([10000], 2).rows if row.L == 2]
    assert mpf("0.98") < row.ratio < mpf("1.0")


def test_compare_table_refuses_past_the_float64_range_before_any_count(monkeypatch):
    # the float64 count runs first, so its refusal beyond FLOAT64_LIMIT comes
    # before the exact DP and the C_j
    def not_called(*args):
        raise AssertionError("computed before the float64 refusal")

    monkeypatch.setattr(harness, "r_exact", not_called)
    monkeypatch.setattr(harness, "c_constants", not_called)
    with pytest.raises(OverflowError, match="float64 DP overflowed"):
        compare_table([50000, 300000], 4)


def test_log_G_direct_matches_partial_sums():
    # At z = 3 the generating series converges fast: 80 terms give ~100 digits
    z = mpf(3)
    vals = r_exact(80)
    partial = sum(mpf(v) * mp.exp(-z * n) for n, v in enumerate(vals))
    assert abs(mp.exp(log_G_direct(z)) - partial) < mpf("1e-55")


def test_log_G_direct_conjugate_symmetry():
    z = mpc("0.5", "0.3")
    a = log_G_direct(z)
    b = log_G_direct(mp.conj(z))
    assert abs(mp.conj(a) - b) < mpf("1e-55")


def _log_G_termwise(z):
    """-sum_d mult(d) Log(1 - e^(-z d)), one principal-branch Log per part.

    Summed 15 digits above the working precision up to
    D = (digits + 30) ln 10 / Re z.  For the z tested here the tail bound
    e^(-Re z D) D/(1 - e^(-Re z))^3 is then below 10^-(digits + 15).
    """
    digits = mp.dps
    with mp.workdps(digits + 15):
        cutoff = int((digits + 30) * mp.log(10) / mp.re(z)) + 1
        total = -sum(mult * mp.log(1 - mp.exp(-z * d)) for d, mult in su3_parts(cutoff))
    return total


@pytest.mark.parametrize(
    "z",
    [mpf("0.2"), mpf("0.003125"), mpc("0.05", "0.04"), mpc("0.05", "-0.04")],
    ids=["0.2", "0.003125", "0.05+0.04i", "0.05-0.04i"],
)
def test_log_G_direct_matches_termwise_principal_logs(z):
    got = log_G_direct(z)
    assert isinstance(got, type(z))
    assert abs(got - _log_G_termwise(z)) < mpf("1e-60")


def test_log_G_direct_keeps_each_log_principal_at_100_digits():
    with mp.workdps(100):
        z = mpc("0.05", "0.04")
        got = log_G_direct(z)
        # Im Log G is about -9.62, so one principal Log of the product is off by 4 pi i
        assert got.imag < -3 * mp.pi
        assert abs(got - _log_G_termwise(z)) < mpf("1e-100")


def test_log_G_direct_requires_positive_real_part():
    with pytest.raises(ValueError):
        log_G_direct(mpf("-0.1"))
    with pytest.raises(ValueError):
        log_G_direct(mpc(0, 1))


def test_asymptotic_log_G_eta_domain():
    z = mpf("0.1")
    for bad in (mpf(0), mpf("-0.5"), mpf("1.5"), mpf("0.4"), mp.inf, mp.nan):
        with pytest.raises(ValueError, match="eta = "):
            asymptotic_log_G(z, bad)
    # valid etas on either side of a half-integer give the same truncation
    assert abs(asymptotic_log_G(z, mpf("1.2")) - asymptotic_log_G(z, mpf("1.4"))) == 0


def test_asymptotic_log_G_refuses_an_eta_past_the_least_term():
    # |nu_m z^m| is least near m* = A |z|^(-1/3)/3 - 1, 15.6 at z = 0.1; a sum
    # of 10^6 nu_m did not return, and one of 1000 took 4.5 s
    for eta in (mpf("1000.25"), mpf("1e6")):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="eta = "):
            asymptotic_log_G(mpf("0.1"), eta)
        assert time.perf_counter() - start < 0.1
    # the etas in use stay: 2 m* + 10 is 41.3 at z = 0.1 and 74.6 at 0.0125
    asymptotic_log_G(mpf("0.1"), mpf("42.25"))
    asymptotic_log_G(mpf("0.0125"), mpf("20.25"))
    with pytest.raises(ValueError, match="eta = 43.25 would sum"):
        asymptotic_log_G(mpf("0.1"), mpf("43.25"))


def test_asymptotic_log_G_cone_guard():
    # arg z > pi/4, and the points where the expansion has no value
    for bad in (mpc(1, 2), mpf(0), mp.inf, mp.nan):
        with pytest.raises(ValueError, match="z "):
            asymptotic_log_G(bad, mpf("1.25"))


def test_expansion_residual_magnitude():
    res = expansion_residual(mpf("0.1"), mpf("1.25"))
    assert mpf("1e-8") < res < mpf("1e-6")  # the first omitted term is nu_1 z^1.5 ~ 3e-7


def test_expansion_residual_input_guards():
    with pytest.raises(ValueError):
        expansion_residual(mpc("0.1", "0.2"), mpf("2.25"))  # |Arg z| > pi/4
    with pytest.raises(ValueError):
        expansion_residual(mpf("0.1"), mpf("1.5"))  # a half-integer eta


def test_expansion_residual_shrinks_with_eta():
    z = mpf("0.05")
    assert expansion_residual(z, mpf("2.25")) < expansion_residual(z, mpf("1.25"))


def test_compare_table_small_run():
    table = compare_table([500, 1000, 2000], 1)
    assert len(table.rows) == 6
    assert set(table.fitted_exponent) == {0, 1}
    for row in table.rows:
        assert row.ratio > 0
    last = [r for r in table.rows if r.n == 2000 and r.L == 1][0]
    assert mpf("0.9") < last.ratio < mpf("1.0")
    # scaled residuals shrink when another correction term is included
    r0 = [r for r in table.rows if r.n == 2000 and r.L == 0][0]
    assert abs(last.residual_scaled) < abs(r0.residual_scaled)


def test_compare_table_fit_needs_three_points():
    table = compare_table([1000, 2000], 0)
    assert table.fitted_exponent[0] is None
