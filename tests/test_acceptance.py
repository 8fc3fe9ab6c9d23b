"""Acceptance checks: every advertised guarantee of the package, end to end.

Each numbered criterion gets at least one test whose name carries its number;
``pytest -v`` therefore prints one pass/fail line per check.  Three checks
compare pipeline output against externally quoted closed forms that are
inconsistent with the mathematics they summarize; those are expected to fail,
each sits next to a green companion test asserting the internally consistent
variant, and the failure messages state the discrepancy precisely.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

import pytest
from mpmath import mp, mpf, mpc

from su3asym.exact_counting import hr_estimate, p_exact, r_exact, r_exact_via_exp
from su3asym.harness import compare_table, expansion_residual
from su3asym.saddle_expansion import (
    c_constants,
    constants,
    expansion_polys,
    laurent_main,
    saddle_series,
)
from su3asym.special_functions import gamma_complex, zeta_complex
from su3asym.witten_zeta import omega, trivial_zeros, verify_zeta_identity

mp.dps = 60


def leading_digits_match(value, printed: str) -> bool:
    """True when ``printed`` is a prefix of the decimal expansion of ``value``."""
    sig = len(printed.replace(".", "").replace("-", "").lstrip("0")) + 8
    return mp.nstr(value, sig).startswith(printed)


# -- criterion 1: exact sequence ------------------------------------------------------


@pytest.fixture(scope="module")
def exact_counts():
    """One timed block: the DP count and the exact-rational oracle to n = 200."""
    t0 = time.perf_counter()
    dp = r_exact(200)
    oracle = r_exact_via_exp(200)
    elapsed = time.perf_counter() - t0
    return dp, oracle, elapsed


def test_criterion_01_first_eight_values(exact_counts):
    dp, _, _ = exact_counts
    assert dp[:8] == [1, 1, 1, 3, 3, 3, 8, 8]


def test_criterion_01_dp_equals_exp_oracle_to_200(exact_counts):
    dp, oracle, _ = exact_counts
    assert dp == oracle


def test_criterion_01_runtime(exact_counts):
    _, _, elapsed = exact_counts
    assert elapsed < 5.0, f"exact-count check took {elapsed:.2f}s (budget 5s)"


# -- criterion 2: constants -----------------------------------------------------------


def test_criterion_02_constants_printed_digits():
    cst = constants()
    checks = [
        (cst.X, "1.17117"),
        (cst.Y, "6.76190"),
        (cst.A1, "6.85826"),
        (cst.A2, "5.7736"),
        (cst.A3, "0.91134"),
        (cst.A4, "0.35163"),
        (cst.C0, "2.44629"),
    ]
    for value, printed in checks:
        assert leading_digits_match(value, printed), (
            f"expected decimal expansion starting {printed}, got {mp.nstr(value, 12)}"
        )


def test_criterion_02_constants_internal_identities():
    cst = constants()
    X, Y = cst.X, cst.Y
    tol = mpf("1e-50")
    third = mpf(1) / 3
    assert abs(X - (gamma_complex(third) ** 2 * zeta_complex(5 * third) / 9) ** (mpf(3) / 10)) < tol
    assert abs(Y + mp.sqrt(mp.pi) * zeta_complex(mpf("0.5")) * zeta_complex(mpf("1.5"))) < tol
    assert abs(cst.A1 - 5 * X**2) < tol
    assert abs(cst.A2 - Y / X) < tol
    assert abs(cst.A3 - 3 * Y**2 / (80 * X**4)) < tol
    assert abs(cst.A4 - 11 * Y**3 / (3200 * X**7)) < tol
    assert abs(cst.C0 - 2 * mp.sqrt(3 * mp.pi) / mp.sqrt(5) * X ** third * mp.exp(-cst.A5)) < tol


# -- criterion 3: the double zeta -----------------------------------------------------


@pytest.fixture(scope="module")
def omega_checks():
    """One timed block: trivial zeros, overlap sweep, pole limit at s = 2/3."""
    t0 = time.perf_counter()
    zeros = trivial_zeros(5)

    rng = random.Random(20250817)
    worst_overlap = mpf(0)
    for _ in range(20):
        s = mpc(1.2 + 0.8 * rng.random(), -5 + 10 * rng.random())
        diff = abs(omega(s, method="mb") - omega(s, method="direct"))
        worst_overlap = max(worst_overlap, diff)

    offset = mpf("1e-5")
    s = mpf(2) / 3 + offset
    pole_limit = offset * omega(s)
    elapsed = time.perf_counter() - t0
    return {
        "zeros": zeros,
        "worst_overlap": worst_overlap,
        "pole_limit": pole_limit,
        "elapsed": elapsed,
    }


def test_criterion_03_trivial_zeros(omega_checks):
    worst = max(abs(v) for v in omega_checks["zeros"])
    assert worst < mpf("1e-18"), f"max |omega(-n)|, n=1..5: {mp.nstr(worst, 5)}"


def test_criterion_03_direct_vs_continuation_overlap(omega_checks):
    worst = omega_checks["worst_overlap"]
    assert worst < mpf("1e-15"), f"worst overlap-strip disagreement: {mp.nstr(worst, 5)}"


def test_criterion_03_pole_limit_matches_quoted_residue(omega_checks):
    lim = omega_checks["pole_limit"]
    third = mpf(1) / 3
    quoted = gamma_complex(third) ** 2 / (2 * mp.sqrt(3) * mp.pi)
    assert abs(lim - quoted) < mpf("1e-4"), (
        f"(s - 2/3) omega(s) at offset 1e-5 is {mp.nstr(lim, 10)}; the quoted residue "
        f"Gamma(1/3)^2/(2 sqrt(3) pi) = {mp.nstr(quoted, 10)} differs by "
        f"{mp.nstr(abs(lim - quoted), 4)}. The continuation's first term "
        "Gamma(2s-1)Gamma(1-s)zeta(3s-1)/Gamma(s) makes the residue "
        "Gamma(1/3)^2/(3 Gamma(2/3)) = Gamma(1/3)^3/(2 sqrt(3) pi): one more power of "
        "Gamma(1/3) than the quoted form (see the companion test)"
    )


def test_criterion_03_pole_limit_matches_continuation_residue(omega_checks):
    # companion: the residue the continuation itself produces at s = 2/3
    lim = omega_checks["pole_limit"]
    third = mpf(1) / 3
    res = gamma_complex(third) ** 3 / (2 * mp.sqrt(3) * mp.pi)
    assert abs(lim - res) < mpf("1e-4"), (
        f"limit {mp.nstr(lim, 10)} vs residue {mp.nstr(res, 10)}"
    )


def test_criterion_03_runtime(omega_checks):
    assert omega_checks["elapsed"] < 60.0, (
        f"double-zeta checks took {omega_checks['elapsed']:.1f}s (budget 60s)"
    )


# -- criterion 4: even-argument zeta identity -----------------------------------------


def test_criterion_04_zeta_identity():
    for n in (1, 2, 3):
        residual = verify_zeta_identity(n)
        assert residual < mpf("1e-45"), f"n={n}: relative residual {mp.nstr(residual, 5)}"


def test_criterion_04_classical_oracle_zeta8():
    # the n = 1 identity is an identity among zeta values at 8, and pairs below;
    # anchor the zeta engine itself against zeta(8) = pi^8/9450
    assert abs(zeta_complex(8) - mp.pi**8 / 9450) < mpf("1e-55")


# -- criterion 5: saddle-point series -------------------------------------------------


def test_criterion_05_saddle_series_closed_forms():
    cst = constants()
    X, Y = cst.X, cst.Y
    rho = saddle_series(8).rho
    tol = mpf("1e-45")
    assert abs(rho[1] + 3 * Y / (20 * X**3)) < tol
    assert abs(rho[2] + 3 * Y**2 / (800 * X**6)) < tol
    assert abs(rho[3] + 11 * Y**3 / (64000 * X**9)) < tol
    assert abs(rho[5] - 4959 * Y**5 / (2048000000 * X**15)) < tol


def test_criterion_05_saddle_equation_residual_to_order_30(saddle_residual_max):
    assert saddle_residual_max(30) < mpf("1e-45")


# -- criterion 6: polynomial ladder and C_1, C_2 --------------------------------------


def _quoted_p4_1(X, Y):
    # -Y (35 x^2 X^2 - 6) / (120 X^3) - 4959 Y^5 / (102400000 X^13)
    return {
        0: Y * 6 / (120 * X**3) - 4959 * Y**5 / (102400000 * X**13),
        1: mpf(0),
        2: -Y * 35 * X**2 / (120 * X**3),
    }


def _quoted_p4_2(X, Y):
    # (1/27)(40 x^2 X^2 - 9) i x + 57 Y^6 (1015 x^2 X^2 - 622) / (4096000000 X^16)
    #   + Y^2 (245 x^4 X^4 - 426 x^2 X^2 + 36) / (5760 X^6)
    #   + 24591681 Y^10 / (20971520000000000 X^26)
    return {
        0: (
            -57 * Y**6 * 622 / (4096000000 * X**16)
            + Y**2 * 36 / (5760 * X**6)
            + 24591681 * Y**10 / (20971520000000000 * X**26)
        ),
        1: mpc(0, -1) / 27 * 9,
        2: 57 * Y**6 * 1015 / (4096000000 * X**14) - Y**2 * 426 / (5760 * X**4),
        3: mpc(0, 1) / 27 * 40 * X**2,
        4: Y**2 * 245 / (5760 * X**2),
    }


def test_criterion_06_ladder_polynomials_match_quoted_forms():
    cst = constants()
    lad = expansion_polys(2)
    tol = mpf("1e-40")
    for m, quoted in ((1, _quoted_p4_1(cst.X, cst.Y)), (2, _quoted_p4_2(cst.X, cst.Y))):
        poly = lad.p4[m]
        top = max(quoted)
        assert poly.effective_degree(tol) <= top
        for k in range(top + 1):
            want = quoted.get(k, mpf(0))
            got = poly.coeff(k)
            assert abs(got - want) < tol, (
                f"x^{k} coefficient of the order-{m} product polynomial: "
                f"got {mp.nstr(got, 10)}, quoted {mp.nstr(want, 10)}"
            )


def test_criterion_06_c2_matches_quoted_closed_form():
    cst = constants()
    X, Y = cst.X, cst.Y
    c2 = c_constants(2)[2]
    quoted = (
        2
        * X ** (mpf(4) / 3)
        * mp.exp(-cst.A5)
        * mp.sqrt(3 * mp.pi / 5)
        * (
            24591681 * Y**10 / (20971520000000000 * X**27)
            - 7239 * Y**6 / (1638400000 * X**17)
            - 57 * Y**2 / (12800 * X**7)
        )
    )
    assert abs(c2 - quoted) < mpf("1e-40")


def test_criterion_06_c1_matches_quoted_closed_form():
    cst = constants()
    X, Y = cst.X, cst.Y
    c1 = c_constants(1)[1]
    quoted = (
        -2
        * X ** (mpf(4) / 3)
        * mp.exp(-cst.A5)
        * mp.sqrt(3 * mp.pi / 5)
        * (4959 * Y**5 / (102400000 * X**14) - 3 * Y / (80 * X**4))
    )
    assert abs(c1 - quoted) < mpf("1e-40"), (
        f"pipeline C1 = {mp.nstr(c1, 12)}, quoted closed form = {mp.nstr(quoted, 12)}. "
        "Integrating the quoted order-1 product polynomial (the one the companion "
        "polynomial test verifies coefficient-by-coefficient) against the Gaussian "
        "weight gives -sqrt(3 pi/5) (4959 Y^5/(102400000 X^14) + 3 Y/(80 X^4)): the "
        "middle term enters with a plus sign, so the quoted C1 is inconsistent with "
        "the quoted polynomial it integrates (see the sign-adjusted companion test)"
    )


def test_criterion_06_c1_matches_sign_adjusted_closed_form():
    # companion: same closed form with the middle-term sign that actually results
    # from integrating the quoted polynomial
    cst = constants()
    X, Y = cst.X, cst.Y
    c1 = c_constants(1)[1]
    adjusted = (
        -2
        * X ** (mpf(4) / 3)
        * mp.exp(-cst.A5)
        * mp.sqrt(3 * mp.pi / 5)
        * (4959 * Y**5 / (102400000 * X**14) + 3 * Y / (80 * X**4))
    )
    assert abs(c1 - adjusted) < mpf("1e-40")


# -- criterion 7: Laurent z^0 cross-check ---------------------------------------------


def test_criterion_07_laurent_constant_coefficient():
    cst = constants()
    z0 = laurent_main(6).coeff(0)
    tol = mpf("1e-45")
    assert abs(z0.coeff(0) + cst.Y**4 / (2560 * cst.X**10)) < tol
    assert abs(z0.coeff(1)) < tol
    assert abs(z0.coeff(2) + 5 * cst.X**2 / 3) < tol
    assert z0.effective_degree(tol) == 2


# -- criterion 8: expansion vs exact counts -------------------------------------------


@pytest.fixture(scope="module")
def comparison():
    t0 = time.perf_counter()
    table = compare_table([5000, 10000, 20000], 2)
    elapsed = time.perf_counter() - t0
    return table, elapsed


def test_criterion_08_scaled_residuals_decrease_in_L(comparison):
    table, _ = comparison
    at_20000 = {row.L: abs(row.residual_scaled) for row in table.rows if row.n == 20000}
    assert at_20000[0] > at_20000[1] > at_20000[2], (
        f"|R_L(20000)| for L=0,1,2: "
        f"{[mp.nstr(at_20000[L], 5) for L in (0, 1, 2)]}"
    )


def test_criterion_08_fitted_decay_exponent(comparison):
    table, _ = comparison
    slope = table.fitted_exponent[0]
    assert slope is not None
    assert slope <= -0.08, f"fitted |R_0| decay exponent {slope:.4f} > -0.08"


def test_criterion_08_runtime(comparison):
    _, elapsed = comparison
    assert elapsed < 180.0, f"comparison run took {elapsed:.1f}s (budget 180s)"


# -- criterion 9: Log G residual scaling ----------------------------------------------


@pytest.fixture(scope="module")
def residual_ratios():
    eta = mpf("2.25")
    ratios = []
    for k in range(7):
        z = mpf("0.2") * mpf(2) ** (-k)
        ratios.append(expansion_residual(z, eta) / z**eta)
    return ratios


def test_criterion_09_residual_scaling_window(residual_ratios):
    ratios = residual_ratios
    spread = max(ratios) / min(ratios)
    assert spread < 5, (
        f"residual(z)/|z|^2.25 across z = 0.2*2^-k, k=0..6: spread (max/min) is "
        f"{mp.nstr(spread, 5)}. The ratio decays like |nu_2| z^(1/4) (intrinsic span "
        f"64^(1/4) = 2.83 over this window) and the z = 0.2 endpoint carries a genuine "
        "contribution beyond the power series (it exceeds the complete nu-tail there "
        "by a factor ~2, decaying faster than any power), so the measured spread of a "
        "correct evaluation of this window is 5.84 (see the companion test for the "
        "bounded-about-a-constant form of the same check)"
    )


def test_criterion_09_residual_ratio_bounded_about_constant(residual_ratios):
    # companion: every ratio within a factor 5 of the window's geometric mean,
    # plus the adjacent-points check residual(0.05)/residual(0.1) ~ 2^-2.25
    ratios = residual_ratios
    log_mean = sum(mp.log(r) for r in ratios) / len(ratios)
    center = mp.exp(log_mean)
    worst = max(max(r / center, center / r) for r in ratios)
    assert worst < 5, f"worst factor from geometric mean: {mp.nstr(worst, 4)}"

    res_01 = expansion_residual(mpf("0.1"), mpf("2.25"))
    res_005 = expansion_residual(mpf("0.05"), mpf("2.25"))
    pair = (res_005 / res_01) / mpf(2) ** mpf("-2.25")
    assert mpf(1) / 3 < pair < 3, f"adjacent-z residual ratio off by {mp.nstr(pair, 4)}"


# -- criterion 10: plain partitions through the same engine ---------------------------


@lru_cache(maxsize=None)
def _partitions_brute(n: int, max_part: int) -> int:
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    total = 0
    largest = min(n, max_part)
    for first in range(largest, 0, -1):
        total += _partitions_brute(n - first, first)
    return total


def test_criterion_10_partition_values():
    got = p_exact(10)
    assert got == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert got == [_partitions_brute(n, n) for n in range(11)]


def test_criterion_10_hardy_ramanujan_ratio():
    p500 = p_exact(500)[-1]
    ratio = mpf(p500) / hr_estimate(500)
    assert mpf("0.9") < ratio < mpf("1.1"), f"p(500)/HR(500) = {mp.nstr(ratio, 6)}"
