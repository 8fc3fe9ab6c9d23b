"""Asymptotics harness: assemble the expansion, compare with exact counts.

The asymptotic formula under test is

    r(n)  ~  n^(-3/5) * (sum_{j=0}^{L} C_j n^(-j/10)) * A(n),
    A(n) := exp(A1 n^(2/5) - A2 n^(3/10) - A3 n^(1/5) - A4 n^(1/10)),

with the constants of :mod:`su3asym.saddle_expansion`.  Because A(n) grows
double-exponentially fast in log n, every huge quantity here is handled as a
logarithm; only ratios and scaled residuals are materialized as plain reals.

Provided operations:

* ``big_A``            -- log A(n).
* ``log_G_direct``     -- Log G(e^(-z)) over the dimension spectrum, with a
                          certified geometric tail bound: one fixed-point
                          product of the factors (1 - e^(-z d))^mult(d), one
                          mp.log of it, and the branch of every term's Log
                          restored from a float64 sum of their arguments.
* ``asymptotic_log_G`` -- the truncated expansion of Log G(e^(-z)):
                          2^(2/3) 3 X^(10/3)/z^(2/3) - sqrt(2) Y/z^(1/2)
                          - (1/3) Log z + (1/3) log(16 pi^3)
                          + z^(1/2) sum_{0 <= m < eta - 1/2} nu_m z^m.
* ``expansion_residual`` -- |log_G_direct - asymptotic_log_G|, the quantity
                          whose O(|z|^eta) decay is the content of the
                          expansion's error bound.
* ``compare_table``    -- rows of exact-vs-asymptotic data with the scaled
                          residuals R_L(n) = r(n) n^(3/5)/A(n)
                          - sum_{j<=L} C_j n^(-j/10) and fitted decay
                          exponents of |R_L| across the sample points;
                          r(n) is counted exactly up to EXACT_LIMIT = 50000
                          and in float64 beyond; an n beyond
                          FLOAT64_LIMIT = 234312 raises OverflowError
                          before any count.
"""

from __future__ import annotations

import math
import operator
import statistics
from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .exact_counting import EXACT_LIMIT, log_r_float64, r_exact, su3_parts
from .precision import working_digits
from .saddle_expansion import c_constants, constants, nu_coeff
from .special_functions import _to_mp

__all__ = [
    "ComparisonRow",
    "ComparisonTable",
    "big_A",
    "log_G_direct",
    "asymptotic_log_G",
    "expansion_residual",
    "compare_table",
]


@dataclass(frozen=True)
class ComparisonRow:
    """One (n, L) comparison of exact and asymptotic counts.

    ``ratio`` is r(n) / asymptotic, ``residual_scaled`` is
    R_L(n) = r(n) n^(3/5) / A(n) - sum_{j<=L} C_j n^(-j/10), and
    ``log_r_exact`` comes from the big-integer count (``source`` "exact") or,
    beyond the exact cap, from the float64 log-domain count (``source``
    "float64", good to about 15 significant digits).
    """

    n: int
    L: int
    log_r_exact: mpf
    log_r_asym: mpf
    ratio: mpf
    residual_scaled: mpf
    source: str


@dataclass(frozen=True)
class ComparisonTable:
    """All rows plus, per L, the least-squares slope of log|R_L| vs log n.

    ``fitted_exponent[L]`` is None when fewer than three sample points were
    available for the fit.
    """

    rows: tuple
    fitted_exponent: dict


def big_A(n: int):
    """log A(n) = A1 n^(2/5) - A2 n^(3/10) - A3 n^(1/5) - A4 n^(1/10)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    prec = working_digits()
    cst = constants()
    with mp.workdps(prec + 10):
        root = mpf(n) ** (mpf(1) / 10)
        out = (
            cst.A1 * root**4 - cst.A2 * root**3 - cst.A3 * root**2 - cst.A4 * root
        )
    return +out


# -- Log G(e^{-z}) directly from the dimension spectrum -----------------------------


def log_G_direct(z):
    """Log G(e^(-z)) = -sum_{d} mult(d) Log(1 - e^(-z d)) for Re(z) > 0.

    The dimension spectrum is summed up to a cutoff D, doubled from 64 until
    the remaining tail is provably below the precision target: multiplicities
    satisfy mult(d) <= 2 d^(1/3) <= d, and |Log(1 - w)| <= |w|/(1 - |w|),
    so the tail beyond D is at most x^(D+1) (D+1) / (1-x)^3 with
    x = e^(-Re z).

    Below D the sum is one product P = prod_d (1 - y_d)^mult(d) with
    y_d = e^(-z d), in W-bit fixed point: real and imaginary parts are Python
    ints scaled by 2^W, and P carries a binary exponent of its own so that it
    keeps W bits as it shrinks or grows.  y steps along the sorted parts as
    y_d' = y_d e^(-z (d' - d)), one mp.exp per distinct gap, and a single
    mp.log of P ends it.  Every Log(1 - y_d) stays on its principal branch:
    the sum of mult(d) Arg(1 - y_d), carried in float64 and off by about 1e-16
    a term, picks the multiple of 2 pi i that Log P drops.  A real z has zero
    imaginary parts throughout and returns an mpf.

    Rounding: each fixed-point step rounds by at most 2^(1-W) a component, so
    the k-th y_d is off by at most k 2^(3-W), and each factor 1 - y_d, of
    modulus at least 1 - x, by k 2^(3-W)/(1 - x) relative.  Over
    #factors = sum mult(d) multiplications Log G is off by at most
    #factors (#parts/(1 - x) + 1) 2^(3-W) absolute.  Both counts are at most
    D, and 1/(1 - x) at most D + 1 once the tail bound holds, so
    W = mp.prec + 3 bitlen(D) + 4 keeps this below 2^(-mp.prec).
    """
    z = _to_mp(z)
    if not mp.re(z) > 0:
        raise ValueError("log_G_direct requires Re(z) > 0")
    prec = working_digits()
    with mp.workdps(prec + 12):
        zz = +z
        sigma = mp.re(zz)
        target = mpf(10) ** (-(prec + 5))
        x = mp.exp(-sigma)
        one_minus_x = -mp.expm1(-sigma)
        limit = 64
        while x ** (limit + 1) * (limit + 1) / one_minus_x**3 >= target:
            limit *= 2
        W = mp.prec + 3 * limit.bit_length() + 4
        one = 1 << W
        steps = {}  # gap -> e^(-z gap) in fixed point
        yr, yi, last = one, 0, 0  # y_d at the last part d
        pr, pi, scale = one, 0, -W  # P = (pr + i pi) 2^scale, pr or pi of W bits
        arg = 0.0  # sum of mult(d) Arg(1 - y_d)
        with mp.workprec(W):
            for d, mult in su3_parts(limit):
                step = steps.get(d - last)
                if step is None:
                    e = mp.exp(-zz * (d - last))
                    step = steps[d - last] = (
                        int(mp.ldexp(mp.re(e), W)),
                        int(mp.ldexp(mp.im(e), W)),
                    )
                sr, si = step
                yr, yi = (yr * sr - yi * si) >> W, (yr * si + yi * sr) >> W
                last = d
                fr, fi = one - yr, -yi
                arg += mult * math.atan2(fi / one, fr / one)
                for _ in range(mult):
                    pr, pi = pr * fr - pi * fi, pr * fi + pi * fr
                    cut = max(abs(pr), abs(pi)).bit_length() - W
                    pr, pi, scale = pr >> cut, pi >> cut, scale + cut - W
            log_p = mp.log(mpc(pr, pi)) + scale * mp.ln2
            turns = round((arg - float(log_p.imag)) / (2 * math.pi))
            out = -log_p - mpc(0, 2 * turns) * mp.pi
        out = +out.real if isinstance(zz, mpf) else +out
    return out


# -- the truncated expansion of Log G and its residual -------------------------------


def _validate_eta(eta) -> mpf:
    eta = mpf(eta)
    if abs(eta - mpf(1) / 2 - mp.nint(eta - mpf(1) / 2)) < mpf("1e-12"):
        raise ValueError(
            f"eta = {mp.nstr(eta, 8)} is a half-integer, where the expansion's "
            "error term is not defined"
        )
    if not mpf(1) / 2 < eta < mp.inf:
        raise ValueError(f"eta = {mp.nstr(eta, 8)} must lie in (1/2, oo), off the half-integers")
    return eta


def asymptotic_log_G(z, eta):
    """The expansion of Log G(e^(-z)) truncated with all terms m < eta - 1/2:

    2^(2/3) 3 X^(10/3)/z^(2/3) - sqrt(2) Y/z^(1/2) - (1/3) Log z
    + (1/3) log(16 pi^3) + z^(1/2) sum_{0 <= m < eta-1/2} nu_m z^m.

    The series diverges; an eta whose sum runs more than 10 terms past twice
    the index of its least term raises ValueError.
    """
    z = _to_mp(z)
    eta = _validate_eta(eta)
    if not 0 < abs(z) < mp.inf:  # NaN fails both comparisons
        raise ValueError(f"z = {mp.nstr(z, 8)} must be nonzero and finite")
    if abs(mp.arg(z)) > mp.pi / 4 + mpf("1e-15"):
        raise ValueError("z must lie in the cone |Arg z| <= pi/4")
    # nu_(m+1)/nu_m ~ (3m + 3)^3 / A^3, A = (128 pi^4)^(1/3), so |nu_m z^m| is
    # least near m* = A |z|^(-1/3)/3 - 1 and grows past it: a sum past
    # 2 m* + 10 is refused before any nu_m
    with mp.workprec(53):
        least = (128 * mp.pi**4) ** (mpf(1) / 3) / (3 * mp.cbrt(abs(z))) - 1
    top = mp.floor(eta - mpf(1) / 2)
    if top > 2 * least + 10:
        raise ValueError(
            f"eta = {mp.nstr(eta, 8)} would sum nu_m z^m to m = {mp.nstr(top, 8)}, past "
            f"2 m* + 10 = {mp.nstr(2 * least + 10, 4)}: at |z| = {mp.nstr(abs(z), 4)} the "
            f"terms are least near m* = {mp.nstr(least, 4)} and grow after it"
        )
    prec = working_digits()
    cst = constants()
    with mp.workdps(prec + 10):
        zz = +z
        logz = mp.log(zz)
        out = (
            mpf(2) ** (mpf(2) / 3) * 3 * cst.X ** (mpf(10) / 3) * mp.exp(-mpf(2) / 3 * logz)
            - mp.sqrt(2) * cst.Y * mp.exp(-logz / 2)
            - logz / 3
            + mp.log(16 * mp.pi**3) / 3
        )
        tail = mpf(0)  # eta > 1/2, so the sum has the term m = 0 at least
        for m in range(int(top), -1, -1):
            tail = tail * zz + nu_coeff(m)
        out += mp.exp(logz / 2) * tail
        out = +out
    return out


def expansion_residual(z, eta):
    """|log_G_direct(z) - asymptotic_log_G(z, eta)|.

    The defining property of the expansion is that this residual is
    O(|z|^eta) as z -> 0 inside the cone |Arg z| <= pi/4.
    """
    prec = working_digits()
    with mp.workdps(prec + 10):
        asym = asymptotic_log_G(z, eta)  # checks z and eta before the direct sum
        out = abs(log_G_direct(z) - asym)
    return +out


# -- exact-vs-asymptotic comparison table --------------------------------------------


def _log_r_values(n_list):
    """(log r(n), source) for each requested n: exact big-int DP, float64 beyond."""
    exact_ns = [n for n in n_list if n <= EXACT_LIMIT]
    large_ns = [n for n in n_list if n > EXACT_LIMIT]
    out = {}
    if large_ns:  # first, so that its refusal beyond FLOAT64_LIMIT precedes any count
        logs = log_r_float64(max(large_ns))
        for n in large_ns:
            out[n] = (mpf(float(logs[n])), "float64")
    if exact_ns:
        r = r_exact(max(exact_ns))
        for n in exact_ns:
            out[n] = (mp.log(mpf(r[n])), "exact")
    return out


def compare_table(n_list, L_max: int) -> ComparisonTable:
    """Exact-vs-asymptotic rows for every n in n_list and every L <= L_max.

    Each row carries the log of the count, the log of the truncated
    expansion, their ratio, and the scaled residual R_L(n); per L, the
    least-squares slope of log|R_L| against log n over the sample points is
    fitted (None with fewer than three points).  The count is exact for
    n <= EXACT_LIMIT and float64 beyond (the row's ``source`` says which);
    an n beyond FLOAT64_LIMIT = 234312, where r(n) exceeds float64's range,
    raises OverflowError before any count or constant is computed.
    """
    n_list = sorted(set(map(operator.index, n_list)))  # TypeError for a non-integer
    if not n_list:
        raise ValueError("n_list must not be empty")
    if n_list[0] < 1:
        raise ValueError("all n must be positive integers")
    if L_max < 0:
        raise ValueError("L_max must be a nonnegative integer")
    prec = working_digits()
    log_r = _log_r_values(n_list)
    cs = c_constants(L_max)
    rows = []
    residuals = {L: [] for L in range(L_max + 1)}
    with mp.workdps(prec + 10):
        for n in n_list:
            log_r_n, source = log_r[n]
            log_a = big_A(n)
            root = mpf(n) ** (-mpf(1) / 10)
            # r(n) n^(3/5) / A(n), the quantity the C-series approximates
            scaled = mp.exp(log_r_n + mpf(3) / 5 * mp.log(n) - log_a)
            csum = mpf(0)
            for L in range(L_max + 1):
                csum += cs[L] * root**L
                r_l = scaled - csum
                log_asym = log_a - mpf(3) / 5 * mp.log(n) + mp.log(csum)
                rows.append(
                    ComparisonRow(
                        n=n,
                        L=L,
                        log_r_exact=+log_r_n,
                        log_r_asym=+log_asym,
                        ratio=+mp.exp(log_r_n - log_asym),
                        residual_scaled=+r_l,
                        source=source,
                    )
                )
                residuals[L].append((n, r_l))
    fitted = {}
    for L, pts in residuals.items():
        pts = [(n, r) for n, r in pts if r != 0]
        if len(pts) < 3:
            fitted[L] = None
            continue
        xs = [float(mp.log(n)) for n, _ in pts]
        ys = [float(mp.log(abs(r))) for _, r in pts]
        fitted[L] = statistics.linear_regression(xs, ys).slope
    return ComparisonTable(rows=tuple(rows), fitted_exponent=fitted)
