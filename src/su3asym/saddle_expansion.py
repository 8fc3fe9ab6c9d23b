"""Saddle-point expansion ingredients for the SU(3) representation counts.

Everything here feeds the asymptotic formula

    r(n)  ~  n^(-3/5) * A(n) * sum_{j >= 0} C_j n^(-j/10),
    A(n) := exp(A1 n^(2/5) - A2 n^(3/10) - A3 n^(1/5) - A4 n^(1/10)),

whose ingredients are computed symbolically to any order:

* ``constants`` -- the base constants built from Gamma- and zeta-values:

      X  = (Gamma(1/3)^2 zeta(5/3) / 9)^(3/10),
      Y  = -sqrt(pi) zeta(1/2) zeta(3/2),
      A1 = 5 X^2,             A2 = Y / X,
      A3 = 3 Y^2 / (80 X^4),  A4 = 11 Y^3 / (3200 X^7),
      A5 = Y^4 / (2560 X^10),
      C0 = (2 sqrt(3 pi) / sqrt(5)) X^(1/3) exp(-A5).

  Gamma(1/3) = 2^(7/9) 3^(-1/12) (pi K)^(1/3), K = pi / (2 AGM(1, (sqrt 6 +
  sqrt 2)/4)), is the AGM identity of Borwein & Zucker (IMA J. Numer. Anal.
  12, 1992); zeta(1/2) and zeta(3/2) are one row, and zeta(5/3) one node, of
  the package's Euler-Maclaurin zeta kernel (``witten_zeta._zeta_line``).
  All four are computed 30 digits above the working precision and rounded
  to the constants' own 15 guard digits.

* ``saddle_series`` -- the saddle-point function S(x) = 1 + sum rho(m) x^m
  solving  F(S(x); x) = 0  for  F(z; w) = -2X^2 z^(-5/3) + Y w / (2X z^(3/2))
  + 2X^2.  With S = w^6 this is the trinomial w^10 = 1 - (Y/(4X^3)) x w, so
  S = B_{1/10}(-Y x/(4X^3))^(3/5) with B_t the generalized binomial series
  (Graham, Knuth, Patashnik, Concrete Mathematics, Sec. 5.4, eq. 5.60):

      rho(k) = 6/(k+6) * binom((k+6)/10, k) * (-Y/(4X^3))^k,

  which vanishes exactly for k = 4 (mod 10).

* ``nu_coeff`` -- the coefficients of the generating-function expansion

      nu_m = sqrt(2 pi) / ((16 pi)^3 (8^5 pi^4)^m) * binom(2m, m)/(m+1)
             * (6m+6)!/(3m+3)! * zeta(m+1/2) * zeta(3m+7/2),

  both zeta values from one kernel row of two nodes, m + 1/2 and one step
  of 2m + 3 on, run 15 digits above the working precision.

* ``laurent_main`` -- the Laurent expansion in z (coefficients are
  polynomials in x) of

      z^(-4) (3X^2 B^(-2/3) - (Y z / X) B^(-1/2) + 2 X^2 B),
      B := S(z) + i x z^2,

  whose singular part is A1/z^4 - A2/z^3 - A3/z^2 - A4/z - A5 - (5X^2/3)x^2;
  the identity of the z^0 coefficient with -A5 - (5X^2/3)x^2 doubles as a
  hard consistency check of A5 and aborts loudly on mismatch.

* ``expansion_polys`` -- the three polynomial ladders P[1], P[2], P[3]
  (exponential of the nu-terms, exponential of the positive Laurent part,
  and the -1/3 power of B) and their product ladder P[4], as polynomials in
  x indexed by powers of n^(-1/10).

* ``c_constants`` -- the coefficients C_m obtained by integrating P[4]_m
  against the Gaussian exp(-5 X^2 x^2 / 3) using the closed-form even
  moments  integral x^(2k) e^(-b x^2) dx = Gamma(k + 1/2) / b^(k + 1/2).

All numbers are mpmath ``mpf``/``mpc`` values at the working precision of
:mod:`su3asym.precision`.  The module calls neither mpmath's Gamma nor its
zeta, whose caches are cold at each new precision; ``omega_residue`` and the
tests keep them as independent references.  Ladders are cached per (order,
precision) in plain dicts (one computation per process, see
:mod:`su3asym.precision`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .precision import working_digits
from .series import PowerSeries
from .witten_zeta import _zeta_line
from .xpoly import XPolynomial

__all__ = [
    "ExpansionConstants",
    "SaddleSeries",
    "LadderPolys",
    "constants",
    "saddle_series",
    "nu_coeff",
    "laurent_main",
    "expansion_polys",
    "c_constants",
]

MAX_SADDLE_ORDER = 60
MAX_LADDER_ORDER = 20
MAX_C_ORDER = 18


@dataclass(frozen=True)
class ExpansionConstants:
    """The base constants of the asymptotic expansion (see module docstring)."""

    X: mpf
    Y: mpf
    A1: mpf
    A2: mpf
    A3: mpf
    A4: mpf
    A5: mpf
    C0: mpf


@dataclass(frozen=True)
class SaddleSeries:
    """Coefficients of the saddle-point function S(x) = sum rho[m] x^m.

    ``rho[0] = 1`` and all entries are real ``mpf`` values; ``order`` is the
    largest index carried.
    """

    rho: tuple
    order: int


@dataclass(frozen=True)
class LadderPolys:
    """The four polynomial ladders up to index ``M``.

    ``p1``, ``p2``, ``p3`` and ``p4`` are tuples of length M+1 of
    :class:`XPolynomial`; index 0 holds the unit constant term of each
    ladder (the series all start 1 + ...).  Degree bounds deg(p1[m]) <= m/2,
    deg(p2[m]) <= 2m, deg(p3[m]) <= m/2 are enforced at construction.
    """

    M: int
    p1: tuple
    p2: tuple
    p3: tuple
    p4: tuple


_CONSTANTS_CACHE: dict = {}
_LADDER_CACHE: dict = {}
_NU_CACHE: dict = {}


def _gamma_third():
    """Gamma(1/3) at the working precision by the AGM identity of ``constants``."""
    K = mp.pi / (2 * mp.agm(1, (mp.sqrt(6) + mp.sqrt(2)) / 4))
    return mpf(2) ** (mpf(7) / 9) * mpf(3) ** (-mpf(1) / 12) * mp.cbrt(mp.pi * K)


def constants() -> ExpansionConstants:
    """All base constants at the current working precision.

    Gamma(1/3) comes from the arithmetic-geometric mean (Borwein & Zucker,
    IMA J. Numer. Anal. 12, 1992):

        Gamma(1/3) = 2^(7/9) 3^(-1/12) (pi K)^(1/3),
        K = pi / (2 AGM(1, (sqrt 6 + sqrt 2)/4)),

    K the complete elliptic integral at the singular value k = sin(pi/12).
    zeta(1/2) and zeta(3/2) are one row of the package's Euler-Maclaurin
    kernel (``_zeta_line(1/2, 1, 1)``) and zeta(5/3) one node of it.  The
    constants are formed 15 digits above the working precision from these
    four inputs, each computed 15 digits above that again and rounded: the
    kernel's remainder target 10^-(digits - 10) then lies 5 digits below the
    constants' last, so that the inputs' rounding is all the error they carry.
    """
    prec = working_digits()
    hit = _CONSTANTS_CACHE.get(prec)
    if hit is not None:
        return hit
    with mp.workdps(prec + 30):
        inputs = [_gamma_third(), *_zeta_line(mpf(1) / 2, 1, 1), *_zeta_line(mpf(5) / 3, 0, 0)]
    with mp.workdps(prec + 15):
        gamma_third, zeta_half, zeta_three_halves, zeta_five_thirds = (+v for v in inputs)
        third = mpf(1) / 3
        X = (gamma_third**2 * zeta_five_thirds / 9) ** (mpf(3) / 10)
        Y = -mp.sqrt(mp.pi) * zeta_half * zeta_three_halves
        A1 = 5 * X**2
        A2 = Y / X
        A3 = 3 * Y**2 / (80 * X**4)
        A4 = 11 * Y**3 / (3200 * X**7)
        A5 = Y**4 / (2560 * X**10)
        C0 = 2 * mp.sqrt(3 * mp.pi / 5) * X**third * mp.exp(-A5)
        out = ExpansionConstants(
            X=+X, Y=+Y, A1=+A1, A2=+A2, A3=+A3, A4=+A4, A5=+A5, C0=+C0
        )
    _CONSTANTS_CACHE[prec] = out
    return out


# -- saddle-point function ---------------------------------------------------------


def _check_saddle_order(order: int) -> None:
    if order < 1:
        raise ValueError("order must be a positive integer")
    if order > MAX_SADDLE_ORDER:
        raise ValueError(
            f"order {order} exceeds {MAX_SADDLE_ORDER}; the series pipeline carries "
            "guard digits in proportion to the order, so raise the working precision "
            "(set_working_digits) and lift MAX_SADDLE_ORDER deliberately"
        )


def _saddle_series_raw(order: int, X, Y) -> PowerSeries:
    """S as a PowerSeries with mpf coefficients through x^order (closed form).

    binom((k+6)/10, k) = prod_{i<k} (k+6-10i) / (10^k k!) is exact in integers,
    so rho(0) is exactly 1 and rho(k) exactly 0 for k = 4 (mod 10).
    """
    c = -Y / (4 * X**3)
    coeffs = []
    for k in range(order + 1):
        top = 6 * math.prod(k + 6 - 10 * i for i in range(k))
        coeffs.append(mpf(top) / ((k + 6) * 10**k * math.factorial(k)) * c**k)
    return PowerSeries(coeffs, 0, order + 1)


def saddle_series(order: int) -> SaddleSeries:
    """The saddle-point function S(x) = 1 + sum_{m>=1} rho(m) x^m.

    The coefficients are the closed form of the module docstring; the
    residual series F(S(x); x) vanishes to the requested order.
    """
    _check_saddle_order(order)
    prec = working_digits()
    cst = constants()
    with mp.workdps(prec + 15 + order):
        g = _saddle_series_raw(order, cst.X, cst.Y)
        rho = tuple(+c for c in g.coeffs)
    return SaddleSeries(rho=rho, order=order)


# -- nu coefficients ---------------------------------------------------------------


def nu_coeff(m: int):
    """The explicit expansion coefficient nu_m (see module docstring).

    zeta(m + 1/2) and zeta(3m + 7/2) are the two nodes of one row of the
    package's Euler-Maclaurin kernel, ``_zeta_line(m + 1/2, 2m + 3, 1)``,
    run 15 digits above the working precision: the kernel's remainder target
    10^-(digits - 10) lies 5 digits below the last of nu_m, which is rounded
    to the working precision.
    """
    if m < 0:
        raise ValueError("m must be a nonnegative integer")
    prec = working_digits()
    hit = _NU_CACHE.get((m, prec))
    if hit is not None:
        return hit
    with mp.workdps(prec + 15):
        factorial_ratio = math.factorial(6 * m + 6) // math.factorial(3 * m + 3)
        front = mp.sqrt(2 * mp.pi) / ((16 * mp.pi) ** 3 * (mpf(8) ** 5 * mp.pi**4) ** m)
        combinatorial = mpf(math.comb(2 * m, m)) / (m + 1) * factorial_ratio
        zeta_low, zeta_high = _zeta_line(m + mpf(1) / 2, 2 * m + 3, 1)
        zetas = zeta_low * zeta_high
        out = front * combinatorial * zetas
    out = +out
    _NU_CACHE[(m, prec)] = out
    return out


# -- Laurent expansion of the main term --------------------------------------------


def _poly_series_B(order: int, X, Y) -> PowerSeries:
    """B(z) = S(z) + i x z^2 as a series in z with XPolynomial coefficients."""
    g = _saddle_series_raw(order, X, Y)
    coeffs = [XPolynomial([c]) for c in g.coeffs]
    if order >= 2:
        coeffs[2] = coeffs[2] + XPolynomial([0, mpc(0, 1)])
    return PowerSeries(coeffs, 0, order + 1)


def _laurent_main_raw(order: int, X, Y) -> PowerSeries:
    B = _poly_series_B(order + 4, X, Y)
    expr = (
        B.pow_real(mpf(-2) / 3).scalar_mul(3 * X**2)
        + B.pow_real(mpf(-1) / 2).shift(1).truncate(B.order).scalar_mul(-Y / X)
        + B.scalar_mul(2 * X**2)
    )
    return expr.shift(-4).truncate(order + 1)


def _poly_dust_degree(poly: XPolynomial, prec: int) -> int:
    scale = 1 + max(abs(poly.coeff(j)) for j in range(poly.degree + 1))
    return poly.effective_degree(scale * mpf(10) ** (-(prec + 2)))


def laurent_main(order: int) -> PowerSeries:
    """Laurent series of z^(-4)(3X^2 B^(-2/3) - (Yz/X) B^(-1/2) + 2X^2 B).

    The returned series has valuation -4 and XPolynomial coefficients; its
    exponents -4..0 carry A1, -A2, -A3, -A4, -A5 - (5X^2/3)x^2, and the
    coefficient of z^l for l >= 1 is the tail polynomial at that order.  The
    z^0 coefficient is checked against A5 = Y^4/(2560 X^10) and the x^2
    coefficient -5X^2/3; any mismatch is a broken build and raises.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    prec = working_digits()
    cst = constants()
    with mp.workdps(prec + 20 + order):
        series = _laurent_main_raw(order, cst.X, cst.Y)
        tol = mpf(10) ** (-(prec + 2))
        expected = [
            ("z^-4", -4, XPolynomial([cst.A1])),
            ("z^-3", -3, XPolynomial([-cst.A2])),
            ("z^-2", -2, XPolynomial([-cst.A3])),
            ("z^-1", -1, XPolynomial([-cst.A4])),
            ("z^0", 0, XPolynomial([-cst.A5, 0, -5 * cst.X**2 / 3])),
        ]
        for label, k, want in expected:
            got = series.coeff(k)
            diff = got - want
            err = max(abs(diff.coeff(j)) for j in range(max(got.degree, want.degree) + 1))
            scale = 1 + max(abs(want.coeff(j)) for j in range(want.degree + 1))
            if err > tol * scale:
                raise RuntimeError(
                    f"Laurent coefficient at {label} deviates from its closed form "
                    f"by {mp.nstr(err, 5)}; the expansion constants and the series "
                    "expansion disagree, so the build is broken"
                )
        # degree bound: the coefficient of z^(l-4) has degree <= floor(l/2)
        for k in range(series.valuation, series.order):
            eff = _poly_dust_degree(series.coeff(k), prec)
            if eff > (k + 4) // 2:
                raise RuntimeError(
                    f"Laurent coefficient at z^{k} has degree {eff}, above the "
                    f"bound {(k + 4) // 2}; the expansion is inconsistent"
                )
    return series


# -- polynomial ladders ------------------------------------------------------------


def expansion_polys(M: int) -> LadderPolys:
    """The polynomial ladders P[1..4] up to index M (cached per precision).

    * p2[m]: coefficients of exp(sum_{l>=1} (z^l Laurent tail polynomial)),
    * p1[m]: coefficients of exp(sum_m nu_m (2X^2 B)^(m+1/2) z^(6m+3)),
      including every term with 6m+3 <= M (later terms cannot reach z^M),
    * p3[m]: coefficients of B^(-1/3),
    * p4[m]: coefficients of the product of the three series,

    with B = S(z) + i x z^2 throughout.
    """
    if M < 1:
        raise ValueError("M must be a positive integer")
    if M > MAX_LADDER_ORDER:
        raise ValueError(
            f"M {M} exceeds {MAX_LADDER_ORDER}; raise the working precision "
            "deliberately before extending the ladders"
        )
    prec = working_digits()
    key = (M, prec)
    hit = _LADDER_CACHE.get(key)
    if hit is not None:
        return hit
    cst = constants()
    X = cst.X
    order = M + 1
    with mp.workdps(prec + 20 + M):
        tail = laurent_main(M).truncate(order).drop_below(1)
        ladder2 = tail.exp().truncate(order)

        B = _poly_series_B(M, X, cst.Y)
        h_arg = PowerSeries.constant(XPolynomial([mpf(0)]), order)
        m = 0
        while 6 * m + 3 <= M:
            power = B.pow_real(m + mpf(1) / 2).truncate(order - (6 * m + 3))
            amp = nu_coeff(m) * (2 * X**2) ** (m + mpf(1) / 2)
            h_arg = h_arg + power.scalar_mul(amp).shift(6 * m + 3)
            m += 1
        ladder1 = h_arg.truncate(order).exp().truncate(order)

        ladder3 = B.pow_real(mpf(-1) / 3).truncate(order)

        ladder4 = (ladder1 * ladder2 * ladder3).truncate(order)

        bounds = ((ladder1, "p1", 1), (ladder2, "p2", 4), (ladder3, "p3", 1))
        for series, name, slope in bounds:
            for k in range(1, order):
                eff = _poly_dust_degree(series.coeff(k), prec)
                if 2 * eff > slope * k:
                    raise RuntimeError(
                        f"{name}[{k}] has degree {eff}, above the bound "
                        f"{slope * k}/2; the ladder computation is inconsistent"
                    )
        out = LadderPolys(
            M=M,
            p1=ladder1.coeffs,
            p2=ladder2.coeffs,
            p3=ladder3.coeffs,
            p4=ladder4.coeffs,
        )
    _LADDER_CACHE[key] = out
    return out


# -- the constants C_m -------------------------------------------------------------


def c_constants(L: int):
    """[C_0, ..., C_L]: Gaussian integrals of the product ladder.

    C_m = 2 X^(4/3) exp(-A5) * integral of P[4]_m(x) exp(-5X^2 x^2/3) dx,
    evaluated termwise with the closed-form even moments
    integral x^(2k) exp(-b x^2) dx = Gamma(k+1/2) / b^(k+1/2); odd moments
    vanish.  Returns real values; the imaginary dust the odd (i-carrying)
    monomials would contribute is checked to be negligible, and a build
    whose C_m carry more raises.
    """
    if L < 0:
        raise ValueError("L must be a nonnegative integer")
    if L > MAX_C_ORDER:
        raise ValueError(f"L {L} exceeds the largest supported order {MAX_C_ORDER}")
    prec = working_digits()
    cst = constants()
    ladders = expansion_polys(max(L, 1))
    with mp.workdps(prec + 15):
        b = 5 * cst.X**2 / 3
        prefactor = 2 * cst.X ** (mpf(4) / 3) * mp.exp(-cst.A5)
        # even Gaussian moments Gamma(k+1/2)/b^(k+1/2), built by recurrence
        max_deg = max(p.degree for p in ladders.p4[: L + 1])
        moments = [mp.sqrt(mp.pi / b)]
        for k in range(1, max_deg // 2 + 1):
            moments.append(moments[-1] * (k - mpf(1) / 2) / b)
        tol = mpf(10) ** (-(prec + 2))
        values = []
        for m in range(L + 1):
            poly = ladders.p4[m]
            total = mpc(0)
            for k in range(0, poly.degree + 1, 2):
                total += poly.coeff(k) * moments[k // 2]
            value = prefactor * total
            dust = abs(mp.im(value))
            if dust > tol * (1 + abs(mp.re(value))):
                raise RuntimeError(
                    f"C_{m} has an imaginary part of {mp.nstr(dust, 5)}; the even "
                    "ladder coefficients must be real, so the build is broken"
                )
            values.append(+mp.re(value))
    return values
