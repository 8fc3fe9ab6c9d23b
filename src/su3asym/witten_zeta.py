"""Witten zeta function of SU(3).

    omega(s) = sum over j, k >= 1 of 1 / (j^s * k^s * (j+k)^s)

The double series converges for Re(s) > 2/3.  The function continues to a
meromorphic function on the plane with simple poles at s = 2/3 and at
s = 1/2 - m for every integer m >= 0, and it vanishes at the negative
integers (the "trivial zeros").

Two independent evaluation routes are provided and cross-checked:

* the direct route (``method="direct"``) -- the lattice sum over the block
  j, k <= P, with the two edge strips {j <= P < k} accelerated by
  Euler-Maclaurin corrections in k.  The tail integrals reduce to
  G2(a; s, s) = integral over t in [a, oo) of t^(-s) (1+t)^(-s) dt, which
  the Euler integral (DLMF 15.6.1) and Pfaff's transformation (DLMF 15.8.1)
  make one series at every a = 1/x:

      G2(1/x; s, s) = x^(2s-1) (1+x)^(-s) F(x/(1+x)) / (2s - 1),
      F(y) = 2F1(s, 1; 2s; y) = sum_m (s)_m/(2s)_m y^m,

  whose coefficients never grow, so one fixed-point table of them serves the
  strip rows (y = j/(j+P) <= 1/2) and the corner (y = 1/2).  The corner
  {j, k > P} is the diagonal plus twice the triangle P < j < k;
  Euler-Maclaurin from k = j makes each row a finite sum of powers of j, so
  the corner is a list of Hurwitz zeta values zeta(x, P+1) (DLMF 25.11):

      corner = 2 G2(1; s, s) zeta(3s-1, P+1)
               - 2^(1-s) sum_{r=1}^{R} (B_2r/(2r)) d_(2r-1) zeta(3s+2r-1, P+1),

  d_q the Taylor coefficients of (1+u)^(-s) (1+u/2)^(-s); the double series
  is the SU(3) Witten zeta of Romik (Acta Arith. 2017).  The R + 2 Hurwitz
  values are one row of the package's zeta kernel (below).  Valid for
  Re(s) >= 1.1, where |omega(s)| <= omega(1.1) < 1.7; a point whose rows'
  first omitted Euler-Maclaurin terms reach 1, a claim that leaves no digit
  (from about 1.5 + 805i up), is refused before any table is built.

* the Mellin-Barnes continuation (``method="mb"``)

      omega(s) = Gamma(2s-1) Gamma(1-s) zeta(3s-1) / Gamma(s)
               + (1/Gamma(s)) * sum_{k=0}^{M-1} (-1)^k (Gamma(s+k)/k!)
                                 * zeta(2s+k) * zeta(s-k)
               + (1/(2 pi i Gamma(s))) * integral over Re(z) = M - 1/2 of
                                 Gamma(s+z) Gamma(-z) zeta(2s+z) zeta(s-z) dz,

  valid on the strip 3/4 - M/2 < Re(s) < M + 1/2.  The vertical-line
  integral is evaluated by the package's one trapezoid rule, _trapezoid,
  which sizes the line, sums its nodes and forms the end-node estimate from
  what mb gives it: the integrand's half-lines, its Stirling size and the
  step.  The integrand inherits the e^(-pi t) decay of the Gamma factors, so
  the rule converges geometrically in the step size.  It is corrected for
  the poles z_p of the integrand f (Trefethen and Weideman, "The
  exponentially convergent trapezoidal rule", SIAM Review 56(3), 2014,
  section 5): on the line Re(z) = c = M - 1/2, with
  T = (h/(2 pi)) sum_k f(c + i k h),

      (1/(2 pi i)) integral f dz = T - sum_{Re z_p < c} Res_p / (e^(2 pi (c - z_p)/h) - 1)
                                     + sum_{Re z_p > c} Res_p / (e^(2 pi (z_p - c)/h) - 1),

  where Res_p / Gamma(s) is a term of the finite part (F the first term,
  t_k = (-1)^k (s)_k / k! zeta(2s+k) zeta(s-k) the k-th), so the correction
  reweights it and the step need not stay small against the Gamma(-z)
  poles half a unit from the line:

      z_p:                1 - 2s    s - 1    k (Gamma(-z))    -s - k (Gamma(s+z))
      Res_p / Gamma(s):   +F        -F       -t_k             +t_k

  The finite part carries t_k for k < M + 7, so every pole within 6.5 of
  the line is corrected, and the step (_quad_step) is sized for the
  pole-free strip of half-width 0.9 x 6.5 = 5.85 this leaves, from the
  integrand's Stirling size on the real axis at the strip's right edge,
  where Gamma(s+z) grows: at 60 digits it is 0.61 up to Re s = 2.3, the
  floor 0.5 from Re s = 7.5, and 1.6 at s = 0, -1, -2, ..., whose target
  is relaxed (below); from 81 digits up it is 2 pi 5.85 / (ln 10 (D + 4))
  for the quadrature target 10^-(D+4), 0.30 at 150.

  The nodes below the real axis are those above it at conj s, reflected:
  f(c - i k h; s) = conj f(c + i k h; conj s) (Schwarz), so a real s needs
  one half-line.  Gamma(s+z) is mpmath's, node by node.  Gamma(-z) comes
  from one line Gamma(1/2 + i k h), kept per working precision and step
  (the one cached line; see _neg_z_line), and a rising product.  The finite
  part's zeta(2s+k) and zeta(s-k) are two rows of the zeta kernel, the
  second stepping left from s itself, and the first term's zeta(3s-1) is
  one node of it, so the route calls no pointwise zeta.

  The route refuses, pointing to the direct route, where its error claim
  failed against that route at 30, 60 and 150 digits: it accepts
  Re(s) <= 9, and real s up to Re(s) = 21.

Every zeta value that omega sums, and every one of the saddle constants
(:mod:`su3asym.saddle_expansion`), comes from one fixed-point Euler-Maclaurin
kernel, ``_zeta_line``.  It walks a straight path a0 + k d (vertical contour
lines, d = i h; finite-part rows, d = +-1; the corner row, d = 2; the
saddle constants' half-integer rows, zeta(1/2) and zeta(3/2) with d = 1 and
zeta(m + 1/2) and zeta(3m + 7/2) with d = 2m + 3; a single node, d = 0, such
as their zeta(5/3)) from a start index a of its partial sum
(zeta(x, a), DLMF 25.11), with power tables built from one exp(-x ln p) per
prime and stepped from node to node, and its Bernoulli coefficients from
one exact table per process.  Its depth follows Johansson's remainder bound
(Numer. Algorithms 2015), which treats Hurwitz zeta alike.  Its planner,
``_em_plan``, refuses a path whose cutoff, about 0.32 |Im|, would pass
_ZETA_CUTOFF_MAX terms; both routes price their longest path, 3 |Im s| high
(the corner row) or 2.5 |Im s| (mb's 2s + c line), before building any table.

``omega`` dispatches between the two routes, ``omega_residue`` returns the
closed-form residues, and ``verify_zeta_identity`` checks the classical
zeta-value convolution identity equivalent to the trivial zeros.

The one tunable is the contour shift ``M`` of the continuation, a keyword of
``omega``, ``omega_result`` and ``trivial_zeros``; ``None`` picks it from
Re(s).  Everything else (block size, Euler-Maclaurin depth, quadrature step
and length) is fixed or derived from the working precision.

Each route runs at the precision its error budget needs, and ``est_error``,
not the working precision, says what a value carries.  The continuation
targets an absolute error of 10^-(D+4), D = ceil(dps/3) >= 10.  Its
quadrature sum T enters omega as T / Gamma(s), so where |Gamma(s)| exceeds
both 1 and the integrand's peak Stirling size, mostly next to s = 0, -1,
-2, ..., the quadrature's own target falls by as many digits, to no less
than 4; it runs at its target + 14 digits (18 at s = 0, -1, -2, ..., over
5-6 nodes), plus the digits of the integrand's real-axis peak where they
are positive (from about Re s = 3), as its rounding is relative to a sum
that reaches 1e5-1e10 right of Re s = 9 before it cancels.  The finite
part runs at D + 24 digits plus 2 log10(|s| + 2) guard digits, so that
its rounding stays at least 8 orders below the quadrature's, and its two
zeta rows 2 digits above that, so that the
kernel's target 10^-(digits - 10) stays under the finite part's rounding
allowance.  An integer s is evaluated at s + 10^(10 - digits), two decades
under that allowance.  Where two poles cancel, at a positive integer and at
an s within 1e-8 of any integer but not on it, the finite part takes 5 more
digits than -log10 of the evaluated point's distance to the integer; at
s = 0, -1, -2, ... the poles only multiply, and it takes none.
Near an integer the arguments 2s - 1 and 1 - s of Gamma are formed exactly.
The direct route runs at
dps/2 + 28 + 2 log10(|s| + 2) digits; its block, edge strips,
correction polynomials and tail series run in fixed point with 30 guard
bits over that precision (more where the corrections grow with |s|), whose
rounding stays far inside its allowance of 10^4 units in the last place per
row; its corner row runs 10 digits above the working precision raised by its
coefficients' size, which keeps the kernel's target, so weighted, far below
the rounding allowance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, fzero, mpf_shift, to_int

from .precision import working_digits
from .special_functions import (
    _to_mp,
    bernoulli_fraction,
    gamma_complex,
    zeta_complex,
)

__all__ = [
    "OmegaResult",
    "WittenZetaPoleError",
    "omega",
    "omega_result",
    "omega_residue",
    "verify_zeta_identity",
    "trivial_zeros",
]


class WittenZetaPoleError(ZeroDivisionError):
    """Raised when s lies within the guard neighbourhood of a pole of omega."""


# Direct route: the lattice block j, k <= _DIRECT_P is summed exactly and
# everything beyond it is covered by Euler-Maclaurin tails with _DIRECT_R
# Bernoulli corrections each; it accepts Re(s) >= 11/10, which is also where
# ``method="auto"`` switches from the continuation to it.
_DIRECT_P = 128
_DIRECT_R = 12
# Direct route: fixed-point guard bits of its rows.
_DIRECT_GUARD = 30
# The most terms of a zeta row's partial sum; _em_plan refuses a row beyond it.
_ZETA_CUTOFF_MAX = 5000
# Continuation: the least number of Bernoulli corrections in the Euler-Maclaurin
# zeta line; higher precisions and lines far left take more (see _zeta_line).
_EM_DEPTH = 13
# Continuation: trapezoid step floor, and the band of Gamma(-z) poles right of the
# line that are corrected; the step is sized for the pole-free strip this leaves,
# of half-width 0.9 x (_POLE_BAND - 1/2), and keeps the floor where the strip's
# edge is loud (see _quad_step).  A fixed step of 0.7 put omega(12.3) at
# 60 digits 48 times off its claim.
_QUAD_STEP = 0.5
_POLE_BAND = 7
# Continuation: the least digit target of the quadrature once |Gamma(s)| relaxes it
# (see _mb_integral); its contour then runs at 18 digits.
_QUAD_TARGET_MIN = 4

POLE_NEIGHBORHOOD = mpf("1e-6")
_COLLISION_NEIGHBORHOOD = mpf("1e-8")


@dataclass
class OmegaResult:
    """Value of omega together with evaluation metadata.

    ``s_evaluated`` differs from ``s`` only when a removable singularity of
    the continuation formula forced an epsilon offset; ``est_error`` is the
    estimated absolute error at ``s_evaluated``.
    """

    s: object
    s_evaluated: object
    value: object
    method: str
    est_error: object


# -- pole bookkeeping -----------------------------------------------------------


def _pole_guard(s) -> None:
    """Raise WittenZetaPoleError if s is within 1e-6 of a pole of omega."""
    if abs(s - mpf(2) / 3) < POLE_NEIGHBORHOOD:
        raise WittenZetaPoleError(
            "omega has a simple pole at s = 2/3 and the requested point is "
            "within 1e-6 of it: evaluation near pole is refused"
        )
    m = int(mp.nint(mpf(1) / 2 - mp.re(s)))
    if m >= 0 and abs(s - (mpf(1) / 2 - m)) < POLE_NEIGHBORHOOD:
        raise WittenZetaPoleError(
            f"omega has a simple pole at s = 1/2 - {m} and the requested "
            "point is within 1e-6 of it: evaluation near pole is refused"
        )


# -- direct evaluation -----------------------------------------------------------


def _direct_allowed(sigma) -> bool:
    """Re(s) >= 11/10, the threshold rounded at the working precision like
    the input, so that s = mpf("1.1") qualifies at any precision."""
    return sigma >= mpf(11) / 10


def _direct_result(s0) -> OmegaResult:
    prec = working_digits()
    sigma = mp.re(s0)
    if not _direct_allowed(sigma):
        raise ValueError(
            f"Re(s) = {mp.nstr(sigma, 8)} is below the direct-summation "
            "threshold 1.1; use continuation"
        )
    guard = 10 + max(0, int(2 * math.log10(abs(complex(s0)) + 2)))
    wd = prec // 2 + 18 + guard
    with mp.workdps(wd):
        value, est = _direct_eval(+s0)
    value = +value
    # the rounding of the returned value: half an ulp
    est += abs(value) * mpf(2) ** -mp.prec
    return OmegaResult(s=s0, s_evaluated=s0, value=value, method="direct", est_error=+est)


def _direct_eval(s):
    """Worker for the direct route at the current working precision.

    Splits the lattice into the rows j <= P (the block {j, k <= P} and the
    two symmetric edge strips {j <= P < k}), each summed exactly to k = P and
    closed by an Euler-Maclaurin tail in k, and the corner {j, k > P}, whose
    rows' Euler-Maclaurin forms sum to Hurwitz zeta values.  The module
    docstring's refusals come first, at 64 bits.  The rows run in fixed point
    at W = prec + _DIRECT_GUARD bits, plus the bits of the correction
    polynomial's largest value: the table n^(-s), n <= 2P, from
    _power_tables (one exp(-s ln p) per prime); each row's block sum as
    integer dot products; its corrections, one polynomial in y = 1/(j+P), by
    Horner with integer floor division; its tail integral P base T(j/(j+P)),
    base = P^(-s) (j+P)^(-s), by Horner over the one table of _pfaff_table.

    Rounding, in units u = 2^-(prec + _DIRECT_GUARD), W >= prec +
    _DIRECT_GUARD: an entry n^(-s) is at most 1 in modulus (Re s > 0) and
    within sqrt(2) Omega(n) <= 12 u of its value, so a product of two is
    within 24 u and a block row of at most P of them within 24 P u; a
    correction is within 3 units of 2^-W and multiplies a base term's 24
    units of 2^-W by at most 2^(W - prec - _DIRECT_GUARD); base is within
    (24 P^(-sigma) + 2) u and T(j/(j+P)) under 2 and within 12 u (see
    _pfaff_table), so the tail integral, P times the rounded base T, is within
    (48 P^(1-sigma) + 5 P) u <= 700 u.  A row therefore carries about
    50 P + 1500 u, and the P rows under 2^20 u, 2^-10 units in the last place
    of the working precision: far inside the allowance tol (P + 4) =
    10^4 (P + 4) such units.  The corner is formed in floating point, each of
    its terms rounded once, and the allowance covers it as before.
    """
    P = _DIRECT_P
    R = _DIRECT_R
    if mp.im(s) == 0:
        s = mp.re(s)  # real arithmetic throughout
    tol = mpf(10) ** (-(mp.dps - 4))  # rounding allowance per summed piece
    # B_2r/(2r) = (2r - 1)! B_2r/(2r)!, r = 1..R+1, from the zeta kernel's table
    bern = enumerate(_bernoulli_over_factorial(R + 1), 1)
    *bern_over, bern_next = [None] + [_to_mp(b * math.factorial(2 * r - 1)) for r, b in bern]

    # rows j <= P of the block and the edge strips (j <-> k symmetry: the
    # diagonal plus twice k > j): each row sums j < k <= P exactly and adds
    # the Euler-Maclaurin tail of k > P.  The corrections need the odd Taylor
    # coefficients c_q of (1 + u/P)^(-s) (1 + u/(j+P))^(-s),
    #   c_q = sum_i beta_i beta_(q-i) P^(-i) (j+P)^(-(q-i)),  beta_i = binom(-s, i),
    # a polynomial in y = 1/(j+P); beta_i = (1 - s - i) beta_(i-1) / i, and
    # at_P the coefficients of (1 + u/P)^(-s).
    beta = [mpf(1)]
    for i in range(1, 2 * R + 2):
        beta.append(((1 - s) - i) * beta[-1] / i)
    at_P = [b / mpf(P) ** i for i, b in enumerate(beta)]
    # refusals priced before any table is built: the rows' first omitted
    # Euler-Maclaurin terms B_(2R+2)/(2R+2) c_(2R+1) |pj base| leave no digit
    # from 1 on, as |omega(s)| <= omega(1.1) < 1.7; they fall like
    # (P (P+1))^(-sigma), so the cutoff N of the corner's zeta row, about
    # |Im s|, is capped too (by _em_plan).  P^(2R+1) c_(2R+1) is a polynomial
    # in y whose coefficients do not fall into the rounding as R grows
    V = mp.prec + _DIRECT_GUARD
    ly = [_fix(beta[m] * beta[2 * R + 1 - m] * P**m, V) for m in range(2 * R + 2)]
    with mp.workprec(64):
        sigma = +mp.re(s)
        est = 2 * abs(bern_next) * mp.fsum(
            abs(_unfix(*_horner(ly, 1, j + P), V)) * mpf(j * P * (j + P)) ** -sigma
            for j in range(1, P + 1)
        ) / mpf(P) ** (2 * R + 1)
    if est >= 1:
        raise ValueError(
            f"the direct route's truncation estimate at s = {mp.nstr(s, 8)} is {mp.nstr(est, 3)}, "
            "while |omega(s)| <= omega(1.1) < 1.7 for Re(s) >= 1.1: the value would carry no digit"
        )
    _em_plan(3 * s - 1, 2, R + 1, P + 1)
    # sum_r B_2r/(2r) c_(2r-1) as a polynomial in y
    corr_y = [
        beta[m] * sum(
            bern_over[(i + m + 1) // 2] * at_P[i] for i in range((m + 1) % 2, 2 * R - m, 2)
        )
        for m in range(2 * R)
    ]
    # a correction multiplies the absolute rounding of its row's base term:
    # W carries the bits of the largest (y <= 1/(P+1))
    big = sum(abs(c) / mpf(P + 1) ** m for m, c in enumerate(corr_y))
    W = V + max(0, int(mp.log(big, 2)) + 1)
    ((re, im),) = _power_tables([s], 2 * P, W)
    pw = [None] + list(zip(re, im))  # pw[n] = n^(-s), scale 2^W
    fy = [_fix(c, W) for c in corr_y]
    pfaff = _pfaff_table(s, W + 4, W)  # the terms that T(1/2) takes
    # the block sums in Gauss's three products: (a + ib)(c + id) has real part
    # ac - bd and imaginary part (a + b)(c + d) - ac - bd
    sums = list(map(add, re, im))
    re, im, sums = [0] + re, [0] + im, [0] + sums
    acc_r = acc_i = 0  # scale 2^(3W)
    for j in range(1, P + 1):
        lo, hi, lo2, hi2 = j + 1, P + 1, 2 * j + 1, j + P + 1
        ac = sum(map(mul, re[lo:hi], re[lo2:hi2]))
        bd = sum(map(mul, im[lo:hi], im[lo2:hi2]))
        row_r, row_i = ac - bd, sum(map(mul, sums[lo:hi], sums[lo2:hi2])) - ac - bd
        pj = pw[j]
        base = _cmul(pw[P], pw[j + P], W)
        corr = _horner(fy, 1, j + P)
        T = _pfaff_value(pfaff, j, j + P, W)
        tb = _cmul(base, T, W)  # the tail integral is P base T(j/(j+P))
        # pj (2 row + pj pw[2j] + 2 P tb - base - 2 base corr), at 2^(3W)
        bc = _cmul(base, corr, 0)
        dg = _cmul(pj, pw[2 * j], 0)
        br = 2 * row_r + dg[0] + ((2 * P * tb[0] - base[0]) << W) - 2 * bc[0]
        bi = 2 * row_i + dg[1] + ((2 * P * tb[1] - base[1]) << W) - 2 * bc[1]
        acc_r += pj[0] * br - pj[1] * bi
        acc_i += pj[0] * bi + pj[1] * br
    acc = mp.ldexp(acc_r, -3 * W)
    if mp.im(s) != 0:
        acc = mpc(acc, mp.ldexp(acc_i, -3 * W))

    # corner j, k > P: the diagonal 2^(-s) zeta(3s, P+1) plus twice the
    # triangle P < j < k.  Row j of the triangle is Euler-Maclaurin from k = j
    # on f_j(j + u) = 2^(-s) j^(-2s) sum_q d_q (u/j)^q, d_q the coefficients of
    # (1+u)^(-s) (1+u/2)^(-s), d_q = sum_i beta_i beta_(q-i) 2^(-(q-i)) as
    # c_q above (radius j > P, as on the strips):
    #   sum_{k>j} f_j(k) = G2(1; s, s) j^(1-2s) - 2^(-s) j^(-2s) / 2
    #                      - 2^(-s) sum_r B_2r/(2r) d_(2r-1) j^(1-2s-2r),
    # so the sum over j > P is a list of Hurwitz zeta values zeta(x, P+1)
    # (DLMF 25.11), and the diagonal cancels the f_j(j)/2 terms.
    d_odd = [
        sum(beta[i] * beta[q - i] / 2 ** (q - i) for i in range(q + 1))
        for q in range(1, 2 * R + 2, 2)
    ]
    two_1ms = 2 * mp.exp(-s * mp.ln(2))  # 2^(1-s)
    t_half = _unfix(*_pfaff_value(pfaff, 1, 2, W), W)  # 2 G2(1; s, s) = 2^(1-s) T(1/2)
    coeffs = [two_1ms * (t_half if mp.im(s) else t_half.real)]
    coeffs += [-two_1ms * bern_over[r] * d_odd[r - 1] for r in range(1, R + 1)]
    coeffs.append(two_1ms * bern_next * d_odd[R])  # the first omitted term
    # the kernel's target 10^-(digits - 10) is absolute, and zeta(3s+2r-1,
    # P+1) is tiny: one row with step 2 from n = P+1, at 10 digits above the
    # working precision raised by the coefficients' size
    guard = 5 + max(0, int(mp.log10(max(abs(c) for c in coeffs))))
    with mp.workdps(mp.dps + guard + 10):
        hurwitz = _zeta_line(3 * s - 1, 2, R + 1, P + 1)
    acc += mp.fsum(c * h for c, h in zip(coeffs[:-1], hurwitz))
    est += abs(coeffs[-1] * hurwitz[-1])
    est += tol * (P + 4)
    return acc, est


def _cmul(a, b, shift):
    """The product of two fixed-point pairs, shifted right by `shift` bits."""
    (ar, ai), (br, bi) = a, b
    return (ar * br - ai * bi) >> shift, (ar * bi + ai * br) >> shift


def _horner(coeffs, num, den):
    """sum_m coeffs[m] (num/den)^m for fixed-point pairs and 0 < num/den <= 1/2,
    by Horner with floor division: each step rounds once and scales the
    earlier error by num/den, so each part is within 2 units of the exact
    sum of the given coefficients."""
    hr = hi = 0
    for cr, ci in reversed(coeffs):
        hr = hr * num // den + cr
        hi = hi * num // den + ci
    return hr, hi


def _pfaff_table(s, n, W):
    """[c_m for m < n], c_m = (s)_m / ((2s)_m (2s - 1)), as fixed-point pairs
    at scale 2^W, for Re s >= 1.1: the coefficients of

        T(y) = F(y) / (2s - 1),  F(y) = 2F1(s, 1; 2s; y) = sum_m (s)_m/(2s)_m y^m,

    the one series of every tail integral of the direct route: by
    G2(1/x; s, s) = x^(2s-1) (1+x)^(-s) T(x/(1+x)) (the module docstring),
    row j's tail integral, over k in [P, oo) of k^(-s) (j+k)^(-s), is
    P^(1-s) (j+P)^(-s) T(j/(j+P)), y <= 1/2, and the corner's G2(1; s, s) is
    2^(-s) T(1/2).  c_0 = 1/(2s-1), c_(m+1) = c_m (s+m)/(2s+m), and the ratio
    has modulus below 1 for Re s > 0 (|2s+m|^2 - |s+m|^2 = 3|s|^2 + 2m Re s),
    so |c_m| <= 1/|2s-1| < 1 and the series after n terms is below
    2 y^n / |2s - 1| < 2 y^n for y <= 1/2: ceil((W+4)/log2(1/y)) terms put
    T(y) within 2^-(W+3).

    Rounding, in units of 2^-W: each step forms c_m (s+m) exactly and divides
    by 2s + m with one floor per part, within sqrt(2), and the later ratios,
    of modulus below 1, carry that error forward without growth, so c_m is
    within sqrt(2) (m+1) units and T(y) within sqrt(2)/(1-y)^2 <= 5.7.  Horner
    adds 2 per part (see _horner), the truncation 1/8, and s rounded to 2^-W
    (only its imaginary part, as Re s >= 1 has no bits below 2^-prec) under
    1.6, as |dc_m/ds| <= |c_m| (2/|2s-1| + m/(4 Re s)): at y <= 1/2 the value
    is within 12 units of T(y)."""
    sr, si = _fix(s, W)
    one = 1 << W
    nr, ni = one << W, 0  # the numerator 1, then c_m (s + m), scale 2^(2W)
    dr, di = 2 * sr - one, 2 * si  # 2s - 1, then 2s + m, scale 2^W
    out = []
    for m in range(n):
        den = dr * dr + di * di
        cr, ci = (nr * dr + ni * di) // den, (ni * dr - nr * di) // den
        out.append((cr, ci))
        ur = sr + m * one  # s + m
        nr, ni = cr * ur - ci * si, cr * si + ci * ur
        dr += one
    return out


def _pfaff_value(table, num, den, W):
    """T(num/den), 0 < num/den <= 1/2, by Horner over the first
    ceil((W+4)/log2(den/num)) terms of a table of _pfaff_table at scale 2^W,
    the fewest that put it within 2^-(W+3) of the whole series."""
    return _horner(table[: math.ceil((W + 4) / math.log2(den / num))], num, den)


# -- the zeta kernel along straight paths ------------------------------------------
#
# omega needs zeta at many points of a few straight paths a0 + k d: the
# trapezoid quadrature at hundreds of nodes of vertical lines (d = i h), the
# finite part at 2s + k and s - k (rows, d = +1 and -1) and at 3s - 1 (one
# node, d = 0), and the direct route's corner at the Hurwitz values
# zeta(3s + 2r - 1, P + 1) (a row with d = 2 whose partial sum starts at
# n = P + 1).  The saddle constants take theirs from the same paths:
# half-integer rows of two nodes, zeta(1/2) and zeta(3/2) (d = 1) and
# zeta(m + 1/2) and zeta(3m + 7/2) of nu_m (d = 2m + 3), and zeta(5/3) as
# one node.
# zeta is the package's own Euler-Maclaurin kernel, one path for every line
# and row at any Re(a0), restructured in three ways that make a thousand-node
# contour affordable at 30+ digits:
#
# * the tables n^(-a0) and n^(-d) are built by complete multiplicativity: one
#   exp(-x ln p) per prime p <= N, one fixed-point product per composite, an
#   integer step's table too;
# * the n^(-k d) factors of the partial sum advance multiplicatively from node
#   to node instead of being re-exponentiated;
# * the per-node work -- the power table and its partial sum and the
#   Euler-Maclaurin corrections -- runs in fixed point: x + iy is the pair of
#   Python integers (x 2^W, y 2^W), with W = wp + _FIX_GUARD and a bit more
#   per doubling of a line past 256 nodes.  Products are integer
#   multiply-and-shift.
#
# Fixed-point values carry an absolute error of a few units of 2^-W per
# operation, and a stepped table adds its step's rounding at every node; the
# guard bits absorb the drift of 255 stepped nodes, and a longer line takes
# one more bit per doubling of its length.  Left of Re(x) = 1 the partial
# sum reaches N^(1 - Re x) and cancels down to zeta, and a path stepping left
# from Re(a0) > 1 multiplies the table n^(-a0), whose entries lie far below 1,
# by up to N^(Re a0 - Re x), and with it their absolute rounding; so wp is the
# working precision plus ceil((max(1, Re a0) - sigma) log2 N) guard bits,
# sigma the path's least real part.  Within 1 of the pole the term N/(x - 1)
# is formed in floating point from x - 1 = a0 + (k d - 1), which keeps a node
# such as 2s + 1 at s = 10^-32 exact to its relative precision, where the pole
# would amplify a fixed-point node's absolute rounding.

_FIX_GUARD = 20
# B_2r/(2r)! for r = 1, 2, ..., exact, grown on demand by _bernoulli_over_factorial
_BERNOULLI = []


def _fix(x, W):
    """The fixed-point pair (Re x 2^W, Im x 2^W) of an mpf or mpc, each part
    rounded to the nearest integer, exactly at any working precision."""

    def nearest(v):
        t = to_int(mpf_shift(v, W + 1))  # 2 v 2^W truncated toward zero, exactly
        return (t + 1) >> 1 if t >= 0 else -((1 - t) >> 1)

    re, im = x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero)
    return nearest(re), nearest(im)


def _unfix(re, im, W):
    """The mpc re 2^-W + i im 2^-W at the working precision."""
    prec, rnd = mp._prec_rounding
    return mp.make_mpc((from_man_exp(re, -W, prec, rnd), from_man_exp(im, -W, prec, rnd)))


def _power_tables(xs, N, W):
    """For each x of xs the fixed-point table [n^(-x) for n = 1..N] as two
    lists (real parts, imaginary parts), entry n - 1 for n.

    Every x, an integer step of the kernel's rows included, goes by complete
    multiplicativity: n^(-x) = exp(-x ln n) at a prime n, evaluated to
    relative 2^-(W+8) and rounded, and p^(-x) (n/p)^(-x), rounded, at a
    composite n with least prime factor p.  Each rounding moves an entry by
    at most 2^-1/2 units of 2^-W, and a product adds its factors' errors
    (relative to max(1, |n^(-x)|), since |p^(-x)| is <= 1 for every p or
    >= 1 for every p), so an entry is within sqrt(2) Omega(n) units of
    2^-W max(1, |n^(-x)|) of n^(-x), Omega(n) the number of prime factors of
    n with multiplicity.  A real x, an mpc with imaginary part 0 included,
    gives imaginary parts exactly 0."""
    spf = list(range(N + 1))  # least prime factor
    for p in range(2, math.isqrt(N) + 1):
        if spf[p] == p:
            for m in range(p * p, N + 1, p):
                if spf[m] == m:
                    spf[m] = p
    # the exponent -x ln n carries |x| ln N in front of its rounding
    cond = int(max(abs(x) for x in xs) * math.log(N)) + 1
    half = 1 << (W - 1)
    tables = [([1 << W], [0]) for _ in xs]
    with mp.workprec(W + 8 + cond.bit_length()):
        for n in range(2, N + 1):
            p = spf[n]
            if p == n:
                ln_n = mp.ln(n)
                for (re, im), x in zip(tables, xs):
                    r, i = _fix(mp.exp(-x * ln_n), W)
                    re.append(r)
                    im.append(i)
            else:
                for re, im in tables:
                    a, b, c, e = re[p - 1], im[p - 1], re[n // p - 1], im[n // p - 1]
                    re.append((a * c - b * e + half) >> W)
                    im.append((a * e + b * c + half) >> W)
    return tables


def _bernoulli_over_factorial(depth):
    """[B_2r/(2r)! for r = 1..depth] as Fractions, from the one table that
    every zeta line of the process shares."""
    for r in range(len(_BERNOULLI) + 1, depth + 1):
        _BERNOULLI.append(bernoulli_fraction(2 * r) / math.factorial(2 * r))
    return _BERNOULLI[:depth]


def _em_plan(a0, d, K, a=1):
    """Cutoff N, Euler-Maclaurin depth D and least real part sigma of the
    path a0 + k d, k = 0..K, starting the partial sum at n = a.

    N = max(a, 1.35 dps + 12 + 0.32 |Im|), and D the smallest from
    max(_EM_DEPTH, floor((1 - sigma)/2) + 1) on (so that sigma + 2D - 1 > 0)
    whose remainder bound (Johansson 2015)
    4 |(s)_2D| (2 pi N)^(-2D) N^(1-sigma) / (sigma + 2D - 1), at the path's
    largest |s| and least Re s, is at most 10^-(dps - 10).  Once D reaches N
    the cutoff grows by a quarter instead, so the bound is always met.  Up to
    about 60 digits D = _EM_DEPTH on lines right of Re(a0) = -1; the bound's
    N^(1-sigma) raises it further left.  A path whose N would pass
    _ZETA_CUTOFF_MAX raises ValueError, which names the path's largest |Im|."""
    end = a0 + K * d
    sigma = float(min(mp.re(a0), mp.re(end)))
    t_extreme = float(max(abs(mp.im(a0)), abs(mp.im(end))))
    s_abs = float(max(abs(a0), abs(end)))  # |(s)_2D| <= prod_{i<2D} (|s| + i)
    N = max(a, int(1.35 * mp.dps) + 12 + int(0.32 * t_extreme))
    depth = max(_EM_DEPTH, math.floor((1 - sigma) / 2) + 1)
    target = -(mp.dps - 10) * math.log(10)
    log_poch = math.fsum(math.log(s_abs + i) for i in range(2 * depth))
    while (
        math.log(4) + log_poch - 2 * depth * math.log(2 * math.pi * N)
        + (1 - sigma) * math.log(N) - math.log(sigma + 2 * depth - 1)
    ) > target:
        if depth < N:
            log_poch += math.log(s_abs + 2 * depth) + math.log(s_abs + 2 * depth + 1)
            depth += 1
        else:
            N += N // 4
    if N > _ZETA_CUTOFF_MAX:
        raise ValueError(
            f"the zeta row from {mp.nstr(a0, 8)} in steps of {mp.nstr(d, 8)} would need a "
            f"cutoff of {N} terms, more than {_ZETA_CUTOFF_MAX} (its largest |Im| is "
            f"{t_extreme:.6g})"
        )
    return N, depth, sigma


def _gamma_line(a0, h, K):
    """[Gamma(a0 + i k h) for k = 0..K]; the line must carry no pole of Gamma."""
    step = mpc(0, h)
    return [mp.gamma(a0 + k * step) for k in range(K + 1)]


# Gamma(1/2 + i k h), k = 0..K, for one key (working precision in bits, h)
_HALF_GAMMA = {}


def _neg_z_line(M, h, K):
    """[Gamma(1/2 - M - i k h) for k = 0..K], the factor Gamma(-z) on the
    contour z = M - 1/2 + i k h, from the line Gamma(1/2 + i k h):

        Gamma(1/2 - M - i t) = (-1)^M conj Gamma(1/2 + i t) / (1/2 + i t)_M,

    the reflection formula (DLMF 5.5.3) at 1/2 + M + i t, where
    sin(pi (1/2 + M + i t)) = (-1)^M cosh(pi t), with
    Gamma(1/2 + M + i t) = (1/2 + i t)_M Gamma(1/2 + i t) and
    |Gamma(1/2 + i t)|^2 = pi / cosh(pi t).  That line depends on neither s
    nor M, so one line per (working precision, h) serves every evaluation:
    it is kept in _HALF_GAMMA, extended node by node when a longer K is
    asked for and replaced when the key changes, so the cache holds one
    entry.  Its node k is the same mp.gamma call whenever it is made, so a
    value does not depend on the call history.  The rising product runs in
    fixed point at 2^-W, W = prec + _FIX_GUARD: its partial products have
    modulus >= 1/2, so its M truncated steps stay within relative M 2^(2-W)
    of it."""
    key = (mp.prec, h)
    if key not in _HALF_GAMMA:
        _HALF_GAMMA.clear()
        _HALF_GAMMA[key] = []
    line = _HALF_GAMMA[key]
    half = mpf(1) / 2
    line.extend(mp.gamma(mpc(half, k * h)) for k in range(len(line), K + 1))
    W = mp.prec + _FIX_GUARD
    step, _ = _fix(h, W)
    sign = -1 if M % 2 else 1
    out = []
    for k in range(K + 1):
        t = k * step
        pr, pi = 1 << W, 0  # (1/2 + i k h)_M
        for j in range(M):
            a = (2 * j + 1) << (W - 1)
            pr, pi = (pr * a - pi * t) >> W, (pr * t + pi * a) >> W
        out.append(sign * mp.conj(line[k]) / _unfix(pr, pi, W))
    return out


def _zeta_line(a0, d, K, a=1):
    """[zeta(a0 + k d, a) for k = 0..K], zeta(x, a) = sum_{n>=a} n^(-x) the
    Hurwitz zeta function at a positive integer a (DLMF 25.11; a = 1 is
    Riemann's), by Euler-Maclaurin with stepped power tables, at any Re(a0):

    zeta(x, a) = sum_{a<=n<N} n^(-x)
                 + N^(-x) (N/(x-1) + 1/2 + sum_{r=1}^{D} B_2r/(2r)! R_r(x)),

    R_r(x) = (x)_(2r-1) / N^(2r-1), all in fixed point but N/(x-1).  R_(r+1)
    is R_r times (x+2r-1)(x+2r)/N^2, which keeps it of moderate size where
    (x)_(2r-1) and B_2r/(2r)! alone would leave the fixed-point range.  N and
    D come from _em_plan, which makes the remainder at most 10^-(dps - 10) at
    every node.  The terms reach N^(1-sigma), and a row stepping left from
    Re a0 > 1 grows its first table's absolute rounding by up to
    N^(Re a0 - sigma), so the kernel works with
    ceil((max(1, Re a0) - sigma) log2 N) bits over the working precision.  The
    tables n^(-a0) and n^(-d) for n <= N come from _power_tables, and the
    first is advanced by the second at every node; the fixed-point guard
    grows by max(0, bit_length(K) - 8) bits, so that the drift of a line of
    any length stays within what 255 stepped nodes carry at _FIX_GUARD.  A
    path on the real axis gives mpf values, any other mpc.
    """
    a0, d = _to_mp(a0), _to_mp(d)
    N, depth, sigma = _em_plan(a0, d, K, a)
    wp = mp.prec + max(0, math.ceil((max(1.0, float(mp.re(a0))) - sigma) * math.log2(N)))
    W = wp + _FIX_GUARD + max(0, K.bit_length() - 8)
    one = 1 << W

    # a single node is never stepped: it takes no step table, and sre, sim go unread
    tables = _power_tables([a0, d] if K else [a0], N, W)
    tre, tim = (t[a - 1 :] for t in tables[0])
    sre, sim = (t[a - 1 :] for t in tables[-1])
    # B_2r/(2r)! at scale 2^(2W): tiny coefficients meet R_r up to ~(|s|/N)^(2r-1)
    coef = [(b.numerator << 2 * W) // b.denominator for b in _bernoulli_over_factorial(depth)]
    nn_scale = (N * N) << W
    ar, ai = _fix(a0, W)
    step_r, step_i = _fix(d, W)
    out = []
    for k in range(K + 1):
        xr, xi = ar + k * step_r, ai + k * step_i  # x = a0 + k d
        # N/(x - 1) + 1/2; within 1 of the pole x - 1 = a0 + (k d - 1) in
        # floating point, exact to its relative precision
        dr = xr - one
        if abs(dr) < one and abs(xi) < one:
            with mp.workprec(wp):
                cr, ci = _fix(N / (a0 + (k * d - 1)), W)
        else:
            den = dr * dr + xi * xi
            cr, ci = ((N * dr) << 2 * W) // den, ((-N * xi) << 2 * W) // den
        cr += one >> 1
        rr, ri = xr // N, xi // N  # R_1 = x/N
        for r in range(depth):
            cr += (coef[r] * rr) >> 2 * W
            ci += (coef[r] * ri) >> 2 * W
            if r + 1 < depth:
                u = xr + (2 * r + 1) * one
                v = u + one
                qr, qi = (u * v - xi * xi) >> W, (xi * (u + v)) >> W
                rr, ri = (rr * qr - ri * qi) // nn_scale, (rr * qi + ri * qr) // nn_scale
        pr, pi = tre[-1], tim[-1]  # N^(-x)
        vr = sum(tre) - pr + ((pr * cr - pi * ci) >> W)
        vi = sum(tim) - pi + ((pr * ci + pi * cr) >> W)
        out.append(_unfix(vr, vi, W))
        if k < K:
            tre, tim = (
                [(tr * sr - ti * si) >> W for tr, ti, sr, si in zip(tre, tim, sre, sim)],
                [(tr * si + ti * sr) >> W for tr, ti, sr, si in zip(tre, tim, sre, sim)],
            )
    if mp.im(a0) == 0 and mp.im(d) == 0:
        return [v.real for v in out]
    return out


# -- Mellin-Barnes continuation ---------------------------------------------------


def _auto_M(re_s: float) -> int:
    """Contour shift: the strip bound plus two for headroom.  The contour
    Re(z) = M - 1/2 then passes the pole of zeta(s-z) (at z = s-1) by
    M + 1/2 - Re s > 1/2, as M > Re s, and the pole of zeta(2s+z) (at
    z = 1-2s) by M - 3/2 + 2 Re s >= 2, as M >= 3/2 - 2 Re s + 2."""
    return max(math.ceil(2 * (0.75 - re_s)) + 2, math.floor(re_s) + 1)


def _pole_weight(z, c, h):
    """Trapezoid error per unit residue of a simple pole at z off the line
    Re(z) = c, for step h and the integral (1/(2 pi i)) integral dz."""
    if mp.re(z) < c:
        return 1 / mp.expm1(2 * mp.pi * (c - z) / h)
    return -1 / mp.expm1(2 * mp.pi * (z - c) / h)


def _trapezoid(lines, log_size, h, digit_target):
    """(T, est): the trapezoid sum T = (h/(2 pi)) sum_k f(c + i k h) over all
    integers k, and the error estimate of the integral
    T - sum_p Res_p * _pole_weight(z_p, c, h), whose pole terms the caller
    forms (Trefethen and Weideman 2014, section 5).  The caller supplies:

    * lines(K): the upper half-line [f(c + i k h) for k = 0..K] and the
      conjugated lower one [conj f(c - i k h) for k = 0..K], the same list
      twice for a real integrand (f(conj z) = conj f(z)), whose T is real;
    * log_size(t): a float estimate of ln |f(c + i t)| on the half that
      decays slower, which falls like e^(-pi t), as every Gamma product does
      on a vertical line;
    * the step h, an mpf, and the digit target D of the quadrature.

    Six steps t += (log_size(t) - ln pi + (D + 6) ln 10)/pi from t = 12 put
    |f(end)|/pi near 10^-(D+6), a decade under the target 10^-(D+5), and
    K = int(t/h) + 1.  est sums max |f(end)|/pi, the target 10^-(D+4) and
    the rounding (K + 1) 10^-(dps-2).  At the working precision."""
    t_max = 12.0
    for _ in range(6):
        t_max += (log_size(t_max) - math.log(math.pi) + math.log(10) * (digit_target + 6)) / math.pi
    K = int(t_max / float(h)) + 1
    upper, lower = lines(K)
    total = upper[0] + (sum(upper[:0:-1]) + mp.conj(sum(lower[:0:-1])))
    if upper is lower:
        total = mp.re(total)
    value = h * total / (2 * mp.pi)
    est = max(abs(upper[K]), abs(lower[K])) / math.pi + mpf(10) ** (-(digit_target + 4))
    return value, est + (K + 1) * mpf(10) ** (-(mp.dps - 2))


def _quad_step(digit_target, growth):
    """The continuation's trapezoid step for the quadrature target
    10^-(D+4), D = digit_target, on a pole-free strip of half-width
    a = 0.9 (_POLE_BAND - 1/2) about the line (Trefethen and Weideman 2014,
    section 5: the error is about the integrand's size on the strip's edge
    times e^(-2 pi a/h)).  growth(a) is ln of the integrand's size on the
    real axis at the strip's right edge, where Gamma(s+z) grows, without the
    height factor that the edge shares with the line; the step is
    2 pi a/((D + 6) ln 10 + max(0, growth)), held between _QUAD_STEP, kept
    where the edge is loud, and the edge-blind 2 pi a/((D + 4) ln 10)."""
    a = 0.9 * (_POLE_BAND - 0.5)
    h1 = 2 * math.pi * a / (math.log(10) * (digit_target + 4))
    h_edge = 2 * math.pi * a / (math.log(10) * (digit_target + 6) + max(0.0, growth(a)))
    return min(h1, max(_QUAD_STEP, h_edge))


def _mb_integral(s, M: int, digit_target: int, log10_gamma: float):
    """The continuation's integral on the line z = c + i t, c = M - 1/2, by
    _trapezoid: (T, est, h) for f(z) = Gamma(s+z) Gamma(-z) zeta(2s+z)
    zeta(s-z), whose poles the caller corrects, as Res_p / Gamma(s) is +F at
    z_p = 1 - 2s, -F at s - 1, -t_k at k and +t_k at -s - k (its finite-part
    terms).  What is mb's own: the strip check on M, the step h, the
    integrand's Stirling size and its lines, whose longest zeta cutoff is
    priced before any of them is built.

    T enters omega as T / Gamma(s), log10_gamma being log10 |Gamma(s)|, so
    the quadrature's digit target D falls from digit_target by
    r = floor(log10_gamma - max(0, peak)) where that is positive, to no less
    than _QUAD_TARGET_MIN; peak is log10 of the integrand's Stirling size at
    its largest.  Divided by |Gamma(s)|, the claim 10^-(D+4) stays at most
    10^-(digit_target+4).  Where T is large peak keeps r at 0: right of
    Re s = 9, T / Gamma(s) reaches 1e5-1e10 and cancels against the finite
    part.  So r > 0 where |Gamma(s)| exceeds both 1 and 10^peak: by about
    digit_target + 14 digits at s = -n + eps, where |Gamma(s)| is about
    1/(n! eps), by a few elsewhere left of 1/2 (r = 2 at -3.001, where
    |Gamma(s)| is 166 and peak -4.3).

    The quadrature runs at D + 14 digits plus the digits of its real-axis
    peak, max(0, floor(peak - pi |Im s| / (2 ln 10))), s rounded to them:
    T's rounding is relative to its size, and this keeps it near 10^-(D+14)
    in absolute terms (at D + 14 alone omega(12) at 30 digits was 62 times
    its claim off the direct route).  The step comes from _quad_step, with
    the integrand's size at the strip's right edge, log_size taking the
    abscissa as a parameter."""
    c = M - mpf(1) / 2
    re_s = float(mp.re(s))
    im_s = float(mp.im(s))
    # zeta poles at Re(z) = Re(s) - 1 and 1 - 2 Re(s) (the strip); Gamma poles >= 1/2 off
    if min(M + 0.5 - re_s, M - 1.5 + 2 * re_s) <= 0.05:
        raise ValueError(
            f"continuation shift M = {M} does not satisfy "
            f"3/4 - M/2 < Re(s) = {re_s} < M + 1/2 with 0.05 to spare: "
            "the contour Re(z) = M - 1/2 must pass that far from the poles of "
            "zeta(2s+z) and zeta(s-z); increase M"
        )
    # contour length, from the half whose |Im| shrinks, which decays slower.  With
    # Gamma(-z) = pi / (sin(pi z) Gamma(1+z)), zeta's functional equation for zeta(s-z)
    # and zeta(2s+z) ~ zeta(1-s+z) ~ 1, at a = Re s, x = M - 1/2, Stirling (DLMF 5.11.1)
    # sizes |f(x + i t)| ~ (2 pi)^(a-x) e^(pi (|Im s| - t)/2) |Gamma(a+x+it)
    # Gamma(1-a+x+it) / Gamma(1+x+it)|, also at t ~ M, far left; for t >> M that is
    # 2 pi (2 pi)^(a-M) t^(M-1) e^(-pi t + pi |Im s|/2)
    x = M - 0.5

    def log_size(t, x=x):
        return math.fsum(
            sign * ((u - 0.5) * math.log(math.hypot(u, t)) - t * math.atan2(t, u) - u)
            for sign, u in ((1, re_s + x), (1, 1 - re_s + x), (-1, 1 + x))
        ) + (re_s - x + 0.5) * math.log(2 * math.pi) + math.pi * (abs(im_s) - t) / 2

    # the peak is at t = 0: on the strip a + x and 1 - a + x are positive, so
    # log_size's slope is at most -pi/2 + 1/(4 (1 + x)) < 0
    peak = log_size(0.0) / math.log(10)
    relax = max(0, math.floor(log10_gamma - max(0.0, peak)))
    digit_target = max(_QUAD_TARGET_MIN, digit_target - relax)
    # the real-axis growth at abscissa x + a; the height factor e^(pi |Im s|/2)
    # is common to every abscissa
    lift = math.pi * abs(im_s) / 2
    h = mpf(_quad_step(digit_target, lambda a: log_size(0.0, x + a) - lift))
    # T's rounding is relative: the digits of its real-axis peak come on top
    quad_dps = digit_target + 14 + max(0, math.floor(peak - lift / math.log(10)))
    with mp.workdps(quad_dps):
        s = +s
        halves = [s] if mp.im(s) == 0 else [s, mp.conj(s)]  # exactly: a tiny Im s is not real
        s_up = s if im_s >= 0 else mp.conj(s)

        def lines(K):
            # the longest zeta cutoff is that of the 2s + c line of the half whose
            # |Im| grows, to about 2.5 |Im s|; priced before any line is built
            _em_plan(2 * s_up + c, mpc(0, h), K)
            neg_z = _neg_z_line(M, h, K)  # Gamma(-z) on the line
            # the upper half at s; the lower at conj s, by Schwarz reflection:
            # f(c - i k h; s) = conj f(c + i k h; conj s)
            out = []
            for a in halves:
                gamma = _gamma_line(a + c, h, K)
                zeta_a = _zeta_line(2 * a + c, mpc(0, h), K)
                zeta_b = _zeta_line(a - c, mpc(0, -h), K)
                out.append([g * n * za * zb for g, n, za, zb in zip(gamma, neg_z, zeta_a, zeta_b)])
            return out[0], out[-1]

        return (*_trapezoid(lines, log_size, h, digit_target), h)


def _mb_allowed(s) -> bool:
    """Whether s lies where the continuation's error claim held against the
    direct route at 30, 60 and 150 digits: Re(s) <= 9 anywhere, and real s
    up to Re(s) = 21 (at most 0.41 of the claim off).  Off the real axis the
    claim fails from Re(s) = 10 on, at 16.3 + 40i by 5e4 times at 60
    digits; on it, at 30.3."""
    sigma = mp.re(s)
    return sigma <= 9 or (mp.im(s) == 0 and sigma <= 21)


def _continued_result(s0, M: int | None) -> OmegaResult:
    if not _mb_allowed(s0):
        raise ValueError(
            f"s = {mp.nstr(s0, 8)} is outside the continuation's domain (Re(s) <= 9, "
            "or real s with Re(s) <= 21), where its error claim fails; use method=\"direct\""
        )
    prec = working_digits()
    re_s = float(mp.re(s0))
    if M is None:
        M = _auto_M(re_s)
    digit_target = -(-prec // 3)
    # the finite part carries 24 digits past the quadrature's target, so its
    # rounding, (1 + big) 10^-(finite_dps - 12) below, stays >= 8 orders under
    # the quadrature's 10^-(digit_target + 4)
    guard = max(0, int(2 * math.log10(abs(complex(s0)) + 2)))
    finite_dps = digit_target + 24 + guard
    # removable singularities: every integer s collides with a pole of some
    # factor of the formula (Gamma(1-s) and zeta(s-k) at positive integers;
    # Gamma(2s-1), zeta(2s+k) and the rising-factorial zeros at the rest), so
    # an integer s is evaluated at s + eps, eps = 10^(10 - finite_dps): two
    # decades under the rounding allowance, and held by finite_dps digits.
    # Where two poles cancel, the parts reach 1/offset and the finite part
    # takes -log10(offset) + 5 more digits: at a positive integer, Gamma(1-s)
    # against zeta(s-k) at k = s - 1 (1.6e34 at s = 1, 60 digits), the offset
    # is eps; an input within _COLLISION_NEIGHBORHOOD of any integer keeps its
    # own bits, which 2s + k next to zeta's pole would round away (holding s
    # alone left -2 + 1e-30 at 60 digits 5.9e-21 off against a claim of
    # 1e-33), and its offset is its distance.  At s = 0, -1, -2, ... the poles
    # only multiply (Gamma(2s-1)/Gamma(s) is a ratio of two, and
    # (s)_k zeta(2s+k) at k = 1 - 2s is eps/(2 eps)), and nothing is added
    nearest = int(mp.nint(mp.re(s0)))
    dist = abs(s0 - nearest)
    eps = mpf(10) ** (10 - finite_dps) if dist == 0 else 0
    if 0 < dist < _COLLISION_NEIGHBORHOOD or (eps and nearest > 0):
        finite_dps += int(-mp.log10(eps or dist)) + 5
    with mp.workdps(finite_dps):
        s_ev = s0 + eps if eps else s0  # the input's bits, even below its precision
        # before any line is built: |Gamma(s)| sizes the quadrature
        gamma_s = gamma_complex(s_ev)
        log10_gamma = float(mp.log10(abs(gamma_s)))
        trapezoid, integral_est, h = _mb_integral(s_ev, M, digit_target, log10_gamma)
        # each term takes on its poles' weights; only z = k >= M lie right of c
        c = M - mpf(1) / 2
        # zeta(2s + k) and zeta(s - k), k < M + _POLE_BAND: one row each, the
        # second stepping left from s itself; zeta(3s - 1) a single node
        n_terms = M + _POLE_BAND
        with mp.workdps(finite_dps + 2):
            zeta_a = _zeta_line(2 * s_ev, 1, n_terms - 1)
            zeta_b = _zeta_line(s_ev, -1, n_terms - 1)
            (zeta_3s,) = _zeta_line(3 * s_ev - 1, 0, 0)
        # 2s - 1 and 1 - s exactly: near an integer s they lie within |s - n|
        # of a pole of Gamma, which would amplify their rounding
        first = (
            gamma_complex(mp.fsub(2 * s_ev, 1, exact=True))
            * gamma_complex(mp.fsub(1, s_ev, exact=True))
            * zeta_3s
            / gamma_s
        ) * (1 - _pole_weight(1 - 2 * s_ev, c, h) + _pole_weight(s_ev - 1, c, h))
        finite_sum = mpf(0)
        coeff = mpf(1)  # (-1)^k (s)_k / k!
        for k in range(n_terms):
            term = coeff * zeta_a[k] * zeta_b[k]
            finite_sum += term * ((k < M) + _pole_weight(k, c, h) - _pole_weight(-s_ev - k, c, h))
            coeff = coeff * (s_ev + k) / (-(k + 1))
        value = first + finite_sum + trapezoid / gamma_s
        # pre-cancellation magnitudes bound the rounding loss
        big = abs(first) + abs(finite_sum) + abs(trapezoid / gamma_s)
        est = (
            integral_est / abs(gamma_s)
            + (1 + big) * mpf(10) ** (-(finite_dps - 12))
        )
    value = +value
    # the rounding of the returned value: half an ulp
    est += abs(value) * mpf(2) ** -mp.prec
    return OmegaResult(s=s0, s_evaluated=s_ev, value=value, method="mb", est_error=+est)


# -- dispatcher and friends -------------------------------------------------------


def omega(s, method: str = "auto", *, M: int | None = None):
    """omega(s) by the method of choice ("auto", "direct", or "mb").

    ``M`` is the contour shift of the continuation, which must satisfy
    3/4 - M/2 < Re(s) < M + 1/2; None picks it from Re(s).  The direct
    route has no shift and ignores it.
    """
    return omega_result(s, method, M=M).value


def omega_result(s, method: str = "auto", *, M: int | None = None) -> OmegaResult:
    """Like omega() but returns the OmegaResult with metadata.

    s must be finite with |s| inside float range; anything else raises
    ValueError before any work."""
    s0 = _to_mp(s)
    if not float(abs(s0)) < math.inf:  # also False for NaN
        raise ValueError(f"s must be finite with |s| inside float range; got {mp.nstr(s0, 8)}")
    _pole_guard(s0)
    if method == "auto":
        method = "direct" if _direct_allowed(mp.re(s0)) else "mb"
    if method == "direct":
        return _direct_result(s0)
    if method == "mb":
        return _continued_result(s0, M)
    raise ValueError(f"unknown method {method!r}; expected auto, direct, or mb")


def omega_residue(kind: str, m: int = 0):
    """Closed-form residue of omega at its poles.

    kind = "two_thirds":     Res at s = 2/3 is Gamma(1/3)^3 / (2 sqrt(3) pi)
                             = Gamma(1/3)^2 / (3 Gamma(2/3)), the coefficient the
                             first continuation term inherits from the pole of
                             zeta(3s-1).
    kind = "half_minus_m":   Res at s = 1/2 - m is
                             (-1)^m / 16^m * binom(2m, m) * zeta(1/2 - 3m).
    """
    prec = working_digits()
    with mp.workdps(prec + 10):
        if kind == "two_thirds":
            value = gamma_complex(mpf(1) / 3) ** 3 / (2 * mp.sqrt(3) * mp.pi)
        elif kind == "half_minus_m":
            if m < 0:
                raise ValueError("m must be a nonnegative integer")
            value = (
                mpf(-1) ** m
                / mpf(16) ** m
                * math.comb(2 * m, m)
                * zeta_complex(mpf(1) / 2 - 3 * m)
            )
        else:
            raise ValueError(f"unknown residue kind {kind!r}")
        value = mp.re(value)
    return +value


def verify_zeta_identity(n: int):
    """Relative residual of the convolution identity

        zeta(6n+2) = 2 (4n+1)! / ((6n+1) ((2n)!)^2)
                     * sum_{k=1}^{n} binom(2n, 2k-1) / binom(6n, 2n+2k-1)
                       * zeta(2n+2k) zeta(4n-2k+2),

    which is equivalent to the vanishing of omega at the negative integers.
    Both sides are evaluated with zeta_complex; the combinatorial factors are
    exact integers.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    prec = working_digits()
    with mp.workdps(prec + 15):
        lhs = zeta_complex(6 * n + 2)
        pref_num = 2 * math.factorial(4 * n + 1)
        pref_den = (6 * n + 1) * math.factorial(2 * n) ** 2
        total = mpf(0)
        for k in range(1, n + 1):
            ratio = mpf(math.comb(2 * n, 2 * k - 1)) / math.comb(6 * n, 2 * n + 2 * k - 1)
            total += ratio * zeta_complex(2 * n + 2 * k) * zeta_complex(4 * n - 2 * k + 2)
        rhs = mpf(pref_num) / pref_den * total
        residual = abs(lhs - rhs) / abs(lhs)
    return +residual


def trivial_zeros(count: int, *, M: int | None = None):
    """[|omega(-n)| for n = 1..count]; each should vanish to working accuracy.

    ``M`` is passed to :func:`omega` for every n; None picks it per point.
    """
    if count < 1:
        raise ValueError("count must be a positive integer")
    return [abs(omega(-n, M=M)) for n in range(1, count + 1)]
