"""Exact big-integer counting of SU(3) weighted partitions.

The sequence r(n) counts multisets of irreducible SU(3) representations whose
dimensions sum to n.  The irreducible dimensions, with multiplicity, are

    d(j, k) = j k (j + k) / 2   for j, k >= 1

(always an integer: j, k, j+k cannot all be odd).  Ordered pairs (j, k) and
(k, j) with j != k give the same dimension twice, so the generating function
is the Euler product

    G(q) = prod_{j,k >= 1} (1 - q^(j k (j+k)/2))^(-1)
         = prod_d (1 - q^d)^(-mult(d)),   sum_n r(n) q^n = G(q).

Everything here is exact integer / rational arithmetic:

* :func:`su3_parts` enumerates (d, mult(d)) up to a limit,
* :func:`euler_product_coeffs` runs the classic in-place divisor DP,
* :func:`r_exact` combines the two (with a guard cap on the range),
* :func:`r_exact_via_exp` recomputes r(n) through exp(log G) on exact
  rational power series — an algorithmically independent route used by the
  CLI ``--oracle-check`` and the tests,
* :func:`p_exact` / :func:`hr_estimate` are the ordinary-partition analogue
  and its Hardy-Ramanujan first-order estimate (useful as a sanity anchor),
* :func:`log_r_float64` is a fast float64 route for n beyond the exact cap,
  one vectorized cumsum per factor, good up to n ≈ 2.3e5.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

from .series import PowerSeries

# r_exact refuses ranges beyond this: above it the big-int DP still works but
# runtime/memory grow quickly, and callers want the float64 route instead.
EXACT_LIMIT = 50_000


def su3_parts(limit: int) -> list[tuple[int, int]]:
    """All (dimension d, multiplicity) with d = j k (j+k)/2 <= limit, sorted by d.

    The multiplicity counts ordered pairs (j, k): 1 for j == k, 2 otherwise.
    """
    counts: dict[int, int] = {}
    j = 1
    while j * j * j <= limit:  # the smallest d in row j is d(j, j) = j^3
        k = j
        while True:
            d = j * k * (j + k) // 2
            if d > limit:
                break
            counts[d] = counts.get(d, 0) + (1 if j == k else 2)
            k += 1
        j += 1
    return sorted(counts.items())


def euler_product_coeffs(parts, limit: int) -> list[int]:
    """Coefficients of prod (1 - q^d)^(-mult) up to q^limit, by in-place DP.

    Each factor (1 - q^d)^(-1) is applied as the forward sweep
    a[i] += a[i-d]; a factor with multiplicity m is applied m times.
    """
    a = [0] * (limit + 1)
    a[0] = 1
    for d, mult in parts:
        for _ in range(mult):
            for i in range(d, limit + 1):
                a[i] += a[i - d]
    return a


def r_exact(limit: int) -> list[int]:
    """[r(0), ..., r(limit)] exactly; raises for limit > EXACT_LIMIT."""
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit > EXACT_LIMIT:
        raise ValueError(
            f"limit {limit} exceeds the exact-range cap {EXACT_LIMIT}; "
            "beyond it use the float64 count log_r_float64"
        )
    return euler_product_coeffs(su3_parts(limit), limit)


def r_exact_via_exp(limit: int) -> list[int]:
    """[r(0), ..., r(limit)] via exp(log G) in exact rational arithmetic.

    log G(q) = sum_{d, mult} mult * sum_{i >= 1} q^(d i) / i; exponentiating
    this series with Fraction coefficients must return integers — a structural
    cross-check of both routes, which share no code path beyond su3_parts.
    """
    order = limit + 1
    log_coeffs = [Fraction(0)] * order
    for d, mult in su3_parts(limit):
        i = 1
        while d * i <= limit:
            log_coeffs[d * i] += Fraction(mult, i)
            i += 1
    series = PowerSeries(log_coeffs, 0, order).exp()
    out = []
    for n in range(order):
        c = series.coeff(n)
        if c.denominator != 1:
            raise ArithmeticError(f"exp(log G) coefficient at q^{n} is not an integer: {c}")
        out.append(int(c))
    return out


# -- ordinary partitions (sanity anchor) --------------------------------------


def p_exact(limit: int) -> list[int]:
    """[p(0), ..., p(limit)] for ordinary partitions, same DP with parts 1..limit."""
    return euler_product_coeffs([(d, 1) for d in range(1, limit + 1)], limit)


def hr_estimate(n: int) -> mpf:
    """First-order Hardy-Ramanujan estimate exp(pi sqrt(2n/3)) / (4 sqrt(3) n)."""
    if n <= 0:
        raise ValueError("n must be positive")
    nn = mpf(n)
    return mp.exp(mp.pi * mp.sqrt(2 * nn / 3)) / (4 * mp.sqrt(3) * nn)


# -- float64 fallback beyond the exact cap -------------------------------------


def log_r_float64(limit: int):
    """log r(n) for n = 0..limit as a float64 numpy array (NaN-free).

    Runs the same Euler-product DP in float64.  The in-place sweep
    a[i] += a[i-d] along each residue class mod d is a cumulative sum, so
    each factor is one cumsum down the columns of a[:rows*d] viewed as a
    (rows, d) grid, plus the last row carried into the tail of length
    (limit + 1) mod d.  Every residue class is summed in the same order as
    the per-class sweep, so the result is bit-identical to it.  Values
    overflow float64 once r(n) > ~1e308 (first at n = 234,313); this raises
    if that happens.
    """
    import numpy as np

    a = np.zeros(limit + 1, dtype=np.float64)
    a[0] = 1.0
    for d, mult in su3_parts(limit):
        rows, tail = divmod(limit + 1, d)
        grid = a[: rows * d].reshape(rows, d)
        for _ in range(mult):
            np.cumsum(grid, axis=0, out=grid)
            a[rows * d :] += grid[-1, :tail]
    if not np.isfinite(a[-1]):
        raise OverflowError(
            f"float64 DP overflowed before n = {limit}; r(n) exceeds ~1e308"
        )
    with_np_err = np.errstate(divide="ignore")
    with with_np_err:
        return np.log(a)
