"""Exact big-integer counting of SU(3) weighted partitions.

The sequence r(n) counts multisets of irreducible SU(3) representations whose
dimensions sum to n.  The irreducible dimensions, with multiplicity, are

    d(j, k) = j k (j + k) / 2   for j, k >= 1

(always an integer: j, k, j+k cannot all be odd).  Ordered pairs (j, k) and
(k, j) with j != k give the same dimension twice, so the generating function
is the Euler product

    G(q) = prod_{j,k >= 1} (1 - q^(j k (j+k)/2))^(-1)
         = prod_d (1 - q^d)^(-mult(d)),   sum_n r(n) q^n = G(q).

Everything here but the float64 fallback is exact integer arithmetic:

* :func:`su3_parts` enumerates (d, mult(d)) up to a limit,
* :func:`r_exact` runs the Euler-product DP ``_euler_product`` on them in
  exact integers (with a guard cap on the range),
* :func:`r_exact_via_exp` recomputes r(n) through exp(log G) by the
  integer recurrence n r(n) = sum_k sigma(k) r(n-k) — an algorithmically
  independent route used by the CLI ``--oracle-check`` and the tests,
* :func:`p_exact` / :func:`hr_estimate` are the ordinary-partition analogue
  and its Hardy-Ramanujan first-order estimate (useful as a sanity anchor),
* :func:`log_r_float64` is the same DP in float64 for n beyond the exact cap,
  good up to n ≈ 2.3e5.
"""

from __future__ import annotations

from mpmath import mp, mpf

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


def _euler_product(parts, limit: int, dtype):
    """Coefficients of prod (1 - q^d)^(-mult) up to q^limit, as a numpy array.

    Each factor (1 - q^d)^(-1) is the in-place sweep a[i] += a[i-d], applied
    mult times.  With a[:rows*d] viewed as a (rows, d) grid, that sweep is
    grid[i] += grid[i-1] row by row, then the last row added into the tail
    of length (limit + 1) mod d: the same additions in the same order, d
    cells per numpy call.  dtype object keeps exact Python ints; float64
    rounds exactly as the cell-by-cell sweep would.
    """
    import numpy as np  # here, so that importing the CLI does not load numpy

    a = np.zeros(limit + 1, dtype=dtype)
    a[0] = 1
    for d, mult in parts:
        rows, tail = divmod(limit + 1, d)
        grid = a[: rows * d].reshape(rows, d)
        for _ in range(mult):
            for i in range(1, rows):
                grid[i] += grid[i - 1]
            a[rows * d :] += grid[-1, :tail]
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
    return _euler_product(su3_parts(limit), limit, object).tolist()


def r_exact_via_exp(limit: int) -> list[int]:
    """[r(0), ..., r(limit)] via exp(log G), in exact integers.

    log G(q) = sum_k a_k q^k with k a_k = sigma(k) = sum_{d | k} d mult(d),
    an integer, so the exp recurrence of :meth:`PowerSeries.exp` reads
    n r(n) = sum_{k=1..n} sigma(k) r(n-k).  Every division by n must be
    exact: a structural cross-check of both routes, which share no code path
    beyond su3_parts.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    sigma = [0] * (limit + 1)
    for d, mult in su3_parts(limit):
        for k in range(d, limit + 1, d):
            sigma[k] += d * mult
    r = [1]
    for n in range(1, limit + 1):
        q, rem = divmod(sum(sigma[k] * r[n - k] for k in range(1, n + 1)), n)
        if rem:
            raise ArithmeticError(f"exp(log G) coefficient at q^{n} is not an integer")
        r.append(q)
    return r


# -- ordinary partitions (sanity anchor) --------------------------------------


def p_exact(limit: int) -> list[int]:
    """[p(0), ..., p(limit)] for ordinary partitions, same DP with parts 1..limit."""
    return _euler_product([(d, 1) for d in range(1, limit + 1)], limit, object).tolist()


def hr_estimate(n: int) -> mpf:
    """First-order Hardy-Ramanujan estimate exp(pi sqrt(2n/3)) / (4 sqrt(3) n)."""
    if n <= 0:
        raise ValueError("n must be positive")
    nn = mpf(n)
    return mp.exp(mp.pi * mp.sqrt(2 * nn / 3)) / (4 * mp.sqrt(3) * nn)


# -- float64 fallback beyond the exact cap -------------------------------------


def log_r_float64(limit: int):
    """log r(n) for n = 0..limit as a float64 numpy array (NaN-free).

    Runs the Euler-product DP of r_exact in float64.  Values overflow
    float64 once r(n) > ~1e308 (first at n = 234,313); this raises if that
    happens, without numpy's own overflow warning.
    """
    import numpy as np

    with np.errstate(over="ignore"):
        a = _euler_product(su3_parts(limit), limit, np.float64)
    if not np.isfinite(a[-1]):
        raise OverflowError(
            f"float64 DP overflowed before n = {limit}; r(n) exceeds ~1e308"
        )
    with np.errstate(divide="ignore"):
        return np.log(a)
