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
  exact integers, held as uint64 limb planes of 48-bit digits with deferred
  carries (with a guard cap on the range),
* :func:`r_exact_via_exp` recomputes r(n) through exp(log G) by the
  integer recurrence n r(n) = sum_k sigma(k) r(n-k) — an algorithmically
  independent route used by the CLI ``--oracle-check`` and the tests,
* :func:`p_exact` / :func:`hr_estimate` are the ordinary-partition analogue
  and its Hardy-Ramanujan first-order estimate (useful as a sanity anchor),
* :func:`log_r_float64` is the same DP in float64 for n beyond the exact cap,
  good up to n ≈ 2.3e5.
"""

from __future__ import annotations

import math
import operator

from mpmath import mp, mpf

# r_exact refuses ranges beyond this.  At the cap the limb-plane DP takes
# about 2-2.5 s and 12 planes of 50,001 uint64 limbs (4.8 MB; r(50000) has
# 515 bits), five times its time at 20,000; beyond it callers want the
# float64 route.
EXACT_LIMIT = 50_000

# Bits per limb of the exact DP, a multiple of 8.  After a carry every limb
# is below 2^48, so a sweep of up to 2^15 - 1 rows cannot pass 2^63.
_LIMB_BITS = 48


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


def _check_limit(limit) -> int:
    """``limit`` as an int: TypeError for a non-integer, ValueError below 0."""
    limit = operator.index(limit)
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    return limit


def _sweep(v, d: int) -> None:
    """Multiply by (1 - q^d)^(-1) in place along v's last axis.

    That is the sweep v[..., i] += v[..., i-d].  With v[..., :rows*d] viewed
    as a (rows, d) grid, it is grid[i] += grid[i-1] row by row, then the last
    row added into the tail of length len mod d: the same additions in the
    same order, d cells of every plane per numpy call.  In float64 it rounds
    exactly as the cell-by-cell sweep would.
    """
    rows, tail = divmod(v.shape[-1], d)
    grid = v[..., : rows * d].reshape(*v.shape[:-1], rows, d).swapaxes(0, -2)
    for i in range(1, rows):
        grid[i] += grid[i - 1]
    v[..., rows * d :] += grid[-1][..., :tail]


def _planes_needed(parts, limit: int) -> int:
    """How many limb planes hold every coefficient of the DP up to q^limit.

    For any 0 < x < 1, each coefficient up to q^limit of the product, and of
    every partial product the DP passes through, is at most
    x^-limit prod (1 - x^d)^-mult.  A golden-section search for the x that
    minimises it puts it 9-14 bits above log2 r(limit) for limit 600..50000.
    """
    import numpy as np

    d, mult = np.array(parts, dtype=np.float64).reshape(-1, 2).T

    def log2_bound(u):  # at x = exp(-exp(u))
        t = math.exp(u)
        return (limit * t - (mult * np.log(-np.expm1(-t * d))).sum()) / math.log(2)

    lo, hi = math.log(1e-6), math.log(10.0)
    for _ in range(30):
        u1, u2 = hi - 0.618 * (hi - lo), lo + 0.618 * (hi - lo)
        if log2_bound(u1) < log2_bound(u2):
            hi = u2
        else:
            lo = u1
    return math.ceil((log2_bound(lo) + 1) / _LIMB_BITS)


def _carry(planes, used: int) -> int:
    """Ripple every limb's bits above _LIMB_BITS into the next plane.

    Afterwards every limb is below 2^_LIMB_BITS.  Returns the planes now in
    use; raises OverflowError if a carry would leave the top plane.
    """
    import numpy as np

    width = np.uint64(_LIMB_BITS)
    mask = np.uint64((1 << _LIMB_BITS) - 1)
    k = 0
    while True:
        high = planes[k] >> width
        planes[k] &= mask
        if k + 1 == used:
            if not high.any():
                return used
            if used == len(planes):
                raise OverflowError(f"exact count needs more than {used} limb planes")
            used += 1
        planes[k + 1] += high
        k += 1


def _euler_product(parts, limit: int) -> list[int]:
    """Coefficients of prod (1 - q^d)^(-mult) up to q^limit, as Python ints.

    Each factor is one :func:`_sweep` of an array of uint64 limb planes,
    shape (planes, limit + 1): plane k holds each coefficient's k-th digit
    in base 2^_LIMB_BITS.  Carries are deferred.  One bound on every limb is
    kept; a sweep of rows rows multiplies it by rows + 1, and the planes are
    carried only when the next sweep could take a limb past 2^63 (the bit
    above leaves room for the carries a ripple adds).  Only the planes in use
    are swept, so the early sweeps, which have the most rows, run on one or
    two planes, and with one plane each row is one 1-D numpy addition.
    """
    import numpy as np  # here, so that importing the CLI does not load numpy

    planes = np.zeros((_planes_needed(parts, limit), limit + 1), dtype=np.uint64)
    planes[0, 0] = 1
    used, bound = 1, 1  # planes that may hold nonzero limbs; a bound on every limb
    carried = (1 << _LIMB_BITS) - 1  # the bound right after a carry

    def grown(factor):
        """The planes in use, carried first if a limb times factor could pass 2^63."""
        nonlocal used, bound
        if bound * factor >= 2**63:
            used, bound = _carry(planes, used), carried
        bound *= factor
        return planes[0] if used == 1 else planes[:used]

    for d, mult in parts:
        for _ in range(mult):
            # (1 - q^d)^-1 = (1 + q^d) (1 - q^2d)^-1: a sweep with too many rows
            # to fit between two carries becomes a shifted add and a sweep with
            # half as many rows (only p_exact beyond limit 131,070 needs this)
            step = d
            while min(bound, carried) * ((limit + 1) // step + 1) >= 2**63:
                v = grown(2)
                v[..., step:] += v[..., :-step]
                step *= 2
            _sweep(grown((limit + 1) // step + 1), step)
    used = _carry(planes, used)

    # Each count's limbs, low _LIMB_BITS bits of each, as little-endian bytes.
    size = _LIMB_BITS // 8
    packed = np.empty((limit + 1, used, size), dtype=np.uint8)
    for k in range(used):
        packed[:, k] = planes[k].astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)[:, :size]
    del planes
    data = memoryview(packed).cast("B")
    nbytes = used * size
    return [int.from_bytes(data[i : i + nbytes], "little") for i in range(0, len(data), nbytes)]


def r_exact(limit: int) -> list[int]:
    """[r(0), ..., r(limit)] exactly; raises for limit > EXACT_LIMIT."""
    limit = _check_limit(limit)
    if limit > EXACT_LIMIT:
        raise ValueError(
            f"limit {limit} exceeds the exact-range cap {EXACT_LIMIT}; "
            "beyond it use the float64 count log_r_float64"
        )
    return _euler_product(su3_parts(limit), limit)


def r_exact_via_exp(limit: int) -> list[int]:
    """[r(0), ..., r(limit)] via exp(log G), in exact integers.

    log G(q) = sum_k a_k q^k with k a_k = sigma(k) = sum_{d | k} d mult(d),
    an integer, so the exp recurrence of :meth:`PowerSeries.exp` reads
    n r(n) = sum_{k=1..n} sigma(k) r(n-k).  Every division by n must be
    exact: a structural cross-check of both routes, which share no code path
    beyond su3_parts.
    """
    limit = _check_limit(limit)
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
    limit = _check_limit(limit)
    return _euler_product([(d, 1) for d in range(1, limit + 1)], limit)


def hr_estimate(n: int) -> mpf:
    """First-order Hardy-Ramanujan estimate exp(pi sqrt(2n/3)) / (4 sqrt(3) n)."""
    if n <= 0:
        raise ValueError("n must be positive")
    nn = mpf(n)
    return mp.exp(mp.pi * mp.sqrt(2 * nn / 3)) / (4 * mp.sqrt(3) * nn)


# -- float64 fallback beyond the exact cap -------------------------------------


def log_r_float64(limit: int):
    """log r(n) for n = 0..limit as a float64 numpy array (NaN-free).

    Runs the row sweeps of r_exact on one float64 plane.  Values overflow
    float64 once r(n) > ~1e308 (first at n = 234,313); this raises if that
    happens, without numpy's own overflow warning.
    """
    import numpy as np

    limit = _check_limit(limit)
    a = np.zeros(limit + 1)
    a[0] = 1
    with np.errstate(over="ignore"):
        for d, mult in su3_parts(limit):
            for _ in range(mult):
                _sweep(a, d)
    if not np.isfinite(a[-1]):
        raise OverflowError(
            f"float64 DP overflowed before n = {limit}; r(n) exceeds ~1e308"
        )
    with np.errstate(divide="ignore"):
        return np.log(a)
