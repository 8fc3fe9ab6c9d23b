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
  exact integers, held as a stack of uint64 limb planes of 48-bit digits
  that grows as its carries need, one sweep per factor, largest parts
  first after d = 1, with deferred carries (with a guard cap on the range),
* :func:`r_exact_via_exp` recomputes r(n) through exp(log G) by the
  integer recurrence n r(n) = sum_k sigma(k) r(n-k) — an algorithmically
  independent route used by the CLI ``--oracle-check`` and the tests,
* :func:`p_exact` / :func:`hr_estimate` are the ordinary-partition analogue
  and its Hardy-Ramanujan first-order estimate (useful as a sanity anchor);
  p_exact shares the DP and its cap,
* :func:`log_r_float64` is the same DP in float64 for n beyond the exact cap,
  good up to n ≈ 2.3e5.
"""

from __future__ import annotations

import operator

from mpmath import mp, mpf

# r_exact and p_exact refuse ranges beyond this.  At the cap the limb-plane
# DP takes about 0.5-0.75 s and 11 planes of 50,001 uint64 limbs (4.4 MB;
# r(50000) has 515 bits), four times its time at 20,000; beyond it callers
# want the float64 route.
EXACT_LIMIT = 50_000

# log_r_float64 refuses ranges beyond this: r(234,313) is the first count
# past float64's ~1.8e308.
FLOAT64_LIMIT = 234_312

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
    same order.  A grid with more rows than columns is one running sum down
    its columns per plane, in a single numpy call; otherwise each numpy call
    adds one row of d cells of every plane.  Both add strictly in row order,
    so in float64 the sweep rounds exactly as the cell-by-cell one would.
    v must be C-contiguous: the planes are walked as views and updated in
    place.
    """
    rows, tail = divmod(v.shape[-1], d)
    if rows > d:
        # One plane at a time: a running sum over the whole stack would copy it
        for plane in v.reshape(-1, v.shape[-1]):
            grid = plane[: rows * d].reshape(rows, d)
            grid.cumsum(axis=0, out=grid)
    else:
        # Few rows of many columns: cumsum would run one inner loop per column
        grid = v[..., : rows * d].reshape(*v.shape[:-1], rows, d).swapaxes(0, -2)
        for i in range(1, rows):
            grid[i] += grid[i - 1]
    last = (rows - 1) * d
    v[..., rows * d :] += v[..., last : last + tail]


def _carry(planes) -> None:
    """Ripple every limb's bits above _LIMB_BITS into the next plane.

    Afterwards every limb is below 2^_LIMB_BITS.  When the top plane
    carries, the stack grows by one zero plane in place (``ndarray.resize``
    zero-fills; ``np.resize`` would repeat the data).  The new plane may
    move the buffer, so no view of ``planes`` may be held across a call.
    """
    import numpy as np

    width = np.uint64(_LIMB_BITS)
    mask = np.uint64((1 << _LIMB_BITS) - 1)
    k = 0
    while True:
        high = planes[k] >> width
        planes[k] &= mask
        if k + 1 == len(planes):
            if not high.any():
                return
            planes.resize((k + 2, planes.shape[1]), refcheck=False)
        planes[k + 1] += high
        k += 1


def _euler_product(parts, limit: int) -> list[int]:
    """Coefficients of prod (1 - q^d)^(-mult) up to q^limit, as Python ints.

    Each factor is one :func:`_sweep` of an array of uint64 limb planes,
    shape (planes, limit + 1): plane k holds each coefficient's k-th digit
    in base 2^_LIMB_BITS.  Carries are deferred.  One bound on every limb is
    kept; a sweep by d multiplies it by (limit + 1) // d + 1.  When the next
    sweep could take a limb past 2^63 (the bit above leaves room for the
    carries a ripple adds), the bound is first lowered to the largest limb
    actually held, and the planes are carried only if that still does not
    fit: 136 carries at limit 20,000 and 290 at 50,000, the final one
    included, where the bound alone made 442 and 855.  A sweep too long to
    fit even right after a carry raises OverflowError; with 48-bit limbs up
    to EXACT_LIMIT only d = 1 is that long, and it comes first, before any
    carry.  The other factors then run from the largest d down (``parts``
    come ascending in d); the exact product does not depend on the order.
    The stack starts as one plane and :func:`_carry` adds one whenever the
    top plane carries, so every sweep covers only the planes the counts
    have reached and the thousands of long-d sweeps run while the counts
    are still short: at limit 20,000 on 1.3 of 8 planes on average.  Run
    first, the short-d sweeps would fill nearly all 8 before them.  They
    come last instead, a few dozen running sums per plane.
    """
    import numpy as np  # here, so that importing the CLI does not load numpy

    planes = np.zeros((1, limit + 1), dtype=np.uint64)
    planes[0, 0] = 1
    bound = 1  # a bound on every limb
    for d, mult in parts[:1] + parts[:0:-1]:
        growth = (limit + 1) // d + 1
        for _ in range(mult):
            if bound * growth >= 2**63:
                bound = int(planes.max())
            if bound * growth >= 2**63:
                _carry(planes)
                bound = (1 << _LIMB_BITS) - 1
                if bound * growth >= 2**63:
                    raise OverflowError(
                        f"a sweep by {d} to q^{limit} does not fit in {_LIMB_BITS}-bit limbs"
                    )
            bound *= growth
            _sweep(planes, d)
    _carry(planes)

    # Each count's limbs, low _LIMB_BITS bits of each, as little-endian bytes.
    size = _LIMB_BITS // 8
    packed = np.empty((limit + 1, len(planes), size), dtype=np.uint8)
    for k in range(len(planes)):
        packed[:, k] = planes[k].astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)[:, :size]
    del planes
    data = memoryview(packed).cast("B")
    nbytes = packed.shape[1] * size
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
    """[p(0), ..., p(limit)] for ordinary partitions: r_exact's DP and cap, parts 1..limit."""
    limit = _check_limit(limit)
    if limit > EXACT_LIMIT:
        raise ValueError(f"limit {limit} exceeds the exact-range cap {EXACT_LIMIT}")
    return _euler_product([(d, 1) for d in range(1, limit + 1)], limit)


def hr_estimate(n: int) -> mpf:
    """First-order Hardy-Ramanujan estimate exp(pi sqrt(2n/3)) / (4 sqrt(3) n)."""
    if n <= 0:
        raise ValueError("n must be positive")
    nn = mpf(n)
    return mp.exp(mp.pi * mp.sqrt(2 * nn / 3)) / (4 * mp.sqrt(3) * nn)


# -- float64 fallback beyond the exact cap -------------------------------------


def log_r_float64(limit: int):
    """log r(n) for n = 0..limit as a float64 numpy array.

    Runs the row sweeps of r_exact on one float64 plane.  r(n) passes
    float64's ~1e308 first at n = 234,313, so a limit past FLOAT64_LIMIT
    raises OverflowError before any work; the sweeps only add, and every
    count lies in [1, r(FLOAT64_LIMIT)], so the log is finite.
    """
    import numpy as np

    limit = _check_limit(limit)
    if limit > FLOAT64_LIMIT:
        raise OverflowError(f"float64 DP overflowed before n = {limit}; r(n) exceeds ~1e308")
    a = np.zeros(limit + 1)
    a[0] = 1
    for d, mult in su3_parts(limit):
        for _ in range(mult):
            _sweep(a, d)
    return np.log(a)
