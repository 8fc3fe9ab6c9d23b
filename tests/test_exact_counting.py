"""Big-integer counting of SU(3) representations and plain partitions."""

from __future__ import annotations

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from su3asym import exact_counting
from su3asym.exact_counting import (
    EXACT_LIMIT,
    FLOAT64_LIMIT,
    _euler_product,
    _sweep,
    hr_estimate,
    log_r_float64,
    p_exact,
    r_exact,
    r_exact_via_exp,
    su3_parts,
)


def brute_force_dimensions(limit):
    """All dimensions jk(j+k)/2 <= limit with multiplicities, by double loop."""
    counts = {}
    j = 1
    while j * (j + 1) // 2 <= limit:  # smallest dimension for this j is at k=1
        k = 1
        while j * k * (j + k) // 2 <= limit:
            d = j * k * (j + k) // 2
            counts[d] = counts.get(d, 0) + 1
            k += 1
        j += 1
    return sorted(counts.items())


def test_su3_parts_small_spectrum():
    assert su3_parts(10) == brute_force_dimensions(10)
    # spelled out: dims 1 (j=k=1), 3 (1,2 and 2,1), 6 (1,3 and 3,1), 8 (2,2), 10 (1,4 and 4,1)
    assert su3_parts(10) == [(1, 1), (3, 2), (6, 2), (8, 1), (10, 2)]


def test_su3_parts_larger_spectrum_matches_brute_force():
    assert su3_parts(500) == brute_force_dimensions(500)


def per_cell_counts(parts, limit, one=1):
    """Reference DP: the in-place sweep a[i] += a[i-d], one cell at a time.

    With one=1 the counts are exact ints; with one=1.0 every addition is a
    float64 addition, taken along each residue class mod d in order.
    """
    a = [0 * one] * (limit + 1)
    a[0] = one
    for d, mult in parts:
        for _ in range(mult):
            for i in range(d, limit + 1):
                a[i] += a[i - d]
    return a


def test_r_exact_first_values():
    assert r_exact(7) == [1, 1, 1, 3, 3, 3, 8, 8]


def test_r_exact_matches_per_cell_sweep():
    # r(2000) has 113 bits and r(5000) 177: three and four 48-bit limb planes
    for limit in (2000, 5000):
        assert r_exact(limit) == per_cell_counts(su3_parts(limit), limit)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=600))
def test_r_exact_matches_per_cell_sweep_property(limit):
    assert r_exact(limit) == per_cell_counts(su3_parts(limit), limit)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=600))
@example(600)
def test_r_exact_with_8_bit_limbs_matches_per_cell_sweep(limit):
    # Narrow limbs give up to 8 planes, through which the final carry
    # ripples.  The limbs are carried only once their largest value could
    # pass 2^63 in the next sweep, so a carry falls among the sweeps only
    # from limit 560 on; 600 always runs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_counting, "_LIMB_BITS", 8)
        counts = r_exact(limit)
    assert counts == per_cell_counts(su3_parts(limit), limit)


def test_exact_counts_with_56_bit_limbs_refuse_long_sweeps(monkeypatch):
    # After a carry a 56-bit limb has room for a sweep of at most 126 rows.
    # Largest parts first, r(2000) starts carrying among the sweeps of large
    # d, which are short enough; soon every sweep needs a carry, and the
    # first longer one (d = 15, 133 rows) must be refused rather than risk a
    # limb passing 2^63
    monkeypatch.setattr(exact_counting, "_LIMB_BITS", 56)
    with pytest.raises(OverflowError, match="56-bit limbs"):
        r_exact(2000)


def test_no_limb_reaches_two_to_the_63_after_any_sweep(monkeypatch):
    # the invariant the carry rule keeps, checked after every sweep.  The
    # largest limb any sweep leaves is 2^61.8 at r(20000) and 2^61.5 at
    # p(5000); a rule that reads a quarter of the largest limb held reaches
    # 2^63.5 at both, which the pinned counts alone do not show
    sweep = exact_counting._sweep

    def checked(v, d):
        sweep(v, d)
        assert int(v.max()) < 2**63, (d, math.log2(int(v.max())))

    monkeypatch.setattr(exact_counting, "_sweep", checked)
    r_exact(20000)
    p_exact(5000)


@pytest.mark.parametrize("limit, limb_bits, planes", [(5000, 48, 4), (20000, 48, 8), (600, 8, 8)])
def test_carries_grow_the_stack_to_the_planes_the_count_needs(
    monkeypatch, limit, limb_bits, planes
):
    # The stack starts as one plane and grows only when its top plane
    # carries, so after the last carry it holds exactly the planes that
    # r(limit), the largest count, needs, and its top plane is nonzero
    carry = exact_counting._carry
    stacks = []

    def recorded(v):
        carry(v)
        stacks.append((len(v), bool(v[-1].any())))

    monkeypatch.setattr(exact_counting, "_LIMB_BITS", limb_bits)
    monkeypatch.setattr(exact_counting, "_carry", recorded)
    bits = r_exact(limit)[-1].bit_length()
    assert stacks[-1] == (-(-bits // limb_bits), True) == (planes, True)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=600))
@example(600)
def test_euler_product_does_not_depend_on_the_order_of_parts(limit):
    # With 8-bit limbs both orders carry among the sweeps at limit 600, the
    # reversed list, which puts the largest part first and d = 1 second, at
    # other points
    parts = su3_parts(limit)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_counting, "_LIMB_BITS", 8)
        reversed_order = _euler_product(parts[::-1], limit)
        given_order = _euler_product(parts, limit)
    assert reversed_order == given_order == per_cell_counts(parts, limit)


def test_r_exact_at_the_cap_is_pinned():
    # sha256 of repr(r_exact(50000)) as the smallest-first, row-by-row DP
    # computed it before the sweep order and the per-plane running sums
    assert EXACT_LIMIT == 50_000
    digest = hashlib.sha256(repr(r_exact(EXACT_LIMIT)).encode()).hexdigest()
    assert digest == "4dfa5982575017517f2a928399c4e523d9223b1fe5a490771de9e3d4d44d9815"


@pytest.mark.parametrize("d", [7, 100], ids=["more-rows-than-d", "at-most-d-rows"])
def test_sweep_float64_row_in_place_matches_per_cell(d):
    # limit 2000 has 2001 cells: 285 rows of 7, or 20 rows of 100; both tails
    # are nonempty.  r(2000) is far beyond 2^53, so every rounding shows
    limit, parts = 2000, su3_parts(2000)
    row = np.array(per_cell_counts(parts, limit, one=1.0))
    _sweep(row, d)
    assert row.tolist() == per_cell_counts(parts + [(d, 1)], limit, one=1.0)


@pytest.mark.parametrize("d", [3, 30], ids=["more-rows-than-d", "at-most-d-rows"])
def test_sweep_uint64_planes_in_place_match_per_cell(d):
    # limit 400 has 401 cells: 133 rows of 3, or 13 rows of 30
    limit = 400
    starts = [[(1, 1)], [(2, 1), (5, 2)]]
    planes = np.zeros((3, limit + 1), dtype=np.uint64)
    for k, parts in enumerate(starts):
        planes[k] = per_cell_counts(parts, limit)
    _sweep(planes[:2], d)
    for k, parts in enumerate(starts):
        assert planes[k].tolist() == per_cell_counts(parts + [(d, 1)], limit)
    assert not planes[2].any()


def test_exact_counts_are_python_ints():
    # rn --format json serialises these lists as they are
    for counts in (r_exact(50), p_exact(50)):
        assert all(type(c) is int for c in counts)


def test_r_exact_matches_rational_exp_oracle():
    for n in (150, 1000):
        assert r_exact(n) == r_exact_via_exp(n)


def test_r_exact_via_exp_refuses_a_coefficient_that_is_not_an_integer(monkeypatch):
    # a part of multiplicity 1/2 makes sigma(1) = 1/2, so 1 r(1) = sigma(1) r(0) is no integer
    monkeypatch.setattr(exact_counting, "su3_parts", lambda limit: [(1, Fraction(1, 2))])
    with pytest.raises(ArithmeticError, match=r"coefficient at q\^1 is not an integer"):
        r_exact_via_exp(3)


def test_r_exact_monotone_from_degree_three():
    vals = r_exact(400)
    assert all(vals[n + 1] >= vals[n] for n in range(2, 400))


def test_r_exact_cap_guard():
    with pytest.raises(ValueError):
        r_exact(EXACT_LIMIT + 1)


def test_p_exact_cap_guard():
    with pytest.raises(ValueError, match="exact-range cap"):
        p_exact(EXACT_LIMIT + 1)


def test_growth_bracket_observed():
    # Observed growth scale: log r(n) / n^(2/5) sits in [3, 5] on this range
    # and still increases (the limiting constant A1 = 6.858... is approached
    # from below far beyond desk scale).
    mp.dps = 30
    vals = r_exact(10000)
    samples = []
    for n in (1000, 5000, 10000):
        samples.append(mp.log(mpf(vals[n])) / mpf(n) ** (mpf(2) / 5))
    assert all(mpf(3) < s < mpf(5) for s in samples)
    assert samples[0] < samples[1] < samples[2]


def max_relative_log_error(logs, exact):
    """max over n >= 1 of |logs[n] - log r(n)| / max(|log r(n)|, 1)."""
    worst = 0.0
    for n in range(1, len(exact)):
        want = math.log(exact[n])
        worst = max(worst, abs(float(logs[n]) - want) / max(abs(want), 1.0))
    return worst


def test_log_r_float64_bit_identical_to_per_residue_sweep():
    for limit in (1000, 20000):
        with np.errstate(divide="ignore"):
            want = np.log(per_cell_counts(su3_parts(limit), limit, one=1.0))
        assert np.array_equal(log_r_float64(limit), want)


def test_log_r_float64_overflow_raises_without_numpy_warning():
    # r(234313) is the first count beyond float64's range; the library says
    # so itself, and numpy must not print its own overflow warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            log_r_float64(234_313)


def test_log_r_float64_refuses_beyond_float64_range_before_any_work(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the DP ran for a limit it must refuse")

    monkeypatch.setattr(exact_counting, "_sweep", no_sweep)
    with pytest.raises(OverflowError, match="float64 DP overflowed"):
        log_r_float64(234_313)


def test_log_r_float64_reaches_the_float64_ceiling_at_its_limit():
    # FLOAT64_LIMIT alone keeps the count inside float64: at it the last
    # count is finite and sits closer to log(DBL_MAX) (0.001284 below) than
    # one step of n moves it (0.001332), without a numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logs = log_r_float64(FLOAT64_LIMIT)
    last, before = float(logs[-1]), float(logs[-2])
    assert math.isfinite(last)
    assert 0 < math.log(np.finfo(np.float64).max) - last < last - before


def test_log_r_float64_tracks_exact():
    # r(20000) has 339 bits, so a wrong carry into a high limb shows here
    for limit in (3000, 20000):
        assert max_relative_log_error(log_r_float64(limit), r_exact(limit)) < 1e-13


@pytest.mark.parametrize("limit", [0, 1, 2])
def test_log_r_float64_edge_limits(limit):
    logs = log_r_float64(limit)
    assert logs.dtype == np.float64
    assert logs.tolist() == [0.0] * (limit + 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=600))
def test_log_r_float64_matches_exact_property(limit):
    logs = log_r_float64(limit)
    assert len(logs) == limit + 1
    assert max_relative_log_error(logs, r_exact(limit)) < 1e-13


def test_euler_product_coeffs_single_part():
    # One part of size 2: coefficients of 1/(1 - q^2), exactly and in float64
    assert _euler_product([(2, 1)], 7) == [1, 0, 1, 0, 1, 0, 1, 0]
    coeffs = np.zeros(8)
    coeffs[0] = 1
    _sweep(coeffs, 2)
    assert coeffs.tolist() == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize(
    "count", [r_exact, p_exact, log_r_float64, r_exact_via_exp], ids=lambda f: f.__name__
)
@pytest.mark.parametrize(
    "limit, error, match",
    [
        pytest.param(-1, ValueError, "limit must be nonnegative", id="negative"),
        pytest.param(2.5, TypeError, "float", id="float"),
        pytest.param("7", TypeError, "str", id="str"),
    ],
)
def test_counts_reject_bad_limit(count, limit, error, match):
    with pytest.raises(error, match=match):
        count(limit)


def test_p_exact_known_values():
    assert p_exact(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_hr_estimate_refuses_a_nonpositive_n():
    with pytest.raises(ValueError, match="n must be positive"):
        hr_estimate(0)


def test_hr_estimate_brackets_p500():
    mp.dps = 30
    p500 = p_exact(500)[-1]
    ratio = mpf(p500) / hr_estimate(500)
    assert mpf("0.9") < ratio < mpf("1.1")
