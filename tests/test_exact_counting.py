"""Big-integer counting of SU(3) representations and plain partitions."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from su3asym import exact_counting
from su3asym.exact_counting import (
    EXACT_LIMIT,
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
def test_r_exact_with_8_bit_limbs_matches_per_cell_sweep(limit):
    # Narrow limbs give up to 9 planes, a carry every few sweeps and carry
    # ripples through every plane
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_counting, "_LIMB_BITS", 8)
        counts = r_exact(limit)
    assert counts == per_cell_counts(su3_parts(limit), limit)


def test_exact_counts_with_56_bit_limbs_halve_long_sweeps(monkeypatch):
    # After a carry a 56-bit limb has room for a sweep of at most 126 rows, so
    # the first parts' sweeps go through (1 + q^d) (1 - q^2d)^-1 here
    monkeypatch.setattr(exact_counting, "_LIMB_BITS", 56)
    assert r_exact(2000) == per_cell_counts(su3_parts(2000), 2000)
    assert p_exact(2000) == per_cell_counts([(d, 1) for d in range(1, 2001)], 2000)


def test_r_exact_raises_when_a_carry_would_leave_the_top_plane(monkeypatch):
    planes_needed = exact_counting._planes_needed
    one_short = planes_needed(su3_parts(5000), 5000) - 1
    # r(5000) has 177 bits: one plane fewer than the bound cannot hold it
    assert r_exact(5000)[-1].bit_length() > exact_counting._LIMB_BITS * one_short
    monkeypatch.setattr(
        exact_counting, "_planes_needed", lambda parts, limit: planes_needed(parts, limit) - 1
    )
    with pytest.raises(OverflowError):
        r_exact(5000)


def test_exact_counts_are_python_ints():
    # rn --format json serialises these lists as they are
    for counts in (r_exact(50), p_exact(50)):
        assert all(type(c) is int for c in counts)


def test_r_exact_matches_rational_exp_oracle():
    for n in (150, 1000):
        assert r_exact(n) == r_exact_via_exp(n)


def test_r_exact_monotone_from_degree_three():
    vals = r_exact(400)
    assert all(vals[n + 1] >= vals[n] for n in range(2, 400))


def test_r_exact_cap_guard():
    with pytest.raises(ValueError):
        r_exact(EXACT_LIMIT + 1)


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


def test_hr_estimate_brackets_p500():
    mp.dps = 30
    p500 = p_exact(500)[-1]
    ratio = mpf(p500) / hr_estimate(500)
    assert mpf("0.9") < ratio < mpf("1.1")
