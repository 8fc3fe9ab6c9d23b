"""The double zeta omega(s) = sum_{j,k>=1} 1/(j^s k^s (j+k)^s)."""

from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, mpc

from su3asym.special_functions import bernoulli_fraction, gamma_complex, zeta_complex
from su3asym.witten_zeta import (
    WittenZetaPoleError,
    omega,
    omega_residue,
    omega_result,
    trivial_zeros,
    verify_zeta_identity,
)
from su3asym import witten_zeta
from su3asym.witten_zeta import (
    _EM_DEPTH,
    _POLE_BAND,
    _QUAD_STEP,
    _auto_M,
    _bernoulli_over_factorial,
    _em_plan,
    _gamma_line,
    _neg_z_line,
    _pfaff_table,
    _pfaff_value,
    _pole_weight,
    _power_tables,
    _trapezoid,
    _unfix,
    _zeta_line,
)

mp.dps = 60


def _npow(n, s):
    """n^(-s) via exp(-s ln n), the reference for the power tables."""
    return mp.exp(-s * mp.ln(n))


def test_direct_closed_form_values():
    # omega(2) = pi^6 / 2835 and omega(1) = 2 zeta(3) are classical
    assert abs(omega(2, method="direct") - mp.pi**6 / 2835) < mpf("1e-50")
    # s = 1 lies below the direct route's threshold Re(s) >= 1.1: the
    # continuation covers it, within its own error estimate
    res = omega_result(1)
    assert res.method == "mb"
    assert abs(res.value - 2 * mp.zeta(3)) <= res.est_error
    with pytest.raises(ValueError):
        omega(1, method="direct")


def test_direct_value_independent_of_call_history():
    # A higher-precision evaluation in between must not change the last
    # digits of a later one.
    s = mpc("1.5", "2")
    mp.dps = 60
    fresh = omega(s, method="direct")
    mp.dps = 100
    omega(s, method="direct")
    mp.dps = 60
    assert omega(s, method="direct") == fresh


def test_direct_vs_continuation_real_point():
    s = mpf("1.5")
    res = omega_result(s, method="mb")
    diff = abs(res.value - omega(s, method="direct"))
    assert diff < mpf("1e-20")
    assert diff <= res.est_error


def test_direct_vs_continuation_complex_point():
    s = mpc("1.3", "1.0")
    diff = abs(omega(s, method="mb") - omega(s, method="direct"))
    assert diff < mpf("1e-20")


def test_continuation_term_count_independence():
    s = mpf("0.8")
    vals = [omega(s, method="mb", M=M) for M in (2, 3, 4)]
    assert abs(vals[0] - vals[1]) < mpf("1e-24")
    assert abs(vals[1] - vals[2]) < mpf("1e-24")


def _schwarz_points(seed, re_lo, re_hi, im_lo, im_hi, count):
    rng = random.Random(seed)
    return [
        mpc(round(rng.uniform(re_lo, re_hi), 4), rng.choice((-1, 1)) * round(rng.uniform(im_lo, im_hi), 4))
        for _ in range(count)
    ]


def test_schwarz_symmetry():
    # omega(conj s) = conj omega(s): at seeded points of each route within the
    # two evaluations' claims, and at one mb point to 1e-30
    mp.dps = 60
    s = mpc("0.1", "2.0")
    assert abs(mp.conj(omega(s, method="mb")) - omega(mp.conj(s), method="mb")) < mpf("1e-30")
    routes = [
        ("direct", _schwarz_points(3101, 1.1, 3.0, 0.0, 10.0, 4)),
        # |Im s| >= 0.3 keeps every point at least that far from the real poles
        ("mb", _schwarz_points(3102, -2.4, 1.05, 0.3, 3.0, 4)),
    ]
    for method, points in routes:
        for s in points:
            a = omega_result(s, method=method)
            b = omega_result(mp.conj(s), method=method)
            diff = abs(mp.conj(a.value) - b.value)
            assert diff <= a.est_error + b.est_error, (
                f"{method}, s={s}: |omega(conj s) - conj omega(s)| = {mp.nstr(diff, 3)} "
                f"exceeds est(s) + est(conj s) = {mp.nstr(a.est_error + b.est_error, 3)}"
            )


def test_trivial_zeros():
    zeros = trivial_zeros(3)
    assert all(abs(v) < mpf("1e-30") for v in zeros)
    with pytest.raises(ValueError):
        trivial_zeros(0)


def test_mb_refuses_a_contour_near_a_pole_inside_the_strip():
    # 2.47 < M + 1/2 lies in the strip of M = 2, but the zeta(s - z) pole at
    # z = s - 1 sits 0.03 from the contour Re(z) = 3/2
    with pytest.raises(ValueError, match=r"^continuation shift M = 2 does not satisfy"):
        omega_result(mpf("2.47"), method="mb", M=2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(min_value=-40, max_value=40))
def test_auto_shift_keeps_the_contour_half_a_unit_from_both_zeta_poles(re_s):
    # Re(z) = M - 1/2 against the zeta(s - z) pole at Re(z) = Re(s) - 1 and
    # the zeta(2s + z) pole at Re(z) = 1 - 2 Re(s)
    M = _auto_M(re_s)
    assert M + 0.5 - re_s >= 0.5
    assert M - 1.5 + 2 * re_s >= 0.5


def test_pole_guard_refuses_poles():
    for bad in (mpf(2) / 3, mpf("0.5"), mpf("-2.5")):  # -2.5 = 1/2 - 3
        with pytest.raises(WittenZetaPoleError):
            omega(bad)


def test_integer_point_collision_is_perturbed_away():
    # At integer s the continuation hits zeta(1) in its finite sum; the
    # evaluator must sidestep the removable singularity and still agree with
    # direct summation.
    v_mb = omega(mpf(2), method="mb")
    v_direct = omega(mpf(2), method="direct")
    assert abs(v_mb - v_direct) < mpf("1e-18")


def test_method_auto_dispatch():
    assert omega_result(mpf(2)).method == "direct"
    assert omega_result(mpf("0.8")).method == "mb"


@pytest.mark.parametrize("dps", [30, 60])
def test_direct_threshold_is_exactly_one_point_one(dps):
    # Re(s) >= 1.1 with 1.1 read at the working precision, whether it comes
    # in as a string or a float; the auto dispatch picks the direct route,
    # which then checks the threshold again
    mp.dps = dps
    for s in (mpf("1.1"), 1.1, mpc("1.1", "0.5")):
        assert omega_result(s).method == "direct"
    below = mpf("1.1") - mpf(10) ** (-dps + 2)
    assert omega_result(below).method == "mb"
    with pytest.raises(ValueError, match="threshold 1.1"):
        omega_result(below, method="direct")


def test_residue_at_two_thirds_closed_form():
    res = omega_residue("two_thirds")
    third = mpf(1) / 3
    want = gamma_complex(third) ** 3 / (2 * mp.sqrt(3) * mp.pi)
    assert abs(res - want) < mpf("1e-55")
    # equivalent form via the reflection product Gamma(1/3) Gamma(2/3) = 2 pi / sqrt(3)
    want2 = gamma_complex(third) ** 2 / (3 * gamma_complex(2 * third))
    assert abs(res - want2) < mpf("1e-55")


def test_pole_limit_at_two_thirds_approaches_residue():
    res = omega_residue("two_thirds")
    s = mpf(2) / 3 + mpf("1e-4")
    lim = (s - mpf(2) / 3) * omega(s)
    assert abs(lim - res) < mpf("5e-3")


def test_pole_limit_at_one_half_approaches_residue():
    res = omega_residue("half_minus_m", 0)
    assert abs(res - mp.zeta(mpf("0.5"))) < mpf("1e-55")
    s = mpf("0.5") + mpf("1e-4")
    lim = (s - mpf("0.5")) * omega(s)
    assert abs(lim - res) < mpf("5e-3")


def test_residues_at_half_minus_m():
    # (-1)^m 16^(-m) binom(2m, m) zeta(1/2 - 3m)
    assert abs(omega_residue("half_minus_m", 1) + mp.zeta(mpf("-2.5")) / 8) < mpf("1e-55")
    assert abs(omega_residue("half_minus_m", 2) - mp.zeta(mpf("-5.5")) * 6 / 256) < mpf("1e-55")


def test_derivative_at_zero_is_log_two_pi():
    # the expansion of Log G(e^(-z)) has the constant term (1/3) log(16 pi^3)
    # = omega'(0) + (log 2)/3, from the double pole at w = 0 of
    # Gamma(w) zeta(1+w) 2^w omega(w); a central difference at h = 1e-6 is off
    # by its h^2 term, 1.44e-11 (1.44e-7 at h = 1e-4)
    mp.dps = 60
    h = mpf("1e-6")
    plus, minus = omega_result(h), omega_result(-h)
    assert plus.est_error + minus.est_error < mpf("1e-20")
    slope = (plus.value - minus.value) / (2 * h)
    assert abs(slope - mp.log(2 * mp.pi)) < mpf("1e-10"), mp.nstr(slope, 15)
    assert abs(mp.log(16 * mp.pi**3) / 3 - mp.log(2) / 3 - mp.log(2 * mp.pi)) < mpf("1e-55")


def test_zeta_identity_small_n():
    assert verify_zeta_identity(2) < mpf("1e-45")


def test_result_metadata():
    res = omega_result(mpf("0.8"))
    assert res.method == "mb"
    assert res.s == mpf("0.8")
    assert res.s_evaluated == res.s  # no perturbation needed off the poles
    assert res.est_error > 0
    # the finite part runs below the working precision; s keeps its bits
    s = mpc(mpf(1) / 3, mpf(1) / 7)
    res = omega_result(s)
    assert res.method == "mb"
    assert res.s == s and res.s_evaluated == s


@pytest.mark.parametrize(
    "s",
    [mpf(10) ** 400, mpc(0, mpf(10) ** 400), mpf("nan"), mpf("inf"), mpc("-inf", 1)],
    ids=["1e400", "1e400i", "nan", "inf", "-inf+i"],
)
def test_non_finite_or_float_overflowing_input_is_refused(s):
    with pytest.raises(ValueError, match="s must be finite"):
        omega_result(s)


@pytest.mark.parametrize(
    "s, bump", [(mpf("0.8"), 0), (mpc("0.3", "1.4"), 0), (mpf(-2), 0), (mpf(1), 60 // 2 + 9)]
)
def test_mb_finite_part_runs_at_its_error_budget(monkeypatch, s, bump):
    # the quadrature targets ceil(dps/3) = 20 digits at 60; the finite part
    # (every zeta_complex / gamma_complex call of the route) needs 24 more,
    # plus the integer-point bump and the guard for |s|, not dps + 15; its
    # rows zeta(2s + k) and zeta(s - k) run 2 digits above that, so that the
    # kernel's target 10^-(dps - 10) stays under the finite part's rounding.
    # The bump pays for the cancellation of two poles, which only a positive
    # integer has (at s = 1, |first| = |finite_sum| = 1.6e34)
    mp.dps = 60
    seen = []
    lines = []

    def recording(f):
        def wrapped(x):
            seen.append(mp.dps)
            return f(x)

        return wrapped

    def recording_line(a0, d, K, a=1):
        lines.append((d, mp.dps))
        return _zeta_line(a0, d, K, a)

    monkeypatch.setattr(witten_zeta, "zeta_complex", recording(zeta_complex))
    monkeypatch.setattr(witten_zeta, "gamma_complex", recording(gamma_complex))
    monkeypatch.setattr(witten_zeta, "_zeta_line", recording_line)
    omega_result(s, method="mb")
    budget = 20 + 24 + bump + max(0, int(2 * math.log10(abs(complex(s)) + 2)))
    assert seen and max(seen) <= budget, (max(seen), budget)
    rows = [dps for d, dps in lines if d in (1, -1)]
    assert len(rows) == 2, lines
    assert max(dps for _, dps in lines) <= budget + 2, (lines, budget)


@pytest.mark.parametrize("s", [mpf("0.8"), mpc("0.3", "1.4"), mpf(-2), mpf(0)])
def test_mb_point_calls_no_pointwise_zeta(monkeypatch, s):
    # every zeta value of the route, the first term's zeta(3s - 1) included,
    # comes from the kernel's lines and rows
    mp.dps = 60
    args = []

    def recording(f):
        def wrapped(x, *rest, **kw):
            args.append(x)
            return f(x, *rest, **kw)

        return wrapped

    monkeypatch.setattr(witten_zeta, "zeta_complex", recording(zeta_complex))
    monkeypatch.setattr(mp, "zeta", recording(mp.zeta))
    omega_result(s, method="mb")
    assert args == [], args


NEXT_TO_AN_INTEGER = [("0", 30), ("0", 60), ("0", 100), ("0", 150), ("1e-40", 100), ("1e-40", 30), ("-2", 100)]
NEXT_TO_AN_INTEGER += [(n, dps) for n in ("-1", "-2", "-5") for dps in (30, 60, 150)]
NEXT_TO_AN_INTEGER += [("-1+1e-50", 60), ("-2+1e-30", 60), ("-2+1e-70", 100)]


@pytest.mark.parametrize("s, dps", NEXT_TO_AN_INTEGER, ids=[f"{s}-d{dps}" for s, dps in NEXT_TO_AN_INTEGER])
def test_mb_error_claim_holds_next_to_an_integer(s, dps):
    # at s = eps the k = 1 finite-part term -s zeta(2s+1) zeta(s-1) and the
    # first term's Gamma(2s-1) are O(1) values of factors within 2 eps of a
    # pole; an argument rounded in absolute terms (1 + 2 eps, -1 + 2 eps)
    # put omega(0) at 60 digits 1.2e-54 off against a claim of 1e-56.  At
    # s = -n the finite part runs at its base digits, which hold -n + eps,
    # eps = 10^(10 - base).  An input s = -n + delta keeps its own bits: at
    # D + 24 digits -2 + 1e-30 (60 digits) came out 5.9e-21 off against a
    # claim of 1e-33, and -1 + 1e-50 raised ZeroDivisionError.  omega(1e-40)
    # at 30 digits is formed at 79 digits and returned at 30, 1.6e-32 away,
    # which only the rounding of the returned value covers
    mp.dps = dps
    s = sum(mpf(term) for term in s.split("+"))
    res = omega_result(s, method="mb")
    mp.dps = 2 * dps + 20
    rerun = omega_result(res.s_evaluated, method="mb").value
    mp.dps = dps
    err = abs(res.value - rerun)
    assert err <= res.est_error, (
        f"s={s}, dps={dps}: |value - rerun| = {mp.nstr(err, 3)} exceeds "
        f"est_error {mp.nstr(res.est_error, 3)}"
    )


@pytest.mark.parametrize("dps", [30, 60, 150, 300])
def test_mb_claim_at_an_integer_covers_the_true_value(dps):
    # mb evaluates an integer s at s + eps, and its claim is for that point;
    # eps = 10^(10 - base) sits two decades under the finite part's rounding
    # allowance, so |omega'(s)| eps stays inside the claim while |omega'| is
    # up to about 100 (1 + big): at -9, where |omega'| is 44, the value is
    # 0.44 of its claim off the truth, at every precision
    mp.dps = dps
    truths = [(0, mpf(1) / 3), (1, 2 * mp.zeta(3))] + [(-n, mpf(0)) for n in range(1, 11)]
    for s, truth in truths:
        res = omega_result(s, method="mb")
        err = abs(res.value - truth)
        assert err <= res.est_error, (s, mp.nstr(err, 3), mp.nstr(res.est_error, 3))


# -- the direct route's tail integrals and its error claim ---------------------


def _g2(s, w, x):
    """G2(1/x; s, w) = x^e 2F1(w, e; e+1; -x) / e, e = s + w - 1 (the Euler
    integral, DLMF 15.6.1): mpmath's hyp2f1, the reference for the tail series."""
    e = s + w - 1
    return mp.exp(e * mp.ln(x)) * mp.hyp2f1(w, e, e + 1, -x) / e


@pytest.mark.parametrize("s", [mpf("1.3"), mpc("1.5", "2.1"), mpc("3.3", "-7")])
def test_g2_matches_quadrature_of_its_integral(s):
    # G2(1/x; s, w) = int_0^x u^(s+w-2) (1+u)^(-w) du, where the direct route
    # uses it: w = s, on the edge-strip tails x = j/P and 1/2 and in the
    # corner at x = 1
    mp.dps = 40
    pairs = [(s, mpf(1) / 128), (s, mpf(37) / 128), (s, mpf(1) / 2), (s, mpf(1))]
    for w, x in pairs:
        want = mp.quad(lambda u: u ** (s + w - 2) * (1 + u) ** (-w), [0, x])
        rel = abs(_g2(s, w, x) - want) / abs(want)
        assert rel <= mpf("1e-35"), f"s={s}, w={w}, x={x}: relative error {mp.nstr(rel, 3)}"


TAIL_POINTS = [mpf("1.3"), mpc("1.5", "2.1"), mpc("3.3", "-7"), mpc("1.3", "40"), mpc("1.5", "200")]


def _tail_by_quadrature(s, x):
    """S(x) = int_0^1 v^(2s-2) (1 + x v)^(-s) dv with v = e^(-w) and w on the
    ray where e^(-(2s-1) w) decays without oscillating: the integrand is
    analytic for Re w >= 0, where |x e^(-w)| <= x < 1.  It is cut where
    e^(-|2s-1| r) times the largest |(1 + z)^(-s)|, below
    2^(Re s) e^(|Im s| pi/6), falls under 10^-(dps+10)."""
    e = 2 * s - 1
    rot = mp.expj(-mp.arg(e))
    r_max = ((mp.dps + 10) * mp.ln(10) + abs(mp.im(s)) * mp.pi / 6 + mp.re(s)) / abs(e)
    return rot * mp.quad(
        lambda r: mp.exp(-abs(e) * r) * (1 + x * mp.exp(-r * rot)) ** (-s), mp.linspace(0, r_max, 4)
    )


@pytest.mark.parametrize("dps", [40, 150])
@pytest.mark.parametrize("s", TAIL_POINTS, ids=["1.3", "1.5+2.1i", "3.3-7i", "1.3+40i", "1.5+200i"])
def test_strip_tail_series_matches_g2_and_quadrature(dps, s):
    # S(x) = x^(1-2s) G2(1/x; s, s) = (1+x)^(-s) T(x/(1+x)) at the strip rows'
    # x = j/128 and 1/2, and G2(1; s, s) = 2^(-s) T(1/2) in the corner, from
    # one Pfaff table per s, against mpmath's hyp2f1 and against the
    # integral.  The 150-digit quadrature (about 1 s a point at low height)
    # runs only at x = 63/128 and height 40 and 200; the corner's integral
    # only at low height, where it does not cancel
    mp.dps = dps
    W = mp.prec
    table = _pfaff_table(s, W + 4, W)
    for num, den in [(1, 128), (37, 128), (63, 128), (1, 2), (1, 1)]:
        x = mpf(num) / den
        got = (1 + x) ** -s * _unfix(*_pfaff_value(table, num, num + den, W), W)
        with mp.workdps(dps + 5):
            refs = {"hyp2f1": x ** (1 - 2 * s) * _g2(s, s, x)}
            if num == den and dps == 40 and abs(mp.im(s)) < 10:
                refs["quad"] = mp.quad(lambda u: u ** (2 * s - 2) * (1 + u) ** (-s), [0, 1])
            elif num < den and (dps == 40 or (num == 63 and abs(mp.im(s)) >= 40)):
                refs["quad"] = _tail_by_quadrature(s, x)
        for name, want in refs.items():
            rel = abs(got - want) / abs(want)
            assert rel <= mpf(10) ** (5 - dps), (
                f"s={s}, x={num}/{den}, dps={dps}: relative error {mp.nstr(rel, 3)} against {name}"
            )


@settings(max_examples=60, deadline=None)
@given(
    re_s=st.floats(min_value=1.1, max_value=60),
    im_s=st.floats(min_value=-3000, max_value=3000),
    j=st.integers(min_value=0, max_value=128),
    W=st.integers(min_value=64, max_value=700),
)
def test_pfaff_series_stays_within_its_rounding_bound(re_s, im_s, j, W):
    # T(y) from the terms the route takes, y = j/(j+K) on row j
    # (K = max(128, 2j)) and 1/2 in the corner (j = 0), against the series
    # summed at 2W bits: within the 12 units of 2^-W that _pfaff_table's
    # docstring claims
    s = mpc(re_s, im_s)
    num, den = (1, 2) if j == 0 else (j, j + max(128, 2 * j))
    got = _pfaff_value(_pfaff_table(s, W + 4, W), num, den, W)
    with mp.workprec(2 * W):
        y = mpf(num) / den
        term, want, m = 1 / (2 * s - 1), 0, 0
        while abs(term) > mpf(2) ** (-2 * W):
            want += term
            term *= (s + m) / (2 * s + m) * y
            m += 1
        err = mp.ldexp(abs(_unfix(*got, W) - want), W)
    assert err <= 12, (s, num, den, W, mp.nstr(err, 3))


def test_direct_point_calls_neither_hyp2f1_nor_fdot(monkeypatch):
    # every tail integral, the corner's G2(1; s, s) included, comes from the
    # one Pfaff table, and the block sums are integer dot products
    mp.dps = 60
    calls = {"hyp2f1": 0, "fdot": 0}
    for name in calls:

        def counting(*args, _f=getattr(mp, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(mp, name, counting)
    omega_result(mpc("1.5", "2.1"), method="direct")
    assert calls == {"hyp2f1": 0, "fdot": 0}, calls


def test_direct_refuses_a_useless_claim_up_front():
    # where the rows' first omitted Euler-Maclaurin terms reach 1 the value
    # carries no digit (|omega| <= omega(1.1) < 1.7); unrefused, 1.5 + 10^6 i
    # takes about 34 s at 60 digits, and 1.5 + 805i claims 16.8.  A large
    # Re(s) passes that estimate high up, where the corner's zeta row would
    # need a cutoff of about |Im s| terms: unrefused, 40 + 10^5 i takes 1.2 s,
    # and 40 + 10^8 i tens of GB
    refused = [
        (mpc("1.5", "805"), "truncation estimate"),
        (mpc("1.5", "1e6"), "truncation estimate"),
        (mpc(40, "1e5"), "cutoff"),
        (mpc(40, "1e8"), "cutoff"),
    ]
    for dps in (30, 60, 150):
        mp.dps = dps
        for s, match in refused:
            times = []
            for _ in range(2):  # the better of two, clear of a scheduling hiccup
                start = time.perf_counter()
                with pytest.raises(ValueError, match=match) as exc:
                    omega_result(s)
                times.append(time.perf_counter() - start)
            assert min(times) < 0.1, (dps, s, times)
            assert 'method="mb"' not in str(exc.value)
    # below that height, or far up with a large real part, the route answers
    mp.dps = 60
    for s, claim in [
        (mpc("1.5", "300"), mpf("4e-10")),
        (mpc(40, 900), mpf("1.4e-57")),
        (mpc(100, 1000), mpf("1.4e-58")),
    ]:
        res = omega_result(s, method="direct")
        assert res.est_error <= claim, (s, mp.nstr(res.est_error, 3))


def test_direct_route_at_a_large_integer_is_as_fast_as_beside_it():
    # an integer s takes the power tables of any other s, one exp per prime,
    # not n^(10^5) in exact integers
    mp.dps = 60
    s = mpf(10) ** 5
    times = []
    for _ in range(2):  # the better of two, clear of a scheduling hiccup
        start = time.perf_counter()
        res = omega_result(s)
        times.append(time.perf_counter() - start)
    assert res.method == "direct"
    assert min(times) < 0.5, times
    assert abs(res.value - mpf(2) ** -s) <= res.est_error  # the j = k = 1 term
    beside = omega_result(s + mpf(1) / 2)
    assert mp.nstr(res.est_error, 3) == mp.nstr(beside.est_error, 3)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: omega(2, method="bogus"), "unknown method 'bogus'"),
        (lambda: omega_residue("bogus"), "unknown residue kind 'bogus'"),
        (lambda: omega_residue("half_minus_m", -1), "m must be a nonnegative integer"),
        (lambda: verify_zeta_identity(0), "n must be a positive integer"),
    ],
    ids=["omega-method", "residue-kind", "residue-m", "zeta-identity-n"],
)
def test_bad_arguments_are_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("s", [mpc("4", "120"), mpc("1.2", "-60")])
def test_direct_error_claim_holds_at_large_imaginary_part(s):
    mp.dps = 120
    v120 = omega(s, method="direct")
    for dps in (30, 60):
        mp.dps = dps
        res = omega_result(s, method="direct")
        err = abs(res.value - v120)
        assert err <= res.est_error, (
            f"s={s}, dps={dps}: |v - v120| = {mp.nstr(err, 3)} exceeds "
            f"est_error {mp.nstr(res.est_error, 3)}"
        )
        if s == mpc("4", "120") and dps == 30:
            # the corner's Hurwitz zeta values are tiny here (1e-75); at the
            # working precision mpmath's absolute accuracy would lose 12 digits
            assert res.est_error <= mpf("1e-28"), mp.nstr(res.est_error, 3)
    mp.dps = 60


@pytest.mark.parametrize("s", [mpf("1.5"), mpf(2), mpc("1.5", "2.1")])
def test_direct_error_claim_covers_the_rounding_of_the_value(s):
    mp.dps = 80
    v80 = omega(s, method="direct")
    mp.dps = 30
    res = omega_result(s, method="direct")
    err = abs(res.value - v80)
    mp.dps = 60
    assert err <= res.est_error, (
        f"s={s}: |v30 - v80| = {mp.nstr(err, 3)} exceeds est_error {mp.nstr(res.est_error, 3)}"
    )


@pytest.mark.parametrize("dps", [60, 150])
@pytest.mark.parametrize(
    "re_s, im_s",
    [("2", 0), ("1.1", 0), ("1.5", 0), ("1.5", "2.1"), ("3.3", "-7"), ("1.2", "0.5"), ("4", "120"),
     ("2.5", "60")],
)
def test_direct_claim_holds_against_a_longer_truncation(monkeypatch, dps, re_s, im_s):
    # the reference closes its rows at P = 384 with R = 20 corrections and runs
    # at 140 digits, so its own error is far below the claim it checks.  s is
    # built once at the working precision and the reference takes the same
    # binary value: re-rounding 1.1 at 140 digits moves omega by |omega'| ulp,
    # a false 2.4-fold violation at 30 digits.  The worst ratio measured is
    # 0.98 at 60 digits (4+120i); at 150 digits it is 0.999 on the real axis,
    # where the summand is completely monotone and the first omitted
    # Euler-Maclaurin term bounds the remainder with little to spare
    mp.dps = dps
    s = mpc(re_s, im_s) if im_s else mpf(re_s)
    res = omega_result(s, method="direct")
    monkeypatch.setattr(witten_zeta, "_DIRECT_P", 384)
    monkeypatch.setattr(witten_zeta, "_DIRECT_R", 20)
    with mp.workdps(140):
        ref, ref_est = witten_zeta._direct_eval(s)
    diff = abs(res.value - ref)
    mp.dps = 60
    assert ref_est <= res.est_error / 1000, (s, dps, mp.nstr(ref_est, 3))
    assert diff <= res.est_error, (
        f"s={s}, dps={dps}: |v - v_ref| = {mp.nstr(diff, 3)} exceeds "
        f"est_error {mp.nstr(res.est_error, 3)} (ratio {mp.nstr(diff / res.est_error, 4)})"
    )


def test_direct_claim_falls_as_the_corrections_grow(monkeypatch):
    # the first omitted terms carry c_(2R+1), whose coefficients fall like
    # P^(-(2R+1)); formed unscaled in fixed point they round to a few units
    # from R = 36 on, and the claim then reads that rounding (7.3e-76 at
    # R = 36, 1.1e-48 at 48) instead of the truncation.  Scaled, the claims
    # are 3.6e-53, 1.6e-84, 1.3e-98 and 1.3e-98 against true errors of
    # 3.6e-53, 1.5e-84, 1.6e-106 and 1.6e-106
    mp.dps = 150
    exact = mp.pi**6 / 2835
    for R in (12, 24, 36, 48):
        monkeypatch.setattr(witten_zeta, "_DIRECT_R", R)
        res = omega_result(2, method="direct")
        assert abs(res.value - exact) <= res.est_error, (R, mp.nstr(res.est_error, 3))
        if R >= 36:
            assert res.est_error < mpf("1e-90"), (R, mp.nstr(res.est_error, 3))


def test_direct_value_does_not_depend_on_the_block_size(monkeypatch):
    # moves the seams between the exact block, the edge strips and the corner;
    # at real s the remainders are sign-definite and bounded by the first
    # omitted terms, so 1.1 comes within 0.5% of the bound
    mp.dps = 60
    points = [mpf("1.1"), mpc("1.5", "2.1"), mpc("3.3", "-7")]
    default = [omega_result(s, method="direct") for s in points]
    for P in (64, 96):
        monkeypatch.setattr(witten_zeta, "_DIRECT_P", P)
        for s, ref in zip(points, default):
            res = omega_result(s, method="direct")
            diff = abs(res.value - ref.value)
            assert diff <= res.est_error + ref.est_error, (
                f"s={s}, P={P}: |v_P - v_128| = {mp.nstr(diff, 3)} exceeds "
                f"est_P + est_128 = {mp.nstr(res.est_error + ref.est_error, 3)}"
            )


# -- the line evaluators behind the contour quadrature ---------------------------
#
# _zeta_line runs its per-node arithmetic in fixed point and advances the
# Euler-Maclaurin power table from node to node, with one more guard bit
# per doubling of the line past 256 nodes; _gamma_line evaluates Gamma node
# by node.  Each line is pinned against pointwise zeta_complex /
# gamma_complex (evaluated with 10 extra digits) at its first node, at the
# last node before the guard grows (255), at the first two after it (256,
# 257) and at its last node.

LINE_NODES = (0, 255, 256, 257, 300)


def _em_remainder_bound(s, N, depth):
    """Johansson (2015): the Euler-Maclaurin remainder of zeta after `depth`
    Bernoulli corrections at cutoff N is at most
    4 |(s)_2M| / (2 pi)^2M * N^(1 - sigma - 2M) / (sigma + 2M - 1), M = depth."""
    sigma = mp.re(s)
    M = depth
    return (
        4 * abs(mp.rf(s, 2 * M)) / (2 * mp.pi) ** (2 * M)
        * mpf(N) ** (1 - sigma - 2 * M) / (sigma + 2 * M - 1)
    )


def _zeta_line_tolerance(s, dps):
    """Truncation plus rounding allowance for one node of _zeta_line.

    The kernel's cutoff is at least N = 1.35 dps + 12 (it grows with the
    height, which only shrinks the remainder); the rounding allowance is a
    thousand units in the last digit of the partial sum's largest term."""
    N = int(1.35 * dps) + 12
    sigma = mp.re(s)
    return _em_remainder_bound(s, N, _EM_DEPTH) + mpf(10) ** (3 - dps) * max(1, mpf(N) ** (1 - sigma))


def _absolute(s, dps, want):
    return _zeta_line_tolerance(s, dps)


def _relative_to_reflection(s, dps, want):
    """Relative allowance that zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s)
    zeta(1-s) would meet: its factors' rounding plus the allowance of zeta(1-s)."""
    return (mpf(10) ** (3 - dps) + _zeta_line_tolerance(1 - s, dps)) * abs(want)


def _relative(s, dps, want):
    return mpf(10) ** (3 - dps) * abs(want)


@pytest.mark.parametrize("dps", [34, 60])
@pytest.mark.parametrize(
    "a0, h, allowance",
    [
        (mpc("4.7", "-3.1"), mpf("0.0511"), _absolute),  # the zeta(2s+z) line of the overlap strip
        (mpc("-0.4", "2.2"), mpf("-0.0511"), _absolute),  # crosses the critical strip downwards
        (mpc("-6.5", "0.3"), mpf("0.0511"), _relative_to_reflection),
        # past Re(a0) = -25, where sigma + 2 _EM_DEPTH - 1 < 0: the depth starts
        # higher; the kernel's absolute target 10^-(dps - 10) is below
        # 10^(3 - dps) |zeta| on this line, where |zeta| > 10^7
        (mpc("-30.5", "0.3"), mpf("0.0511"), _relative),
    ],
    ids=["right", "critical-strip", "left", "far-left"],
)
def test_zeta_line_matches_pointwise(dps, a0, h, allowance):
    mp.dps = dps
    values = _zeta_line(a0, mpc(0, h), LINE_NODES[-1])
    for k in LINE_NODES:
        with mp.workdps(dps + 10):
            s = a0 + mpc(0, k * h)
            want = zeta_complex(s)
        err = abs(values[k] - want)
        assert err < allowance(s, dps, want), f"dps={dps} node {k}: error {mp.nstr(err, 3)}"


def test_zeta_line_does_not_drift_over_a_long_line():
    # 2,000 stepped nodes of the overlap strip's zeta(2s+z) line, with no
    # table rebuilt on the way
    mp.dps = 34
    a0, h = mpc("4.7", "-3.1"), mpf("0.0511")
    values = _zeta_line(a0, mpc(0, h), 2000)
    for k in (0, 1000, 2000):
        with mp.workdps(44):
            s = a0 + mpc(0, k * h)
            want = zeta_complex(s)
        err = abs(values[k] - want)
        assert err < _zeta_line_tolerance(s, 34), f"node {k}: error {mp.nstr(err, 3)}"


def _em_plan_bound(nodes, N, depth):
    """The remainder bound _em_plan aims at on a path: Johansson's at the
    nodes' largest |s| and least Re s, with |(s)_2D| <= (|s|)_2D."""
    s_abs = max(abs(s) for s in nodes)
    sigma = min(mp.re(s) for s in nodes)
    return (
        4 * mp.rf(s_abs, 2 * depth) / (2 * mp.pi * N) ** (2 * depth)
        * mpf(N) ** (1 - sigma) / (sigma + 2 * depth - 1)
    )


@pytest.mark.parametrize("K", [0, 110, LINE_NODES[-1]])
def test_far_left_line_meets_its_remainder_bound(K):
    # with the depth capped at the cutoff, the depth loop stopped at
    # D = N = 57 on the shorter lines, the bound at 10^-23.4 against the
    # target 10^-24; the cutoff now grows instead
    mp.dps = 34
    a0, d = mpc("-30.5", "0.3"), mpc(0, mpf("0.0511"))
    N, depth, _ = _em_plan(a0, d, K)
    nodes = [a0 + k * d for k in range(K + 1)]
    bound = _em_plan_bound(nodes, N, depth)
    assert bound <= mpf(10) ** -24, f"N={N}, D={depth}, bound {mp.nstr(bound, 3)}"
    assert max(_em_remainder_bound(s, N, depth) for s in nodes) <= bound


def test_em_plan_alone_caps_a_zeta_row(monkeypatch):
    # the cutoff grows like 0.32 |Im|: at 60 digits 2 + 15000i needs 4893
    # terms, within the cap, and 2 + 20000i 6493, past it; the planner
    # refuses that row before any power table is built
    mp.dps = 60
    assert _em_plan(mpc(2, 15000), 1, 0)[0] == 4893

    def no_table(*args):
        raise AssertionError("a power table was built for a row past the cap")

    monkeypatch.setattr(witten_zeta, "_power_tables", no_table)
    refusal = r"cutoff of 6493 terms, more than 5000 \(its largest \|Im\| is 20000\)"
    with pytest.raises(ValueError, match=refusal):
        _zeta_line(mpc(2, 20000), 1, 0)


def _row_allowance(dps, want):
    """The kernel's target 10^-(dps - 10) plus a thousand units in the last
    digit of the value, which the output rounding alone can reach."""
    return mpf(10) ** (10 - dps) + mpf(10) ** (3 - dps) * abs(want)


@pytest.mark.parametrize("dps", [34, 60])
@pytest.mark.parametrize(
    "start, d, K",
    [(0, 1, 5), (-5, -1, 16), (mpc("-0.35", "1.7"), -1, 9), (mpc("-0.7", "3.4"), 1, 9)],
    ids=["right-from-2eps", "left-from-minus5", "left-complex", "right-complex"],
)
def test_zeta_rows_match_pointwise(dps, start, d, K):
    # the finite part's rows at an integer point s = n + eps: zeta(2s + k)
    # passes the pole at 1 + 2 eps, and zeta(s - k) from s = -5 + eps runs
    # through the trivial zeros -2m + eps down to Re = -21; each node against
    # zeta_complex at 10 more digits, its argument formed exactly
    mp.dps = dps
    eps = mpf(10) ** -(dps // 2 + 2)
    a0 = (2 if d == 1 else 1) * (start + eps)
    values = _zeta_line(a0, d, K)
    for k in range(K + 1):
        with mp.workdps(dps + 10):
            want = zeta_complex(mp.fadd(a0, k * d, exact=True))
        err = abs(values[k] - want)
        assert err <= _row_allowance(dps, want), (
            f"dps={dps} node {k}: error {mp.nstr(err, 3)}, |zeta| {mp.nstr(abs(want), 3)}"
        )


@pytest.mark.parametrize("a0", [mpf(5) / 3, mpc("-2.3", "4.1")], ids=["5/3", "-2.3+4.1i"])
def test_single_node_builds_no_step_table(monkeypatch, a0):
    # zeta(3s - 1) of every mb point and the saddle constants' zeta(5/3) are
    # one node, never stepped: one power table, and the same bits as the
    # first node of the two-node path with step 0, whose step table is n^0
    mp.dps = 60
    two_nodes = _zeta_line(a0, 0, 1)
    tables = []

    def recording(xs, N, W):
        tables.append(len(xs))
        return _power_tables(xs, N, W)

    monkeypatch.setattr(witten_zeta, "_power_tables", recording)
    assert _zeta_line(a0, 0, 0) == two_nodes[:1]
    assert tables == [1]


@pytest.mark.parametrize("dps", [34, 60])
@pytest.mark.parametrize("s, K", [(mpf("20.3"), 23), (mpf("30.3"), 33)], ids=["20.3", "30.3"])
def test_left_stepping_row_from_right_of_one_keeps_its_digits(dps, s, K):
    # the finite part's row zeta(s - k), k <= M + 2, at Re s > 1: it starts
    # from the table n^(-s), whose entries are far below 1, and multiplies it
    # by n per step, so an entry's absolute rounding grows by up to N^k
    mp.dps = dps
    values = _zeta_line(s, -1, K)
    for k in range(K + 1):
        with mp.workdps(dps + 10):
            want = zeta_complex(mp.fsub(s, k, exact=True))
        err = abs(values[k] - want)
        assert err <= _row_allowance(dps, want), (
            f"s={s}, dps={dps}, node {k}: error {mp.nstr(err, 3)}, |zeta| {mp.nstr(abs(want), 3)}"
        )


@pytest.mark.parametrize("dps", [30, 60])
def test_mb_agrees_with_direct_right_of_the_overlap_strip(dps):
    # mb's finite part steps zeta(s - k) left from s itself; the direct route
    # takes no left-stepping row
    mp.dps = dps
    for s in (mpf("6.3"), mpf("12.3"), mpf("16.3"), mpf("20.3")):
        mb = omega_result(s, method="mb")
        direct = omega_result(s, method="direct")
        diff = abs(mb.value - direct.value)
        assert diff <= mb.est_error + direct.est_error, (
            f"s={s}, dps={dps}: |mb - direct| = {mp.nstr(diff, 3)} exceeds "
            f"est_error(mb) + est_error(direct) = {mp.nstr(mb.est_error + direct.est_error, 3)}"
        )


@pytest.mark.parametrize(
    "s",
    [mpc("10.3", "5"), mpc("12.3", "10"), mpc("16.3", "40"), mpc("20.3", "1"), mpf("21.3"), mpf("30.3")],
    ids=["10.3+5i", "12.3+10i", "16.3+40i", "20.3+i", "21.3", "30.3"],
)
def test_mb_refuses_points_where_its_claim_fails(s):
    # against the direct route at 60 digits mb was 1.9, 2.6, 5e4 and 2.5
    # times off its claim at the complex points, and 3.8 at 30.3
    mp.dps = 60
    with pytest.raises(ValueError, match='method="direct"'):
        omega_result(s, method="mb")


def test_mb_refuses_heights_its_zeta_lines_cannot_afford():
    # the contour runs to about |Im s|/2 with step 0.5, and the 2s + c line of
    # the half whose |Im| grows reaches about 2.5 |Im s|: past the zeta cutoff
    # cap the route refuses before any line is built, at Re s = 0.8 from
    # |Im s| = 6191, 6172 and 6112 at 30, 60 and 150 digits.  Unrefused,
    # 0.8 + 10^8 i would ask for about 2 10^8 Gamma values
    for dps in (30, 60, 150):
        mp.dps = dps
        for s, method in [(mpc("0.8", "1e8"), "auto"), (mpc("-2.3", "6500"), "mb")]:
            times = []
            for _ in range(2):  # the better of two, clear of a scheduling hiccup
                start = time.perf_counter()
                with pytest.raises(ValueError, match="zeta row from .* would need a cutoff"):
                    omega_result(s, method=method)
                times.append(time.perf_counter() - start)
            assert min(times) < 0.1, (dps, s, times)
    mp.dps = 60


def test_mb_keeps_the_overlap_strip_and_the_real_axis_to_21():
    # the overlap strip Re s in [1.1, 2], |Im s| <= 5, where criterion 3
    # compares the routes, Re s <= 9 off the axis, and the real points up to 21
    mp.dps = 30
    points = [mpc("1.1", "5"), mpc("1.1", "-5"), mpc(2, 5), mpc(2, -5), mpf("1.1"), mpc("9", "5")]
    for s in points + [mpf("6.3"), mpf("12.3"), mpf("20.3"), mpf("20.9")]:
        assert omega_result(s, method="mb").method == "mb"


def test_far_left_row_of_the_finite_part_meets_its_bound(monkeypatch):
    # omega(-5) takes M = 14, so its row zeta(s - k) reaches Re = -21, further
    # left than any default contour line
    plans = []

    def recording(a0, d, K, a=1):
        plan = _em_plan(a0, d, K, a)
        plans.append((a0, d, K, mp.dps, plan))
        return plan

    monkeypatch.setattr(witten_zeta, "_em_plan", recording)
    omega_result(mpf(-5), method="mb")
    ((a0, d, K, dps, (N, depth, sigma)),) = [p for p in plans if p[1] == -1]
    assert sigma < -20.9, sigma
    nodes = [a0 + k * d for k in range(K + 1)]
    bound = _em_plan_bound(nodes, N, depth)
    assert bound <= mpf(10) ** (10 - dps), f"N={N}, D={depth}, bound {mp.nstr(bound, 3)}"
    assert max(_em_remainder_bound(s, N, depth) for s in nodes) <= bound
    mp.dps = dps
    values = _zeta_line(a0, d, K)
    for k in range(K + 1):
        with mp.workdps(dps + 10):
            want = zeta_complex(mp.fadd(a0, k * d, exact=True))
        assert abs(values[k] - want) <= _row_allowance(dps, want), f"node {k}"


@pytest.mark.parametrize("dps", [40, 70, 110])
@pytest.mark.parametrize(
    "s", [mpf("1.1"), mpc("1.5", "2.1"), mpc("4", "120")], ids=["1.1", "1.5+2.1i", "4+120i"]
)
def test_hurwitz_corner_row_matches_mpmath(dps, s):
    # the direct route's corner: zeta(3s + 2r - 1, 129) for r = 0..13, one
    # row with step 2 whose partial sum starts at n = 129
    mp.dps = dps
    x0 = 3 * s - 1
    values = _zeta_line(x0, 2, 13, 129)
    for r in range(14):
        with mp.workdps(dps + 10):
            want = mp.zeta(x0 + 2 * r, 129)
        err = abs(values[r] - want)
        assert err <= mpf(10) ** (10 - dps), f"dps={dps} r={r}: error {mp.nstr(err, 3)}"


def _big_omega(n):
    """The number of prime factors of n, counted with multiplicity."""
    count, p = 0, 2
    while n > 1:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    sigma=st.floats(min_value=-22, max_value=8),
    t=st.one_of(st.just(0.0), st.floats(min_value=-60, max_value=60)),
    N=st.integers(min_value=2, max_value=300),
    W=st.integers(min_value=60, max_value=400),
)
# the kernel's integer steps (d = 0, +-1, 2 of omega's rows, d = 2m + 3 = 43
# of nu_20's) take the same path as any other; an mpc sigma is the step itself
@example(sigma=0, t=0, N=300, W=257)
@example(sigma=1, t=0, N=97, W=130)
@example(sigma=-1, t=0, N=300, W=257)
@example(sigma=2, t=0, N=2, W=60)
@example(sigma=43, t=0, N=97, W=130)
@example(sigma=mpc(-1, 0), t=0, N=300, W=257)
def test_power_table_matches_per_entry_powers(sigma, t, N, W):
    # one rounded exp(-x ln p) per prime and one rounded product per
    # composite keep each entry within sqrt(2) Omega(n) units of 2^-W of
    # n^(-x), relative to |n^(-x)| where that exceeds 1
    mp.dps = 30
    x = mpc(sigma, t) if t else mp.mpmathify(sigma)
    ((re, im),) = _power_tables([x], N, W)
    if mp.im(x) == 0:
        assert im == [0] * N
    with mp.workprec(W + 60):
        for n in range(1, N + 1):
            want = _npow(n, x)
            err = mp.hypot(
                re[n - 1] - mp.ldexp(mp.re(want), W), im[n - 1] - mp.ldexp(mp.im(want), W)
            )
            assert err <= mp.sqrt(2) * _big_omega(n) * max(1, abs(want)), (n, mp.nstr(err, 3))


@pytest.mark.parametrize("dps", [34, 60])
@pytest.mark.parametrize(
    "a0, h",
    [
        (mpc("3.1", "-2.0"), mpf("0.0511")),
        (mpc("-2.5", "0.3"), mpf("0.0511")),
        (mpc("5.5", "0"), mpf("0.0511")),
        # lines between the poles on the negative axis, a half-integer apart
        (mpf(1) / 2 - 2, mpf("-0.0511")),
        (mpf(1) / 2 - 5, mpf("-0.0511")),
    ],
    ids=["a00", "a01", "a02", "negz-M2", "negz-M5"],
)
def test_gamma_line_matches_pointwise(dps, a0, h):
    # node k of the line is a0 + i k h, at the working precision
    mp.dps = dps
    values = _gamma_line(a0, h, LINE_NODES[-1])
    for k in LINE_NODES:
        w = a0 + mpc(0, k * h)
        with mp.workdps(dps + 10):
            want = gamma_complex(w)
        rel = abs(values[k] - want) / abs(want)
        assert rel < mpf(10) ** (3 - dps), f"dps={dps} node {k}: relative error {mp.nstr(rel, 3)}"


def _assert_gamma_pointwise(values, M, h, nodes):
    """values[k] against Gamma(1/2 - M - i k h) at 10 more digits."""
    dps = mp.dps
    for k in nodes:
        with mp.workdps(dps + 10):
            want = mp.gamma(mpf(1) / 2 - M - mpc(0, k * h))
        rel = abs(values[k] - want) / abs(want)
        assert rel < mpf(10) ** (3 - dps), f"dps={dps} M={M} node {k}: relative error {mp.nstr(rel, 3)}"


@pytest.mark.parametrize("dps, h", [(30, "0.5"), (60, "0.5"), (60, "0.3711"), (150, "0.2956")])
@pytest.mark.parametrize("M", [2, 5, 10, 17])
def test_neg_z_line_matches_pointwise(dps, h, M):
    # Gamma(-z) on the contour z = M - 1/2 + i k h, derived from the kept line
    # Gamma(1/2 + i k h) and the rising product (1/2 + i k h)_M
    mp.dps = dps
    witten_zeta._HALF_GAMMA.clear()
    _assert_gamma_pointwise(_neg_z_line(M, mpf(h), 120), M, mpf(h), (0, 1, 37, 120))


def test_neg_z_line_extends_the_kept_line_and_keeps_one_entry():
    mp.dps = 60
    h = mpf("0.5")
    witten_zeta._HALF_GAMMA.clear()
    short = _neg_z_line(5, h, 20)
    longer = _neg_z_line(10, h, 90)  # a later call at another M needs a longer line
    ((key, line),) = witten_zeta._HALF_GAMMA.items()
    assert key == (mp.prec, h) and len(line) == 91
    _assert_gamma_pointwise(longer, 10, h, (0, 20, 21, 90))
    # the extended line is the line built in one go, bit for bit
    witten_zeta._HALF_GAMMA.clear()
    assert _neg_z_line(10, h, 90) == longer
    assert _neg_z_line(5, h, 20) == short
    # a precision switch replaces the entry
    mp.dps = 150
    h = mpf("0.2956")
    values = _neg_z_line(17, h, 40)
    assert list(witten_zeta._HALF_GAMMA) == [(mp.prec, h)]
    _assert_gamma_pointwise(values, 17, h, (0, 40))


def test_mb_values_do_not_depend_on_call_history():
    # the kept Gamma line is the one piece of state an mb evaluation reads;
    # whether it was emptied, replaced at another precision or extended by
    # a longer line at another M, every value and claim keeps its bits
    points = [mpf("0.8"), mpf(-2), mpc("0.3", "2")]

    def run():
        mp.dps = 60
        return [(r.value, r.est_error) for r in (omega_result(s, method="mb") for s in points)]

    witten_zeta._HALF_GAMMA.clear()
    fresh = run()
    mp.dps = 100
    omega_result(mpf("0.8"), method="mb")
    assert run() == fresh
    mp.dps = 60
    omega_result(mpc("0.3", "30"), method="mb")
    omega_result(mpf("0.8"), method="mb", M=5)
    omega_result(mpc("0.3", "2"), method="mb", M=9)
    assert run() == fresh


def test_bernoulli_table_is_exact():
    table = _bernoulli_over_factorial(60)
    assert table == [bernoulli_fraction(2 * r) / math.factorial(2 * r) for r in range(1, 61)]


@pytest.mark.parametrize("s", [mpc("1.25", "3.7"), mpc("1.9", "-4.4"), mpc("1.55", "0.6")])
def test_overlap_strip_routes_agree_within_their_error_estimates(s):
    mb = omega_result(s, method="mb")
    direct = omega_result(s, method="direct")
    diff = abs(mb.value - direct.value)
    assert diff <= mb.est_error + direct.est_error, (
        f"s={s}: |mb - direct| = {mp.nstr(diff, 3)} exceeds "
        f"est_error(mb) + est_error(direct) = {mp.nstr(mb.est_error + direct.est_error, 3)}"
    )


# -- the pole-corrected trapezoid rule of the continuation -----------------------
#
# On the line z = c + i t the continuation sums T = (h/(2 pi)) sum_k f(c + i k h)
# and subtracts sum_p Res_p * _pole_weight(z_p, c, h) over the poles of f.


def test_pole_weight_reproduces_the_lorentzian_trapezoid_sum():
    # f(z) = 1/(a^2 - (z-c)^2) is 1/(t^2 + a^2) on the line, whose trapezoid
    # sum is h sum_k 1/((kh)^2 + a^2) = (pi/a) coth(pi a/h) and whose integral
    # is pi/a; the residues are +1/(2a) at c - a and -1/(2a) at c + a
    mp.dps = 40
    c, h, a = mpf("2.5"), mpf("0.25"), mpf("0.6")
    trapezoid = mp.coth(mp.pi * a / h) / (2 * a)
    integral = 1 / (2 * a)
    correction = (_pole_weight(c - a, c, h) - _pole_weight(c + a, c, h)) / (2 * a)
    assert abs(correction) > mpf("1e-7")  # the check below is not vacuous
    assert abs(trapezoid - integral - correction) < mpf("1e-38")


def test_pole_weight_handles_complex_poles_on_either_side():
    # f(z) = e^((z-c)^2) / ((z-p)(z-q)) = e^(-t^2) / ... on the line, with
    # p left of it and q right of it, both off the real axis; the trapezoid
    # error of e^(-t^2) alone is about 2 e^(-pi^2/h^2) < 1e-47
    mp.dps = 40
    c, h = mpf("1.5"), mpf("0.3")
    p, q = mpc("0.8", "0.37"), mpc("2.3", "-1.13")

    def f(z):
        return mp.exp((z - c) ** 2) / ((z - p) * (z - q))

    trapezoid = h / (2 * mp.pi) * mp.fsum(f(c + mpc(0, k) * h) for k in range(-60, 61))
    integral = mp.quad(lambda t: f(c + mpc(0, t)), [-mp.inf, 0, mp.inf]) / (2 * mp.pi)
    res_p = mp.exp((p - c) ** 2) / (p - q)
    res_q = mp.exp((q - c) ** 2) / (q - p)
    correction = res_p * _pole_weight(p, c, h) + res_q * _pole_weight(q, c, h)
    assert abs(correction) > mpf("1e-8")
    assert abs(trapezoid - integral - correction) < mpf("1e-34")


@pytest.mark.parametrize("dps", [30, 60])
@pytest.mark.parametrize(
    "a, x, M",
    [("0.7", "1", 2), ("2.5", "0.5", 3), ("1.3", "2", 4), ("0.3", "1", 1), ("0.7+0.4j", "0.8+0.3j", 3)],
)
def test_trapezoid_meets_its_claim_on_barnes_integral(dps, a, x, M):
    # Barnes' integral for the binomial (DLMF 15.6.6 with b = c), its line
    # moved right past the poles z = k < M of Gamma(-z):
    #   (1/(2 pi i)) integral over Re z = M - 1/2 of Gamma(a+z) Gamma(-z) x^z dz
    #       = Gamma(a) (1+x)^(-a) - sum_(k<M) (-1)^k Gamma(a+k) x^k / k!,
    # by the kernel with mb's step and mb's pole band, and no zeta.  The
    # residues are -(-1)^k Gamma(a+k) x^k/k! at z = k and
    # (-1)^k Gamma(a+k) x^(-a-k)/k! at z = -a - k.  A complex a or x makes
    # the lower half-line its own list, so the reflection is tested too
    mp.dps = dps
    D = -(-dps // 3)
    a, x, c = mp.mpmathify(a), mp.mpmathify(x), M - mpf(1) / 2
    h = mpf(min(_QUAD_STEP, 2 * math.pi * 0.9 * (_POLE_BAND - 0.5) / (math.log(10) * (D + 4))))

    def f(z):
        return mp.gamma(a + z) * mp.gamma(-z) * x**z

    def lines(K):
        upper = [f(c + mpc(0, k) * h) for k in range(K + 1)]
        if mp.im(a) == 0 and mp.im(x) == 0:
            return upper, upper
        return upper, [mp.conj(f(c - mpc(0, k) * h)) for k in range(K + 1)]

    def log_size(t):
        return float(max(mp.log(abs(f(c + mpc(0, t)))), mp.log(abs(f(c - mpc(0, t))))))

    T, est = _trapezoid(lines, log_size, h, D)
    weight = [(-1) ** k * mp.gamma(a + k) / mp.factorial(k) for k in range(M + _POLE_BAND)]
    poles = [(k, -weight[k] * x**k) for k in range(M + _POLE_BAND)]
    poles += [(-a - k, weight[k] * x ** (-a - k)) for k in range(_POLE_BAND)]
    correction = mp.fsum(res * _pole_weight(z, c, h) for z, res in poles)
    exact = mp.gamma(a) * (1 + x) ** -a - mp.fsum(weight[k] * x**k for k in range(M))
    # errors 2e-18 to 1e-17 at 30 digits, 2e-28 to 1e-27 at 60; the pole
    # terms alone move the value by 2e-3 to 7e-2
    assert est < mpf(10) ** -(D + 3)
    assert abs(correction) > 2 * est
    err = abs(T - correction - exact)
    assert err <= est, (mp.nstr(err, 3), mp.nstr(est, 3), mp.nstr(abs(correction), 3))


def _mb_honesty_points():
    """(s, M) pairs, built at 30 digits so that a point reads the same at
    every higher precision."""
    with mp.workdps(30):
        # in each region of Re s one real and one complex point, seeded
        rng = random.Random(20141)
        points = []
        for lo, hi in [(1.1, 2.0), (0.05, 1.05), (-2.4, -0.1)]:
            points.append((mpf(round(rng.uniform(lo, hi), 4)), None))
            points.append((mpc(round(rng.uniform(lo, hi), 4), round(rng.uniform(-3, 3), 4)), None))
        points += [
            (mpf(-2), None),  # integer point: evaluated at s + epsilon
            (mpf(2) / 3 + mpf("1e-5"), None),  # near the pole at 2/3
            (mpf(1) / 2 + mpf("2e-6"), None),  # near the pole at 1/2
            (mpf(-3) / 2 + mpf("2e-6"), None),  # near the pole at -3/2
            (mpf("-0.3"), 3),  # a Gamma(s+z) pole 2.2 left of the line
            (mpf("0.2"), 2),  # Gamma(s+z) poles 1.7 and 2.7 left of the line
        ]
    return points


def test_mb_error_claim_holds_against_reruns():
    # each value at 60 and 30 digits against a rerun at 2 * dps + 20 digits
    # at the point the continuation evaluated; integer points move by an
    # epsilon that depends on the precision, elsewhere the 140-digit rerun
    # also serves the 30-digit value
    for s, M in _mb_honesty_points():
        reruns = {}
        for dps in (60, 30):
            mp.dps = dps
            res = omega_result(s, method="mb", M=M)
            if res.s_evaluated not in reruns:
                mp.dps = 2 * dps + 20
                reruns[res.s_evaluated] = omega_result(res.s_evaluated, method="mb", M=M).value
                mp.dps = dps
            err = abs(res.value - reruns[res.s_evaluated])
            assert err <= res.est_error, (
                f"s={s}, M={M}, dps={dps}: |value - rerun| = {mp.nstr(err, 3)} exceeds "
                f"est_error {mp.nstr(res.est_error, 3)}"
            )


def test_mb_contour_lines_stay_short(monkeypatch):
    # with the poles within _POLE_BAND corrected, the step is 0.5 at 60 digits
    # (the cap) and about 0.3 at 150, so omega(0.8) builds lines of 41 and 143
    # nodes (an uncorrected rule, whose step the Gamma(-z) poles half a unit
    # from the line cap, needs over 400 at 60 digits).  The length comes from
    # the integrand's Stirling size, so every line is built once, far left at
    # 150 digits too (153 and 159 nodes); the slower half decays like
    # e^(-pi (t - |Im s|/2)), so 0.3 + 30i builds two lines of 71 nodes
    nodes = []

    def counting_gamma_line(a0, h, K):
        nodes.append(K + 1)
        return _gamma_line(a0, h, K)

    monkeypatch.setattr(witten_zeta, "_gamma_line", counting_gamma_line)
    cases = [
        (60, mpf("0.8"), 1, 50),
        (150, mpf("0.8"), 1, 160),
        (150, mpf("-3.7"), 1, 165),
        (150, mpf("-5.3"), 1, 165),
        (60, mpc("0.3", "30"), 2, 80),
    ]
    for dps, s, lines, most in cases:
        mp.dps = dps
        nodes.clear()
        omega_result(s, method="mb")
        assert len(nodes) == lines and max(nodes) <= most, (dps, s, nodes)


def test_mb_contour_at_a_trivial_zero_runs_short_and_low(monkeypatch):
    # T enters omega as T / Gamma(s), and |Gamma(-3 + eps)| is about
    # 1/(6 eps), 10^35 / 6 at 60 digits, so the quadrature's target falls to
    # its floor: one line of at most 20 nodes at 18 digits, where the full
    # target took 42 nodes at 34 digits (dps 60) and 152 at 64 (dps 150).
    # Away from the integers |Gamma(s)| hides nothing and the line keeps its
    # length
    nodes = []

    def counting_gamma_line(a0, h, K):
        nodes.append((K + 1, mp.dps))
        return _gamma_line(a0, h, K)

    monkeypatch.setattr(witten_zeta, "_gamma_line", counting_gamma_line)
    for dps in (60, 150):
        mp.dps = dps
        nodes.clear()
        omega_result(mpf(-3), method="mb")
        assert len(nodes) == 1 and nodes[0][0] <= 20 and nodes[0][1] <= 20, (dps, nodes)
    mp.dps = 60
    nodes.clear()
    omega_result(mpf("0.1"), method="mb")
    assert [k for k, _ in nodes] == [41], nodes


def test_mb_value_holds_when_the_step_halves(monkeypatch):
    # at 30 and 60 digits the step sits at its cap _QUAD_STEP; halving the
    # cap must move no value by more than a hundredth of its claim (at most
    # 2e-3 measured).  The points reach right of the overlap strip, far left
    # and high up; seeded points, built at 30 digits, join them
    with mp.workdps(30):
        rng = random.Random(20221)
        points = [mpf("12.3"), mpf(-5), mpc("-3.7", "0.2"), mpc("4.3", "20")]
        points += [mpc(round(rng.uniform(-4, 8), 3), round(rng.uniform(-12, 12), 3)) for _ in range(2)]
    for dps in (30, 60):
        mp.dps = dps
        coarse = [omega_result(s, method="mb") for s in points]
        monkeypatch.setattr(witten_zeta, "_QUAD_STEP", witten_zeta._QUAD_STEP / 2)
        fine = [omega_result(s, method="mb").value for s in points]
        monkeypatch.undo()
        for s, res, value in zip(points, coarse, fine):
            moved = abs(res.value - value)
            assert moved <= res.est_error / 100, (
                f"s={s}, dps={dps}: halving the step moved the value by {mp.nstr(moved, 3)}, "
                f"est_error {mp.nstr(res.est_error, 3)}"
            )


@pytest.mark.parametrize("x", ["0.8", "-1.3"])
def test_mb_zero_imaginary_part_gives_the_real_value(x):
    # a complex s on the real axis takes the real path: the same contour half
    # line, folded by Schwarz reflection, so the same bits as real input
    mp.dps = 60
    assert omega_result(mpc(x, 0), method="mb").value == omega_result(mpf(x), method="mb").value
    # an imaginary part below float range still takes the complex path
    assert mp.im(omega(mpc(x, "1e-400"), method="mb")) != 0


def test_mb_error_claim_holds_at_150_digits():
    # the Euler-Maclaurin depth of the zeta lines grows with the precision;
    # at the fixed depth 13 this value was 7.9e-52 off while claiming 8.6e-55
    mp.dps = 150
    res = omega_result(mpf("0.8"), method="mb")
    mp.dps = 260
    err = abs(res.value - omega_result(res.s_evaluated, method="mb").value)
    assert err <= res.est_error, (
        f"|value - rerun| = {mp.nstr(err, 3)} exceeds est_error {mp.nstr(res.est_error, 3)}"
    )


def test_mb_far_left_contour_agrees_with_the_default_shift():
    # M = 30 puts the zeta(s - z) line at Re = -30.8, past Re = -25, where the
    # Euler-Maclaurin depth starts above _EM_DEPTH and the line needs its guard bits
    mp.dps = 60
    s = mpf("-1.3")
    far = omega_result(s, method="mb", M=30)
    default = omega_result(s, method="mb")
    diff = abs(far.value - default.value)
    assert diff <= far.est_error + default.est_error, (
        f"|v_30 - v_default| = {mp.nstr(diff, 3)} exceeds "
        f"est_30 + est_default = {mp.nstr(far.est_error + default.est_error, 3)}"
    )


def test_mb_and_direct_agree_at_large_imaginary_part():
    # the two routes share no code, so this checks the direct route's claim
    # where its rerun (same P and R) cannot; the continuation's own claim is
    # about 1e50 here, since its quadrature target is absolute and |Gamma(s)|
    # is about 1e-75, so for now the bound is wide
    mp.dps = 60
    s = mpc(4, 120)
    mb = omega_result(s, method="mb")
    direct = omega_result(s, method="direct")
    diff = abs(mb.value - direct.value)
    assert diff <= mb.est_error + direct.est_error, (
        f"|mb - direct| = {mp.nstr(diff, 3)} exceeds "
        f"est_error(mb) + est_error(direct) = {mp.nstr(mb.est_error + direct.est_error, 3)}"
    )
