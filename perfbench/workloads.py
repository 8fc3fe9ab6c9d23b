"""The four workloads: seeded inputs, one round each, and the traced-run probes.

A round runs in one fresh process (see ``worker.py``).  It calls the package
through module attributes (``wz.omega_result``, ``h.compare_table``, ...) so
that the traced run's wrappers see every call.  ``rec`` is the worker's
recorder: ``rec.item(label)`` times one item, ``rec.check(name, fn, *args)``
counts one output check, ``rec.digits`` collects the digits each checked
floating-point output carries.

Why these workloads (later changes refer to them by name):

* ``omega-sweep``: witten_zeta and special_functions on both omega routes and
  on real (folded) and complex contour integrands, caches warming across
  points.  The workload where omega speed-ups must show.
* ``law-check``: the paper's empirical check of the asymptotic law; big-int
  DP, saddle constants and harness.  witten_zeta is never called, so an omega
  speed-up predicts no change here.
* ``float-count``: the only workload on the float64 counting route.
* ``cli-readme``: every README command line in a fresh process, paying for
  import, argparse and formatting with empty caches.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

from mpmath import mp, mpc, mpf

import checks
from spans import SPANS_MARKER

WORKLOADS = ("omega-sweep", "law-check", "float-count", "cli-readme")

PRECISION = 60
POLES = (2 / 3, 0.5, -0.5, -1.5, -2.5)
POLE_GAP = 0.05

COMPARE_N_MAX = 20000
COMPARE_L = 4
WINDOW_ETA = "2.25"
WINDOW_K = range(7)
ORACLE_N = 200
FLOAT_N = 5000

# every su3asym command line of the README, in README order
CLI_COMMANDS = [
    ("rn", ["rn", "--max", "200", "--format", "csv", "--oracle-check"], (checks.parse_rn, 200)),
    ("omega", ["omega", "--re", "0.8", "--prec", "40"], (checks.parse_omega, "mb")),
    ("omega_mb", ["omega", "--re", "1.3", "--im", "1", "--method", "mb", "--M", "4"],
     (checks.parse_omega, "mb")),
    ("omega_verify_zeros", ["omega", "--verify-zeros", "5"], (checks.parse_zeros, 5)),
    ("omega_verify_identity", ["omega", "--verify-identity", "2"], (checks.parse_identity,)),
    ("constants", ["constants", "--order", "4", "--format", "json"], (checks.parse_constants, 4)),
    ("compare", ["compare", "--n", "5000,10000,20000", "--terms", "2"], (checks.parse_compare, 3, 2)),
    ("residual", ["residual", "--z", "0.05", "--eta", "2.25"], (checks.parse_residual,)),
]
CLI_TIMEOUT_S = 150


# -- inputs ---------------------------------------------------------------------------


def _real_off_poles(rng: random.Random, lo: float, hi: float) -> str:
    while True:
        x = round(lo + (hi - lo) * rng.random(), 6)
        if all(abs(x - p) >= POLE_GAP for p in POLES):
            return repr(x)


def _signed(rng: random.Random, lo: float, hi: float) -> str:
    return repr(round(rng.choice((-1, 1)) * (lo + (hi - lo) * rng.random()), 6))


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs, a pure function of the seed (JSON-serialisable)."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "omega-sweep":
        # one point in the direct region (also evaluated by mb for the overlap
        # check) and a real and a complex point in the continuation-only
        # region; every point keeps >= 0.05 from the poles 2/3 and 1/2 - m
        return {
            "overlap": [repr(round(1.2 + 0.8 * rng.random(), 6)), _signed(rng, 0.5, 5.0)],
            "continued_real": _real_off_poles(rng, -3.0, 1.1),
            "continued_complex": [_real_off_poles(rng, -3.0, 1.1), _signed(rng, 0.5, 2.0)],
            "identity_n": rng.randint(1, 3),
        }
    if workload == "law-check":
        # four n, one per stratum of [2000, 20000), plus the fixed largest n
        ns = [2000 + 4500 * k + rng.randrange(4500) for k in range(4)]
        return {"ns": ns + [COMPARE_N_MAX], "L": COMPARE_L}
    if workload == "float-count":
        order = ["log_r_float64", "r_exact"]
        rng.shuffle(order)
        return {"n": FLOAT_N, "order": order}
    if workload == "cli-readme":
        order = [name for name, _, _ in CLI_COMMANDS]
        rng.shuffle(order)
        return {"order": order}
    raise ValueError(f"unknown workload {workload!r}")


# -- rounds ---------------------------------------------------------------------------


def _omega(rec, label, s, method="auto", reference=None):
    from su3asym import witten_zeta as wz

    with rec.item(label):
        res = wz.omega_result(s, method=method)
    rec.check(f"{label} claims >= {checks.CLAIMED_DIGITS_MIN} digits",
              checks.claims_digits, res.value, res.est_error)
    rec.digits.append(checks.digits(res.est_error, res.value))
    rec.omega_points.append({"label": label, "s": s, "method": res.method,
                             "value": res.value, "est_error": res.est_error,
                             "reference": reference})
    return res


def omega_sweep(rec, inp):
    from su3asym import witten_zeta as wz

    res = _omega(rec, "omega(2)", mpf(2), reference="closed_form")
    rec.check("omega(2) = pi^6/2835", checks.omega_two, res.value)

    with rec.item("trivial_zeros(3)"):
        zeros = wz.trivial_zeros(3)
    for n, value in enumerate(zeros, start=1):
        rec.check(f"|omega(-{n})| < 1e-18", checks.trivial_zero, value)
        rec.omega_points.append({"label": f"omega(-{n})", "s": mpf(-n), "method": "mb",
                                 "value": value, "est_error": None, "reference": "zero"})

    s = mpc(*(mpf(v) for v in inp["overlap"]))
    direct = _omega(rec, "omega direct (overlap)", s, "direct", reference="direct_2x")
    mb = _omega(rec, "omega mb (overlap)", s, "mb", reference="direct_2x")
    rec.check("|mb - direct| < 1e-15", checks.overlap, mb.value, direct.value)

    _omega(rec, "omega continued real", mpf(inp["continued_real"]), reference="mb_2x")
    _omega(rec, "omega continued complex",
           mpc(*(mpf(v) for v in inp["continued_complex"])), reference="mb_2x")

    n = inp["identity_n"]
    with rec.item(f"verify_zeta_identity({n})"):
        residual = wz.verify_zeta_identity(n)
    rec.check(f"zeta identity n={n}", checks.zeta_identity, residual)


def law_check(rec, inp):
    from su3asym import exact_counting as ec
    from su3asym import harness as h
    from su3asym import saddle_expansion as se

    L = inp["L"]
    with rec.item(f"constants + c_constants({L}) cold"):
        se.constants()
        cs = se.c_constants(L)
    with rec.reference(), mp.workdps(2 * PRECISION):
        cs_ref = se.c_constants(L)
    rec.digits.append(min(checks.digits(a - b, b) for a, b in zip(cs, cs_ref)))

    with rec.item(f"compare_table(n<={COMPARE_N_MAX}, L={L})"):
        table = h.compare_table(inp["ns"], L)
    at_max = sorted((row.L, abs(row.residual_scaled)) for row in table.rows if row.n == COMPARE_N_MAX)
    rec.check(f"|R_L({COMPARE_N_MAX})| decreases in L", checks.residuals_decrease,
              [r for _, r in at_max])
    rec.check("fitted exponent L=0 <= -0.08", checks.fitted_exponent, table.fitted_exponent[0])
    rec.extra["fitted_exponent"] = table.fitted_exponent

    eta = mpf(WINDOW_ETA)
    with rec.item("expansion_residual window"):
        residuals = [h.expansion_residual(mpf("0.2") * mpf(2) ** (-k), eta) for k in WINDOW_K]
    rec.check("residual window shrinks with z", checks.residual_window, residuals)

    with rec.item(f"r_exact({ORACLE_N}) vs r_exact_via_exp({ORACLE_N})"):
        dp = ec.r_exact(ORACLE_N)
        oracle = ec.r_exact_via_exp(ORACLE_N)
    rec.check("DP equals exp oracle", checks.dp_equals_oracle, dp, oracle)


def float_count(rec, inp):
    from su3asym import exact_counting as ec

    n = inp["n"]
    out = {}
    for name in inp["order"]:
        with rec.item(f"{name}({n})"):
            out[name] = getattr(ec, name)(n)
    rec.check("r(0..7)", checks.first_values, out["r_exact"])
    ok, worst = checks.log_agreement(out["log_r_float64"], out["r_exact"])
    rec.check("float64 log agrees with exact to 1e-13", lambda: (ok, f"max relative {worst:.3g}"))
    rec.digits.append(checks.digits(mpf(worst), mpf(1)))


def cli_readme(rec, inp):
    here = os.path.dirname(os.path.abspath(__file__))
    specs = {name: (argv, parse) for name, argv, parse in CLI_COMMANDS}
    for name in inp["order"]:
        argv, (parser, *args) = specs[name]
        if rec.tracer is None:
            cmd = [sys.executable, "-m", "su3asym.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(here, "cli_traced.py"), f"{rec.tracer.run_id}/{name}", name, *argv]
        with rec.item(f"cli {name}"):
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            err = proc.stderr
            if rec.tracer is not None:
                lines = err.splitlines()
                if lines and lines[-1].startswith(SPANS_MARKER):
                    rec.tracer.adopt(json.loads(lines[-1][len(SPANS_MARKER):]))
                    err = "\n".join(lines[:-1])
        rec.cli_runs += 1
        ok, detail, parsed = checks.cli_output(parser, proc.returncode, proc.stdout, err, *args)
        rec.check(f"cli {name}", lambda: (ok, detail))
        if ok and parser is checks.parse_omega:
            rec.digits.append(parsed)


ROUNDS = {
    "omega-sweep": omega_sweep,
    "law-check": law_check,
    "float-count": float_count,
    "cli-readme": cli_readme,
}


# -- probes of the traced run (not part of any timed round) ---------------------------


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _omega_accuracy(rec, probes):
    """Digits of each omega result against a rerun at twice the precision."""
    from su3asym import witten_zeta as wz

    true_digits, honest, points = [], [], []
    with mp.workdps(2 * PRECISION):
        refs = {}
        for pt in rec.omega_points:
            kind = pt["reference"]
            if kind == "closed_form":
                ref = checks.omega_two_exact()
            elif kind == "zero":
                ref = mpf(0)
            else:
                key = (kind, str(pt["s"]))
                if key not in refs:
                    method = "direct" if kind == "direct_2x" else "mb"
                    refs[key] = wz.omega_result(pt["s"], method=method).value
                ref = refs[key]
            err = abs(pt["value"] - ref)
            true_digits.append(min(checks.digits(err, ref), 2.0 * PRECISION))
            if pt["est_error"] is not None:
                honest.append(pt["est_error"] >= err)
            points.append({"label": pt["label"], "s": str(pt["s"]), "method": pt["method"],
                           "digits_true": true_digits[-1],
                           "est_error": None if pt["est_error"] is None else float(pt["est_error"]),
                           "true_error": float(err)})
    probes["omega_points"] = points  # kept in the run record, not a metric
    probes["witten_zeta.omega.digits_true_min"] = min(true_digits)
    probes["witten_zeta.omega.est_error_honest"] = sum(honest) / len(honest)


def _pointwise(rng, probes):
    """Median microseconds per gamma_complex / zeta_complex call at 30, 60, 100 digits."""
    from su3asym import special_functions as sf

    points = [mpf(round(0.3 + 3.5 * rng.random(), 6)),
              mpc(round(-2 + 5 * rng.random(), 6), round(1 + 9 * rng.random(), 6)),
              mpc(round(-4 + 3 * rng.random(), 6), round(-3 * rng.random() - 0.5, 6))]
    for name in ("gamma_complex", "zeta_complex"):
        fn = getattr(sf, name)
        for dps in (30, 60, 100):
            with mp.workdps(dps):
                for s in points:  # warm the per-precision caches
                    fn(s)
                times = [_timed(fn, s) for _ in range(3) for s in points]
            probes[f"special_functions.{name}.us_d{dps}"] = 1e6 * statistics.median(times)


def omega_sweep_probes(rec, seed):
    probes = {}
    _omega_accuracy(rec, probes)
    _pointwise(random.Random(f"pointwise/{seed}"), probes)
    return probes


def law_check_probes(rec, seed):
    from su3asym import harness as h
    from su3asym import saddle_expansion as se

    probes = {"saddle_expansion.saddle_series.s": _timed(se.saddle_series, 30)}
    for z in ("0.2", "0.0125", "0.003"):
        probes[f"harness.log_G_direct.s_z{z}"] = statistics.median(
            _timed(h.log_G_direct, mpf(z)) for _ in range(3))
    for L, slope in rec.extra["fitted_exponent"].items():
        probes[f"harness.compare_table.exponent_L{L}"] = slope
    return probes


# per-layer metrics that only a probe of one workload yields; 0 on the others
PROBE_METRICS = (
    "witten_zeta.omega.digits_true_min",
    "witten_zeta.omega.est_error_honest",
    *(f"special_functions.{fn}.us_d{d}" for fn in ("gamma_complex", "zeta_complex") for d in (30, 60, 100)),
    "saddle_expansion.saddle_series.s",
    *(f"harness.log_G_direct.s_z{z}" for z in ("0.2", "0.0125", "0.003")),
    *(f"harness.compare_table.exponent_L{L}" for L in range(COMPARE_L + 1)),
)

PROBES = {
    "omega-sweep": omega_sweep_probes,
    "law-check": law_check_probes,
    "float-count": lambda rec, seed: {},
    "cli-readme": lambda rec, seed: {},
}
