"""Output checks for every workload, and a self-test for each check.

Every check takes the program's outputs and returns ``(ok, detail)``.  The
benchmark counts each call as one attempted check and each ``ok = False`` (or
exception) as one failed check.  :func:`selftest` feeds every check a correct
output and a perturbed one and confirms it accepts the first and rejects the
second; ``run.py`` runs it before measuring anything.

The tolerances are the acceptance criteria of the package (criteria 1, 3 and
8) and the float64-versus-exact agreement stated for the float-count workload.
"""

from __future__ import annotations

import json
import math

from mpmath import mp, mpf

OVERLAP_TOL = mpf("1e-15")
ZERO_TOL = mpf("1e-18")
OMEGA2_TOL = mpf("1e-50")
IDENTITY_TOL = mpf("1e-40")
CLAIMED_DIGITS_MIN = 15
FIT_EXPONENT_MAX = -0.08
LOG_AGREEMENT_TOL = 1e-13


def omega_two_exact():
    """omega(2) = pi^6 / 2835 at the current precision."""
    return mp.pi**6 / 2835


def digits(error, value) -> float:
    """-log10(error / max(|value|, 1)); an exact result counts as 2 * mp.dps."""
    error = abs(mpf(error))
    if error == 0:
        return float(2 * mp.dps)
    return float(-mp.log10(error / max(abs(value), mpf(1))))


def overlap(mb_value, direct_value):
    diff = abs(mb_value - direct_value)
    return diff < OVERLAP_TOL, f"|mb - direct| = {mp.nstr(diff, 3)}"


def trivial_zero(abs_value):
    return abs_value < ZERO_TOL, f"|omega(-n)| = {mp.nstr(abs_value, 3)}"


def omega_two(value):
    diff = abs(value - omega_two_exact())
    return diff < OMEGA2_TOL, f"|omega(2) - pi^6/2835| = {mp.nstr(diff, 3)}"


def claims_digits(value, est_error):
    d = digits(est_error, value)
    return d >= CLAIMED_DIGITS_MIN and mp.isfinite(abs(value)), f"est_error digits = {d:.2f}"


def zeta_identity(residual):
    return residual < IDENTITY_TOL, f"relative residual = {mp.nstr(residual, 3)}"


def dp_equals_oracle(dp, oracle):
    if len(dp) != len(oracle):
        return False, f"lengths {len(dp)} != {len(oracle)}"
    bad = next((i for i, (a, b) in enumerate(zip(dp, oracle)) if a != b), None)
    return bad is None, "equal" if bad is None else f"first mismatch at n = {bad}"


def residuals_decrease(abs_residuals):
    """|R_L(n)| for L = 0, 1, ... must decrease strictly."""
    ok = all(a > b for a, b in zip(abs_residuals, abs_residuals[1:]))
    return ok, "|R_L| = " + ", ".join(mp.nstr(r, 3) for r in abs_residuals)


def fitted_exponent(slope):
    return slope is not None and slope <= FIT_EXPONENT_MAX, f"fitted exponent L=0: {slope}"


def residual_window(residuals):
    """expansion_residual over z = 0.2 * 2^-k must be positive and shrink with z."""
    ok = all(r > 0 for r in residuals) and all(a > b for a, b in zip(residuals, residuals[1:]))
    return ok, "residuals = " + ", ".join(mp.nstr(r, 3) for r in residuals)


def log_agreement(log_float, exact):
    """max over n >= 1 of |log_float[n] - log r(n)| / max(|log r(n)|, 1)."""
    if len(log_float) != len(exact):
        return False, float("inf")
    worst = 0.0
    for n in range(1, len(exact)):
        ref = math.log(exact[n])
        rel = abs(float(log_float[n]) - ref) / max(abs(ref), 1.0)
        if not rel <= worst:  # also catches NaN
            worst = rel if rel == rel else float("inf")
    return worst <= LOG_AGREEMENT_TOL, worst


def first_values(values):
    want = [1, 1, 1, 3, 3, 3, 8, 8]
    return list(values[:8]) == want, f"r(0..7) = {list(values[:8])}"


# -- CLI outputs: each parser raises on anything but the expected shape ----------


def parse_rn(out: str, err: str, n_max: int):
    lines = out.strip().splitlines()
    if lines[0] != "n,r_n" or len(lines) != n_max + 2:
        raise ValueError("rn: bad CSV shape")
    values = [int(line.split(",")[1]) for line in lines[1:]]
    if values[:8] != [1, 1, 1, 3, 3, 3, 8, 8] or "oracle-check: OK" not in err:
        raise ValueError("rn: wrong values or oracle check missing")
    return values


def parse_omega(out: str, err: str, method: str):
    payload = json.loads(out)
    if payload["method"] != method:
        raise ValueError(f"omega: method {payload['method']!r}, expected {method!r}")
    re_, im = (mpf(v) for v in payload["value"])
    est = mpf(payload["est_error"])
    return digits(est, abs(mp.mpc(re_, im)))


def parse_zeros(out: str, err: str, count: int):
    lines = out.strip().splitlines()
    if len(lines) != count + 1 or not lines[-1].startswith("max |omega(-n)|"):
        raise ValueError("verify-zeros: bad shape")
    worst = mpf(lines[-1].rsplit(":", 1)[1])
    if not worst < ZERO_TOL:
        raise ValueError(f"verify-zeros: max |omega(-n)| = {worst}")
    return worst


def parse_identity(out: str, err: str):
    residual = mpf(out.strip().rsplit("=", 1)[1])
    if not residual < IDENTITY_TOL:
        raise ValueError(f"identity residual {residual}")
    return residual


def parse_constants(out: str, err: str, order: int):
    payload = json.loads(out)
    names = ["X", "Y", "A1", "A2", "A3", "A4", "A5"] + [f"C{j}" for j in range(order + 1)]
    if list(payload) != names:
        raise ValueError("constants: wrong keys")
    if not str(payload["A1"]).startswith("6.8582604"):
        raise ValueError("constants: A1 wrong")
    return payload


def parse_compare(out: str, err: str, n_count: int, terms: int):
    lines = out.strip().splitlines()
    if not lines[0].startswith("n,L,log_r_exact") or len(lines) != 1 + n_count * (terms + 1):
        raise ValueError("compare: bad CSV shape")
    for line in lines[1:]:
        fields = line.split(",")
        mpf(fields[2]), mpf(fields[5])
    return lines


def parse_residual(out: str, err: str):
    payload = json.loads(out)
    residual = mpf(payload["residual"])
    if not residual > 0:
        raise ValueError("residual: not positive")
    return payload


def cli_output(parser, returncode: int, out: str, err: str, *args):
    """Exit code 0 and ``parser`` accepts the output."""
    if returncode != 0:
        return False, f"exit code {returncode}: {err.strip()[-200:]}", None
    try:
        parsed = parser(out, err, *args)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"unparseable output: {exc}", None
    return True, "ok", parsed


# -- self-test ----------------------------------------------------------------------


def _cases():
    """(name, good call, perturbed call) for every check; run at 60 digits."""
    w2 = omega_two_exact()
    rn_out = "n,r_n\n" + "".join(f"{n},{v}\n" for n, v in enumerate([1, 1, 1, 3, 3, 3, 8, 8, 10]))
    omega_out = json.dumps({"s": ["0.8", "0.0"], "s_evaluated": ["0.8", "0.0"],
                            "value": ["-1.2", "0.0"], "method": "mb", "est_error": "1e-24"})
    zeros_out = "omega(-1) = 0.0  |.| = 0.0\nmax |omega(-n)| over n=1..1: 1.0e-40\n"
    cst = {k: "1.0" for k in ["X", "Y", "A1", "A2", "A3", "A4", "A5", "C0"]}
    cst["A1"] = "6.85826043"
    cmp_out = "n,L,log_r_exact,log_r_asym,ratio,residual_scaled,fitted_exponent\n3,0,1.0,1.0,1.0,0.1,\n"
    return [
        ("overlap", lambda: overlap(w2, w2 + mpf("1e-20")), lambda: overlap(w2, w2 + mpf("1e-14"))),
        ("trivial_zero", lambda: trivial_zero(mpf("1e-40")), lambda: trivial_zero(mpf("1e-17"))),
        ("omega_two", lambda: omega_two(w2), lambda: omega_two(w2 * (1 + mpf("1e-45")))),
        ("claims_digits", lambda: claims_digits(mpf(1), mpf("1e-24")),
         lambda: claims_digits(mpf(1), mpf("1e-10"))),
        ("zeta_identity", lambda: zeta_identity(mpf(0)), lambda: zeta_identity(mpf("1e-30"))),
        ("dp_equals_oracle", lambda: dp_equals_oracle([1, 1, 3], [1, 1, 3]),
         lambda: dp_equals_oracle([1, 1, 3], [1, 1, 4])),
        ("residuals_decrease", lambda: residuals_decrease([3, 2, 1]),
         lambda: residuals_decrease([3, 1, 2])),
        ("fitted_exponent", lambda: fitted_exponent(-0.12), lambda: fitted_exponent(-0.05)),
        ("residual_window", lambda: residual_window([4, 2, 1]), lambda: residual_window([4, 2, 3])),
        ("log_agreement", lambda: log_agreement([0.0, 0.0, math.log(3)], [1, 1, 3]),
         lambda: log_agreement([0.0, 0.0, math.log(3) * (1 + 1e-12)], [1, 1, 3])),
        ("first_values", lambda: first_values([1, 1, 1, 3, 3, 3, 8, 8, 10]),
         lambda: first_values([1, 1, 1, 3, 3, 3, 8, 9, 10])),
        ("cli rn", lambda: cli_output(parse_rn, 0, rn_out, "oracle-check: OK", 8),
         lambda: cli_output(parse_rn, 0, rn_out.replace("7,8\n", "7,9\n"), "oracle-check: OK", 8)),
        ("cli omega", lambda: cli_output(parse_omega, 0, omega_out, "", "mb"),
         lambda: cli_output(parse_omega, 0, omega_out[:-5], "", "mb")),
        ("cli exit code", lambda: cli_output(parse_omega, 0, omega_out, "", "mb"),
         lambda: cli_output(parse_omega, 2, omega_out, "error", "mb")),
        ("cli zeros", lambda: cli_output(parse_zeros, 0, zeros_out, "", 1),
         lambda: cli_output(parse_zeros, 0, zeros_out.replace("1.0e-40", "1.0e-10"), "", 1)),
        ("cli identity", lambda: cli_output(parse_identity, 0, "residual = 0.0\n", ""),
         lambda: cli_output(parse_identity, 0, "residual = 1.0e-20\n", "")),
        ("cli constants", lambda: cli_output(parse_constants, 0, json.dumps(cst), "", 0),
         lambda: cli_output(parse_constants, 0, json.dumps(dict(cst, A1="6.9")), "", 0)),
        ("cli compare", lambda: cli_output(parse_compare, 0, cmp_out, "", 1, 0),
         lambda: cli_output(parse_compare, 0, cmp_out.replace("0.1,", "x,"), "", 1, 0)),
        ("cli residual", lambda: cli_output(parse_residual, 0, json.dumps({"residual": "1e-5"}), ""),
         lambda: cli_output(parse_residual, 0, json.dumps({"residual": "0.0"}), "")),
    ]


def selftest() -> list[str]:
    """Names of checks that accept a perturbed output or reject a correct one."""
    with mp.workdps(60):
        return [name for name, good, bad in _cases() if not good()[0] or bad()[0]]


if __name__ == "__main__":
    problems = selftest()
    print("check self-test:", "ok" if not problems else "BROKEN " + ", ".join(problems))
    raise SystemExit(1 if problems else 0)
