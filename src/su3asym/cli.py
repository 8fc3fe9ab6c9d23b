"""Command-line interface for the package.

Subcommands
-----------

``rn``
    Exact values of r(n) (the number of SU(3) representations of dimension n)
    for n = 0..N, as CSV or JSON, with an optional cross-check against the
    independent exact-integer reconstruction through exp(log G).

``omega``
    Evaluate omega(s) = sum_{j,k>=1} 1/(j^s k^s (j+k)^s) at a point (direct
    summation, contour-integral continuation, or automatic choice), or run
    the built-in checks (trivial zeros, even-argument zeta identity).

``constants``
    The expansion constants X, Y, A1..A5 and the correction coefficients
    C_0..C_L, as JSON or CSV.

``compare``
    Counts (exact to n = 50000, float64 beyond) vs the truncated asymptotic
    expansion at chosen n, as CSV, including the scaled residuals R_L and
    their fitted decay exponents.

``residual``
    Log G(e^(-z)) computed directly from the dimension spectrum vs the
    truncated asymptotic form, and the scaled difference |residual|/|z|^eta.

All numerical output is produced at the current working precision (default
60 significant digits; override with the per-command ``--prec`` flag).
argparse keeps numbers as text; ``main`` converts every number after setting
the precision, so every digit given on the command line is kept.  Malformed
numbers and library errors (``ValueError``, ``OverflowError``, poles of omega
and mpmath's ``NoConvergence``) print ``error: ...`` and exit with 2, as do
argparse's own usage errors, such as two ``omega`` modes at once.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from mpmath import mp, mpc, mpf

from .exact_counting import EXACT_LIMIT, FLOAT64_LIMIT, r_exact, r_exact_via_exp
from .harness import asymptotic_log_G, compare_table, log_G_direct
from .precision import DEFAULT_DIGITS, MIN_DIGITS, set_working_digits, working_digits
from .saddle_expansion import c_constants, constants
from .witten_zeta import WittenZetaPoleError, omega_result, trivial_zeros, verify_zeta_identity

__all__ = ["main"]

#: Cap on the prefix length re-checked by ``rn --oracle-check``: the
#: exp(log G) reconstruction costs O(N^2) big-integer products, so the
#: cross-check is run on min(N, _ORACLE_CHECK_CAP) terms.
_ORACLE_CHECK_CAP = 400


def _nstr(x, digits=None):
    """Render an mpmath number as a plain decimal string."""
    if digits is None:
        digits = working_digits()
    return mp.nstr(x, digits)


def _real(text: str) -> mpf:
    try:
        return mpf(text)
    except ValueError as exc:
        raise ValueError(f"not a real number: {text!r}") from exc


def _point(text: str):
    """'RE' or 'RE,IM' as an mpf/mpc at the current precision."""
    parts = text.split(",")
    if len(parts) == 1:
        return _real(parts[0])
    if len(parts) == 2:
        re, im = _real(parts[0]), _real(parts[1])
        if im == 0:
            return re
        return mpc(re, im)
    raise ValueError(f"expected RE or RE,IM, got {text!r}")


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty integer list")
    return values


def _complex_pair(z) -> list[str]:
    """JSON-friendly [re, im] pair of decimal strings."""
    zc = mpc(z)
    return [_nstr(zc.real), _nstr(zc.imag)]


# -- subcommand implementations ------------------------------------------------------


def _cmd_rn(args) -> int:
    n_max = args.max
    values = r_exact(n_max)
    if args.oracle_check:
        k = min(n_max, _ORACLE_CHECK_CAP)
        oracle = r_exact_via_exp(k)
        if oracle != values[: k + 1]:
            bad = next(i for i in range(k + 1) if oracle[i] != values[i])
            print(
                f"oracle-check: MISMATCH at n={bad}: dp={values[bad]} exp={oracle[bad]}",
                file=sys.stderr,
            )
            return 1
        print(f"oracle-check: OK for n <= {k}", file=sys.stderr)
    if args.format == "json":
        json.dump({"max": n_max, "values": values}, sys.stdout)
        sys.stdout.write("\n")
    else:
        out = sys.stdout
        out.write("n,r_n\n")
        for n, v in enumerate(values):
            out.write(f"{n},{v}\n")
    return 0


def _cmd_omega(args) -> int:
    if args.verify_zeros is not None:
        k = args.verify_zeros
        zeros = trivial_zeros(k, M=args.M)  # |omega(-n)|, n = 1..k
        for n, mag in enumerate(zeros, start=1):
            print(f"|omega(-{n})| = {_nstr(mag, 6)}")
        print(f"max |omega(-n)| over n=1..{k}: {_nstr(max(zeros), 6)}")
        return 0
    if args.verify_identity is not None:
        n = args.verify_identity
        residual = verify_zeta_identity(n)
        print(f"even-argument identity at n={n}: relative residual = {_nstr(residual, 6)}")
        return 0
    s = mpc(args.re, args.im) if args.im != 0 else args.re
    res = omega_result(s, method=args.method, M=args.M)
    payload = {
        "s": _complex_pair(res.s),
        "s_evaluated": _complex_pair(res.s_evaluated),
        "value": _complex_pair(res.value),
        "method": res.method,
        "est_error": _nstr(res.est_error, 6),
    }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_constants(args) -> int:
    order = args.order
    cs = c_constants(order)
    cst = constants()
    named = [(f.name, getattr(cst, f.name)) for f in fields(cst) if f.name != "C0"]
    named.extend((f"C{j}", cs[j]) for j in range(order + 1))
    if args.format == "csv":
        sys.stdout.write("name,value\n")
        for name, value in named:
            sys.stdout.write(f"{name},{_nstr(value)}\n")
    else:
        json.dump({name: _nstr(value) for name, value in named}, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def _cmd_compare(args) -> int:
    table = compare_table(args.n, args.terms)
    out = sys.stdout
    out.write("n,L,log_r_exact,log_r_asym,ratio,residual_scaled,fitted_exponent\n")
    for row in table.rows:
        fit = table.fitted_exponent.get(row.L)
        fit_str = "" if fit is None else f"{fit!r}"
        counted = (row.log_r_exact, row.ratio, row.residual_scaled)
        if row.source == "float64":
            # float64 count: log r(n) holds 15 significant digits, and the
            # ratio and residual (both of order 1) share its absolute error,
            # so all three stop at its last justified decimal place
            places = 14 - int(mp.floor(mp.log10(row.log_r_exact)))
            log_r, ratio, resid = (f"{float(x):.{places}f}" for x in counted)
        else:
            log_r, ratio, resid = (_nstr(x) for x in counted)
        out.write(
            f"{row.n},{row.L},{log_r},{_nstr(row.log_r_asym)},{ratio},{resid},{fit_str}\n"
        )
    return 0


def _cmd_residual(args) -> int:
    z, eta = args.z, args.eta
    asym = asymptotic_log_G(z, eta)  # checks z and eta before the direct sum
    direct = log_G_direct(z)
    res = abs(direct - asym)
    payload = {
        "z": _complex_pair(z),
        "eta": _nstr(eta),
        "log_g_direct": _complex_pair(direct),
        "log_g_asymptotic": _complex_pair(asym),
        "residual": _nstr(res, 12),
        "residual_over_abs_z_eta": _nstr(res / abs(mpc(z)) ** eta, 12),
    }
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


# -- parser ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su3asym",
        description="Exact SU(3) representation counting and its asymptotic expansion.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--prec",
        type=int,
        default=None,
        metavar="DIGITS",
        help=f"working precision in decimal digits (>= {MIN_DIGITS}; default {DEFAULT_DIGITS})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rn = sub.add_parser("rn", parents=[common], help="exact r(n) for n = 0..N")
    p_rn.add_argument("--max", type=int, required=True, metavar="N", help="largest n to count")
    p_rn.add_argument("--format", choices=("csv", "json"), default="csv")
    p_rn.add_argument(
        "--oracle-check",
        action="store_true",
        help=f"re-derive the first min(N, {_ORACLE_CHECK_CAP}) values in exact integers "
        "through the exp of the logarithmic generating series and compare",
    )
    p_rn.set_defaults(func=_cmd_rn)

    p_om = sub.add_parser("omega", parents=[common], help="evaluate omega(s) or run its checks")
    mode = p_om.add_mutually_exclusive_group(required=True)
    mode.add_argument("--re", help="Re(s)")
    p_om.add_argument("--im", default="0", help="Im(s) (default 0)")
    p_om.add_argument(
        "--method",
        choices=("auto", "direct", "mb"),
        default="auto",
        help="direct double summation, contour-integral continuation (mb), or auto",
    )
    p_om.add_argument(
        "--M",
        type=int,
        default=None,
        help="contour shift of the continuation: it integrates on Re z = M - 1/2 and needs "
        "3/4 - M/2 < Re s < M + 1/2 (default: chosen from Re s)",
    )
    mode.add_argument(
        "--verify-zeros",
        type=int,
        default=None,
        metavar="K",
        help="print omega(-1)..omega(-K), which must all vanish",
    )
    mode.add_argument(
        "--verify-identity",
        type=int,
        default=None,
        metavar="N",
        help="relative residual of the even-argument zeta identity at n=N",
    )
    p_om.set_defaults(func=_cmd_omega)

    p_cs = sub.add_parser("constants", parents=[common], help="expansion constants X, Y, A*, C_j")
    p_cs.add_argument("--order", type=int, default=0, metavar="L", help="emit C_0..C_L (default 0)")
    p_cs.add_argument("--format", choices=("json", "csv"), default="json")
    p_cs.set_defaults(func=_cmd_constants)

    p_cp = sub.add_parser("compare", parents=[common], help="exact counts vs truncated expansion")
    p_cp.add_argument(
        "--n",
        type=_parse_int_list,
        required=True,
        help=f"comma-separated list of n values; counted exactly up to {EXACT_LIMIT}, "
        f"in float64 (15 digits) beyond, up to {FLOAT64_LIMIT}",
    )
    p_cp.add_argument("--terms", type=int, default=2, metavar="L", help="largest C_j order (default 2)")
    p_cp.set_defaults(func=_cmd_compare)

    p_rs = sub.add_parser(
        "residual", parents=[common], help="direct vs asymptotic Log G(e^(-z)) at one z"
    )
    p_rs.add_argument("--z", required=True, help="evaluation point, RE or RE,IM (Re z > 0)")
    p_rs.add_argument("--eta", required=True, help="scaling exponent eta")
    p_rs.set_defaults(func=_cmd_residual)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.prec is not None:
            set_working_digits(args.prec)
        for name, convert in {"re": _real, "im": _real, "z": _point, "eta": _real}.items():
            if getattr(args, name, None) is not None:
                setattr(args, name, convert(getattr(args, name)))
        return args.func(args)
    except (ValueError, OverflowError, WittenZetaPoleError, mp.NoConvergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
