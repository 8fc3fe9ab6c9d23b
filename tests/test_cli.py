"""Command-line interface smoke tests (direct main() invocation)."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

from su3asym import cli
from su3asym.cli import main
from su3asym.exact_counting import EXACT_LIMIT, r_exact_via_exp
from su3asym.harness import asymptotic_log_G, compare_table, log_G_direct
from su3asym.witten_zeta import omega_result


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_rn_json(capsys):
    rc, out, _ = run(capsys, "rn", "--max", "9", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["max"] == 9
    assert payload["values"][:8] == [1, 1, 1, 3, 3, 3, 8, 8]


def test_rn_csv_with_oracle(capsys):
    rc, out, err = run(capsys, "rn", "--max", "5", "--oracle-check")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,r_n"
    assert lines[1:] == ["0,1", "1,1", "2,1", "3,3", "4,3", "5,3"]
    assert "oracle-check: OK" in err


def test_rn_oracle_mismatch_is_reported(capsys, monkeypatch):
    # the check compares the DP with the exp oracle; one changed oracle value
    # must end in status 1, the first differing n on stderr and no table
    def wrong_oracle(limit):
        values = r_exact_via_exp(limit)
        values[3] += 1
        return values

    monkeypatch.setattr(cli, "r_exact_via_exp", wrong_oracle)
    rc, out, err = run(capsys, "rn", "--max", "5", "--oracle-check")
    assert rc == 1
    assert out == ""
    assert err == "oracle-check: MISMATCH at n=3: dp=3 exp=4\n"


def test_rn_rejects_bad_max(capsys):
    rc, _, err = run(capsys, "rn", "--max", "-1")
    assert rc == 2
    assert "error" in err


def test_omega_point_json(capsys):
    rc, out, _ = run(capsys, "omega", "--re", "2", "--method", "direct")
    assert rc == 0
    payload = json.loads(out)
    assert payload["method"] == "direct"
    value = mpf(payload["value"][0])
    mp.dps = 40
    assert abs(value - mp.pi**6 / 2835) < mpf("1e-35")


def test_omega_direct_at_its_threshold(capsys):
    # Re(s) = 1.1 is the direct route's threshold and lies inside its range
    rc, out, err = run(capsys, "omega", "--re", "1.1", "--method", "direct")
    assert rc == 0, err
    assert json.loads(out)["method"] == "direct"
    rc, out, _ = run(capsys, "omega", "--re", "1.1")
    assert rc == 0
    assert json.loads(out)["method"] == "direct"


def test_omega_pole_is_an_error(capsys):
    rc, _, err = run(capsys, "omega", "--re", "0.5")
    assert rc == 2
    assert "pole" in err


def test_omega_beyond_float_range_is_an_error(capsys):
    rc, out, err = run(capsys, "omega", "--re", "1e400")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: s must be finite")


@pytest.mark.parametrize(
    "re_s, im_s, refusal",
    [
        pytest.param(
            "1.5", "805", "the direct route's truncation estimate", id="1.5-805-truncation estimate"
        ),
        pytest.param(
            "40", "1e8", "the zeta row from (119.0 + 3.0e+8j) in steps of 2",
            id="40-1e8-corner zeta row",
        ),
    ],
)
def test_omega_refused_by_the_direct_route_is_an_error(capsys, re_s, im_s, refusal):
    # a claim that leaves no digit, or a corner zeta row (3s - 1, step 2) whose
    # cutoff passes its cap
    rc, out, err = run(capsys, "omega", "--re", re_s, "--im", im_s)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {refusal}")


def test_omega_refused_by_the_continuation_is_an_error(capsys):
    # auto takes mb below Re(s) = 1.1; at this height its zeta lines would
    # need a cutoff far past the cap, and about 2 10^8 contour nodes
    rc, out, err = run(capsys, "omega", "--re", "0.8", "--im", "1e8")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: the zeta row from (3.1 + 2.0e+8j) in steps of (0.0 + 0.5j)")
    assert "cutoff" in err


def test_omega_no_convergence_is_an_error(capsys, monkeypatch):
    # mpmath's NoConvergence is not a ValueError; it must not end in a traceback
    def failing(*args, **kwargs):
        raise mp.NoConvergence("hypergeometric series did not converge")

    monkeypatch.setattr(cli, "omega_result", failing)
    rc, out, err = run(capsys, "omega", "--re", "1.5", "--im", "1e6")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: hypergeometric series did not converge")


def test_omega_modes_are_exclusive(capsys):
    # two modes, or none, end in argparse's usage error and status 2
    for argv in (["--re", "0.8", "--verify-zeros", "2"], []):
        with pytest.raises(SystemExit) as exc:
            main(["omega", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "su3asym omega: error: " in captured.err


def test_omega_numbers_are_checked_in_every_mode(capsys):
    rc, out, err = run(capsys, "omega", "--verify-zeros", "2", "--im", "abc")
    assert rc == 2
    assert out == ""
    assert err == "error: not a real number: 'abc'\n"


def test_omega_verify_zeros(capsys):
    # trivial_zeros returns |omega(-n)|, so each line shows the modulus once
    rc, out, _ = run(capsys, "omega", "--verify-zeros", "2")
    assert rc == 0
    lines = out.splitlines()
    assert [line.split(" = ")[0] for line in lines[:2]] == ["|omega(-1)|", "|omega(-2)|"]
    assert len(lines) == 3 and lines[2].startswith("max |omega(-n)| over n=1..2: ")


def test_omega_verify_zeros_rejects_nonpositive_count(capsys):
    rc, out, err = run(capsys, "omega", "--verify-zeros", "0")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


def test_omega_verify_zeros_rejects_shift_outside_strip(capsys):
    # M = 2 covers 3/4 - M/2 = -1/4 < Re(s) only, so omega(-1) is out of reach
    rc, out, err = run(capsys, "omega", "--verify-zeros", "3", "--M", "2")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: continuation shift M = 2")


def test_omega_mb_with_explicit_shift(capsys):
    # the README line: the continuation at an overlap-strip point with M = 4
    rc, out, _ = run(capsys, "omega", "--re", "1.3", "--im", "1", "--method", "mb", "--M", "4")
    assert rc == 0
    payload = json.loads(out)
    assert payload["method"] == "mb"
    mp.dps = 60
    s = mpc("1.3", "1")
    value = mpc(*(mpf(x) for x in payload["value"]))
    direct = omega_result(s, method="direct")
    assert abs(value - direct.value) <= mpf(payload["est_error"]) + direct.est_error


def test_omega_abbreviated_prec_applies_before_numbers_are_read(capsys):
    # argparse accepts "--pre" for "--prec"; 0.8 must be read at 100 digits
    rc, out, _ = run(capsys, "omega", "--re", "0.8", "--pre", "100", "--method", "mb")
    assert rc == 0
    abbreviated = json.loads(out)
    assert abbreviated["s"] == ["0.8", "0.0"]
    rc, out, _ = run(capsys, "omega", "--re", "0.8", "--prec=100", "--method", "mb")
    assert rc == 0
    assert json.loads(out) == abbreviated


def test_constants_json(capsys):
    rc, out, _ = run(capsys, "constants", "--order", "1")
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"X", "Y", "A1", "A2", "A3", "A4", "A5", "C0", "C1"}
    assert payload["C0"].startswith("2.44629")
    assert payload["X"].startswith("1.17117")


def test_constants_csv_matches_json(capsys):
    rc, out, _ = run(capsys, "constants", "--order", "2", "--format", "csv")
    assert rc == 0
    header, *lines = out.strip().splitlines()
    assert header == "name,value"
    csv_pairs = [tuple(line.split(",")) for line in lines]
    rc, out, _ = run(capsys, "constants", "--order", "2")
    assert rc == 0
    assert csv_pairs == list(json.loads(out).items())
    assert [name for name, _ in csv_pairs] == ["X", "Y", "A1", "A2", "A3", "A4", "A5", "C0", "C1", "C2"]


def test_constants_order_beyond_cap_gives_no_precision_advice(capsys):
    # --prec cannot lift the fixed cap on the C ladder, so the error must not
    # suggest raising the working precision
    rc, out, err = run(capsys, "constants", "--order", "19")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: L 19 exceeds")
    assert "precision" not in err


def test_compare_csv(capsys):
    rc, out, _ = run(capsys, "compare", "--n", "500,1000,2000", "--terms", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,L,log_r_exact")
    assert len(lines) == 7  # header + 3 n values x 2 L values


@pytest.mark.parametrize(
    "n_list, message",
    [("5,x", "expected comma-separated integers, got '5,x'"), (",", "empty integer list")],
)
def test_compare_rejects_a_malformed_n_list(capsys, n_list, message):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--n", n_list])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith(f"argument --n: {message}")


def _significant_digits(text):
    return len(text.lstrip("-").replace(".", "").lstrip("0"))


def test_compare_beyond_exact_cap_prints_float_digits_only(capsys):
    rc, out, _ = run(capsys, "compare", "--n", "60000", "--terms", "1")
    assert rc == 0
    header, *rows = out.strip().splitlines()
    cols = header.split(",")
    assert len(rows) == 2
    for line in rows:
        row = dict(zip(cols, line.split(",")))
        for name in ("log_r_exact", "ratio", "residual_scaled"):
            assert _significant_digits(row[name]) <= 15, (name, row[name])
    last = dict(zip(cols, rows[-1].split(",")))
    assert last["L"] == "1"
    assert abs(mpf(last["ratio"]) - 1) < mpf("0.05")


def test_compare_beyond_float64_range_is_an_error(capsys):
    # r(234313) is the first count beyond float64's range
    rc, out, err = run(capsys, "compare", "--n", "240000", "--terms", "0")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: float64 DP overflowed")
    assert "Traceback" not in err


def test_residual_json(capsys):
    rc, out, _ = run(capsys, "residual", "--z", "0.1", "--eta", "1.25")
    assert rc == 0
    payload = json.loads(out)
    assert mpf(payload["residual"]) > 0
    assert mpf(payload["residual_over_abs_z_eta"]) > 0


def test_residual_at_a_complex_point(capsys):
    rc, out, _ = run(capsys, "residual", "--z", "0.05,0.02", "--eta", "2.25")
    assert rc == 0
    payload = json.loads(out)
    assert payload["z"] == ["0.05", "0.02"]
    z = mpc("0.05", "0.02")
    want = abs(log_G_direct(z) - asymptotic_log_G(z, mpf("2.25")))
    assert payload["residual"] == mp.nstr(want, 12)


def test_residual_at_a_point_with_zero_imaginary_part_is_the_real_point(capsys):
    # RE,0 reads as the real RE
    rc, out, _ = run(capsys, "residual", "--z", "0.05,0", "--eta", "1.25")
    assert rc == 0
    rc_real, out_real, _ = run(capsys, "residual", "--z", "0.05", "--eta", "1.25")
    assert rc_real == 0
    assert out == out_real


def test_residual_checks_eta_before_the_direct_sum(capsys, monkeypatch):
    # and z: the direct sum at a point outside the cone takes seconds
    def no_direct_sum(z):
        raise AssertionError("log_G_direct ran for an input the expansion refuses")

    monkeypatch.setattr(cli, "log_G_direct", no_direct_sum)
    for z, eta, error in [
        ("0.05", "1.5", "error: eta = 1.5 is a half-integer"),
        ("0.000001,0.0001", "2.25", "error: z must lie in the cone"),
    ]:
        rc, out, err = run(capsys, "residual", "--z", z, "--eta", eta)
        assert rc == 2
        assert out == ""
        assert err.startswith(error)


def _package_env():
    """The environment of a subprocess that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_importing_the_cli_does_not_load_numpy():
    # Every command pays for what the CLI module imports; numpy loads only
    # when a count is computed
    code = "import su3asym.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=_package_env(), check=True, timeout=60)


@pytest.mark.parametrize(
    "argv, status",
    [(["rn", "--max", "3"], 0), (["omega", "--verify-zeros", "0"], 2)],
    ids=["rn", "bad-count"],
)
def test_the_cli_runs_as_a_module(argv, status):
    # python -m su3asym.cli, as perfbench starts it, exits with main's status
    done = subprocess.run(
        [sys.executable, "-m", "su3asym.cli", *argv],
        env=_package_env(),
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == status, done.stderr


def test_residual_refuses_an_eta_past_the_least_term():
    # the sum of 10^6 nu_m that this eta asks for did not return
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "su3asym.cli", "residual", "--z", "0.1", "--eta", "1e6"],
        env=_package_env(),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert time.perf_counter() - start < 1
    assert done.returncode == 2
    assert done.stderr.startswith("error: eta = 1000000.0 would sum"), done.stderr


def test_residual_bad_z(capsys):
    rc, _, err = run(capsys, "residual", "--z", "-0.1", "--eta", "1.25")
    assert rc == 2
    assert "z must lie in the cone" in err


def test_residual_rejects_a_point_of_three_parts(capsys):
    rc, out, err = run(capsys, "residual", "--z", "1,2,3", "--eta", "2.25")
    assert rc == 2
    assert out == ""
    assert "expected RE or RE,IM, got '1,2,3'" in err


def test_prec_floor_enforced(capsys):
    rc, _, err = run(capsys, "constants", "--prec", "10")
    assert rc == 2
    assert "working precision" in err


def test_compare_formats_each_row_by_its_count_source(capsys):
    # the harness decides which rows are counted in float64; the CLI prints
    # those to 15 significant digits and the exact rows to full precision
    n_list = [2000, EXACT_LIMIT + 1]
    table = compare_table(n_list, 1)
    assert [(row.n, row.source) for row in table.rows] == [
        (2000, "exact"),
        (2000, "exact"),
        (EXACT_LIMIT + 1, "float64"),
        (EXACT_LIMIT + 1, "float64"),
    ]
    rc, out, _ = run(capsys, "compare", "--n", ",".join(map(str, n_list)), "--terms", "1")
    assert rc == 0
    header, *lines = out.strip().splitlines()
    cols = header.split(",")
    assert len(lines) == len(table.rows)
    for row, line in zip(table.rows, lines):
        printed = dict(zip(cols, line.split(",")))
        assert (int(printed["n"]), int(printed["L"])) == (row.n, row.L)
        for name in ("log_r_exact", "ratio", "residual_scaled"):
            digits = _significant_digits(printed[name])
            if row.source == "float64":
                assert digits <= 15, (name, printed[name])
                assert abs(mpf(printed[name]) - getattr(row, name)) < mpf("1e-9")
            else:
                assert digits > 40, (name, printed[name])
                assert printed[name] == mp.nstr(getattr(row, name), mp.dps)


def _readme_command_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = [
        shlex.split(line.split("#", 1)[0])[1:]
        for line in section.splitlines()
        if line.startswith("su3asym ")
    ]
    assert lines, "README § Command line lists no su3asym lines"
    return lines


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=" ".join)
def test_readme_command_line(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    assert out.strip()
