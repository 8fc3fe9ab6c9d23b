"""Layered benchmark for su3asym.

Usage (from the repository root):

    python3 perfbench/run.py --workload omega-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, tracing off

``--trace 0`` runs rounds of the workload, each in a fresh worker process,
while the next round should end within ``--seconds`` (at least one round),
plus a few set-up-only processes, and reports the end-to-end metrics of
``BENCHMARK.json``.
``--trace 1`` runs one untraced and one traced round and reports the
per-layer metrics, from the spans recorded around the calls into each module.

Every output is checked (see ``checks.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print each metric by name
with its unit, the failed-check ratio and the machine facts.  The full record
of the run (facts, inputs, items, checks and, when traced, every span) is
written to ``.perfbench/<workload>_seed<seed>_trace<t>.json``.

Workers run single-threaded: BLAS/OpenMP thread counts are 1 and mpmath
uses its pure-Python backend (MPMATH_NOGMPY=1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_ONLY_RUNS = 10  # extra set-up samples per untraced run, for a steady median
RUN_BUDGET_S = 175.0  # per workload; a worker still running then is killed


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RN_PREC", None)
    env.update(
        PYTHONPATH=str(SRC),
        MPMATH_NOGMPY="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_worker(workload: str, seed: int, trace: bool, deadline: float, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), "1" if trace else "0"]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: time budget of {RUN_BUDGET_S:.0f} s used up")
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + [repr(spawn)] + (["--setup-only"] if setup_only else []),
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- metrics --------------------------------------------------------------------------


def end_to_end(rounds: list[dict], setup_samples: list[float]) -> dict:
    """Every end-to-end figure of an untraced run; BENCHMARK.json gates a subset.

    ``*_ref`` figures are times divided by the round's reference-loop time
    (see ``worker.reference_loop_s``): the share of a shared host's speed
    swings that hits both cancels.
    """
    secs, refs = defaultdict(list), defaultdict(list)
    for r in rounds:
        for label, t in r["items"]:
            secs[label].append(t)
            refs[label].append(t / r["ref_s"])
    if not secs:  # every round raised before its first item; its failed check is counted
        secs["round"] = [r["wall_s"] for r in rounds]
        refs["round"] = [r["wall_s"] / r["ref_s"] for r in rounds]
    digits = [d for r in rounds for d in r["digits"]] or [0.0]
    checks = [ok for r in rounds for _, ok, _ in r["checks"]]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_ref": statistics.median(r["wall_s"] / r["ref_s"] for r in rounds),
        "item_ref_p50": statistics.median(t for ts in refs.values() for t in ts),
        # the slowest item, each item's figure taken as its median over rounds
        "item_ref_max": max(statistics.median(ts) for ts in refs.values()),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "item_s_p50": statistics.median(t for ts in secs.values() for t in ts),
        "item_s_max": max(statistics.median(ts) for ts in secs.values()),
        "ref_loop_ms": 1000 * statistics.median(r["ref_s"] for r in rounds),
        "failed_ratio": checks.count(False) / len(checks),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in rounds) / 1024,
        "digits_min": min(digits),
    }


def dp_work(limit: int) -> tuple[int, int]:
    """(cell updates, factor applications) of the Euler-product DP up to ``limit``.

    Computed from the input alone: the DP applies (1 - q^d)^-1 once per
    ordered pair (j, k) with d = j k (j + k) / 2 <= limit, and each application
    updates the limit - d + 1 cells a[d..limit].
    """
    cells = factors = 0
    j = 1
    while j**3 <= limit:
        k = j
        while (d := j * k * (j + k) // 2) <= limit:
            mult = 1 if j == k else 2
            cells += mult * (limit - d + 1)
            factors += mult
            k += 1
        j += 1
    return cells, factors


def per_layer(untraced: dict, traced: dict) -> dict:
    import workloads
    from spans import self_times

    spans = traced["spans"]
    own = self_times(spans)
    dur, self_s, first = defaultdict(list), defaultdict(float), {}
    for span, t_own in zip(spans, own):
        name = span["name"]
        dur[name].append(span["end"] - span["start"])
        self_s[name] += t_own
        first.setdefault((span["run"], name), span["end"] - span["start"])

    def p50(name):
        return statistics.median(dur[name]) if dur[name] else 0.0

    def cold(name):
        # the first call in each process: caches are empty there
        firsts = [t for (run, n), t in first.items() if n == name]
        return statistics.median(firsts) if firsts else 0.0

    def module_self(module):
        return sum(t for name, t in self_s.items() if name.startswith(module + "."))

    def dp_limits(name):
        return [s["attrs"]["limit"] for s in spans if s["name"] == name]

    m = {}
    for route in ("omega_direct", "omega_continued"):
        m[f"witten_zeta.{route}.s_p50"] = p50(f"witten_zeta.{route}")
        m[f"witten_zeta.{route}.calls"] = len(dur[f"witten_zeta.{route}"])
    for fn in ("trivial_zeros", "verify_zeta_identity"):
        m[f"witten_zeta.{fn}.s"] = sum(dur[f"witten_zeta.{fn}"])
    for fn in ("gamma_complex", "zeta_complex"):
        m[f"special_functions.{fn}.self_s"] = self_s[f"special_functions.{fn}"]
        m[f"special_functions.{fn}.calls"] = len(dur[f"special_functions.{fn}"])
    for fn in ("r_exact", "log_r_float64", "r_exact_via_exp"):
        m[f"exact_counting.{fn}.s"] = sum(dur[f"exact_counting.{fn}"])
    m["exact_counting.r_exact.cell_updates"] = sum(dp_work(n)[0] for n in dp_limits("exact_counting.r_exact"))
    float_limits = dp_limits("exact_counting.log_r_float64")
    m["exact_counting.log_r_float64.cell_updates"] = sum(dp_work(n)[0] for n in float_limits)
    # each factor application runs cumsums over every residue class mod d,
    # reading and writing the whole float64 array once
    m["exact_counting.float64_bytes_computed"] = sum(16 * (n + 1) * dp_work(n)[1] for n in float_limits)
    m["saddle_expansion.constants.s_cold"] = cold("saddle_expansion.constants")
    m["saddle_expansion.c_constants.s_cold"] = cold("saddle_expansion.c_constants")
    m["harness.compare_table.self_s"] = self_s["harness.compare_table"]
    m["harness.expansion_residual.s"] = sum(dur["harness.expansion_residual"])
    for module in ("witten_zeta", "special_functions", "exact_counting", "saddle_expansion", "harness", "cli"):
        m[f"{module}.self_s"] = module_self(module)
    cli_items = dict(untraced["items"])
    for name, _, _ in workloads.CLI_COMMANDS:
        m[f"cli.{name}.s"] = cli_items.get(f"cli {name}", 0.0)
    m["cli.import_s"] = p50("cli.import")
    m["cli.commands"] = untraced["cli_runs"]
    plain = end_to_end([untraced], [untraced["setup_s"]])
    for name in ("item_ref_p50", "item_ref_max", "wall_s", "item_s_p50", "item_s_max", "ref_loop_ms"):
        m[name] = plain[name]
    m["failed_ratio"] = end_to_end([untraced, traced], [0.0])["failed_ratio"]
    m["trace.overhead_ratio"] = (traced["wall_s"] / traced["ref_s"]) / (untraced["wall_s"] / untraced["ref_s"])
    m["trace.spans"] = len(spans)
    for name in workloads.PROBE_METRICS:
        m[name] = traced["probes"].get(name, 0.0)
    return m


# -- facts ----------------------------------------------------------------------------


def machine_facts(worker_facts: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "su3asym").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        **worker_facts,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- measurement ----------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        untraced = run_worker(workload, seed, False, deadline)
        traced = run_worker(workload, seed, True, deadline)
        rounds, setups = [untraced, traced], []
        values = per_layer(untraced, traced)
        wanted = spec["per_layer"]
    else:
        # another round only if it should end within --seconds (rounds of
        # omega-sweep and cli-readme are longer than that: one round each)
        rounds = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            rounds.append(run_worker(workload, seed, False, deadline))
            now = time.monotonic()
            if now - start + (now - t0) > seconds:
                break
        setups = [r["setup_s"] for r in rounds]
        setups += [run_worker(workload, seed, False, deadline, setup_only=True)["setup_s"]
                   for _ in range(SETUP_ONLY_RUNS)]
        values = end_to_end(rounds, setups)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    checks = [c for r in rounds for c in r["checks"]]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "attempted": len(checks),
        "failed": sum(1 for _, ok, _ in checks if not ok),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "values": values,
        "facts": {**machine_facts(rounds[0]["facts"]), "workload": workload, "seed": seed},
        "inputs": rounds[0]["inputs"],
        "setup_samples": setups,
        "rounds_detail": [{k: r[k] for k in ("wall_s", "ref_s", "items", "checks", "digits", "peak_rss_kb")}
                          for r in rounds],
        "probes": rounds[-1]["probes"],
        "spans": rounds[-1]["spans"],
    }


def report(res: dict, spec: dict) -> None:
    """Every figure of the run by name with its unit, then failed checks and facts."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["omega_digits_min"] = "digits"
    values = dict(res["values"])
    if not res["trace"] and res["workload"] in ("omega-sweep", "cli-readme"):
        values["omega_digits_min"] = values["digits_min"]
    print(f"[{res['workload']}] seed={res['seed']} trace={res['trace']} rounds={res['rounds']} "
          f"checks={res['attempted']} failed={res['failed']}")
    for name, value in values.items():
        gate = "  (not gated)" if not res["trace"] and name not in res["metrics"] else ""
        print(f"  {name:45s} {value:.6g} {units[name]}{gate}")
    for r in res["rounds_detail"]:
        for name, ok, detail in r["checks"]:
            if not ok:
                print(f"  FAILED {name}: {detail}")
    print(f"  facts: {json.dumps(res['facts'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="one workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "su3asym" / "__init__.py").is_file():
        print(f"error: no su3asym sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in chosen):
        print(f"error: unknown workload {args.workload!r}; choose from {names} or 'all'", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    os.environ["MPMATH_NOGMPY"] = "1"
    import checks

    broken = checks.selftest()
    if broken:
        print(f"error: output checks accept perturbed outputs: {broken}", file=sys.stderr)
        return 3

    results = []
    try:
        for workload in chosen:
            results.append(measure(workload, args.seed, seconds, bool(args.trace), spec))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    for res in results:
        report(res, spec)
        path = OUT_DIR / f"{res['workload']}_seed{res['seed']}_trace{res['trace']}.json"
        path.write_text(json.dumps(res, indent=1, default=str))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
