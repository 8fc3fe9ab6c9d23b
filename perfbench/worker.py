"""One round of one workload, in this fresh process; prints one JSON line.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE SPAWN [--setup-only]

SPAWN is the ``time.monotonic()`` reading of the launching process just
before it started this one, so ``setup_s`` covers interpreter start-up, the
import of su3asym and the generation of the inputs.  With TRACE = 1 the
package's cross-module names are wrapped for the round (see ``spans.py``) and
the workload's probes run after it.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

import su3asym.cli  # noqa: F401  (setup: the import every workload pays)
import su3asym.exact_counting  # noqa: F401
import su3asym.harness  # noqa: F401
import su3asym.saddle_expansion  # noqa: F401
import su3asym.witten_zeta  # noqa: F401
import mpmath
from mpmath import mp

import spans
import workloads


def reference_loop_s() -> list[float]:
    """Ten timings of a fixed pure-Python loop: the host's speed now.

    The benchmark runs on shared hosts whose speed swings by tens of percent
    between runs.  Times divided by the mean of this loop's timings over the
    round cancel most of that swing.
    """
    times = []
    for _ in range(10):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return times


class Recorder:
    """Collects item times, check outcomes and accuracy figures of one round.

    A reference-loop sample is taken before the round and after each item;
    ``ref_overhead_s`` is the time the samples took, which the round's wall
    time leaves out.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.refs = reference_loop_s()
        self.ref_overhead_s = 0.0
        self.items: list[tuple[str, float]] = []
        self.checks: list[tuple[str, bool, str]] = []
        self.digits: list[float] = []
        self.omega_points: list[dict] = []
        self.extra: dict = {}
        self.cli_runs = 0

    @contextmanager
    def item(self, label: str):
        t0 = time.perf_counter()
        if self.tracer is None:
            yield
        else:
            with self.tracer.span(f"bench.{label}"):
                yield
        t1 = time.perf_counter()
        self.refs += reference_loop_s()
        self.ref_overhead_s += time.perf_counter() - t1
        self.items.append((label, t1 - t0))

    @contextmanager
    def reference(self):
        """Untraced block: a reference value the benchmark computes for a check."""
        if self.tracer is None:
            yield
            return
        self.tracer.muted = True
        try:
            yield
        finally:
            self.tracer.muted = False

    def check(self, name: str, fn, *args) -> None:
        try:
            ok, detail = fn(*args)[:2]
        except Exception as exc:  # a check that raises counts as failed
            ok, detail = False, f"raised {exc!r}"
        self.checks.append((name, bool(ok), str(detail)))


def main() -> None:
    workload, seed, trace, spawn = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", float(sys.argv[4])
    setup_only = "--setup-only" in sys.argv[5:]
    if mp.dps != workloads.PRECISION:
        raise SystemExit(f"working precision is {mp.dps}, expected {workloads.PRECISION} (unset RN_PREC)")
    inputs = workloads.make_inputs(workload, seed)
    setup_s = time.monotonic() - spawn
    result = {"setup_s": setup_s}
    if not setup_only:
        tracer = spans.Tracer(f"{workload}-seed{seed}") if trace else None
        rec = Recorder(tracer)
        if tracer is not None:
            spans.install(tracer)
        t0 = time.perf_counter()
        try:
            workloads.ROUNDS[workload](rec, inputs)
        except Exception:
            rec.checks.append(("round completed", False, traceback.format_exc(limit=3)))
        wall_s = time.perf_counter() - t0 - rec.ref_overhead_s
        probes = {}
        if tracer is not None:
            tracer.unwrap_all()
            probes = workloads.PROBES[workload](rec, seed)
        import numpy  # only for its version: su3asym imports it lazily, inside the round

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result.update(
            inputs=inputs,
            wall_s=wall_s,
            ref_s=statistics.fmean(rec.refs),
            items=rec.items,
            checks=rec.checks,
            digits=rec.digits,
            # the worker waits for each CLI process, so both are resident together
            peak_rss_kb=own + children,
            cli_runs=rec.cli_runs,
            probes=probes,
            spans=tracer.spans if tracer is not None else [],
            facts={
                "python": sys.version.split()[0],
                "mpmath": mpmath.__version__,
                "mpmath_backend": mpmath.libmp.BACKEND,
                "numpy": numpy.__version__,
            },
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
