"""Span recording for the traced benchmark run.

Spans are recorded by wrapping, from outside the package, the public names
one su3asym module imports from another (``harness.r_exact``,
``witten_zeta.gamma_complex``, ...) and the entry points the benchmark calls.
Nothing under ``src/`` knows about tracing; the wrappers are installed only in
a traced process and removed again before its probes run.

A span is ``{"name", "start", "end", "parent", "run", "attrs"}``: times are
``time.perf_counter()`` seconds (CLOCK_MONOTONIC on Linux, so spans from a
CLI subprocess line up with the process that launched it), ``parent`` is the
index of the enclosing span in the same list or ``None``, and ``run`` is the
identifier shared by every span of one traced round.  Spans are kept in
memory and written out with the round's result.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

# prefix of the stderr line on which a traced CLI process hands back its spans
SPANS_MARKER = "PERFBENCH_SPANS "


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.muted = False  # set while the benchmark computes its own references

    def _open(self, name: str, attrs: dict | None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None,
             "parent": parent, "run": self.run_id, "attrs": attrs or {}}
        )
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str | None = None) -> None:
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        if name is not None:
            span["name"] = name
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        idx = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, owner, attr: str, name: str, *, rename=None, attrs_of=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``rename(result)`` may return the span's final name (used to split
        ``omega_result`` by the route it took); ``attrs_of(args, kwargs)``
        returns the span's attributes, e.g. the DP length.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self.muted:
                return original(*args, **kwargs)
            idx = self._open(name, attrs_of(args, kwargs) if attrs_of else None)
            final = None
            try:
                result = original(*args, **kwargs)
                if rename is not None:
                    final = rename(result)
                return result
            finally:
                self._close(idx, final)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def adopt(self, child_spans: list[dict]) -> None:
        """Append spans recorded by a subprocess under the currently open span."""
        base = len(self.spans)
        top = self._stack[-1] if self._stack else None
        for span in child_spans:
            span = dict(span)
            span["parent"] = top if span["parent"] is None else span["parent"] + base
            self.spans.append(span)


def _limit_attr(args, kwargs):
    return {"limit": int(kwargs.get("limit", args[0] if args else -1))}


def _omega_route(result) -> str:
    return "witten_zeta.omega_direct" if result.method == "direct" else "witten_zeta.omega_continued"


def install(tracer: Tracer, cli=None) -> None:
    """Wrap the cross-module names and benchmark entry points of su3asym.

    With ``cli`` given (the imported ``su3asym.cli`` module), the names the
    CLI imports are wrapped too.
    """
    from su3asym import exact_counting as ec
    from su3asym import harness as h
    from su3asym import saddle_expansion as se
    from su3asym import special_functions as sf
    from su3asym import witten_zeta as wz

    dp_names = ("r_exact", "log_r_float64", "r_exact_via_exp")
    sources = {
        "exact_counting": (ec, dp_names),
        "saddle_expansion": (se, ("constants", "c_constants", "saddle_series", "nu_coeff")),
        "harness": (h, ("compare_table", "expansion_residual", "log_G_direct", "asymptotic_log_G")),
        "special_functions": (sf, ("gamma_complex", "zeta_complex")),
        "witten_zeta": (wz, ("trivial_zeros", "verify_zeta_identity", "omega_result")),
    }

    def wrap_as(owner, attr, module_name):
        if attr == "omega_result":
            tracer.wrap(owner, attr, "witten_zeta.omega_result", rename=_omega_route)
        else:
            tracer.wrap(owner, attr, f"{module_name}.{attr}",
                        attrs_of=_limit_attr if attr in dp_names else None)

    originals = {
        (module_name, attr): getattr(mod, attr)
        for module_name, (mod, names) in sources.items()
        for attr in names
    }
    # entry points, looked up on their own module by the benchmark and by
    # same-module callers (omega -> omega_result, trivial_zeros -> omega)
    for (module_name, attr) in originals:
        wrap_as(sources[module_name][0], attr, module_name)
    # names one module imports from another: each importer holds its own
    # reference, which the wrappers above do not replace
    for importer in [wz, se, h] + ([cli] if cli is not None else []):
        for (module_name, attr), original in originals.items():
            if getattr(importer, attr, None) is original:
                wrap_as(importer, attr, module_name)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
