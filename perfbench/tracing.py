"""In-memory span tracer that wraps qillum's functions from outside the package.

Each wrapper is installed where the caller looks the name up: every module
global bound to the wrapped function is replaced, so bounds.chernoff_bound's
inner power_overlap calls and cli's own imported names are both caught.
Methods (CovarianceMatrix validation, the closed-form assembly) are patched
on their class. Nothing in the package changes on disk; `installed` restores
every patched name on exit.

A span records id, parent, op, name, start, end, thread and the type of any
exception it raised. Spans opened in a sweep worker thread hang under the op
that is running, because the benchmark runs one op at a time.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

MODULES = ("cli", "bounds", "states", "symplectic", "fock")
ROOT = "cli.main"
TARGETS = (
    "bounds.illumination_bhattacharyya",
    "bounds.illumination_chernoff",
    "bounds.illumination_states",
    "bounds.bhattacharyya_bound",
    "bounds.chernoff_bound",
    "bounds.power_overlap",
    "bounds.find_crossover",
    "bounds.error_exponent_two_mode",
    "bounds.error_exponent_three_mode",
    "bounds.coherent_exponent_coefficient",
    "states.target_absent_cov",
    "states.target_present_cov",
    "states.two_mode_target_absent_cov",
    "states.two_mode_target_present_cov",
    "states.three_mode_cov",
    "states.tmsv_cov",
    "states.max_three_mode_correlation",
    "states.target_absent_williamson",
    "states.target_present_factorization",
    "states.PresentStateFactorization.williamson",
    "symplectic.williamson_decompose",
    "symplectic.CovarianceMatrix.__post_init__",
    "fock.oracle_overlap",
    "fock.oracle_tail_budget",
    "fock.target_absent_fock",
    "fock.target_present_fock",
    "fock.trace_power_product",
)
BUILDERS = frozenset(
    "states." + n
    for n in ("target_absent_cov", "target_present_cov", "two_mode_target_absent_cov",
              "two_mode_target_present_cov", "three_mode_cov", "tmsv_cov")
)
CLOSED_FORM_ATTEMPTS = frozenset(
    {"states.target_absent_williamson", "states.target_present_factorization"}
)
CLOSED_FORM = CLOSED_FORM_ATTEMPTS | {"states.PresentStateFactorization.williamson"}
FOCK_BUILDS = frozenset({"fock.target_absent_fock", "fock.target_present_fock"})
FOCK_REFUSALS = frozenset({"TailBudgetError", "DimensionCapError"})
# Every metric layer_metrics reports, with its unit; counts and times are per op.
LAYER_UNITS = {
    "cli.main_self_ms": "ms",
    "cli.sweep_parallelism": "ratio",
    "states.self_ms": "ms",
    "states.build_calls": "count",
    "states.build_self_ms": "ms",
    "states.max_correlation_calls": "count",
    "states.closed_form_calls": "count",
    "states.closed_form_self_ms": "ms",
    "states.closed_form_fallback_ratio": "ratio",
    "symplectic.self_ms": "ms",
    "symplectic.williamson_calls": "count",
    "symplectic.williamson_self_ms": "ms",
    "symplectic.cov_validate_calls": "count",
    "symplectic.cov_validate_self_ms": "ms",
    "bounds.self_ms": "ms",
    "bounds.overlap_calls": "count",
    "bounds.overlap_self_ms": "ms",
    "bounds.overlap_failures": "count",
    "bounds.overlaps_per_chernoff": "count",
    "bounds.chernoff_self_ms": "ms",
    "fock.self_ms": "ms",
    "fock.state_builds": "count",
    "fock.builds_per_overlap": "count",
    "fock.present_build_self_ms": "ms",
    "fock.eigensolve_self_ms": "ms",
    "fock.refusals": "count",
    "trace.spans_per_op": "count",
}


class Span(NamedTuple):
    id: int
    parent: int
    op: int
    name: str
    start: float
    end: float
    thread: int
    error: str | None


class Tracer:
    """Collects spans in memory; `op` names the op that new spans belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0  # id of the open top-level span, 0 between ops

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            opens_op = not stack and not self._root
            if opens_op:
                self._root = sid
            stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if opens_op:
                    self._root = 0
                self.spans.append(
                    Span(sid, parent, self.op, name, start, end, threading.get_ident(), error)
                )

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every TARGETS name, wherever a module looks it up, for the block."""
    modules = [importlib.import_module(f"qillum.{m}") for m in MODULES]
    patches = []  # (owner, attribute, original, span name)
    for target in TARGETS:
        home_name, attr = target.split(".", 1)
        home = importlib.import_module(f"qillum.{home_name}")
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(home, cls_name)
            patches.append((cls, method, cls.__dict__[method], target))
            continue
        original = getattr(home, attr)
        patches += [(m, key, original, target) for m in modules
                    for key, value in vars(m).items() if value is original]
    try:
        for owner, key, original, target in patches:
            setattr(owner, key, tracer.wrap(target, original))
        yield
    finally:
        for owner, key, original, _ in reversed(patches):
            setattr(owner, key, original)


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover (any thread)."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(s.start, s.end, children.get(s.id, ()))
            for s in spans}


def layer_metrics(spans, ops: int, main_thread: int) -> dict[str, float]:
    """Per-op layer counts and self times for the five modules."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    module_self_s = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[s.id]
        module_self_s[s.name.split(".")[0]] += own[s.id]
        if s.error is not None:
            errors[(s.name, s.error)] += 1

    def total(names, table):
        return sum(table[n] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    roots = [s for s in spans if s.name == ROOT]
    root_ids = {s.id for s in roots}
    worker_s = sum(s.end - s.start for s in spans
                   if s.parent in root_ids and s.thread != main_thread)
    chernoff_ids = {s.id for s in spans if s.name == "bounds.chernoff_bound"}
    fock_builds = sum(1 for s in spans if s.name in FOCK_BUILDS
                      and by_id.get(s.parent, s).name not in FOCK_BUILDS)
    attempts = total(CLOSED_FORM_ATTEMPTS, calls)
    fallbacks = sum(errors[(n, "AnalyticDomainError")] for n in CLOSED_FORM_ATTEMPTS)
    ms = 1e3 / ops
    return {
        "cli.main_self_ms": self_s[ROOT] * ms,
        "cli.sweep_parallelism": ratio(worker_s, sum(s.end - s.start for s in roots)),
        "states.self_ms": module_self_s["states"] * ms,
        "states.build_calls": total(BUILDERS, calls) / ops,
        "states.build_self_ms": total(BUILDERS, self_s) * ms,
        "states.max_correlation_calls": calls["states.max_three_mode_correlation"] / ops,
        "states.closed_form_calls": attempts / ops,
        "states.closed_form_self_ms": total(CLOSED_FORM, self_s) * ms,
        "states.closed_form_fallback_ratio": ratio(fallbacks, attempts),
        "symplectic.self_ms": module_self_s["symplectic"] * ms,
        "symplectic.williamson_calls": calls["symplectic.williamson_decompose"] / ops,
        "symplectic.williamson_self_ms": self_s["symplectic.williamson_decompose"] * ms,
        "symplectic.cov_validate_calls":
            calls["symplectic.CovarianceMatrix.__post_init__"] / ops,
        "symplectic.cov_validate_self_ms":
            self_s["symplectic.CovarianceMatrix.__post_init__"] * ms,
        "bounds.self_ms": module_self_s["bounds"] * ms,
        "bounds.overlap_calls": calls["bounds.power_overlap"] / ops,
        "bounds.overlap_self_ms": self_s["bounds.power_overlap"] * ms,
        "bounds.overlap_failures":
            sum(n for (name, _), n in errors.items() if name == "bounds.power_overlap") / ops,
        "bounds.overlaps_per_chernoff": ratio(
            sum(1 for s in spans if s.name == "bounds.power_overlap"
                and s.parent in chernoff_ids), len(chernoff_ids)),
        "bounds.chernoff_self_ms": self_s["bounds.chernoff_bound"] * ms,
        "fock.self_ms": module_self_s["fock"] * ms,
        "fock.state_builds": fock_builds / ops,
        "fock.builds_per_overlap": ratio(fock_builds, calls["fock.oracle_overlap"]),
        "fock.present_build_self_ms": self_s["fock.target_present_fock"] * ms,
        "fock.eigensolve_self_ms": self_s["fock.trace_power_product"] * ms,
        "fock.refusals": sum(errors[("fock.oracle_overlap", e)] for e in FOCK_REFUSALS) / ops,
        "trace.spans_per_op": len(spans) / ops,
    }


def write_spans(spans, path) -> None:
    """Write every span once, as gzipped CSV."""
    with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
        writer = csv.writer(fh)
        writer.writerow(Span._fields)
        writer.writerows(spans)
