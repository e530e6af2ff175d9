"""qillum benchmark: seeded CLI workloads, set-up probes and a traced layer run.

    python3 perfbench/run.py --workload bounds|sweep|oracle --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
One process drives `qillum.cli.main(argv)` in a closed loop with a single
client and captures what it prints; fresh interpreters are spawned only to
time set-up.

A run first draws the workload's op pool from --seed: each slot of the pool
takes the first candidate op that the checker accepts, and the rejected
candidates are the failed draws that `failed_fraction` reports. The timed
loop then runs the pool round after round for --seconds, and at least
MIN_ROUNDS full rounds. Every timed op is judged outside its timed interval:
its output must equal the accepted output byte for byte, or pass
checker.check. Per-op latency is the best of an op's rounds, which keeps the
figures steady on a host whose speed drifts.

--trace 0 prints the end-to-end metrics. --trace 1 runs every op twice per
round, first untraced and then with every layer wrapped by tracing.Tracer,
and prints the per-layer metrics together with the tracing overhead between
the two. The last stdout line is the JSON result; the lines above it are a
human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MAX_TRIES = 30  # candidates per slot before the run gives up
MIN_ROUNDS = 2  # timed samples per op, at least, in an untraced run
SETUP_SPAWNS = 9
IMPORTTIME_SPAWNS = 3
SPAWN_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
ACCURACY_UNITS = {
    "failed_fraction": "ratio",
    "qb_asymptote_dev_max": "ratio",
    "oracle_gap_max": "ratio",
}
SETUP_UNITS = {"setup.numpy_s": "s", "setup.scipy_s": "s", "setup.qillum_s": "s"}
OVERHEAD_UNITS = {
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead": "ratio",
}
PER_LAYER_UNITS = ACCURACY_UNITS | SETUP_UNITS | tracing.LAYER_UNITS | OVERHEAD_UNITS


@dataclass
class Op:
    argv: list
    rc: int | None
    error: str | None
    out: str
    err: str
    plot: str | None
    seconds: float

    def outcome(self):
        return self.rc, self.error, self.out, self.err, self.plot


def run_op(main, argv: list, plot_path: Path) -> Op:
    """Call main(argv) with stdout/stderr captured; only the call is timed."""
    wants_plot = "--plot" in argv
    if wants_plot:
        plot_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    rc = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    plot = None
    if wants_plot:
        plot = plot_path.read_text(encoding="utf-8") if plot_path.exists() else ""
    return Op(argv, rc, error, out.getvalue(), err.getvalue(), plot, seconds)


def judge(op: Op) -> checker.Verdict:
    return checker.check(op.argv, op.rc, op.error, op.out, op.err, op.plot)


def draw_pool(main, slots, plot_path: Path) -> tuple[list, list]:
    """Run each slot's candidates until the checker accepts one.

    Returns the accepted ops, one per slot, and every (op, verdict) drawn.
    """
    pool, drawn = [], []
    for slot, candidates in enumerate(slots):
        for _ in range(MAX_TRIES):
            op = run_op(main, next(candidates), plot_path)
            verdict = judge(op)
            drawn.append((op, verdict))
            if verdict.ok:
                pool.append(op)
                break
        else:
            raise RuntimeError(f"no candidate of slot {slot} passed in {MAX_TRIES} draws")
    return pool, drawn


class Loop:
    """The closed loop over the pool, one round after another."""

    def __init__(self, pool: list, plot_path: Path):
        self.pool = pool
        self.plot_path = plot_path
        self.attempted = 0
        self.changed = []  # (op, verdict) whose output differs from the accepted one

    def run(self, main, ref: Op) -> float:
        op = run_op(main, ref.argv, self.plot_path)
        self.attempted += 1
        if op.outcome() != ref.outcome():
            self.changed.append((op, judge(op)))
        return op.seconds

    @property
    def failed(self) -> int:
        return sum(not v.ok for _, v in self.changed)


def timed_ops(pool: list, seconds: float, min_rounds: int, between=lambda elapsed: None):
    """Yield (slot, op) round after round until `seconds` have passed.

    At least min_rounds full rounds run first; `between` is called after each
    round with the time elapsed.
    """
    start = time.perf_counter()
    for done in itertools.count():
        for slot, ref in enumerate(pool):
            if done >= min_rounds and time.perf_counter() - start >= seconds:
                return
            yield slot, ref
        between(time.perf_counter() - start)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn_setup(env: dict) -> float:
    """Wall time from spawning a fresh interpreter to `import qillum.cli` done."""
    code = "import qillum.cli, time; print(time.monotonic())"
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=SPAWN_TIMEOUT_S)
    return float(proc.stdout.split()[-1]) - start


def import_breakdown(env: dict) -> dict:
    """Median self import time of numpy, scipy and qillum modules (-X importtime)."""
    samples = {key: [] for key in SETUP_UNITS}
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qillum.cli"],
                              env=env, cwd=ROOT, check=True, capture_output=True, text=True,
                              timeout=SPAWN_TIMEOUT_S)
        totals = {"numpy": 0.0, "scipy": 0.0, "qillum": 0.0}
        for line in proc.stderr.splitlines():
            head, _, rest = line.partition(":")
            fields = rest.split("|")
            if head != "import time" or len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            top = fields[2].strip().split(".")[0]
            if top in totals:
                totals[top] += int(fields[0]) * 1e-6
        for top, value in totals.items():
            samples[f"setup.{top}_s"].append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def accuracy_metrics(drawn: list) -> dict:
    """Failed draws and accuracy over every candidate op the run drew."""
    verdicts = [v for _, v in drawn]
    devs = [v.asymptote_dev for v in verdicts if v.asymptote_dev is not None]
    gaps = [v.gap_max for v in verdicts if v.gap_max is not None]
    return {
        "failed_fraction": sum(not v.ok for v in verdicts) / len(verdicts),
        # A maximum over no ops (the metric's command is not in the workload) reads 0.
        "qb_asymptote_dev_max": max(devs, default=0.0),
        "oracle_gap_max": max(gaps, default=0.0),
    }


def latency_metrics(best: list) -> dict:
    """End-to-end figures from each pool op's best latency."""
    return {
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
    }


def machine() -> str:
    import numpy
    import scipy

    return (f"nproc={os.cpu_count()} arch={platform.machine()} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__}")


def report(args, drawn, loop: Loop, metrics: dict, units: dict) -> None:
    print(f"qillum benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"machine: {machine()}")
    rejected = [(op, v) for op, v in drawn if not v.ok]
    print(f"pool: {len(loop.pool)} ops accepted from {len(drawn)} drawn; "
          f"{len(rejected)} drawn ops failed the checker")
    for label, failures in (("drawn", rejected), ("timed", loop.changed)):
        examples = {}
        for op, v in failures:
            examples.setdefault(v.reason or "output changed, still accepted", []).append(
                (v.detail, op.argv))
        for reason, cases in examples.items():
            detail, argv = cases[0]
            print(f"  {label}: {len(cases)} x {reason}, e.g. qillum {' '.join(argv)}"
                  f"  [{detail[:120]}]")
    print(f"timed: {loop.attempted} ops, {len(loop.changed)} with changed output, "
          f"{loop.failed} failed")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "qillum" / "cli.py").is_file():
        print(f"error: no qillum sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("QI_")]:
        del os.environ[key]  # the program runs with its built-in defaults
    # One BLAS thread: on a few shared cores a second one spins against the
    # host's other load and makes Fock times noisy (and slower).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import qillum.cli

    OUT.mkdir(exist_ok=True)
    plot_path = OUT / "plot.svg"
    env = child_env()
    pool, drawn = draw_pool(qillum.cli.main,
                            workloads.slots(args.workload, args.seed, str(plot_path)),
                            plot_path)
    loop = Loop(pool, plot_path)
    best = [float("inf")] * len(pool)

    if args.trace == 0:
        # Set-up spawns are spread over the loop, between rounds, so that
        # their median covers the same stretch of host time as the ops.
        setup = []

        def spawn_due(elapsed):
            step = args.seconds / SETUP_SPAWNS
            while len(setup) < SETUP_SPAWNS and elapsed >= len(setup) * step:
                setup.append(spawn_setup(env))

        for i, ref in timed_ops(pool, args.seconds, MIN_ROUNDS, spawn_due):
            best[i] = min(best[i], loop.run(qillum.cli.main, ref))
        spawn_due(float("inf"))
        metrics = {"setup_s": statistics.median(setup)}
        metrics.update(latency_metrics(best))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
        report(args, drawn, loop, metrics | accuracy_metrics(drawn), units | ACCURACY_UNITS)
    else:
        metrics = import_breakdown(env)
        # Each op runs untraced, then traced with every layer wrapped, so that
        # machine speed drifts cancel out of the overhead ratio.
        tracer = tracing.Tracer()
        traced_main = tracer.wrap(tracing.ROOT, qillum.cli.main)
        best_traced = list(best)
        for i, ref in timed_ops(pool, args.seconds, 1):
            best[i] = min(best[i], loop.run(qillum.cli.main, ref))
            tracer.op += 1
            with tracing.installed(tracer):
                best_traced[i] = min(best_traced[i], loop.run(traced_main, ref))
        tracing.write_spans(tracer.spans, OUT / f"spans-{args.workload}-{args.seed}.csv.gz")
        metrics |= accuracy_metrics(drawn)
        metrics |= tracing.layer_metrics(tracer.spans, tracer.op + 1, threading.get_ident())
        metrics["trace.ops_per_s_untraced"] = len(pool) / sum(best)
        metrics["trace.ops_per_s_traced"] = len(pool) / sum(best_traced)
        metrics["trace.overhead"] = sum(best_traced) / sum(best) - 1.0
        units = PER_LAYER_UNITS
        report(args, drawn, loop, metrics, units)

    plot_path.unlink(missing_ok=True)
    result = {
        # Failed draws are not timed ops: they are reported as failed_fraction
        # and listed above. `failed` counts timed ops the checker rejected.
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
