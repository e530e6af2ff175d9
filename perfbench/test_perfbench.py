"""Tests for the benchmark's own logic: input generation, checker, span arithmetic.

    python3 -m pytest perfbench/test_perfbench.py
"""

import collections
import contextlib
import io
import itertools
import json
import math
import sys
import threading
from pathlib import Path

import pytest

import checker
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _cli(*argv):
    import qillum.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = qillum.cli.main(list(argv))
    return list(argv), rc, out.getvalue()


def _first(workload, seed, n=3):
    """The first n candidates of every slot of a seed's pool."""
    return [list(itertools.islice(slot, n))
            for slot in workloads.slots(workload, seed, "plot.svg")]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    assert _first(workload, 7) == _first(workload, 7)
    assert _first(workload, 7) != _first(workload, 8)
    assert len(_first(workload, 7)) == workloads.POOL_SIZE[workload]


def test_pool_cost_mix_is_fixed_per_slot():
    def shape(argv):
        flags = dict(zip(argv[1::2], argv[2::2]))
        return (argv[0], flags.get("--model"), flags.get("--param"), flags.get("--cutoff"),
                flags.get("--s-grid", "").count(","), "--plot" in argv)

    for workload in workloads.WORKLOADS:
        for seed_a, seed_b in ((1, 2), (3, 99)):
            a, b = _first(workload, seed_a), _first(workload, seed_b)
            assert [[shape(c) for c in slot] for slot in a] == \
                   [[shape(c) for c in slot] for slot in b]
    bounds = [slot[0] for slot in _first("bounds", 1)]
    pairs = collections.Counter((a[a.index("--model") + 1], a[-1]) for a in bounds)
    assert len(pairs) == 6 and set(pairs.values()) == {20}
    corner = collections.Counter(
        (a[a.index("--model") + 1], a[-1]) for a in bounds
        if float(a[a.index("--ns") + 1]) <= checker.CORNER_MAX_NS
        and float(a[a.index("--kappa") + 1]) <= checker.CORNER_MAX_KAPPA
        and float(a[a.index("--nb") + 1]) >= checker.CORNER_MIN_NB)
    assert len(corner) == 6 and min(corner.values()) >= 4


def test_oracle_draws_pass_the_tail_budget():
    pool = _first("oracle", 3, n=4)
    shapes = [(int(a[a.index("--cutoff") + 1]), a[a.index("--s-grid") + 1].count(",") + 1)
              for a in (slot[0] for slot in pool)]
    assert shapes == list(itertools.product(workloads.ORACLE_CUTOFFS, workloads.ORACLE_S_COUNTS))
    for cutoff in range(len(workloads.ORACLE_CUTOFFS)):  # kappa from each third once
        kappas = [float(slot[0][slot[0].index("--kappa") + 1])
                  for slot in pool[3 * cutoff: 3 * cutoff + 3]]
        assert sorted(int(3 * math.log(k / 1e-3) / math.log(500)) for k in kappas) == [0, 1, 2]
    for argv in itertools.chain.from_iterable(pool):
        flags = dict(zip(argv[1::2], argv[2::2]))
        cutoff, kappa = int(flags["--cutoff"]), float(flags["--kappa"])
        limit = workloads.oracle_max_photons(cutoff)
        assert float(flags["--ns"]) < limit
        assert float(flags["--nb"]) / (1.0 - kappa) < limit


def _flaky_main(argv):
    """qillum's main, except that argv ending in "bad" exits with code 2."""
    import qillum.cli

    return 2 if argv[-1] == "bad" else qillum.cli.main(argv[:-1])


GOOD_BOUNDS = ["bounds", "--model", "two-mode", "--format", "json"]


def test_draw_pool_keeps_the_first_accepted_candidate(tmp_path):
    slots = [iter([GOOD_BOUNDS + ["bad"], GOOD_BOUNDS + ["ok"], GOOD_BOUNDS + ["bad"]])]
    pool, drawn = run.draw_pool(_flaky_main, slots, tmp_path / "plot.svg")
    assert [op.argv[-1] for op in pool] == ["ok"]
    assert [v.ok for _, v in drawn] == [False, True]
    assert drawn[0][1].reason == "exit code 2"
    assert run.accuracy_metrics(drawn)["failed_fraction"] == 0.5
    with pytest.raises(RuntimeError):
        run.draw_pool(_flaky_main, [itertools.repeat(GOOD_BOUNDS + ["bad"])],
                      tmp_path / "plot.svg")


def test_loop_judges_ops_whose_output_changed(tmp_path):
    (ref,), _ = run.draw_pool(_flaky_main, [iter([GOOD_BOUNDS + ["ok"]])], tmp_path / "p.svg")
    loop = run.Loop([ref], tmp_path / "p.svg")
    loop.run(_flaky_main, ref)
    assert (loop.attempted, loop.changed, loop.failed) == (1, [], 0)
    loop.run(lambda argv: 2, ref)
    assert loop.attempted == 2 and loop.failed == 1
    assert loop.changed[0][1].reason == "exit code 2"


def test_timed_ops_runs_full_rounds_then_stops_at_the_deadline():
    ends = []
    ops = list(run.timed_ops(["a", "b", "c"], 0.0, 2, ends.append))
    assert ops == [(0, "a"), (1, "b"), (2, "c")] * 2 and len(ends) == 2
    ops = itertools.islice(run.timed_ops(["a", "b", "c"], 60.0, 1), 7)
    assert [slot for slot, _ in ops] == [0, 1, 2, 0, 1, 2, 0]


def test_latency_metrics_use_each_ops_best_time():
    best = [0.001 * (i + 1) for i in range(10)]
    metrics = run.latency_metrics(best)
    assert metrics["ops_per_s"] == pytest.approx(10 / 0.055)
    assert metrics["latency_p50_ms"] == pytest.approx(5.5)
    assert metrics["latency_p90_ms"] == pytest.approx(9.9)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_checker_accepts_and_rejects_bounds(fmt):
    argv, rc, out = _cli("bounds", "--model", "two-mode", "--ns", "0.01", "--nb", "1e4",
                         "--kappa", "0.01", "--copies", "1000", "--format", fmt)
    good = checker.check(argv, rc, None, out)
    assert good.ok and good.asymptote_dev is not None and good.asymptote_dev < 0.1

    assert checker.check(argv, 2, None, out).reason == "exit code 2"
    assert checker.check(argv, None, "TypeError: boom", "").reason == "raised TypeError"
    if fmt == "json":
        report = json.loads(out)
        row = report["rows"][0]
        row["chernoff_bound"] = 2.0 * row["bhattacharyya_bound"]
        swapped = json.dumps(report)
        row["optimal_s"] = 1.0
        outside = json.dumps(report)
        nan = out.replace(repr(row["exponent_per_copy_qc"]), "NaN", 1)
    else:
        lines = out.splitlines()
        qb = next(ln for ln in lines if ln.startswith("bhattacharyya_bound"))
        qc = next(ln for ln in lines if ln.startswith("chernoff_bound"))
        swapped = out.replace(qc, f"chernoff_bound: {2.0 * float(qb.split(': ')[1]):.11e}")
        outside = out.replace(next(ln for ln in lines if ln.startswith("optimal_s")),
                              "optimal_s: 0.0000000000")
        nan = out.replace(qc, "chernoff_bound: nan")
    assert checker.check(argv, 0, None, swapped).reason == "chernoff > bhattacharyya"
    assert checker.check(argv, 0, None, outside).reason == "bad output"
    assert checker.check(argv, 0, None, nan).reason == "bad output"
    assert checker.check(argv, 0, None, out[: len(out) // 2]).reason == "bad output"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_checker_rejects_flagged_oracle_row(fmt):
    argv, rc, out = _cli("oracle-check", "--model", "two-mode", "--ns", "0.1", "--nb", "0.2",
                         "--kappa", "0.1", "--cutoff", "14", "--s-grid", "0.5",
                         "--format", fmt)
    good = checker.check(argv, rc, None, out)
    assert good.ok and 0.0 <= good.gap_max < 1e-6
    if fmt == "json":
        flagged = out.replace('"flagged": false', '"flagged": true', 1)
    else:
        flagged = out.replace(" ok\n", " GAP\n", 1)
    assert flagged != out
    assert checker.check(argv, 0, None, flagged).reason == "oracle row flagged"


def test_checker_sweep_needs_rows_and_plot():
    argv = ["sweep", "--count", "100", "--extras", workloads.SWEEP_EXTRAS, "--format", "csv"]
    argv, rc, out = _cli(*argv)
    assert checker.check(argv, rc, None, out).ok
    assert checker.check(argv, rc, None, out, plot="").reason == "bad output"
    short = "\n".join(out.splitlines()[:50]) + "\n"
    assert checker.check(argv, rc, None, short).reason == "bad output"
    row = out.splitlines()[1]
    nan = out.replace(row, "nan" + row[row.index(","):], 1)
    assert checker.check(argv, rc, None, nan).reason == "bad output"


def _span(sid, parent, name, start, end, thread=1, error=None):
    return tracing.Span(sid, parent, 0, name, start, end, thread, error)


def test_self_time_with_worker_thread_children():
    spans = [
        _span(1, 0, "cli.main", 0.0, 10.0),
        _span(2, 1, "bounds.chernoff_bound", 1.0, 3.0),
        _span(3, 2, "bounds.power_overlap", 1.5, 2.0),
        _span(4, 1, "bounds.illumination_bhattacharyya", 2.0, 6.0, thread=2),
        _span(5, 4, "bounds.power_overlap", 2.5, 3.5, thread=2),
        _span(6, 4, "bounds.power_overlap", 3.0, 4.0, thread=2),
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)  # union of [1, 3] and [2, 6]
    assert own[2] == pytest.approx(1.5)
    assert own[4] == pytest.approx(4.0 - 1.5)  # union of [2.5, 3.5] and [3, 4]
    assert own[3] == pytest.approx(0.5) and own[5] == own[6] == pytest.approx(1.0)
    metrics = tracing.layer_metrics(spans, ops=1, main_thread=1)
    assert metrics["cli.main_self_ms"] == pytest.approx(5e3)
    assert metrics["cli.sweep_parallelism"] == pytest.approx(4.0 / 10.0)
    assert metrics["bounds.overlaps_per_chernoff"] == 1.0
    assert metrics["bounds.overlap_calls"] == 3.0
    assert set(metrics) == set(tracing.LAYER_UNITS)


def test_tracer_hangs_worker_spans_under_the_open_op():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("bounds.power_overlap", lambda: None)

    def op():
        leaf()
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap(tracing.ROOT, op)()
    root = next(s for s in tracer.spans if s.name == tracing.ROOT)
    leaves = [s for s in tracer.spans if s.name == "bounds.power_overlap"]
    assert [s.parent for s in leaves] == [root.id, root.id]
    assert len({s.thread for s in leaves}) == 2
    leaf()  # between ops: a top-level span of its own
    assert tracer.spans[-1].parent == 0


def test_tracer_keeps_every_span_under_thread_contention():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("bounds.power_overlap", lambda: None)
    threads, calls = 8, 2000

    def op():
        workers = [threading.Thread(target=lambda: [leaf() for _ in range(calls)])
                   for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        tracer.wrap(tracing.ROOT, op)()
    finally:
        sys.setswitchinterval(interval)
    root = tracer.spans[-1]
    assert root.name == tracing.ROOT
    assert len(tracer.spans) == threads * calls + 1
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)
    assert all(s.parent == root.id for s in tracer.spans[:-1])


def test_installed_patches_every_lookup_and_restores():
    import qillum.bounds
    import qillum.cli
    import qillum.symplectic

    original = qillum.bounds.power_overlap
    post_init = qillum.symplectic.CovarianceMatrix.__dict__["__post_init__"]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert qillum.bounds.power_overlap is not original
        assert qillum.cli.power_overlap is not original
        _cli("bounds", "--model", "three-mode", "--format", "json")
    assert qillum.bounds.power_overlap is original and qillum.cli.power_overlap is original
    assert qillum.symplectic.CovarianceMatrix.__dict__["__post_init__"] is post_init
    names = {s.name for s in tracer.spans}
    assert {"bounds.chernoff_bound", "bounds.power_overlap",
            "symplectic.CovarianceMatrix.__post_init__"} <= names


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["bounds", "oracle"]  # sweep: by hand
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
