"""Per-op correctness checker; reads nothing but what the CLI printed.

An op fails when main raised or returned non-zero, when its output does not
parse or holds a non-finite number, when optimal_s lies outside (0, 1), when
the printed chernoff_bound exceeds the printed bhattacharyya_bound (which
breaks chernoff_bound's documented promise), or when an oracle-check row is
flagged. There is no tolerance: the comparisons are on the printed numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

# The dim-signal, bright-background corner where exponent_per_copy_qb must
# approach kappa * gamma / n_b (Tan et al., PRL 101, 253601 (2008)).
CORNER_MAX_NS = 0.01
CORNER_MAX_KAPPA = 0.01
CORNER_MIN_NB = 1e3
SWEEP_COLUMNS = ["n_s", "gamma2", "gamma3", "ratio", "qb2", "qb3", "qb_coherent"]


class BadOutput(ValueError):
    """The CLI's output breaks one of the checker's rules."""


@dataclass
class Verdict:
    ok: bool
    reason: str = ""  # failure category, e.g. "raised TypeError"
    detail: str = ""
    asymptote_dev: float | None = None  # bounds ops inside the corner
    gap_max: float | None = None  # oracle ops


def _finite(value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise BadOutput(f"non-finite number {value!r}")
    return x


def _reject_constant(token: str):
    raise BadOutput(f"non-finite number {token}")


def _load_json(text: str) -> dict:
    """Parse JSON, rejecting NaN, Infinity and numbers that overflow to inf."""
    try:
        return json.loads(text, parse_constant=_reject_constant, parse_float=_finite)
    except json.JSONDecodeError as exc:
        raise BadOutput(f"unparseable JSON: {exc}") from exc


def _bounds_row(fmt: str, out: str) -> dict:
    if fmt == "json":
        report = _load_json(out)
        (row,) = report["rows"]
        return row
    row = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise BadOutput(f"unparseable line {line!r}")
        row[key] = value
    for key in ("n_signal", "n_background", "reflectivity", "bhattacharyya_bound",
                "chernoff_bound", "optimal_s", "exponent_per_copy_qb",
                "asymptotic_exponent_per_copy"):
        row[key] = _finite(row[key])
    for key in ("copies", "correlation", "exponent_per_copy_qc"):
        if key in row:
            _finite(row[key])
    return row


def check_bounds(fmt: str, out: str) -> Verdict:
    row = _bounds_row(fmt, out)
    if not 0.0 < row["optimal_s"] < 1.0:
        raise BadOutput(f"optimal_s {row['optimal_s']!r} outside (0, 1)")
    dev = None
    if (row["n_signal"] <= CORNER_MAX_NS and row["reflectivity"] <= CORNER_MAX_KAPPA
            and row["n_background"] >= CORNER_MIN_NB):
        dev = abs(row["exponent_per_copy_qb"] / row["asymptotic_exponent_per_copy"] - 1.0)
    if row["chernoff_bound"] > row["bhattacharyya_bound"]:
        return Verdict(False, "chernoff > bhattacharyya",
                       f"{row['chernoff_bound']!r} > {row['bhattacharyya_bound']!r}", dev)
    return Verdict(True, asymptote_dev=dev)


def check_sweep(fmt: str, out: str, plot: str | None) -> Verdict:
    if fmt == "json":
        report = _load_json(out)
        rows = report["rows"]
    else:
        lines = out.splitlines()
        if lines[0].split(",") != SWEEP_COLUMNS:
            raise BadOutput(f"unexpected CSV header {lines[0]!r}")
        rows = [[_finite(v) for v in line.split(",")] for line in lines[1:]]
        if any(len(r) != len(SWEEP_COLUMNS) for r in rows):
            raise BadOutput("CSV row with the wrong column count")
    if len(rows) != 100:
        raise BadOutput(f"{len(rows)} sweep rows, expected 100")
    if plot is not None and not (plot.startswith("<svg") and plot.endswith("</svg>\n")):
        raise BadOutput("plot is not a complete SVG document")
    return Verdict(True)


def check_oracle(fmt: str, out: str) -> Verdict:
    if fmt == "json":
        report = _load_json(out)
        rows = [(r["relative_gap"], r["flagged"]) for r in report["rows"]]
    else:
        lines = out.splitlines()
        if lines[0].split() != ["s", "gaussian_qs", "oracle_qs", "relative_gap",
                                "tail_budget", "flag"]:
            raise BadOutput(f"unexpected header {lines[0]!r}")
        rows = []
        for line in lines[1:-1]:
            *numbers, flag = line.split()
            if len(numbers) != 5 or flag not in ("ok", "GAP"):
                raise BadOutput(f"unparseable row {line!r}")
            rows.append((_finite(numbers[3]), flag == "GAP"))
        _finite(lines[-1].removeprefix("flagged: "))
    if not rows:
        raise BadOutput("no oracle rows")
    gap_max = max(gap for gap, _ in rows)
    if any(flagged for _, flagged in rows):
        return Verdict(False, "oracle row flagged", gap_max=gap_max)
    return Verdict(True, gap_max=gap_max)


def check(argv: list, rc, error: str | None, out: str, err: str = "",
          plot: str | None = None) -> Verdict:
    """Judge one op from its argv, exit code, raised error and printed output."""
    if error is not None:
        return Verdict(False, "raised " + error.split(":")[0], error)
    if rc != 0:
        return Verdict(False, f"exit code {rc}", err.strip())
    fmt = argv[argv.index("--format") + 1]
    try:
        if argv[0] == "bounds":
            return check_bounds(fmt, out)
        if argv[0] == "sweep":
            return check_sweep(fmt, out, plot)
        if argv[0] == "oracle-check":
            return check_oracle(fmt, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # BadOutput is a ValueError
        return Verdict(False, "bad output", str(exc))
    raise ValueError(f"no checker for command {argv[0]!r}")
