"""Command-line front end: bounds, sweeps, crossover, state inspection, oracle checks.

Configuration precedence is flags > QI_* environment variables > key=value
config file > built-in defaults. Every command is deterministic: identical
invocations produce byte-identical file output, so there are no timestamps
anywhere. Exit codes: 0 success, 2 invalid input, 3 I/O failure, 4 resource
cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bounds import (
    coherent_exponent_coefficient,
    error_exponent_three_mode,
    error_exponent_two_mode,
    find_crossover,
    illumination_bhattacharyya,
    illumination_chernoff,
    power_overlap,
)
from .fock import DimensionCapError, TailBudgetError, oracle_overlap, oracle_tail_budget
from .states import (
    IlluminationScenario,
    illumination_states,
    max_three_mode_correlation,
    separability_threshold,
    target_absent_cov,
    target_present_cov,
    three_mode_cov,
)
from .symplectic import Bipartition, is_physical, is_pure, log_negativity, symplectic_eigenvalues

DEFAULTS = {
    "ns": 0.01,
    "nb": 100.0,
    "kappa": 0.01,
    "copies": 1000000,
    "c": None,
    "model": "three-mode",
}
MODEL_TOKENS = ("two-mode", "three-mode", "coherent")
PARAM_TOKENS = ("nS", "nB", "kappa", "M")
EXTRA_ORDER = ("qb2", "qb3", "qb_coherent", "chernoff3")
# The probe behind each Bhattacharyya extra; chernoff3 is the three-mode Chernoff bound.
EXTRA_MODELS = {"qb2": "two-mode", "qb3": "three-mode", "qb_coherent": "coherent"}
STATE_TOKENS = ("initial3", "rho", "sigma")
# Configuration keys a command does not read, each with the one value it runs
# (None: none). Setting such a key to anything else, by flag, QI_* variable or
# config file, is refused; oracle-check checks the two-mode pair only.
UNREAD_KEYS = {
    "sweep": {"c": None, "model": None},
    "crossover": dict.fromkeys(("ns", "nb", "kappa", "copies", "c", "model")),
    "state-info": {"copies": None, "model": None},
    "oracle-check": {"c": None, "copies": None, "model": "two-mode"},
}


class CliError(Exception):
    """User-facing failure with a chosen exit code."""

    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _fmt(x: float) -> str:
    # 12 significant digits, scientific, locale-free.
    return f"{x:.11e}"


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(3, f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _convert(key: str, raw: str):
    try:
        if key in ("ns", "nb", "kappa", "c"):
            return float(raw)
        if key == "copies":
            return int(raw)
    except ValueError as exc:
        raise CliError(2, f"invalid value for {key}: {raw!r}") from exc
    if key == "model":
        if raw not in MODEL_TOKENS:
            raise CliError(2, f"unknown model {raw!r}; expected one of {MODEL_TOKENS}")
        return raw
    raise CliError(2, f"unknown configuration key {key!r}")


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(3, f"cannot read config {path}: {exc.strerror or exc}") from exc
    values = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(2, f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise CliError(2, f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _convert(key, raw.strip())
    return values


def resolve_config(args) -> dict:
    """Merge defaults, config file, environment, and flags, in rising priority.

    A key the command does not read (UNREAD_KEYS) exits 2 when it is set.
    """
    resolved = dict(DEFAULTS)
    sources = {key: "default" for key in DEFAULTS}
    config_path = getattr(args, "config", None)
    if config_path:
        for key, value in _read_config_file(config_path).items():
            resolved[key] = value
            sources[key] = "config"
    for key in DEFAULTS:
        raw = os.environ.get("QI_" + key.upper())
        if raw is not None:
            resolved[key] = _convert(key, raw)
            sources[key] = "env"
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
            sources[key] = "flag"
    command = getattr(args, "command", None)
    for key, runs in UNREAD_KEYS.get(command, {}).items():
        if sources[key] != "default" and resolved[key] != runs:
            if runs is None:
                raise CliError(2, f"{command} does not take {key} (set by {sources[key]})")
            raise CliError(
                2, f"{command} runs {key} {runs} only ({resolved[key]} set by {sources[key]})"
            )
        if runs is not None:
            resolved[key] = runs
    resolved["sources"] = sources
    return resolved


def _scenario(resolved: dict, **overrides) -> IlluminationScenario:
    fields = {
        "n_signal": resolved["ns"],
        "n_background": resolved["nb"],
        "reflectivity": resolved["kappa"],
        "copies": resolved["copies"],
        "correlation": resolved["c"],
    }
    fields.update(overrides)
    try:
        return IlluminationScenario(**fields)
    except ValueError as exc:
        raise CliError(2, str(exc)) from exc


def _check_format(fmt: str, allowed: tuple, command: str) -> str:
    if fmt is None:
        return allowed[0]
    if fmt not in allowed:
        raise CliError(2, f"format {fmt!r} not supported by {command}; use one of {allowed}")
    return fmt


def _json_report(config: dict, rows: list, diagnostics: dict) -> str:
    report = {
        "schema": 1,
        "version": __version__,
        "config": config,
        "rows": rows,
        "diagnostics": diagnostics,
    }
    return json.dumps(report, indent=2) + "\n"


def _config_echo(resolved: dict, **extra) -> dict:
    echo = {
        "ns": resolved["ns"],
        "nb": resolved["nb"],
        "kappa": resolved["kappa"],
        "copies": resolved["copies"],
        "c": resolved["c"],
        "model": resolved["model"],
        "sources": resolved["sources"],
    }
    echo.update(extra)
    return echo


@dataclass
class SweepSpec:
    """Grid description for cmd_sweep."""

    parameter: str
    start: float
    stop: float
    count: int
    spacing: str = "log"
    extras: tuple = ()

    def __post_init__(self):
        if self.parameter not in PARAM_TOKENS:
            raise CliError(2, f"unknown sweep parameter {self.parameter!r}")
        if self.count < 2:
            raise CliError(2, "sweep needs at least 2 grid points")
        if not self.start < self.stop:
            raise CliError(2, "sweep start must be below stop")
        if self.spacing not in ("linear", "log"):
            raise CliError(2, f"unknown spacing {self.spacing!r}")
        if self.spacing == "log" and self.start <= 0:
            raise CliError(2, "log spacing requires a positive start")
        if self.parameter == "M" and self.start < 1:
            raise CliError(2, "copy-count sweeps must start at 1 or above")
        bad = [e for e in self.extras if e not in EXTRA_ORDER]
        if bad:
            raise CliError(2, f"unknown extras {bad}; choose from {EXTRA_ORDER}")
        self.extras = tuple(e for e in EXTRA_ORDER if e in self.extras)

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            return np.logspace(math.log10(self.start), math.log10(self.stop), self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass
class RunReport:
    """Everything one command run produced, ready for serialization."""

    config: dict
    rows: list
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return _json_report(self.config, self.rows, self.diagnostics)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once, on the first main call: QI_* values are read in resolve_config.
    parser = argparse.ArgumentParser(
        prog="qillum",
        description="Gaussian quantum illumination bounds and diagnostics.",
        epilog="Environment: QI_NS, QI_NB, QI_KAPPA, QI_COPIES, QI_C, QI_MODEL "
        "override defaults.",
    )
    parser.add_argument("--version", action="version", version=f"qillum {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--ns", type=float, default=None, help="mean signal photon number")
        p.add_argument("--nb", type=float, default=None, help="mean background photon number")
        p.add_argument("--kappa", type=float, default=None, help="target reflectivity in [0, 1]")
        p.add_argument("--copies", type=int, default=None, help="number of probe copies M")
        p.add_argument(
            "--c",
            type=float,
            default=None,
            help="correlation amplitude (default: the maximal one for the model)",
        )
        p.add_argument("--model", choices=MODEL_TOKENS, default=None)
        p.add_argument("--format", dest="fmt", default=None, help="output format")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        p.add_argument("--config", default=None, help="key=value configuration file")

    p_bounds = sub.add_parser("bounds", help="error-probability bounds for one scenario")
    add_shared(p_bounds)

    p_sweep = sub.add_parser("sweep", help="exponent comparison over a parameter grid")
    add_shared(p_sweep)
    p_sweep.add_argument("--param", choices=PARAM_TOKENS, default="nS")
    p_sweep.add_argument("--start", type=float, default=0.01)
    p_sweep.add_argument("--stop", type=float, default=1.0)
    p_sweep.add_argument("--count", type=int, default=100)
    p_sweep.add_argument("--spacing", choices=("linear", "log"), default="log")
    p_sweep.add_argument(
        "--extras",
        default="",
        help="comma-separated bound columns: qb2,qb3,qb_coherent,chernoff3",
    )
    p_sweep.add_argument("--plot", default=None, help="write an SVG of the ratio curve here")

    p_cross = sub.add_parser("crossover", help="signal strength where the probes tie")
    add_shared(p_cross)

    p_state = sub.add_parser("state-info", help="covariance and entanglement summary")
    add_shared(p_state)
    p_state.add_argument("--state", choices=STATE_TOKENS, default="rho")

    p_oracle = sub.add_parser("oracle-check", help="Gaussian engine vs number-basis oracle")
    add_shared(p_oracle)
    p_oracle.add_argument("--cutoff", type=int, default=20)
    p_oracle.add_argument(
        "--s-grid", default="0.25,0.5,0.75", help="comma-separated s values in (0, 1)"
    )
    return parser


def _asymptotic_exponent(resolved: dict, model: str, n_signal: float) -> float:
    kappa = resolved["kappa"]
    nb = resolved["nb"]
    if nb <= 0:
        return math.inf
    if model == "three-mode":
        return kappa * error_exponent_three_mode(n_signal) / nb
    if model == "two-mode":
        return kappa * error_exponent_two_mode(n_signal) / nb
    return kappa * coherent_exponent_coefficient(n_signal) / nb


def cmd_bounds(args) -> int:
    resolved = resolve_config(args)
    fmt = _check_format(args.fmt, ("text", "json"), "bounds")
    model = resolved["model"]
    scenario = _scenario(resolved)
    qc = illumination_chernoff(scenario, model)
    qb = qc.bhattacharyya
    asymptotic = _asymptotic_exponent(resolved, model, scenario.n_signal)
    correlation = scenario.probe_correlation(model)

    row = {
        "model": model,
        "n_signal": scenario.n_signal,
        "n_background": scenario.n_background,
        "reflectivity": scenario.reflectivity,
        "copies": scenario.copies,
        "correlation": correlation,
        "bhattacharyya_bound": qb.value,
        "chernoff_bound": qc.value,
        "optimal_s": qc.s_used,
        "exponent_per_copy_qb": qb.diagnostics["exponent_per_copy"],
        "exponent_per_copy_qc": qc.diagnostics["exponent_per_copy"],
        "asymptotic_exponent_per_copy": asymptotic,
    }
    if fmt == "json":
        _emit(RunReport(config=_config_echo(resolved), rows=[row]).to_json(), args.out)
        return 0
    lines = [
        f"model: {model}",
        f"n_signal: {_fmt(scenario.n_signal)}",
        f"n_background: {_fmt(scenario.n_background)}",
        f"reflectivity: {_fmt(scenario.reflectivity)}",
        f"copies: {scenario.copies}",
    ]
    if correlation is not None:
        lines.append(f"correlation: {_fmt(correlation)}")
    lines += [
        f"bhattacharyya_bound: {_fmt(qb.value)}",
        f"chernoff_bound: {_fmt(qc.value)}",
        f"optimal_s: {qc.s_used:.10f}",
        f"exponent_per_copy_qb: {_fmt(row['exponent_per_copy_qb'])}",
        f"exponent_per_copy_qc: {_fmt(row['exponent_per_copy_qc'])}",
        f"asymptotic_exponent_per_copy: {_fmt(asymptotic)}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _sweep_row(resolved: dict, spec: SweepSpec, value: float) -> dict:
    overrides = {}
    if spec.parameter == "nS":
        overrides["n_signal"] = value
    elif spec.parameter == "nB":
        overrides["n_background"] = value
    elif spec.parameter == "kappa":
        overrides["reflectivity"] = value
    else:
        overrides["copies"] = max(1, int(round(value)))
    scenario = _scenario(resolved, **overrides)
    row = {
        "sweep_value": value,
        "n_s": scenario.n_signal,
        "gamma2": error_exponent_two_mode(scenario.n_signal),
        "gamma3": error_exponent_three_mode(scenario.n_signal),
    }
    row["ratio"] = row["gamma3"] / row["gamma2"] if row["gamma2"] > 0 else math.nan
    results = {}
    if "chernoff3" in spec.extras:
        results["chernoff3"] = illumination_chernoff(scenario, "three-mode")
        # Same states, one evaluation: qb3 is the Chernoff grid's s = 1/2 entry.
        results["qb3"] = results["chernoff3"].bhattacharyya
    for extra in spec.extras:
        if extra not in results:
            results[extra] = illumination_bhattacharyya(scenario, EXTRA_MODELS[extra])
        row[extra] = results[extra].value
    return row


def _render_csv(spec: SweepSpec, rows: list) -> str:
    header = ["n_s", "gamma2", "gamma3", "ratio"] + list(spec.extras)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in header))
    return "\n".join(lines) + "\n"


def _render_ratio_svg(spec: SweepSpec, rows: list, crossover_ns: float) -> str:
    width, height = 800.0, 600.0
    left, right, top, bottom = 70.0, 775.0, 25.0, 545.0

    def xu(v: float) -> float:
        return math.log10(v) if spec.spacing == "log" else v

    u0, u1 = xu(spec.start), xu(spec.stop)
    xs = [xu(row["sweep_value"]) for row in rows]
    ys = [row["ratio"] for row in rows]
    ymin = min(min(ys), 1.0)
    ymax = max(max(ys), 1.0)
    pad = 0.05 * (ymax - ymin) or 0.5
    y0, y1 = ymin - pad, ymax + pad

    def px(u: float) -> float:
        return left + (u - u0) / (u1 - u0) * (right - left)

    def py(y: float) -> float:
        return bottom - (y - y0) / (y1 - y0) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" '
        f'height="{bottom - top:.2f}" fill="none" stroke="black"/>',
    ]

    if spec.spacing == "log":
        k0 = math.ceil(u0 - 1e-9)
        k1 = math.floor(u1 + 1e-9)
        ticks = [(10.0**k, f"{10.0 ** k:g}") for k in range(k0, k1 + 1)]
    else:
        ticks = [
            (spec.start + i * (spec.stop - spec.start) / 4.0, "")
            for i in range(5)
        ]
        ticks = [(v, f"{v:g}") for v, _ in ticks]
    for value, label in ticks:
        x = px(xu(value))
        parts.append(
            f'<line x1="{x:.2f}" y1="{bottom:.2f}" x2="{x:.2f}" y2="{bottom + 6:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{bottom + 22:.2f}" font-size="14" text-anchor="middle">{label}</text>'
        )
    for i in range(5):
        y = y0 + i * (y1 - y0) / 4.0
        parts.append(
            f'<line x1="{left - 6:.2f}" y1="{py(y):.2f}" x2="{left:.2f}" y2="{py(y):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 10:.2f}" y="{py(y) + 5:.2f}" font-size="14" text-anchor="end">{y:.2f}</text>'
        )

    if y0 < 1.0 < y1:
        parts.append(
            f'<line x1="{left:.2f}" y1="{py(1.0):.2f}" x2="{right:.2f}" y2="{py(1.0):.2f}" '
            f'stroke="gray" stroke-dasharray="6,4"/>'
        )
    if spec.parameter == "nS" and spec.start <= crossover_ns <= spec.stop:
        x = px(xu(crossover_ns))
        parts.append(
            f'<line x1="{x:.2f}" y1="{top:.2f}" x2="{x:.2f}" y2="{bottom:.2f}" '
            f'stroke="gray" stroke-dasharray="6,4"/>'
        )

    points = " ".join(f"{px(u):.2f},{py(y):.2f}" for u, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb4" stroke-width="2"/>')
    axis_label = "n_s" if spec.parameter == "nS" else spec.parameter
    parts.append(
        f'<text x="{(left + right) / 2:.2f}" y="{height - 12:.2f}" font-size="16" '
        f'text-anchor="middle">{axis_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{(top + bottom) / 2:.2f}" font-size="16" text-anchor="middle" '
        f'transform="rotate(-90 18 {(top + bottom) / 2:.2f})">gamma3 / gamma2</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_sweep(args) -> int:
    resolved = resolve_config(args)
    fmt = _check_format(args.fmt, ("csv", "json"), "sweep")
    extras = tuple(e for e in args.extras.split(",") if e)
    extras = tuple("qb_coherent" if e == "qbCoherent" else e for e in extras)
    spec = SweepSpec(
        parameter=args.param,
        start=args.start,
        stop=args.stop,
        count=args.count,
        spacing=args.spacing,
        extras=extras,
    )
    rows = [_sweep_row(resolved, spec, float(v)) for v in spec.grid()]

    diagnostics = {"rows": len(rows)}
    config = _config_echo(
        resolved,
        param=spec.parameter,
        start=spec.start,
        stop=spec.stop,
        count=spec.count,
        spacing=spec.spacing,
        extras=list(spec.extras),
    )
    if args.plot is not None:
        crossover = find_crossover().n_signal
        _emit(_render_ratio_svg(spec, rows, crossover), args.plot)
    if fmt == "json":
        _emit(RunReport(config=config, rows=rows, diagnostics=diagnostics).to_json(), args.out)
    else:
        _emit(_render_csv(spec, rows), args.out)
    return 0


def cmd_crossover(args) -> int:
    resolved = resolve_config(args)
    fmt = _check_format(args.fmt, ("text", "json"), "crossover")
    result = find_crossover()
    if fmt == "json":
        report = RunReport(
            config=_config_echo(resolved),
            rows=[{"crossover_n_s": result.n_signal, "ratio_residual": result.residual}],
        )
        _emit(report.to_json(), args.out)
        return 0
    text = (
        f"crossover_n_s: {result.n_signal:.6f}\n"
        f"ratio_residual: {result.residual:.3e}\n"
    )
    _emit(text, args.out)
    return 0


def cmd_state_info(args) -> int:
    resolved = resolve_config(args)
    fmt = _check_format(args.fmt, ("text", "json"), "state-info")
    scenario = _scenario(resolved)
    if args.state == "initial3":
        cov = three_mode_cov(scenario.n_signal, scenario.probe_correlation("three-mode"))
    elif args.state == "rho":
        cov = target_absent_cov(scenario)
    else:
        cov = target_present_cov(scenario)

    nus = symplectic_eigenvalues(cov)
    modes = cov.n
    negativities = [
        log_negativity(cov, Bipartition(n_modes=modes, transposed=(j,)))
        for j in range(modes)
    ]
    row = {
        "state": args.state,
        "modes": modes,
        "covariance": [[float(v) for v in r] for r in cov.matrix],
        "symplectic_eigenvalues": [float(v) for v in nus],
        "pure": bool(is_pure(cov)),
        "physical": bool(is_physical(cov)),
        "max_correlation": max_three_mode_correlation(scenario.n_signal),
        "separability_threshold": separability_threshold(scenario.n_signal),
        "log_negativity": {
            f"mode{j}_vs_rest": negativities[j] for j in range(modes)
        },
    }
    if fmt == "json":
        report = RunReport(config=_config_echo(resolved, state=args.state), rows=[row])
        _emit(report.to_json(), args.out)
        return 0
    lines = [f"state: {args.state}", f"modes: {modes}", "covariance:"]
    for r in cov.matrix:
        lines.append("  " + " ".join(f"{v: .6e}" for v in r))
    lines.append("symplectic_eigenvalues: " + " ".join(_fmt(v) for v in nus))
    lines.append(f"pure: {'yes' if row['pure'] else 'no'}")
    lines.append(f"physical: {'yes' if row['physical'] else 'no'}")
    lines.append(f"max_correlation: {_fmt(row['max_correlation'])}")
    lines.append(f"separability_threshold: {_fmt(row['separability_threshold'])}")
    for j in range(modes):
        lines.append(f"log_negativity_mode{j}_vs_rest: {_fmt(negativities[j])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_oracle_check(args) -> int:
    resolved = resolve_config(args)
    fmt = _check_format(args.fmt, ("text", "json"), "oracle-check")
    try:
        s_values = [float(tok) for tok in args.s_grid.split(",") if tok]
    except ValueError as exc:
        raise CliError(2, f"bad s grid {args.s_grid!r}") from exc
    if not s_values or not all(0.0 < s < 1.0 for s in s_values):
        raise CliError(2, "s grid values must lie strictly inside (0, 1)")
    scenario = _scenario(resolved, copies=1)

    budget = oracle_tail_budget(
        scenario.n_signal, scenario.n_background, scenario.reflectivity, args.cutoff
    )["budget"]
    oracle_values = oracle_overlap(
        scenario.n_signal,
        scenario.n_background,
        scenario.reflectivity,
        s_values,
        args.cutoff,
    )
    absent, present = illumination_states(scenario, "two-mode")
    gaussian_values = [ov.value for ov in power_overlap(absent, present, s_values)]
    rows = []
    flagged = 0
    for s, gaussian, oracle in zip(s_values, gaussian_values, oracle_values):
        gap = abs(gaussian - oracle) / max(abs(gaussian), 1e-300)
        flag = bool(gap > 10.0 * budget)
        flagged += int(flag)
        rows.append(
            {
                "s": s,
                "gaussian_qs": gaussian,
                "oracle_qs": oracle,
                "relative_gap": gap,
                "tail_budget": budget,
                "flagged": flag,
            }
        )
    config = _config_echo(resolved, cutoff=args.cutoff, s_grid=s_values)
    diagnostics = {"flagged": flagged}
    if fmt == "json":
        _emit(RunReport(config=config, rows=rows, diagnostics=diagnostics).to_json(), args.out)
        return 0
    lines = ["s gaussian_qs oracle_qs relative_gap tail_budget flag"]
    for row in rows:
        lines.append(
            f"{row['s']:.4f} {_fmt(row['gaussian_qs'])} {_fmt(row['oracle_qs'])} "
            f"{_fmt(row['relative_gap'])} {_fmt(row['tail_budget'])} "
            f"{'GAP' if row['flagged'] else 'ok'}"
        )
    lines.append(f"flagged: {flagged}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
    "crossover": cmd_crossover,
    "state-info": cmd_state_info,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own message
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DimensionCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (TailBudgetError, ValueError) as exc:
        print(f"error: {str(exc).splitlines()[0]}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
