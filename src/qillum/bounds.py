"""Discrimination bounds for Gaussian hypothesis pairs.

The central object is the overlap functional

    q(s) = Tr[rho_A^s rho_B^(1-s)],

evaluated for zero-mean or displaced Gaussian states from their Williamson
data. Minimizing over s in (0, 1) gives the quantum Chernoff bound on the
M-copy error probability, P_err <= q(s*)^M / 2; freezing s = 1/2 gives the
Bhattacharyya variant. Everything is assembled in log space so that million-
copy exponents keep full relative precision.

Closed-form error-exponent coefficients for the two standard entangled probes
are provided alongside, normalized so that the per-copy exponent in the
bright, weakly reflecting regime is kappa * gamma / n_background.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .states import (
    AnalyticDomainError,
    IlluminationScenario,
    max_three_mode_correlation,
    target_absent_cov,
    target_absent_williamson,
    target_present_cov,
    target_present_factorization,
    two_mode_target_absent_cov,
    two_mode_target_present_cov,
)
from .symplectic import (
    CovarianceMatrix,
    GaussianState,
    WilliamsonDecomposition,
    williamson_decompose,
)

EIGENVALUE_SNAP = 1e-9

MODELS = ("three-mode", "two-mode", "coherent")


def _check_power_args(x: float, p: float) -> float:
    if not 0.0 < p <= 1.0:
        raise ValueError("power must lie in (0, 1]")
    if x < 1.0 - EIGENVALUE_SNAP:
        raise ValueError(f"symplectic eigenvalue {x:.12g} below one")
    return max(x, 1.0)


def power_variance(x: float, p: float) -> float:
    """[(x+1)^p + (x-1)^p] / [(x+1)^p - (x-1)^p], the variance map of a mode power.

    For p = 1 this is x itself; the general case is written through
    expm1/log1p so the x -> 1 and x -> infinity limits lose nothing.
    """
    x = _check_power_args(x, p)
    if p == 1.0:
        return x
    if x == 1.0:
        return 1.0
    delta = p * (math.log1p(-1.0 / x) - math.log1p(1.0 / x))
    return (1.0 + math.exp(delta)) / -math.expm1(delta)


def _log_power_trace(x: float, p: float) -> float:
    x = _check_power_args(x, p)
    if p == 1.0 or x == 1.0:
        return 0.0
    lp = p * (math.log(x) + math.log1p(1.0 / x))
    delta = p * (math.log1p(-1.0 / x) - math.log1p(1.0 / x))
    return p * math.log(2.0) - lp - math.log(-math.expm1(delta))


def power_trace(x: float, p: float) -> float:
    """2^p / [(x+1)^p - (x-1)^p]: trace of the normalized p-th power of a mode."""
    return math.exp(_log_power_trace(x, p))


@dataclass
class OverlapResult:
    """One evaluation of q(s) with its log-space pieces."""

    value: float
    log_value: float
    prefactor_log: float
    det_term_log: float
    displacement_log: float
    s: float


def _as_state(obj) -> GaussianState:
    if isinstance(obj, GaussianState):
        return obj
    if isinstance(obj, CovarianceMatrix):
        return GaussianState(cov=obj)
    return GaussianState(cov=CovarianceMatrix(np.asarray(obj, dtype=float)))


def _powered_cov(dec: WilliamsonDecomposition, p: float) -> np.ndarray:
    lam = np.repeat([power_variance(nu, p) for nu in dec.nu], 2)
    return (dec.symplectic * lam) @ dec.symplectic.T


def power_overlap(
    state_a,
    state_b,
    s: float,
    *,
    decomposition_a: WilliamsonDecomposition | None = None,
    decomposition_b: WilliamsonDecomposition | None = None,
) -> OverlapResult:
    """Evaluate q(s) = Tr[rho_A^s rho_B^(1-s)] for two Gaussian states.

    Optional precomputed Williamson decompositions skip the numeric
    diagonalization; any symplectic matrix decomposing the covariance gives
    the same answer. A combined covariance that fails its Cholesky
    factorization is reported as an error, never patched over.
    """
    a = _as_state(state_a)
    b = _as_state(state_b)
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie strictly inside (0, 1)")
    if a.n != b.n:
        raise ValueError(f"mode count mismatch: {a.n} vs {b.n}")
    da = decomposition_a or williamson_decompose(a.cov)
    db = decomposition_b or williamson_decompose(b.cov)

    prefactor_log = a.n * math.log(2.0)
    prefactor_log += sum(_log_power_trace(nu, s) for nu in da.nu)
    prefactor_log += sum(_log_power_trace(nu, 1.0 - s) for nu in db.nu)

    combined = _powered_cov(da, s) + _powered_cov(db, 1.0 - s)
    try:
        cf = cho_factor(combined, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("combined covariance is not positive definite") from exc
    det_term_log = -float(np.sum(np.log(np.diag(cf[0]))))

    d = b.mean - a.mean
    if np.any(d):
        displacement_log = -0.5 * float(d @ cho_solve(cf, d))
    else:
        displacement_log = 0.0

    log_value = prefactor_log + det_term_log + displacement_log
    return OverlapResult(
        value=math.exp(log_value),
        log_value=log_value,
        prefactor_log=prefactor_log,
        det_term_log=det_term_log,
        displacement_log=displacement_log,
        s=s,
    )


@dataclass
class BoundResult:
    """Upper bound P_err <= value on the M-copy discrimination error."""

    value: float
    q_at_s: float
    s_used: float
    copies: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.s_used < 1.0:
            raise ValueError("optimal s must lie inside (0, 1)")
        if self.copies < 1:
            raise ValueError("copies must be positive")
        expected = self.q_at_s**self.copies / 2.0
        if abs(self.value - expected) > 1e-12 * max(expected, 1e-300):
            raise ValueError("bound value inconsistent with per-copy overlap")


def _bound_from_overlap(ov: OverlapResult, copies: int, **extra) -> BoundResult:
    diagnostics = {
        "prefactor_log": ov.prefactor_log,
        "det_term_log": ov.det_term_log,
        "displacement_log": ov.displacement_log,
        "log_overlap": ov.log_value,
        "exponent_per_copy": -ov.log_value,
        "exponent_total": -copies * ov.log_value,
    }
    diagnostics.update(extra)
    return BoundResult(
        value=ov.value**copies / 2.0,
        q_at_s=ov.value,
        s_used=ov.s,
        copies=copies,
        diagnostics=diagnostics,
    )


def bhattacharyya_bound(
    state_a,
    state_b,
    copies: int = 1,
    *,
    decomposition_a: WilliamsonDecomposition | None = None,
    decomposition_b: WilliamsonDecomposition | None = None,
) -> BoundResult:
    """q(1/2)-based bound; always at least as large as the Chernoff bound."""
    ov = power_overlap(
        state_a,
        state_b,
        0.5,
        decomposition_a=decomposition_a,
        decomposition_b=decomposition_b,
    )
    return _bound_from_overlap(ov, copies)


def _golden_minimize(f, lo: float, hi: float, tol: float = 1e-10):
    """Golden-section search to absolute interval width tol. Returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def chernoff_bound(
    state_a,
    state_b,
    copies: int = 1,
    *,
    decomposition_a: WilliamsonDecomposition | None = None,
    decomposition_b: WilliamsonDecomposition | None = None,
) -> BoundResult:
    """min over s of q(s), by coarse grid plus golden-section refinement.

    The 33-point grid contains s = 1/2 exactly (its midpoint is set to 0.5,
    since linspace lands one ulp below), so the result can never exceed the
    Bhattacharyya bound. The refinement narrows s to 1e-10.
    """
    a = _as_state(state_a)
    b = _as_state(state_b)
    da = decomposition_a or williamson_decompose(a.cov)
    db = decomposition_b or williamson_decompose(b.cov)

    def logq(s: float) -> float:
        return power_overlap(a, b, s, decomposition_a=da, decomposition_b=db).log_value

    grid = np.linspace(1e-6, 1.0 - 1e-6, 33)
    grid[len(grid) // 2] = 0.5
    values = [logq(s) for s in grid]
    k = int(np.argmin(values))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    s_best, log_best = _golden_minimize(logq, lo, hi)
    if values[k] < log_best:
        s_best, log_best = grid[k], values[k]

    ov = power_overlap(a, b, s_best, decomposition_a=da, decomposition_b=db)
    return _bound_from_overlap(ov, copies, grid_points=len(grid))


def error_exponent_two_mode(n_signal: float) -> float:
    """Large-background exponent coefficient of the two-mode squeezed probe.

    The per-copy Chernoff exponent approaches kappa * gamma / n_background
    with this gamma; it exceeds the coherent-probe coefficient n_signal / 4
    by a factor approaching 4 as n_signal -> 0.
    """
    ns = n_signal
    if ns < 0:
        raise ValueError("photon number must be nonnegative")
    if ns == 0:
        return 0.0
    root = math.sqrt(ns * (1.0 + ns))
    return ns * (1.0 + ns) * (1.0 + ns - root) / (1.0 + ns + root)


def error_exponent_three_mode(n_signal: float) -> float:
    """Large-background exponent coefficient of the symmetric three-mode probe
    at its maximal correlation amplitude."""
    ns = n_signal
    if ns < 0:
        raise ValueError("photon number must be nonnegative")
    if ns == 0:
        return 0.0
    s = 2.0 * ns + 1.0
    c = max_three_mode_correlation(ns)
    nu = math.sqrt(s * s - c * c)
    return 0.5 * c * c * s * (1.0 - math.sqrt(nu * nu - 1.0) / nu)


def coherent_exponent_coefficient(n_signal: float) -> float:
    """Classical benchmark: a coherent probe of the same energy gives n_signal / 4."""
    return n_signal / 4.0


@dataclass
class ExponentComparison:
    """Row of a probe-comparison sweep; ratio > 1 favors the three-mode probe."""

    n_signal: float
    gamma2: float
    gamma3: float
    ratio: float


def compare_exponents(n_signal: float) -> ExponentComparison:
    g2 = error_exponent_two_mode(n_signal)
    g3 = error_exponent_three_mode(n_signal)
    return ExponentComparison(
        n_signal=n_signal,
        gamma2=g2,
        gamma3=g3,
        ratio=g3 / g2 if g2 > 0 else math.nan,
    )


def ratio_sweep(grid) -> list[ExponentComparison]:
    values = [float(v) for v in grid]
    if any(v <= 0 for v in values):
        raise ValueError("sweep grid must be strictly positive")
    return [compare_exponents(v) for v in values]


@dataclass
class CrossoverResult:
    n_signal: float
    residual: float


def find_crossover(lo: float = 0.05, hi: float = 1.0) -> CrossoverResult:
    """Signal photon number where the two probes' exponent coefficients cross.

    Below the crossover the three-mode probe wins (ratio > 1), above it the
    two-mode probe does. Bisection to an interval below 1e-13 keeps the
    reported residual gamma3/gamma2 - 1 at rounding level.
    """

    def h(ns: float) -> float:
        return error_exponent_three_mode(ns) - error_exponent_two_mode(ns)

    flo, fhi = h(lo), h(hi)
    if flo == 0.0:
        return CrossoverResult(lo, 0.0)
    if fhi == 0.0:
        return CrossoverResult(hi, 0.0)
    if flo * fhi > 0:
        raise ValueError(f"no sign change on [{lo:g}, {hi:g}]")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        fm = h(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    ns = 0.5 * (lo + hi)
    residual = error_exponent_three_mode(ns) / error_exponent_two_mode(ns) - 1.0
    return CrossoverResult(n_signal=ns, residual=residual)


def illumination_states(
    scenario: IlluminationScenario, model: str = "three-mode"
) -> tuple[GaussianState, GaussianState]:
    """Target-absent and target-present states for the requested probe model."""
    if model == "three-mode":
        return (
            GaussianState(cov=target_absent_cov(scenario)),
            GaussianState(cov=target_present_cov(scenario)),
        )
    if model == "two-mode":
        return (
            GaussianState(cov=two_mode_target_absent_cov(scenario)),
            GaussianState(cov=two_mode_target_present_cov(scenario)),
        )
    if model == "coherent":
        b = scenario.background_variance
        amp = 2.0 * math.sqrt(scenario.reflectivity * scenario.n_signal)
        cov = CovarianceMatrix(np.diag([b, b]).astype(float))
        return (
            GaussianState(cov=cov),
            GaussianState(cov=cov, mean=np.array([amp, 0.0])),
        )
    raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")


def _scenario_decompositions(scenario: IlluminationScenario, model: str):
    """Closed-form Williamson data where available. Returns (dec_a, dec_b, ok)."""
    if model != "three-mode":
        return None, None, True
    dec_a = target_absent_williamson(scenario)
    try:
        dec_b = target_present_factorization(scenario).williamson()
        return dec_a, dec_b, True
    except AnalyticDomainError:
        return dec_a, williamson_decompose(target_present_cov(scenario)), False


def illumination_bhattacharyya(
    scenario: IlluminationScenario, model: str = "three-mode"
) -> BoundResult:
    absent, present = illumination_states(scenario, model)
    dec_a, dec_b, ok = _scenario_decompositions(scenario, model)
    result = bhattacharyya_bound(
        absent,
        present,
        scenario.copies,
        decomposition_a=dec_a,
        decomposition_b=dec_b,
    )
    result.diagnostics["analytic_domain_ok"] = ok
    return result


def illumination_chernoff(
    scenario: IlluminationScenario, model: str = "three-mode"
) -> BoundResult:
    absent, present = illumination_states(scenario, model)
    dec_a, dec_b, ok = _scenario_decompositions(scenario, model)
    result = chernoff_bound(
        absent,
        present,
        scenario.copies,
        decomposition_a=dec_a,
        decomposition_b=dec_b,
    )
    result.diagnostics["analytic_domain_ok"] = ok
    return result


def coherent_bhattacharyya(scenario: IlluminationScenario) -> BoundResult:
    """Bhattacharyya bound for the classical coherent-probe benchmark."""
    return illumination_bhattacharyya(scenario, model="coherent")
