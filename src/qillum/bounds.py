"""Discrimination bounds for Gaussian hypothesis pairs.

The central object is the overlap functional

    q(s) = Tr[rho_A^s rho_B^(1-s)],

evaluated for zero-mean or displaced Gaussian states from their Williamson
data, for one s or a whole batch of s values in one vectorised pass.
Minimizing over s in (0, 1) gives the quantum Chernoff bound on the M-copy
error probability, P_err <= q(s*)^M / 2; freezing s = 1/2 gives the
Bhattacharyya variant. Everything is assembled in log space so that million-
copy exponents keep full relative precision.

Closed-form error-exponent coefficients for the two standard entangled probes
are provided alongside, normalized so that the per-copy exponent in the
bright, weakly reflecting regime is kappa * gamma / n_background.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .states import IlluminationScenario, illumination_states, max_three_mode_correlation
from .symplectic import PHYSICAL_TOL, CovarianceMatrix, GaussianState

# chernoff_bound's search: a grid holding s = 1/2 exactly, then zoom rounds of
# ZOOM_POINTS interior points until log q around the best point is flat to
# ROUNDING_ULPS ulps of its log pieces, or the bracket is narrower than S_TOL.
# Each round shrinks the two-step bracket 19-fold, so seven rounds take the
# grid's 1/16 bracket below 1e-10 and a search makes at most eight engine calls.
GRID_POINTS = 33
ZOOM_POINTS = 37
S_TOL = 1e-10
ROUNDING_ULPS = 4
# linspace lands one ulp below 1/2 at the grid's midpoint, so it is set exactly.
CHERNOFF_GRID = np.linspace(1e-6, 1.0 - 1e-6, GRID_POINTS)
CHERNOFF_GRID[GRID_POINTS // 2] = 0.5
CHERNOFF_GRID.flags.writeable = False
# Interior points of a zoom round, as fractions of its bracket.
ZOOM_FRACTIONS = np.arange(1, ZOOM_POINTS + 1) / (ZOOM_POINTS + 1)


def _check_eigenvalues(nu) -> np.ndarray:
    """Symplectic eigenvalues as an array; dips below one within PHYSICAL_TOL snapped to one."""
    nu = np.asarray(nu, dtype=float)
    low = nu < 1.0 - PHYSICAL_TOL
    if low.any():
        raise ValueError(f"symplectic eigenvalue {nu[low].flat[0]:.12g} below one")
    return np.maximum(nu, 1.0)


def _mode_logs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The power-independent parts of _power_maps: log((x-1)/(x+1)) and log 2 - log(x+1)."""
    inv = 1.0 / x
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at x = 1
        log_ratio = np.log1p(-inv) - np.log1p(inv)
    return log_ratio, math.log(2.0) - np.log1p(x)


def _power_maps(x: np.ndarray, logs: tuple, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Variance map and log power trace of a mode, elementwise over x >= 1, 0 < p <= 1.

    logs is _mode_logs(x). With e = [(x-1)/(x+1)]^p - 1 the variance map is
    (2 + e) / -e and the log trace p log 2 - p log(x+1) - log(-e). The
    ratio's log goes through log1p and e through expm1, so the x -> 1 and
    x -> infinity limits lose nothing; x = 1 gives exactly 1 and 0, and
    p = 1 exactly x and 0.
    """
    log_ratio, log_half = logs
    em1 = np.expm1(p * log_ratio)
    variance = (2.0 + em1) / -em1
    log_trace = p * log_half - np.log(-em1)
    exact = p == 1.0
    if exact.any():
        variance = np.where(exact, x, variance)
        log_trace[exact] = 0.0
    return variance, log_trace


@dataclass
class OverlapResult:
    """One evaluation of q(s) with its log-space pieces."""

    value: float
    log_value: float
    prefactor_log: float
    det_term_log: float
    displacement_log: float
    s: float


# _PairEngine returns OverlapResult's fields as rows, in this order.
_FIELDS = [f.name for f in fields(OverlapResult)]
LOG_ROW, S_ROW = _FIELDS.index("log_value"), _FIELDS.index("s")
PIECE_ROWS = [_FIELDS.index(f) for f in ("prefactor_log", "det_term_log", "displacement_log")]


def _as_state(obj) -> GaussianState:
    if isinstance(obj, GaussianState):
        return obj
    if isinstance(obj, CovarianceMatrix):
        return GaussianState(cov=obj)
    return GaussianState(cov=CovarianceMatrix(np.asarray(obj, dtype=float)))


def _forward_solve(chol: np.ndarray, d: np.ndarray) -> np.ndarray:
    """L^-1 d for every lower-triangular L of a (k, m, m) stack, row by row."""
    y = np.zeros(chol.shape[:2])
    for i in range(chol.shape[1]):
        y[:, i] = (d[i] - (chol[:, i, :i] * y[:, :i]).sum(axis=1)) / chol[:, i, i]
    return y


class _PairEngine:
    """q(s) for one pair of states: the per-pair work once, then any batch of s.

    Construction checks the mode counts and both spectra and keeps what does
    not depend on s: the clipped eigenvalues with their _mode_logs, [S_A | S_B]
    and the mean difference. A call evaluates a 1-D array of s values
    together: the power maps elementwise on a (k, 2n) array, the combined
    covariances S_A Lambda_s S_A^T + S_B Lambda_(1-s) S_B^T as a (k, 2n, 2n)
    stack from one batched product, one Cholesky factorization of the stack
    and, for displaced states, one batched triangular solve. Every stacked
    operation acts on each s separately, so an entry does not depend on the
    rest of its batch.

    A call returns a (6, k) array whose rows are OverlapResult's fields in
    order (LOG_ROW and S_ROW name the two the search reads). Two states equal
    entry for entry, in covariance and mean, give q = 1 exactly: every log
    piece is 0 rather than a rounding residue. States that differ only by
    rounding are not caught by this rule.
    """

    def __init__(self, a: GaussianState, b: GaussianState):
        if a.n != b.n:
            raise ValueError(f"mode count mismatch: {a.n} vs {b.n}")
        da, db = a.williamson, b.williamson
        # Columns: the n modes of A at power s, then the n modes of B at 1 - s.
        self.n = a.n
        self.nu = _check_eigenvalues(np.concatenate([da.nu, db.nu]))
        self.logs = _mode_logs(self.nu)
        self.sym = np.concatenate([da.symplectic, db.symplectic], axis=1)
        self.d = b.mean - a.mean
        self.displaced = bool(self.d.any())
        self.equal = not self.displaced and bool((a.cov.matrix == b.cov.matrix).all())

    def __call__(self, s: np.ndarray) -> np.ndarray:
        n = self.n
        p = np.empty((s.size, 2 * n))
        p[:, :n] = s[:, None]
        p[:, n:] = 1.0 - s[:, None]
        variance, log_trace = _power_maps(self.nu, self.logs, p)
        prefactor_log = n * math.log(2.0) + log_trace.sum(axis=1)

        # S_A Lambda_s S_A^T + S_B Lambda_(1-s) S_B^T as one product over [S_A | S_B].
        combined = (self.sym * variance.repeat(2, axis=1)[:, None, :]) @ self.sym.T
        try:
            chol = np.linalg.cholesky(combined)
        except np.linalg.LinAlgError as exc:
            raise ValueError("combined covariance is not positive definite") from exc
        det_term_log = -np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)

        if self.displaced:
            displacement_log = -0.5 * (_forward_solve(chol, self.d) ** 2).sum(axis=1)
        else:
            displacement_log = np.zeros_like(s)
        if self.equal:
            # Checked like any pair above, but q is 1 whatever the rounding says.
            prefactor_log = det_term_log = np.zeros_like(s)

        log_value = prefactor_log + det_term_log + displacement_log
        return np.array(
            [np.exp(log_value), log_value, prefactor_log, det_term_log, displacement_log, s]
        )


def power_overlap(
    state_a, state_b, s: float | Sequence[float]
) -> OverlapResult | list[OverlapResult]:
    """Evaluate q(s) = Tr[rho_A^s rho_B^(1-s)] for two Gaussian states.

    s is one value or a 1-D sequence of values; a scalar gives one
    OverlapResult and a sequence a list of them, one per value. The values
    go to one _PairEngine call, of which a scalar is the length-1 case, so an
    entry of a sequence equals its scalar call bit for bit.

    The Williamson data come from each state's `williamson`, so a
    GaussianState passed again is not decomposed again; any symplectic matrix
    decomposing the covariance gives the same answer. A combined covariance
    that fails its Cholesky factorization is reported as an error, never
    patched over.
    """
    a = _as_state(state_a)
    b = _as_state(state_b)
    s_array = np.asarray(s, dtype=float)
    s_values = s_array.reshape(1) if s_array.ndim == 0 else s_array
    if s_values.ndim != 1 or not ((s_values > 0.0) & (s_values < 1.0)).all():
        raise ValueError("s must lie strictly inside (0, 1)")
    results = [OverlapResult(*column) for column in _PairEngine(a, b)(s_values).T.tolist()]
    return results[0] if s_array.ndim == 0 else results


@dataclass
class BoundResult:
    """Upper bound P_err <= value on the M-copy discrimination error.

    A Chernoff bound carries, as `bhattacharyya`, the Bhattacharyya bound read
    off the s = 1/2 point of the same evaluation, so the two never disagree
    about their order.
    """

    value: float
    q_at_s: float
    s_used: float
    copies: int
    diagnostics: dict = field(default_factory=dict)
    bhattacharyya: BoundResult | None = field(default=None, repr=False)

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
        # 0.0 - x, not -x: a log q of +0.0 gives the exponent +0.0, not -0.0.
        "exponent_per_copy": 0.0 - ov.log_value,
        "exponent_total": 0.0 - copies * ov.log_value,
    }
    diagnostics.update(extra)
    return BoundResult(
        value=ov.value**copies / 2.0,
        q_at_s=ov.value,
        s_used=ov.s,
        copies=copies,
        diagnostics=diagnostics,
    )


def bhattacharyya_bound(state_a, state_b, copies: int = 1) -> BoundResult:
    """q(1/2)-based bound; always at least as large as the Chernoff bound."""
    return _bound_from_overlap(power_overlap(state_a, state_b, 0.5), copies)


def chernoff_bound(state_a, state_b, copies: int = 1) -> BoundResult:
    """min over s of q(s), by a batched grid and batched zoom rounds.

    log q(s) is convex in s (Audenaert et al., PRL 98, 160501 (2007)), so
    the minimum lies within one step of the smallest value on any grid. The
    33-point grid is one _PairEngine call; each zoom round spreads 37 points
    over the two steps around the smallest value so far, in one call. After
    each call, with k the smallest point, the spread of log q over the evenly
    spaced points k - 2 ... k + 2 bounds by convexity how far the exact
    minimum over the bracket lies below the best point; the result carries
    it as `chernoff_gap`. The search stops once the spread is at most
    ROUNDING_ULPS ulps of the points' largest |prefactor_log| + |det_term_log|
    + |displacement_log|, or else once the bracket is narrower than 1e-10
    (at most seven rounds). The result is the smallest q over every
    evaluated point, the first one when several tie. Each state is
    decomposed once, on its first use, and keeps the result.

    The search starts from power_overlap's s = 1/2 point, the one
    bhattacharyya_bound gives, and carries it as `bhattacharyya`; the result
    can never exceed it. The grid holds s = 1/2 as well, so the points
    searched, and their order, do not depend on that start.
    """
    a = _as_state(state_a)
    b = _as_state(state_b)
    half = power_overlap(a, b, 0.5)
    engine = _PairEngine(a, b)
    # Columns are evaluated points, rows OverlapResult's fields.
    points = engine(CHERNOFF_GRID)
    best = half
    rounds = 0
    while True:
        k = int(np.argmin(points[LOG_ROW]))
        if points[LOG_ROW, k] < best.log_value:
            best = OverlapResult(*points[:, k].tolist())
        near = points[:, max(k - 2, 0) : k + 3]
        gap = float(np.ptp(near[LOG_ROW]))
        floor = ROUNDING_ULPS * np.finfo(float).eps * np.abs(near[PIECE_ROWS]).sum(axis=0).max()
        lo, hi = max(k - 1, 0), min(k + 1, points.shape[1] - 1)
        s_lo, s_hi = points[S_ROW, lo], points[S_ROW, hi]
        if gap <= floor or s_hi - s_lo <= S_TOL:
            break
        inner = engine(s_lo + (s_hi - s_lo) * ZOOM_FRACTIONS)
        points = np.concatenate([points[:, lo, None], inner, points[:, hi, None]], axis=1)
        rounds += 1

    result = _bound_from_overlap(
        best,
        copies,
        grid_points=GRID_POINTS,
        zoom_rounds=rounds,
        bracket_width=float(s_hi - s_lo),
        chernoff_gap=gap,
    )
    result.bhattacharyya = _bound_from_overlap(half, copies)
    return result


def _idler_exponent(n_signal: float, idlers: int, correlation_sq: float) -> float:
    """Large-background exponent coefficient gamma_k of a symmetric k-idler probe.

    A Fourier transform over the idlers, one unitary under both hypotheses,
    leaves a single idler coupled to the return mode, with variances
    S +- (k - 1)c and correlation sqrt(k) c. So gamma_k =
    k c^2 S / (4 nu^2 (1 + sqrt((nu^2 - 1) / nu^2))), where
    nu^2 - 1 = 4 nS (1 + nS) - (k - 1)^2 c^2 is taken directly and nothing cancels.
    """
    if n_signal < 0:
        raise ValueError("photon number must be nonnegative")
    excess = 4.0 * n_signal * (1.0 + n_signal) - (idlers - 1) ** 2 * correlation_sq
    nu_sq = 1.0 + excess
    s = 2.0 * n_signal + 1.0
    return idlers * (correlation_sq / nu_sq) * s / (4.0 * (1.0 + math.sqrt(excess / nu_sq)))


def error_exponent_two_mode(n_signal: float, correlation: float | None = None) -> float:
    """Large-background exponent coefficient of the two-mode squeezed probe.

    The per-copy Chernoff exponent approaches kappa * gamma / n_background
    with this gamma, the one-idler gamma_k at correlation c or, when None, at
    the maximal c^2 = 4 nS (1 + nS). It exceeds the coherent-probe
    coefficient n_signal / 4 by a factor approaching 4 as n_signal -> 0.
    """
    if correlation is None:
        return _idler_exponent(n_signal, 1, 4.0 * n_signal * (1.0 + n_signal))
    return _idler_exponent(n_signal, 1, correlation * correlation)


def error_exponent_three_mode(n_signal: float, correlation: float | None = None) -> float:
    """Large-background exponent coefficient of the symmetric three-mode probe.

    The two-idler gamma_k at correlation c or, when None, at the maximal
    (det V = 1) amplitude.
    """
    c = max_three_mode_correlation(n_signal) if correlation is None else correlation
    return _idler_exponent(n_signal, 2, c * c)


def coherent_exponent_coefficient(n_signal: float) -> float:
    """Classical benchmark: a coherent probe of the same energy gives n_signal / 4."""
    return n_signal / 4.0


@dataclass
class CrossoverResult:
    n_signal: float
    residual: float


def find_crossover() -> CrossoverResult:
    """Signal photon number where the two probes' exponent coefficients cross.

    Below the crossover the three-mode probe wins (ratio > 1), above it the
    two-mode probe does. Bisection on [0.05, 1], where gamma3 - gamma2 runs
    from +3.9e-3 to -8.4e-2, to an interval below 1e-13 keeps the reported
    residual gamma3/gamma2 - 1 at rounding level.
    """

    def h(ns: float) -> float:
        return error_exponent_three_mode(ns) - error_exponent_two_mode(ns)

    lo, hi = 0.05, 1.0
    flo = h(lo)
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


def illumination_bhattacharyya(
    scenario: IlluminationScenario, model: str = "three-mode"
) -> BoundResult:
    return bhattacharyya_bound(*illumination_states(scenario, model), scenario.copies)


def illumination_chernoff(
    scenario: IlluminationScenario, model: str = "three-mode"
) -> BoundResult:
    """Chernoff bound; its `bhattacharyya` is the Bhattacharyya bound of the same states."""
    return chernoff_bound(*illumination_states(scenario, model), scenario.copies)
