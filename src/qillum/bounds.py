"""Discrimination bounds for Gaussian hypothesis pairs.

The central object is the overlap functional

    q(s) = Tr[rho_A^s rho_B^(1-s)],

taken one s at a time. Every printed bound comes from a closed form
for its model's hypothesis pair (_ThreeModePair, _TwoModePair, _CoherentPair),
admitted by _closed_form_pair; power_overlap and chernoff_bound evaluate any
two Gaussian states from their numeric Williamson data.
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
import sys
from dataclasses import dataclass, field

from . import _NumpyOnFirstUse
from .states import (
    IlluminationScenario,
    illuminate,
    illumination_probe,
    illumination_states,  # unused here; the benchmark's tracer wraps bounds.illumination_states
    max_three_mode_correlation,
    three_mode_reduction,
)
from .symplectic import PHYSICAL_TOL, CovarianceMatrix, GaussianState

np = _NumpyOnFirstUse(globals())

S_TOL = 1e-10  # _chernoff_search's stop rules, in its docstring
ROUNDING_ULPS = 4
MAX_CALLS = 32
EPS = sys.float_info.epsilon


@dataclass
class OverlapResult:
    """One evaluation of q(s) with its log-space pieces and the slope of log q."""

    value: float
    log_value: float
    prefactor_log: float
    det_term_log: float
    displacement_log: float
    s: float
    slope: float  # d/ds log q


def _as_state(obj) -> GaussianState:
    if isinstance(obj, GaussianState):
        return obj
    return GaussianState(cov=obj if isinstance(obj, CovarianceMatrix) else CovarianceMatrix(obj))


class _Modes:
    """A pair's modes, A's n at power s and B's n at 1 - s: spectra checked, s-free parts kept.

    nu below 1 - PHYSICAL_TOL is refused at the first such mode, A's first;
    the rest snap to nu >= 1. With r = (nu - 1)/(nu + 1) and e = r^p - 1
    (by expm1), a mode at power p (s on A's modes, 1 - s on B's, whose
    derivatives enter negated) has variance lambda = (2 + e)/-e and log
    trace p log 2 - p log(nu + 1) - log(-e): exactly 1 and 0 at nu = 1, nu
    and 0 at p = 1. log r is log(nu - 1) - log1p(nu) up to nu = 2, where
    nu - 1 is exact, and log1p(-1/nu) - log1p(1/nu) above. d(log trace)/dp =
    log 2 - log(nu + 1) + 1/2 log r (lambda - 1) and d lambda/dp = 1/2 log r
    (lambda - 1)(lambda + 1), no lambda^2 to overflow; both 0 on a vacuum mode.
    """

    def __init__(self, nu_a: list, nu_b: list):
        self.n, self.modes = len(nu_a), []
        for sign, nu in [(1.0, x) for x in nu_a] + [(-1.0, x) for x in nu_b]:
            if nu < 1.0 - PHYSICAL_TOL:
                raise ValueError(f"symplectic eigenvalue {nu:.12g} below one")
            nu = max(nu, 1.0)
            if nu == 1.0:
                log_ratio = -math.inf
            elif nu <= 2.0:
                log_ratio = math.log(nu - 1.0) - math.log1p(nu)
            else:
                log_ratio = math.log1p(-1.0 / nu) - math.log1p(1.0 / nu)
            half = sign * 0.5 * log_ratio if nu > 1.0 else 0.0
            self.modes.append((nu, sign, log_ratio, math.log(2.0) - math.log1p(nu), half))

    def maps(self, s: float) -> tuple[list, list, float, float]:
        """Variances and d lambda/ds mode by mode, prefactor_log and its slope."""
        variances, variance_slopes, log_traces, slope = [], [], 0.0, 0.0
        for nu, sign, log_ratio, log_half, half in self.modes:
            p = s if sign > 0.0 else 1.0 - s
            if p == 1.0:
                variance, log_trace = nu, 0.0
            else:
                em1 = math.expm1(p * log_ratio)
                variance, log_trace = (2.0 + em1) / -em1, p * log_half - math.log(-em1)
            excess_slope = half * (variance - 1.0)
            variances.append(variance)
            variance_slopes.append(excess_slope * (variance + 1.0))
            log_traces += log_trace
            slope += sign * log_half + excess_slope
        return variances, variance_slopes, self.n * math.log(2.0) + log_traces, slope


class _PairEngine(_Modes):
    """q(s) and d/ds log q for one pair of states: the per-pair work once, then one s per call.

    Construction checks the mode counts and both spectra and keeps what does
    not depend on s. A call forms the combined covariance
    M = S_A Lambda_s S_A^T + S_B Lambda_(1-s) S_B^T as one product over
    [S_A | S_B], its Cholesky factor L and, for displaced states, one solve.
    The displacement term d^T M^-1 d is read as 2 d.x - x^T M x at the solved
    x, summed mode by mode from t = S^T x, so the rounding of an
    ill-conditioned M enters only at second order. With lambda' = d lambda/ds
    (_Modes), the det term's slope is -1/2 sum_j lambda'_j |L^-1 S_j|^2 and
    the displacement term's 1/2 sum_j lambda'_j t_j^2, over the columns S_j
    of [S_A | S_B]. Covariances equal entry for entry give prefactor and det
    pieces, and slopes, of exactly 0 rather than a rounding residue, whatever
    the means.
    """

    def __init__(self, a: GaussianState, b: GaussianState):
        if a.n != b.n:
            raise ValueError(f"mode count mismatch: {a.n} vs {b.n}")
        da, db = a.williamson, b.williamson
        # Columns: the n modes of A at power s, then the n modes of B at 1 - s.
        super().__init__(da.nu.tolist(), db.nu.tolist())
        self.sym = np.concatenate([da.symplectic, db.symplectic], axis=1)
        self.d = b.mean - a.mean
        self.displaced = bool(self.d.any())
        self.equal_cov = bool((a.cov.matrix == b.cov.matrix).all())

    def __call__(self, s: float) -> OverlapResult:
        variances, variance_slopes, prefactor_log, slope = self.maps(s)
        lam = np.repeat(variances, 2)
        combined = (self.sym * lam) @ self.sym.T
        try:
            chol = np.linalg.cholesky(combined)
        except np.linalg.LinAlgError as exc:
            raise ValueError("combined covariance is not positive definite") from exc
        if self.equal_cov:
            # Checked like any pair above, but these pieces cancel exactly.
            prefactor_log = det_term_log = slope = w_sq = 0.0
        else:
            det_term_log = -float(np.log(np.diagonal(chol)).sum())
            whitened = np.linalg.inv(chol) @ self.sym  # the columns L^-1 S_j
            w_sq = (whitened * whitened).sum(axis=0)

        t_sq, displacement_log = 0.0, 0.0
        if self.displaced:
            x = np.linalg.solve(combined, self.d)
            t = x @ self.sym
            t_sq = t * t
            displacement_log = float(0.5 * (lam * t_sq).sum() - x @ self.d)

        if self.displaced or not self.equal_cov:  # lambda' weighs only these terms
            weights = 0.5 * np.repeat(variance_slopes, 2)
            slope += float((weights * (t_sq - w_sq)).sum())
        log_value = prefactor_log + det_term_log + displacement_log
        return OverlapResult(math.exp(log_value), log_value, prefactor_log, det_term_log,
                             displacement_log, s, slope)


def _pair_log(x: float, h: float, v: float) -> float:
    """log 2 + both log traces - log(sum of variances), absent x at 1 - v and present x + h at v.

    With r = (nu - 1)/(nu + 1) and r(x + h)/r(x) = 1 + 2h/((x + h + 1)(x - 1)),
    this is -v log1p(h/(x + 1)) - log1p(-(x - 1)/2 expm1(v log(r(x + h)/r(x)))):
    terms of the size of h/x, not of log x. A present vacuum makes the expm1 -1.
    """
    first = -v * math.log1p(h / (x + 1.0))
    if x == 1.0:  # a vacuum absent mode: r^p = 0
        return first
    y = x + h
    ratio = 2.0 * h / (y + 1.0) / (x - 1.0)
    if y <= 1.0 or ratio <= -1.0:  # r(x + h) = 0, so the expm1 is -1
        return first - math.log1p(0.5 * (x - 1.0))
    return first - math.log1p(-0.5 * (x - 1.0) * math.expm1(v * math.log1p(ratio)))


class _TwoModePair(_Modes):
    """The two-mode pair, one s per call: absent, thermal a = 2 n_b + 1 and b = 2 n_s + 1.

    Present, x block [[a', c'], [c', b]] (p block -c'), a' = a + 2 kappa n_s,
    c' = sqrt(kappa) c: a two-mode squeezer of sinh^2 r = -h/R on thermal
    a' + h (return) and b + h (idler), R = sqrt((a' + b - 2c')(a' + b + 2c')),
    h = -2c'^2/(R + a' + b). With P, Q the absent variances at s and M, N the
    present ones at 1 - s, each quadrature's combined determinant is
    D = (P + M)(Q + N)(1 + t), t = sinh^2 r (M + N)(P + Q)/((P + M)(Q + N)).
    So log q is both mode pairs' _pair_log less log1p(t); prefactor_log and
    det_term_log = -log D, which cancel, scale the search's rounding floor.
    """

    def __init__(self, a: float, b: float, a1: float, c1: float):
        # a' + b - 2c' summed exactly rounded: near a pure present state it is tiny
        root = math.sqrt(max(math.fsum((a1, b, -2.0 * c1)), 0.0)) * math.sqrt(a1 + b + 2.0 * c1)
        h = -2.0 * c1 * (c1 / (root + a1 + b))
        super().__init__([a, b], [a1 + h, b + h])  # refuses nu < 1, so R >= 2 below
        self.pairs = ((a, (a1 - a) + h), (b, h))  # absent nu, present less absent
        self.sinh_sq = 2.0 * c1 / root * (c1 / (root + a1 + b))
        self.equal = a1 == a and c1 == 0.0  # equal states: 0 throughout

    def __call__(self, s: float) -> OverlapResult:
        if self.equal:
            return OverlapResult(1.0, 0.0, 0.0, 0.0, 0.0, s, 0.0)
        (p, q, m, n), (dp, dq, dm, dn), prefactor_log, slope = self.maps(s)
        pm, qn, mn, pq = p + m, q + n, m + n, p + q
        t = self.sinh_sq * (mn / pm) * (pq / qn)
        det_term_log = -(math.log(pm) + math.log(qn) + math.log1p(t))
        d_log_det = (dp + dm) / pm + (dq + dn) / qn
        d_log_det = (d_log_det + t * ((dm + dn) / mn + (dp + dq) / pq)) / (1.0 + t)
        log_value = sum(_pair_log(x, h, 1.0 - s) for x, h in self.pairs) - math.log1p(t)
        return OverlapResult(math.exp(log_value), log_value, prefactor_log, det_term_log, 0.0,
                             s, slope - d_log_det)


class _ThreeModePair(_Modes):
    """The three-mode pair, one s per call, on the two modes of states.three_mode_reduction.

    With w = absent variance at s + present at 1 - s, M0 = diag(w) and
    Delta = S Lambda S^T - Lambda, each quadrature's det M / (w1 w2) is 1 + Z,
    Z = tr Y + det Y, Y = M0^-1/2 Delta M0^-1/2. So log q is the two modes'
    _pair_log less half of each quadrature's log1p(Z): terms of the size of
    h/a, never pieces of size log a. Its slope takes d log det M =
    tr((1 + Y)^-1 M0^-1/2 dM M0^-1/2). prefactor_log and det_term_log, which
    cancel, only scale the search's rounding floor. The reduction's idler nu
    is at least 1 for every c up to the det V = 1 maximum, so it is not
    checked.
    """

    def __init__(self, a: float, signal: float, a1: float, c: float, c1: float):
        _, (first, second), nus, (h1, h2), self.quadratures = three_mode_reduction(
            a, signal, a1, c, c1)
        super().__init__([first[0], second[0]], list(nus))
        self.pairs = ((first[0], (first[1] - first[0]) + h1),
                      (second[0], (second[1] - second[0]) + h2))
        self.equal = a1 == a and c1 == 0.0  # equal states: 0 throughout

    def __call__(self, s: float) -> OverlapResult:
        if self.equal:
            return OverlapResult(1.0, 0.0, 0.0, 0.0, 0.0, s, 0.0)
        (p1, p2, m1, m2), (dp1, dp2, dm1, dm2), prefactor_log, slope = self.maps(s)
        w1, w2 = p1 + m1, p2 + m2
        log_det, d_log_det = 2.0 * (math.log(w1) + math.log(w2)), 0.0
        log_value = sum(_pair_log(x, h, 1.0 - s) for x, h in self.pairs)
        for e21, e12, n1, n2 in self.quadratures:
            n1sq, n2sq = 1.0 + n1, 1.0 + n2
            y11 = (m1 * n1 + m2 * n2sq * e12 * e12) / w1
            y22 = (m1 * n1sq * e21 * e21 + m2 * n2) / w2
            y12 = m1 * n1sq * e21 + m2 * n2sq * e12
            z = y11 + y22 + (y11 * y22 - (y12 / w1) * (y12 / w2))
            log_det += math.log1p(z)
            log_value -= 0.5 * math.log1p(z)
            da = dp1 + dm1 * n1sq + dm2 * n2sq * e12 * e12
            dc = dp2 + dm1 * n1sq * e21 * e21 + dm2 * n2sq
            db = dm1 * n1sq * e21 + dm2 * n2sq * e12
            d_log_det += ((1.0 + y22) * da / w1 + (1.0 + y11) * dc / w2
                          - 2.0 * (y12 / w1) * (db / w2)) / (1.0 + z)
        return OverlapResult(math.exp(log_value), log_value, prefactor_log, -0.5 * log_det, 0.0,
                             s, slope - 0.5 * d_log_det)


class _CoherentPair(_Modes):
    """The coherent pair: thermal a = 2 n_b + 1 in both, means 2 sqrt(kappa n_s) apart, so
    log q = -2 kappa n_s / L, L = lambda_s(a) + lambda_(1-s)(a), with slope 2 kappa n_s L'/L^2."""

    def __init__(self, a: float, photons: float):
        super().__init__([a], [a])
        self.photons = photons

    def __call__(self, s: float) -> OverlapResult:
        (l0, l1), (d0, d1), _, _ = self.maps(s)
        total, slope = l0 + l1, d0 + d1
        log_value = 0.0 - self.photons / total
        return OverlapResult(math.exp(log_value), log_value, 0.0, 0.0, log_value, s,
                             self.photons / total * (slope / total))


def power_overlap(state_a, state_b, s: float) -> OverlapResult:
    """Evaluate q(s) = Tr[rho_A^s rho_B^(1-s)] for two Gaussian states at one s.

    The Williamson data come from each state's `williamson`, so a
    GaussianState passed again is not decomposed again; any symplectic matrix
    decomposing the covariance gives the same answer. A combined covariance
    that fails its Cholesky factorization is reported as an error, never
    patched over.
    """
    a, b = _as_state(state_a), _as_state(state_b)
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie strictly inside (0, 1)")
    return _PairEngine(a, b)(s)


@dataclass
class BoundResult:
    """Upper bound P_err <= value = q(s)^copies / 2, read off the evaluation `overlap` of q.

    A Chernoff bound carries, as `bhattacharyya`, the Bhattacharyya bound read
    off the s = 1/2 point of the same search, so the two never disagree about
    their order, and the search's `search_calls`, `bracket_width` and
    `chernoff_gap` (_chernoff_search).
    """

    overlap: OverlapResult
    copies: int
    bhattacharyya: BoundResult | None = field(default=None, repr=False)
    search_calls: int | None = None
    bracket_width: float | None = None
    chernoff_gap: float | None = None

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError("copies must be positive")

    @property
    def value(self) -> float:
        """exp(copies log q) / 2: q**copies would carry copies ulps of q."""
        return 0.5 * math.exp(self.copies * self.overlap.log_value)

    @property
    def log10_value(self) -> float:
        """log10(q^M / 2) from log q, finite where `value` underflows to 0."""
        return (self.copies * self.overlap.log_value - math.log(2.0)) / math.log(10.0)

    @property
    def exponent_per_copy(self) -> float:
        # 0.0 - x, not -x: a log q of +0.0 gives the exponent +0.0, not -0.0.
        return 0.0 - self.overlap.log_value


def bhattacharyya_bound(state_a, state_b, copies: int = 1) -> BoundResult:
    """q(1/2)-based bound; always at least as large as the Chernoff bound."""
    return BoundResult(power_overlap(state_a, state_b, 0.5), copies)


def _tangent_floor(lo: OverlapResult | None, hi: OverlapResult | None) -> tuple[float, float]:
    """(s, log q) where the tangents at lo and hi cross, or at s = 0 or 1 if one is None."""
    if lo is None or hi is None:
        end, p = (0.0, hi) if lo is None else (1.0, lo)
        return end, p.log_value + p.slope * (end - p.s)
    cross = hi.log_value - lo.log_value + lo.slope * lo.s - hi.slope * hi.s
    cross /= lo.slope - hi.slope
    return cross, lo.log_value + lo.slope * (cross - lo.s)


def _chernoff_search(half: OverlapResult, build, copies: int) -> BoundResult:
    """min over s of q(s), by a search on the slope of log q, one s per evaluation.

    log q(s) is convex (Audenaert et al., PRL 98, 160501 (2007)): its slope's
    sign brackets the minimum and its tangents bound it from below. The
    search starts from the s = 1/2 point `half`, the Bhattacharyya point
    the result carries as `bhattacharyya`; build(), called on the first
    step, gives the function from s to its OverlapResult. The bracket is
    (0, 1) narrowed to the nearest points of negative (lo) and nonnegative
    (hi) slope. While an end is 0 or 1, Newton steps go toward it, on the
    curvature of the parabola that is 0 there (as log q is), then on the
    secant of the last two slopes, doubled while the slope keeps its sign.
    Then each step goes to the minimum of the cubic through both ends'
    values and slopes, or to the tangents' crossing after a cubic step that
    did not halve `chernoff_gap`, the best value's height above the
    tangents. It stops once that gap is within ROUNDING_ULPS ulps of the
    largest |prefactor_log| + |det_term_log| + |displacement_log| among the
    best point and the ends; the bracket below S_TOL and MAX_CALLS calls
    only cap it. The result is the smallest q evaluated, the first of ties.
    """
    best = point = half
    lo = hi = previous = evaluate = None
    calls, last_gap, crossing = 0, math.inf, False
    while True:
        best = point if point.log_value < best.log_value else best
        lo, hi = (point, hi) if point.slope < 0.0 else (lo, point)
        cross, bound = _tangent_floor(lo, hi)
        gap = best.log_value - bound
        s_lo, s_hi = (lo.s if lo else 0.0), (hi.s if hi else 1.0)
        pieces = (abs(p.prefactor_log) + abs(p.det_term_log) + abs(p.displacement_log)
                  for p in (best, lo, hi) if p)
        certified = gap <= ROUNDING_ULPS * EPS * max(pieces)
        if certified or s_hi - s_lo <= S_TOL or calls == MAX_CALLS:
            break
        if lo and hi:
            crossing = gap > 0.5 * last_gap and not crossing
            last_gap, width = gap, s_hi - s_lo
            d1 = lo.slope + hi.slope - 3.0 * (hi.log_value - lo.log_value) / width
            d2 = math.sqrt(d1 * d1 - lo.slope * hi.slope)
            cubic = hi.s - width * (hi.slope + d2 - d1) / (hi.slope - lo.slope + 2.0 * d2)
            s = cross if crossing else cubic
            s = min(max(s, s_lo + 1e-3 * width), s_hi - 1e-3 * width)  # a new point, inside
        else:  # the minimum lies between point and end
            end = 0.0 if point.slope > 0.0 else 1.0
            if previous is None:
                curvature = -2.0 * (point.log_value + point.slope * (end - point.s))
                curvature /= (end - point.s) ** 2
            else:
                curvature = (point.slope - previous.slope) / (point.s - previous.s)
            s = point.s - 2.0**calls * point.slope / curvature if curvature > 0.0 else end
            if not 0.0 < abs(s - point.s) < abs(end - point.s):
                s = 0.5 * (point.s + end)
        evaluate = evaluate or build()
        previous, point = point, evaluate(s)
        calls += 1

    return BoundResult(best, copies, BoundResult(half, copies), search_calls=calls,
                       bracket_width=s_hi - s_lo, chernoff_gap=gap)


def chernoff_bound(state_a, state_b, copies: int = 1) -> BoundResult:
    """min over s of q(s): _chernoff_search from power_overlap's s = 1/2, then a _PairEngine."""
    a, b = _as_state(state_a), _as_state(state_b)
    return _chernoff_search(power_overlap(a, b, 0.5), lambda: _PairEngine(a, b), copies)


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
    if not math.isfinite(excess):  # inf or inf - inf once 4 nS (1 + nS) overflows
        raise ValueError(f"n_signal {n_signal:g} overflows the exponent coefficient")
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


def _closed_form_pair(scenario: IlluminationScenario, model: str) -> _Modes:
    """The model's closed-form pair evaluator, once its states are admitted.

    A scalar check certifies admission. Coherent's states are diag(a, ...)
    with a >= 1, so they fail only when a is not finite, with illuminate's
    message, or when the photon term 2 kappa n_s overflows, naming n_signal.
    An entangled pair the check cannot certify goes to illuminate, absent
    state first, and its refusals stand. Its absent state is diag(a, ...) too.
    A PD block's largest eigenvalue is at most its trace T, and its smallest
    at least det/T. The two-mode present x block [[a', c'], [c', b]] has
    a'b - c'^2; the three-mode one, [[a', c', c'], [c', S, c], [c', c, S]],
    has the eigenvalue S - c and a 2x2 block of det a'(S + c) - 2c'^2, and p
    has S + c and a'(S - c) - 2c'^2. So each such det above 2^16 eps T^2 (and,
    for three-mode, a and S - c above 2^16 eps T) puts the smallest eigenvalue
    far above eigh's backward error, a small multiple of eps |V|.
    """
    correlation = scenario.probe_correlation(model)  # illumination_probe's refusals first
    a, b, a1 = scenario.background_variance, scenario.signal_variance, scenario.return_variance
    kappa = scenario.reflectivity
    if model == "coherent":
        if not math.isfinite(a):
            raise ValueError("covariance matrix has non-finite entries")
        photons = 2.0 * kappa * scenario.n_signal
        if not math.isfinite(photons):
            raise ValueError(f"n_signal {scenario.n_signal:g} overflows the coherent displacement")
        return _CoherentPair(a, photons)
    c1 = math.sqrt(kappa) * correlation
    if model == "three-mode":
        total = a1 + 2.0 * b
        dets = (min(a, b - correlation) * total, a1 * (b + correlation) - 2.0 * c1 * c1,
                a1 * (b - correlation) - 2.0 * c1 * c1)
    else:
        total, dets = a1 + b, (a1 * b - c1 * c1,)  # inf once a'b overflows, however small
    certified = all(map(math.isfinite, (a, a1, b, correlation, c1, total, *dets)))
    if not (certified and min(dets) > 2.0**16 * EPS * total * total):
        probe = illumination_probe(scenario, model)
        for k in (0.0, kappa):
            illuminate(probe, scenario, k)
    if model == "three-mode":
        # The p block's det a'(S - c) - 2c'^2 sets how many digits the reduced
        # pair keeps: its rounding error in log q reads below eps a'(S - c)/det
        # on a grid up to n_s = 1e14, so this refuses past about 1.5e-8 of
        # log q. Inside the box the ratio is below 4.
        kept = 1.0 - 2.0 * (c1 / a1) * (c1 / (b - correlation))
        if kept < 2.0**-26:
            raise ValueError(f"n_signal {scenario.n_signal:g} puts the three-mode present state "
                             f"within {kept:.3g} of singular, past what floats resolve")
        return _ThreeModePair(a, b, a1, correlation, c1)
    return _TwoModePair(a, b, a1, c1)


def illumination_bhattacharyya(
    scenario: IlluminationScenario, model: str = "three-mode"
) -> BoundResult:
    return BoundResult(_closed_form_pair(scenario, model)(0.5), scenario.copies)


def illumination_chernoff(
    scenario: IlluminationScenario, model: str = "three-mode"
) -> BoundResult:
    """Chernoff bound; its `bhattacharyya` is the Bhattacharyya bound of the same pair."""
    pair = _closed_form_pair(scenario, model)
    return _chernoff_search(pair(0.5), lambda: pair, scenario.copies)
