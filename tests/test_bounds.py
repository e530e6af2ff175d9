import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import box_scenarios, max_three_mode_correlation_mp, random_cov
from qillum import bounds, symplectic
from qillum.bounds import (
    bhattacharyya_bound,
    chernoff_bound,
    error_exponent_three_mode,
    error_exponent_two_mode,
    find_crossover,
    illumination_bhattacharyya,
    illumination_chernoff,
    power_overlap,
)
from qillum.states import (
    IlluminationScenario,
    illuminate,
    illumination_states,
    max_three_mode_correlation,
    target_absent_williamson,
    target_present_factorization,
    tmsv_correlation,
)
from qillum.symplectic import CovarianceMatrix, GaussianState


def _maps(x, p):
    """Variance map and trace of the p-th power, mode by mode, as power_overlap takes them."""
    variances, traces = [], []
    for nu, power in zip(x, p):
        # one mode at power p: prefactor_log is log 2 plus its log trace
        (variance,), _, prefactor_log, _ = bounds._Modes([nu], []).maps(power)
        variances.append(variance)
        traces.append(math.exp(prefactor_log - math.log(2.0)))
    return variances, traces


def test_power_maps_closed_form_points():
    # a generic point, then the exact p = 1 and x = 1 cases
    variance, trace = _maps([3.0, 7.0, 1.0], [0.5, 1.0, 0.3])
    assert variance[0] == pytest.approx(3 + 2 * math.sqrt(2), abs=1e-12)
    assert trace[0] == pytest.approx(1 + math.sqrt(2), abs=1e-12)
    assert variance[1] == 7.0
    assert trace[1] == 1.0
    assert variance[2] == 1.0
    assert trace[2] == 1.0


def test_power_maps_validation():
    with pytest.raises(ValueError, match="symplectic eigenvalue 0.9 below one"):
        _maps([2.0, 0.9], [0.5, 0.5])
    # rounding-level dips below one are snapped, not rejected
    assert [mode[0] for mode in bounds._Modes([1.0 - 1e-10], []).modes] == [1.0]
    assert _maps([1.0 - 1e-10], [0.5])[0] == [1.0]


@settings(max_examples=80, deadline=None)
@given(
    x=st.floats(min_value=1.0, max_value=1e8),
    s=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_power_trace_completeness_identity(x, s):
    # 2 G_s G_(1-s) == Lambda_s + Lambda_(1-s): exactly what makes the
    # one-mode self-overlap Tr[rho^s rho^(1-s)] collapse to Tr[rho] = 1
    variance, trace = _maps([x, x], [s, 1 - s])
    lhs = 2.0 * trace[0] * trace[1]
    rhs = variance[0] + variance[1]
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_overlap_of_identical_thermal_states_is_one():
    cov = CovarianceMatrix(np.diag([201.0, 201.0]))
    for s in (0.2, 0.5, 0.9):
        assert power_overlap(cov, cov, s).value == pytest.approx(1.0, abs=1e-12)


def test_overlap_matches_pure_coherent_formula():
    vac = CovarianceMatrix(np.eye(2))
    displaced = GaussianState(cov=vac, mean=np.array([2.0, 0.0]))  # amplitude 1
    for s in (0.25, 0.5, 0.8):
        ov = power_overlap(GaussianState(cov=vac), displaced, s)
        assert ov.value == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_overlap_validation():
    cov2 = CovarianceMatrix(np.diag([3.0, 3.0]))
    cov4 = CovarianceMatrix(np.diag([3.0, 3.0, 3.0, 3.0]))
    with pytest.raises(ValueError):
        power_overlap(cov2, cov4, 0.5)
    with pytest.raises(ValueError):
        power_overlap(cov2, cov2, 0.0)
    with pytest.raises(ValueError):
        power_overlap(cov2, cov2, 1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), s=st.floats(min_value=0.05, max_value=0.95))
def test_overlap_swap_symmetry(seed, s):
    rng = np.random.default_rng(seed)
    ma, _ = random_cov(2, rng)
    mb, _ = random_cov(2, rng)
    forward = power_overlap(ma, mb, s).value
    backward = power_overlap(mb, ma, 1.0 - s).value
    assert forward == pytest.approx(backward, rel=1e-10)


def test_bound_value_identity_and_copy_scaling():
    scn = IlluminationScenario(
        n_signal=0.05, n_background=30.0, reflectivity=0.1, copies=1000
    )
    result = illumination_bhattacharyya(scn, "two-mode")
    assert result.value == 0.5 * math.exp(1000 * result.overlap.log_value)
    single = illumination_bhattacharyya(
        IlluminationScenario(n_signal=0.05, n_background=30.0, reflectivity=0.1),
        "two-mode",
    )
    assert result.overlap.value == pytest.approx(single.overlap.value, rel=1e-14)
    assert result.value < single.value
    assert result.copies * result.exponent_per_copy == pytest.approx(
        1000 * single.exponent_per_copy, rel=1e-12
    )


@pytest.mark.parametrize("bound", [bhattacharyya_bound, chernoff_bound])
def test_bounds_refuse_nonpositive_copies(bound):
    a = CovarianceMatrix(np.diag([1.2, 1.2]))
    b = CovarianceMatrix(np.diag([8.0, 8.0]))
    for copies in (0, -1):
        with pytest.raises(ValueError, match="copies must be positive"):
            bound(a, b, copies=copies)


def test_chernoff_never_exceeds_bhattacharyya():
    scn = IlluminationScenario(n_signal=0.3, n_background=2.0, reflectivity=0.4)
    for model in ("two-mode", "three-mode", "coherent"):
        qc = illumination_chernoff(scn, model)
        qb = illumination_bhattacharyya(scn, model)
        assert qc.value <= qb.value * (1 + 1e-12)
        assert 0.0 < qc.overlap.s < 1.0


def test_chernoff_start_holds_exact_half():
    # A dim-signal, bright-background scenario where the golden search lands
    # above q(1/2); only the exact s = 1/2 start keeps Chernoff <= Bhattacharyya.
    scn = IlluminationScenario(
        n_signal=0.00223449, n_background=647496.0, reflectivity=0.000164132,
        copies=139095916,
    )
    for model in ("two-mode", "three-mode", "coherent"):
        qc = illumination_chernoff(scn, model)
        qb = illumination_bhattacharyya(scn, model)
        assert qc.value <= qb.value, model


def test_chernoff_finds_asymmetric_optimum():
    # unequal purities push the optimal s away from 1/2
    a = CovarianceMatrix(np.diag([1.2, 1.2]))
    b = CovarianceMatrix(np.diag([8.0, 8.0]))
    qc = chernoff_bound(a, b)
    qb = bhattacharyya_bound(a, b)
    assert qc.value < qb.value * (1 - 1e-6)
    assert abs(qc.overlap.s - 0.5) > 0.01


def test_blind_target_gives_coin_toss():
    scn = IlluminationScenario(
        n_signal=0.1, n_background=5.0, reflectivity=0.0, copies=1000
    )
    for model in ("two-mode", "three-mode", "coherent"):
        assert illumination_bhattacharyya(scn, model).value == pytest.approx(
            0.5, abs=1e-9
        )


def test_precomputed_decompositions_change_nothing():
    scn = IlluminationScenario(n_signal=0.2, n_background=15.0, reflectivity=0.05)
    absent, present = illumination_states(scn, "three-mode")
    plain = power_overlap(absent, present, 0.5).value
    absent, present = illumination_states(scn, "three-mode")
    absent.williamson = target_absent_williamson(scn)
    present.williamson = target_present_factorization(scn).williamson()
    assisted = power_overlap(absent, present, 0.5).value
    assert plain == pytest.approx(assisted, rel=1e-11)


def test_each_state_is_decomposed_once(monkeypatch):
    calls = []
    decompose = symplectic.williamson_decompose

    def counting(cov):
        calls.append(cov)
        return decompose(cov)

    monkeypatch.setattr(symplectic, "williamson_decompose", counting)
    scn = IlluminationScenario(n_signal=0.2, n_background=15.0, reflectivity=0.05)
    absent, present = illumination_states(scn, "three-mode")
    chernoff_bound(absent, present)  # the s = 1/2 start and the search's calls
    power_overlap(absent, present, 0.3)
    power_overlap(absent, present, 0.6)
    # One 6x6 decomposition per state, absent first; the search never repeats one.
    assert [call.matrix.shape for call in calls] == [(6, 6), (6, 6)]
    assert calls[0] is absent.cov and calls[1] is present.cov


def test_exponent_coefficients_reference_values():
    assert error_exponent_two_mode(0.01) == pytest.approx(
        0.008271925124533579, abs=1e-16
    )
    assert error_exponent_three_mode(0.01) == pytest.approx(
        0.008756550553521637, abs=1e-15
    )
    assert error_exponent_two_mode(0.0) == 0.0
    assert error_exponent_three_mode(0.0) == 0.0
    with pytest.raises(ValueError):
        error_exponent_two_mode(-0.1)


@pytest.mark.parametrize("ns", [1e-4, 0.01, 0.3, 5.0])
def test_exponent_coefficients_at_the_maximal_correlation(ns):
    # An explicit maximal correlation gives the default coefficient: the same
    # formula for three-mode, a cancellation-free rewrite for two-mode.
    cmax = max_three_mode_correlation(ns)
    assert error_exponent_three_mode(ns, cmax) == error_exponent_three_mode(ns)
    assert error_exponent_two_mode(ns, tmsv_correlation(ns)) == pytest.approx(
        error_exponent_two_mode(ns), rel=1e-14
    )
    assert error_exponent_two_mode(ns, 0.0) == error_exponent_three_mode(ns, 0.0) == 0.0


def test_exponent_coefficients_refuse_an_overflowing_signal():
    # 4 n_s (1 + n_s) overflows near n_s = 6.7e153; past it n_signal is
    # refused by name instead of giving nan.
    assert error_exponent_two_mode(1e153) == pytest.approx(2.5e152, rel=1e-12)
    for exponent in (error_exponent_two_mode, error_exponent_three_mode):
        with pytest.raises(ValueError, match="^n_signal 1e\\+160 overflows"):
            exponent(1e160)
    with pytest.raises(ValueError, match="^n_signal 1e\\+155 overflows"):
        tmsv_correlation(1e155)


def test_exponent_small_signal_limits():
    ns = 1e-5
    assert error_exponent_two_mode(ns) == pytest.approx(
        ns * (1 - 2 * math.sqrt(ns)), rel=1e-2
    )
    assert error_exponent_three_mode(ns) == pytest.approx(
        ns * (1 - math.sqrt(2 * ns)), rel=1e-2
    )


@pytest.mark.parametrize("ns", [0.01, 1e6, 1e7, 1e8, 1e9])
def test_three_mode_exponent_keeps_its_digits_at_large_signal(ns):
    # 1 - sqrt(nu^2 - 1) / nu cancels to 0 from nu ~ 1e8; at the same c the
    # 50-digit value agrees to rounding, and the coefficient tends to n_s / 6.
    mpmath = pytest.importorskip("mpmath")
    c = max_three_mode_correlation(ns)
    with mpmath.workdps(50):
        s, c_mp = 2 * mpmath.mpf(ns) + 1, mpmath.mpf(c)
        nu = mpmath.sqrt(s * s - c_mp * c_mp)
        expected = float(c_mp**2 * s * (1 - mpmath.sqrt(nu * nu - 1) / nu) / 2)
    assert error_exponent_three_mode(ns) == pytest.approx(expected, rel=1e-14)
    if ns >= 1e6:
        assert error_exponent_three_mode(ns) == pytest.approx(ns / 6.0, rel=1e-6)


@pytest.mark.parametrize("ns", [0.01, 1.0, 1e7, 1e8, 1e16])
def test_two_mode_exponent_keeps_its_digits_at_large_signal(ns):
    # 1 + n_s - sqrt(n_s (1 + n_s)) cancels to 0 at n_s = 1e16; the 50-digit
    # value of the same formula agrees to rounding, and it tends to n_s / 4.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        n = mpmath.mpf(ns)
        root = mpmath.sqrt(n * (1 + n))
        expected = float(n * (1 + n) * (1 + n - root) / (1 + n + root))
    assert error_exponent_two_mode(ns) == pytest.approx(expected, rel=1e-14)
    if ns >= 1e7:
        assert error_exponent_two_mode(ns) == pytest.approx(ns / 4.0, rel=1e-6)


def test_exponent_coefficients_match_50_digit_references():
    # Each default coefficient against its textbook form at 50 digits, the
    # three-mode one at the 60-digit det V = 1 root: 300 seeded n_s from 1e-4
    # to 1e4, and three far above.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(18)
    worst2 = worst3 = 0.0
    for ns in [*10.0 ** rng.uniform(-4.0, 4.0, 300), 1e6, 1e9, 1e16]:
        ns = float(ns)
        c = max_three_mode_correlation_mp(ns, max_three_mode_correlation(ns))
        with mpmath.workdps(50):
            s = 2 * mpmath.mpf(ns) + 1
            gamma2 = (s * s - 1) * (s - mpmath.sqrt(s * s - 1)) / 4
            nu = mpmath.sqrt(s * s - c * c)
            gamma3 = c * c * s * (1 - mpmath.sqrt(nu * nu - 1) / nu) / 2
            worst2 = max(worst2, float(abs(error_exponent_two_mode(ns) / gamma2 - 1)))
            worst3 = max(worst3, float(abs(error_exponent_three_mode(ns) / gamma3 - 1)))
    assert worst2 <= 5e-16
    assert worst3 <= 2e-15


def test_exponent_ratio_across_the_crossover():
    # the crossover sits at n_s ~ 0.295: the three-mode probe wins below it
    ratios = [error_exponent_three_mode(ns) / error_exponent_two_mode(ns) for ns in (0.01, 0.1, 1.0)]
    assert ratios[0] > 1.0 and ratios[1] > 1.0 > ratios[2]
    assert error_exponent_two_mode(0.0) == error_exponent_three_mode(0.0) == 0.0


def test_crossover_location_and_residual():
    result = find_crossover()
    assert 0.290 < result.n_signal < 0.300
    assert abs(result.residual) < 1e-10
    assert result.n_signal == pytest.approx(0.29535495854, abs=1e-9)


@pytest.mark.parametrize("kappa", [1e-2, 1e-3])
def test_finite_crossover_approaches_the_asymptote(kappa):
    # The n_s where the finite three-mode and two-mode Bhattacharyya exponents
    # cross, found by bisection on the printed log q, tends to the crossover
    # of the exponent coefficients from below, about 1/n_b closer per decade
    # of n_b: a check of _idler_exponent by code that shares nothing with it.
    def three_mode_wins(ns: float, nb: float) -> bool:
        scn = IlluminationScenario(ns, nb, kappa)
        log_q = [illumination_bhattacharyya(scn, model).overlap.log_value
                 for model in ("three-mode", "two-mode")]
        return log_q[0] < log_q[1]

    asymptote = find_crossover().n_signal
    gaps = []
    for nb in (1e2, 1e4, 1e6):
        lo, hi = 0.25, 0.35
        assert three_mode_wins(lo, nb) and not three_mode_wins(hi, nb)
        while hi - lo > 1e-11:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if three_mode_wins(mid, nb) else (lo, mid)
        gaps.append(asymptote - 0.5 * (lo + hi))
    assert gaps[0] > gaps[1] > gaps[2] > 0.0, gaps
    assert gaps[1] < 3e-6 and gaps[2] < 3e-8, gaps


def test_measured_exponent_approaches_coefficient():
    # per-copy exponent tends to kappa * gamma / n_background from below-ish
    gaps = []
    for nb in (10.0**2, 10.0**3):
        scn = IlluminationScenario(
            n_signal=0.05, n_background=nb, reflectivity=0.02
        )
        measured = illumination_bhattacharyya(scn, "three-mode").exponent_per_copy
        ideal = 0.02 * error_exponent_three_mode(0.05) / nb
        gaps.append(abs(measured / ideal - 1.0))
    assert gaps[0] < 0.05 and gaps[1] < gaps[0]


def test_coherent_benchmark_exponent():
    scn = IlluminationScenario(n_signal=0.01, n_background=100.0, reflectivity=0.01)
    result = illumination_bhattacharyya(scn, "coherent")
    ideal = 0.01 * 0.01 / (4 * 100.0)
    assert result.exponent_per_copy == pytest.approx(ideal, rel=5e-3)
    assert result.overlap.s == 0.5


def test_unknown_model_rejected():
    scn = IlluminationScenario(n_signal=0.1, n_background=1.0, reflectivity=0.1)
    with pytest.raises(ValueError):
        illumination_states(scn, "four-mode")


# --- reference implementations: the scalar engine and the golden-section
# search that _PairEngine and the Chernoff search since replaced ---


def _reference_check(x: float) -> float:
    if x < 1.0 - 1e-9:
        raise ValueError(f"symplectic eigenvalue {x:.12g} below one")
    return max(x, 1.0)


def _reference_log_power_trace(x: float, p: float) -> float:
    x = _reference_check(x)
    if p == 1.0 or x == 1.0:
        return 0.0
    lp = p * (math.log(x) + math.log1p(1.0 / x))
    delta = p * (math.log1p(-1.0 / x) - math.log1p(1.0 / x))
    return p * math.log(2.0) - lp - math.log(-math.expm1(delta))


def _reference_power_variance(x: float, p: float) -> float:
    x = _reference_check(x)
    if p == 1.0:
        return x
    if x == 1.0:
        return 1.0
    delta = p * (math.log1p(-1.0 / x) - math.log1p(1.0 / x))
    return (1.0 + math.exp(delta)) / -math.expm1(delta)


def _reference_overlap(a, b, s, da, db):
    """One q(s) the scalar way: per-mode math calls and scipy's cho_factor."""
    from scipy.linalg import cho_factor, cho_solve

    def powered(dec, p):
        lam = np.repeat([_reference_power_variance(nu, p) for nu in dec.nu], 2)
        return (dec.symplectic * lam) @ dec.symplectic.T

    prefactor_log = a.n * math.log(2.0)
    prefactor_log += sum(_reference_log_power_trace(nu, s) for nu in da.nu)
    prefactor_log += sum(_reference_log_power_trace(nu, 1.0 - s) for nu in db.nu)
    cf = cho_factor(powered(da, s) + powered(db, 1.0 - s), lower=True)
    det_term_log = -float(np.sum(np.log(np.diag(cf[0]))))
    d = b.mean - a.mean
    displacement_log = -0.5 * float(d @ cho_solve(cf, d)) if np.any(d) else 0.0
    return prefactor_log, det_term_log, prefactor_log + det_term_log + displacement_log


def _digits_pieces(a, b, s, da, db):
    """_reference_overlap's three log pieces as mpmath numbers at the working precision."""
    mp = pytest.importorskip("mpmath").mp

    def powered(dec, p):
        log_trace, lam = 0, []
        for nu in dec.nu:
            ratio = ((mp.mpf(nu) - 1) / (mp.mpf(nu) + 1)) ** p
            log_trace += p * mp.log(2) - p * mp.log(mp.mpf(nu) + 1) - mp.log(1 - ratio)
            lam += [(1 + ratio) / (1 - ratio)] * 2
        sym = mp.matrix(dec.symplectic.tolist())
        return log_trace, sym * mp.diag(lam) * sym.T

    s = mp.mpf(s)
    trace_a, powered_a = powered(da, s)
    trace_b, powered_b = powered(db, 1 - s)
    combined = powered_a + powered_b
    d = mp.matrix((b.mean - a.mean).tolist())
    return (
        a.n * mp.log(2) + trace_a + trace_b,
        -mp.log(mp.det(combined)) / 2,
        -(d.T * mp.lu_solve(combined, d))[0] / 2,
    )


def _digits_overlap(a, b, s, da, db):
    """_reference_overlap at 50 digits, from the same float Williamson data.

    The symplectic matrices, eigenvalues, means and s convert exactly to
    mpmath numbers; the power maps, the combined covariance, its
    determinant and the solve for the displacement are then carried at 50
    digits, so the float rounding of the combined covariance, which a
    float reference shares in kind with the engine, is not in the result.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        prefactor_log, det_term_log, displacement_log = _digits_pieces(a, b, s, da, db)
        log_q = prefactor_log + det_term_log + displacement_log
        return float(prefactor_log), float(det_term_log), float(log_q)


def _digits_slope(a, b, s, da, db) -> float:
    """d/ds of _digits_overlap's log q: a central difference of step 1e-20 at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        h = mpmath.mpf("1e-20")
        up = sum(_digits_pieces(a, b, mpmath.mpf(s) + h, da, db))
        down = sum(_digits_pieces(a, b, mpmath.mpf(s) - h, da, db))
        return float((up - down) / (2 * h))


def _slope_scale(a, b, s, da, db) -> float:
    """The sum of the magnitudes of the engine's slope terms at s, where its rounding lives.

    With r = (nu - 1)/(nu + 1) and lambda a mode's variance at power s or 1 - s:
    per mode, d(log trace)/dp = log 2 - log(nu + 1) + 1/2 log r (lambda - 1);
    per column S_j of [S_A | S_B], 1/2 lambda'_j |L^-1 S_j|^2 and 1/2 lambda'_j t_j^2,
    with lambda' = 1/2 log r (lambda^2 - 1), M = L L^T the combined covariance and
    t = S^T M^-1 d. Equal covariances keep only the displacement terms: the
    engine's other pieces are exactly 0 there.
    """
    trace_terms, weights, variances = [], [], []
    for nu, p in [(nu, s) for nu in da.nu] + [(nu, 1.0 - s) for nu in db.nu]:
        nu, lam = _reference_check(nu), _reference_power_variance(nu, p)
        half_log_r = 0.5 * (math.log1p(-1.0 / nu) - math.log1p(1.0 / nu)) if nu > 1.0 else 0.0
        trace_terms.append(math.log(2.0) - math.log1p(nu) + half_log_r * (lam - 1.0))
        weights += [0.5 * half_log_r * (lam * lam - 1.0)] * 2
        variances += [lam] * 2
    sym = np.concatenate([da.symplectic, db.symplectic], axis=1)
    combined = (sym * variances) @ sym.T
    w_sq = ((np.linalg.inv(np.linalg.cholesky(combined)) @ sym) ** 2).sum(axis=0)
    t_sq = (sym.T @ np.linalg.solve(combined, b.mean - a.mean)) ** 2
    if np.array_equal(a.cov.matrix, b.cov.matrix):
        trace_terms, w_sq = [0.0], 0.0
    return float(np.abs(trace_terms).sum() + (np.abs(weights) * (t_sq + w_sq)).sum())


def _reference_golden(f, lo, hi, tol=1e-10):
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


# 33 points from 1e-6 to 1 - 1e-6, s = 1/2 set exactly (linspace lands one ulp below).
GRID = np.linspace(1e-6, 1.0 - 1e-6, 33)
GRID[16] = 0.5
EPS = np.finfo(float).eps


def _reference_chernoff_log(f) -> float:
    """A replaced search: 33-point grid, golden section in the bracket, min of both."""
    values = [f(s) for s in GRID]
    k = int(np.argmin(values))
    _, log_best = _reference_golden(f, GRID[max(k - 1, 0)], GRID[min(k + 1, 32)])
    return min(values[k], log_best)


def _model_pairs(scenarios):
    for scn in scenarios:
        for model in ("three-mode", "two-mode", "coherent"):
            absent, present = illumination_states(scn, model)
            yield model, scn, absent, present, absent.williamson, present.williamson


REFERENCE_GRID = [
    IlluminationScenario(n_signal=ns, n_background=nb, reflectivity=kappa)
    for ns in (1e-3, 0.05, 0.5)
    for nb in (0.01, 1.0, 100.0, 1e5)
    for kappa in (1e-3, 0.1, 0.5)
]


# The Chernoff search calls one engine on s after s; each entry of that
# sequence must equal a fresh power_overlap at its s.
SEQUENCE_S = [*GRID, 0.123456789, 0.5 + 1e-11]


def _assert_sequence_entries_equal_scalar_calls(a, b):
    engine = bounds._PairEngine(a, b)
    for s in SEQUENCE_S:
        assert engine(s) == power_overlap(a, b, s)  # every field, bit for bit


def test_overlap_sequence_entries_equal_scalar_calls():
    for _, _, absent, present, _, _ in _model_pairs(box_scenarios(7, 6)):
        _assert_sequence_entries_equal_scalar_calls(absent, present)


def test_displaced_sequence_entries_equal_scalar_calls():
    # The illumination models displace one mode at most; correlated states
    # of 1 to 3 modes, displaced in every quadrature, cover the wider solve.
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 2, 3):
        a = GaussianState(cov=CovarianceMatrix(random_cov(n, rng)[0]), mean=rng.normal(size=2 * n))
        b = GaussianState(cov=CovarianceMatrix(random_cov(n, rng)[0]), mean=rng.normal(size=2 * n))
        _assert_sequence_entries_equal_scalar_calls(a, b)


def test_power_overlap_sequence_convention():
    cov = CovarianceMatrix(np.diag([3.0, 3.0]))
    other = CovarianceMatrix(np.diag([5.0, 5.0]))
    assert isinstance(power_overlap(cov, other, 0.5), bounds.OverlapResult)
    assert isinstance(power_overlap(cov, other, np.float64(0.5)), bounds.OverlapResult)
    for bad in (1.0, 0.0, 1.5, -0.5, math.nan):
        with pytest.raises(ValueError, match="strictly inside"):
            power_overlap(cov, other, bad)
    for sequence in ((0.25, 0.5), [0.5]):  # one s per call
        with pytest.raises(TypeError):
            power_overlap(cov, other, sequence)


def test_power_overlap_keeps_its_refusals(monkeypatch):
    thermal = CovarianceMatrix(np.diag([3.0, 3.0]))
    sub_vacuum = CovarianceMatrix(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError, match="symplectic eigenvalue 0.5 below one"):
        power_overlap(thermal, sub_vacuum, 0.3)

    def indefinite(_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(bounds.np.linalg, "cholesky", indefinite)
    with pytest.raises(ValueError, match="combined covariance is not positive definite"):
        power_overlap(thermal, thermal, 0.3)


def test_pair_engine_matches_scalar_reference():
    # Where the default three-mode correlation leaves the present state
    # unphysical, both engines must refuse with the same message.
    s_values = [1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-6]
    compared = 0
    for model, scn, absent, present, dec_a, dec_b in _model_pairs(REFERENCE_GRID):
        try:
            many = [power_overlap(absent, present, s) for s in s_values]
        except ValueError as exc:
            with pytest.raises(ValueError) as ref_exc:
                _reference_overlap(absent, present, 0.5, dec_a, dec_b)
            assert str(ref_exc.value) == str(exc)
            continue
        compared += 1
        for s, ov in zip(s_values, many):
            prefactor_log, det_term_log, log_q = _reference_overlap(
                absent, present, s, dec_a, dec_b
            )
            scale = 1.0 + abs(prefactor_log) + abs(det_term_log)
            assert abs(ov.log_value - log_q) <= 1e-14 * scale, (model, scn, s)
    assert compared >= 3 * len(REFERENCE_GRID) - 6


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_displaced_overlap_matches_scalar_reference(seed):
    # Correlated covariances and a displacement in every quadrature exercise
    # every row of the solve. The 50-digit reference keeps the
    # rounding of a float combined covariance, amplified by its condition
    # number, out of the comparison.
    rng = np.random.default_rng(seed)
    ma, _ = random_cov(2, rng)
    mb, _ = random_cov(2, rng)
    a = GaussianState(cov=CovarianceMatrix(ma), mean=rng.normal(size=4))
    b = GaussianState(cov=CovarianceMatrix(mb), mean=rng.normal(size=4))
    da, db = a.williamson, b.williamson
    s_values = [0.1, 0.5, 0.8]
    for s in s_values:
        ov = power_overlap(a, b, s)
        prefactor_log, det_term_log, log_q = _digits_overlap(a, b, s, da, db)
        displacement_log = log_q - prefactor_log - det_term_log
        scale = 1.0 + abs(prefactor_log) + abs(det_term_log) + abs(displacement_log)
        assert ov.displacement_log < 0.0
        assert abs(ov.log_value - log_q) <= 1e-14 * scale


def _piece_floor(*overlaps) -> float:
    """ROUNDING_ULPS ulps of the largest |prefactor_log| + |det_term_log| + |displacement_log|."""
    return bounds.ROUNDING_ULPS * EPS * max(
        abs(ov.prefactor_log) + abs(ov.det_term_log) + abs(ov.displacement_log)
        for ov in overlaps
    )


def test_slope_matches_50_digit_derivative():
    # The engine's d/ds log q against the derivative of the 50-digit log q
    # built from the same float Williamson data, within 4 ulps of the sum of
    # the slope's terms' magnitudes, where its rounding lives.
    compared = 0
    for model, scn, absent, present, dec_a, dec_b in _model_pairs(REFERENCE_GRID):
        try:
            many = [power_overlap(absent, present, s) for s in (0.2, 0.5, 0.8)]
        except ValueError:
            continue
        compared += 1
        # The closed forms print these pairs: same reference, same bound.
        closed = bounds._closed_form_pair(scn, model)
        for ov in many:
            reference = _digits_slope(absent, present, ov.s, dec_a, dec_b)
            scale = _slope_scale(absent, present, ov.s, dec_a, dec_b)
            assert abs(ov.slope - reference) <= 4 * EPS * scale, (model, scn, ov.s)
            assert abs(closed(ov.s).slope - reference) <= 4 * EPS * scale, (model, scn, ov.s)
    assert compared >= 3 * len(REFERENCE_GRID) - 6


# ulps of the engine's pieces (log q) and of _slope_scale (slope) within which
# the closed forms match _PairEngine. The coherent engine builds log q from a
# solve whose terms add to about 3 |log q|: it reads up to 10.6 ulps of log q
# off the 50-digit closed form, where the float closed form reads 3.4.
CROSS_CHECK_ULPS = {"three-mode": 4, "two-mode": 4, "coherent": 16}


@pytest.mark.parametrize("model", ["three-mode", "two-mode", "coherent"])
def test_closed_forms_match_the_engine(model):
    # Two codes for every printed number: the closed forms from the
    # scenario's parameters, the engine from two Williamson decompositions,
    # at small n_b where the engine keeps its digits. Three-mode reads within
    # 1.4 ulps of the engine's pieces in log q and 1.0 of _slope_scale.
    ulps = CROSS_CHECK_ULPS[model] * EPS
    compared = 0
    for scn in box_scenarios(25, 120):
        if scn.n_background > 1e4:
            continue
        absent, present = illumination_states(scn, model)
        closed = bounds._closed_form_pair(scn, model)
        for s in (0.5, 0.2, 0.37, 0.83):
            engine, ov = power_overlap(absent, present, s), closed(s)
            pieces = abs(engine.prefactor_log) + abs(engine.det_term_log)
            pieces += abs(engine.displacement_log)
            assert abs(ov.log_value - engine.log_value) <= ulps * pieces, (scn, ov.s)
            scale = _slope_scale(absent, present, ov.s, absent.williamson, present.williamson)
            assert abs(ov.slope - engine.slope) <= ulps * scale, (scn, ov.s)
        compared += 1
    assert compared >= 40


EXTREMES = [0.0, 1e-300, 1e-16, 1e-9, 1e-4, 0.01, 1.0, 1e4, 1e8, 1e12, 1e15, 1e16, 1e20,
            1e100, 1e154, 1e200, 1.7e308]


def _outcome(build, scn, model):
    """The ValueError message build(scn, model) refuses with, or None."""
    try:
        build(scn, model)
    except ValueError as exc:
        return str(exc)
    return None


def _gated(scn, model):
    # The reference: both states through illuminate's numpy gate, absent first, then the evaluator.
    illumination_states(scn, model)
    return bounds._closed_form_pair(scn, model)


def test_scalar_admission_refuses_exactly_what_illuminate_refuses(monkeypatch):
    # The scalar check only certifies admission; any pair it cannot certify
    # goes to illuminate, so every refusal and its message stay as they were.
    scenarios = [
        (model, IlluminationScenario(ns, nb, kappa))
        for model in ("three-mode", "two-mode", "coherent")
        for ns in EXTREMES
        for nb in EXTREMES
        for kappa in (0.0, 1e-16, 1e-4, 0.5, 0.99, 1.0)
    ]
    for ns, nb, kappa in itertools.product((1e-4, 1.0, 1e4, 1e8), (0.0, 1.0, 1e8), (0.5, 1.0)):
        for fraction in (0.0, 0.5, 0.999999, 1.0, 1.0 + 1e-7):
            for model, cmax in (("two-mode", tmsv_correlation(ns)),
                                ("three-mode", max_three_mode_correlation(ns))):
                scn = IlluminationScenario(ns, nb, kappa, correlation=fraction * cmax)
                scenarios.append((model, scn))
    fallbacks = []

    def counted(*args):
        fallbacks.append(args)
        return illuminate(*args)

    monkeypatch.setattr(bounds, "illuminate", counted)
    refused = unchecked = 0
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for model, scn in scenarios:
            expected = _outcome(_gated, scn, model)
            gated = len(fallbacks)
            assert _outcome(bounds._closed_form_pair, scn, model) == expected, (model, scn)
            refused += expected is not None
            unchecked += len(fallbacks) == gated
            if expected is None:  # finite, however far out of the box
                ov = bounds._closed_form_pair(scn, model)(0.5)
                assert math.isfinite(ov.log_value) and math.isfinite(ov.slope), scn
    # Both branches are exercised: of 5442 pairs, 3421 never reach illuminate
    # (certified, refused by the correlation check first, or coherent with an
    # infinite a or photon term), and 1868 are refused.
    assert min(refused, unchecked, len(scenarios) - unchecked) >= 500


@pytest.mark.parametrize("model", ["two-mode", "coherent", "three-mode"])
def test_box_corners_are_certified_without_illuminate(model, monkeypatch):
    # The default three-mode probe is unphysical, so at some corners a present
    # nu is below one. _Modes refuses those after admission, with no illuminate.
    def refuse(*args):
        raise AssertionError("illuminate called")

    monkeypatch.setattr(bounds, "illuminate", refuse)
    below_one = []
    for nb, ns, kappa in itertools.product((1e-2, 1e8), (1e-4, 1.0), (1e-4, 1.0)):
        try:
            bounds._closed_form_pair(IlluminationScenario(ns, nb, kappa), model)
        except ValueError as exc:
            assert model == "three-mode" and re.fullmatch(
                r"symplectic eigenvalue 0\.\d+ below one", str(exc)), (ns, nb, kappa)
            below_one.append((ns, nb, kappa))
    assert len(below_one) < 8


def test_equal_undisplaced_states_form_no_slope_weights():
    # The slope weights take lambda^2, which overflows at nu ~ 1e154 and up;
    # with equal covariances and means no term uses them, so none is formed.
    big = CovarianceMatrix(np.diag([4e200, 4e200]))
    with np.errstate(all="raise"):
        for ov in (power_overlap(big, big, 0.3), power_overlap(big, big, 0.5)):
            assert (ov.log_value, ov.slope) == (0.0, 0.0)


@pytest.mark.parametrize("nb", [1e2, 1e4, 1e6, 1e8])
def test_coherent_log_q_matches_closed_form(nb):
    # Equal covariances leave only the displacement piece, so log q is
    # exactly -2 kappa n_s / (lambda_s(a) + lambda_(1-s)(a)) with a = 2 n_b + 1:
    # the prefactor and det pieces would cancel to a residue of eps log n_b.
    mpmath = pytest.importorskip("mpmath")
    scn = IlluminationScenario(n_signal=0.01, n_background=nb, reflectivity=0.01)
    absent, present = illumination_states(scn, "coherent")
    for s in (0.3, 0.5, 0.8):
        ov = power_overlap(absent, present, s)
        assert ov.prefactor_log == ov.det_term_log == 0.0
        with mpmath.workdps(50):
            ratio = (2 * mpmath.mpf(nb)) / (2 * mpmath.mpf(nb) + 2)

            def variance(p):
                return (1 + ratio**p) / (1 - ratio**p)

            s = mpmath.mpf(ov.s)
            expected = float(-2 * mpmath.mpf(0.01) ** 2 / (variance(s) + variance(1 - s)))
        assert ov.log_value == pytest.approx(expected, rel=1e-13), ov.s


def test_chernoff_search_no_worse_than_golden_section():
    for model, scn, absent, present, dec_a, dec_b in _model_pairs(box_scenarios(2024, 24)):

        def logq(s):
            return power_overlap(absent, present, s).log_value

        reference = _reference_chernoff_log(logq)
        qc = chernoff_bound(absent, present)
        scale = 1.0 + abs(qc.overlap.prefactor_log) + abs(qc.overlap.det_term_log)
        assert qc.overlap.log_value <= reference + 1e-15 * scale, (model, scn)
        assert qc.search_calls <= bounds.MAX_CALLS


def test_chernoff_carries_bhattacharyya_of_the_same_evaluation():
    for model, scn, absent, present, dec_a, dec_b in _model_pairs(box_scenarios(99, 9)):
        qc = illumination_chernoff(scn, model)
        qb = illumination_bhattacharyya(scn, model)
        assert qc.bhattacharyya.overlap.s == 0.5
        assert qc.bhattacharyya.value == qb.value
        assert qc.bhattacharyya.overlap.log_value == qb.overlap.log_value
        assert qc.value <= qb.value
        assert qc.overlap.log_value <= qb.overlap.log_value


def _full_zoom(a, b) -> float:
    """The smallest log q of a 33-point grid and rounds of 37 even points across
    the two steps around the best point, zoomed until the bracket is narrower
    than S_TOL: the search's rounding reference."""
    points = [power_overlap(a, b, s) for s in GRID]
    best = min(p.log_value for p in points)
    fractions = np.arange(1, 38) / 38
    while True:
        k = min(range(len(points)), key=lambda j: points[j].log_value)
        lo = points[max(k - 1, 0)]
        hi = points[min(k + 1, len(points) - 1)]
        if hi.s - lo.s <= bounds.S_TOL:
            return best
        points = [lo, *(power_overlap(a, b, lo.s + (hi.s - lo.s) * f) for f in fractions), hi]
        best = min(best, *(p.log_value for p in points))


def _count_search_calls(monkeypatch):
    """Record the s of every power_overlap call and of every other engine call.

    Engine calls made inside power_overlap are left out of "engine", so it
    holds the s values chernoff_bound's own engine evaluates.
    """
    calls = {"overlap": [], "engine": []}
    inside = []
    original_call = bounds._PairEngine.__call__
    original_overlap = bounds.power_overlap

    def counting_call(self, s):
        if not inside:
            calls["engine"].append(s)
        return original_call(self, s)

    def counting_overlap(state_a, state_b, s):
        calls["overlap"].append(s)
        inside.append(s)
        try:
            return original_overlap(state_a, state_b, s)
        finally:
            inside.pop()

    monkeypatch.setattr(bounds._PairEngine, "__call__", counting_call)
    monkeypatch.setattr(bounds, "power_overlap", counting_overlap)
    return calls


def test_stopped_search_within_rounding_of_full_zoom(monkeypatch):
    # Every evaluated q is a valid bound, and rounding lets any of them dip
    # below the exact minimum, so the stopped search may land on either side
    # of the even zoom run to S_TOL: both lie within the rounding floor of
    # the minimum, and of each other. chernoff_gap bounds how far the exact
    # minimum lies below the result, so with the floor added it covers the
    # zoom too.
    calls = _count_search_calls(monkeypatch)
    search_calls = []
    for model, scn, absent, present, _, _ in _model_pairs(box_scenarios(5, 200)):
        try:
            full = _full_zoom(absent, present)
        except ValueError:
            continue
        calls["overlap"].clear()
        calls["engine"].clear()
        qc = chernoff_bound(absent, present)
        assert calls["overlap"] == [0.5]
        assert list(map(type, calls["engine"])) == [float] * qc.search_calls
        floor = _piece_floor(qc.overlap, qc.bhattacharyya.overlap)
        stopped = qc.overlap.log_value
        assert abs(stopped - full) <= floor, (model, scn, (stopped - full) / floor)
        assert stopped - qc.chernoff_gap - floor <= full, (model, scn)
        assert qc.value <= qc.bhattacharyya.value, (model, scn)
        assert stopped <= qc.bhattacharyya.overlap.log_value, (model, scn)
        # the certificate ends every search, never a cap
        assert qc.bracket_width > bounds.S_TOL, (model, scn)
        assert qc.search_calls < bounds.MAX_CALLS, (model, scn)
        search_calls.append(qc.search_calls)  # the start not counted
    assert len(search_calls) >= 500
    assert np.mean(search_calls) <= 1.0 and max(search_calls) <= 8


def test_chernoff_engine_calls(monkeypatch):
    calls = _count_search_calls(monkeypatch)
    scn = IlluminationScenario(n_signal=0.05, n_background=300.0, reflectivity=0.02)
    qc = bounds.chernoff_bound(*illumination_states(scn, "three-mode"), scn.copies)
    # one s per engine call after the start, within the cap
    assert list(map(type, calls["engine"])) == [float] * qc.search_calls
    assert qc.search_calls <= 2
    # the s = 1/2 start, which the result carries as its Bhattacharyya bound
    assert calls["overlap"] == [0.5]


def _synthetic_engine(monkeypatch, log_q, slope, scale=0.0):
    """Replace _PairEngine by one whose log q(s) is log_q(s, call index) with slope(s).

    log q is split as prefactor_log = scale and det_term_log = log q - scale,
    so scale sets the rounding floor. Returns the list of evaluated s, the
    list of their slopes and the list of every log q value, all filled call
    by call.
    """
    points, slopes, evaluated = [], [], []

    class Synthetic:
        def __init__(self, state_a, state_b):
            pass

        def __call__(self, s):
            value, slope_value = log_q(s, len(points)), slope(s)
            points.append(s)
            slopes.append(slope_value)
            evaluated.append(value)
            return bounds.OverlapResult(math.exp(value), value, scale, value - scale, 0.0, s,
                                        slope_value)

    monkeypatch.setattr(bounds, "_PairEngine", Synthetic)
    return points, slopes, evaluated


def _check_points(points, slopes):
    """After the start, each call evaluates one s, strictly inside the bracket of
    the points before it: above every point with a negative slope and below
    every point with a nonnegative one, within (0, 1)."""
    lo, hi = 0.0, 1.0
    for call, (s, slope) in enumerate(zip(points, slopes)):
        assert isinstance(s, float), call
        assert lo < s < hi, call
        if slope < 0.0:
            lo = s
        else:
            hi = s


def test_chernoff_returns_minimum_over_every_evaluated_point(monkeypatch):
    # A synthetic engine that puts a dip in one call, either power_overlap's
    # s = 1/2 start or the search's first point, which the parabola through
    # the start that is 0 at s = 0 puts on the minimum, and not in the rest,
    # as two separate evaluations can differ: the search must still return
    # the dip, so Chernoff <= Bhattacharyya.
    for dip_call in (0, 1):

        def log_q(x, call, dip_call=dip_call):
            return (x - 0.5001) ** 2 - 0.5001**2 - (1e-7 if call == dip_call else 0.0)

        points, slopes, evaluated = _synthetic_engine(monkeypatch, log_q, lambda x: 2 * (x - 0.5001))
        cov = CovarianceMatrix(np.diag([3.0, 3.0]))
        qc = chernoff_bound(cov, cov, 10)
        assert len(points) >= 2
        assert qc.overlap.log_value == min(evaluated) == evaluated[dip_call]
        assert qc.overlap.s == points[dip_call]
        assert qc.value <= qc.bhattacharyya.value
        _check_points(points, slopes)


def test_flat_log_q_stops_at_the_start(monkeypatch):
    # log q varies by 1e-16 over (0, 1), far below 4 ulps of its pieces of
    # size 20: the tangent at 1/2 certifies the start, so no engine call
    # follows it.
    def log_q(x, call):
        return 1e-15 * (x - 0.4) ** 2 - 1e-3

    points, slopes, evaluated = _synthetic_engine(
        monkeypatch, log_q, lambda x: 2e-15 * (x - 0.4), scale=20.0
    )
    cov = CovarianceMatrix(np.diag([3.0, 3.0]))
    qc = chernoff_bound(cov, cov)
    assert points == [0.5]
    assert qc.search_calls == 0
    assert qc.overlap.log_value == min(evaluated)
    assert 0.0 < qc.chernoff_gap <= bounds.ROUNDING_ULPS * EPS * 40.0
    _check_points(points, slopes)


def _stopped_at_the_floor(qc, floor) -> bool:
    return qc.bracket_width <= bounds.S_TOL or qc.chernoff_gap <= floor


def test_steep_log_q_zooms_to_the_bracket_tolerance(monkeypatch):
    # With curvature 600, 150000 times what log q(1/2) suggests, the first
    # Newton step overshoots the minimum; the cubic through both bracket ends
    # is then exact, and its minimum certifies by its slope.
    def log_q(x, call):
        return 300.0 * (x - 0.3) ** 2 - 1e-3

    points, slopes, _ = _synthetic_engine(monkeypatch, log_q, lambda x: 600.0 * (x - 0.3))
    cov = CovarianceMatrix(np.diag([3.0, 3.0]))
    qc = chernoff_bound(cov, cov)
    floor = bounds.ROUNDING_ULPS * EPS * 1e-3
    assert 1 <= qc.search_calls <= 3
    assert len(points) == qc.search_calls + 1
    assert qc.overlap.log_value <= -1e-3 + floor
    assert abs(qc.overlap.s - 0.3) <= bounds.S_TOL
    _check_points(points, slopes)


def test_kinked_log_q_zooms_to_the_bracket_tolerance(monkeypatch):
    # |s - 0.3| is convex but has no curvature: the cubic steps stall, and
    # the tangents' crossing that follows a stalled step lands on the kink.
    def log_q(x, call):
        return abs(x - 0.3) - 1e-3

    points, slopes, evaluated = _synthetic_engine(
        monkeypatch, log_q, lambda x: math.copysign(1.0, x - 0.3)
    )
    cov = CovarianceMatrix(np.diag([3.0, 3.0]))
    qc = chernoff_bound(cov, cov)
    floor = bounds.ROUNDING_ULPS * EPS * 1e-3
    assert qc.search_calls <= bounds.MAX_CALLS
    assert _stopped_at_the_floor(qc, floor)
    assert qc.overlap.log_value == min(evaluated)
    assert qc.overlap.log_value <= -1e-3 + floor
    assert abs(qc.overlap.s - 0.3) <= bounds.S_TOL
    _check_points(points, slopes)


def test_exact_parabola_certifies_in_one_call(monkeypatch):
    # log q = (s - 0.3)^2 - 0.09 is 0 at s = 0 like a true log q, so the
    # parabola through the start that is 0 at s = 0 is exact: the first
    # Newton step lands on 0.3, whose slope certifies the minimum.
    def log_q(x, call):
        return (x - 0.3) ** 2 - 0.09

    points, slopes, evaluated = _synthetic_engine(monkeypatch, log_q, lambda x: 2.0 * (x - 0.3))
    cov = CovarianceMatrix(np.diag([3.0, 3.0]))
    qc = chernoff_bound(cov, cov)
    floor = bounds.ROUNDING_ULPS * EPS * 0.09
    assert qc.search_calls == 1
    assert qc.chernoff_gap <= floor
    assert qc.overlap.log_value == min(evaluated)
    assert abs(qc.overlap.s - 0.3) <= 1e-8
    _check_points(points, slopes)


@pytest.mark.parametrize("centre", [0.5, 0.3, 0.02])
@pytest.mark.parametrize("curvature", [1e-6, 1.0, 100.0])
def test_quartic_log_q_stops_within_the_round_cap(monkeypatch, centre, curvature):
    # A quartic has no curvature at its minimum, so the curvature read off
    # log q(1/2) or off a secant is wrong by orders of magnitude. The search
    # must still stop within its call cap, at a value within the floor of
    # the true minimum -1e-3.
    def log_q(x, call):
        return curvature * (x - centre) ** 4 - 1e-3

    points, slopes, evaluated = _synthetic_engine(
        monkeypatch, log_q, lambda x: 4.0 * curvature * (x - centre) ** 3
    )
    cov = CovarianceMatrix(np.diag([3.0, 3.0]))
    qc = chernoff_bound(cov, cov)
    floor = bounds.ROUNDING_ULPS * EPS * 1e-3
    assert qc.search_calls <= 16
    assert len(points) == qc.search_calls + 1
    assert qc.overlap.log_value == min(evaluated)
    assert qc.overlap.log_value <= -1e-3 + floor
    assert _stopped_at_the_floor(qc, floor)
    _check_points(points, slopes)


def test_asymmetric_quartic_is_not_certified_early(monkeypatch):
    # Quartic on each side of s* = 0.5034, with coefficients 2.6e-4 below and
    # 0.030 above: log q(1/2) = -0.0125 lies 3.4e-14, 3e3 floors, above the
    # minimum while its slope is only -4e-11. A curvature read off the
    # neighbourhood of 1/2 once certified that stretch; the slope's sign does
    # not, and the search goes on to the minimum.
    def coefficient(x):
        return 2.6e-4 if x < 0.5034 else 0.030

    def log_q(x, call):
        return coefficient(x) * (x - 0.5034) ** 4 - 0.0125

    points, slopes, evaluated = _synthetic_engine(
        monkeypatch, log_q, lambda x: 4.0 * coefficient(x) * (x - 0.5034) ** 3
    )
    cov = CovarianceMatrix(np.diag([3.0, 3.0]))
    qc = chernoff_bound(cov, cov)
    floor = bounds.ROUNDING_ULPS * EPS * 0.0125
    assert log_q(0.5, 0) + 0.0125 > 1e3 * floor
    assert qc.search_calls <= 8
    assert qc.overlap.log_value == min(evaluated)
    assert qc.overlap.log_value <= -0.0125 + floor
    assert _stopped_at_the_floor(qc, floor)
    _check_points(points, slopes)


def test_search_stops_at_the_call_cap(monkeypatch):
    # A slope that stays -1 while log q stays put never brackets a minimum:
    # the search halves its way toward s = 1 and stops after MAX_CALLS calls,
    # before the bracket reaches S_TOL, with the first of the tied values.
    def log_q(x, call):
        return -1e-3

    points, slopes, evaluated = _synthetic_engine(monkeypatch, log_q, lambda x: -1.0)
    cov = CovarianceMatrix(np.diag([3.0, 3.0]))
    qc = chernoff_bound(cov, cov)
    assert qc.search_calls == bounds.MAX_CALLS
    assert len(points) == bounds.MAX_CALLS + 1
    assert qc.bracket_width > bounds.S_TOL
    assert qc.overlap.s == 0.5
    _check_points(points, slopes)


EQUAL_HYPOTHESES = [
    # nothing to reflect: no signal photons, no correlation, or a blind target
    (IlluminationScenario(n_signal=0.0, n_background=100.0, reflectivity=0.01), "coherent"),
    (IlluminationScenario(n_signal=0.0, n_background=100.0, reflectivity=0.01,
                          correlation=0.0), "two-mode"),
    (IlluminationScenario(n_signal=0.01, n_background=100.0, reflectivity=0.0), "three-mode"),
]


@pytest.mark.parametrize("scn,model", EQUAL_HYPOTHESES)
def test_equal_hypotheses_give_exactly_one_half(scn, model):
    absent, present = illumination_states(scn, model)
    assert np.array_equal(absent.cov.matrix, present.cov.matrix)
    assert np.array_equal(absent.mean, present.mean)
    qc = chernoff_bound(absent, present, 10**6)
    for bound in (qc, qc.bhattacharyya):
        assert bound.value == 0.5 and bound.overlap.value == 1.0 and bound.overlap.s == 0.5
        assert bound.exponent_per_copy == 0.0
        assert bound.overlap.log_value == 0.0
    for s in (1e-6, 0.3, 0.5, 0.9):
        ov = power_overlap(absent, present, s)
        assert (ov.value, ov.log_value, ov.prefactor_log, ov.det_term_log) == (1.0, 0.0, 0.0, 0.0)


def test_equal_states_keep_the_general_refusals():
    # The equal-state rule comes after every check a distinct pair gets.
    sub_vacuum = CovarianceMatrix(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError, match="symplectic eigenvalue 0.5 below one"):
        power_overlap(sub_vacuum, sub_vacuum, 0.5)
    thermal = CovarianceMatrix(np.diag([3.0, 3.0]))
    displaced = GaussianState(cov=thermal, mean=np.array([1e-3, 0.0]))
    assert power_overlap(thermal, displaced, 0.5).value < 1.0
