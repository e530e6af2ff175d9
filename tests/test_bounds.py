import math

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
    illumination_states,
    max_three_mode_correlation,
    target_absent_williamson,
    target_present_factorization,
    tmsv_correlation,
)
from qillum.symplectic import CovarianceMatrix, GaussianState


def _maps(x, p):
    """Variance map and trace of the p-th power, elementwise, as power_overlap takes them."""
    x = bounds._check_eigenvalues(x)
    variance, log_trace = bounds._power_maps(x, bounds._mode_logs(x), np.asarray(p))
    return variance, np.exp(log_trace)


def test_power_maps_closed_form_points():
    # one batched call: a generic point, then the exact p = 1 and x = 1 cases
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
    assert bounds._check_eigenvalues([1.0 - 1e-10]).tolist() == [1.0]
    assert _maps([1.0 - 1e-10], [0.5])[0].tolist() == [1.0]


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
    assert result.value == result.q_at_s**1000 / 2.0
    single = illumination_bhattacharyya(
        IlluminationScenario(n_signal=0.05, n_background=30.0, reflectivity=0.1),
        "two-mode",
    )
    assert result.q_at_s == pytest.approx(single.q_at_s, rel=1e-14)
    assert result.value < single.value
    assert result.diagnostics["exponent_total"] == pytest.approx(
        1000 * single.diagnostics["exponent_per_copy"], rel=1e-12
    )


def test_chernoff_never_exceeds_bhattacharyya():
    scn = IlluminationScenario(n_signal=0.3, n_background=2.0, reflectivity=0.4)
    for model in ("two-mode", "three-mode", "coherent"):
        qc = illumination_chernoff(scn, model)
        qb = illumination_bhattacharyya(scn, model)
        assert qc.value <= qb.value * (1 + 1e-12)
        assert 0.0 < qc.s_used < 1.0


def test_chernoff_grid_holds_exact_half():
    # A dim-signal, bright-background scenario where the golden search lands
    # above q(1/2); only an exact s = 1/2 grid point keeps Chernoff <= Bhattacharyya.
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
    assert abs(qc.s_used - 0.5) > 0.01


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
    chernoff_bound(absent, present)  # a grid call and several zoom calls
    power_overlap(absent, present, [0.3, 0.6])
    # One decomposition of the (2, 6, 6) stack; each state holds its row.
    assert len(calls) == 1 and calls[0].matrix.shape == (2, 6, 6)
    assert np.array_equal(calls[0].matrix, [absent.cov.matrix, present.cov.matrix])


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


def test_measured_exponent_approaches_coefficient():
    # per-copy exponent tends to kappa * gamma / n_background from below-ish
    gaps = []
    for nb in (10.0**2, 10.0**3):
        scn = IlluminationScenario(
            n_signal=0.05, n_background=nb, reflectivity=0.02
        )
        measured = illumination_bhattacharyya(scn, "three-mode").diagnostics[
            "exponent_per_copy"
        ]
        ideal = 0.02 * error_exponent_three_mode(0.05) / nb
        gaps.append(abs(measured / ideal - 1.0))
    assert gaps[0] < 0.05 and gaps[1] < gaps[0]


def test_coherent_benchmark_exponent():
    scn = IlluminationScenario(n_signal=0.01, n_background=100.0, reflectivity=0.01)
    result = illumination_bhattacharyya(scn, "coherent")
    ideal = 0.01 * 0.01 / (4 * 100.0)
    assert result.diagnostics["exponent_per_copy"] == pytest.approx(ideal, rel=5e-3)
    assert result.s_used == 0.5


def test_unknown_model_rejected():
    scn = IlluminationScenario(n_signal=0.1, n_background=1.0, reflectivity=0.1)
    with pytest.raises(ValueError):
        illumination_states(scn, "four-mode")


# --- reference implementations: the scalar engine and the golden-section
# search that the batched engine and the zoom search replaced ---


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


def _reference_chernoff_log(f) -> float:
    """The replaced search: 33-point grid, golden section in the bracket, min of both."""
    grid = np.linspace(1e-6, 1.0 - 1e-6, 33)
    grid[16] = 0.5
    values = [f(s) for s in grid]
    k = int(np.argmin(values))
    _, log_best = _reference_golden(f, grid[max(k - 1, 0)], grid[min(k + 1, 32)])
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


def test_batched_overlap_entries_equal_scalar_calls():
    s_values = [*bounds.CHERNOFF_GRID, 0.123456789, 0.5 + 1e-11]
    for _, _, absent, present, dec_a, dec_b in _model_pairs(box_scenarios(7, 6)):
        many = power_overlap(absent, present, s_values)
        assert len(many) == len(s_values)
        for s, ov in zip(s_values, many):
            one = power_overlap(absent, present, s)
            assert ov == one  # every field, bit for bit


def test_power_overlap_sequence_convention():
    cov = CovarianceMatrix(np.diag([3.0, 3.0]))
    other = CovarianceMatrix(np.diag([5.0, 5.0]))
    assert isinstance(power_overlap(cov, other, 0.5), bounds.OverlapResult)
    assert isinstance(power_overlap(cov, other, np.float64(0.5)), bounds.OverlapResult)
    many = power_overlap(cov, other, (0.25, 0.5))
    assert [ov.s for ov in many] == [0.25, 0.5]
    assert power_overlap(cov, other, ()) == []
    for bad in ([0.5, 1.0], [0.0], [1.5], [[0.5]], [0.5, math.nan]):
        with pytest.raises(ValueError, match="strictly inside"):
            power_overlap(cov, other, bad)


def test_power_overlap_keeps_its_refusals(monkeypatch):
    thermal = CovarianceMatrix(np.diag([3.0, 3.0]))
    sub_vacuum = CovarianceMatrix(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError, match="symplectic eigenvalue 0.5 below one"):
        power_overlap(thermal, sub_vacuum, [0.3, 0.5])

    def indefinite(_):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(bounds.np.linalg, "cholesky", indefinite)
    with pytest.raises(ValueError, match="combined covariance is not positive definite"):
        power_overlap(thermal, thermal, [0.3, 0.5])


def test_batched_engine_matches_scalar_reference():
    # Where the default three-mode correlation leaves the present state
    # unphysical, both engines must refuse with the same message.
    s_values = [1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-6]
    compared = 0
    for model, scn, absent, present, dec_a, dec_b in _model_pairs(REFERENCE_GRID):
        try:
            many = power_overlap(absent, present, s_values)
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
    # every row of the batched triangular solve.
    rng = np.random.default_rng(seed)
    ma, _ = random_cov(2, rng)
    mb, _ = random_cov(2, rng)
    a = GaussianState(cov=CovarianceMatrix(ma), mean=rng.normal(size=4))
    b = GaussianState(cov=CovarianceMatrix(mb), mean=rng.normal(size=4))
    da, db = a.williamson, b.williamson
    s_values = [0.1, 0.5, 0.8]
    for s, ov in zip(s_values, power_overlap(a, b, s_values)):
        prefactor_log, det_term_log, log_q = _reference_overlap(a, b, s, da, db)
        displacement_log = log_q - prefactor_log - det_term_log
        scale = 1.0 + abs(prefactor_log) + abs(det_term_log) + abs(displacement_log)
        assert ov.displacement_log < 0.0
        assert abs(ov.log_value - log_q) <= 1e-14 * scale


def test_zoom_search_no_worse_than_golden_section():
    for model, scn, absent, present, dec_a, dec_b in _model_pairs(box_scenarios(2024, 24)):

        def logq(s):
            return power_overlap(absent, present, s).log_value

        reference = _reference_chernoff_log(logq)
        qc = chernoff_bound(absent, present)
        _, floor = _reference_chernoff(absent, present, 1)
        scale = 1.0 + abs(qc.diagnostics["prefactor_log"]) + abs(qc.diagnostics["det_term_log"])
        assert qc.diagnostics["log_overlap"] <= reference + 1e-15 * scale, (model, scn)
        assert qc.diagnostics["zoom_rounds"] <= 7
        assert (
            qc.diagnostics["bracket_width"] <= bounds.S_TOL
            or qc.diagnostics["chernoff_gap"] <= floor
        ), (model, scn)


def test_chernoff_carries_bhattacharyya_of_the_same_evaluation():
    for model, scn, absent, present, dec_a, dec_b in _model_pairs(box_scenarios(99, 9)):
        qc = illumination_chernoff(scn, model)
        qb = illumination_bhattacharyya(scn, model)
        assert qc.bhattacharyya.s_used == 0.5
        assert qc.bhattacharyya.value == qb.value
        assert qc.bhattacharyya.diagnostics["log_overlap"] == qb.diagnostics["log_overlap"]
        assert qc.value <= qb.value
        assert qc.diagnostics["log_overlap"] <= qb.diagnostics["log_overlap"]


def _reference_chernoff(a, b, copies, stop_rule=True):
    """The list-walking search chernoff_bound replaced: power_overlap's
    OverlapResults, scanned with Python's min, the bracket carried as results.

    Returns the result and the rounding floor of its last round. Without the
    stop rule it zooms until the bracket is narrower than S_TOL, every round
    the search can make: the full-zoom search.
    """
    points = power_overlap(a, b, bounds.CHERNOFF_GRID)
    half = points[bounds.GRID_POINTS // 2]
    best = half
    rounds = 0
    while True:
        k = min(range(len(points)), key=lambda j: points[j].log_value)
        if points[k].log_value < best.log_value:
            best = points[k]
        near = points[max(k - 2, 0) : k + 3]
        gap = max(p.log_value for p in near) - min(p.log_value for p in near)
        floor = bounds.ROUNDING_ULPS * np.finfo(float).eps * max(
            abs(p.prefactor_log) + abs(p.det_term_log) + abs(p.displacement_log) for p in near
        )
        lo = points[max(k - 1, 0)]
        hi = points[min(k + 1, len(points) - 1)]
        if (stop_rule and gap <= floor) or hi.s - lo.s <= bounds.S_TOL:
            break
        points = [lo, *power_overlap(a, b, lo.s + (hi.s - lo.s) * bounds.ZOOM_FRACTIONS), hi]
        rounds += 1
    result = bounds._bound_from_overlap(
        best,
        copies,
        grid_points=bounds.GRID_POINTS,
        zoom_rounds=rounds,
        bracket_width=hi.s - lo.s,
        chernoff_gap=gap,
    )
    result.bhattacharyya = bounds._bound_from_overlap(half, copies)
    return result, floor


def _count_search_calls(monkeypatch):
    """Record the s of every power_overlap call and the ndim of every other engine call.

    Engine calls made inside power_overlap are left out of "engine", so it
    holds the batches chernoff_bound's own engine evaluates.
    """
    calls = {"overlap": [], "engine": []}
    inside = []
    original_call = bounds._PairEngine.__call__
    original_overlap = bounds.power_overlap

    def counting_call(self, s):
        if not inside:
            calls["engine"].append(np.ndim(s))
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


def test_chernoff_matches_list_walking_reference(monkeypatch):
    # The array search evaluates the same s points in the same order as the
    # reference, so every field must agree exactly, refusals included.
    calls = _count_search_calls(monkeypatch)
    compared = 0
    for model, scn, absent, present, _, _ in _model_pairs(box_scenarios(31, 12)):
        try:
            reference, _ = _reference_chernoff(absent, present, scn.copies)
        except ValueError as exc:
            with pytest.raises(ValueError) as ours:
                chernoff_bound(absent, present, scn.copies)
            assert str(ours.value) == str(exc)
            continue
        calls["overlap"].clear()
        calls["engine"].clear()
        qc = chernoff_bound(absent, present, scn.copies)
        assert calls["overlap"] == [0.5]
        assert len(calls["engine"]) == qc.diagnostics["zoom_rounds"] + 1
        assert (qc.value, qc.q_at_s, qc.s_used, qc.copies) == (
            reference.value, reference.q_at_s, reference.s_used, reference.copies
        ), (model, scn)
        assert qc.diagnostics == reference.diagnostics, (model, scn)
        assert [type(v) for v in qc.diagnostics.values()] == [
            type(v) for v in reference.diagnostics.values()
        ]
        assert qc.bhattacharyya == reference.bhattacharyya, (model, scn)
        assert qc == reference
        compared += 1
    assert compared >= 30


def test_stopped_search_within_rounding_of_full_zoom():
    # The stopped search evaluates a prefix of the full-zoom search's points,
    # so its log q can only be higher, and by no more than the rounding floor.
    # Rounding lets the full zoom's extra points dip below the true minimum,
    # so the stopped value can exceed the full-zoom one by more than
    # chernoff_gap, the spread at the stop; the floor bounds both.
    engine_calls = []
    for model, scn, absent, present, _, _ in _model_pairs(box_scenarios(5, 24)):
        try:
            full, _ = _reference_chernoff(absent, present, 1, stop_rule=False)
        except ValueError:
            continue
        qc = chernoff_bound(absent, present)
        _, floor = _reference_chernoff(absent, present, 1)
        new, full = qc.diagnostics["log_overlap"], full.diagnostics["log_overlap"]
        assert full <= new <= full + floor, (model, scn)
        assert qc.diagnostics["chernoff_gap"] <= floor, (model, scn)
        engine_calls.append(qc.diagnostics["zoom_rounds"] + 1)
    assert len(engine_calls) >= 60
    assert np.mean(engine_calls) <= 4 and max(engine_calls) <= 8


def test_chernoff_engine_calls(monkeypatch):
    calls = _count_search_calls(monkeypatch)
    scn = IlluminationScenario(n_signal=0.05, n_background=300.0, reflectivity=0.02)
    qc = illumination_chernoff(scn, "three-mode")
    assert 1 < len(calls["engine"]) <= 8
    assert all(ndim == 1 for ndim in calls["engine"])
    assert len(calls["engine"]) == qc.diagnostics["zoom_rounds"] + 1
    # the s = 1/2 start, which the result carries as its Bhattacharyya bound
    assert calls["overlap"] == [0.5]


def _synthetic_engine(monkeypatch, log_q, scale=0.0):
    """Replace _PairEngine by one whose log q(s) is log_q(s, call index).

    log q is split as prefactor_log = scale and det_term_log = log q - scale,
    so scale sets the rounding floor. Returns the list of batch sizes and
    the list of every log q value, both filled call by call.
    """
    sizes, evaluated = [], []

    class Synthetic:
        def __init__(self, state_a, state_b):
            pass

        def __call__(self, s):
            values = np.array([log_q(x, len(sizes)) for x in s.tolist()])
            sizes.append(s.size)
            evaluated.extend(values.tolist())
            rows = {"value": np.exp(values), "log_value": values,
                    "prefactor_log": np.full_like(s, scale), "det_term_log": values - scale,
                    "displacement_log": np.zeros_like(s), "s": s}
            return np.stack([rows[name] for name in bounds._FIELDS])

    monkeypatch.setattr(bounds, "_PairEngine", Synthetic)
    return sizes, evaluated


def test_chernoff_returns_minimum_over_every_evaluated_point(monkeypatch):
    # A synthetic engine that puts a rounding-level dip at s = 1/2 in one
    # call, either power_overlap's s = 1/2 start or the grid, and not in the
    # other, as two separate evaluations can differ: the search must still
    # return the dip, so Chernoff <= Bhattacharyya.
    for dip_call in (0, 1):

        def log_q(x, call, dip_call=dip_call):
            return (x - 0.5) ** 2 - 1e-3 - (1e-9 if call == dip_call and x == 0.5 else 0.0)

        sizes, evaluated = _synthetic_engine(monkeypatch, log_q)
        cov = CovarianceMatrix(np.diag([3.0, 3.0]))
        qc = chernoff_bound(cov, cov, 10)
        assert sizes[:2] == [1, bounds.GRID_POINTS]
        assert qc.diagnostics["log_overlap"] == min(evaluated)
        assert qc.s_used == 0.5
        assert qc.value <= qc.bhattacharyya.value


def test_flat_log_q_stops_after_the_grid(monkeypatch):
    # log q varies by 1e-16 over (0, 1), below the floor of 4 ulps of 40:
    # convexity leaves nothing to find beyond rounding, so no zoom round runs.
    sizes, evaluated = _synthetic_engine(
        monkeypatch, lambda x, call: 1e-15 * (x - 0.4) ** 2 - 1e-3, scale=20.0
    )
    cov = CovarianceMatrix(np.diag([3.0, 3.0]))
    qc = chernoff_bound(cov, cov)
    assert sizes == [1, bounds.GRID_POINTS]  # the s = 1/2 start, then the grid
    assert qc.diagnostics["zoom_rounds"] == 0
    assert qc.diagnostics["log_overlap"] == min(evaluated)
    assert 0.0 < qc.diagnostics["chernoff_gap"] <= bounds.ROUNDING_ULPS * np.finfo(float).eps * 40.0


def test_steep_log_q_zooms_to_the_bracket_tolerance(monkeypatch):
    # With curvature 600 the spread stays above the floor (4 ulps of 1e-3)
    # until the bracket is narrower than S_TOL, which takes all seven rounds.
    sizes, _ = _synthetic_engine(monkeypatch, lambda x, call: 300.0 * (x - 0.3) ** 2 - 1e-3)
    cov = CovarianceMatrix(np.diag([3.0, 3.0]))
    qc = chernoff_bound(cov, cov)
    assert sizes == [1, bounds.GRID_POINTS] + [bounds.ZOOM_POINTS] * 7
    assert qc.diagnostics["zoom_rounds"] == 7
    assert qc.diagnostics["bracket_width"] <= bounds.S_TOL
    assert abs(qc.s_used - 0.3) <= bounds.S_TOL


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
        assert bound.value == 0.5 and bound.q_at_s == 1.0 and bound.s_used == 0.5
        assert bound.diagnostics["exponent_per_copy"] == 0.0
        assert bound.diagnostics["log_overlap"] == 0.0
    for ov in power_overlap(absent, present, [1e-6, 0.3, 0.5, 0.9]):
        assert (ov.value, ov.log_value, ov.prefactor_log, ov.det_term_log) == (1.0, 0.0, 0.0, 0.0)


def test_equal_states_keep_the_general_refusals():
    # The equal-state rule comes after every check a distinct pair gets.
    sub_vacuum = CovarianceMatrix(np.diag([0.5, 0.5]))
    with pytest.raises(ValueError, match="symplectic eigenvalue 0.5 below one"):
        power_overlap(sub_vacuum, sub_vacuum, 0.5)
    thermal = CovarianceMatrix(np.diag([3.0, 3.0]))
    displaced = GaussianState(cov=thermal, mean=np.array([1e-3, 0.0]))
    assert power_overlap(thermal, displaced, 0.5).value < 1.0
