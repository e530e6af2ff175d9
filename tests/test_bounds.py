import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cov
from qillum import (
    CovarianceMatrix,
    GaussianState,
    IlluminationScenario,
    bhattacharyya_bound,
    chernoff_bound,
    coherent_bhattacharyya,
    compare_exponents,
    error_exponent_three_mode,
    error_exponent_two_mode,
    find_crossover,
    illumination_bhattacharyya,
    illumination_chernoff,
    illumination_states,
    power_overlap,
    power_trace,
    power_variance,
    ratio_sweep,
    target_absent_williamson,
    target_present_factorization,
)


def test_power_maps_closed_form_points():
    assert power_variance(3.0, 0.5) == pytest.approx(3 + 2 * math.sqrt(2), abs=1e-12)
    assert power_trace(3.0, 0.5) == pytest.approx(1 + math.sqrt(2), abs=1e-12)
    assert power_variance(7.0, 1.0) == 7.0
    assert power_trace(7.0, 1.0) == 1.0
    assert power_variance(1.0, 0.3) == 1.0
    assert power_trace(1.0, 0.3) == 1.0


def test_power_maps_validation():
    with pytest.raises(ValueError):
        power_variance(0.9, 0.5)
    with pytest.raises(ValueError):
        power_trace(2.0, 0.0)
    with pytest.raises(ValueError):
        power_trace(2.0, 1.5)
    # rounding-level dips below one are snapped, not rejected
    assert power_variance(1.0 - 1e-10, 0.5) == 1.0


@settings(max_examples=80, deadline=None)
@given(
    x=st.floats(min_value=1.0, max_value=1e8),
    s=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_power_trace_completeness_identity(x, s):
    # 2 G_s G_(1-s) == Lambda_s + Lambda_(1-s): exactly what makes the
    # one-mode self-overlap Tr[rho^s rho^(1-s)] collapse to Tr[rho] = 1
    lhs = 2.0 * power_trace(x, s) * power_trace(x, 1 - s)
    rhs = power_variance(x, s) + power_variance(x, 1 - s)
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
    assisted = power_overlap(
        absent,
        present,
        0.5,
        decomposition_a=target_absent_williamson(scn),
        decomposition_b=target_present_factorization(scn).williamson(),
    ).value
    assert plain == pytest.approx(assisted, rel=1e-11)


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


def test_exponent_small_signal_limits():
    ns = 1e-5
    assert error_exponent_two_mode(ns) == pytest.approx(
        ns * (1 - 2 * math.sqrt(ns)), rel=1e-2
    )
    assert error_exponent_three_mode(ns) == pytest.approx(
        ns * (1 - math.sqrt(2 * ns)), rel=1e-2
    )


def test_ratio_sweep_validation_and_shape():
    rows = ratio_sweep([0.01, 0.1, 1.0])
    assert [row.n_signal for row in rows] == [0.01, 0.1, 1.0]
    assert rows[0].ratio > 1.0 > rows[2].ratio
    with pytest.raises(ValueError):
        ratio_sweep([0.1, 0.0])


def test_compare_exponents_consistency():
    row = compare_exponents(0.05)
    assert row.ratio == pytest.approx(row.gamma3 / row.gamma2, rel=1e-15)


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
    result = coherent_bhattacharyya(scn)
    ideal = 0.01 * 0.01 / (4 * 100.0)
    assert result.diagnostics["exponent_per_copy"] == pytest.approx(ideal, rel=5e-3)
    assert result.s_used == 0.5


def test_unknown_model_rejected():
    scn = IlluminationScenario(n_signal=0.1, n_background=1.0, reflectivity=0.1)
    with pytest.raises(ValueError):
        illumination_states(scn, "four-mode")
