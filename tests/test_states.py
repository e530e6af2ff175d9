import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    box_scenarios,
    max_three_mode_correlation_large_asymptotic,
    max_three_mode_correlation_small_asymptotic,
)
from qillum.states import (
    MODELS,
    AnalyticDomainError,
    IlluminationScenario,
    illuminate,
    illumination_probe,
    illumination_states,
    max_three_mode_correlation,
    separability_threshold,
    target_absent_cov,
    target_absent_williamson,
    target_present_cov,
    target_present_factorization,
    three_mode_cov,
    tmsv_correlation,
    tmsv_cov,
    two_mode_target_absent_cov,
    two_mode_target_present_cov,
)
from qillum.symplectic import (
    Bipartition,
    log_negativity,
    symplectic_eigenvalues,
    williamson_decompose,
)


def scenario(ns=0.2, nb=5.0, kappa=0.01, copies=1, c=None):
    return IlluminationScenario(
        n_signal=ns, n_background=nb, reflectivity=kappa, copies=copies, correlation=c
    )


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(ns=-0.1)
    with pytest.raises(ValueError):
        scenario(nb=-1.0)
    with pytest.raises(ValueError):
        scenario(kappa=1.5)
    with pytest.raises(ValueError):
        scenario(copies=0)
    with pytest.raises(ValueError):
        IlluminationScenario(n_signal=0.1, n_background=1.0, reflectivity=0.5, copies=2.5)
    with pytest.raises(ValueError):
        scenario(c=-0.2)


def test_variances():
    scn = scenario(ns=0.2, nb=5.0, kappa=0.25)
    assert scn.signal_variance == 1.4
    assert scn.background_variance == 11.0
    assert scn.return_variance == pytest.approx(11.1)


def test_correlation_bounds_enforced():
    cq2 = tmsv_correlation(0.2)
    cq3 = max_three_mode_correlation(0.2)
    assert cq3 < cq2
    with pytest.raises(ValueError):
        scenario(c=cq3 * 1.001).probe_correlation("three-mode")
    with pytest.raises(ValueError):
        scenario(c=cq2 * 1.001).probe_correlation("two-mode")
    assert scenario(c=None).probe_correlation("three-mode") == cq3
    assert scenario(c=None).probe_correlation("two-mode") == cq2


def test_tmsv_correlation_formula():
    assert tmsv_correlation(0.0) == 0.0
    assert tmsv_correlation(1.0) == pytest.approx(2 * math.sqrt(2.0), abs=1e-14)


def test_max_correlation_reference_points():
    assert max_three_mode_correlation(0.0) == 0.0
    assert max_three_mode_correlation(0.2) ** 2 == pytest.approx(
        0.38873876566744947, abs=1e-13
    )
    assert max_three_mode_correlation(0.5) == pytest.approx(
        0.9862659827241921, abs=1e-12
    )
    assert max_three_mode_correlation(1.0) == pytest.approx(
        1.4981728627934003, abs=1e-11
    )


@settings(max_examples=60, deadline=None)
@given(
    ns=st.floats(
        min_value=1e-6, max_value=1e4, allow_nan=False, allow_infinity=False
    )
)
def test_max_correlation_properties(ns):
    s2 = (2 * ns + 1) ** 2
    x = max_three_mode_correlation(ns) ** 2
    assert 0.0 < x < 0.5 * s2
    # root of the determinant cubic in the rewritten variable
    t = s2 - 1.0
    residual = 4 * x**3 - 9 * s2 * x * x + 6 * s2 * s2 * x - t * (3 + t * (3 + t))
    assert abs(residual) < 1e-12 * s2**3
    # strictly between half of and all of the two-mode maximum
    cq2 = tmsv_correlation(ns)
    c = math.sqrt(x)
    assert 0.5 * cq2 < c < cq2


def test_series_helpers_track_the_solver():
    assert max_three_mode_correlation(1e-3) == pytest.approx(
        max_three_mode_correlation_small_asymptotic(1e-3), rel=1e-11
    )
    assert max_three_mode_correlation(1e3) == pytest.approx(
        max_three_mode_correlation_large_asymptotic(1e3), rel=1e-9
    )


def test_separability_threshold_brackets_ppt():
    for ns in (0.1, 1.0):
        cc = separability_threshold(ns)
        assert 0.0 < cc < max_three_mode_correlation(ns)
        part = Bipartition(n_modes=3, transposed=(0,))
        at = three_mode_cov(ns, cc)
        below = three_mode_cov(ns, 0.999 * cc)
        above = three_mode_cov(ns, 1.05 * cc)
        assert log_negativity(below, part) == 0.0
        assert log_negativity(above, part) > 1e-4
        tilde_min = symplectic_eigenvalues(
            np.diag([1, -1, 1, 1, 1, 1]) @ at.matrix @ np.diag([1, -1, 1, 1, 1, 1])
        )[-1]
        assert tilde_min == pytest.approx(1.0, abs=1e-9)


def test_separability_threshold_zero_signal():
    assert separability_threshold(0.0) == 0.0


def test_three_mode_cov_layout_and_limits():
    cov = three_mode_cov(0.2, 0.3)
    m = cov.matrix
    assert m[0, 0] == 1.4 and m[5, 5] == 1.4
    assert m[0, 2] == 0.3 and m[1, 3] == -0.3 and m[2, 4] == 0.3
    with pytest.raises(ValueError):
        three_mode_cov(0.2, -0.1)
    with pytest.raises(ValueError):
        three_mode_cov(0.2, max_three_mode_correlation(0.2) + 1e-6)


def test_absent_cov_ignores_reflectivity():
    a = target_absent_cov(scenario(kappa=0.01))
    b = target_absent_cov(scenario(kappa=0.7))
    assert np.array_equal(a.matrix, b.matrix)


def test_present_cov_layout():
    scn = scenario(ns=0.2, nb=5.0, kappa=0.25)
    c = scn.probe_correlation("three-mode")
    m = target_present_cov(scn).matrix
    assert m[0, 0] == scn.return_variance
    assert m[0, 2] == pytest.approx(0.5 * c)
    assert m[1, 3] == pytest.approx(-0.5 * c)
    assert m[2, 4] == c and m[3, 5] == -c


def test_present_reduces_to_absent_without_target():
    scn = scenario(kappa=0.0)
    assert np.array_equal(
        target_present_cov(scn).matrix, target_absent_cov(scn).matrix
    )


def test_two_mode_layouts():
    scn = scenario(ns=0.3, nb=4.0, kappa=0.36)
    absent = two_mode_target_absent_cov(scn).matrix
    assert np.array_equal(absent, np.diag([9.0, 9.0, 1.6, 1.6]))
    present = two_mode_target_present_cov(scn).matrix
    sk = 0.6 * tmsv_correlation(0.3)
    assert present[0, 2] == pytest.approx(sk)
    assert present[1, 3] == pytest.approx(-sk)
    assert present[0, 0] == pytest.approx(scn.return_variance)


def test_absent_analytic_matches_numeric():
    scn = scenario(ns=0.2, nb=5.0)
    cov = target_absent_cov(scn)
    analytic = target_absent_williamson(scn)
    numeric = williamson_decompose(cov)
    assert np.allclose(analytic.nu, numeric.nu, atol=1e-10)
    assert np.allclose(analytic.nu, [11.0, 1.2534995948694631, 1.2534995948694631])
    assert np.max(np.abs(analytic.reconstruct() - cov.matrix)) < 1e-9


def test_present_factorization_reference_point():
    scn = IlluminationScenario(n_signal=0.1, n_background=20.0, reflectivity=0.01)
    fac = target_present_factorization(scn)
    assert fac.beta_plus == pytest.approx(41.001906201922424, abs=1e-9)
    assert fac.beta1 == pytest.approx(1.1144746709596267, abs=1e-12)
    assert fac.beta_minus == pytest.approx(1.1143732555362937, abs=1e-12)
    for name, value in fac.identity_residuals().items():
        assert abs(value) < 1e-10, name
    dec = fac.williamson()
    cov = target_present_cov(scn)
    assert np.max(np.abs(dec.reconstruct() - cov.matrix)) < 1e-9 * np.max(
        np.abs(cov.matrix)
    )
    assert np.allclose(dec.nu, symplectic_eigenvalues(cov), atol=1e-9)


def test_present_factorization_out_of_domain():
    # bright signal, dim background: the return mode no longer dominates
    scn = IlluminationScenario(n_signal=1.0, n_background=0.1, reflectivity=0.9)
    with pytest.raises(AnalyticDomainError):
        target_present_factorization(scn)
    # the numeric decomposition, which every bound uses, has no domain
    cov = target_present_cov(scn)
    dec_b = williamson_decompose(cov)
    assert np.max(np.abs(dec_b.reconstruct() - cov.matrix)) < 1e-9 * np.max(
        np.abs(cov.matrix)
    )


def test_factorization_rejects_tampered_mu():
    scn = IlluminationScenario(n_signal=0.1, n_background=20.0, reflectivity=0.01)
    fac = target_present_factorization(scn)
    with pytest.raises(ValueError):
        target_present_factorization(scn).__class__(
            beta1=fac.beta1,
            beta_plus=fac.beta_plus,
            beta_minus=fac.beta_minus,
            xi=fac.xi,
            mu1_plus=fac.mu1_plus,
            mu1_minus=fac.mu1_minus,
            mu2_plus=fac.mu2_plus * (1 + 1e-6),
            mu2_minus=fac.mu2_minus,
            blocks=fac.blocks,
            return_variance=fac.return_variance,
            signal_variance=fac.signal_variance,
            correlation=fac.correlation,
            reflectivity=fac.reflectivity,
        )


def test_tmsv_cov_purity():
    nus = symplectic_eigenvalues(tmsv_cov(0.7))
    assert np.allclose(nus, [1.0, 1.0], atol=1e-12)


# --- reference builders: the covariances as they were written out entry by
# entry before every hypothesis state came from one thermal-loss channel ---


def _reference_three_mode(ns: float, c: float) -> np.ndarray:
    s = 2.0 * ns + 1.0
    m = np.diag([s] * 6).astype(float)
    for j in range(3):
        for k in range(3):
            if j != k:
                m[2 * j, 2 * k] = c
                m[2 * j + 1, 2 * k + 1] = -c
    return m


def _reference_tmsv(ns: float) -> np.ndarray:
    s = 2.0 * ns + 1.0
    c = tmsv_correlation(ns)
    m = np.diag([s, s, s, s])
    m[0, 2] = m[2, 0] = c
    m[1, 3] = m[3, 1] = -c
    return m


def _reference_absent(scn) -> np.ndarray:
    s = scn.signal_variance
    b = scn.background_variance
    c = max_three_mode_correlation(scn.n_signal)
    m = np.zeros((6, 6))
    m[0, 0] = m[1, 1] = b
    for j in (1, 2):
        m[2 * j, 2 * j] = m[2 * j + 1, 2 * j + 1] = s
    m[2, 4] = m[4, 2] = c
    m[3, 5] = m[5, 3] = -c
    return m


def _reference_present(scn) -> np.ndarray:
    s = scn.signal_variance
    a = scn.return_variance
    c = max_three_mode_correlation(scn.n_signal)
    sk = math.sqrt(scn.reflectivity) * c
    m = np.zeros((6, 6))
    m[0, 0] = m[1, 1] = a
    for j in (1, 2):
        m[2 * j, 2 * j] = m[2 * j + 1, 2 * j + 1] = s
        m[0, 2 * j] = m[2 * j, 0] = sk
        m[1, 2 * j + 1] = m[2 * j + 1, 1] = -sk
    m[2, 4] = m[4, 2] = c
    m[3, 5] = m[5, 3] = -c
    return m


def _reference_two_mode_absent(scn) -> np.ndarray:
    b = scn.background_variance
    s = scn.signal_variance
    return np.diag([b, b, s, s]).astype(float)


def _reference_two_mode_present(scn) -> np.ndarray:
    a = scn.return_variance
    s = scn.signal_variance
    sk = math.sqrt(scn.reflectivity) * tmsv_correlation(scn.n_signal)
    return np.array(
        [
            [a, 0.0, sk, 0.0],
            [0.0, a, 0.0, -sk],
            [sk, 0.0, s, 0.0],
            [0.0, -sk, 0.0, s],
        ]
    )


def _reference_coherent(scn):
    b = scn.background_variance
    amp = 2.0 * math.sqrt(scn.reflectivity * scn.n_signal)
    return np.diag([b, b]).astype(float), np.array([amp, 0.0])


def _channel_box(seed: int, count: int):
    """Log-uniform n_s 1e-4..10, n_b 1e-2..1e8, kappa 1e-4..1, plus kappa = 0 and 1."""
    rng = np.random.default_rng(seed)
    out = []
    for j in range(count):
        ns = math.exp(rng.uniform(math.log(1e-4), math.log(10.0)))
        nb = math.exp(rng.uniform(math.log(1e-2), math.log(1e8)))
        kappa = (0.0, 1.0)[j % 2] if j % 5 == 0 else math.exp(rng.uniform(math.log(1e-4), 0.0))
        out.append(IlluminationScenario(n_signal=ns, n_background=nb, reflectivity=kappa))
    return out


def test_channel_reproduces_the_written_out_covariances():
    for scn in _channel_box(seed=2025, count=400):
        ns = scn.n_signal
        pairs = [
            (three_mode_cov(ns, max_three_mode_correlation(ns)).matrix,
             _reference_three_mode(ns, max_three_mode_correlation(ns))),
            (tmsv_cov(ns).matrix, _reference_tmsv(ns)),
            (target_absent_cov(scn).matrix, _reference_absent(scn)),
            (target_present_cov(scn).matrix, _reference_present(scn)),
            (two_mode_target_absent_cov(scn).matrix, _reference_two_mode_absent(scn)),
            (two_mode_target_present_cov(scn).matrix, _reference_two_mode_present(scn)),
        ]
        for got, want in pairs:
            assert np.array_equal(got, want), scn
            # adding the vacuum back turns every exact zero into +0
            assert not np.signbit(got[got == 0.0]).any(), scn
        for model in ("three-mode", "two-mode"):
            for state in illumination_states(scn, model):
                assert not state.mean.any(), (scn, model)
        ref_cov, ref_mean = _reference_coherent(scn)
        absent, present = illumination_states(scn, "coherent")
        assert np.array_equal(absent.cov.matrix, ref_cov)
        assert np.array_equal(present.cov.matrix, ref_cov)
        assert not absent.mean.any()
        # within 1 ulp is the promise; the photon-number form of the
        # displacement makes it exact
        assert np.all(np.abs(present.mean - ref_mean) <= np.spacing(np.abs(ref_mean)))
        assert np.array_equal(present.mean, ref_mean), scn


def test_hypothesis_states_are_one_channel():
    scn = scenario(ns=0.3, nb=40.0, kappa=0.2)
    for model in ("three-mode", "two-mode", "coherent"):
        probe = illumination_probe(scn, model)
        absent, present = illumination_states(scn, model)
        assert np.array_equal(absent.cov.matrix, illuminate(probe, scn, 0.0).cov.matrix)
        assert np.array_equal(present.cov.matrix, illuminate(probe, scn, 0.2).cov.matrix)
        assert np.array_equal(present.mean, illuminate(probe, scn, 0.2).mean)
        # the probe itself is untouched by the channel
        assert np.array_equal(probe.excess, illumination_probe(scn, model).excess)
    # kappa = 1 sends the whole signal back: return = signal plus background excess
    full = illuminate(illumination_probe(scn, "three-mode"), scn, 1.0).cov.matrix
    c = max_three_mode_correlation(0.3)
    assert full[0, 0] == 2.0 * 0.3 + scn.background_variance
    assert full[0, 2] == c and full[1, 3] == -c and full[0, 4] == c


def test_pair_rows_equal_their_single_builds():
    # One (2, 2n, 2n) stack is built, admitted and decomposed; each state's
    # row equals the state built and decomposed alone, bit for bit.
    for scn in box_scenarios(1718, 30):
        for model in MODELS:
            probe = illumination_probe(scn, model)
            for state, kappa in zip(illumination_states(scn, model), (0.0, scn.reflectivity)):
                alone = illuminate(probe, scn, kappa)
                assert np.array_equal(state.cov.matrix, alone.cov.matrix)
                assert np.array_equal(state.cov.root, alone.cov.root)
                assert np.array_equal(state.mean, alone.mean)
                dec = williamson_decompose(alone.cov)
                assert np.array_equal(state.williamson.nu, dec.nu)
                assert np.array_equal(state.williamson.symplectic, dec.symplectic)


@pytest.mark.parametrize(
    "nb, refusal",
    [(1e308, "has non-finite entries"), (1e16, "is not positive definite")],
    ids=["absent-refused", "present-refused"],
)
def test_refused_pair_reports_the_sequential_error(nb, refusal):
    # At n_b = 1e308 the background variance overflows in both states and the
    # absent one is reported; at 1e16 only the present one fails its eigh.
    scn = scenario(ns=0.01, nb=nb, kappa=0.01)
    probe = illumination_probe(scn, "three-mode")
    with pytest.raises(ValueError, match=f"^covariance matrix {refusal}$") as single:
        for kappa in (0.0, scn.reflectivity):
            illuminate(probe, scn, kappa).williamson
    with pytest.raises(ValueError) as pair:
        illumination_states(scn, "three-mode")
    assert str(pair.value) == str(single.value)


def test_probe_correlation_per_model():
    scn = scenario(ns=0.2)
    assert scn.probe_correlation("three-mode") == max_three_mode_correlation(0.2)
    assert scn.probe_correlation("two-mode") == tmsv_correlation(0.2)
    assert scn.probe_correlation("coherent") is None
    assert scenario(ns=0.2, c=0.3).probe_correlation("three-mode") == 0.3
    assert scenario(ns=0.2, c=0.3).probe_correlation("coherent") is None
    cq3 = max_three_mode_correlation(0.2)
    with pytest.raises(
        ValueError,
        match=rf"^correlation 0\.7 exceeds the three-mode maximum {cq3:.12g}$",
    ):
        scenario(ns=0.2, c=0.7).probe_correlation("three-mode")
    cq2 = tmsv_correlation(0.2)
    with pytest.raises(
        ValueError,
        match=rf"^correlation 1\.2 exceeds the two-mode maximum {cq2:.12g}$",
    ):
        scenario(ns=0.2, c=1.2).probe_correlation("two-mode")
    with pytest.raises(ValueError, match="unknown model 'four-mode'"):
        scn.probe_correlation("four-mode")
