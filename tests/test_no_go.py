"""No physical three-mode probe beats the two-mode squeezed vacuum.

Every purification of a probe whose signal marginal is thermal with n_s
photons equals the TMSV up to an isometry on the idler side (Uhlmann), and
q(s) = Tr[rho^s sigma^(1-s)] cannot decrease under a channel for s in [0, 1]
(Petz-Renyi data processing). So q_probe(s) >= q_TMSV(s) at every s: the
three-mode probe's advantage exists only at its unphysical det V = 1
correlation.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import beamsplitter_symplectic, box_scenarios, random_symplectic
from qillum.bounds import power_overlap
from qillum.states import (
    IlluminationScenario,
    Probe,
    illuminate,
    illumination_states,
    max_three_mode_correlation,
    three_mode_cov,
    tmsv_cov,
)
from qillum.symplectic import CovarianceMatrix, symplectic_eigenvalues, williamson_decompose

S_VALUES = [0.1, 0.3, 0.5, 0.7, 0.9]


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _scenario(rng) -> IlluminationScenario:
    return IlluminationScenario(
        n_signal=_log_uniform(rng, 1e-3, 10.0),
        n_background=_log_uniform(rng, 1e-2, 1e5),
        reflectivity=_log_uniform(rng, 1e-3, 1.0),
    )


def _idler_side(symplectic_2: np.ndarray) -> np.ndarray:
    """A two-mode symplectic acting on modes 1 and 2 of a three-mode state."""
    s = np.eye(6)
    s[2:, 2:] = symplectic_2
    return s


def _gap(probe_cov: np.ndarray, scn: IlluminationScenario):
    """log q2(s) - log q3(s) over S_VALUES, and the rounding scale of both."""
    probe = Probe(excess=probe_cov - np.eye(6))
    absent3 = illuminate(probe, scn, 0.0)
    present3 = illuminate(probe, scn, scn.reflectivity)
    q3 = power_overlap(absent3, present3, S_VALUES)
    q2 = power_overlap(*illumination_states(scn, "two-mode"), S_VALUES)
    gaps, scales = [], []
    for a, b in zip(q2, q3):
        gaps.append(a.log_value - b.log_value)
        scales.append(
            1.0 + abs(a.prefactor_log) + abs(b.prefactor_log)
            + abs(a.det_term_log) + abs(b.det_term_log)
        )
    return np.array(gaps), np.array(scales)


def test_physical_three_mode_probe_never_beats_tmsv():
    rng = np.random.default_rng(2021)
    for _ in range(200):
        scn = _scenario(rng)
        ns = scn.n_signal
        c = rng.uniform(0.5, 1.0) * math.sqrt(ns * (1.0 + ns))
        s = _idler_side(random_symplectic(2, rng))
        v = s @ three_mode_cov(ns, c).matrix @ s.T
        # thermal loss on each idler: transmissivity eta, thermal photons n
        for mode in (1, 2):
            eta, n = rng.uniform(0.5, 1.0), rng.uniform(0.0, 1.0)
            rows = slice(2 * mode, 2 * mode + 2)
            v[rows, :] *= math.sqrt(eta)
            v[:, rows] *= math.sqrt(eta)
            v[rows, rows] += (1.0 - eta) * (2.0 * n + 1.0) * np.eye(2)
        v = 0.5 * (v + v.T)
        gaps, scales = _gap(v, scn)
        assert (gaps <= 1e-13 * scales).all(), (scn, c, gaps / scales)


def test_tmsv_with_a_vacuum_idler_is_the_two_mode_probe():
    rng = np.random.default_rng(7)
    for _ in range(20):
        scn = _scenario(rng)
        v = np.eye(6)
        v[:4, :4] = tmsv_cov(scn.n_signal).matrix
        s = beamsplitter_symplectic(3, 1, 2, rng.uniform(0.0, 2.0 * math.pi))
        gaps, scales = _gap(s @ v @ s.T, scn)
        assert (np.abs(gaps) <= 1e-13 * scales).all(), (scn, gaps / scales)


@pytest.mark.parametrize("correlation", ["paper", "physical"])
def test_idler_beamsplitter_reduces_the_three_mode_pair_to_two_modes(correlation):
    # A 50:50 beamsplitter on the idlers is one unitary under both hypotheses,
    # so it leaves q(s) alone. Mode a = (i1 + i2)/sqrt2 gets variances
    # (S + c, S - c) and correlation +-sqrt2 c; mode b decouples and is the
    # same state under both, so q(s) of the (return, a) pair is the 6x6 one.
    s_values = [0.3, 0.5, 0.8]
    bs = beamsplitter_symplectic(3, 1, 2, math.pi / 4)
    for scn in box_scenarios(9, 120):
        ns = scn.n_signal
        c = max_three_mode_correlation(ns) if correlation == "paper" else math.sqrt(ns + ns * ns)
        scn = dataclasses.replace(scn, correlation=c)
        pair = illumination_states(scn, "three-mode")
        full = power_overlap(*pair, s_values)
        absent, present = (bs @ state.cov.matrix @ bs.T for state in pair)
        for v in (absent, present):
            assert np.abs(v[:4, 4:]).max() <= 4e-16 * np.abs(v).max()
            big, small = scn.signal_variance + c, scn.signal_variance - c
            assert np.diag(v)[2:] == pytest.approx([big, small, small, big], rel=1e-15)
            assert (v[2, 3], v[4, 5]) == (0.0, 0.0)
        assert np.array_equal(absent[4:, 4:], present[4:, 4:])
        assert np.abs(absent[:2, 2:4]).max() <= 4e-16 * np.abs(absent).max()
        xp = math.sqrt(2.0 * scn.reflectivity) * c * np.array([1.0, -1.0])
        assert np.diag(present[:2, 2:4]) == pytest.approx(xp, rel=1e-14)
        reduced = power_overlap(CovarianceMatrix(absent[:4, :4]),
                                CovarianceMatrix(present[:4, :4]), s_values)
        for a, b in zip(full, reduced):
            scale = abs(a.prefactor_log) + abs(a.det_term_log)
            assert abs(a.log_value - b.log_value) <= 2e-15 * scale, (scn, a, b)


def _reduced_spectrum(v: np.ndarray, signal_variance: float, c: float) -> np.ndarray:
    """Symplectic eigenvalues of a three-mode state from determinants, descending.

    v is the state after the 50:50 idler beamsplitter: mode b is alone with
    variances (S - c, S + c), and the (return, a) block [[A, C], [C^T, B]]
    has nu+^2 nu-^2 = det V and nu+^2 + nu-^2 = det A + det B + 2 det C.
    """
    nu_b = math.sqrt((signal_variance - c) * (signal_variance + c))
    block = v[:4, :4]
    det = np.linalg.det
    delta = det(block[:2, :2]) + det(block[2:, 2:]) + 2.0 * det(block[:2, 2:])
    det_v = det(block)
    plus = delta + math.sqrt(delta * delta - 4.0 * det_v)
    return np.sort([math.sqrt(plus / 2.0), nu_b, math.sqrt(2.0 * det_v / plus)])[::-1]


@pytest.mark.parametrize("correlation", ["paper", "physical"])
def test_three_mode_spectrum_matches_its_determinant_form(correlation):
    # The reference shares no code with either solver: the idler beamsplitter
    # splits off mode b, and the (return, a) pair's two eigenvalues are the
    # roots of nu^4 - Delta nu^2 + det V.
    bs = beamsplitter_symplectic(3, 1, 2, math.pi / 4)
    for scn in box_scenarios(11, 300):
        ns = scn.n_signal
        c = max_three_mode_correlation(ns) if correlation == "paper" else math.sqrt(ns + ns * ns)
        scn = dataclasses.replace(scn, correlation=c)
        for state in illumination_states(scn, "three-mode"):
            v = state.cov.matrix
            expected = _reduced_spectrum(bs @ v @ bs.T, scn.signal_variance, c)
            relative = np.abs(symplectic_eigenvalues(v) / expected - 1.0)
            assert relative.max() <= 1e-12, (scn, relative)
            absolute = np.abs(williamson_decompose(v).nu - expected)
            assert absolute.max() <= 1e-12 * expected[0], (scn, absolute / expected[0])
