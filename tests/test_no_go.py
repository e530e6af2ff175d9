"""No physical three-mode probe beats the two-mode squeezed vacuum.

Every purification of a probe whose signal marginal is thermal with n_s
photons equals the TMSV up to an isometry on the idler side (Uhlmann), and
q(s) = Tr[rho^s sigma^(1-s)] cannot decrease under a channel for s in [0, 1]
(Petz-Renyi data processing). So q_probe(s) >= q_TMSV(s) at every s: the
three-mode probe's advantage exists only at its unphysical det V = 1
correlation.
"""

import math

import numpy as np

from conftest import beamsplitter_symplectic, random_symplectic
from qillum.bounds import power_overlap
from qillum.states import (
    IlluminationScenario,
    Probe,
    illuminate,
    illumination_states,
    three_mode_cov,
    tmsv_cov,
)

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
