"""Printed numbers against a 50-digit Williamson reference.

The reference takes the same float covariance matrices the program sees,
converts them exactly to mpmath numbers and computes their Williamson data at
50 digits with mpmath's own eigensolvers, sharing no linear algebra with the
program. From it come q(1/2) (Pirandola & Lloyd, PRA 78, 012331 (2008)) and
the symplectic spectra that state-info and the entanglement checks print.
"""

import numpy as np
import pytest

from conftest import box_scenarios
from qillum.bounds import illumination_bhattacharyya
from qillum.states import illumination_states
from qillum.symplectic import Bipartition, partial_transpose, symplectic_eigenvalues

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

DIGITS = 50


def _williamson(cov):
    """Symplectic eigenvalues nu and S with cov = S (direct sum nu_j I2) S^T."""
    n = cov.rows // 2
    w, q = mp.eigsy(cov)
    root = q * mp.diag([mp.sqrt(x) for x in w]) * q.T
    omega = mp.zeros(2 * n)
    for j in range(n):
        omega[2 * j, 2 * j + 1] = 1
        omega[2 * j + 1, 2 * j] = -1
    lam, u = mp.eighe(mp.mpc(0, 1) * (root * omega * root))
    order = sorted(range(2 * n), key=lambda j: -mp.re(lam[j]))[:n]
    nus = [mp.re(lam[j]) for j in order]
    s = mp.zeros(2 * n)
    for block, j in enumerate(order):
        scale = mp.sqrt(2) / mp.sqrt(nus[block])
        for row in range(2 * n):
            x = sum(root[row, k] * mp.re(u[k, j]) for k in range(2 * n))
            p = sum(-root[row, k] * mp.im(u[k, j]) for k in range(2 * n))
            s[row, 2 * block] = scale * x
            s[row, 2 * block + 1] = scale * p
    return nus, s


def _reference_log_overlap(absent, present):
    """log q(1/2) of two zero-mean physical states at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        log_q = 0
        combined = 0
        for state in (absent, present):
            cov = mp.matrix(state.cov.matrix.tolist())
            nus, s = _williamson(cov)
            power = []
            for nu in nus:
                plus, minus = mp.sqrt(nu + 1), mp.sqrt(nu - 1)
                log_q += mp.log(mp.sqrt(2) / (plus - minus)) + mp.log(2) / 2
                power += [(plus + minus) / (plus - minus)] * 2
            combined += s * mp.diag(power) * s.T
        return float(log_q - mp.log(mp.det(combined)) / 2)


@pytest.mark.parametrize("model", ["three-mode", "two-mode"])
def test_bhattacharyya_overlap_matches_50_digit_reference(model):
    # Every third scenario is from the dim-signal, bright-background corner.
    for scn in box_scenarios(707, 12):
        reference = _reference_log_overlap(*illumination_states(scn, model))
        diagnostics = illumination_bhattacharyya(scn, model).diagnostics
        scale = 1.0 + abs(diagnostics["prefactor_log"]) + abs(diagnostics["det_term_log"])
        assert abs(diagnostics["log_overlap"] - reference) <= 1e-14 * scale, scn


def test_symplectic_spectra_keep_relative_precision():
    # Every hypothesis state and each of its single-mode partial transposes.
    # Beside a bright return mode the eigenvalues near 1 keep their relative
    # digits; a Hermitian eigensolve of i R Omega R loses them to eps * n_b.
    worst = 0.0
    for scn in box_scenarios(707, 12):
        for model in ("three-mode", "two-mode"):
            for state in illumination_states(scn, model):
                n = state.n
                cuts = [Bipartition(n_modes=n, transposed=(j,)) for j in range(n)]
                for cov in [state.cov, *(partial_transpose(state.cov, cut) for cut in cuts)]:
                    with mpmath.workdps(DIGITS):
                        nus, _ = _williamson(mp.matrix(cov.matrix.tolist()))
                        reference = np.array(sorted((float(nu) for nu in nus), reverse=True))
                    error = np.abs(symplectic_eigenvalues(cov) - reference) / reference
                    worst = max(worst, float(error.max()))
    assert worst <= 1e-13
