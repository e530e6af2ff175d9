"""Printed numbers against a 50-digit Williamson reference.

The reference takes the same float covariance matrices the program sees,
converts them exactly to mpmath numbers and computes their Williamson data at
50 digits with mpmath's own eigensolvers, sharing no linear algebra with the
program. From it come q(s) (Pirandola & Lloyd, PRA 78, 012331 (2008)) and
the symplectic spectra that state-info and the entanglement checks print.
"""

import itertools
import json
import math

import numpy as np
import pytest

from conftest import box_scenarios
from qillum.bounds import _closed_form_pair, illumination_bhattacharyya, illumination_chernoff
from qillum.cli import main
from qillum.states import (
    IlluminationScenario,
    illumination_states,
    target_absent_cov,
    target_absent_williamson,
    target_present_cov,
    target_present_factorization,
)
from qillum.symplectic import (
    Bipartition,
    WilliamsonDecomposition,
    partial_transpose,
    symplectic_eigenvalues,
)

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


def _reference_log_overlap(absent, present, s=0.5):
    """log q(s) of two physical states at DIGITS digits.

    With r = (nu - 1)/(nu + 1), a mode at power p has variance
    (1 + r^p)/(1 - r^p) and log trace p log 2 - p log(nu + 1) - log(1 - r^p);
    the means enter as -1/2 d^T M^-1 d, with M the combined covariance.
    """
    with mpmath.workdps(DIGITS):
        s = mp.mpf(s)
        log_q = absent.n * mp.log(2)
        combined = 0
        for state, p in ((absent, s), (present, 1 - s)):
            nus, sym = _williamson(mp.matrix(state.cov.matrix.tolist()))
            power = []
            for nu in nus:
                r = ((nu - 1) / (nu + 1)) ** p
                log_q += p * mp.log(2) - p * mp.log(nu + 1) - mp.log(1 - r)
                power += [(1 + r) / (1 - r)] * 2
            combined += sym * mp.diag(power) * sym.T
        d = mp.matrix((present.mean - absent.mean).tolist())
        log_q -= (d.T * mp.lu_solve(combined, d))[0] / 2
        return float(log_q - mp.log(mp.det(combined)) / 2)


@pytest.mark.parametrize("model", ["three-mode", "two-mode"])
def test_bhattacharyya_overlap_matches_50_digit_reference(model):
    # Every third scenario is from the dim-signal, bright-background corner.
    # Each is checked at s = 1/2 and at the printed optimal_s, which for a
    # few three-mode draws lies off 1/2.
    for scn in box_scenarios(707, 12):
        absent, present = illumination_states(scn, model)
        for bound in (illumination_bhattacharyya(scn, model), illumination_chernoff(scn, model)):
            reference = _reference_log_overlap(absent, present, bound.overlap.s)
            ov = bound.overlap
            scale = 1.0 + abs(ov.prefactor_log) + abs(ov.det_term_log)
            assert abs(ov.log_value - reference) <= 1e-14 * scale, (scn, ov.s)


def _log_scenarios(seed: int, count: int, ns: tuple, nb: tuple, kappa: tuple):
    """Each of n_s, n_b and kappa log-uniform between its (lo, hi)."""
    rng = np.random.default_rng(seed)

    def draw(lo: float, hi: float) -> float:
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    return [IlluminationScenario(draw(*ns), draw(*nb), draw(*kappa)) for _ in range(count)]


# The box's corners, n_b up to 1e8; none is refused.
BOX_CORNERS = [IlluminationScenario(ns, nb, kappa)
               for ns, nb, kappa in itertools.product((1e-4, 1.0), (1e-2, 1e4, 1e8), (1e-4, 0.5))]


@pytest.mark.parametrize(
    "model,scenarios,tolerance,s_grid",
    [
        # The Williamson engine that printed three-mode before its closed form
        # was off by up to 0.83 relative on these draws.
        ("three-mode", box_scenarios(708, 12) + BOX_CORNERS, 1e-10, ()),
        ("two-mode", box_scenarios(708, 12), 1e-13, ()),
        ("coherent", box_scenarios(708, 12), 1e-13, ()),
        # Below the box's n_b: a - 1 = 2 n_b is small, and log((a - 1)/(a + 1))
        # keeps its digits as log(a - 1) - log1p(a), with a - 1 exact.
        ("coherent", _log_scenarios(709, 40, (1e-4, 1.0), (1e-12, 1e-2), (1e-4, 0.5)), 1e-14, ()),
        # oracle-check's range, where its Gaussian column is this closed form
        # on an s-grid: dim light, so the modes sit near the vacuum.
        ("two-mode", _log_scenarios(710, 20, (1e-3, 0.4), (1e-3, 0.4), (1e-3, 0.5)), 1e-13,
         (0.05, 0.2, 0.35, 0.65, 0.8, 0.95)),
    ],
    ids=["three-mode", "two-mode", "coherent", "coherent-dim", "two-mode-oracle"],
)
def test_printed_closed_forms_match_50_digit_reference(model, scenarios, tolerance, s_grid):
    # The closed forms print these models' log q from differences of size
    # h/n_b, not from pieces of size log n_b that cancel, so they hold a
    # relative tolerance over the box, the bright corner included: checked
    # at the Bhattacharyya point s = 1/2, at the printed optimal_s and on
    # s_grid.
    worst = 0.0
    for scn in scenarios:
        absent, present = illumination_states(scn, model)
        qc = illumination_chernoff(scn, model)
        pair = _closed_form_pair(scn, model)
        points = [(b.overlap.s, b.overlap.log_value) for b in (qc.bhattacharyya, qc)]
        points += [(s, pair(s).log_value) for s in s_grid]
        for s, log_q in points:
            reference = _reference_log_overlap(absent, present, s)
            worst = max(worst, abs(log_q - reference) / abs(reference))
    assert worst <= tolerance


@pytest.mark.parametrize(
    "model,tolerance",
    [("three-mode", 1e-12), ("two-mode", 1e-13), ("coherent", 1e-13)],
    ids=["three-mode", "two-mode", "coherent"],
)
def test_printed_bound_values_match_50_digit_reference(model, tolerance, capsys):
    # The printed bounds are 1/2 exp(copies log q). Formed as q**copies / 2,
    # they carried about copies ulps of q: up to 2.4e-8 relative on these
    # draws. The tolerances include the reference's own rounding of log q to
    # a float, up to 8e-14 where the bound is near underflow.
    worst, checked = 0.0, 0
    for scn in box_scenarios(711, 60):
        argv = ["bounds", "--model", model, "--ns", repr(scn.n_signal),
                "--nb", repr(scn.n_background), "--kappa", repr(scn.reflectivity),
                "--copies", str(scn.copies), "--format", "json"]
        assert main(argv) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        absent, present = illumination_states(scn, model)
        for name, s in (("bhattacharyya_bound", 0.5), ("chernoff_bound", row["optimal_s"])):
            if row[name] == 0.0:  # underflowed; test_cli checks its log10 column
                continue
            log_q = _reference_log_overlap(absent, present, s)
            with mpmath.workdps(DIGITS):
                reference = float(mp.exp(scn.copies * mp.mpf(log_q)) / 2)
            worst = max(worst, abs(row[name] - reference) / reference)
            checked += 1
    assert checked >= 100 and worst <= tolerance


@pytest.mark.parametrize(
    "argv,exponent",
    [
        (["--ns", "1e-4", "--nb", "1e8", "--kappa", "1e-4"], 9.86055e-17),
        (["--kappa", "1e-16"], 8.676e-21),
    ],
    ids=["bright-corner", "kappa-1e-16"],
)
def test_three_mode_prints_its_reference_exponent(argv, exponent, capsys):
    # The Williamson engine printed 7.1e-15 and 0 for these exponents: its
    # pieces of size log n_b cancel to a residue of a few eps log n_b.
    assert main(["bounds", *argv, "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    scn = IlluminationScenario(row["n_signal"], row["n_background"], row["reflectivity"])
    reference = -_reference_log_overlap(*illumination_states(scn, "three-mode"))
    assert reference == pytest.approx(exponent, rel=1e-4, abs=0.0)
    assert row["exponent_per_copy_qb"] == pytest.approx(reference, rel=1e-10, abs=0.0)


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


@pytest.mark.parametrize("nb", [1e4, 1e6, 1e8])
def test_three_mode_library_williamson_keeps_relative_digits(nb):
    # The library's closed-form Williamson data come from the reduction that
    # prints the three-mode bounds, so beside a bright return mode the nu
    # near 1 keep their relative digits, and the assembled symplectic
    # reconstructs the covariance.
    scn = IlluminationScenario(n_signal=0.01, n_background=nb, reflectivity=0.01)
    pairs = (
        (target_absent_cov(scn), target_absent_williamson(scn)),
        (target_present_cov(scn), target_present_factorization(scn).williamson()),
    )
    for cov, dec in pairs:
        WilliamsonDecomposition(dec.symplectic, dec.nu, matrix=cov.matrix)
        with mpmath.workdps(DIGITS):
            nus, _ = _williamson(mp.matrix(cov.matrix.tolist()))
            reference = np.array(sorted((float(nu) for nu in nus), reverse=True))
        assert (np.abs(dec.nu - reference) / reference).max() <= 1e-13
