"""Acceptance gate: one test per shipping criterion.

Run with -v to get a pass/fail line per criterion. Criterion 8 is split into
its absent-state and present-state halves. Its negativities are taken on the
two hypothesis states, which are physical at the parameters used here; the
three-mode probe itself, at its det V = 1 correlation, is not (see
test_state_info_probe_at_max_correlation_is_not_pure in test_cli.py).
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    max_three_mode_correlation_large_asymptotic,
    max_three_mode_correlation_small_asymptotic,
)
from qillum.bounds import (
    error_exponent_three_mode,
    error_exponent_two_mode,
    find_crossover,
    illumination_bhattacharyya,
    illumination_chernoff,
    power_overlap,
)
from qillum.cli import main
from qillum.fock import (
    helstrom_probability,
    oracle_overlap,
    oracle_tail_budget,
    target_absent_fock,
    target_present_fock,
)
from qillum.states import (
    IlluminationScenario,
    illumination_states,
    max_three_mode_correlation,
    target_absent_cov,
    target_absent_williamson,
    target_present_cov,
    target_present_factorization,
)
from qillum.symplectic import (
    Bipartition,
    is_physical,
    log_negativity,
    partial_transpose,
    symplectic_eigenvalues,
    williamson_decompose,
)


def test_criterion_01_crossover_location():
    start = time.perf_counter()
    result = find_crossover()
    elapsed = time.perf_counter() - start
    assert 0.290 <= result.n_signal <= 0.300
    assert elapsed < 1.0


def test_criterion_02_ratio_curve_single_sign_change():
    start = time.perf_counter()
    grid = np.logspace(math.log10(0.01), 0.0, 100)
    above = [
        error_exponent_three_mode(ns) > error_exponent_two_mode(ns) for ns in grid
    ]
    elapsed = time.perf_counter() - start
    crossover = find_crossover().n_signal
    for ns, flag in zip(grid, above):
        assert flag == (ns < crossover)
    changes = sum(1 for a, b in zip(above, above[1:]) if a != b)
    assert changes == 1
    assert above[0] and not above[-1]
    assert elapsed < 1.0


def _relative_exponent_gaps(model, gamma):
    gaps = []
    for nb in (1e2, 1e3, 1e4):
        scn = IlluminationScenario(
            n_signal=0.01, n_background=nb, reflectivity=0.01, copies=10**6
        )
        bound = illumination_bhattacharyya(scn, model)
        measured = -math.log(2.0 * bound.value) / scn.copies
        ideal = 0.01 * gamma / nb
        gaps.append(abs(measured - ideal) / ideal)
    return gaps


def test_criterion_03_three_mode_exponent_asymptotics():
    start = time.perf_counter()
    gaps = _relative_exponent_gaps("three-mode", error_exponent_three_mode(0.01))
    elapsed = time.perf_counter() - start
    assert all(gap < 0.05 for gap in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    assert elapsed < 1.0


def test_criterion_04_two_mode_exponent_asymptotics():
    start = time.perf_counter()
    gaps = _relative_exponent_gaps("two-mode", error_exponent_two_mode(0.01))
    elapsed = time.perf_counter() - start
    assert all(gap < 0.05 for gap in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    assert elapsed < 1.0


def test_criterion_05_factor_four_classical_gap():
    scn = IlluminationScenario(n_signal=0.01, n_background=1e4, reflectivity=0.01)
    two_mode = illumination_bhattacharyya(scn, "two-mode").exponent_per_copy
    coherent = illumination_bhattacharyya(scn, "coherent").exponent_per_copy
    ratio = two_mode / coherent
    assert 3.2 <= ratio <= 4.0
    # regression pin; per-copy exponents here are ~1e-9, so the achievable
    # absolute accuracy of their ratio is ~1e-6, not machine epsilon
    assert ratio == pytest.approx(3.3086366491, abs=1e-5)


def test_criterion_06_series_consistency():
    for ns in (1e-4, 1e-3, 1e-2):
        rel = (
            max_three_mode_correlation(ns)
            / max_three_mode_correlation_small_asymptotic(ns)
            - 1.0
        )
        assert abs(rel) < 10.0 * ns**4
    for ns in (1e2, 1e3):
        rel = (
            max_three_mode_correlation(ns)
            / max_three_mode_correlation_large_asymptotic(ns)
            - 1.0
        )
        assert abs(rel) < 1e-6


def test_criterion_07_symplectic_property_suite():
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        ns = rng.uniform(0.01, 1.0)
        nb = rng.uniform(5.0, 200.0)
        kappa = rng.uniform(1e-4, 0.5)
        fraction = rng.uniform(0.1, 1.0)
        c = fraction * max_three_mode_correlation(ns)
        scn = IlluminationScenario(
            n_signal=ns, n_background=nb, reflectivity=kappa, correlation=c
        )
        pairs = (
            (target_absent_cov(scn), target_absent_williamson(scn)),
            (target_present_cov(scn), target_present_factorization(scn).williamson()),
        )
        for cov, analytic in pairs:
            numeric = williamson_decompose(cov)
            scale = max(1.0, float(np.max(np.abs(cov.matrix))))
            assert np.max(np.abs(numeric.reconstruct() - cov.matrix)) < 1e-9 * scale
            assert np.max(np.abs(analytic.reconstruct() - cov.matrix)) < 1e-9 * scale
            assert np.max(np.abs(analytic.nu - numeric.nu)) < 1e-9


def test_criterion_08_absent_state_negativity():
    # closed form checked in the regime where the transposed spectrum actually
    # dips below one (S - c < 1)
    for ns, expected in ((0.2, 0.36492207949367494), (0.3, 0.2502488961422743)):
        scn = IlluminationScenario(n_signal=ns, n_background=5.0, reflectivity=0.01)
        cov = target_absent_cov(scn)
        c = scn.probe_correlation("three-mode")
        s = scn.signal_variance
        return_side = log_negativity(cov, Bipartition(n_modes=3, transposed=(0,)))
        idler_side = log_negativity(cov, Bipartition(n_modes=3, transposed=(1,)))
        assert return_side == 0.0
        assert abs(idler_side - (-math.log2(s - c))) < 1e-9
        assert abs(idler_side - expected) < 1e-9


def _idler_cut_spectrum(cov, idler):
    # The covariance has no x-p cross terms, so the partial-transpose spectrum
    # is sqrt(eig(X P~)), with X the x block and P~ the p block with the idler's
    # row and column negated. eig(X P~) = eigh(L^T P~ L) for X = L L^T.
    x = cov.matrix[0::2, 0::2]
    p = cov.matrix[1::2, 1::2].copy()
    p[idler, :] *= -1.0
    p[:, idler] *= -1.0
    lower = np.linalg.cholesky(x)
    return np.sqrt(np.linalg.eigvalsh(lower.T @ p @ lower))


def test_criterion_08_present_state_negativity():
    # The idler pair is the same under both hypotheses, and its transposed
    # spectrum S - c rises above 1 from n_signal ~ 0.4852; the return arm moves
    # that to ~ 0.4862 only. So at n_signal = 0.5 the present state is PPT
    # across every single-mode cut, and for a 1 x N Gaussian state PPT means
    # separable (Werner & Wolf, PRL 86, 3658 (2001)).
    scn = IlluminationScenario(n_signal=0.5, n_background=5.0, reflectivity=0.01)
    cov = target_present_cov(scn)
    assert is_physical(cov)
    cuts = [Bipartition(n_modes=3, transposed=(j,)) for j in range(3)]
    assert [log_negativity(cov, cut) for cut in cuts] == [0.0, 0.0, 0.0]
    for j in (1, 2):
        independent = _idler_cut_spectrum(cov, j)
        nu = np.sort(symplectic_eigenvalues(partial_transpose(cov, cuts[j])))
        assert independent[0] > 1.0
        assert np.max(np.abs(nu - independent)) < 1e-12

    # Local-operation bound (Vidal & Werner, PRA 65, 032314 (2002)): the absent
    # state is the present state with the return mode replaced by thermal
    # noise, a local operation on the side of an idler cut that does not hold
    # the transposed idler, so the present state has at least the absent
    # state's idler-side log-negativity max(0, -log2(S - c)).
    for ns in (0.2, 0.3, 0.45, 0.485, 0.5):
        scn = IlluminationScenario(n_signal=ns, n_background=5.0, reflectivity=0.01)
        cov = target_present_cov(scn)
        assert is_physical(cov)
        gap = scn.signal_variance - scn.probe_correlation("three-mode")
        floor = max(0.0, -math.log2(gap))
        for j in (1, 2):
            idler_side = log_negativity(cov, cuts[j])
            assert idler_side >= floor - 1e-12, (ns, j, idler_side, floor)
            if ns <= 0.485:
                assert idler_side > 0.0, (ns, j)


def test_criterion_09_oracle_equivalence():
    start = time.perf_counter()
    ns, nb, kappa, cutoff = 0.1, 0.3, 0.1, 30
    scn = IlluminationScenario(n_signal=ns, n_background=nb, reflectivity=kappa)
    absent, present = illumination_states(scn, "two-mode")
    grid = [0.25, 0.5, 0.75]
    for s, oracle in zip(grid, oracle_overlap(ns, nb, kappa, grid, cutoff)):
        gauss = power_overlap(absent, present, s).value
        assert abs(gauss - oracle) / gauss < 1e-5
    assert time.perf_counter() - start < 30.0


def test_criterion_10_bound_ordering():
    cutoff = 20
    cases = ((0.1, 0.3, 0.1), (0.05, 0.2, 0.3), (0.2, 0.5, 0.05), (0.3, 0.1, 0.5))
    for ns, nb, kappa in cases:
        budget = oracle_tail_budget(ns, nb, kappa, cutoff)["budget"]
        allowance = 10.0 * budget
        helstrom = helstrom_probability(
            target_absent_fock(ns, nb, cutoff),
            target_present_fock(ns, nb, kappa, cutoff),
        )
        scn = IlluminationScenario(n_signal=ns, n_background=nb, reflectivity=kappa)
        chernoff = illumination_chernoff(scn, "two-mode").value
        bhatt = illumination_bhattacharyya(scn, "two-mode").value
        assert helstrom <= chernoff + allowance, (ns, nb, kappa)
        assert chernoff <= bhatt + allowance, (ns, nb, kappa)


def test_criterion_11_sweep_determinism(tmp_path, capsys):
    outputs = []
    for tag in ("first", "second"):
        csv_path = tmp_path / f"{tag}.csv"
        svg_path = tmp_path / f"{tag}.svg"
        code = main(
            ["sweep", "--count", "25", "--out", str(csv_path), "--plot", str(svg_path)]
        )
        capsys.readouterr()
        assert code == 0
        outputs.append((csv_path.read_bytes(), svg_path.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
