import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from qillum import bounds, fock
from qillum.bounds import power_overlap
from qillum.fock import (
    DimensionCapError,
    TailBudgetError,
    helstrom_probability,
    oracle_overlap,
    oracle_tail_budget,
    quadrature_covariance,
    target_absent_fock,
    target_present_fock,
    thermal_tail,
    thermal_weights,
    tmsv_amplitudes,
    trace_power_product,
)
from qillum.states import IlluminationScenario, illumination_states, two_mode_target_present_cov
from qillum.symplectic import CovarianceMatrix


def _dense_beamsplitter(reflectivity, cutoff):
    """Reference: exp(theta (a+ b - a b+)) as one dense (cutoff+1)^2 matrix."""
    d = cutoff + 1
    n = np.arange(1, d)
    low = np.zeros((d, d))
    low[n - 1, n] = np.sqrt(n)
    theta = math.acos(math.sqrt(reflectivity))
    return expm(theta * (np.kron(low.T, low) - np.kron(low, low.T)))


def _sector_generators(cutoff):
    """a+ b - a b+ on (signal, background) per total photon number N, zero padded."""
    total = np.arange(2 * cutoff + 1)[:, None]
    n = np.maximum(0, total - cutoff) + np.arange(cutoff)[None, :]
    inside = n + 1 <= np.minimum(total, cutoff)
    coupling = np.sqrt(np.where(inside, (n + 1) * (total - n), 0))
    gen = np.zeros((2 * cutoff + 1, cutoff + 1, cutoff + 1))
    j = np.arange(cutoff)
    gen[:, j + 1, j] = coupling
    gen[:, j, j + 1] = -coupling
    return gen


def _sector_signal_numbers(total, cutoff):
    """Signal numbers of sector N = total inside the truncation."""
    return np.arange(max(0, total - cutoff), min(total, cutoff) + 1)


def _stacked_expm_beamsplitter(reflectivity, cutoff):
    """Reference: the sector generators exponentiated by scipy's stacked expm."""
    from scipy.linalg import expm

    return expm(math.acos(math.sqrt(reflectivity)) * _sector_generators(cutoff))


@functools.lru_cache(maxsize=None)
def _mpmath_sector_eigensystems(cutoff):
    """30-digit eigenvalues and eigenvectors of each sector's symmetric coupling matrix.

    A sector generator g has couplings c below and -c above its diagonal.
    With D = diag(i^x), D^H (i g) D = J, the real symmetric matrix with c on
    both off-diagonals, so one eigensystem of J gives exp(theta g) for every
    theta. The couplings are square roots of integers.
    """
    import mpmath

    systems = []
    with mpmath.workdps(30):
        for total, gen in enumerate(_sector_generators(cutoff)):
            size = _sector_signal_numbers(total, cutoff).size
            j = mpmath.zeros(size)
            for x in range(size - 1):
                j[x + 1, x] = j[x, x + 1] = mpmath.sqrt(round(gen[x + 1, x] ** 2))
            systems.append(mpmath.eigsy(j))
    return systems


def _mpmath_sector_beamsplitter(reflectivity, cutoff):
    """Reference: the cyclic-block beamsplitter from the 30-digit eigensystems.

    exp(theta g) = D exp(-i theta J) D^H, so with J = Q diag(lambda) Q^T entry
    (x, y) is sum_j Q[x, j] Q[y, j] Re(i^(x - y) exp(-i theta lambda_j)), and
    Re(i^m exp(-i phi)) is cos phi, sin phi, -cos phi, -sin phi for m mod 4 = 0 ... 3.
    """
    import mpmath

    d = cutoff + 1
    out = np.zeros((d, d, d))
    with mpmath.workdps(30):
        theta = mpmath.acos(mpmath.sqrt(reflectivity))
        for total, (lam, q) in enumerate(_mpmath_sector_eigensystems(cutoff)):
            n = _sector_signal_numbers(total, cutoff)
            cos = [mpmath.cos(theta * value) for value in lam]
            sin = [mpmath.sin(theta * value) for value in lam]
            weights = (cos, sin, [-w for w in cos], [-w for w in sin])
            rows = q.tolist()
            weighted = [[[a * b for a, b in zip(row, w)] for row in rows] for w in weights]
            block = [
                [mpmath.fdot(rows[x], weighted[(x - y) % 4][y]) for y in range(n.size)]
                for x in range(n.size)
            ]
            out[total % d, n[:, None], n] = np.array(block, dtype=float)
    return out


def _dense_present(n_signal, n_background, reflectivity, cutoff):
    """Reference target-present state from the dense beamsplitter, 0 < kappa < 1."""
    d = cutoff + 1
    psi = np.diag(tmsv_amplitudes(n_signal, cutoff))
    w = thermal_weights(n_background / (1.0 - reflectivity), cutoff)
    stacked = np.zeros((d, d, d, d))
    r = np.arange(d)
    stacked[:, r, r, :] = psi[:, None, :] * np.sqrt(w)[None, :, None]
    mixed = _dense_beamsplitter(reflectivity, cutoff) @ stacked.reshape(d * d, d * d)
    regrouped = mixed.reshape(d, d, d, d).transpose(0, 3, 1, 2).reshape(d * d, d * d)
    return regrouped @ regrouped.T


def test_thermal_weights_geometric():
    w = thermal_weights(2.0, 50)
    assert w[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert w[1] / w[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert np.sum(w) == pytest.approx(1.0 - thermal_tail(2.0, 50), rel=1e-13)
    assert thermal_tail(0.0, 10) == 0.0


def test_tmsv_amplitudes_are_thermal_weights():
    amp = tmsv_amplitudes(0.4, 20)
    assert np.allclose(amp**2, thermal_weights(0.4, 20), rtol=1e-13)


def test_dimension_cap():
    # two modes are capped at cutoff 63
    target_absent_fock(0.1, 0.1, 63)
    message = "^2-mode cutoff 64 needs dimension 4225 > cap 4096$"
    with pytest.raises(DimensionCapError, match=message):
        target_absent_fock(0.1, 0.1, 64)
    with pytest.raises(ValueError):
        target_absent_fock(0.1, 0.1, 0)


def test_fock_operator_validation():
    # every consumer of an operator refuses a matrix of the wrong shape, one
    # that is not square, and one asymmetric beyond HERMITICITY_TOL
    bad = np.eye(4)
    bad[0, 1] = 1e-6
    good = np.eye(4)
    for op in (np.ones((3, 3)), np.ones((3, 4)), bad):
        with pytest.raises(ValueError):
            trace_power_product(op, good, 0.5)
        with pytest.raises(ValueError):
            trace_power_product(good, op, 0.5)
        with pytest.raises(ValueError):
            helstrom_probability(op, good)
        with pytest.raises(ValueError):
            helstrom_probability(good, op)
        with pytest.raises(ValueError):
            quadrature_covariance(op)


def test_trace_power_product_thermal_vs_gaussian():
    # single thermal mode, deep cutoff: matrix power agrees with the
    # covariance-based engine
    n1, n2, cutoff = 1.0, 2.0, 200
    a = np.diag(thermal_weights(n1, cutoff))
    b = np.diag(thermal_weights(n2, cutoff))
    ga = CovarianceMatrix(np.diag([2 * n1 + 1.0] * 2))
    gb = CovarianceMatrix(np.diag([2 * n2 + 1.0] * 2))
    for s in (0.3, 0.5, 0.7):
        assert trace_power_product(a, b, s) == pytest.approx(
            power_overlap(ga, gb, s).value, rel=1e-10
        )


def test_trace_power_product_symmetry_and_validation():
    a = np.diag(thermal_weights(0.5, 30))
    b = np.diag(thermal_weights(1.5, 30))
    assert trace_power_product(a, b, 0.3) == pytest.approx(
        trace_power_product(b, a, 0.7), rel=1e-12
    )
    with pytest.raises(ValueError):
        trace_power_product(a, b, 1.0)
    with pytest.raises(ValueError):
        trace_power_product(a, np.diag(thermal_weights(1.0, 20)), 0.5)
    with pytest.raises(ValueError):
        trace_power_product(np.diag([1.0, -1e-3]), np.eye(2), 0.5)


def test_power_trace_closed_form_consistency():
    # full geometric sum of w^p equals the Gaussian mode-power trace
    nbar, p = 0.8, 0.4
    x = 2 * nbar + 1.0
    w0 = 1.0 / (nbar + 1.0)
    ratio = nbar / (nbar + 1.0)
    infinite_sum = w0**p / (1.0 - ratio**p)
    _, _, prefactor_log, _ = bounds._Modes([x], []).maps(p)  # log 2 plus the log trace
    assert math.exp(prefactor_log - math.log(2.0)) == pytest.approx(infinite_sum, rel=1e-13)


def test_present_state_construction():
    ns, nb, kappa, cutoff = 0.1, 0.3, 0.1, 20
    op = target_present_fock(ns, nb, kappa, cutoff)
    assert np.trace(op) == pytest.approx(1.0, abs=1e-10)
    cov = quadrature_covariance(op)
    scn = IlluminationScenario(n_signal=ns, n_background=nb, reflectivity=kappa)
    expected = two_mode_target_present_cov(scn).matrix
    assert np.max(np.abs(cov - expected)) < 1e-10


def test_present_state_edge_reflectivities():
    ns, nb, cutoff = 0.2, 0.4, 15
    zero = target_present_fock(ns, nb, 0.0, cutoff)
    assert np.array_equal(zero, target_absent_fock(ns, nb, cutoff))
    # at kappa = 1 the return is the signal: the pure two-mode squeezed vacuum
    one = target_present_fock(ns, nb, 1.0, cutoff)
    vec = np.diag(tmsv_amplitudes(ns, cutoff)).reshape(-1)
    assert np.array_equal(one, np.outer(vec, vec))
    with pytest.raises(ValueError):
        target_present_fock(ns, nb, 1.2, cutoff)


def test_oracle_tail_budget_structure():
    budget = oracle_tail_budget(0.1, 0.3, 0.1, 20)
    assert set(budget) == {"absent_tail", "present_tail", "rounding_floor", "budget"}
    assert all(type(v) is float for v in budget.values())
    assert budget["budget"] >= budget["rounding_floor"] > 0
    assert budget["budget"] == max(
        budget["absent_tail"], budget["present_tail"], budget["rounding_floor"]
    )


def test_oracle_overlap_agrees_with_gaussian():
    ns, nb, kappa, cutoff = 0.1, 0.3, 0.1, 20
    scn = IlluminationScenario(n_signal=ns, n_background=nb, reflectivity=kappa)
    absent, present = illumination_states(scn, "two-mode")
    for s in (0.25, 0.5, 0.75):
        gauss = power_overlap(absent, present, s).value
        oracle = oracle_overlap(ns, nb, kappa, s, cutoff)
        assert abs(gauss - oracle) / gauss < 1e-9


def test_oracle_gap_shrinks_with_cutoff():
    ns, nb, kappa = 0.1, 0.3, 0.1
    scn = IlluminationScenario(n_signal=ns, n_background=nb, reflectivity=kappa)
    absent, present = illumination_states(scn, "two-mode")
    gauss = power_overlap(absent, present, 0.5).value

    def gap(cutoff):
        return abs(gauss - oracle_overlap(ns, nb, kappa, 0.5, cutoff)) / gauss

    assert gap(30) <= gap(20) + 1e-14


def test_oracle_refuses_heavy_tails():
    with pytest.raises(TailBudgetError):
        oracle_overlap(0.1, 100.0, 0.01, 0.5, 20)


def test_helstrom_extremes():
    ground = np.zeros((4, 4))
    ground[0, 0] = 1.0
    excited = np.zeros((4, 4))
    excited[3, 3] = 1.0
    assert helstrom_probability(ground, excited) == pytest.approx(0.0, abs=1e-14)
    assert helstrom_probability(ground, ground) == pytest.approx(0.5, abs=1e-14)


def test_quadrature_covariance_of_product_state():
    op = target_absent_fock(0.2, 0.5, 25)
    cov = quadrature_covariance(op)
    assert np.max(np.abs(cov - np.diag([2.0, 2.0, 1.4, 1.4]))) < 1e-10


@pytest.mark.parametrize("kappa", [1e-3, 0.3, 0.9])
@pytest.mark.parametrize("cutoff", [2, 5, 10])
def test_sector_construction_matches_dense_reference(cutoff, kappa):
    ns, nb = 0.15, 0.4
    blocked = target_present_fock(ns, nb, kappa, cutoff)
    assert np.max(np.abs(blocked - _dense_present(ns, nb, kappa, cutoff))) < 1e-13
    # entries coupling different return-minus-idler numbers are exactly zero
    d = cutoff + 1
    r, i = np.divmod(np.arange(d * d), d)
    k = r - i
    assert np.all(blocked[k[:, None] != k[None, :]] == 0.0)
    # one build for a grid of s gives the per-scalar values exactly; photon
    # numbers at half the largest whose thermal tail passes at this cutoff
    ratio = fock.TAIL_LIMIT ** (1.0 / (cutoff + 1))
    ns = 0.5 * ratio / (1.0 - ratio)
    nb = ns * (1.0 - kappa)
    grid = [0.1, 0.5, 0.85]
    many = oracle_overlap(ns, nb, kappa, grid, cutoff)
    assert many == [oracle_overlap(ns, nb, kappa, s, cutoff) for s in grid]
    assert all(isinstance(q, float) for q in many)


@pytest.mark.parametrize("kappa", [1e-3, 0.3, 0.9])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 10, 23, 24])
def test_sector_beamsplitter_matches_references(cutoff, kappa):
    # Sector N sits in cyclic block N mod d at its signal numbers; both sectors of
    # a block are compared, and the entries between them must be zero.
    u = fock._sector_beamsplitter(kappa, cutoff)
    d = cutoff + 1
    stacked = _stacked_expm_beamsplitter(kappa, cutoff)
    expected = np.zeros((d, d, d))
    for total in range(2 * cutoff + 1):
        n = _sector_signal_numbers(total, cutoff)
        expected[total % d, n[:, None], n] = stacked[total, : n.size, : n.size]
    assert np.max(np.abs(u - expected)) < 1e-12
    pytest.importorskip("mpmath")
    assert np.max(np.abs(u - _mpmath_sector_beamsplitter(kappa, cutoff))) < 1e-13


@pytest.mark.parametrize("kappa", [1e-3, 0.3, 0.9])
@pytest.mark.parametrize("cutoff", [1, 2, 3, 10, 23, 24])
def test_present_branches_conserve_photon_number(cutoff, kappa):
    # Row i of cyclic block K has return r = (i + K) mod d, column b background
    # input m = (b + K) mod d; a branch with r + b != i + m does not exist.
    v = fock._present_branches(0.15, 0.4, kappa, cutoff)
    d = cutoff + 1
    block, i, b = np.ogrid[:d, :d, :d]
    conserved = (i + block) % d + b == i + (b + block) % d
    assert np.all(v[~conserved] == 0.0)
    assert np.all(np.any(v != 0.0, axis=2))  # every idler row carries a branch


@pytest.mark.parametrize("cutoff", [1, 2, 3, 10, 23, 24])
def test_parity_chain_singular_values_are_the_block_spectrum(cutoff):
    # Block j joins sectors j and j + d; its symmetric coupling matrix, built
    # from the reference generators, has eigenvalues +-sigma of the chain B
    # plus one zero when d is odd. Sector j is full (j <= cutoff): a spin-j/2
    # representation, it contributes the integers sigma = j, j - 2, ... > 0.
    # Both hold to 1e-12, 30 times the largest rounding seen (cutoff 24).
    d = cutoff + 1
    chain = fock._parity_chain(cutoff)
    assert chain.shape == (d, (d + 1) // 2, d // 2)
    sigma = np.linalg.svd(chain, compute_uv=False)
    generators = np.abs(_sector_generators(cutoff))
    for j in range(d):
        spectrum = []
        for total in range(j, 2 * cutoff + 1, d):  # sector j + d is empty for j = cutoff
            size = _sector_signal_numbers(total, cutoff).size
            spectrum.extend(np.linalg.eigvalsh(generators[total, :size, :size]))
        expected = np.sort(np.concatenate([sigma[j], -sigma[j], np.zeros(d % 2)]))
        assert np.max(np.abs(np.sort(spectrum) - expected)) < 1e-12
        for m in range(j, 0, -2):
            assert np.min(np.abs(sigma[j] - m)) < 1e-12


def _uncached_branches(n_signal, n_background, reflectivity, cutoff):
    """_present_branches from a fresh chain SVD and a per-call fancy-index gather."""
    left, sigma, right_t = np.linalg.svd(fock._parity_chain(cutoff), full_matrices=False)
    d, evens, odds = left.shape
    half = 0.5 * math.acos(math.sqrt(reflectivity)) * sigma[:, None, :]
    sign = (-1.0) ** np.arange(evens)[:, None]
    left, right = left * sign, right_t.swapaxes(1, 2) * sign[:odds]
    chord = math.sqrt(2.0) * np.sin(half)
    even, odd = left * chord, right * chord
    u = np.empty((d, d, d))
    u[:, 0::2, 0::2] = np.eye(evens) - even @ even.swapaxes(1, 2)
    u[:, 1::2, 1::2] = np.eye(odds) - odd @ odd.swapaxes(1, 2)
    u[:, 1::2, 0::2] = (right * np.sin(2.0 * half)) @ left.swapaxes(1, 2)
    u[:, 0::2, 1::2] = -u[:, 1::2, 0::2].swapaxes(1, 2)
    amp = tmsv_amplitudes(n_signal, cutoff)
    w = thermal_weights(n_background / (1.0 - reflectivity), cutoff)
    i = np.arange(d)[None, :, None]
    r = (i + np.arange(d)[:, None, None]) % d
    b, m = i.swapaxes(1, 2), r.swapaxes(1, 2)
    branch = amp[i] * np.sqrt(w[m]) * u[(i + m) % d, r, i]
    return np.where(r + b == i + m, branch, 0.0)


@pytest.mark.parametrize("cutoff", [1, 2, 14, 24])
def test_cached_factors_are_read_only_and_shared(cutoff):
    factors = fock._chain_factors(cutoff)
    gather = fock._branch_gather(cutoff)
    assert fock._chain_factors(cutoff) is factors
    assert fock._branch_gather(cutoff) is gather
    d = cutoff + 1
    assert gather.dtype == np.min_scalar_type(d**3 - 1) and gather.shape == (d, d, d)
    for array in (*factors, gather):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1


@pytest.mark.parametrize("cutoff", [1, 2, 14, 24])
def test_cached_branches_match_the_uncached_build_bit_for_bit(cutoff):
    # kappa_1, kappa_2, kappa_1: a cache that kept anything of kappa would show.
    ns, nb = 0.15, 0.4
    for first, second in [(1e-3, 0.3), (0.3, 0.49), (0.49, 1e-3)]:
        for kappa in (first, second, first):
            got = fock._present_branches(ns, nb, kappa, cutoff)
            assert got.tobytes() == _uncached_branches(ns, nb, kappa, cutoff).tobytes()


def test_dimension_cap_is_checked_before_the_caches():
    def sizes():
        return [f.cache_info().currsize for f in (fock._chain_factors, fock._branch_gather)]

    oracle_overlap(0.1, 0.3, 0.1, 0.5, 20)
    before = sizes()
    with pytest.raises(DimensionCapError):
        oracle_overlap(0.1, 0.3, 0.1, 0.5, 64)
    assert sizes() == before


def test_oracle_overlap_matches_dense_reference():
    # The dense expm route shares no block code with the oracle.
    rng = np.random.default_rng(20261018)
    grid = [0.1, 0.3, 0.5]
    for _ in range(10):
        cutoff = int(rng.integers(2, 11))
        ratio = fock.TAIL_LIMIT ** (1.0 / (cutoff + 1))
        n_max = ratio / (1.0 - ratio)
        kappa = float(rng.uniform(0.01, 0.99))
        ns, nb = rng.uniform(0.05, 0.5, size=2) * n_max * [1.0, 1.0 - kappa]
        absent = target_absent_fock(ns, nb, cutoff)
        present = _dense_present(ns, nb, kappa, cutoff)
        expected = [trace_power_product(absent, present, s) for s in grid]
        got = oracle_overlap(ns, nb, kappa, grid, cutoff)
        assert np.max(np.abs(np.subtract(got, expected)) / expected) < 1e-11


def test_oracle_checks_the_dimension_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCapError):
            oracle_overlap(0.01, 0.01, 0.1, 0.5, 1500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oracle_overlap_sequence_validation():
    assert oracle_overlap(0.1, 0.3, 0.1, (), 20) == []
    with pytest.raises(ValueError):
        oracle_overlap(0.1, 0.3, 0.1, [0.5, 1.0], 20)
    with pytest.raises(DimensionCapError):
        oracle_overlap(0.1, 0.3, 0.1, [0.5], 64)


def test_oracle_refuses_reflectivity_one():
    for s in (0.5, [0.25, 0.5]):
        with pytest.raises(ValueError, match="kappa"):
            oracle_overlap(0.1, 0.3, 1.0, s, 20)


def test_oracle_keeps_small_eigenvalues_of_near_pure_blocks():
    # A dim background leaves the present blocks near pure, and s near 1
    # raises their tiny eigenvalues to the power 1 - s. As squared singular
    # values of V they stay inside oracle-check's flag line of ten tail
    # budgets; eigh of V V^T put this draw at 1.1e-10, three times over it.
    ns, nb, kappa, cutoff, s = 0.149877, 0.00215901, 0.300162, 15, 0.9062
    scn = IlluminationScenario(n_signal=ns, n_background=nb, reflectivity=kappa)
    absent, present = illumination_states(scn, "two-mode")
    gauss = power_overlap(absent, present, s).value
    gap = abs(gauss - oracle_overlap(ns, nb, kappa, s, cutoff)) / gauss
    assert gap <= 10.0 * oracle_tail_budget(ns, nb, kappa, cutoff)["budget"]
