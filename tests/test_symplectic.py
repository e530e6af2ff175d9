import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_symplectic, box_scenarios, random_cov, random_symplectic
from qillum.bounds import chernoff_bound
from qillum.states import (
    illuminate,
    illumination_probe,
    illumination_states,
    tmsv_correlation,
    tmsv_cov,
)
from qillum.symplectic import (
    RECONSTRUCTION_TOL,
    Bipartition,
    CovarianceMatrix,
    GaussianState,
    WilliamsonDecomposition,
    is_physical,
    is_pure,
    log_negativity,
    partial_transpose,
    symplectic_eigenvalues,
    symplectic_form,
    williamson_decompose,
)


def test_symplectic_form_blocks():
    omega = symplectic_form(2)
    assert omega.shape == (4, 4)
    assert np.array_equal(omega, -omega.T)
    assert np.array_equal(omega[:2, :2], [[0, 1], [-1, 0]])
    assert np.max(np.abs(omega @ omega + np.eye(4))) == 0


def test_symplectic_form_rejects_nonpositive():
    with pytest.raises(ValueError):
        symplectic_form(0)


def test_covariance_validation():
    with pytest.raises(ValueError):
        CovarianceMatrix(np.ones((3, 3)))  # odd dimension
    with pytest.raises(ValueError):
        CovarianceMatrix(np.ones((2, 4)))


@pytest.mark.parametrize(
    "matrix, refusal",
    [
        # A pure squeezed state in either quadrature order, and a positive
        # definite matrix far below vacuum: the sign of the smallest eigenvalue
        # decides, not the size or order of the entries.
        (np.diag([1e-13, 1e13]), None),
        (np.diag([1e13, 1e-13]), None),
        (1e-3 * np.eye(6), None),
        (np.diag([1.0, 1.0, 1.0, 0.0]), "is not positive definite"),
        (np.diag([1.0, 1.0, 1.0, -1.0]), "is not positive definite"),
        (np.array([[2.0, 1e-6], [0.0, 2.0]]), "is not symmetric to 1e-12"),
    ],
    ids=["squeezed-x", "squeezed-p", "small-6x6", "singular", "indefinite", "asymmetric"],
)
def test_covariance_admission_rule(matrix, refusal, monkeypatch):
    solved = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(a.dtype) or eigh(a))
    if refusal is not None:
        with pytest.raises(ValueError, match=f"^covariance matrix {refusal}$"):
            CovarianceMatrix(matrix)
        # Symmetry is refused before any eigensolve.
        assert len(solved) == (0 if "symmetric" in refusal else 1)
        return
    cov = CovarianceMatrix(matrix)
    assert np.allclose(cov.root @ cov.root, matrix, rtol=1e-12, atol=0)
    # One real eigensolve admits the matrix; Williamson adds only its Hermitian one.
    williamson_decompose(cov)
    assert solved == [np.float64, np.complex128]


def test_symplectic_form_is_built_once_and_read_only():
    omega = symplectic_form(3)
    assert symplectic_form(3) is omega
    assert not omega.flags.writeable
    with pytest.raises(ValueError):
        omega[0, 1] = 2.0


# Columns (p0 + x1, p1) and (x0 + p1, p0) are symplectic pairs; the first has no
# weight on x0, so block 0 has no weight on its own mode's x row.
_S0 = np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
NO_X_WEIGHT = (_S0 * [3.0, 3.0, 1.5, 1.5]) @ _S0.T


def _pair_stacks():
    """The (2, 2n, 2n) hypothesis-pair covariances of box draws, for every model."""
    for scn in box_scenarios(1717, 30):
        for model in ("three-mode", "two-mode", "coherent"):
            probe = illumination_probe(scn, model)
            yield illuminate(probe, scn, [0.0, scn.reflectivity]).cov.matrix
    yield np.stack([np.diag([5.0, 5.0, 2.0, 2.0]), NO_X_WEIGHT])


def test_stacked_rows_equal_their_single_calls():
    for stack in _pair_stacks():
        cov = CovarianceMatrix(stack)
        dec = williamson_decompose(cov)
        assert cov.root.shape == dec.symplectic.shape == stack.shape
        for i, matrix in enumerate(stack):
            single = CovarianceMatrix(matrix)
            assert np.array_equal(cov[i].matrix, single.matrix)
            assert np.array_equal(cov[i].root, single.root)
            alone = williamson_decompose(single)
            assert np.array_equal(dec[i].nu, alone.nu)
            assert np.array_equal(dec[i].symplectic, alone.symplectic)
            assert np.array_equal(williamson_decompose(cov[i]).symplectic, alone.symplectic)


GOOD = np.diag([3.0, 3.0, 2.0, 2.0])
NON_FINITE = np.diag([np.inf, 3.0, 2.0, 2.0])
ASYMMETRIC = GOOD + np.triu(np.full((4, 4), 1e-6), 1)
SINGULAR = np.diag([3.0, 3.0, 2.0, 0.0])


@pytest.mark.parametrize(
    "pair, flagged, refusal",
    [((NON_FINITE, GOOD), 0, "non-finite"), ((GOOD, NON_FINITE), 1, "non-finite"),
     ((SINGULAR, NON_FINITE), 1, "non-finite"), ((ASYMMETRIC, SINGULAR), 0, "not symmetric"),
     ((SINGULAR, ASYMMETRIC), 1, "not symmetric"), ((GOOD, SINGULAR), 1, "not positive"),
     ((GOOD, ASYMMETRIC), 1, "not symmetric")],
    ids=["absent-non-finite", "present-non-finite", "singular-before-non-finite",
         "asymmetric-before-singular", "singular-before-asymmetric", "present-singular",
         "present-asymmetric"],
)
def test_stack_admission_refuses_like_its_matrices_in_turn(pair, flagged, refusal):
    # Each check runs in turn over the whole stack, so the first check any
    # matrix fails decides, at the first matrix it flags, even where an
    # earlier matrix fails a later check; the message is that matrix's own.
    with pytest.raises(ValueError) as single:
        CovarianceMatrix(pair[flagged])
    with pytest.raises(ValueError, match=refusal) as stacked:
        CovarianceMatrix(np.stack(pair))
    assert str(stacked.value) == str(single.value)


def test_stack_decomposition_refuses_like_its_matrices_in_turn():
    thermal = np.stack([GOOD, np.diag([5.0, 5.0, 1.5, 1.5])])
    good = williamson_decompose(thermal)
    doubled = good.symplectic.copy()
    doubled[1] *= 2.0
    cases = [
        # entry 0 fails only to reconstruct, entry 1 is not symplectic: the
        # symplectic check comes first, so entry 1 decides
        (doubled, good.nu, thermal + [[[1e-3]], [[0.0]]], 1, "matrix is not symplectic"),
        (doubled, good.nu, thermal, 1, "matrix is not symplectic"),
        (good.symplectic, good.nu[:, ::-1], thermal, 0, "must be sorted descending"),
    ]
    for symplectic, nu, matrix, flagged, refusal in cases:
        with pytest.raises(ValueError, match=refusal) as single:
            WilliamsonDecomposition(symplectic[flagged], nu[flagged], matrix[flagged])
        with pytest.raises(ValueError) as stacked:
            WilliamsonDecomposition(symplectic, nu, matrix)
        assert str(stacked.value) == str(single.value)


def test_one_real_and_one_complex_eigh_per_pair(monkeypatch):
    solved = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: solved.append(a.dtype) or eigh(a))
    scn = box_scenarios(5, 1)[0]
    for model in ("three-mode", "two-mode", "coherent"):
        solved.clear()
        chernoff_bound(*illumination_states(scn, model))
        assert solved == [np.float64, np.complex128], model


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_covariance_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="covariance matrix has non-finite entries"):
        CovarianceMatrix(np.diag([bad, 1.0, 1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mean_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="mean vector has non-finite entries"):
        GaussianState(cov=CovarianceMatrix(np.eye(2)), mean=[bad, 0.0])


def test_gaussian_state_mean_length():
    cov = CovarianceMatrix(np.diag([3.0, 3.0]))
    state = GaussianState(cov=cov)
    assert np.array_equal(state.mean, np.zeros(2))
    with pytest.raises(ValueError):
        GaussianState(cov=cov, mean=np.zeros(4))


def test_single_thermal_eigenvalue():
    assert np.allclose(symplectic_eigenvalues(np.diag([7.0, 7.0])), [7.0])


def test_williamson_thermal_diagonal():
    cov = CovarianceMatrix(np.diag([5.0, 5.0, 2.0, 2.0]))
    dec = williamson_decompose(cov)
    assert np.allclose(dec.nu, [5.0, 2.0])
    assert np.max(np.abs(dec.reconstruct() - cov.matrix)) < 1e-12


def test_williamson_deterministic():
    rng = np.random.default_rng(7)
    m, _ = random_cov(3, rng)
    d1 = williamson_decompose(m)
    d2 = williamson_decompose(m)
    assert np.array_equal(d1.symplectic, d2.symplectic)
    assert np.array_equal(d1.nu, d2.nu)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 3))
def test_williamson_random_properties(seed, n):
    rng = np.random.default_rng(seed)
    m, nus = random_cov(n, rng)
    dec = williamson_decompose(m)
    scale = max(1.0, np.max(np.abs(m)))
    assert np.max(np.abs(dec.reconstruct() - m)) < 1e-9 * scale
    assert_symplectic(dec.symplectic)
    assert np.all(np.diff(dec.nu) <= 1e-12)
    assert np.allclose(dec.nu, nus, rtol=1e-8, atol=1e-8)
    # determinant is the squared product of the spectrum
    assert np.isclose(np.linalg.det(m), np.prod(dec.nu**2), rtol=1e-7)


def _schur_williamson(m: np.ndarray) -> WilliamsonDecomposition:
    """Reference: the decomposition from scipy's eigh and real Schur form.

    The real Schur form of K = R Omega R, R = m^(1/2), is 2x2 blocks
    [[0, b], [-b, 0]]; columns are swapped so b > 0 and blocks sorted descending.
    """
    from scipy.linalg import eigh, schur

    n = m.shape[0] // 2
    w, v = eigh(m)
    root = (v * np.sqrt(w)) @ v.T
    t, q = schur(root @ symplectic_form(n) @ root, output="real")
    nus = []
    for j in range(n):
        b = t[2 * j, 2 * j + 1]
        if b < 0:
            q[:, [2 * j, 2 * j + 1]] = q[:, [2 * j + 1, 2 * j]]
            b = -b
        nus.append(b)
    order = sorted(range(n), key=lambda j: -nus[j])
    cols = [c for j in order for c in (2 * j, 2 * j + 1)]
    nus = np.array([nus[j] for j in order])
    s = (root @ q[:, cols]) * np.repeat(1.0 / np.sqrt(nus), 2)
    return WilliamsonDecomposition(symplectic=s, nu=nus)


def _williamson_cases():
    for n in (1, 2, 3):
        for seed in range(20):
            yield random_cov(n, np.random.default_rng(seed))[0]
    for scn in box_scenarios(2024, 24):
        for model in ("three-mode", "two-mode", "coherent"):
            for state in illumination_states(scn, model):
                yield state.cov.matrix
    # Degenerate spectra: the vacuum, and equal thermal modes.
    for n in (1, 2, 3):
        yield np.eye(2 * n)
        yield np.diag(np.repeat([5.0] * n, 2))
    yield np.diag([3.0, 3.0, 3.0, 3.0, 1.5, 1.5])
    yield NO_X_WEIGHT


def test_williamson_matches_schur_reference():
    for m in _williamson_cases():
        dec, ref = williamson_decompose(m), _schur_williamson(m)
        scale = max(1.0, np.max(np.abs(m)))
        assert np.max(np.abs(dec.nu - ref.nu)) <= 1e-12 * ref.nu[0]
        omega = symplectic_form(dec.n)
        assert np.max(np.abs(dec.symplectic @ omega @ dec.symplectic.T - omega)) <= (
            RECONSTRUCTION_TOL
        )
        assert np.max(np.abs(dec.reconstruct() - m)) <= RECONSTRUCTION_TOL * scale
        # Each block, and each degenerate group of eigenvalues, is fixed only up
        # to a passive rotation, so the group's share S_g diag(nu_g) S_g^T of
        # the covariance is compared, which does not depend on it.
        start = 0
        for j in range(dec.n):
            if j + 1 < dec.n and ref.nu[j] - ref.nu[j + 1] <= 1e-6 * ref.nu[0]:
                continue
            cols = slice(2 * start, 2 * j + 2)
            share = [(d.symplectic[:, cols] * np.repeat(d.nu[start : j + 1], 2))
                     @ d.symplectic[:, cols].T for d in (dec, ref)]
            assert np.max(np.abs(share[0] - share[1])) <= 1e-9 * scale
            start = j + 1


def test_williamson_refuses_unpaired_spectrum(monkeypatch):
    real_eigh = np.linalg.eigh

    def shifted(a):
        lam, u = real_eigh(a)
        return (lam + 1e-3 if np.iscomplexobj(a) else lam), u

    monkeypatch.setattr(np.linalg, "eigh", shifted)
    with pytest.raises(ValueError, match="could not pair the symplectic spectrum"):
        williamson_decompose(np.diag([3.0, 3.0, 2.0, 2.0]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_spectrum_congruence_invariant(seed):
    rng = np.random.default_rng(seed)
    m, _ = random_cov(2, rng)
    s = random_symplectic(2, rng)
    before = symplectic_eigenvalues(m)
    after = symplectic_eigenvalues(0.5 * ((s @ m @ s.T) + (s @ m @ s.T).T))
    assert np.allclose(before, after, rtol=1e-8, atol=1e-8)


def test_decomposition_validation():
    with pytest.raises(ValueError):
        WilliamsonDecomposition(symplectic=np.eye(4), nu=np.array([1.0, 2.0]))  # ascending
    with pytest.raises(ValueError):
        WilliamsonDecomposition(symplectic=2 * np.eye(4), nu=np.array([2.0, 1.0]))


def test_tmsv_is_pure():
    cov = tmsv_cov(0.4)
    assert np.allclose(symplectic_eigenvalues(cov), [1.0, 1.0], atol=1e-12)
    assert is_pure(cov)
    assert is_physical(cov)


def test_unphysical_detection():
    assert not is_physical(np.diag([0.5, 0.5]))
    assert not is_pure(np.diag([3.0, 3.0]))


def test_bipartition_validation():
    part = Bipartition(n_modes=3, transposed=(2, 0, 2))
    assert part.transposed == (0, 2)
    with pytest.raises(ValueError):
        Bipartition(n_modes=3, transposed=())
    with pytest.raises(ValueError):
        Bipartition(n_modes=3, transposed=(0, 1, 2))
    with pytest.raises(ValueError):
        Bipartition(n_modes=3, transposed=(3,))


def test_partial_transpose_involution_and_signs():
    rng = np.random.default_rng(11)
    m, _ = random_cov(2, rng)
    cov = CovarianceMatrix(m)
    part = Bipartition(n_modes=2, transposed=(1,))
    once = partial_transpose(cov, part)
    assert once.matrix[0, 3] == -cov.matrix[0, 3]
    assert once.matrix[2, 2] == cov.matrix[2, 2]
    twice = partial_transpose(once, part)
    assert np.array_equal(twice.matrix, cov.matrix)


def test_tmsv_negativity_closed_form():
    ns = 0.3
    cov = tmsv_cov(ns)
    s = 2 * ns + 1
    c = tmsv_correlation(ns)
    part = Bipartition(n_modes=2, transposed=(1,))
    tilde = symplectic_eigenvalues(partial_transpose(cov, part))
    assert np.allclose(np.sort(tilde), np.sort([s - c, s + c]), atol=1e-12)
    assert log_negativity(cov, part) == pytest.approx(-np.log2(s - c), abs=1e-12)


def test_log_negativity_zero_for_product_state():
    cov = CovarianceMatrix(np.diag([3.0, 3.0, 5.0, 5.0]))
    assert log_negativity(cov, Bipartition(n_modes=2, transposed=(0,))) == 0.0
