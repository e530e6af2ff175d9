"""Symplectic linear algebra for zero-mean Gaussian states.

Quadratures are interleaved as (x1, p1, ..., xn, pn) and the vacuum has unit
variance, so a thermal mode with mean photon number nbar carries 2*nbar + 1 on
the diagonal. Physical covariance matrices have every symplectic eigenvalue
at or above 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

SYMMETRY_TOL = 1e-12
PHYSICAL_TOL = 1e-9
PURITY_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-9


def symplectic_form(n: int) -> np.ndarray:
    """Standard form Omega = direct sum of n blocks [[0, 1], [-1, 0]]."""
    if n < 1:
        raise ValueError("mode count must be at least 1")
    omega = np.zeros((2 * n, 2 * n))
    for j in range(n):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


@dataclass
class CovarianceMatrix:
    """Validated real covariance matrix of an n-mode Gaussian state.

    A 2n x 2n matrix is admitted iff its entries are finite, it is symmetric
    to 1e-12, and the smallest eigenvalue of one np.linalg.eigh is > 0. The
    symmetric square root built from that eigensolve is kept as `root`, the
    V^(1/2) that williamson_decompose starts from. Whether the matrix is a
    bona fide quantum state (symplectic spectrum >= 1) is a separate question
    answered by is_physical.
    """

    matrix: np.ndarray
    root: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if not np.all(np.isfinite(m)):
            raise ValueError("covariance matrix has non-finite entries")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("covariance matrix must be square")
        if m.shape[0] % 2 != 0 or m.shape[0] == 0:
            raise ValueError("covariance matrix must be 2n x 2n with n >= 1")
        if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric to 1e-12")
        w, v = np.linalg.eigh(m)
        if w[0] <= 0:
            raise ValueError("covariance matrix is not positive definite")
        self.matrix = m
        self.root = (v * np.sqrt(w)) @ v.T

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2


@dataclass
class GaussianState:
    """Covariance matrix plus quadrature mean vector.

    A coherent amplitude alpha displaces the mean to (2 Re alpha, 2 Im alpha)
    in this convention.
    """

    cov: CovarianceMatrix
    mean: np.ndarray = None

    def __post_init__(self):
        if self.mean is None:
            self.mean = np.zeros(2 * self.cov.n)
        else:
            self.mean = np.asarray(self.mean, dtype=float)
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("mean vector has non-finite entries")
        if self.mean.shape != (2 * self.cov.n,):
            raise ValueError("mean vector length must be twice the mode count")

    @property
    def n(self) -> int:
        return self.cov.n

    @functools.cached_property
    def williamson(self) -> WilliamsonDecomposition:
        """Williamson decomposition of cov, computed on first use and kept."""
        return williamson_decompose(self.cov)


@dataclass
class WilliamsonDecomposition:
    """Symplectic S and eigenvalues nu with cov = S (direct sum nu_j I2) S^T."""

    symplectic: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        self.symplectic = np.asarray(self.symplectic, dtype=float)
        self.nu = np.asarray(self.nu, dtype=float)
        n = self.nu.shape[0]
        if self.symplectic.shape != (2 * n, 2 * n):
            raise ValueError("symplectic matrix shape does not match nu")
        if np.any(np.diff(self.nu) > 0):
            raise ValueError("symplectic eigenvalues must be sorted descending")
        omega = symplectic_form(n)
        err = np.max(np.abs(self.symplectic @ omega @ self.symplectic.T - omega))
        if err > RECONSTRUCTION_TOL:
            raise ValueError(f"matrix is not symplectic (S Omega S^T residual {err:.3e})")

    @property
    def n(self) -> int:
        return self.nu.shape[0]

    def reconstruct(self) -> np.ndarray:
        d = np.repeat(self.nu, 2)
        return (self.symplectic * d) @ self.symplectic.T


@dataclass(frozen=True)
class Bipartition:
    """Split of n modes given by the (nonempty, proper) set to transpose."""

    n_modes: int
    transposed: tuple

    def __post_init__(self):
        modes = tuple(sorted(set(int(m) for m in self.transposed)))
        object.__setattr__(self, "transposed", modes)
        if not modes:
            raise ValueError("bipartition needs at least one transposed mode")
        if len(modes) >= self.n_modes:
            raise ValueError("transposed set must be a proper subset of the modes")
        if modes[0] < 0 or modes[-1] >= self.n_modes:
            raise ValueError("mode index out of range (indices are 0-based)")


def _as_cov(cov) -> CovarianceMatrix:
    return cov if isinstance(cov, CovarianceMatrix) else CovarianceMatrix(cov)


def symplectic_eigenvalues(cov) -> np.ndarray:
    """Moduli of the paired eigenvalues of i*Omega*cov, one per pair, descending.

    The general eigensolver keeps the relative precision of eigenvalues near 1
    beside a bright mode, which the Hermitian eigensolve of
    williamson_decompose does not (tests/test_reference.py checks this path
    against a 50-digit reference).
    """
    m = _as_cov(cov).matrix
    n = m.shape[0] // 2
    ev = np.linalg.eigvals(1j * symplectic_form(n) @ m)
    mods = np.sort(np.abs(ev))
    return mods[::2][::-1].copy()


def williamson_decompose(cov) -> WilliamsonDecomposition:
    """Numeric Williamson decomposition with a phase convention.

    Algorithm: with R = cov^(1/2), the root kept when cov was admitted, the
    Hermitian i R Omega R has eigenvalues +-nu in pairs, nu the symplectic
    eigenvalues (Serafini, Quantum Continuous Variables, ch. 3). An
    eigenvector u of +nu gives the real orthonormal pair
    (sqrt2 Re u, -sqrt2 Im u), on which R Omega R is [[0, nu], [-nu, 0]].
    Blocks are sorted descending, and each block pair is rotated so the (x, x)
    entry of S is nonnegative and the (x, p) entry vanishes, which keeps S
    symplectic. The rotation fixes a block only when the block has weight on
    its own mode's x or p row. Within a group of degenerate eigenvalues, and
    for a block with no weight on its own mode, S is fixed only up to a
    passive rotation and can differ between LAPACK builds; each group's share
    S diag(nu) S^T, and so q(s), does not depend on that choice.

    The eigensolve is backward stable, so nu carries an absolute error of
    about eps * max(nu): in a bright state the small eigenvalues lose relative
    digits that symplectic_eigenvalues keeps.
    """
    cov = _as_cov(cov)
    m, root, n = cov.matrix, cov.root, cov.n
    lam, u = np.linalg.eigh(1j * (root @ symplectic_form(n) @ root))

    # The spectrum is symmetric about zero: -nu_j must pair with +nu_j.
    stray = np.max(np.abs(lam[:n] + lam[::-1][:n]))
    if stray > 1e-8 * max(1.0, np.max(np.abs(lam))):
        raise ValueError(f"could not pair the symplectic spectrum (residual {stray:.3e})")

    # eigh sorts ascending, so the +nu half read backwards is the descending sort.
    nus = lam[n:][::-1]
    top = u[:, n:][:, ::-1] * np.sqrt(2.0)
    q = np.stack([top.real, -top.imag], axis=2).reshape(2 * n, 2 * n)

    s = (root @ q) * np.repeat(1.0 / np.sqrt(nus), 2)

    for j in range(n):
        c0, c1 = s[:, 2 * j].copy(), s[:, 2 * j + 1].copy()
        a, b = s[2 * j, 2 * j], s[2 * j, 2 * j + 1]
        r = np.hypot(a, b)
        if r < 1e-12:
            # x-row of this block is numerically empty; anchor on the p-row.
            a, b = s[2 * j + 1, 2 * j], s[2 * j + 1, 2 * j + 1]
            r = np.hypot(a, b)
        if r < 1e-12:
            continue
        s[:, 2 * j] = (a * c0 + b * c1) / r
        s[:, 2 * j + 1] = (-b * c0 + a * c1) / r

    dec = WilliamsonDecomposition(symplectic=s, nu=nus)
    resid = np.max(np.abs(dec.reconstruct() - m))
    if resid > RECONSTRUCTION_TOL * max(1.0, np.max(np.abs(m))):
        raise ValueError(f"decomposition failed to reconstruct (residual {resid:.3e})")
    return dec


def partial_transpose(cov, part: Bipartition) -> CovarianceMatrix:
    """Flip the sign of the p rows and columns of every transposed mode."""
    m = _as_cov(cov).matrix
    if part.n_modes != m.shape[0] // 2:
        raise ValueError("bipartition mode count does not match the covariance")
    out = m.copy()
    for mode in part.transposed:
        out[2 * mode + 1, :] *= -1.0
        out[:, 2 * mode + 1] *= -1.0
    return CovarianceMatrix(out)


def log_negativity(cov, part: Bipartition) -> float:
    """Sum of -log2 over partial-transpose symplectic eigenvalues below 1."""
    nu = symplectic_eigenvalues(partial_transpose(cov, part))
    return float(sum(-np.log2(v) for v in nu if v < 1.0))


def is_pure(cov) -> bool:
    """True iff every symplectic eigenvalue is within PURITY_TOL of 1."""
    return bool(np.all(np.abs(symplectic_eigenvalues(cov) - 1.0) <= PURITY_TOL))


def is_physical(cov) -> bool:
    """True iff the matrix is a state: every symplectic eigenvalue >= 1 - PHYSICAL_TOL."""
    return bool(np.all(symplectic_eigenvalues(cov) >= 1.0 - PHYSICAL_TOL))
