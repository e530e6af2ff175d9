"""Symplectic linear algebra for zero-mean Gaussian states.

Quadratures are interleaved as (x1, p1, ..., xn, pn) and the vacuum has unit
variance, so a thermal mode with mean photon number nbar carries 2*nbar + 1 on
the diagonal. Physical covariance matrices have every symplectic eigenvalue
at or above 1.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field

from . import _NumpyOnFirstUse

np = _NumpyOnFirstUse(globals())

SYMMETRY_TOL = 1e-12
PHYSICAL_TOL = 1e-9
PURITY_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-9


@functools.cache
def symplectic_form(n: int) -> np.ndarray:
    """Standard form Omega = direct sum of n blocks [[0, 1], [-1, 0]]; read-only, one per n."""
    if n < 1:
        raise ValueError("mode count must be at least 1")
    inside = np.tile([1.0, 0.0], n)[:-1]  # the superdiagonal: 1 within a block, 0 between
    omega = np.diag(inside, 1) - np.diag(inside, -1)
    omega.flags.writeable = False
    return omega


def _refuse(bad, message: str, value=None) -> None:
    """Refuse a stack at the first entry r that bad flags; value[r] fills the message's {}."""
    if np.count_nonzero(bad):
        r = int(np.argmax(np.ravel(bad)))
        raise ValueError(message.format(None if value is None else np.ravel(value)[r]))


class _Stack:
    """obj[i] is entry i of a checked stack: every attribute indexed, not checked again."""

    def __getitem__(self, index):
        row = object.__new__(type(self))
        row.__dict__ = {name: value[index] for name, value in vars(self).items()}
        return row


@dataclass
class CovarianceMatrix(_Stack):
    """Validated real covariance matrix of an n-mode Gaussian state, or a (k, 2n, 2n) stack.

    A 2n x 2n matrix is admitted iff its entries are finite, it is symmetric
    to 1e-12, and the smallest eigenvalue of np.linalg.eigh is > 0; a stack
    takes one batched eigh. The symmetric square root built from that
    eigensolve is kept as `root`, the V^(1/2) that williamson_decompose starts
    from. Whether the matrix is a bona fide quantum state (symplectic spectrum
    >= 1) is a separate question answered by is_physical.
    """

    matrix: np.ndarray
    root: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        stack = m if m.ndim == 3 else m[None]
        finite = np.isfinite(stack).all(axis=tuple(range(1, stack.ndim)))
        _refuse(~finite, "covariance matrix has non-finite entries")
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
            raise ValueError("covariance matrix must be square")
        if m.shape[-1] % 2 != 0 or m.size == 0:
            raise ValueError("covariance matrix must be 2n x 2n with n >= 1")
        asymmetric = np.abs(stack - stack.swapaxes(1, 2)).max(axis=(1, 2)) > SYMMETRY_TOL
        _refuse(asymmetric, "covariance matrix is not symmetric to 1e-12")
        w, v = np.linalg.eigh(stack)
        _refuse(w[:, 0] <= 0, "covariance matrix is not positive definite")
        self.matrix = m
        self.root = ((v * np.sqrt(w)[:, None, :]) @ v.swapaxes(1, 2)).reshape(m.shape)

    @property
    def n(self) -> int:
        return self.matrix.shape[-1] // 2


@dataclass
class GaussianState(_Stack):
    """Covariance matrix plus quadrature mean vector, or a stack of both.

    A coherent amplitude alpha displaces the mean to (2 Re alpha, 2 Im alpha)
    in this convention.
    """

    cov: CovarianceMatrix
    mean: np.ndarray = None

    def __post_init__(self):
        shape = self.cov.matrix.shape[:-1]
        self.mean = np.zeros(shape) if self.mean is None else np.asarray(self.mean, dtype=float)
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("mean vector has non-finite entries")
        if self.mean.shape != shape:
            raise ValueError("mean vector length must be twice the mode count")

    @property
    def n(self) -> int:
        return self.cov.n

    @functools.cached_property
    def williamson(self) -> WilliamsonDecomposition:
        """Williamson decomposition of cov, computed on first use and kept; it may be set."""
        return williamson_decompose(self.cov)


@dataclass
class WilliamsonDecomposition(_Stack):
    """Symplectic S and eigenvalues nu with cov = S (direct sum nu_j I2) S^T, or stacks of both.

    Checked: nu sorted descending, S symplectic and, given `matrix`, S and nu reconstructing it.
    """

    symplectic: np.ndarray
    nu: np.ndarray
    matrix: InitVar[np.ndarray | None] = None

    def __post_init__(self, matrix):
        self.symplectic = np.asarray(self.symplectic, dtype=float)
        self.nu = np.asarray(self.nu, dtype=float)
        n = self.nu.shape[-1]
        if self.symplectic.shape != self.nu.shape[:-1] + (2 * n, 2 * n):
            raise ValueError("symplectic matrix shape does not match nu")
        unsorted = (self.nu[..., 1:] > self.nu[..., :-1]).any(axis=-1)
        _refuse(unsorted, "symplectic eigenvalues must be sorted descending")
        sym, omega = self.symplectic, symplectic_form(n)
        err = np.abs(sym @ omega @ sym.swapaxes(-1, -2) - omega).max(axis=(-2, -1))
        message = "matrix is not symplectic (S Omega S^T residual {:.3e})"
        _refuse(err > RECONSTRUCTION_TOL, message, err)
        if matrix is not None:
            resid = np.abs(self.reconstruct() - matrix).max(axis=(-2, -1))
            scale = np.maximum(1.0, np.abs(matrix).max(axis=(-2, -1)))
            message = "decomposition failed to reconstruct (residual {:.3e})"
            _refuse(resid > RECONSTRUCTION_TOL * scale, message, resid)

    @property
    def n(self) -> int:
        return self.nu.shape[-1]

    def reconstruct(self) -> np.ndarray:
        d = np.repeat(self.nu, 2, axis=-1)[..., None, :]
        return (self.symplectic * d) @ self.symplectic.swapaxes(-1, -2)


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
    """Numeric Williamson decomposition of a matrix or a stack.

    Algorithm: with R = cov^(1/2), the root kept when cov was admitted, the
    Hermitian i R Omega R has eigenvalues +-nu in pairs, nu the symplectic
    eigenvalues (Serafini, Quantum Continuous Variables, ch. 3). An
    eigenvector u of +nu gives the real orthonormal pair
    (sqrt2 Re u, -sqrt2 Im u), on which R Omega R is [[0, nu], [-nu, 0]].
    Blocks are sorted descending. Each block pair, and each group of
    degenerate eigenvalues, is fixed only up to a passive rotation, which is
    left as the eigensolver returns it and can differ between LAPACK builds;
    each group's share S diag(nu) S^T, and so q(s), does not depend on it. A
    (k, 2n, 2n) stack takes one batched eigh, and each of its entries equals
    its own call bit for bit.

    The eigensolve is backward stable, so nu carries an absolute error of
    about eps * max(nu): in a bright state the small eigenvalues lose relative
    digits that symplectic_eigenvalues keeps.
    """
    cov = _as_cov(cov)
    m, root, n = cov.matrix, cov.root, cov.n
    lam, u = np.linalg.eigh(1j * (root @ symplectic_form(n) @ root))

    # The spectrum is symmetric about zero: -nu_j must pair with +nu_j.
    stray = np.abs(lam[..., :n] + lam[..., : n - 1 : -1]).max(axis=-1)
    unpaired = stray > 1e-8 * np.maximum(1.0, np.abs(lam).max(axis=-1))
    message = "could not pair the symplectic spectrum (residual {:.3e})"
    _refuse(unpaired, message, stray)

    # eigh sorts ascending, so the +nu half read backwards is the descending sort.
    nus = lam[..., n:][..., ::-1]
    # Columns (sqrt2 Re u, -sqrt2 Im u) are the float view of sqrt2 conj(u).
    q = (u[..., n:][..., ::-1] * np.sqrt(2.0)).conj().view(float)
    s = (root @ q) * np.repeat(1.0 / np.sqrt(nus), 2, axis=-1)[..., None, :]
    return WilliamsonDecomposition(symplectic=s, nu=nus, matrix=m)


def partial_transpose(cov, part: Bipartition) -> CovarianceMatrix:
    """Flip the sign of the p rows and columns of every transposed mode."""
    m = _as_cov(cov).matrix
    if part.n_modes != m.shape[0] // 2:
        raise ValueError("bipartition mode count does not match the covariance")
    sign = np.ones(len(m))
    sign[2 * np.array(part.transposed) + 1] = -1.0
    return CovarianceMatrix(m * sign[:, None] * sign)


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
