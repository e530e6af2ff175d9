"""Truncated number-basis oracle for the Gaussian machinery.

The oracle builds the two hypothesis states of the two-mode detection pair
(return, idler) in a photon-number cutoff by explicit beamsplitter action,
makes no Gaussian assumption, and cross-checks the covariance-based overlap
engine with them.

It works on the blocks that two conservation laws give, not on dense
matrices, indexed cyclically modulo d = cutoff + 1 so that every block is
full and none is padded:

- The beamsplitter generator a+ b - a b+ conserves the total photon number N
  of (signal, background). Group j = N mod d holds sectors j and j + d, which
  together have exactly d states, ordered by signal number n. The coupling
  sqrt((n + 1)(N - n)) of n to n + 1 is 0 at n = j, the top of sector j, so
  the two sectors stay decoupled in one tridiagonal generator of size d, and
  sectors with N > cutoff are truncated exactly as the dense truncated
  operator truncates them.
- The two-mode squeezed probe pairs equal signal and idler photon numbers,
  and the thermal background is diagonal in the number basis. The
  target-present state is therefore block-diagonal in k = r - i (return minus
  idler photons). Block K = k mod d holds r - i = K and r - i = K - d: d
  idler rows, each V V^T over the d traced background branches, with V zero
  between the two. The target-absent state is diagonal.

q(s) = Tr[absent^s present^(1-s)] then needs only the singular values and
left singular vectors of every block's V, from one batched SVD for a whole
grid of s values. Dense matrices are assembled only on request
(`target_present_fock`), for the Helstrom probability, the quadrature
covariance and tests.

The beamsplitter's factors (the SVD of the parity-split coupling chain) and
the index that gathers each branch amplitude from it depend on the cutoff
only. They are built once per cutoff per process and kept as read-only
arrays, so a caller that revisits a cutoff (a scan over kappa or s, the
tests) pays only for the kappa-dependent part; a one-shot CLI call builds
them once and runs no faster.

Truncation error is tracked through analytic tail weights of the inputs
(geometric in the thermal and two-mode squeezed distributions), never by
renormalizing: a state that leaks past the cutoff keeps its deficit, and
callers get a budget number to compare gaps against.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Sequence

from . import _NumpyOnFirstUse

np = _NumpyOnFirstUse(globals())

DIMENSION_CAP = 4096
HERMITICITY_TOL = 1e-12
TAIL_LIMIT = 1e-8
MODE_COUNT = 2  # every state here is on the (return, idler) pair


class DimensionCapError(RuntimeError):
    """Requested truncation needs a matrix larger than the supported cap."""

    def __init__(self, cutoff: int):
        self.dimension = (cutoff + 1) ** MODE_COUNT
        super().__init__(
            f"{MODE_COUNT}-mode cutoff {cutoff} needs dimension "
            f"{self.dimension} > cap {DIMENSION_CAP}"
        )


class TailBudgetError(ValueError):
    """Truncation tails too heavy for the requested comparison."""

    def __init__(self, budget: float):
        self.budget = budget
        super().__init__(
            f"truncation tail budget {budget:.3e} exceeds {TAIL_LIMIT:.1e}; "
            f"raise the cutoff or shrink the photon numbers"
        )


def _check_dimension(cutoff: int):
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    if (cutoff + 1) ** MODE_COUNT > DIMENSION_CAP:
        raise DimensionCapError(cutoff)


def _operator(op) -> np.ndarray:
    """op as a float matrix; refuses one that is not square and symmetric."""
    m = np.asarray(op, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or np.abs(m - m.T).max() > HERMITICITY_TOL:
        raise ValueError(f"operator must be a symmetric square matrix, got shape {m.shape}")
    return m


def thermal_weights(nbar: float, cutoff: int) -> np.ndarray:
    """Occupation probabilities nbar^n / (nbar+1)^(n+1), n = 0..cutoff."""
    if nbar < 0:
        raise ValueError("mean photon number must be nonnegative")
    if nbar == 0:
        w = np.zeros(cutoff + 1)
        w[0] = 1.0
        return w
    n = np.arange(cutoff + 1)
    return np.exp(n * math.log(nbar / (nbar + 1.0)) - math.log(nbar + 1.0))


def thermal_tail(nbar: float, cutoff: int) -> float:
    """Weight beyond the cutoff: (nbar/(nbar+1))^(cutoff+1)."""
    if nbar <= 0:
        return 0.0
    return (nbar / (nbar + 1.0)) ** (cutoff + 1)


def tmsv_amplitudes(n_signal: float, cutoff: int) -> np.ndarray:
    """Schmidt coefficients of the two-mode squeezed vacuum on |n, n>."""
    if n_signal < 0:
        raise ValueError("photon number must be nonnegative")
    if n_signal == 0:
        a = np.zeros(cutoff + 1)
        a[0] = 1.0
        return a
    n = np.arange(cutoff + 1)
    return np.exp(
        0.5 * (n * math.log(n_signal / (n_signal + 1.0)) - math.log(n_signal + 1.0))
    )


def target_absent_fock(n_signal: float, n_background: float, cutoff: int) -> np.ndarray:
    """No target: thermal return times the thermal idler marginal. Order (return, idler)."""
    _check_dimension(cutoff)
    return np.kron(
        np.diag(thermal_weights(n_background, cutoff)),
        np.diag(thermal_weights(n_signal, cutoff)),
    )


def _parity_chain(cutoff: int) -> np.ndarray:
    """B[j, a, b]: block j's coupling of n = 2a to n = 2b + 1, shape (d, ceil(d/2), d // 2)."""
    d = cutoff + 1
    group = np.arange(d)[:, None]
    n = np.arange(cutoff)
    # <n+1, N-n-1| a+ b |n, N-n> = sqrt((n+1)(N-n)); N - n = (j - n) mod d is the
    # background number, 0 at n = j, where sector j ends and sector j + d starts.
    chain = np.zeros((d, (d + 1) // 2, d // 2))
    chain[:, (n + 1) // 2, n // 2] = np.sqrt((n + 1) * ((group - n) % d))
    return chain


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.cache
def _chain_factors(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed reduced SVD of `_parity_chain(cutoff)`: (P, S, Q), read-only.

    P (d, ceil(d/2), floor(d/2)) and Q (d, floor(d/2), floor(d/2)) carry the
    signs (-1)^floor(n/2) of the (even, odd) ordering; S is (d, floor(d/2)).
    They depend on the cutoff only, so each is built once per cutoff.
    """
    left, sigma, right_t = np.linalg.svd(_parity_chain(cutoff), full_matrices=False)
    evens, odds = left.shape[1:]
    sign = (-1.0) ** np.arange(evens)[:, None]
    return tuple(map(_read_only, (left * sign, sigma, right_t.swapaxes(1, 2) * sign[:odds])))


def _sector_beamsplitter(reflectivity: float, cutoff: int) -> np.ndarray:
    """exp(theta (a+ b - a b+)) on (signal, background), one block per N mod d.

    Shape (d, d, d) with d = cutoff + 1. Entry [j, n', n] is
    <n', N - n'| U |n, N - n> for signal numbers n and n' of one sector N with
    N mod d = j: sector j for n <= j and sector j + d for n > j. Entries
    between the two sectors are zero.

    theta = arccos(sqrt(kappa)) sends the signal into the output with
    amplitude sqrt(kappa) and the background with sqrt(1 - kappa).

    The generator links n to n +- 1 only: ordered (even, odd) and with signs
    (-1)^floor(n/2), it is [[0, -B], [B^T, 0]], B = _parity_chain = P S Q^T.
    Its exponential is [[1 - P (1 - cos) P^T, -P sin Q^T], [Q sin P^T,
    1 - Q (1 - cos) Q^T]], cos and sin of theta S, from one reduced SVD: a
    left singular vector beyond Q's has S = 0, where 1 - cos and sin vanish.
    Only cos and sin depend on kappa; P, S and Q come from `_chain_factors`.
    """
    left, sigma, right = _chain_factors(cutoff)
    d, evens, odds = left.shape
    half = 0.5 * math.acos(math.sqrt(reflectivity)) * sigma[:, None, :]
    # 1 - cos(x) = 2 sin(x/2)^2 keeps the diagonal blocks' small terms exact.
    chord = math.sqrt(2.0) * np.sin(half)
    even, odd = left * chord, right * chord
    u = np.empty((d, d, d))
    u[:, 0::2, 0::2] = np.eye(evens) - even @ even.swapaxes(1, 2)
    u[:, 1::2, 1::2] = np.eye(odds) - odd @ odd.swapaxes(1, 2)
    u[:, 1::2, 0::2] = (right * np.sin(2.0 * half)) @ left.swapaxes(1, 2)
    u[:, 0::2, 1::2] = -u[:, 1::2, 0::2].swapaxes(1, 2)
    return u


def _block_layout(cutoff: int):
    """Where each cyclic r - i block sits in the number basis.

    Block K holds the states with r - i = K mod d, d = cutoff + 1; its row p
    is idler number i = p and return number r = (p + K) mod d. Returns the
    idler numbers, shape (1, d), and the return numbers, shape (d, d).
    """
    d = cutoff + 1
    idler = np.arange(d)[None, :]
    return idler, (idler + idler.T) % d


@functools.cache
def _branch_gather(cutoff: int) -> np.ndarray:
    """Flat index into the (d, d, d) beamsplitter of each branch, read-only.

    Entry [K, i, b] points at u[(i + m) mod d, r, i], with return
    r = (i + K) mod d and background input m = (b + K) mod d (see
    `_present_branches`), in the smallest unsigned dtype that holds d^3 - 1.
    It depends on the cutoff only, so it is built once per cutoff.
    """
    d = cutoff + 1
    idler, ret = _block_layout(cutoff)
    i, r, m = idler[:, :, None], ret[:, :, None], ret[:, None, :]
    flat = ((i + m) % d * d + r) * d + i
    return _read_only(flat.astype(np.min_scalar_type(d**3 - 1)))


def _absent_blocks(n_signal: float, n_background: float, cutoff: int) -> np.ndarray:
    """Diagonal of the target-absent state in the cyclic r - i block layout."""
    idler, ret = _block_layout(cutoff)
    background = thermal_weights(n_background, cutoff)
    return background[ret] * thermal_weights(n_signal, cutoff)[idler]


def _present_branches(
    n_signal: float, n_background: float, reflectivity: float, cutoff: int
) -> np.ndarray:
    """Branch stack V of the target-present state, shape (d, d, d), d = cutoff + 1.

    Cyclic block K of the state is V_K V_K^T. Row i of V_K (return
    r = (i + K) mod d) and column b (the traced background output, fed by
    background input m = (b + K) mod d) hold the branch amplitude
    amp[i] sqrt(w[m]) <r, b| U |i, m>, read from sector N = i + m, and 0 unless
    r + b = i + m. At kappa = 0 each V_K is the square root of the diagonal
    target-absent block; at kappa = 1 only block K = 0 is nonzero, with the
    Schmidt amplitudes as its one column.
    """
    if not 0.0 <= reflectivity <= 1.0:
        raise ValueError("reflectivity must lie in [0, 1]")
    _check_dimension(cutoff)
    d = cutoff + 1
    branches = np.zeros((d, d, d))
    if reflectivity == 0.0:
        diag = np.arange(d)
        branches[:, diag, diag] = np.sqrt(_absent_blocks(n_signal, n_background, cutoff))
        return branches
    amp = tmsv_amplitudes(n_signal, cutoff)
    if reflectivity == 1.0:  # the signal returns intact; the background drops out
        branches[0, :, 0] = amp
        return branches
    idler, ret = _block_layout(cutoff)
    w = thermal_weights(n_background / (1.0 - reflectivity), cutoff)
    u = _sector_beamsplitter(reflectivity, cutoff)
    i, m = idler[:, :, None], ret[:, None, :]
    branch = amp[i] * np.sqrt(w[m]) * u.take(_branch_gather(cutoff))
    # Exact zeros by construction, not by how the SVD splits at the zero coupling:
    # r + b == i + m iff row i and column b both wrap mod d or neither does.
    unwrapped = ret >= idler
    return np.where(unwrapped[:, :, None] == unwrapped[:, None, :], branch, 0.0)


def _scatter_blocks(blocks: np.ndarray, cutoff: int) -> np.ndarray:
    """Dense (return, idler) matrix from the cyclic r - i blocks."""
    d = cutoff + 1
    idler, ret = _block_layout(cutoff)
    flat = ret * d + idler
    dense = np.zeros((d * d, d * d))
    dense[flat[:, :, None], flat[:, None, :]] = blocks
    return dense


def target_present_fock(
    n_signal: float, n_background: float, reflectivity: float, cutoff: int
) -> np.ndarray:
    """Target present: signal mixed with background on a beamsplitter.

    The background is taken thermal with n_background / (1 - reflectivity)
    photons before the beamsplitter, so the return mode ends up with variance
    2 kappa n_signal + 2 n_background + 1 like the Gaussian builder. The
    state is built as its r - i blocks and scattered into the dense matrix.
    Mode order of the result is (return, idler).

    reflectivity 1 keeps the signal intact (the background drops out), and
    reflectivity 0 returns the product state, entry for entry.
    """
    if reflectivity == 0.0:
        return target_absent_fock(n_signal, n_background, cutoff)
    branches = _present_branches(n_signal, n_background, reflectivity, cutoff)
    blocks = branches @ branches.transpose(0, 2, 1)
    return _scatter_blocks(blocks, cutoff)


def _eigen_clean(m: np.ndarray):
    vals, vecs = np.linalg.eigh(m)
    scale = max(float(vals[-1]), 1.0)
    if float(vals[0]) < -1e-10 * scale:
        raise ValueError(f"matrix has negative eigenvalue {vals[0]:.3e}")
    return np.clip(vals, 0.0, None), vecs


def trace_power_product(op_a, op_b, s: float) -> float:
    """Tr[a^s b^(1-s)] through the eigenbases of both operators."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie strictly inside (0, 1)")
    a = _operator(op_a)
    b = _operator(op_b)
    if a.shape != b.shape:
        raise ValueError("operators must share a truncation")
    va, ua = _eigen_clean(a)
    vb, ub = _eigen_clean(b)
    overlap_sq = (ua.T @ ub) ** 2
    return float(va**s @ overlap_sq @ vb ** (1.0 - s))


def helstrom_probability(op_a, op_b) -> float:
    """Single-copy minimum error probability (1 - |a - b|_1 / 2) / 2."""
    diff = _operator(op_a) - _operator(op_b)
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
    return 0.5 * (1.0 - 0.5 * trace_norm)


def oracle_tail_budget(
    n_signal: float, n_background: float, reflectivity: float, cutoff: int
) -> dict:
    """Truncation-error allowance for an oracle comparison at this cutoff.

    Sums the analytic tail weights of every input distribution (the
    beamsplitter conserves total photon number, so output leakage is bounded
    by input leakage) and floors the result at 64 eps times the matrix
    dimension to cover plain rounding. Every value is a Python float.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    dim = (cutoff + 1) ** MODE_COUNT
    absent = thermal_tail(n_background, cutoff) + thermal_tail(n_signal, cutoff)
    present = thermal_tail(n_signal, cutoff)  # Schmidt weights are thermal
    if 0.0 < reflectivity < 1.0:
        present += thermal_tail(n_background / (1.0 - reflectivity), cutoff)
    elif reflectivity == 0.0:
        present = absent
    floor = 64.0 * sys.float_info.epsilon * dim
    return {
        "absent_tail": absent,
        "present_tail": present,
        "rounding_floor": floor,
        "budget": max(absent, present, floor),
    }


def oracle_overlap(
    n_signal: float,
    n_background: float,
    reflectivity: float,
    s: float | Sequence[float],
    cutoff: int,
) -> float | list[float]:
    """q(s) for the two-mode detection pair, straight from truncated matrices.

    s is one value or a sequence of values; a scalar gives a float and a
    sequence a list of floats, one per value. The states are built and
    diagonalized once for the whole sequence, and each q(s) is computed the
    same way whatever the sequence holds.

    Refuses a cutoff past the dimension cap before it allocates anything.
    Refuses to answer when the analytic tail budget exceeds 1e-8: a result
    would look precise while silently missing that much weight. Refuses
    reflectivity 1 too: the background input n_background / (1 - kappa) is
    then not finite, so no Fock state matches the Gaussian present state.
    """
    _check_dimension(cutoff)
    s_values = np.atleast_1d(np.asarray(s, dtype=float))
    if s_values.ndim != 1 or not np.all((s_values > 0.0) & (s_values < 1.0)):
        raise ValueError("s must lie strictly inside (0, 1)")
    if reflectivity == 1.0:
        raise ValueError(
            "reflectivity kappa = 1 leaves no finite thermal input "
            "n_background / (1 - kappa); the oracle needs kappa < 1"
        )
    budget = oracle_tail_budget(n_signal, n_background, reflectivity, cutoff)
    tails = max(budget["absent_tail"], budget["present_tail"])
    if tails > TAIL_LIMIT:
        raise TailBudgetError(tails)
    absent = _absent_blocks(n_signal, n_background, cutoff)
    # Block K is V_K V_K^T, so its eigenvalues are the squared singular values
    # of V_K and its eigenvectors the left singular vectors: one batched SVD,
    # nonnegative by construction, and tiny eigenvalues keep their relative
    # precision, which eigh of V V^T loses.
    branches = _present_branches(n_signal, n_background, reflectivity, cutoff)
    left, sigma, _ = np.linalg.svd(branches)
    vals, vecs_sq = sigma**2, left**2
    # Tr[a^s b^(1-s)] with a diagonal: sum over blocks of a^s . |U|^2 . lambda^(1-s).
    q = [
        float(np.sum(np.einsum("kp,kpj->kj", absent**x, vecs_sq) * vals ** (1.0 - x)))
        for x in s_values
    ]
    return q[0] if np.ndim(s) == 0 else q


def quadrature_covariance(op) -> np.ndarray:
    """Covariance matrix of a two-mode operator in the interleaved layout.

    Bridges back to the Gaussian side: entry (j, k) is the symmetrized moment
    <R_j R_k + R_k R_j> / 2 - <R_j><R_k> with R = (x1, p1, x2, p2) and
    vacuum variance 1.
    """
    m = _operator(op)
    d = math.isqrt(m.shape[0])
    if d * d != m.shape[0]:
        raise ValueError("expected a two-mode operator")
    low = np.zeros((d, d))
    n = np.arange(1, d)
    low[n - 1, n] = np.sqrt(n)
    eye = np.eye(d)
    a1 = np.kron(low, eye)
    a2 = np.kron(eye, low)
    quads = [
        a1 + a1.T,
        -1j * (a1 - a1.T),
        a2 + a2.T,
        -1j * (a2 - a2.T),
    ]
    means = [float(np.real(np.trace(m @ r))) for r in quads]
    cov = np.zeros((4, 4))
    for j in range(4):
        for k in range(j, 4):
            sym = 0.5 * (quads[j] @ quads[k] + quads[k] @ quads[j])
            cov[j, k] = cov[k, j] = float(np.real(np.trace(m @ sym))) - means[j] * means[k]
    return cov
