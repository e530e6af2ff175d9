"""Shared builders for randomized covariance tests, and asymptotic reference series."""

import math

import numpy as np

from qillum.states import IlluminationScenario
from qillum.symplectic import symplectic_form


def max_three_mode_correlation_small_asymptotic(n_signal: float) -> float:
    """Leading small-signal series of the maximal three-mode correlation."""
    return math.sqrt(2.0 * n_signal) * (
        1.0 - (2.0 / 3.0) * n_signal**2 + (4.0 / 3.0) * n_signal**3
    )


def max_three_mode_correlation_large_asymptotic(n_signal: float) -> float:
    """Leading large-signal series of the maximal three-mode correlation."""
    return n_signal + 0.5 - n_signal ** -5.0 / 72.0


def rotation_symplectic(n: int, j: int, theta: float) -> np.ndarray:
    s = np.eye(2 * n)
    c, sn = np.cos(theta), np.sin(theta)
    s[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[c, sn], [-sn, c]]
    return s


def squeezer_symplectic(n: int, j: int, r: float) -> np.ndarray:
    s = np.eye(2 * n)
    s[2 * j, 2 * j] = np.exp(r)
    s[2 * j + 1, 2 * j + 1] = np.exp(-r)
    return s


def beamsplitter_symplectic(n: int, j: int, k: int, theta: float) -> np.ndarray:
    s = np.eye(2 * n)
    c, sn = np.cos(theta), np.sin(theta)
    for off in range(2):
        a, b = 2 * j + off, 2 * k + off
        s[a, a] = s[b, b] = c
        s[a, b] = sn
        s[b, a] = -sn
    return s


def random_symplectic(n: int, rng: np.random.Generator) -> np.ndarray:
    """A few alternating layers of rotations, squeezers, and beamsplitters."""
    s = np.eye(2 * n)
    for _ in range(3):
        for j in range(n):
            s = s @ rotation_symplectic(n, j, rng.uniform(0, 2 * np.pi))
            s = s @ squeezer_symplectic(n, j, rng.uniform(-0.8, 0.8))
        for j in range(n):
            for k in range(j + 1, n):
                s = s @ beamsplitter_symplectic(n, j, k, rng.uniform(0, 2 * np.pi))
    return s


def random_cov(n: int, rng: np.random.Generator, nu_lo=1.0, nu_hi=4.0):
    """Random physical covariance with known symplectic spectrum."""
    nus = np.sort(rng.uniform(nu_lo, nu_hi, n))[::-1]
    s = random_symplectic(n, rng)
    m = (s * np.repeat(nus, 2)) @ s.T
    return 0.5 * (m + m.T), nus


def assert_symplectic(s: np.ndarray, tol=1e-9):
    n = s.shape[0] // 2
    omega = symplectic_form(n)
    assert np.max(np.abs(s @ omega @ s.T - omega)) < tol


def box_scenarios(seed: int, count: int):
    """Log-uniform scenarios over the box; every third from the bright corner."""
    rng = np.random.default_rng(seed)
    out = []
    for j in range(count):
        corner = j % 3 == 0
        ns = math.exp(rng.uniform(math.log(1e-4), math.log(1e-2 if corner else 1.0)))
        nb = math.exp(rng.uniform(math.log(1e3 if corner else 1e-2), math.log(1e8)))
        kappa = math.exp(rng.uniform(math.log(1e-4), math.log(1e-2 if corner else 0.5)))
        copies = round(math.exp(rng.uniform(0.0, math.log(1e9))))
        out.append(
            IlluminationScenario(
                n_signal=ns, n_background=nb, reflectivity=kappa, copies=copies
            )
        )
    return out
