"""State builders for Gaussian target detection with an entangled probe.

Three probes are covered: the two-mode squeezed vacuum (signal + one idler),
its symmetric three-mode sibling (signal + two idlers, every pair sharing the
same correlation amplitude) and a coherent state of the same signal energy.
Both hypotheses come from one thermal-loss channel on the signal mode: a
beamsplitter of reflectivity kappa mixes it with bright thermal background,
so "target present" is the probe sent through the channel and "target absent"
is the same channel at kappa = 0, where the return mode is pure background.

Variance conventions follow the symplectic module: a mean photon number n
gives diagonal variance 2n + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _NumpyOnFirstUse
from .symplectic import CovarianceMatrix, GaussianState, WilliamsonDecomposition

np = _NumpyOnFirstUse(globals())

CORRELATION_SLACK = 1e-12
MODELS = ("two-mode", "three-mode", "coherent")
# Idlers kept at home by each entangled probe.
IDLERS = {"three-mode": 2, "two-mode": 1}


class AnalyticDomainError(ValueError):
    """Closed-form factorization entries left their validity domain."""

    def __init__(self, radicand: str, value: float):
        self.radicand = radicand
        self.value = value
        super().__init__(
            f"analytic factorization out of domain: radicand {radicand} = "
            f"{value:.6e} is negative; use the numeric decomposition instead"
        )


@dataclass
class IlluminationScenario:
    """Parameters of one detection run.

    correlation None means "use the maximal correlation of the chosen probe":
    the cubic-root amplitude for the three-mode probe (det V = 1, see
    three_mode_cov for why that probe is not a quantum state), 2*sqrt(nS(nS+1))
    for the two-mode probe. The coherent probe has no correlation.
    """

    n_signal: float
    n_background: float
    reflectivity: float
    copies: int = 1
    correlation: float | None = None

    def __post_init__(self):
        for name in ("n_signal", "n_background", "correlation"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.n_signal < 0 or self.n_background < 0:
            raise ValueError("photon numbers must be nonnegative")
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError("reflectivity must lie in [0, 1]")
        if int(self.copies) != self.copies or self.copies < 1:
            raise ValueError("copies must be a positive integer")
        self.copies = int(self.copies)
        try:  # the bounds take copies * log q in floats
            float(self.copies)
        except OverflowError:
            raise ValueError("copies must be at most the largest float, about 1.8e308") from None
        if self.correlation is not None and self.correlation < 0:
            raise ValueError("correlation amplitude must be nonnegative")

    @property
    def signal_variance(self) -> float:
        return 2.0 * self.n_signal + 1.0

    @property
    def background_variance(self) -> float:
        return 2.0 * self.n_background + 1.0

    @property
    def return_variance(self) -> float:
        return 2.0 * self.reflectivity * self.n_signal + self.background_variance

    def probe_correlation(self, model: str) -> float | None:
        """Correlation amplitude of the model's probe; None for the coherent probe.

        An explicit correlation is checked against the model's maximum.
        """
        if model == "coherent":
            return None
        if model == "three-mode":
            cmax = max_three_mode_correlation(self.n_signal)
        elif model == "two-mode":
            cmax = tmsv_correlation(self.n_signal)
        else:
            raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
        if self.correlation is None:
            return cmax
        if self.correlation > cmax + CORRELATION_SLACK:
            raise ValueError(
                f"correlation {self.correlation:.12g} exceeds the {model} "
                f"maximum {cmax:.12g}"
            )
        return self.correlation


def tmsv_correlation(n_signal: float) -> float:
    """Off-diagonal amplitude 2*sqrt(nS(1+nS)) of the two-mode squeezed vacuum."""
    if n_signal < 0:
        raise ValueError("photon number must be nonnegative")
    product = n_signal * (1.0 + n_signal)
    if not math.isfinite(product):
        raise ValueError(f"n_signal {n_signal:g} overflows the two-mode correlation")
    return 2.0 * math.sqrt(product)


def symmetric_excess(n_signal: float, correlation: float, modes: int) -> np.ndarray:
    """Excess covariance V - I of a symmetric probe of the given mode count.

    2 nS on the diagonal, +c between the x quadratures and -c between the p
    quadratures of every pair of modes: the two-mode squeezed vacuum for two
    modes, the three-mode probe for three.
    """
    m = np.zeros((2 * modes, 2 * modes))
    m[0::2, 0::2] = correlation
    m[1::2, 1::2] = -correlation
    np.fill_diagonal(m, 2.0 * n_signal)
    return m


def tmsv_cov(n_signal: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum covariance; symplectic spectrum is {1, 1}."""
    excess = symmetric_excess(n_signal, tmsv_correlation(n_signal), 2)
    return CovarianceMatrix(excess + np.eye(4))


def max_three_mode_correlation(n_signal: float) -> float:
    """Correlation amplitude where the symmetric three-mode probe has det V = 1.

    c^2 is the root x in (0, S^2/2) of (S^2 - 4x)(S^2 - x)^2 = 1, which in
    v = 2(S^2 - x)/S^2 - 1/2 reads 4v^3 - 3v = 1 + 8/S^6: v = cosh(2 psi/3)
    with psi = asinh(2/S^3), and v = 3/2 at psi0 = asinh 2, so
    x = S^2 sinh((psi0 + psi)/3) sinh((psi0 - psi)/3). This is the paper's (and the
    default) correlation, but not a physical one: the probe is a quantum
    state only for c <= sqrt(nS(1 + nS)), which lies below this root for
    every nS > 0 (see three_mode_cov).
    """
    if n_signal < 0:
        raise ValueError("photon number must be nonnegative")
    s = 2.0 * n_signal + 1.0
    r = 1.0 / s
    r2 = r * r
    r3 = r2 * r
    # psi0 - psi = asinh(2 (1 - r^6) / (sqrt(1 + 4 r^6) + sqrt(5) r^3)), with
    # 1 - r^6 = (1 - r^2)(1 + r^2 + r^4) and 1 - r^2 = 2 nS r (1 + r): nothing
    # cancels near nS = 0, and no power of S overflows at large nS.
    gap = 2.0 * n_signal * r * (1.0 + r) * (1.0 + r2 + r2 * r2)
    delta = math.asinh(2.0 * gap / (math.sqrt(1.0 + 4.0 * r3 * r3) + math.sqrt(5.0) * r3))
    total = math.asinh(2.0) + math.asinh(2.0 * r3)
    return s * math.sqrt(math.sinh(total / 3.0) * math.sinh(delta / 3.0))


def separability_threshold(n_signal: float) -> float:
    """Correlation amplitude below which the three-mode probe is fully separable."""
    ns = n_signal
    if ns < 0:
        raise ValueError("photon number must be nonnegative")
    v = (
        (2.0 + 5.0 * ns + 5.0 * ns * ns)
        - math.sqrt((1.0 + 3.0 * ns) * (2.0 + 3.0 * ns) * (2.0 + ns + ns * ns))
    ) / 2.0
    return math.sqrt(max(v, 0.0))


def three_mode_cov(n_signal: float, correlation: float) -> CovarianceMatrix:
    """Symmetric three-mode probe: diagonal S, +c on every x-x pair, -c on p-p.

    Rejects correlation above the cubic-root maximum, where det V = 1 (plus
    1e-12 slack). Not every accepted correlation gives a quantum state: the
    symplectic spectrum is sqrt(S^2 - 4c^2) once and sqrt(S^2 - c^2) twice, and
    the first falls below 1 once c > sqrt(nS(1 + nS)), which is below the
    maximum for every nS > 0. Use is_physical to tell the two apart.
    """
    if correlation < 0:
        raise ValueError("correlation amplitude must be nonnegative")
    cmax = max_three_mode_correlation(n_signal)
    if correlation > cmax + CORRELATION_SLACK:
        raise ValueError(
            f"correlation {correlation:.12g} exceeds the three-mode maximum "
            f"{cmax:.12g} at n_signal={n_signal:g}"
        )
    return CovarianceMatrix(symmetric_excess(n_signal, correlation, 3) + np.eye(6))


@dataclass
class Probe:
    """A probe before the channel, in photon-number form.

    excess is the covariance minus the vacuum, V - I. coherent_photons is the
    mean photon number of a real displacement of mode 0, the signal mode.
    """

    excess: np.ndarray
    coherent_photons: float = 0.0


def illumination_probe(scenario: IlluminationScenario, model: str) -> Probe:
    """The model's probe at the scenario's signal energy and correlation."""
    correlation = scenario.probe_correlation(model)
    if correlation is None:
        # A coherent state has vacuum noise; its photons are in the displacement.
        return Probe(excess=np.zeros((2, 2)), coherent_photons=scenario.n_signal)
    modes = 1 + IDLERS[model]
    return Probe(excess=symmetric_excess(scenario.n_signal, correlation, modes))


def illuminate(probe: Probe, scenario: IlluminationScenario, reflectivity: float) -> GaussianState:
    """The probe after its mode 0 crossed the scenario's thermal-loss channel.

    A beamsplitter of reflectivity kappa mixes the signal with thermal light
    chosen so that the return mode carries n_background photons besides the
    signal's. In excess form N = V - I this is: the return rows and columns of
    N scale by sqrt(kappa), the return diagonal becomes kappa N_00 plus the
    background variance (which holds the return vacuum), the displacement's
    photon number scales by kappa, and the vacuum is added back elsewhere.
    Nothing divides by 1 - kappa, so kappa = 1 is exact, and kappa = 0 gives
    the target-absent state. The excess form keeps every entry equal, bit for
    bit, to the covariances written out entry by entry.
    """
    kappa = float(reflectivity)
    scale = np.ones(len(probe.excess))
    scale[:2] = np.sqrt(kappa)
    cov = probe.excess * scale[:, None] * scale + np.eye(len(scale))
    cov[0, 0] = cov[1, 1] = kappa * probe.excess[0, 0] + scenario.background_variance
    mean = np.zeros(len(scale))
    mean[0] = 2.0 * np.sqrt(kappa * probe.coherent_photons)
    return GaussianState(cov=CovarianceMatrix(cov), mean=mean)


def illumination_states(
    scenario: IlluminationScenario, model: str = "three-mode"
) -> tuple[GaussianState, GaussianState]:
    """Target-absent then target-present state; each decomposes on first use of `williamson`."""
    probe = illumination_probe(scenario, model)
    return illuminate(probe, scenario, 0.0), illuminate(probe, scenario, scenario.reflectivity)


# Library and test API; commands call illuminate, as illumination_states does.
def target_absent_cov(scenario: IlluminationScenario) -> CovarianceMatrix:
    """Three-mode "no target": thermal return, untouched idler pair.

    Mode order (return, idler1, idler2). Independent of the reflectivity.
    """
    return illuminate(illumination_probe(scenario, "three-mode"), scenario, 0.0).cov


def target_present_cov(scenario: IlluminationScenario) -> CovarianceMatrix:
    """Three-mode "target": the return carries sqrt(kappa)-attenuated signal correlations."""
    probe = illumination_probe(scenario, "three-mode")
    return illuminate(probe, scenario, scenario.reflectivity).cov


def two_mode_target_absent_cov(scenario: IlluminationScenario) -> CovarianceMatrix:
    """Two-mode analog of target_absent_cov: thermal return, thermal idler."""
    return illuminate(illumination_probe(scenario, "two-mode"), scenario, 0.0).cov


def two_mode_target_present_cov(scenario: IlluminationScenario) -> CovarianceMatrix:
    """Two-mode analog of target_present_cov."""
    probe = illumination_probe(scenario, "two-mode")
    return illuminate(probe, scenario, scenario.reflectivity).cov


def _block_sorted(symplectic: np.ndarray, nus: np.ndarray) -> WilliamsonDecomposition:
    """Permute 2x2 column blocks so the eigenvalue list is descending."""
    order = np.argsort(-nus, kind="stable")
    cols = (2 * order[:, None] + [0, 1]).ravel()
    return WilliamsonDecomposition(symplectic=symplectic[:, cols], nu=nus[order])


def target_absent_williamson(scenario: IlluminationScenario) -> WilliamsonDecomposition:
    """Closed-form decomposition of the target-absent covariance.

    The idler pair diagonalizes by a balanced two-mode squeezer built from
    z = ((S-c)/(S+c))^(1/4); the return mode is already thermal. Valid for
    c < S, which every admissible scenario satisfies with room to spare.

    Library API only: no printed number uses it (every bound takes
    williamson_decompose). Acceptance criterion 7 checks it against the
    numeric decomposition.
    """
    s = scenario.signal_variance
    b = scenario.background_variance
    c = scenario.probe_correlation("three-mode")
    if c >= s:
        raise AnalyticDomainError("(S - c)/(S + c)", (s - c) / (s + c))
    z = ((s - c) / (s + c)) ** 0.25
    inv = 1.0 / z
    rt2 = math.sqrt(2.0)
    z1 = np.diag([inv, z]) / rt2
    z2 = np.diag([z, inv]) / rt2
    sm = np.zeros((6, 6))
    sm[0:2, 0:2] = np.eye(2)
    sm[2:4, 2:4] = z1
    sm[2:4, 4:6] = -z2
    sm[4:6, 2:4] = z1
    sm[4:6, 4:6] = z2
    beta1 = math.sqrt(s * s - c * c)
    return _block_sorted(sm, np.array([b, beta1, beta1]))


@dataclass
class PresentStateFactorization:
    """Closed-form symplectic data for the target-present covariance.

    Carries the three symplectic eigenvalues (beta1 for the decoupled idler
    combination, beta_plus/beta_minus for the return-coupled pair), the
    discriminant xi, the four mu auxiliaries, and the scalar block entries of
    the assembled symplectic matrix. The mu pair identities are checked on
    construction; the products mu2_plus * mu2_minus cancel catastrophically in
    the naive form, so the builder uses conjugate expressions throughout.
    Library API only; target_present_factorization says where it breaks down.
    """

    beta1: float
    beta_plus: float
    beta_minus: float
    xi: float
    mu1_plus: float
    mu1_minus: float
    mu2_plus: float
    mu2_minus: float
    blocks: dict
    return_variance: float
    signal_variance: float
    correlation: float
    reflectivity: float

    def __post_init__(self):
        res = self.identity_residuals()
        for name in ("difference", "product"):
            if abs(res[name]) > 1e-10:
                raise ValueError(
                    f"mu identity '{name}' violated (relative residual {res[name]:.3e})"
                )

    def identity_residuals(self) -> dict:
        """Relative residuals of the four mu identities."""
        a = self.return_variance
        s = self.signal_variance
        c = self.correlation
        kap = self.reflectivity
        target = 8.0 * kap * c * c * (a - s + c) * (a - s - c)
        out = {
            "difference": (self.mu2_plus - self.mu2_minus - 2.0 * self.xi)
            / (2.0 * self.xi),
        }
        out["product"] = (
            (self.mu2_plus * self.mu2_minus - target) / target if target != 0 else 0.0
        )
        rhs3 = 2.0 * (a - s - c) * (
            a * self.mu2_plus - 4.0 * kap * c * c * (a - s + c)
        )
        rhs4 = -2.0 * (a - s + c) * (
            a * self.mu2_minus - 4.0 * kap * c * c * (a - s - c)
        )
        out["cross_plus"] = (
            (self.mu1_plus * self.mu2_plus - rhs3) / rhs3 if rhs3 != 0 else 0.0
        )
        out["cross_minus"] = (
            (self.mu1_minus * self.mu2_minus - rhs4) / rhs4 if rhs4 != 0 else 0.0
        )
        return out

    def williamson(self) -> WilliamsonDecomposition:
        """Assemble the symplectic matrix and sort its blocks descending."""
        bl = self.blocks
        rt2 = math.sqrt(2.0)
        z2 = np.diag([bl["z"], 1.0 / bl["z"]]) / rt2
        x1 = np.diag([bl["x_plus"], bl["y_plus"]])
        x2 = np.diag([bl["y_minus"], bl["x_minus"]])
        y1 = np.diag([bl["u_plus"], bl["v_plus"]])
        y2 = np.diag([bl["v_minus"], bl["u_minus"]])
        sm = np.zeros((6, 6))
        sm[0:2, 2:4] = x1
        sm[0:2, 4:6] = x2
        sm[2:4, 0:2] = z2
        sm[2:4, 2:4] = y1
        sm[2:4, 4:6] = y2
        sm[4:6, 0:2] = -z2
        sm[4:6, 2:4] = y1
        sm[4:6, 4:6] = y2
        return _block_sorted(sm, np.array([self.beta1, self.beta_plus, self.beta_minus]))


def _radicand(name: str, value: float, scale: float) -> float:
    if value < 0.0:
        if value < -1e-10 * max(scale, 1.0):
            raise AnalyticDomainError(name, value)
        return 0.0
    return value


def target_present_factorization(
    scenario: IlluminationScenario,
) -> PresentStateFactorization:
    """Closed-form Williamson data for the target-present covariance.

    Valid when the background dominates the probe (A > S + c and friends);
    outside that region the block entries turn complex and an
    AnalyticDomainError names the first offending radicand. The numeric
    decomposition has no such restriction.

    Library API only: no printed number uses it, and acceptance criterion 7
    checks it against williamson_decompose at n_b <= 200. It breaks down in
    the bright background: beta_minus^2 = (common - xi) / 2 subtracts two
    numbers of size A^2, so it carries an absolute error of about eps A^2.
    At n_s = kappa = 0.01 the per-copy exponent built on it is 194 times too
    large at n_b = 1e6 and 1.6e8 times at n_b = 1e7.
    """
    s = scenario.signal_variance
    a = scenario.return_variance
    kap = scenario.reflectivity
    c = scenario.probe_correlation("three-mode")

    if c >= s:
        raise AnalyticDomainError("(S - c)/(S + c)", (s - c) / (s + c))
    dmc = a - s - c
    dpc = a - s + c
    if dmc <= 0 or dpc <= 0:
        raise AnalyticDomainError("A - S - c", dmc if dmc <= 0 else dpc)

    # Conjugate forms: p - xi cancels badly, t / (p + xi) does not.
    p = a * a - s * s + c * c
    t = 8.0 * kap * c * c * dpc * dmc
    if p <= 0:
        raise AnalyticDomainError("A^2 - S^2 + c^2", p)
    xi = p * math.sqrt(_radicand("xi^2", 1.0 - t / (p * p), 1.0))
    if xi == 0:
        raise AnalyticDomainError("xi", 0.0)
    mu2p = p + xi
    mu2m = t / mu2p
    mu1p = (xi - 2.0 * a * c) + ((a - s) ** 2 - c * c)
    mu1m = (xi - 2.0 * a * c) - ((a - s) ** 2 - c * c)

    common = a * a + s * s - (1.0 + 4.0 * kap) * c * c
    scale = a * a + s * s
    bp = math.sqrt(_radicand("beta_plus^2", 0.5 * (common + xi), scale))
    bm = math.sqrt(_radicand("beta_minus^2", 0.5 * (common - xi), scale))
    beta1 = math.sqrt(s * s - c * c)
    if bp == 0 or bm == 0:
        raise AnalyticDomainError("beta", 0.0)
    if mu1p == 0 or mu1m == 0:
        raise AnalyticDomainError("mu1", 0.0)

    mu_scale = max(abs(mu1p), abs(mu1m), mu2p, 1.0) ** 2
    xp = 0.5 * math.sqrt(_radicand("x_plus^2", mu1p * mu2p / (dmc * xi * bp), mu_scale))
    xm = -0.5 * math.sqrt(
        _radicand("x_minus^2", mu1m * mu2m / (dpc * xi * bm), mu_scale)
    )
    yp = math.sqrt(_radicand("y_plus^2", dmc * mu2p * bp / (mu1p * xi), mu_scale))
    ym = math.sqrt(_radicand("y_minus^2", dpc * mu2m * bm / (mu1m * xi), mu_scale))
    up = math.sqrt(
        _radicand("u_plus^2", mu1p * mu2m / (8.0 * dpc * xi * bp), mu_scale)
    )
    um = math.sqrt(
        _radicand("u_minus^2", mu1m * mu2p / (8.0 * dmc * xi * bm), mu_scale)
    )
    vp = -math.sqrt(
        _radicand("v_plus^2", dpc * mu2m * bp / (2.0 * mu1p * xi), mu_scale)
    )
    vm = math.sqrt(
        _radicand("v_minus^2", dmc * mu2p * bm / (2.0 * mu1m * xi), mu_scale)
    )
    z = ((s - c) / (s + c)) ** 0.25

    return PresentStateFactorization(
        beta1=beta1,
        beta_plus=bp,
        beta_minus=bm,
        xi=xi,
        mu1_plus=mu1p,
        mu1_minus=mu1m,
        mu2_plus=mu2p,
        mu2_minus=mu2m,
        blocks={
            "x_plus": xp,
            "x_minus": xm,
            "y_plus": yp,
            "y_minus": ym,
            "u_plus": up,
            "u_minus": um,
            "v_plus": vp,
            "v_minus": vm,
            "z": z,
        },
        return_variance=a,
        signal_variance=s,
        correlation=c,
        reflectivity=kap,
    )
