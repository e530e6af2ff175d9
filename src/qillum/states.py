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
from dataclasses import dataclass, replace

from . import _NumpyOnFirstUse
from .symplectic import CovarianceMatrix, GaussianState, WilliamsonDecomposition

np = _NumpyOnFirstUse(globals())

CORRELATION_SLACK = 1e-12
MODELS = ("two-mode", "three-mode", "coherent")
# Idlers kept at home by each entangled probe.
IDLERS = {"three-mode": 2, "two-mode": 1}


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


def _eigenvectors(x1, x2, h1, h2, spread, cx, cp) -> tuple:
    """e21, e12, n1^2 - 1 and n2^2 - 1 of one quadrature's present symplectic."""
    if spread == 0.0:  # degenerate and uncorrelated: no rotation
        return 0.0, 0.0, 0.0, 0.0
    e21, e12 = 2.0 * (x1 * cx - x2 * cp) / spread, 2.0 * (x1 * cp - x2 * cx) / spread
    n1 = (h1 + 2.0 * cp * e21 - x2 * e21 * e21) / (x1 - 2.0 * cp * e21 + x2 * e21 * e21)
    n2 = (h2 + 2.0 * cp * e12 - x1 * e12 * e12) / (x2 - 2.0 * cp * e12 + x1 * e12 * e12)
    return e21, e12, n1, n2


def three_mode_reduction(a: float, signal: float, a1: float, c: float, c1: float) -> tuple:
    """The three-mode pair reduced to two modes whose x and p blocks decouple.

    Absent return a, present a', probe S and c, c' = sqrt(kappa) c. A 50:50
    beamsplitter on the idlers leaves the antisymmetric idler, x and p
    variances S -+ c, uncoupled and the same under both hypotheses, so it
    drops out of q. Its nu = b = sqrt((S - c)(S + c)) is at least 1 for every
    c up to the det V = 1 maximum. A local squeeze makes the symmetric idler
    diag(b, b). Absent is then diag(a, b); present has x block [[a', cx],
    [cx, b]] and p block [[a', -cp], [-cp, b]], cx^2 = 2c'^2 (S - c)/b and
    cp^2 = 2c'^2 (S + c)/b. The brighter present mode comes first (diagonals
    x1 >= x2), so u = x1^2 - x2^2 >= 0. With k = cx cp, g = x1 x2 (cx - cp)^2
    and d = x1 - x2, the discriminant of nu^2 is D = d^2 (d^2 + 4(x1 x2 - k))
    + 4g, a sum of nonnegative terms, and nu1^2 - x1^2 = 2(g - 2 x1 k d -
    k^2)/(sqrt(D) + u + 2k), nu2^2 - x2^2 = -2(g + 2 x2 k d - k^2)/(u - 2k +
    sqrt(D)) (or (u - 2k - sqrt(D))/2 for u <= 2k): no nu is subtracted from
    its x, and each mode's shift is h = (nu^2 - x^2)/(nu + x). All this is in
    units of a power of 2 near x1, so no square overflows. The present
    symplectic has columns n1 (1, e21) and n2 (e12, 1) in x and is their
    inverse transpose in p, which is the x form with cx, cp read as -cp, -cx.

    Returns b, the two modes' (absent, present) diagonals brighter first,
    their present nu and shifts h, and each quadrature's (e21, e12, n1^2 - 1,
    n2^2 - 1), x then p.
    """
    b = math.sqrt(signal - c) * math.sqrt(signal + c)
    first, second = ((a, a1), (b, b)) if a1 >= b else ((b, b), (a, a1))
    scale = math.ldexp(1.0, math.frexp(max(a1, b))[1])  # exact divisions below
    x1, x2 = first[1] / scale, second[1] / scale
    cx = c1 / scale * math.sqrt(2.0 * (signal - c) / b)
    cp = c1 / scale * math.sqrt(2.0 * (signal + c) / b)
    k, d, g = cx * cp, x1 - x2, x1 * x2 * (cx - cp) * (cx - cp)
    u = d * (x1 + x2)
    root = math.sqrt(max(d * d * (d * d + 4.0 * (x1 * x2 - k)) + 4.0 * g, 0.0))
    d1 = g - 2.0 * x1 * k * d - k * k
    d1 = 2.0 * d1 / (root + u + 2.0 * k) if d1 else 0.0  # 0/0 only when uncorrelated
    if u - 2.0 * k > 0.0:
        d2 = -2.0 * (g + 2.0 * x2 * k * d - k * k) / (u - 2.0 * k + root)
    else:
        d2 = 0.5 * (u - 2.0 * k - root)
    nu1 = x1 * math.sqrt(max(1.0 + d1 / x1 / x1, 0.0))  # no x^2 to underflow
    nu2 = x2 * math.sqrt(max(1.0 + d2 / x2 / x2, 0.0))
    h1, h2 = d1 / (nu1 + x1), d2 / (nu2 + x2)
    quadratures = [_eigenvectors(x1, x2, h1, h2, u + root, *cs) for cs in ((cx, cp), (-cp, -cx))]
    return b, (first, second), (nu1 * scale, nu2 * scale), (h1 * scale, h2 * scale), quadratures


@dataclass
class PresentStateFactorization:
    """Williamson data of a three-mode hypothesis state, from its three_mode_reduction.

    Library API only: no printed number uses it, and acceptance criterion 7
    checks it against williamson_decompose. The reduction's arithmetic is the
    one that prints every three-mode bound, so at n_s = kappa = 0.01 its nu
    keep their relative digits up to n_b = 1e8, where the numeric
    decomposition loses them to eps n_b.
    """

    scenario: IlluminationScenario

    def williamson(self) -> WilliamsonDecomposition:
        """Undo the idler squeeze and beamsplitter on the reduced pair's symplectic, then sort."""
        scn = self.scenario
        s, a, a1 = scn.signal_variance, scn.background_variance, scn.return_variance
        c = scn.probe_correlation("three-mode")
        c1 = math.sqrt(scn.reflectivity) * c
        b, _, nus, _, quadratures = three_mode_reduction(a, s, a1, c, c1)
        sm = np.zeros((6, 6))
        for q, (e21, e12, n1, n2) in enumerate(quadratures):
            n1, n2 = math.sqrt(1.0 + n1), math.sqrt(1.0 + n2)
            sm[q:4:2, q:4:2] = [[n1, n2 * e12], [n1 * e21, n2]]
        if a1 < b:  # the symmetric idler came first
            sm[:4] = sm[[2, 3, 0, 1]]
        z = math.sqrt((s - c) / b)  # the symmetric idler's x squeeze
        sm[2:4] *= [[1.0 / z], [z]]
        sm[4:, 4:] = np.diag([z, math.sqrt((s + c) / b)])  # the antisymmetric idler
        sm[2:] = math.sqrt(0.5) * (np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(2)) @ sm[2:])
        nus = np.array([*nus, b])
        order = np.argsort(-nus, kind="stable")
        cols = (2 * order[:, None] + [0, 1]).ravel()
        return WilliamsonDecomposition(symplectic=sm[:, cols], nu=nus[order])


def target_present_factorization(scenario: IlluminationScenario) -> PresentStateFactorization:
    """Closed-form Williamson data for the three-mode target-present covariance."""
    return PresentStateFactorization(scenario)


def target_absent_williamson(scenario: IlluminationScenario) -> WilliamsonDecomposition:
    """Closed-form decomposition of the three-mode target-absent covariance: kappa = 0."""
    return PresentStateFactorization(replace(scenario, reflectivity=0.0)).williamson()
