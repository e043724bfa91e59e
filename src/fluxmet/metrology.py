"""Fisher-information and state-distance computations.

Four independent routes to the same quantities are exposed and cross-checked
against each other in the test suite:

1. closed-form scalar expressions (``*_closed`` functions),
2. the symmetric logarithmic derivative route ``qfi_sld``,
3. the fidelity finite-difference route ``qfi_fidelity_fd``,
4. classical Fisher information of explicit measurements (``cfi``).

Scalar helpers with removable singularities at zero detuning are evaluated
by series below a crossover argument; the series are carried to enough
orders that both branches agree to machine precision at the crossover.
Each entry point names all its reals in one ``dynamics._check_domain`` call, which bounds each by its name:
t and gamma >= 0, a finite difference's step delta > 0 (whose square must also be finite), and any other
name finite only; ``Coherence.p_plus`` checks none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import _check_domain, _finite, sample_phases
from .errors import DimensionError, DomainError, NonHermitianError, NumericError
from .qmat import check_density_matrix, hermitian_eig, sqrtm_psd

# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FisherResult:
    """A Fisher information value: finite, with tiny negatives clamped to 0."""

    value: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise NumericError(f"Fisher information is not finite: {self.value!r}")
        if self.value < 0:
            if self.value < -1e-10:
                raise NumericError(f"Fisher information is negative: {self.value!r}")
            object.__setattr__(self, "value", 0.0)


@dataclass(frozen=True)
class MeasurementDistribution:
    """Labelled outcome probabilities; must sum to one."""

    outcomes: list[tuple[str, float]]

    def __post_init__(self) -> None:
        if not all(_finite(p) and p >= -1e-12 for _, p in self.outcomes):
            raise DomainError(f"negative or non-finite probability in {self.outcomes!r}")
        probs = np.array([p for _, p in self.outcomes], dtype=float)
        if not abs(probs.sum() - 1.0) <= 1e-12:
            raise DomainError(f"probabilities sum to {probs.sum()!r}, expected 1")

    def probability(self, label: str) -> float:
        for lab, p in self.outcomes:
            if lab == label:
                return p
        raise KeyError(label)


# ---------------------------------------------------------------------------
# Smooth small-argument helpers (series below _CROSSOVER, direct above)
# ---------------------------------------------------------------------------

_CROSSOVER = 0.1
_CFI_STEP = 1e-5  # central-difference step of cfi
_TRAJECTORY_STEP = 1e-4  # central-difference step in B of cfi_trajectory_B
_TINY = np.finfo(float).tiny  # a smaller decay is zero or subnormal


def _branch(z, series, direct):
    """series(z) where |z| < _CROSSOVER, direct(z) elsewhere, each on its own cells only."""
    za = np.asarray(z, dtype=float)
    small = np.abs(za) < _CROSSOVER
    if small.all() or not small.any():
        out = (series if small.all() else direct)(za)
    else:
        out = np.empty_like(za)
        out[small] = series(za[small])
        out[~small] = direct(za[~small])
    return float(out) if np.ndim(z) == 0 else out


def _f1(z):
    """(1 - cos z) / z^2, regular at 0 (value 1/2).  Elementwise."""
    return _branch(
        z,
        lambda z: 0.5 - (z2 := z**2) / 24 + z2 * z2 / 720 - z2 * z2 * z2 / 40320,
        lambda z: (1.0 - np.cos(z)) / (z * z),
    )


def _g1(w):
    """1 - sin(w)/w, regular at 0 (value 0).  Elementwise."""
    return _branch(
        w,
        lambda w: (w2 := w**2) / 6 - (w4 := w2 * w2) / 120 + w4 * w2 / 5040 - w4 * w2 * w2 / 362880,
        lambda w: 1.0 - np.sin(w) / w,
    )


def _h1(z):
    """sin(z)/z - (1 - cos z)/z^2, regular at 0 (value 1/2).  Elementwise."""
    return _branch(
        z,
        lambda z: 0.5 - (z2 := z**2) / 8 + z2 * z2 / 144 - z2 * z2 * z2 / 5760,
        lambda z: np.sin(z) / z - (1.0 - np.cos(z)) / (z * z),
    )


def _h2(w):
    """(sin w - w cos w) / w^2, regular at 0 (value 0).  Elementwise."""
    return _branch(
        w,
        lambda w: w / 3 - w * (w2 := w * w) / 30 + w * w2 * w2 / 840 - w * w2 * w2 * w2 / 45360,
        lambda w: (np.sin(w) - w * np.cos(w)) / (w * w),
    )


# ---------------------------------------------------------------------------
# State distances
# ---------------------------------------------------------------------------


def fidelity(r1: np.ndarray, r2: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(r1) r2 sqrt(r1)) of two states."""
    r1 = check_density_matrix(r1)
    r2 = check_density_matrix(r2)
    if r1.shape != r2.shape:
        raise DimensionError(f"dimension mismatch: {r1.shape} vs {r2.shape}")
    s = sqrtm_psd(r1)
    inner = s @ r2 @ s
    w = hermitian_eig(0.5 * (inner + inner.conj().T))[0]
    # Rank-deficient inputs leave O(eps) noise eigenvalues that enter the
    # trace as sqrt(eps); a relative floor keeps the result exact there.
    keep = w > 1e-12 * max(w[-1], 0.0)
    return float(np.sum(np.sqrt(w[keep])))


def fidelity_qubit(r1: np.ndarray, r2: np.ndarray) -> float:
    """Qubit decomposition Tr(r1 r2) + 2 sqrt(det r1 det r2).

    Note this equals ``fidelity(r1, r2)**2`` (the squared fidelity), which is
    what the two-determinant decomposition actually produces for qubits.
    """
    r1 = check_density_matrix(r1)
    r2 = check_density_matrix(r2)
    if r1.shape != (2, 2) or r2.shape != (2, 2):
        raise DimensionError("fidelity_qubit expects 2x2 states")
    dets = max(np.linalg.det(r1).real, 0.0) * max(np.linalg.det(r2).real, 0.0)
    return float(np.trace(r1 @ r2).real + 2.0 * np.sqrt(dets))


# ---------------------------------------------------------------------------
# SLD and finite-difference routes
# ---------------------------------------------------------------------------


def sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative L solving drho = (L rho + rho L)/2: in the eigenbasis of ``rho``,
    L_ij = 2 drho_ij / (lam_i + lam_j) on pairs whose lam_i + lam_j is above the cut, 1e-12 times the largest
    eigenvalue, and 0 on the others."""
    return _sld(rho, drho, 0.0)


def _sld(rho: np.ndarray, drho: np.ndarray, floor: float) -> np.ndarray:
    """:func:`sld` with its cut raised to at least ``floor``, where :func:`qfi_sld_numeric` sets it."""
    drho = np.asarray(drho, dtype=complex)
    if np.max(np.abs(drho - drho.conj().T)) > 1e-8:
        raise NonHermitianError("drho must be Hermitian")
    if abs(np.trace(drho)) > 1e-8:
        raise DomainError(f"drho must be traceless, got trace {np.trace(drho)!r}")
    w, v = hermitian_eig(rho)
    kernel_tol = max(floor, 1e-12 * max(w[-1], 0.0))
    dr = v.conj().T @ drho @ v
    denom = w[:, None] + w[None, :]
    ell = np.where(denom > kernel_tol, 2.0 * dr / np.where(denom > kernel_tol, denom, 1.0), 0.0)
    out = v @ ell @ v.conj().T
    return 0.5 * (out + out.conj().T)


def qfi_sld(rho: np.ndarray, drho: np.ndarray) -> FisherResult:
    """Quantum Fisher information Tr(rho L^2) via the SLD."""
    ell = sld(rho, drho)
    return FisherResult(float(np.trace(rho @ ell @ ell).real))


def _check_step(delta: float) -> None:
    """A finite difference's step: > 0 and finite by its name, and with a finite square as a float."""
    _check_domain(delta=delta)
    if not float(delta) * float(delta) < np.inf:  # an int's square is exact, a float64's warns as it overflows
        raise DomainError(f"delta must be positive with a finite square, got {delta}")


def qfi_sld_numeric(state_map, x: float, delta: float = 1e-4) -> FisherResult:
    """SLD-route QFI of a state family, with drho by central differences.

    The differences at steps ``delta`` and ``delta/2`` must agree to 1e-6
    relative (floored at an absolute 1e-6); drho is their Richardson
    combination.  The family is evaluated once at each of its five points.

    Where the family loses rank the bare SLD value is discontinuous in x; the
    Bures limit is restored by the curvature of the vanishing eigenvalues, so
    2 * d^2/dx^2 (sum of vanishing eigenvalues) is added at such points.  An
    eigenvalue branch counts as vanishing when its value at x is dominated by
    its values at x +- delta (the signature of a quadratic zero, possibly on
    top of an integration-noise floor) or sits at solver noise; those
    directions are excluded from the bare SLD so their spurious radial terms
    do not double-count.  Families of constant rank are unaffected.
    """
    _check_step(delta)
    rho, rho_p, rho_m = state_map(x), state_map(x + delta), state_map(x - delta)
    d1 = (rho_p - rho_m) / (2 * delta)
    d2 = (state_map(x + delta / 2) - state_map(x - delta / 2)) / delta
    scale = max(float(np.max(np.abs(d2))), 1.0)
    if np.max(np.abs(d1 - d2)) > 1e-6 * scale:
        raise NumericError(
            "finite-difference derivative not converged: "
            f"steps {delta} and {delta / 2} differ by {np.max(np.abs(d1 - d2)):.3e}"
        )
    drho = (4.0 * d2 - d1) / 3.0
    drho = 0.5 * (drho + drho.conj().T)
    w0 = hermitian_eig(rho)[0]
    wp = hermitian_eig(rho_p)[0]
    wm = hermitian_eig(rho_m)[0]
    lam_max = max(w0[-1], 0.0)
    k = 0
    while k < w0.size - 1 and (
        w0[k] <= 0.25 * max(wp[k], wm[k]) or w0[k] <= 1e-12 * lam_max
    ):
        k += 1
    if k == 0:
        return qfi_sld(rho, drho)
    # Midpoint between the largest vanishing pair sum and the smallest
    # vanishing+support pair sum: zeroes kernel blocks, keeps cross terms.
    ell = _sld(rho, drho, 1.5 * w0[k - 1] + 0.5 * w0[k])
    base = FisherResult(float(np.trace(rho @ ell @ ell).real))
    # A branch still at round-off at x +- delta (the kernel of a pure family)
    # has no curvature to measure.
    bent = np.flatnonzero(np.maximum(wp[:k], wm[:k]) > 1e-14 * lam_max)
    curv = (np.sum(wp[bent]) + np.sum(wm[bent]) - 2.0 * np.sum(w0[bent])) / delta**2
    # Eigenvalue curvature at an interior zero of a nonnegative spectrum
    # cannot be negative; a negative estimate is eigensolver noise.
    return FisherResult(base.value + max(2.0 * curv, 0.0))


def qfi_fidelity_fd(state_map, x: float, delta: float = 1e-3) -> FisherResult:
    """QFI from the infinitesimal Bures distance: 8 (1 - F(rho_x, rho_x+d))/d^2."""
    _check_step(delta)
    f = fidelity(state_map(x), state_map(x + delta))
    if f > 1 + 1e-8:
        raise NumericError(f"fidelity {f!r} exceeds 1 beyond tolerance")
    value = 8.0 * (1.0 - f) / delta**2
    return FisherResult(value)


def cfi(dist_map, x: float) -> FisherResult:
    """Classical Fisher information sum_i (d p_i / dx)^2 / p_i of a measurement.

    Probabilities below 1e-14 at the working point are skipped (their
    outcomes carry no weight); derivatives are central differences.
    """
    _check_domain(x=x)
    center = dist_map(x)
    plus = dict(dist_map(x + _CFI_STEP).outcomes)
    minus = dict(dist_map(x - _CFI_STEP).outcomes)
    value = 0.0
    for label, p in center.outcomes:
        if p < 1e-14:
            continue
        dp = (plus[label] - minus[label]) / (2 * _CFI_STEP)
        value += dp * dp / p
    return FisherResult(value)


def cfi_trajectory_B(
    B: float,
    gamma: float,
    t: float,
    beta: float,
    n: int,
    rng: np.random.Generator,
) -> FisherResult:
    """Monte-Carlo classical Fisher information for field estimation.

    Estimates the averaged outcome probability p1(B') = E[cos^2(B' t + phi +
    beta)] at B' = B and B +- a fixed step with common noise draws phi, so the
    finite-difference derivative is free of Monte-Carlo shot noise.  The
    draws, and the refusal of t, gamma or n, are ``dynamics.sample_phases``'s.
    """
    _check_domain(B=B, beta=beta)
    phi = sample_phases(0.0, gamma, t, n, rng)

    def p1(b: float) -> float:
        return float(np.mean(np.cos(b * t + phi + beta) ** 2))

    p = p1(B)
    dp = (p1(B + _TRAJECTORY_STEP) - p1(B - _TRAJECTORY_STEP)) / (2 * _TRAJECTORY_STEP)
    if p < 1e-14 or p > 1 - 1e-14:
        raise NumericError(f"outcome probability {p!r} is degenerate")
    value = dp * dp / (p * (1 - p))
    return FisherResult(value)


# ---------------------------------------------------------------------------
# Measurement distributions with closed-form probabilities
# ---------------------------------------------------------------------------


def bell_basis_distribution_theta_free(B: float, gamma: float, t: float, theta: float) -> MeasurementDistribution:
    """Bell-basis outcome probabilities for the freely evolved theta probe."""
    _check_domain(t=t, gamma=gamma, B=B, theta=theta)
    eta_c = np.exp(-2 * gamma * t) * np.cos(2 * B * t)
    return MeasurementDistribution(
        outcomes=[
            ("phi+", 0.5 * (1 + eta_c)),
            ("phi-", 0.5 * np.sin(theta) ** 2 * (1 - eta_c)),
            ("psi+", 0.5 * np.cos(theta) ** 2 * (1 - eta_c)),
            ("psi-", 0.0),
        ]
    )


def trajectory_distribution_B(B: float, gamma: float, t: float, beta: float) -> MeasurementDistribution:
    """Phase-averaged two-outcome distribution for field estimation."""
    _check_domain(t=t, gamma=gamma, B=B, beta=beta)
    p1 = 0.5 * (1 + np.exp(-2 * gamma * t) * np.cos(2 * B * t + 2 * beta))
    return MeasurementDistribution(outcomes=[("+", p1), ("-", 1 - p1)])


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coherence:
    """A corrected family as a code-space qubit with coherence exp(-(decay + i phase)).

    ``at(B, gamma, d, t)`` is (phase, decay) at detuning d from the code's
    estimate and ``deriv`` their d-derivatives; p(+) takes ``at`` alone.
    ``information(B, gamma, t)`` is the QFI at d = 0, whose gamma part is
    the d -> 0 limit of the noise term ddecay^2 / expm1(2 decay).
    """

    at: Callable[..., tuple]
    deriv: Callable[..., tuple]
    information: Callable[[float, float, float], float]

    def _checked_at(self, B: float, gamma: float, d: float, t: float) -> tuple:
        """``at`` once t and gamma are >= 0 and finite and B and d are finite (``p_plus`` checks none)."""
        _check_domain(t=t, gamma=gamma, B=B, detuning=d)
        return self.at(B, gamma, d, t)

    def p_plus(self, x, x_hat, B: float, gamma: float, t: float):
        """Code-basis outcome probability (1 + e^-decay cos phase)/2, elementwise."""
        phase, decay = self.at(B, gamma, x - x_hat, t)
        return 0.5 * (1.0 + np.exp(-decay) * np.cos(phase))

    def qfi(self, B: float, gamma: float, t: float, d: float = 0.0) -> FisherResult:
        """QFI dphase^2 e^(-2 decay) + ddecay^2 / expm1(2 decay) at detuning d;
        where the decay is zero or subnormal the noise term is its d -> 0 limit."""
        decay = self._checked_at(B, gamma, d, t)[1]
        dphase, ddecay = self.deriv(B, gamma, d, t)
        if decay > _TINY:
            noise = ddecay * ddecay / np.expm1(2 * decay)
        else:
            noise = self.information(0.0, gamma, t)
        return FisherResult(dphase * dphase * np.exp(-2 * decay) + noise)

    def cfi(self, B: float, gamma: float, t: float, d: float = 0.0) -> FisherResult:
        """CFI of the code-basis measurement at detuning d: with E = e^-decay,
        E^2 (ddecay cos phase + dphase sin phase)^2 / (1 - E^2 cos^2 phase).
        Without decay the measurement is optimal and this is the QFI."""
        phase, decay = self._checked_at(B, gamma, d, t)
        if not decay > _TINY:
            return self.qfi(B, gamma, t, d)
        dphase, ddecay = self.deriv(B, gamma, d, t)
        num = np.exp(-2 * decay) * (ddecay * np.cos(phase) + dphase * np.sin(phase)) ** 2
        # 1 - E^2 cos^2 phase, written cancellation-free.
        den = np.sin(phase) ** 2 - np.cos(phase) ** 2 * np.expm1(-2 * decay)
        return FisherResult(num / den)


def _theta_at(B: float, gamma: float, d, t: float):
    s = np.sin(d)
    return 2.0 * B * t * s, 2.0 * t * gamma * s * s  # one sine; campaign bytes pin this order


THETA_COHERENCE = Coherence(
    at=_theta_at,
    deriv=lambda B, gamma, d, t: (2.0 * B * t * np.cos(d), 2.0 * gamma * t * np.sin(2.0 * d)),
    information=lambda B, gamma, t: 4 * B * B * t * t + 4 * gamma * t,
)


def _omega_at(B: float, gamma: float, a, t: float):
    # Rotating-frame phase 2B(1 - cos(a t))/a and decay gamma*(t - sin(2 a t)/(2 a)).
    return 2.0 * B * a * t * t * _f1(a * t), gamma * t * _g1(2.0 * a * t)


def _omega_deriv(B: float, gamma: float, a, t: float):
    # Their a-derivatives: B t^2 and 0 at a = 0.
    return 2.0 * B * t * t * _h1(a * t), 2.0 * gamma * t * t * _h2(2.0 * a * t)


OMEGA_COHERENCE = Coherence(
    at=_omega_at,
    deriv=_omega_deriv,
    # numpy's t**4 overflows to inf where a float's raises OverflowError
    information=lambda B, gamma, t: (
        B * B * np.float64(t) ** 4 + (4.0 / 3.0) * gamma * np.float64(t) ** 3
    ),
)

# Corrected families' QFI and code-basis CFI at detuning d; at d = 0 both are
# 4 B^2 t^2 + 4 gamma t (angle) and B^2 t^4 + (4/3) gamma t^3 (frequency).
qfi_theta_qec_closed = THETA_COHERENCE.qfi
qfi_omega_qec_closed = OMEGA_COHERENCE.qfi
cfi_theta_qec_closed = THETA_COHERENCE.cfi
cfi_omega_qec_closed = OMEGA_COHERENCE.cfi


def qfi_theta_free_closed(B: float, gamma: float, t: float) -> FisherResult:
    """QFI of the freely dephasing theta probe: 2[1 - e^(-2 gamma t) cos 2Bt]."""
    _check_domain(t=t, gamma=gamma, B=B)
    value = 2.0 * (1.0 - np.exp(-2 * gamma * t) * np.cos(2 * B * t))
    return FisherResult(value)


def qfi_theta_unitary_controlled(B: float, t: float, dtheta: float = 0.0) -> FisherResult:
    """QFI of the optimally controlled unitary theta dynamics (gamma = 0).

    Collapses to 4 B^2 t^2 at dtheta = 0 and decreases quartically in dtheta.
    """
    _check_domain(t=t, B=B, dtheta=dtheta)
    bt = B * t
    phi = 2.0 * abs(np.sin(dtheta / 2))  # sqrt(2 - 2 cos dtheta)
    value = 0.5 * (1 + 4 * bt * bt + 4 * bt * bt * np.cos(dtheta) - np.cos(2 * bt * phi))
    return FisherResult(value)


def qfi_omega_unitary_controlled(B: float, t: float, domega: float = 0.0) -> FisherResult:
    """QFI of the optimally controlled unitary rotation-frequency dynamics, B^2 t^4 at domega = 0.

    For a = -B t p with p = (g1(z), z f1(z)), z = domega t, and q = dp/dz, the probe's exp(-i a.sigma) carries
    J = 4 (|a|'^2 + sin^2|a| |n'|^2) = B^2 t^4 * 4 [S |q|^2 + (1 - S) (p.q)^2/|p|^2], n = a/|a|, S = sinc^2 |a|.
    """
    _check_domain(t=t, B=B, domega=domega)
    z = domega * t
    if z == 0:  # p = 0 and q = (0, 1/2): the bracket is exactly 1
        return FisherResult(B * B * t**4)
    p, q = np.array([_g1(z), z * _f1(z)]), np.array([_h2(z), _h1(z)])
    pp = p @ p
    s = np.sinc(B * t * np.sqrt(pp) / np.pi) ** 2
    c = (p @ q) ** 2 / pp if pp > 0 else 0.0  # p.p underflows to 0 only at |z| below about 1e-161
    return FisherResult(B * B * t**4 * (4 * (s * (q @ q) + (1 - s) * c)))


def qfi_B_trajectory_averaged(t: float, gamma: float) -> FisherResult:
    """Phase-averaged QFI for field estimation: 4 t^2 e^(-4 gamma t)."""
    _check_domain(t=t, gamma=gamma)
    value = 4.0 * t * t * np.exp(-4 * gamma * t)
    return FisherResult(value)
