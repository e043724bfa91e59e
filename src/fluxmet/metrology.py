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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        probs = np.array([p for _, p in self.outcomes], dtype=float)
        if np.any(probs < -1e-12):
            raise DomainError(f"negative probability in {self.outcomes!r}")
        if abs(probs.sum() - 1.0) > 1e-12:
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


def _branch(z, small, series, direct):
    out = np.where(small, series, direct)
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def _f1(z):
    """(1 - cos z) / z^2, regular at 0 (value 1/2).  Elementwise."""
    za = np.asarray(z, dtype=float)
    small = np.abs(za) < _CROSSOVER
    z2 = np.where(small, za, 0.0) ** 2
    series = 0.5 - z2 / 24 + z2 * z2 / 720 - z2 * z2 * z2 / 40320
    zb = np.where(small, 1.0, za)
    return _branch(z, small, series, (1.0 - np.cos(zb)) / (zb * zb))


def _g1(w):
    """1 - sin(w)/w, regular at 0 (value 0).  Elementwise."""
    wa = np.asarray(w, dtype=float)
    small = np.abs(wa) < _CROSSOVER
    w2 = np.where(small, wa, 0.0) ** 2
    series = w2 / 6 - w2 * w2 / 120 + w2 * w2 * w2 / 5040 - w2 * w2 * w2 * w2 / 362880
    wb = np.where(small, 1.0, wa)
    return _branch(w, small, series, 1.0 - np.sin(wb) / wb)


def _h1(z):
    """sin(z)/z - (1 - cos z)/z^2, regular at 0 (value 1/2).  Elementwise."""
    za = np.asarray(z, dtype=float)
    small = np.abs(za) < _CROSSOVER
    z2 = np.where(small, za, 0.0) ** 2
    series = 0.5 - z2 / 8 + z2 * z2 / 144 - z2 * z2 * z2 / 5760
    zb = np.where(small, 1.0, za)
    direct = np.sin(zb) / zb - (1.0 - np.cos(zb)) / (zb * zb)
    return _branch(z, small, series, direct)


def _h2(w):
    """(sin w - w cos w) / w^2, regular at 0 (value 0).  Elementwise."""
    wa = np.asarray(w, dtype=float)
    small = np.abs(wa) < _CROSSOVER
    ws = np.where(small, wa, 0.0)
    w2 = ws * ws
    series = ws / 3 - ws * w2 / 30 + ws * w2 * w2 / 840 - ws * w2 * w2 * w2 / 45360
    wb = np.where(small, 1.0, wa)
    direct = (np.sin(wb) - wb * np.cos(wb)) / (wb * wb)
    return _branch(w, small, series, direct)


def omega_frame_phase(B: float, a, t: float):
    """Accumulated rotating-frame phase 2B(1 - cos(a t))/a at detuning a."""
    return 2.0 * B * a * t * t * _f1(a * t)


def omega_frame_decay(gamma: float, a, t: float):
    """Rotating-frame decay exponent gamma*(t - sin(2 a t)/(2 a))."""
    return gamma * t * _g1(2.0 * a * t)


def omega_frame_phase_deriv(B: float, a, t: float):
    """d/da of the rotating-frame phase; equals B t^2 at a = 0."""
    return 2.0 * B * t * t * _h1(a * t)


def omega_frame_decay_deriv(gamma: float, a, t: float):
    """d/da of the decay exponent; vanishes at a = 0."""
    return 2.0 * gamma * t * t * _h2(2.0 * a * t)


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


def sld(rho: np.ndarray, drho: np.ndarray, kernel_tol: float | None = None) -> np.ndarray:
    """Symmetric logarithmic derivative L solving drho = (L rho + rho L)/2.

    In the eigenbasis of ``rho``, L_ij = 2 drho_ij / (lam_i + lam_j) on pairs
    with lam_i + lam_j above ``kernel_tol`` (default 1e-12 times the largest
    eigenvalue); matrix elements on the kernel are set to zero.
    """
    drho = np.asarray(drho, dtype=complex)
    if np.max(np.abs(drho - drho.conj().T)) > 1e-8:
        raise NonHermitianError("drho must be Hermitian")
    if abs(np.trace(drho)) > 1e-8:
        raise DomainError(f"drho must be traceless, got trace {np.trace(drho)!r}")
    w, v = hermitian_eig(rho)
    if kernel_tol is None:
        kernel_tol = 1e-12 * max(w[-1], 0.0)
    dr = v.conj().T @ drho @ v
    denom = w[:, None] + w[None, :]
    ell = np.where(denom > kernel_tol, 2.0 * dr / np.where(denom > kernel_tol, denom, 1.0), 0.0)
    out = v @ ell @ v.conj().T
    return 0.5 * (out + out.conj().T)


def qfi_sld(rho: np.ndarray, drho: np.ndarray, kernel_tol: float | None = None) -> FisherResult:
    """Quantum Fisher information Tr(rho L^2) via the SLD."""
    ell = sld(rho, drho, kernel_tol=kernel_tol)
    return FisherResult(float(np.trace(rho @ ell @ ell).real))


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
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
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
    kernel_tol = max(1.5 * w0[k - 1] + 0.5 * w0[k], 1e-12 * lam_max)
    base = qfi_sld(rho, drho, kernel_tol=kernel_tol)
    # A branch still at round-off at x +- delta (the kernel of a pure family)
    # has no curvature to measure.
    bent = np.flatnonzero(np.maximum(wp[:k], wm[:k]) > 1e-14 * lam_max)
    curv = (np.sum(wp[bent]) + np.sum(wm[bent]) - 2.0 * np.sum(w0[bent])) / delta**2
    # Eigenvalue curvature at an interior zero of a nonnegative spectrum
    # cannot be negative; a negative estimate is eigensolver noise.
    value = base.value + max(2.0 * curv, 0.0)
    return FisherResult(value)


def qfi_fidelity_fd(state_map, x: float, delta: float = 1e-3) -> FisherResult:
    """QFI from the infinitesimal Bures distance: 8 (1 - F(rho_x, rho_x+d))/d^2."""
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    f = fidelity(state_map(x), state_map(x + delta))
    if f > 1 + 1e-8:
        raise NumericError(f"fidelity {f!r} exceeds 1 beyond tolerance")
    value = 8.0 * (1.0 - f) / delta**2
    return FisherResult(value)


def cfi(dist_map, x: float, delta: float = 1e-5) -> FisherResult:
    """Classical Fisher information sum_i (d p_i / dx)^2 / p_i of a measurement.

    Probabilities below 1e-14 at the working point are skipped (their
    outcomes carry no weight); derivatives are central differences.
    """
    if delta <= 0:
        raise DomainError(f"delta must be positive, got {delta}")
    center = dist_map(x)
    plus = dict(dist_map(x + delta).outcomes)
    minus = dict(dist_map(x - delta).outcomes)
    value = 0.0
    for label, p in center.outcomes:
        if p < 1e-14:
            continue
        dp = (plus[label] - minus[label]) / (2 * delta)
        value += dp * dp / p
    return FisherResult(value)


def cfi_trajectory_B(
    B: float,
    gamma: float,
    t: float,
    beta: float,
    n: int,
    rng: np.random.Generator,
    delta: float = 1e-4,
) -> FisherResult:
    """Monte-Carlo classical Fisher information for field estimation.

    Estimates the averaged outcome probability p1(B') = E[cos^2(B' t + phi +
    beta)] at B' = B and B +- delta with common noise draws phi, so the
    finite-difference derivative is free of Monte-Carlo shot noise.
    """
    if gamma < 0 or t < 0:
        raise DomainError("gamma and t must be >= 0")
    phi = rng.normal(0.0, np.sqrt(gamma * t), size=n) if gamma * t > 0 else np.zeros(n)

    def p1(b: float) -> float:
        return float(np.mean(np.cos(b * t + phi + beta) ** 2))

    p = p1(B)
    dp = (p1(B + delta) - p1(B - delta)) / (2 * delta)
    if p < 1e-14 or p > 1 - 1e-14:
        raise NumericError(f"outcome probability {p!r} is degenerate")
    value = dp * dp / (p * (1 - p))
    return FisherResult(value)


# ---------------------------------------------------------------------------
# Measurement distributions with closed-form probabilities
# ---------------------------------------------------------------------------


def bell_basis_distribution_theta_free(B: float, gamma: float, t: float, theta: float) -> MeasurementDistribution:
    """Bell-basis outcome probabilities for the freely evolved theta probe."""
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
    p1 = 0.5 * (1 + np.exp(-2 * gamma * t) * np.cos(2 * B * t + 2 * beta))
    return MeasurementDistribution(outcomes=[("+", p1), ("-", 1 - p1)])


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def _check_t(t: float) -> None:
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")


def qfi_theta_free_closed(B: float, gamma: float, t: float) -> FisherResult:
    """QFI of the freely dephasing theta probe: 2[1 - e^(-2 gamma t) cos 2Bt]."""
    _check_t(t)
    value = 2.0 * (1.0 - np.exp(-2 * gamma * t) * np.cos(2 * B * t))
    return FisherResult(value)


def qfi_theta_qec_closed(B: float, gamma: float, t: float, dtheta: float = 0.0) -> FisherResult:
    """QFI of the error-corrected theta family at detuning dtheta.

    At dtheta = 0 this is exactly 4 B^2 t^2 + 4 gamma t: the fluctuation
    contributes 4 gamma t of information on top of the coherent part.
    """
    _check_t(t)
    if t == 0:
        return FisherResult(0.0)
    s2 = np.sin(dtheta) ** 2
    x = 4.0 * gamma * t * s2
    # x / (e^x - 1), continuous value 1 at x = 0.
    xf = 1.0 - x / 2 + x * x / 12 if x < 1e-8 else x / np.expm1(x)
    value = 4.0 * t * t * np.cos(dtheta) ** 2 * (B * B * np.exp(-x) + (gamma / t) * xf)
    return FisherResult(value)


def qfi_omega_qec_closed(B: float, gamma: float, t: float, domega: float = 0.0) -> FisherResult:
    """QFI of the error-corrected rotation-frequency family at detuning domega.

    Computed from the rotating-frame qubit state with coherence
    exp(-(i*phase + decay)); at domega = 0 it equals B^2 t^4 + (4/3) gamma t^3.
    """
    _check_t(t)
    if t == 0:
        return FisherResult(0.0)
    a = domega
    z = a * t
    dphase = omega_frame_phase_deriv(B, a, t)
    decay = omega_frame_decay(gamma, a, t)
    ddecay = omega_frame_decay_deriv(gamma, a, t)
    coherent = dphase * dphase * np.exp(-2 * decay)
    if gamma == 0:
        noise = 0.0
    elif abs(z) < 1e-8:
        noise = (4.0 / 3.0) * gamma * t**3
    else:
        noise = ddecay * ddecay / np.expm1(2 * decay)
    return FisherResult(coherent + noise)


def qfi_theta_unitary_controlled(B: float, t: float, dtheta: float = 0.0) -> FisherResult:
    """QFI of the optimally controlled unitary theta dynamics (gamma = 0).

    Collapses to 4 B^2 t^2 at dtheta = 0 and decreases quartically in dtheta.
    """
    _check_t(t)
    bt = B * t
    phi = 2.0 * abs(np.sin(dtheta / 2))  # sqrt(2 - 2 cos dtheta)
    value = 0.5 * (1 + 4 * bt * bt + 4 * bt * bt * np.cos(dtheta) - np.cos(2 * bt * phi))
    return FisherResult(value)


def qfi_omega_unitary_controlled(B: float, t: float, domega: float = 0.0) -> FisherResult:
    """QFI of the optimally controlled unitary rotation-frequency dynamics.

    Quadratic expansion B^2 t^4 (1 - t^2 domega^2 / 18), valid for small
    |domega| * t.
    """
    _check_t(t)
    penalty = t * t * domega * domega / 18.0
    if penalty > 1:
        raise DomainError(f"|domega|*t = {abs(domega) * t} is outside the expansion's validity")
    value = B * B * t**4 * (1 - penalty)
    return FisherResult(value)


def qfi_B_trajectory_averaged(t: float, gamma: float) -> FisherResult:
    """Phase-averaged QFI for field estimation: 4 t^2 e^(-4 gamma t)."""
    _check_t(t)
    value = 4.0 * t * t * np.exp(-4 * gamma * t)
    return FisherResult(value)


def cfi_theta_qec_closed(B: float, gamma: float, t: float, dtheta: float = 0.0) -> FisherResult:
    """Classical Fisher information of the code-basis measurement (theta task).

    Outcome probabilities p(+-) = (1 +- E cos(2 B t s))/2 with s = sin(dtheta)
    and E = exp(-2 gamma t s^2).  The dtheta -> 0 limit equals the QFI
    4 B^2 t^2 + 4 gamma t; the measurement is optimal at zero detuning.
    """
    _check_t(t)
    if t == 0:
        return FisherResult(0.0)
    s = np.sin(dtheta)
    c2 = np.cos(dtheta) ** 2
    if gamma == 0:
        return FisherResult(4 * B * B * t * t * c2)
    if abs(s) < 1e-8:
        return FisherResult(4 * t * (gamma + B * B * t))
    phi = 2 * B * t * s
    e = np.exp(-2 * gamma * t * s * s)
    num = 4 * e * e * t * t * c2 * (2 * gamma * s * np.cos(phi) + B * np.sin(phi)) ** 2
    # 1 - E^2 cos^2 phi, written cancellation-free.
    den = np.sin(phi) ** 2 - np.cos(phi) ** 2 * np.expm1(-4 * gamma * t * s * s)
    return FisherResult(num / den)


def cfi_omega_qec_closed(B: float, gamma: float, t: float, domega: float = 0.0) -> FisherResult:
    """Classical Fisher information of the code-basis measurement (omega task).

    Uses the rotating-frame coherence e^(-decay) e^(-i phase); the domega -> 0
    limit equals the QFI B^2 t^4 + (4/3) gamma t^3.
    """
    _check_t(t)
    if t == 0:
        return FisherResult(0.0)
    a = domega
    z = a * t
    dphase = omega_frame_phase_deriv(B, a, t)
    if gamma == 0:
        return FisherResult(dphase * dphase)
    if abs(z) < 1e-8:
        value = B * B * t**4 + (4.0 / 3.0) * gamma * t**3
        return FisherResult(value)
    phase = omega_frame_phase(B, a, t)
    decay = omega_frame_decay(gamma, a, t)
    ddecay = omega_frame_decay_deriv(gamma, a, t)
    num = np.exp(-2 * decay) * (ddecay * np.cos(phase) + dphase * np.sin(phase)) ** 2
    den = np.sin(phase) ** 2 - np.cos(phase) ** 2 * np.expm1(-2 * decay)
    return FisherResult(num / den)
