"""Fisher information routes, fidelities and closed forms."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

import fluxmet.metrology as metrology
from fluxmet.cli import cmd_qfi
from fluxmet.dynamics import (
    bell_probe,
    dephasing_kraus,
    omega_model,
    sample_omega_trajectories,
    sample_phases,
    theta_model,
    trajectory_average_state,
    trajectory_outcome_probability,
)
from fluxmet.errors import DimensionError, DomainError, NotPsdError, NumericError
from fluxmet.estimation import AdaptiveConfig, outcome_probability
from fluxmet.metrology import (
    OMEGA_COHERENCE,
    THETA_COHERENCE,
    MeasurementDistribution,
    bell_basis_distribution_theta_free,
    cfi,
    cfi_omega_qec_closed,
    cfi_theta_qec_closed,
    cfi_trajectory_B,
    fidelity,
    fidelity_qubit,
    qfi_B_trajectory_averaged,
    qfi_fidelity_fd,
    qfi_omega_qec_closed,
    qfi_omega_unitary_controlled,
    qfi_sld,
    qfi_sld_numeric,
    qfi_theta_free_closed,
    qfi_theta_qec_closed,
    qfi_theta_unitary_controlled,
    sld,
    trajectory_distribution_B,
)
from fluxmet.qec import (
    corrected_evolve_omega,
    corrected_evolve_theta,
    corrected_state_omega_closed,
    corrected_state_theta_closed,
    omega_code,
)
from fluxmet.qmat import kron
from fluxmet.tasks import TASKS

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)

B, GAMMA, T = 0.1, 0.05, 5.0


def free_theta_state(theta: float, t: float = T) -> np.ndarray:
    """Bell probe through the free dephasing channel (independent route)."""
    k1, k2 = dephasing_kraus(B, GAMMA, t, theta)
    psi = bell_probe()
    rho0 = np.outer(psi, psi.conj())
    return sum(kron(k, EYE2) @ rho0 @ kron(k, EYE2).conj().T for k in (k1, k2))


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------


def test_fidelity_identical_states() -> None:
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_pure_overlap() -> None:
    zero = np.diag([1.0, 0.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert fidelity(zero, plus) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_fidelity_commuting_case() -> None:
    got = fidelity(np.diag([0.5, 0.5]).astype(complex), np.diag([0.9, 0.1]).astype(complex))
    assert got == pytest.approx(np.sqrt(0.45) + np.sqrt(0.05), abs=1e-12)
    assert got == pytest.approx(0.89443, abs=5e-6)


def test_fidelity_symmetric() -> None:
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        r1 = a @ a.conj().T
        r1 /= np.trace(r1).real
        r2 = b @ b.conj().T
        r2 /= np.trace(r2).real
        assert abs(fidelity(r1, r2) - fidelity(r2, r1)) < 1e-10


def test_fidelity_rejects_non_psd() -> None:
    with pytest.raises(NotPsdError):
        fidelity(np.diag([1.5, -0.5]).astype(complex), np.diag([0.5, 0.5]).astype(complex))


def test_fidelity_qubit_trivial_cases() -> None:
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert fidelity_qubit(zero, zero) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_qubit(zero, one) == pytest.approx(0.0, abs=1e-12)
    assert fidelity_qubit(EYE2 / 2, EYE2 / 2) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_qubit_is_squared_fidelity() -> None:
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        r1 = a @ a.conj().T
        r1 /= np.trace(r1).real
        r2 = b @ b.conj().T
        r2 /= np.trace(r2).real
        assert fidelity_qubit(r1, r2) == pytest.approx(fidelity(r1, r2) ** 2, abs=1e-10)


def test_fidelity_qubit_wrong_dimension() -> None:
    with pytest.raises(DimensionError):
        fidelity_qubit(np.eye(4, dtype=complex) / 4, np.eye(4, dtype=complex) / 4)


# ---------------------------------------------------------------------------
# SLD route
# ---------------------------------------------------------------------------


def test_sld_commuting_case() -> None:
    assert np.allclose(sld(EYE2 / 2, SIGMA3 / 2), SIGMA3, atol=1e-12)


def test_sld_pure_state_identity() -> None:
    # |psi> = cos(x)|0> + sin(x)|1>: QFI = 4 <dpsi|dpsi> = 4.
    x = 0.3
    psi = np.array([np.cos(x), np.sin(x)], dtype=complex)
    dpsi = np.array([-np.sin(x), np.cos(x)], dtype=complex)
    rho = np.outer(psi, psi.conj())
    drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
    assert qfi_sld(rho, drho).value == pytest.approx(4.0, abs=1e-10)


def test_sld_free_evolution_matrix_elements() -> None:
    theta = np.pi / 4
    rho = free_theta_state(theta)
    delta = 1e-6
    drho = (free_theta_state(theta + delta) - free_theta_state(theta - delta)) / (2 * delta)
    ell = sld(rho, drho)
    s, c = np.sin(theta), np.cos(theta)
    cb, sb = np.cos(B * T), np.sin(B * T)
    e1 = np.array([-c, s, s, c], dtype=complex) / np.sqrt(2)
    e3 = np.array([-1j * sb + cb * s, cb * c, cb * c, -1j * sb - cb * s]) / np.sqrt(2)
    e4 = np.array([cb - 1j * sb * s, -1j * sb * c, -1j * sb * c, cb + 1j * sb * s]) / np.sqrt(2)
    assert e1.conj() @ ell @ e3 == pytest.approx(-2 * cb, abs=1e-7)
    assert e1.conj() @ ell @ e4 == pytest.approx(2j * sb, abs=1e-7)
    assert e3.conj() @ ell @ e4 == pytest.approx(0.0, abs=1e-7)
    assert e3.conj() @ ell @ e3 == pytest.approx(0.0, abs=1e-7)


def test_qfi_sld_stationary_state() -> None:
    rho = np.diag([0.5, 0.5]).astype(complex)
    assert qfi_sld(rho, np.zeros((2, 2), dtype=complex)).value == 0.0


def test_qfi_sld_free_theta_value() -> None:
    res = qfi_sld_numeric(free_theta_state, np.pi / 4)
    assert res.value == pytest.approx(2 * (1 - np.exp(-0.5) * np.cos(1.0)), rel=1e-6)
    assert res.value == pytest.approx(1.34458, abs=5e-6)


def test_qfi_sld_unitary_field_estimation() -> None:
    # Bell probe, H = b sigma_3 on the probe spin: QFI over b is 4 t^2.
    psi0 = bell_probe()

    def family(b: float) -> np.ndarray:
        u = scipy_expm(-1j * b * T * kron(SIGMA3, EYE2))
        psi = u @ psi0
        return np.outer(psi, psi.conj())

    assert qfi_sld_numeric(family, B).value == pytest.approx(4 * T * T, rel=1e-6)


def test_qfi_sld_numeric_pure_family_kernel_has_no_curvature() -> None:
    # A pure family's kernel eigenvalues sit at solver noise (~4e-16) at x and
    # x +- delta; their "curvature" was once added, 13% on top of 1e-6.
    family = TASKS["omega"].unitary_family(0.1, 0.1, 0.5)
    assert qfi_sld_numeric(family, 0.5).value == pytest.approx(1e-6, rel=1e-3)


# ---------------------------------------------------------------------------
# Fidelity-FD route and CFI
# ---------------------------------------------------------------------------


def test_qfi_fidelity_fd_constant_family() -> None:
    rho = np.diag([0.4, 0.6]).astype(complex)
    assert qfi_fidelity_fd(lambda x: rho, 0.2).value == pytest.approx(0.0, abs=1e-8)


def test_qfi_fidelity_fd_pure_rotation() -> None:
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)

    def family(x: float) -> np.ndarray:
        psi = scipy_expm(-1j * x * SIGMA3 / 2) @ plus
        return np.outer(psi, psi.conj())

    assert qfi_fidelity_fd(family, 0.7, delta=1e-4).value == pytest.approx(1.0, rel=1e-6)


def test_qfi_fidelity_fd_corrected_family() -> None:
    def family(th: float) -> np.ndarray:
        return corrected_state_theta_closed(B, GAMMA, th, np.pi / 4, T)

    got = qfi_fidelity_fd(family, np.pi / 4, delta=1e-4).value
    assert got == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("route", [qfi_sld_numeric, qfi_fidelity_fd])
def test_a_step_whose_square_overflows_is_refused_by_name(route) -> None:
    # A finite delta above about 1.3e154 once raised a bare OverflowError
    # from delta**2; it is refused by name before the family is evaluated.
    # A NaN or infinite delta still reaches the family, which names it.
    calls = []

    def family(th: float) -> np.ndarray:
        calls.append(th)
        return corrected_state_theta_closed(B, GAMMA, th, np.pi / 4, T)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta in (1e300, 1.4e154, -1.0, 0.0):
            message = f"delta must be positive with a finite square, got {delta}"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                route(family, 0.7, delta)
        assert calls == []
        for delta in (np.nan, np.inf):
            with pytest.raises(DomainError, match="^theta must be finite"):
                route(family, 0.7, delta)
    assert route(family, 0.7, 1e-4).value > 0


def test_qfi_fidelity_fd_rejects_superunital(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(metrology, "fidelity", lambda r1, r2: 1.0 + 1e-6)
    rho = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(NumericError):
        qfi_fidelity_fd(lambda x: rho, 0.0)


def test_cfi_constant_distribution() -> None:
    dist = bell_basis_distribution_theta_free(B, 0.0, 0.0, 0.3)
    assert cfi(lambda x: dist, 0.3).value == pytest.approx(0.0, abs=1e-10)


def test_cfi_bell_basis_free_theta() -> None:
    got = cfi(lambda th: bell_basis_distribution_theta_free(B, GAMMA, T, th), np.pi / 4)
    want = 2 * (1 - np.exp(-2 * GAMMA * T) * np.cos(2 * B * T))
    assert got.value == pytest.approx(want, rel=1e-6)


def test_cfi_trajectory_B_optimal_phase() -> None:
    beta = np.pi / 4 - B * T
    got = cfi(lambda b: trajectory_distribution_B(b, GAMMA, T, beta), B)
    assert got.value == pytest.approx(4 * T * T * np.exp(-4 * GAMMA * T), rel=1e-6)


def test_cfi_trajectory_B_monte_carlo() -> None:
    rng = np.random.default_rng(11)
    beta = np.pi / 4 - B * T
    got = cfi_trajectory_B(B, GAMMA, T, beta, 10**6, rng)
    assert got.value == pytest.approx(4 * T * T * np.exp(-4 * GAMMA * T), rel=0.05)


@pytest.mark.parametrize("seed, gamma, t", [(11, GAMMA, T), (12, 0.0, T), (13, GAMMA, 0.0)])
def test_cfi_trajectory_B_draws_through_sample_phases(seed, gamma, t) -> None:
    # The noise draws are sample_phases' at zero field, bit for bit, also
    # where gamma t = 0 draws nothing.
    beta, n, step = 0.3, 1000, metrology._TRAJECTORY_STEP
    phi = sample_phases(0.0, gamma, t, n, np.random.default_rng(seed))

    def p1(b: float) -> float:
        return float(np.mean(np.cos(b * t + phi + beta) ** 2))

    p = p1(B)
    dp = (p1(B + step) - p1(B - step)) / (2 * step)
    got = cfi_trajectory_B(B, gamma, t, beta, n, np.random.default_rng(seed))
    assert got.value == dp * dp / (p * (1 - p))


_NAN = float("nan")
_NAN_CALLS = {
    "sample_phases t": lambda: sample_phases(B, GAMMA, _NAN, 3, np.random.default_rng(0)),
    "sample_phases gamma": lambda: sample_phases(B, _NAN, T, 3, np.random.default_rng(0)),
    "dephasing_kraus t": lambda: dephasing_kraus(B, GAMMA, _NAN, 0.3),
    "dephasing_kraus gamma": lambda: dephasing_kraus(B, _NAN, T, 0.3),
    "theta_model": lambda: theta_model(B, _NAN, 0.3),
    "omega_model": lambda: omega_model(B, _NAN, 0.3),
    "MeasurementDistribution": lambda: MeasurementDistribution([("+", _NAN), ("-", 0.5)]),
    "trajectory_average_state": lambda: trajectory_average_state(
        B, GAMMA, _NAN, 0.3, 3, np.random.default_rng(0)
    ),
    "trajectory_outcome_probability": lambda: trajectory_outcome_probability(
        B, _NAN, T, 0.3, 3, np.random.default_rng(0)
    ),
    "outcome_probability t": lambda: outcome_probability(0.3, 0.2, B, GAMMA, _NAN),
    "outcome_probability gamma": lambda: outcome_probability(0.3, 0.2, B, _NAN, T),
    "bell_basis_distribution_theta_free": lambda: bell_basis_distribution_theta_free(B, _NAN, T, 0.3),
    "trajectory_distribution_B": lambda: trajectory_distribution_B(B, GAMMA, _NAN, 0.3),
    "cfi_trajectory_B": lambda: cfi_trajectory_B(
        B, GAMMA, _NAN, 0.3, 3, np.random.default_rng(0)
    ),
    "qfi_theta_free_closed": lambda: qfi_theta_free_closed(B, GAMMA, _NAN),
    "omega_model omega": lambda: omega_model(B, GAMMA, _NAN),
    "omega_code": lambda: omega_code(_NAN),
    "sample_phases B": lambda: sample_phases(_NAN, GAMMA, T, 3, np.random.default_rng(0)),
    "dephasing_kraus B": lambda: dephasing_kraus(_NAN, GAMMA, T, 0.3),
    "dephasing_kraus theta": lambda: dephasing_kraus(B, GAMMA, T, _NAN),
    "trajectory_average_state B": lambda: trajectory_average_state(
        _NAN, GAMMA, T, 0.3, 3, np.random.default_rng(0)
    ),
    "trajectory_outcome_probability beta": lambda: trajectory_outcome_probability(
        B, GAMMA, T, _NAN, 3, np.random.default_rng(0)
    ),
    "cfi_trajectory_B B": lambda: cfi_trajectory_B(_NAN, GAMMA, T, 0.3, 3, np.random.default_rng(0)),
    "cfi_trajectory_B beta": lambda: cfi_trajectory_B(B, GAMMA, T, _NAN, 3, np.random.default_rng(0)),
    "sample_omega_trajectories gamma": lambda: sample_omega_trajectories(
        B, _NAN, 0.3, T, 0.5, 3, np.random.default_rng(0)
    ),
    "sample_omega_trajectories omega": lambda: sample_omega_trajectories(
        B, GAMMA, _NAN, T, 0.5, 3, np.random.default_rng(0)
    ),
    "sample_omega_trajectories B": lambda: sample_omega_trajectories(
        _NAN, GAMMA, 0.3, T, 0.5, 3, np.random.default_rng(0)
    ),
    "corrected_state_theta_closed t": lambda: corrected_state_theta_closed(B, GAMMA, 0.9, 0.8, _NAN),
    "corrected_state_theta_closed gamma": lambda: corrected_state_theta_closed(B, _NAN, 0.9, 0.8, T),
    "corrected_state_omega_closed t": lambda: corrected_state_omega_closed(B, GAMMA, 0.3, 0.2, _NAN),
    "corrected_state_omega_closed gamma": lambda: corrected_state_omega_closed(B, _NAN, 0.3, 0.2, T),
    "qfi_theta_qec_closed gamma": lambda: qfi_theta_qec_closed(B, _NAN, T),
    "qfi_omega_qec_closed gamma": lambda: qfi_omega_qec_closed(B, _NAN, T),
    "cfi_theta_qec_closed gamma": lambda: cfi_theta_qec_closed(B, _NAN, T, 0.05),
    "cfi_omega_qec_closed gamma": lambda: cfi_omega_qec_closed(B, _NAN, T, 0.05),
    "qfi_theta_free_closed gamma": lambda: qfi_theta_free_closed(B, _NAN, T),
    "qfi_B_trajectory_averaged gamma": lambda: qfi_B_trajectory_averaged(T, _NAN),
    "corrected_state_theta_closed B": lambda: corrected_state_theta_closed(_NAN, GAMMA, 0.9, 0.8, T),
    "corrected_state_theta_closed theta": lambda: corrected_state_theta_closed(B, GAMMA, _NAN, 0.8, T),
    "corrected_state_omega_closed B": lambda: corrected_state_omega_closed(_NAN, GAMMA, 0.3, 0.2, T),
    "corrected_state_omega_closed omega": lambda: corrected_state_omega_closed(B, GAMMA, _NAN, 0.2, T),
    "qfi_theta_qec_closed B": lambda: qfi_theta_qec_closed(_NAN, GAMMA, T),
    "qfi_omega_qec_closed d": lambda: qfi_omega_qec_closed(B, GAMMA, T, _NAN),
    "cfi_theta_qec_closed B": lambda: cfi_theta_qec_closed(_NAN, GAMMA, T, 0.05),
    "cfi_omega_qec_closed d": lambda: cfi_omega_qec_closed(B, GAMMA, T, _NAN),
}


@pytest.mark.parametrize("name", list(_NAN_CALLS))
def test_a_nan_input_raises_domain_error(name) -> None:
    # Each domain check is written so that NaN fails it, rather than
    # passing a NaN on to the result.
    with pytest.raises(DomainError):
        _NAN_CALLS[name]()


_INF_CALLS = {
    "sample_phases": lambda gamma: sample_phases(0.1, gamma, np.inf, 3, np.random.default_rng(0)),
    "dephasing_kraus": lambda gamma: dephasing_kraus(B, gamma, np.inf, 0.3),
    "trajectory_outcome_probability": lambda gamma: trajectory_outcome_probability(
        B, gamma, np.inf, 0.3, 3, np.random.default_rng(0)
    ),
    "cfi_trajectory_B": lambda gamma: cfi_trajectory_B(B, gamma, np.inf, 0.3, 3, np.random.default_rng(0)),
}


@pytest.mark.parametrize("gamma", [0.0, GAMMA])
@pytest.mark.parametrize("name", list(_INF_CALLS))
def test_an_infinite_duration_raises_domain_error(name, gamma) -> None:
    # With gamma = 0, gamma * t is 0 * inf = NaN, which took neither the
    # noiseless branch nor a refusal; with gamma > 0 the draw had an
    # infinite scale.  The callers inherit the refusal.
    with pytest.raises(DomainError, match="duration must be >= 0 and finite"):
        _INF_CALLS[name](gamma)


def _rng() -> np.random.Generator:
    return np.random.default_rng(0)


# entry point -> (its call at duration t, rate gamma and, for a draw, count n,
# the arguments it refuses outside [0, inf) with dynamics._check_domain's
# message).  A t that fixed_steps or sample_phases refuses was refused so
# before and is left out.
_DOMAIN_CALLS = {
    "sample_phases": (lambda t, gamma, n=3: sample_phases(B, gamma, t, n, _rng()), ["gamma", "n"]),
    "dephasing_kraus": (lambda t, gamma: dephasing_kraus(B, gamma, t, 0.3), ["gamma"]),
    "trajectory_average_state": (
        lambda t, gamma, n=3: trajectory_average_state(B, gamma, t, 0.3, n, _rng()), ["gamma", "n"]
    ),
    "trajectory_outcome_probability": (
        lambda t, gamma, n=3: trajectory_outcome_probability(B, gamma, t, 0.3, n, _rng()), ["gamma", "n"]
    ),
    "cfi_trajectory_B": (lambda t, gamma, n=3: cfi_trajectory_B(B, gamma, t, 0.3, n, _rng()), ["gamma", "n"]),
    "sample_omega_trajectories": (
        lambda t, gamma, n=3: sample_omega_trajectories(B, gamma, 0.3, t, 0.5, n, _rng()), ["gamma", "n"]
    ),
    "theta_model": (lambda t, gamma: theta_model(B, gamma, 0.3), ["gamma"]),
    "omega_model": (lambda t, gamma: omega_model(B, gamma, 0.3), ["gamma"]),
    "corrected_evolve_theta": (
        lambda t, gamma: corrected_evolve_theta(B, gamma, 0.9, 0.8, t, dt=0.5), ["gamma"]
    ),
    "corrected_evolve_omega": (
        lambda t, gamma: corrected_evolve_omega(B, gamma, 0.3, 0.2, t, dt=0.5), ["gamma"]
    ),
    "corrected_state_theta_closed": (
        lambda t, gamma: corrected_state_theta_closed(B, gamma, 0.9, 0.8, t), ["t", "gamma"]
    ),
    "corrected_state_omega_closed": (
        lambda t, gamma: corrected_state_omega_closed(B, gamma, 0.3, 0.2, t), ["t", "gamma"]
    ),
    "qfi_theta_qec_closed": (lambda t, gamma: qfi_theta_qec_closed(B, gamma, t, 0.05), ["t", "gamma"]),
    "qfi_omega_qec_closed": (lambda t, gamma: qfi_omega_qec_closed(B, gamma, t, 0.05), ["t", "gamma"]),
    "cfi_theta_qec_closed": (lambda t, gamma: cfi_theta_qec_closed(B, gamma, t, 0.05), ["t", "gamma"]),
    "cfi_omega_qec_closed": (lambda t, gamma: cfi_omega_qec_closed(B, gamma, t, 0.05), ["t", "gamma"]),
    "qfi_theta_free_closed": (lambda t, gamma: qfi_theta_free_closed(B, gamma, t), ["t", "gamma"]),
    "qfi_theta_unitary_controlled": (lambda t, gamma: qfi_theta_unitary_controlled(B, t), ["t"]),
    "qfi_omega_unitary_controlled": (lambda t, gamma: qfi_omega_unitary_controlled(B, t), ["t"]),
    "qfi_B_trajectory_averaged": (lambda t, gamma: qfi_B_trajectory_averaged(t, gamma), ["t", "gamma"]),
    "bell_basis_distribution_theta_free": (
        lambda t, gamma: bell_basis_distribution_theta_free(B, gamma, t, 0.3), ["t", "gamma"]
    ),
    "trajectory_distribution_B": (
        lambda t, gamma: trajectory_distribution_B(B, gamma, t, 0.3), ["t", "gamma"]
    ),
    "outcome_probability theta": (
        lambda t, gamma: outcome_probability(0.9, 0.8, B, gamma, t), ["t", "gamma"]
    ),
    "outcome_probability omega": (
        lambda t, gamma: outcome_probability(0.3, 0.2, B, gamma, t, task="omega"), ["t", "gamma"]
    ),
    "AdaptiveConfig": (lambda t, gamma: AdaptiveConfig(0.9, 0.8, t=t, gamma=gamma), ["t", "gamma"]),
    "cmd_qfi": (lambda t, gamma: cmd_qfi("theta", B, gamma, t, 3, [0.0], None), ["gamma"]),
}
_OUTSIDE_THE_DOMAIN = [
    (name, arg, value)
    for name, (_, args) in _DOMAIN_CALLS.items()
    for arg in args
    for value in (-1.0, np.inf)
    # AdaptiveConfig refuses an infinite t or gamma first as "not a finite number"
    if not (name == "AdaptiveConfig" and value == np.inf)
]


@pytest.mark.parametrize("name, arg, value", _OUTSIDE_THE_DOMAIN)
def test_a_negative_or_infinite_time_or_rate_raises_domain_error(name, arg, value) -> None:
    # Unrefused, a negative gamma gives p(+) = 1.05 in outcome_probability
    # and a matrix with a negative eigenvalue in corrected_state_theta_closed,
    # an infinite t a NaN state or a NumericError in the closed forms, and a
    # negative draw count numpy's bare ValueError.
    # One function refuses both, with one message.
    call = _DOMAIN_CALLS[name][0]
    with pytest.raises(DomainError, match=re.escape(f"{arg} must be >= 0 and finite, got {value}")):
        call(**{"t": T, "gamma": GAMMA, arg: value})


# (entry point, argument) -> its call with that argument at the given value
_FINITE_CALLS = {
    ("qfi_theta_free_closed", "B"): lambda v: qfi_theta_free_closed(v, GAMMA, T),
    ("qfi_theta_unitary_controlled", "B"): lambda v: qfi_theta_unitary_controlled(v, T, 0.05),
    ("qfi_theta_unitary_controlled", "dtheta"): lambda v: qfi_theta_unitary_controlled(B, T, v),
    ("qfi_omega_unitary_controlled", "B"): lambda v: qfi_omega_unitary_controlled(v, T, 0.05),
    ("qfi_omega_unitary_controlled", "domega"): lambda v: qfi_omega_unitary_controlled(B, T, v),
    ("outcome_probability", "x"): lambda v: outcome_probability(v, 0.8, B, GAMMA, T),
    ("outcome_probability", "x_hat"): lambda v: outcome_probability(0.9, v, B, GAMMA, T),
    ("outcome_probability", "B"): lambda v: outcome_probability(0.3, 0.2, v, GAMMA, T, task="omega"),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, arg", list(_FINITE_CALLS))
@pytest.mark.filterwarnings("error")
def test_a_non_finite_field_angle_or_estimate_is_refused_by_name(name, arg, value) -> None:
    # Unrefused, these computed first: a NaN read "Fisher information is not
    # finite" (a runtime NumericError) or "negative or NaN probability", and
    # an infinity warned in numpy's sin or cos.
    with pytest.raises(DomainError) as err:
        _FINITE_CALLS[name, arg](value)
    assert str(err.value) == f"{arg} must be finite, got {value}"


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_theta_free_closed() -> None:
    assert qfi_theta_free_closed(B, 0.0, T).value == pytest.approx(4 * np.sin(B * T) ** 2, abs=1e-12)
    assert qfi_theta_free_closed(B, GAMMA, T).value == pytest.approx(1.34458, abs=5e-6)
    # Small-time fluctuation gain: J_free - J_unitary ~ 4 gamma t.
    for t in (1e-3, 1e-2):
        gain = qfi_theta_free_closed(B, GAMMA, t).value - 4 * np.sin(B * t) ** 2
        assert gain == pytest.approx(4 * GAMMA * t, rel=5e-2)


def test_theta_qec_closed_anchor_values() -> None:
    assert qfi_theta_qec_closed(B, GAMMA, T, 0.0).value == pytest.approx(2.0, abs=1e-12)
    got = qfi_theta_qec_closed(B, GAMMA, T, 0.05).value
    # Independent evaluation of the same quantity, written as the ratio form.
    x = 4 * GAMMA * T * np.sin(0.05) ** 2
    ratio_form = (
        4 * T * T * np.cos(0.05) ** 2
        * (B * B * (1 - np.exp(-x)) + 4 * GAMMA**2 * np.sin(0.05) ** 2)
        / np.expm1(x)
    )
    assert got == pytest.approx(ratio_form, rel=1e-12)
    assert got == pytest.approx(1.9913, abs=5e-5)


def test_theta_qec_closed_unitary_residual() -> None:
    for d in (0.0, 0.1, 0.4):
        got = qfi_theta_qec_closed(B, 0.0, T, d).value
        assert got == pytest.approx(4 * B * B * T * T * np.cos(d) ** 2, rel=1e-10)


def test_theta_qec_closed_second_order_expansion() -> None:
    for d in (0.01, 0.02):
        got = qfi_theta_qec_closed(B, GAMMA, T, d).value
        approx = 2.0 - 4 * B * B * d * d * T * T * (
            1 + 2 * GAMMA**2 / B**2 + GAMMA / (B * B * T) + 4 * GAMMA * T
        )
        assert abs(got - approx) <= 4.0 * d**4


def test_omega_qec_closed_anchor_values() -> None:
    assert qfi_omega_qec_closed(B, GAMMA, T, 0.0).value == pytest.approx(14.58333, abs=5e-6)
    assert qfi_omega_qec_closed(B, 0.0, T, 0.0).value == pytest.approx(B * B * T**4, rel=1e-12)


def test_omega_qec_closed_second_order_expansion() -> None:
    for d in (0.01, 0.02):
        got = qfi_omega_qec_closed(B, GAMMA, T, d).value
        approx = B**2 * T**4 + (4 / 3) * GAMMA * T**3 - (
            0.5 * B**2 * T**3
            + 0.8 * GAMMA * T**2
            + (4 / 3) * B**2 * GAMMA * T**4
            + (8 / 9) * GAMMA**2 * T**3
        ) * d * d * T**3
        assert abs(got - approx) <= 3000.0 * d**4


def test_theta_unitary_controlled() -> None:
    assert qfi_theta_unitary_controlled(B, T, 0.0).value == pytest.approx(1.0, abs=1e-12)
    assert qfi_theta_unitary_controlled(B, T, 0.1).value < 1.0
    for d in (0.05, 0.1):
        got = qfi_theta_unitary_controlled(B, T, d).value
        approx = 4 * B * B * T * T - (1 / 3) * B**4 * T**4 * d**4
        assert abs(got - approx) <= 1e-8


def test_omega_unitary_controlled() -> None:
    assert qfi_omega_unitary_controlled(B, T, 0.0).value == pytest.approx(6.25, abs=1e-12)
    assert qfi_omega_unitary_controlled(B, 0.0, 0.1).value == 0.0
    assert qfi_omega_unitary_controlled(B, T, 0.05).value == pytest.approx(6.2283, abs=5e-5)


@pytest.mark.parametrize("b, t", [(B, T), (1.0, 2.0)])
def test_omega_unitary_controlled_is_its_family_sld_information(b, t) -> None:
    # The exact form against the SLD route on the task's own unitary family, out to
    # detunings where the former quadratic expansion B^2 t^4 (1 - (domega t)^2 / 18)
    # is 68% off (0.8 at B = 0.1, t = 5) or refused (|domega| t > sqrt(18)); 8e-12 seen.
    spec = TASKS["omega"]
    for d in (0.05, 0.2, 0.5, 0.8, -0.3, 1.5):
        numeric = qfi_sld_numeric(spec.unitary_family(b, t, spec.x_hat), spec.x_hat + d).value
        assert qfi_omega_unitary_controlled(b, t, d).value == pytest.approx(numeric, rel=1e-10)
    # The expansion is the exact form's second order, and domega = 0 is B^2 t^4 itself.
    for d in (1e-4, -1e-4, 1e-200):
        expansion = b * b * t**4 * (1 - (d * t) ** 2 / 18)
        assert qfi_omega_unitary_controlled(b, t, d).value == pytest.approx(expansion, rel=1e-12)
    assert qfi_omega_unitary_controlled(b, t, 0.0).value == b * b * t**4


def test_B_trajectory_averaged() -> None:
    assert qfi_B_trajectory_averaged(T, 0.0).value == pytest.approx(4 * T * T, rel=1e-12)
    assert qfi_B_trajectory_averaged(T, GAMMA).value == pytest.approx(36.788, abs=5e-4)


def test_B_trajectory_averaged_matches_sld_route() -> None:
    def family(b: float) -> np.ndarray:
        return free_theta_state_b(b)

    def free_theta_state_b(b: float) -> np.ndarray:
        k1, k2 = dephasing_kraus(b, GAMMA, T, np.pi / 4)
        psi = bell_probe()
        rho0 = np.outer(psi, psi.conj())
        return sum(kron(k, EYE2) @ rho0 @ kron(k, EYE2).conj().T for k in (k1, k2))

    got = qfi_sld_numeric(family, B).value
    assert got == pytest.approx(qfi_B_trajectory_averaged(T, GAMMA).value, rel=1e-6)


# ---------------------------------------------------------------------------
# Cross-route and ordering invariants
# ---------------------------------------------------------------------------


def test_route_agreement_grid() -> None:
    for t in range(1, 11):
        for d in (0.0, 0.05, 0.1):
            closed = qfi_theta_qec_closed(B, GAMMA, float(t), d).value

            def family(th: float, t=float(t)) -> np.ndarray:
                return corrected_state_theta_closed(B, GAMMA, th, np.pi / 4, t)

            s = qfi_sld_numeric(family, np.pi / 4 + d).value
            f = qfi_fidelity_fd(family, np.pi / 4 + d).value
            assert abs(s - f) < max(1e-4, 1e-3 * closed)
            assert s == pytest.approx(closed, rel=1e-3)
            assert f == pytest.approx(closed, rel=1e-3)


def test_cfi_never_exceeds_qfi() -> None:
    for d in (0.0, 0.02, 0.05, 0.1, 0.2):
        assert (
            cfi_theta_qec_closed(B, GAMMA, T, d).value
            <= qfi_theta_qec_closed(B, GAMMA, T, d).value + 1e-8
        )
        assert (
            cfi_omega_qec_closed(B, GAMMA, T, d).value
            <= qfi_omega_qec_closed(B, GAMMA, T, d).value + 1e-8
        )
    free = qfi_theta_free_closed(B, GAMMA, T).value
    bell = cfi(lambda th: bell_basis_distribution_theta_free(B, GAMMA, T, th), np.pi / 4).value
    assert bell <= free + 1e-8


def test_measurement_optimality_at_zero_detuning() -> None:
    assert cfi_theta_qec_closed(B, GAMMA, T, 0.0).value == pytest.approx(
        qfi_theta_qec_closed(B, GAMMA, T, 0.0).value, abs=1e-6
    )
    assert cfi_omega_qec_closed(B, GAMMA, T, 0.0).value == pytest.approx(
        qfi_omega_qec_closed(B, GAMMA, T, 0.0).value, abs=1e-6
    )


def test_measurement_optimality_curvature() -> None:
    d = 0.01
    for qfi_fn, cfi_fn in (
        (qfi_theta_qec_closed, cfi_theta_qec_closed),
        (qfi_omega_qec_closed, cfi_omega_qec_closed),
    ):
        cq = (qfi_fn(B, GAMMA, T, 0.0).value - qfi_fn(B, GAMMA, T, d).value) / d**2
        cc = (cfi_fn(B, GAMMA, T, 0.0).value - cfi_fn(B, GAMMA, T, d).value) / d**2
        assert cc == pytest.approx(cq, rel=0.05)


def test_fluctuation_advantage_exact() -> None:
    for g, t in ((0.05, 5.0), (0.2, 2.0), (0.01, 8.0)):
        adv = (
            qfi_theta_qec_closed(B, g, t, 0.0).value
            - qfi_theta_unitary_controlled(B, t, 0.0).value
        )
        assert adv == pytest.approx(4 * g * t, rel=1e-12)
        adv_omega = (
            qfi_omega_qec_closed(B, g, t, 0.0).value
            - qfi_omega_unitary_controlled(B, t, 0.0).value
        )
        assert adv_omega == pytest.approx((4 / 3) * g * t**3, rel=1e-12)


def test_fluctuation_penalty_for_field_estimation() -> None:
    for g in (0.01, 0.05, 0.2):
        for t in (1.0, 5.0):
            assert qfi_B_trajectory_averaged(t, g).value < 4 * t * t


# ---------------------------------------------------------------------------
# One coherence record per task against the closed forms it replaced
# ---------------------------------------------------------------------------
#
# Reference copies of the per-task expressions that THETA_COHERENCE and
# OMEGA_COHERENCE replaced.  The CFI references also return the size of the
# sum they square: near a zero of ddecay cos(phase) + dphase sin(phase) two
# roundings of the CFI differ relative to that size, not to the CFI itself.


def _ref_p_plus_theta(theta, theta_hat, B, gamma, t):
    d = np.sin(theta - theta_hat)
    return 0.5 * (1.0 + np.exp(-2.0 * t * gamma * d * d) * np.cos(2.0 * B * t * d))


def _ref_p_plus_omega(omega, omega_hat, B, gamma, t):
    a = omega - omega_hat
    return 0.5 * (
        1.0
        + np.exp(-OMEGA_COHERENCE.at(B, gamma, a, t)[1]) * np.cos(OMEGA_COHERENCE.at(B, gamma, a, t)[0])
    )


def _ref_qfi_theta(B, gamma, t, dtheta):
    if t == 0:
        return 0.0
    x = 4.0 * gamma * t * np.sin(dtheta) ** 2
    xf = 1.0 - x / 2 + x * x / 12 if x < 1e-8 else x / np.expm1(x)
    return 4.0 * t * t * np.cos(dtheta) ** 2 * (B * B * np.exp(-x) + (gamma / t) * xf)


def _ref_qfi_omega(B, gamma, t, a):
    if t == 0:
        return 0.0
    dphase = OMEGA_COHERENCE.deriv(B, gamma, a, t)[0]
    decay = OMEGA_COHERENCE.at(B, gamma, a, t)[1]
    ddecay = OMEGA_COHERENCE.deriv(B, gamma, a, t)[1]
    if gamma == 0:
        noise = 0.0
    elif abs(a * t) < 1e-8:
        noise = (4.0 / 3.0) * gamma * t**3
    else:
        noise = ddecay * ddecay / np.expm1(2 * decay)
    return dphase * dphase * np.exp(-2 * decay) + noise


def _ref_cfi_theta(B, gamma, t, dtheta):
    s, c2 = np.sin(dtheta), np.cos(dtheta) ** 2
    if t == 0:
        return 0.0, 0.0
    if gamma == 0:
        return 4 * B * B * t * t * c2, 0.0
    if abs(s) < 1e-8:
        return 4 * t * (gamma + B * B * t), 0.0
    phi = 2 * B * t * s
    e = np.exp(-2 * gamma * t * s * s)
    den = np.sin(phi) ** 2 - np.cos(phi) ** 2 * np.expm1(-4 * gamma * t * s * s)
    terms = np.array([2 * gamma * s * np.cos(phi), B * np.sin(phi)])
    scale = 4 * e * e * t * t * c2 * np.sum(np.abs(terms)) ** 2 / den
    return 4 * e * e * t * t * c2 * np.sum(terms) ** 2 / den, scale


def _ref_cfi_omega(B, gamma, t, a):
    if t == 0:
        return 0.0, 0.0
    dphase = OMEGA_COHERENCE.deriv(B, gamma, a, t)[0]
    if gamma == 0:
        return dphase * dphase, 0.0
    if abs(a * t) < 1e-8:
        return B * B * t**4 + (4.0 / 3.0) * gamma * t**3, 0.0
    phase = OMEGA_COHERENCE.at(B, gamma, a, t)[0]
    decay = OMEGA_COHERENCE.at(B, gamma, a, t)[1]
    ddecay = OMEGA_COHERENCE.deriv(B, gamma, a, t)[1]
    den = np.sin(phase) ** 2 - np.cos(phase) ** 2 * np.expm1(-2 * decay)
    terms = np.array([ddecay * np.cos(phase), dphase * np.sin(phase)])
    scale = np.exp(-2 * decay) * np.sum(np.abs(terms)) ** 2 / den
    return np.exp(-2 * decay) * np.sum(terms) ** 2 / den, scale


@pytest.mark.parametrize(
    "coherence, ref_qfi, ref_cfi",
    [
        (THETA_COHERENCE, _ref_qfi_theta, _ref_cfi_theta),
        (OMEGA_COHERENCE, _ref_qfi_omega, _ref_cfi_omega),
    ],
    ids=["theta", "omega"],
)
def test_coherence_matches_the_closed_forms_it_replaced(coherence, ref_qfi, ref_cfi) -> None:
    rng = np.random.default_rng(20240811)
    near_zero = (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7)
    for k in range(3000):
        B, t = rng.uniform(0.01, 2.0), rng.uniform(0.01, 10.0)
        gamma = 0.0 if k % 5 == 0 else rng.uniform(0.0, 1.0)
        d = near_zero[k % 7] if k % 3 == 0 else rng.uniform(-1.0, 1.0)
        want = ref_qfi(B, gamma, t, d)
        assert coherence.qfi(B, gamma, t, d).value == pytest.approx(want, rel=1e-13, abs=0.0)
        want, scale = ref_cfi(B, gamma, t, d)
        got = coherence.cfi(B, gamma, t, d).value
        assert abs(got - want) <= 1e-13 * max(abs(want), scale), (B, gamma, t, d)


def test_coherence_p_plus_keeps_every_bit() -> None:
    rng = np.random.default_rng(7)
    x, x_hat = rng.uniform(-3.0, 3.0, 20000), rng.uniform(-3.0, 3.0, 20000)
    refs = ((THETA_COHERENCE, _ref_p_plus_theta), (OMEGA_COHERENCE, _ref_p_plus_omega))
    for coherence, ref in refs:
        for B, gamma, t in ((0.1, 0.05, 5.0), (1.7, 0.0, 0.3), (0.03, 0.9, 9.1)):
            assert np.array_equal(coherence.p_plus(x, x_hat, B, gamma, t), ref(x, x_hat, B, gamma, t))
            assert coherence.p_plus(0.3, 0.2, B, gamma, t) == ref(0.3, 0.2, B, gamma, t)


# ---------------------------------------------------------------------------
# Rotating-frame helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [1e80, 1e200])
def test_corrected_information_overflow_is_a_numeric_error(t) -> None:
    # A float's t**4 raised a bare OverflowError for the frequency task: its
    # zero-detuning J is now inf, and both closed forms refuse it as the
    # angle task's do once its 4 B^2 t^2 overflows.
    with np.errstate(over="ignore"):
        assert TASKS["omega"].information("qec_corrected", B, GAMMA, t) == np.inf
    closed = [qfi_omega_qec_closed, cfi_omega_qec_closed]
    if t == 1e200:
        closed += [qfi_theta_qec_closed, cfi_theta_qec_closed]
    for fn in closed:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="not finite"):
                fn(B, GAMMA, t)


def test_frame_helpers_crossover_continuity() -> None:
    # Series/direct switch: phase helpers at |a t| = 0.1, decay helpers at
    # |2 a t| = 0.1.  Values on both sides of each switch must agree.
    cases = (
        (OMEGA_COHERENCE.at, 0, 1.0),
        (OMEGA_COHERENCE.deriv, 0, 1.0),
        (OMEGA_COHERENCE.at, 1, 2.0),
        (OMEGA_COHERENCE.deriv, 1, 2.0),
    )
    for fn, part, scale in cases:
        a_switch = 0.1 / (scale * T)
        lo = fn(B, GAMMA, a_switch * (1 - 1e-9), T)[part]
        hi = fn(B, GAMMA, a_switch * (1 + 1e-9), T)[part]
        assert lo == pytest.approx(hi, rel=1e-6)


def test_frame_derivative_helpers_match_finite_differences() -> None:
    h = 1e-6
    for a in (0.0, 0.03, 0.4):
        at, deriv = OMEGA_COHERENCE.at, OMEGA_COHERENCE.deriv
        fd_phase = (at(B, GAMMA, a + h, T)[0] - at(B, GAMMA, a - h, T)[0]) / (2 * h)
        assert deriv(B, GAMMA, a, T)[0] == pytest.approx(fd_phase, rel=1e-6, abs=1e-9)
        fd_decay = (at(B, GAMMA, a + h, T)[1] - at(B, GAMMA, a - h, T)[1]) / (2 * h)
        assert deriv(B, GAMMA, a, T)[1] == pytest.approx(fd_decay, rel=1e-6, abs=1e-9)


def test_qfi_sld_numeric_evaluates_each_state_once() -> None:
    # Five points: x, x +- delta and x +- delta/2, each evaluated once.
    seen = []

    def family(theta: float) -> np.ndarray:
        seen.append(theta)
        return free_theta_state(theta)

    got = qfi_sld_numeric(family, 0.3)
    assert len(seen) == 5
    assert len(set(seen)) == 5
    assert got.value == pytest.approx(qfi_theta_free_closed(B, GAMMA, T).value, rel=1e-4)
