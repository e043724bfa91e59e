"""The angle and the frequency task as data, one :class:`Task` record each.

Fluctuation along a parameter-dependent axis adds Fisher information to both
tasks: 4 gamma t for the field angle theta (static axis), (4/3) gamma t^3 for
the rotation frequency omega (rotating axis).  What tells the two apart is
kept here, once; ``estimation`` and ``cli`` take a task name and look its
record up with :func:`task_record`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import bell_probe, dephasing_kraus, sigma_n_theta
from .errors import DomainError
from .metrology import (
    FisherResult,
    _f1,
    _g1,
    omega_frame_decay,
    omega_frame_phase,
    qfi_omega_qec_closed,
    qfi_omega_unitary_controlled,
    qfi_theta_free_closed,
    qfi_theta_qec_closed,
    qfi_theta_unitary_controlled,
)
from .qec import corrected_state_omega_closed, corrected_state_theta_closed
from .qmat import expm, eye2, kron, sigma1, sigma2

STRATEGIES = ("qec_corrected", "unitary_controlled")
_QEC = STRATEGIES[0]

StateFamily = Callable[[float], np.ndarray]


@dataclass(frozen=True)
class Task:
    """What differs between the angle and the frequency task.

    Estimation: the outcome probabilities ``p_plus(x, x_hat, B, gamma, t)``
    and ``p_plus_unitary(x, x_hat, B, t, square=np.square)`` (``square``
    squares elementwise: y * y by default), the (lo, hi, res) grid, the
    likelihood phase per unit of parameter ``phase_scale(B, t)`` and the
    zero-detuning information ``information(strategy, B, gamma, t)``.  Sweep:
    the closed forms ``qec_closed``, ``unitary_closed`` and ``free_closed``
    (None: no free column), checked at ``x_hat`` against the SLD route on
    ``corrected_state``, ``unitary_family`` and ``free_family``.
    """

    name: str
    label: str
    symbol: str
    p_plus: Callable
    p_plus_unitary: Callable
    default_grid: tuple[float, float, float]
    phase_scale: Callable[[float, float], float]
    information: Callable[[str, float, float, float], float]
    x_hat: float
    qec_closed: Callable[..., FisherResult]
    unitary_closed: Callable[..., FisherResult]
    corrected_state: Callable[..., np.ndarray]
    unitary_family: Callable[..., StateFamily]
    free_closed: Callable[..., FisherResult] | None = None
    free_family: Callable[..., StateFamily] | None = None


def _p_plus_theta(theta, theta_hat, B: float, gamma: float, t: float):
    d = np.sin(theta - theta_hat)
    return 0.5 * (1.0 + np.exp(-2.0 * t * gamma * d * d) * np.cos(2.0 * B * t * d))


def _p_plus_theta_unitary(theta, theta_hat, B: float, t: float, square=np.square):
    # Effective detuning Hamiltonian B(sigma_n - sigma_n_hat) has eigenphase
    # B*sqrt(2 - 2 cos d) per unit time.
    phase = B * t * np.sqrt(np.maximum(2.0 - 2.0 * np.cos(theta - theta_hat), 0.0))
    return square(np.cos(phase))


def _p_plus_omega(omega, omega_hat, B: float, gamma: float, t: float):
    a = omega - omega_hat
    return 0.5 * (
        1.0 + np.exp(-omega_frame_decay(gamma, a, t)) * np.cos(omega_frame_phase(B, a, t))
    )


def _p_plus_omega_unitary(omega, omega_hat, B: float, t: float, square=np.square):
    # First-order average of the detuning Hamiltonian in the control frame:
    # |integral of (n(a,tau) - n(0,tau))| = t*sqrt(g1(at)^2 + (at)^2 f1(at)^2).
    z = (omega - omega_hat) * t
    r = t * np.sqrt(square(_g1(z)) + z * z * square(_f1(z)))
    return square(np.cos(B * r))


def _theta_free_family(B: float, gamma: float, t: float) -> StateFamily:
    bell = bell_probe()
    rho0 = np.outer(bell, bell.conj())

    def state(th: float) -> np.ndarray:
        out = np.zeros_like(rho0)
        for k2 in dephasing_kraus(B, gamma, t, th):
            k4 = kron(k2, eye2)
            out += k4 @ rho0 @ k4.conj().T
        return out

    return state


def _theta_unitary_family(B: float, t: float, theta_hat: float) -> StateFamily:
    bell = bell_probe()
    sn_hat = kron(sigma_n_theta(theta_hat), eye2)

    def state(th: float) -> np.ndarray:
        h = B * (kron(sigma_n_theta(th), eye2) - sn_hat)
        psi = expm(-1j * t * h) @ bell
        return np.outer(psi, psi.conj())

    return state


def _omega_unitary_family(B: float, t: float, omega_hat: float) -> StateFamily:
    bell = bell_probe()

    def state(om: float) -> np.ndarray:
        # Control-frame average of the detuning Hamiltonian, time
        # pre-integrated into the axis components.
        a = om - omega_hat
        z = a * t
        v1 = -t * _g1(z)
        v2 = -a * t * t * _f1(z)
        psi = expm(-1j * B * kron(v1 * sigma1 + v2 * sigma2, eye2)) @ bell
        return np.outer(psi, psi.conj())

    return state


TASKS: dict[str, Task] = {
    "theta": Task(
        name="theta",
        label="angle",
        symbol="dtheta",
        p_plus=_p_plus_theta,
        p_plus_unitary=_p_plus_theta_unitary,
        default_grid=(0.0, np.pi / 2, 1e-4),
        phase_scale=lambda B, t: B * t,
        information=lambda s, B, g, t: 4 * B * B * t * t + (4 * g * t if s == _QEC else 0.0),
        x_hat=np.pi / 4,
        qec_closed=qfi_theta_qec_closed,
        unitary_closed=qfi_theta_unitary_controlled,
        corrected_state=corrected_state_theta_closed,
        unitary_family=_theta_unitary_family,
        free_closed=qfi_theta_free_closed,
        free_family=_theta_free_family,
    ),
    "omega": Task(
        name="omega",
        label="frequency",
        symbol="domega",
        p_plus=_p_plus_omega,
        p_plus_unitary=_p_plus_omega_unitary,
        default_grid=(0.0, 1.0, 1e-4),
        phase_scale=lambda B, t: B * t * t,
        information=lambda s, B, g, t: (
            B * B * t**4 + ((4.0 / 3.0) * g * t**3 if s == _QEC else 0.0)
        ),
        x_hat=0.5,
        qec_closed=qfi_omega_qec_closed,
        unitary_closed=qfi_omega_unitary_controlled,
        corrected_state=corrected_state_omega_closed,
        unitary_family=_omega_unitary_family,
    ),
}


def task_record(name: str) -> Task:
    """The record of task ``name``; DomainError for a name not in ``TASKS``."""
    if name not in TASKS:
        raise DomainError(f"unknown task {name!r}; expected one of {tuple(TASKS)}")
    return TASKS[name]
