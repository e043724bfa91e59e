"""The angle and the frequency task as data, one :class:`Task` record each.

Fluctuation along a parameter-dependent axis adds Fisher information to both
tasks: 4 gamma t for the field angle theta (static axis), (4/3) gamma t^3 for
the rotation frequency omega (rotating axis).  What tells the two apart is
kept here, once, or in the ``metrology.Coherence`` a record names; ``estimation``
and ``cli`` take a task name and look its record up with :func:`task_record`.
The gate's state families are built from 2x2 probe operators K: (K x I)|bell> = vec(K)/sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import dephasing_kraus
from .errors import DomainError
from .metrology import (
    OMEGA_COHERENCE,
    THETA_COHERENCE,
    Coherence,
    FisherResult,
    _f1,
    _g1,
    qfi_omega_qec_closed,
    qfi_omega_unitary_controlled,
    qfi_theta_free_closed,
    qfi_theta_qec_closed,
    qfi_theta_unitary_controlled,
)
from .qec import corrected_state_omega_closed, corrected_state_theta_closed
from .qmat import eye2, sigma1, sigma2, sigma3

STRATEGIES = ("qec_corrected", "unitary_controlled")
_QEC = STRATEGIES[0]

StateFamily = Callable[[float], np.ndarray]


@dataclass(frozen=True)
class Task:
    """What differs between the angle and the frequency task.

    Estimation: the corrected family's ``coherence`` (its p(+) is
    ``coherence.p_plus(x, x_hat, B, gamma, t)``), the unitary p(+)
    ``p_plus_unitary(x, x_hat, B, t)``, the (lo, hi) ``prior`` that the
    default likelihood grid spans and :meth:`information`.
    Sweep: the closed forms ``qec_closed``, ``unitary_closed`` and
    ``free_closed`` (None: no free column), checked at ``x_hat`` against the
    SLD route on ``corrected_state``, ``unitary_family`` and ``free_family``.
    """

    name: str
    label: str
    symbol: str
    coherence: Coherence
    p_plus_unitary: Callable
    prior: tuple[float, float]
    x_hat: float
    qec_closed: Callable[..., FisherResult]
    unitary_closed: Callable[..., FisherResult]
    corrected_state: Callable[..., np.ndarray]
    unitary_family: Callable[..., StateFamily]
    free_closed: Callable[..., FisherResult] | None = None
    free_family: Callable[..., StateFamily] | None = None

    def information(self, strategy: str, B: float, gamma: float, t: float) -> float:
        """Zero-detuning J per shot; unitary control is the corrected case at gamma = 0."""
        return self.coherence.information(B, gamma if strategy == _QEC else 0.0, t)


def _p_plus_theta_unitary(theta, theta_hat, B: float, t: float):
    # Effective detuning Hamiltonian B(sigma_n - sigma_n_hat) has eigenphase
    # B*sqrt(2 - 2 cos d) per unit time.
    phase = B * t * np.sqrt(np.maximum(2.0 - 2.0 * np.cos(theta - theta_hat), 0.0))
    return np.square(np.cos(phase))


def _p_plus_omega_unitary(omega, omega_hat, B: float, t: float):
    # First-order average of the detuning Hamiltonian in the control frame:
    # |integral of (n(a,tau) - n(0,tau))| = t*sqrt(g1(at)^2 + (at)^2 f1(at)^2).
    z = (omega - omega_hat) * t
    r = t * np.sqrt(np.square(_g1(z)) + z * z * np.square(_f1(z)))
    return np.square(np.cos(B * r))


def _theta_free_family(B: float, gamma: float, t: float) -> StateFamily:
    def state(th: float) -> np.ndarray:
        # sum_k (K_k x I)|bell><bell|(K_k x I)^dag, with (K x I)|bell> = vec(K)/sqrt(2).
        vecs = np.reshape(dephasing_kraus(B, gamma, t, th), (2, 4))
        return vecs.T @ vecs.conj() / 2

    return state


def _rotated_bell(axis: Callable[[float], np.ndarray]) -> StateFamily:
    """x -> vec(U) vec(U)^dag / 2, the Bell probe under U x I, for U = exp(-i axis(x).sigma) and a real axis."""

    def state(x: float) -> np.ndarray:
        a = axis(x)  # real: U = cos|a| I - i (sin|a|/|a|) a.sigma, exact at a = 0 through np.sinc
        norm = np.sqrt(a @ a)
        u = np.cos(norm) * eye2 - 1j * np.sinc(norm / np.pi) * (a[0] * sigma1 + a[1] * sigma2 + a[2] * sigma3)
        return np.outer(u, u.conj()) / 2

    return state


def _theta_unitary_family(B: float, t: float, theta_hat: float) -> StateFamily:
    n_hat = np.array([np.cos(theta_hat), 0.0, np.sin(theta_hat)])  # sigma_n_theta(theta_hat)'s axis
    return _rotated_bell(lambda th: B * t * (np.array([np.cos(th), 0.0, np.sin(th)]) - n_hat))


def _omega_unitary_family(B: float, t: float, omega_hat: float) -> StateFamily:
    def axis(om: float) -> np.ndarray:
        # Control-frame average of the detuning Hamiltonian, time pre-integrated into the axis components.
        a = om - omega_hat
        return B * np.array([-t * _g1(a * t), -a * t * t * _f1(a * t), 0.0])

    return _rotated_bell(axis)


TASKS: dict[str, Task] = {
    "theta": Task(
        name="theta",
        label="angle",
        symbol="dtheta",
        coherence=THETA_COHERENCE,
        p_plus_unitary=_p_plus_theta_unitary,
        prior=(0.0, np.pi / 2),
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
        coherence=OMEGA_COHERENCE,
        p_plus_unitary=_p_plus_omega_unitary,
        prior=(0.0, 1.0),
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
