"""The task records' state families against pair-space oracles built with np.kron and scipy.linalg.expm."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from fluxmet.dynamics import dephasing_kraus
from fluxmet.tasks import TASKS

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
# The (B, t, x - x_hat) grid of the unitary families: it holds a = 0 exactly (t = 0 or x = x_hat), generator
# norms |a| near 1e-8 and norms above 1e3, as the family test asserts.
FIELDS = (1e-4, 0.1, 60.0)
TIMES = (0.0, 1e-2, 1.0, 20.0)
DETUNINGS = (0.0, 1e-6, -0.3, 1.0)
TOL = 1e-12  # largest entry gap of a family's state from its oracle's, and of a p(+) from the state's


def _detuning_generator(task: str, B: float, t: float, x: float, x_hat: float) -> np.ndarray:
    """The 2x2 generator h of exp(-i h) on the probe: B t (sigma_n(x) - sigma_n(x_hat)) for the angle; for the
    frequency, the integral over [0, t] of B (sigma_n(d, tau) - sigma_n(0, tau)), d = x - x_hat, with
    sigma_n(d, tau) = cos(d tau) sigma1 - sin(d tau) sigma2: the detuning Hamiltonian in the control's frame."""
    if task == "theta":
        return B * t * ((np.cos(x) - np.cos(x_hat)) * SIGMA1 + (np.sin(x) - np.sin(x_hat)) * SIGMA3)
    d = x - x_hat
    if d == 0.0:
        return np.zeros((2, 2), dtype=complex)
    return B * ((np.sin(d * t) / d - t) * SIGMA1 - 2 * np.sin(d * t / 2) ** 2 / d * SIGMA2)  # 1 - cos = 2 sin^2


def _oracle_state(task: str, B: float, t: float, x: float, x_hat: float) -> np.ndarray:
    psi = scipy_expm(-1j * np.kron(_detuning_generator(task, B, t, x, x_hat), EYE2)) @ BELL
    return np.outer(psi, psi.conj())


def _grid(task: str):
    x_hat = TASKS[task].x_hat
    for B, t, d in itertools.product(FIELDS, TIMES, DETUNINGS):
        yield B, t, x_hat + d, x_hat


@pytest.mark.parametrize("task", ["theta", "omega"])
def test_unitary_family_matches_the_pair_space_exponential(task) -> None:
    norms = []
    for B, t, x, x_hat in _grid(task):
        h = _detuning_generator(task, B, t, x, x_hat)
        norms.append(np.sqrt(np.sum(np.abs(h) ** 2) / 2))  # |a| for h = a.sigma
        got = TASKS[task].unitary_family(B, t, x_hat)(x)
        gap = np.max(np.abs(got - _oracle_state(task, B, t, x, x_hat)))
        assert gap <= TOL, (B, t, x - x_hat, norms[-1], gap)
    norms = np.array(norms)
    assert np.any(norms == 0.0) and np.any((norms > 1e-9) & (norms < 1e-7)) and np.max(norms) > 1e3


@pytest.mark.parametrize("B, gamma", [(0.1, 0.05), (0.0, 0.3), (2.0, 0.0), (60.0, 1e-3)])
def test_free_family_matches_the_pair_space_kraus_sandwich(B, gamma) -> None:
    rho0 = np.outer(BELL, BELL.conj())
    for t, theta in itertools.product((0.0, 0.5, 5.0, 40.0), (0.0, 0.3, np.pi / 4, 1.4, -2.0)):
        want = sum(
            np.kron(k, EYE2) @ rho0 @ np.kron(k, EYE2).conj().T for k in dephasing_kraus(B, gamma, t, theta)
        )
        got = TASKS["theta"].free_family(B, gamma, t)(theta)
        assert np.max(np.abs(got - want)) <= TOL, (t, theta)


@pytest.mark.parametrize("task", ["theta", "omega"])
def test_unitary_outcome_law_is_the_bell_overlap_of_the_family(task) -> None:
    # The campaign's unitary p(+) and the gate's unitary family describe one state: p(+) = |<bell|psi(x)>|^2.
    record = TASKS[task]
    points = np.linspace(*record.prior, 9)
    for B, t, x, x_hat in itertools.product((0.1, 3.0), (0.5, 5.0, 20.0), points, points):
        want = np.vdot(BELL, record.unitary_family(B, t, x_hat)(x) @ BELL).real
        assert abs(record.p_plus_unitary(x, x_hat, B, t) - want) <= TOL, (B, t, x, x_hat)
