"""The lab-frame RK4 loop, rebuilt from a model's operators at every step: the reference of ``lindblad_evolve``."""

from __future__ import annotations

import numpy as np

from fluxmet.dynamics import L2Action, fixed_steps


def rk4_step(field, rho: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical RK4 step of drho/dt = field(t)(rho); both midpoint stages use one field."""
    k1 = field(t)(rho)
    mid = field(t + 0.5 * dt)
    k2 = mid(rho + 0.5 * dt * k1)
    k3 = mid(rho + 0.5 * dt * k2)
    k4 = field(t + dt)(rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def field(model):
    # t -> the master equation of the model's operators at t, as their L2Action's apply.
    def at(t: float):
        h, ops = model.at(t)
        return L2Action(h, ops, [e.conj().T @ e for e in ops], []).apply

    return at


def lab_frame_evolve(model, rho0, t: float, dt: float, t0: float = 0.0) -> np.ndarray:
    # The lab-frame RK4 loop: every step rebuilds the generator at its own
    # times, then re-symmetrises.
    rho = np.array(rho0, dtype=complex)
    for k in range(fixed_steps(t, dt)):
        rho = rk4_step(field(model), rho, t0 + k * dt, dt)
        rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    return rho
