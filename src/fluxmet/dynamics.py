"""Physical models and their evolution.

Two built-in models on probe+ancilla (dim 4):

* ``theta_model`` -- static field axis at angle theta: H = B*sigma_n(theta),
  one Lindblad operator sqrt(gamma)*sigma_n(theta), ancilla idle.
* ``omega_model`` -- axis rotating in the XY plane at angular frequency
  omega: sigma_n(omega, t) = cos(omega t) sigma1 - sin(omega t) sigma2,
  which is sigma1 seen from the frame exp(+i omega t sigma3 / 2).

A model is data: constant matrices plus, for a rotating model, the diagonal
of the frame generator (see :func:`in_frame` and :meth:`LindbladModel.at`).
Deterministic evolution is fixed-step RK4 on the master equation
drho/dt = -i[H, rho] + sum_k (E_k rho E_k^dag - {E_k^dag E_k, rho}/2),
applied as one (d*d, d*d) step map in the model's frame: the equation is
linear, and its frame is the one in which every step is the same matrix.
The stochastic picture draws the accumulated phase Phi = B t + phi with
phi ~ Normal(0, gamma t) and averages pure-state trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, InstabilityError, StepError
from .qmat import eye2, kron, sigma1, sigma2, sigma3

_TRACE_TOL = 1e-6  # largest trace drift lindblad_evolve accepts after a step


def sigma_n_theta(theta: float) -> np.ndarray:
    """Field axis cos(theta) sigma1 + sin(theta) sigma3."""
    return np.cos(theta) * sigma1 + np.sin(theta) * sigma3


def sigma_n_theta_deriv(theta: float) -> np.ndarray:
    """d sigma_n / d theta = -sin(theta) sigma1 + cos(theta) sigma3."""
    return -np.sin(theta) * sigma1 + np.cos(theta) * sigma3


def sigma_n_omega(omega: float, t: float) -> np.ndarray:
    """Rotating axis cos(omega t) sigma1 - sin(omega t) sigma2."""
    return np.cos(omega * t) * sigma1 - np.sin(omega * t) * sigma2


def bell_probe() -> np.ndarray:
    """Maximally entangled probe (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


def rotating_frame(omega: float) -> np.ndarray:
    """Diagonal of (omega / 2) sigma3 x I: the frame of an axis rotating at omega."""
    return 0.5 * omega * np.array([1.0, 1.0, -1.0, -1.0])


def in_frame(op: np.ndarray, frame: np.ndarray | None, t: float) -> np.ndarray:
    """exp(iGt) op exp(-iGt) for the diagonal generator G = diag(frame).

    Elementwise, op_jk exp(i (g_j - g_k) t); ``op`` may be a stacked
    (..., d, d) batch, or a scalar that scales the phases.  A None frame
    leaves ``op`` as it is.
    """
    if frame is None:
        return op
    return op * np.exp(_frame_rate(frame) * t)


def _frame_rate(frame: np.ndarray) -> np.ndarray:
    """i (g_j - g_k): entry jk's phase rate in the frame of diagonal g."""
    return 1j * np.subtract.outer(frame, frame)


def _adjoint_terms(e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, E^dag, E^dag E): one Lindblad operator as the dissipator uses it."""
    e_dag = e.conj().T
    return e, e_dag, e_dag @ e


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian, Lindblad operators and optional parameter derivatives.

    Every operator is a matrix: its value at t = 0.  ``frame`` is None for a
    constant model; otherwise it is the real diagonal of a generator G, and
    an operator O stands for exp(iGt) O exp(-iGt) at time t.  Derivative
    slots hold d/dx and d^2/dx^2 of H and of each E_k at the operating
    point; the general engine alone needs them.  The field names other than
    ``frame`` are the keys of a model file.

    Construction derives what every integrator stage would otherwise
    rebuild: for a constant model H and the (E, E^dag, E^dag E) triples,
    for a framed one the phase rate i (g_j - g_k).  The first evolution at
    a step size dt also keeps that step's map.  Replace a field with
    ``dataclasses.replace``; an array changed in place leaves them stale.
    """

    dim: int
    hamiltonian: np.ndarray
    lindblads: list[np.ndarray]
    d_hamiltonian: np.ndarray | None = None
    d_lindblads: list[np.ndarray] | None = None
    dd_hamiltonian: np.ndarray | None = None
    dd_lindblads: list[np.ndarray] | None = None
    frame: np.ndarray | None = None

    def __post_init__(self) -> None:
        h0 = self.hamiltonian
        if not np.max(np.abs(h0 - h0.conj().T)) <= 1e-10:  # NaN fails too
            raise DomainError("hamiltonian is not Hermitian")
        for name in ("d_lindblads", "dd_lindblads"):
            derivs = getattr(self, name)
            if derivs is not None and len(derivs) != len(self.lindblads):
                raise DomainError(f"{name} length {len(derivs)} != {len(self.lindblads)} lindblads")
        rate = None if self.frame is None else _frame_rate(self.frame)
        constant = None if rate is not None else (h0, [_adjoint_terms(e) for e in self.lindblads])
        object.__setattr__(self, "_rate", rate)
        object.__setattr__(self, "_constant", constant)
        object.__setattr__(self, "_step_maps", {})

    def at(self, t: float, order: int = 0) -> tuple[np.ndarray, list[np.ndarray]]:
        """(H, [E_k]) at time t, or their ``order``-th parameter derivative.

        In a framed model the parameter is the frame frequency, so the
        derivative of order k also carries a factor t**k.
        """
        prefix = ("", "d_", "dd_")[order]
        h, ops = getattr(self, prefix + "hamiltonian"), getattr(self, prefix + "lindblads")
        if h is None or ops is None:
            which = ("", "first", "second")[order]
            raise ConfigError(
                f"model has no {which}-derivative operators", field=prefix + "hamiltonian"
            )
        if self.frame is None:
            return h, ops
        phase = t**order * np.exp(self._rate * t)  # t**k exp(i (g_j - g_k) t), entry jk
        return h * phase, [e * phase for e in ops]

    def _generator(self, t: float):
        """rho -> drho/dt at time t, from the operators built at construction
        (a constant model) or from the phases at t (a framed one)."""
        if self._constant is not None:
            h, terms = self._constant
        else:
            h, ops = self.at(t)
            terms = [_adjoint_terms(e) for e in ops]

        def rhs(rho: np.ndarray) -> np.ndarray:
            out = -1j * (h @ rho - rho @ h)
            for e, e_dag, ede in terms:
                out = out + e @ rho @ e_dag - 0.5 * (ede @ rho + rho @ ede)
            return out

        return rhs

    def _step_map(self, dt: float) -> np.ndarray:
        """The (d*d, d*d) matrix of one RK4 step of length dt in the model's frame.

        A row-major vectorised state steps as ``vec @ step``.  Row j is the
        lab-frame step from t = 0 applied to the j-th basis matrix.  Since
        L(t + s) = D_t L(s) D_-t with D_t = exp(iGt), every lab-frame step is
        that one conjugated by D_t, so in the frame it is one matrix: the
        step from 0 followed by in_frame(., frame, -dt).  Built once per dt.
        """
        step = self._step_maps.get(dt)
        if step is None:
            n = self.dim * self.dim
            basis = np.eye(n, dtype=complex).reshape(n, self.dim, self.dim)
            step = in_frame(_rk4_step(self._generator, basis, 0.0, dt), self.frame, -dt)
            step = self._step_maps[dt] = step.reshape(n, n)
        return step


def theta_model(B: float, gamma: float, theta: float) -> LindbladModel:
    """Probe+ancilla model with a static fluctuating field along sigma_n(theta).

    Parameters
    ----------
    B : float
        Field strength.
    gamma : float
        Fluctuation rate (>= 0); enters as Lindblad operator sqrt(gamma)*sigma_n.
    theta : float
        Field axis angle.
    """
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    sn = kron(sigma_n_theta(theta), eye2)
    sm = kron(sigma_n_theta_deriv(theta), eye2)
    root = np.sqrt(gamma)
    return LindbladModel(
        dim=4,
        hamiltonian=B * sn,
        lindblads=[root * sn],
        d_hamiltonian=B * sm,
        d_lindblads=[root * sm],
        dd_hamiltonian=-B * sn,
        dd_lindblads=[-root * sn],
    )


def omega_model(B: float, gamma: float, omega: float) -> LindbladModel:
    """Probe+ancilla model whose field axis rotates in the XY plane at omega.

    sigma_n(omega, t) = R sigma1 R^dag with R = exp(+i omega t sigma3 / 2),
    so the model is B sigma1 and sqrt(gamma) sigma1 in the frame
    G = (omega / 2) sigma3 x I.  d/domega brings down i t [sigma3 / 2, .],
    which takes sigma1 to -t sigma2 and sigma2 to t sigma1.
    """
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    root = np.sqrt(gamma)
    s1, s2 = kron(sigma1, eye2), kron(sigma2, eye2)
    return LindbladModel(
        dim=4,
        hamiltonian=B * s1,
        lindblads=[root * s1],
        d_hamiltonian=-B * s2,
        d_lindblads=[-root * s2],
        dd_hamiltonian=-B * s1,
        dd_lindblads=[-root * s1],
        frame=rotating_frame(omega),
    )


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def lindblad_rhs(model: LindbladModel, rho: np.ndarray, t: float) -> np.ndarray:
    return model._generator(t)(rho)


def _rk4_step(field, rho: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical RK4 step of drho/dt = field(t)(rho); both midpoint stages use one field."""
    k1 = field(t)(rho)
    mid = field(t + 0.5 * dt)
    k2 = mid(rho + 0.5 * dt * k1)
    k3 = mid(rho + 0.5 * dt * k2)
    k4 = field(t + dt)(rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def fixed_steps(t: float, dt: float) -> int:
    """Number of steps dt > 0 that make up the duration t >= 0.

    The one rule of every fixed-step loop: t is an integer multiple of dt
    (within 1e-9), and a positive t takes at least one step.
    """
    if not dt > 0:
        raise StepError(f"dt must be positive, got {dt}")
    if not t >= 0:
        raise DomainError(f"duration must be >= 0, got {t}")
    n_steps = int(round(t / dt))
    if abs(n_steps * dt - t) > 1e-9 or (n_steps == 0 and t > 0):
        raise StepError(f"duration t={t} is not an integer multiple of dt={dt}")
    return n_steps


def lindblad_evolve(
    model: LindbladModel, rho0: np.ndarray, t: float, dt: float = 1e-3, t0: float = 0.0
) -> np.ndarray:
    """Evolve ``rho0`` for duration ``t`` starting at absolute time ``t0``.

    RK4 at fixed step ``dt``, applied as the model's step map in its frame:
    the state enters the frame at t0 and leaves it at the end.  ``rho0`` is
    a (d, d) state or a stacked (..., d, d) batch; any other shape is a
    StepError.  Each step re-symmetrizes the state and checks that the trace
    drifts by at most 1e-6; the diagonal frame changes neither.
    """
    n_steps = fixed_steps(t, dt)
    rho = np.array(rho0, dtype=complex)
    d = model.dim
    if rho.shape[-2:] != (d, d):
        raise StepError(f"state shape {rho.shape} does not match model dim {d}")
    step = model._step_map(dt)
    shape, flat = rho.shape, rho.shape[:-2] + (d * d,)
    rho = in_frame(rho, model.frame, -t0)
    for k in range(n_steps):
        rho = (rho.reshape(flat) @ step).reshape(shape)
        rho = 0.5 * (rho + _dagger(rho))
        drift = np.abs(rho.trace(axis1=-2, axis2=-1).real - 1.0).max()
        if drift > _TRACE_TOL:
            raise InstabilityError(f"trace drifted by {drift:.3e} at step {k + 1}")
    return in_frame(rho, model.frame, t0 + n_steps * dt)


# ---------------------------------------------------------------------------
# Stochastic phase picture
# ---------------------------------------------------------------------------


def sample_phases(B: float, gamma: float, t: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized phase draws; deterministic for a fixed generator state."""
    if t < 0:
        raise DomainError(f"duration must be >= 0, got {t}")
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    if gamma * t == 0:
        return np.full(n, B * t)
    return B * t + rng.normal(0.0, np.sqrt(gamma * t), size=n)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Monte-Carlo state average with entrywise standard errors."""

    mean: np.ndarray
    sem_real: np.ndarray
    sem_imag: np.ndarray
    n: int


def _phase_states(theta: float, phis: np.ndarray) -> np.ndarray:
    """Pure states exp(-i Phi sigma_n x I)|bell> for a batch of phases."""
    psi0 = bell_probe()
    rotated = kron(sigma_n_theta(theta), eye2) @ psi0
    return np.cos(phis)[:, None] * psi0 - 1j * np.sin(phis)[:, None] * rotated


def trajectory_average_state(
    B: float, gamma: float, t: float, theta: float, n: int, rng: np.random.Generator
) -> TrajectoryEnsemble:
    """Average n sampled-phase pure states of the theta model Bell probe."""
    phis = sample_phases(B, gamma, t, n, rng)
    psi = _phase_states(theta, phis)
    projectors = psi[:, :, None] * psi[:, None, :].conj()
    mean = projectors.mean(axis=0)
    sem_real = projectors.real.std(axis=0, ddof=1) / np.sqrt(n)
    sem_imag = projectors.imag.std(axis=0, ddof=1) / np.sqrt(n)
    return TrajectoryEnsemble(mean=mean, sem_real=sem_real, sem_imag=sem_imag, n=n)


def trajectory_outcome_probability(
    B: float, gamma: float, t: float, beta: float, n: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo estimate of the first-outcome probability cos^2(Phi + beta)."""
    phis = sample_phases(B, gamma, t, n, rng)
    return float(np.mean(np.cos(phis + beta) ** 2))


def sample_omega_trajectories(
    B: float,
    gamma: float,
    omega: float,
    t: float,
    dt: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Euler-Maruyama pure-state trajectories for the rotating-axis model.

    Each step applies exp(-i (B dt + sqrt(gamma dt) N) sigma_n(omega, tau) x I)
    with the axis frozen at the left endpoint tau; the white-noise increments
    reproduce the master equation to first order in dt.  Returns an (n, 4)
    array of final states.
    """
    n_steps = fixed_steps(t, dt)
    psi = np.tile(bell_probe(), (n, 1))
    for k in range(n_steps):
        tau = k * dt
        angles = B * dt + np.sqrt(gamma * dt) * rng.normal(size=n)
        m = kron(sigma_n_omega(omega, tau), eye2)
        psi = np.cos(angles)[:, None] * psi - 1j * np.sin(angles)[:, None] * (psi @ m.T)
    return psi


def dephasing_kraus(B: float, gamma: float, t: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Kraus pair of the free theta-model channel on the probe spin.

    K1 = sqrt((1+eta)/2) exp(-i B sigma_n t) and
    K2 = sqrt((1-eta)/2) sigma_n exp(-i B sigma_n t), eta = exp(-2 gamma t);
    K1^dag K1 + K2^dag K2 = I exactly.
    """
    if t < 0:
        raise DomainError(f"duration must be >= 0, got {t}")
    if gamma < 0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    sn = sigma_n_theta(theta)
    u = np.cos(B * t) * eye2 - 1j * np.sin(B * t) * sn
    eta = np.exp(-2 * gamma * t)
    k1 = np.sqrt((1 + eta) / 2) * u
    k2 = np.sqrt((1 - eta) / 2) * (sn @ u)
    return k1, k2
