"""Physical models and their evolution.

Two built-in models on probe+ancilla (dim 4):

* ``theta_model`` -- static field axis at angle theta: H = B*sigma_n(theta),
  one Lindblad operator sqrt(gamma)*sigma_n(theta), ancilla idle.
* ``omega_model`` -- axis rotating in the XY plane at angular frequency
  omega: sigma_n(omega, t) = cos(omega t) sigma1 - sin(omega t) sigma2,
  which is sigma1 seen from the frame exp(+i omega t sigma3 / 2).

A model is data: constant matrices plus, for a rotating model, the diagonal
of the frame generator, whose phase rate :func:`in_frame` applies; every
frame change of a model or a code goes through it.  Deterministic evolution
is fixed-step RK4 on the master equation
drho/dt = -i[H, rho] + sum_k (E_k rho E_k^dag - {E_k^dag E_k, rho}/2)
(:class:`L2Action`, shared with ``qec``'s expansion), in the model's frame,
where every step is the same matrix.  :func:`_rk4_map` builds it,
:func:`_checked_map` makes it, or a recovery, one real matrix on the float64
view of the state that also applies the Hermitian projection and returns the
trace, and :func:`_block_map` makes k steps one matrix that returns each
step's trace.  :func:`_steps` steps one state by one ``ndarray.dot`` per block
of up to ``_BLOCK_STEPS`` steps, through :func:`_run`, the one checked loop,
which makes its row views once per run and takes a rotating code's interval
weights once per ``_CHUNK**2`` = 4096 products.
The stochastic picture draws the accumulated phase Phi = B t + phi with
phi ~ Normal(0, gamma t), in :func:`sample_phases` alone (the trajectory
CFI of ``metrology`` draws through it), and averages pure-state trajectories.
Every refusal of a duration, rate, field, angle or frequency is :func:`_check_domain`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, InstabilityError, LeakageError, StepError
from .qmat import eye2, kron, sigma1, sigma2, sigma3

_TRACE_TOL = 1e-6  # largest trace drift a step, or trace loss a recovery, may show
_BLOCK_STEPS = 16  # most RK4 steps one product applies (CHANGES.md has the sweep)
_CHUNK = 64  # most products of a run whose check columns one read takes
_FINITE = -float(np.finfo(float).max)  # the least finite float, _check_domain's finite-only bound
_REAL, _COMPLEX = np.dtype(np.float64), np.dtype(complex)  # the two views of a state's rows


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
    _check_domain("omega", omega, _FINITE)
    return 0.5 * omega * np.array([1.0, 1.0, -1.0, -1.0])


def in_frame(op: np.ndarray, rate: np.ndarray | None, t: float) -> np.ndarray:
    """exp(iGt) op exp(-iGt) for a diagonal generator G, given its phase rate.

    ``rate`` is the (d, d) matrix i (g_j - g_k) that a model or code keeps
    as ``_rate``, so entry jk becomes op_jk exp(i (g_j - g_k) t); ``op`` may
    be a stacked (..., d, d) batch, or a scalar that scales the phases.  A
    None rate, or t = 0, where every phase is exactly 1, returns ``op``
    itself; any other t that is not finite is a DomainError.
    """
    if rate is None or t == 0:
        return op
    _check_domain("frame time", t, _FINITE)
    return op * np.exp(rate * t)


def _frame_rate(frame: np.ndarray) -> np.ndarray:
    """i (g_j - g_k): entry jk's phase rate in the frame of diagonal g."""
    return 1j * np.subtract.outer(frame, frame)


@dataclass(frozen=True)
class L2Action:
    """A linear map on states in explicit commutator-plus-Kraus form.

    apply(rho) = -i[generator, rho]
                 + sum_k (a_k rho a_k^dag - {anti_k, rho}/2)
                 + sum_kj b_kj rho b_kj^dag

    With anti_k = a_k^dag a_k and no b it is a model's GKLS generator;
    ``qec``'s general engine fills every slot for its second-order term.
    """

    generator: np.ndarray
    kraus_a: list[np.ndarray]
    anticommutators: list[np.ndarray]
    kraus_b: list[np.ndarray]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = -1j * (self.generator @ rho - rho @ self.generator)
        for a, g in zip(self.kraus_a, self.anticommutators):
            out = out + a @ rho @ a.conj().T - 0.5 * (g @ rho + rho @ g)
        for b in self.kraus_b:
            out = out + b @ rho @ b.conj().T
        return out


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian, Lindblad operators and optional parameter derivatives.

    Every operator is a matrix: its value at t = 0.  ``frame`` is None for a
    constant model; otherwise it is the real diagonal of a generator G, and
    an operator O stands for exp(iGt) O exp(-iGt) at time t.  Derivative
    slots hold d/dx and d^2/dx^2 of H and of each E_k at the operating
    point; the general engine alone needs them.  The field names other than
    ``frame`` are the keys of a model file.

    Construction derives a framed model's phase rate i (g_j - g_k); the map
    cache fills as the model evolves: dt -> {k: checked map of k steps}.
    Replace a field with ``dataclasses.replace``; an array changed in place
    leaves them stale.
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
        object.__setattr__(self, "_rate", rate)
        object.__setattr__(self, "_maps", {})

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
        if self._rate is None:
            return h, ops
        phase = in_frame(t**order, self._rate, t)  # t**k exp(i (g_j - g_k) t), entry jk
        return h * phase, [e * phase for e in ops]

    def _generator(self, t: float):
        """rho -> drho/dt at time t: the :class:`L2Action` of the operators at t."""
        h, ops = self.at(t)
        return L2Action(h, ops, [e.conj().T @ e for e in ops], []).apply

    def _maps_at(self, dt: float) -> dict[int, np.ndarray]:
        """The checked maps of k RK4 steps of length dt in the model's frame, keyed by k.

        Since L(t + s) = D_t L(s) D_-t with D_t = exp(iGt), every step in the
        frame is the step from 0 followed by in_frame(., rate, -dt).  Entry 1
        is built once per dt; :func:`_block_map` adds the others.
        """
        maps = self._maps.get(dt)
        if maps is None:
            d, n = self.dim, self.dim * self.dim
            lab = _rk4_map(self._generator, d, dt).reshape(n, d, d)
            framed = in_frame(lab, self._rate, -dt).reshape(n, n)
            maps = self._maps[dt] = {1: _checked_map(framed, d)}
        return maps


def theta_model(B: float, gamma: float, theta: float) -> LindbladModel:
    """Static-axis model: H = B sigma_n(theta), one Lindblad operator sqrt(gamma) sigma_n(theta)."""
    _check_domain("B", B, _FINITE)
    _check_domain("theta", theta, _FINITE)
    _check_domain("gamma", gamma)
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
    _check_domain("B", B, _FINITE)
    _check_domain("gamma", gamma)
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


def _checked_map(linear: np.ndarray, d: int, minus_input_trace: bool = False) -> np.ndarray:
    """The real (2 d^2, 2 d^2 + 1) matrix of one checked linear step on (d, d) states.

    ``linear`` is a complex (d^2, d^2) map under which a row-major
    vectorised state steps as ``vec @ linear``.  The real matrix acts on the
    (1, 2 d^2) float64 view of that row: its first 2 d^2 columns apply
    ``linear`` and then the Hermitian projection (rho + rho^dag) / 2, which
    is real-linear, and its last column returns the output's real trace,
    less the input's if ``minus_input_trace``.  Columns (a, b) and (b, a)
    are equal, or negatives for the imaginary parts, bit for bit; the states
    are exactly Hermitian only if the BLAS treats equal columns alike, which
    ``test_every_returned_state_is_exactly_hermitian`` checks (Havel,
    J. Math. Phys. 44, 534 (2003)).
    """
    n = d * d
    real = np.empty((n, 2, n, 2))  # [input entry, input re/im, output entry, output re/im]
    real[:, 0, :, 0] = real[:, 1, :, 1] = linear.real
    real[:, 0, :, 1] = linear.imag
    real[:, 1, :, 0] = -linear.imag
    mirror = real[:, :, np.arange(n).reshape(d, d).T.ravel()]  # output entry (b, a)
    folded = (0.5 * (real + mirror * [1.0, -1.0])).reshape(2 * n, 2 * n)
    diagonal = slice(0, 2 * n, 2 * (d + 1))  # real parts of the entries (a, a)
    trace = folded[:, diagonal].sum(axis=1)
    if minus_input_trace:
        trace[diagonal] -= 1.0
    return np.column_stack([folded, trace])


def _block_map(maps: dict[int, np.ndarray], k: int) -> np.ndarray:
    """``maps[k]``: k checked maps ``maps[1]`` in turn as one real matrix, built at its first use.

    ``maps[1]`` is (w, w + c): a state block and c check columns, such as a
    step's trace.  ``maps[k]`` is the state block's k-th power, then the
    checks of each map j = 1..k carried back through the j - 1 before it.
    """
    if k not in maps:
        states, checks = np.hsplit(maps[1], [maps[1].shape[0]])
        power, carried = states, [checks]
        for _ in range(k - 1):
            carried.append(power @ checks)
            power = power @ states
        maps[k] = np.column_stack([power, *carried])
    return maps[k]


def _rk4_step(field, rho: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical RK4 step of drho/dt = field(t)(rho); both midpoint stages use one field."""
    k1 = field(t)(rho)
    mid = field(t + 0.5 * dt)
    k2 = mid(rho + 0.5 * dt * k1)
    k3 = mid(rho + 0.5 * dt * k2)
    k4 = field(t + dt)(rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _rk4_map(field, d: int, dt: float) -> np.ndarray:
    """The (d*d, d*d) matrix of one RK4 step from t = 0 of a linear field on (d, d) matrices.

    Row j is the step applied to the j-th basis matrix, so a row-major
    vectorised state steps as ``vec @ step``.
    """
    n = d * d
    basis = np.eye(n, dtype=complex).reshape(n, d, d)
    return _rk4_step(field, basis, 0.0, dt).reshape(n, n)


def _check_domain(name: str, value: float, least: float = 0.0) -> None:
    """The package's one refusal of an input: DomainError unless ``value`` is finite
    and >= ``least``, which is 0 for a duration or a rate and ``_FINITE`` otherwise."""
    if not least <= value < np.inf:  # NaN fails too
        raise DomainError(f"{name} must be {'>= 0 and ' if least == 0 else ''}finite, got {value}")


def fixed_steps(t: float, dt: float) -> int:
    """Number of steps dt > 0 that make up the finite duration t >= 0.

    The one rule of every fixed-step loop: t is an integer multiple of dt
    (within 1e-9), and a positive t takes at least one step.
    """
    if not dt > 0:
        raise StepError(f"dt must be positive, got {dt}")
    _check_domain("duration", t)
    n_steps = int(round(t / dt))
    if abs(n_steps * dt - t) > 1e-9 or (n_steps == 0 and t > 0):
        raise StepError(f"duration t={t} is not an integer multiple of dt={dt}")
    return n_steps


def lindblad_evolve(
    model: LindbladModel, rho0: np.ndarray, t: float, dt: float = 1e-3, t0: float = 0.0
) -> np.ndarray:
    """Evolve ``rho0`` for duration ``t`` starting at absolute time ``t0``.

    RK4 at fixed step ``dt`` in the model's frame, through :func:`_steps`:
    the state enters it by :func:`in_frame` at t0 and leaves it the same
    way at the end.  A non-finite t0 is a DomainError for every model.
    ``rho0`` is one (d, d) state; any other shape is a DimensionError.  A
    zero duration returns a copy.
    """
    _check_domain("frame time", t0, _FINITE)
    n_steps = fixed_steps(t, dt)
    rho = np.ascontiguousarray(rho0, dtype=_COMPLEX)
    d, rate = model.dim, model._rate
    if rho.shape != (d, d):
        raise DimensionError(f"state shape {rho.shape} does not match model dim {d}")
    if n_steps == 0:
        return rho.copy()
    out = _steps(in_frame(rho, rate, -t0), model._maps_at(dt), n_steps)
    return in_frame(out, rate, t0 + n_steps * dt)


def _steps(rho: np.ndarray, maps: dict[int, np.ndarray], n_steps: int) -> np.ndarray:
    """``n_steps`` checked steps of one C-contiguous complex (d, d) state, one product per block.

    Each block of up to ``_BLOCK_STEPS`` steps is one ``ndarray.dot`` of the state's float64 row and its
    :func:`_block_map`; past 8 blocks, about :func:`_run`'s fixed cost, all but the last go through it.
    """
    width, done, out = 2 * rho.size, 0, rho
    if n_steps > 8 * _BLOCK_STEPS:
        done = (n_steps - 1) // _BLOCK_STEPS * _BLOCK_STEPS
        out = _run(rho, _block_map(maps, _BLOCK_STEPS), done // _BLOCK_STEPS, n_steps)
    while done < n_steps:
        k = min(_BLOCK_STEPS, n_steps - done)
        out = np.ndarray((width,), _REAL, out).dot(_block_map(maps, k))
        for j in range(width, width + k):  # the trace after each step of the block
            if not abs(out.item(j) - 1.0) <= _TRACE_TOL:  # a NaN drift fails too
                _read_checks(out[None, width:], done, n_steps)
        done += k
    return np.ndarray(rho.shape, _COMPLEX, out)


def _run(rho: np.ndarray, maps: np.ndarray, n: int, s: int, weights=None) -> np.ndarray:
    """``n`` products of a (d, d) state's float64 row with a (w, w + c) checked map, or, given ``weights``, with
    the stack ``maps`` weighted by the (m, q) ``weights(k, m)`` for m products from k, taken once per
    ``_CHUNK**2`` products and combined per chunk.  Each is one ``ndarray.dot`` of row views made once per run
    into a row of a ``_CHUNK``-row buffer, whose checks :func:`_read_checks` reads after the chunk: a failing
    run goes on to its chunk's end."""
    w, buf = 2 * rho.size, np.empty((min(n, _CHUNK), maps.shape[-1]))
    tables = [maps] * len(buf) if weights is None else np.empty((len(buf), *maps.shape[1:]))  # reused: no page faults
    ins, outs, blocks = [rho.view(_REAL).ravel(), *buf[:-1, :w]], list(buf), list(tables)
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n, _CHUNK):
            m, at = min(_CHUNK, n - first), first % _CHUNK**2
            if weights is not None:
                if at == 0:  # one weights call per _CHUNK**2 products, so memory does not grow with n
                    weight_block = weights(first, min(_CHUNK**2, n - first))
                np.matmul(weight_block[at : at + m], maps.reshape(len(maps), -1), out=tables[:m].reshape(m, -1))
            for row, out, table in zip(ins, outs[:m], blocks):
                row.dot(table, out)
            ins[0] = buf[-1, :w]  # the next chunk's first input: this chunk's last output
            _read_checks(buf[:m, w:], first * (buf.shape[1] - w), s)
    return buf[m - 1, :w].copy().view(_COMPLEX).reshape(rho.shape)


def _read_checks(checks: np.ndarray, offset: int, s: int) -> None:
    """Raise for the first of the (n, c) ``checks``, the run's from ``offset`` on, off its target by more than
    ``_TRACE_TOL``: s step traces (1), then a recovery's loss (0); s = n for n plain steps, 0 for a recovery."""
    targets = np.ones(checks.shape[1])
    targets[s :: s + 1] = 0.0
    gaps = np.abs(checks - targets)  # no compare while passing: its first use pages in 256 KB of numpy
    if not gaps.max() <= _TRACE_TOL:  # a NaN gap fails too
        j = int(np.argmax(~(gaps <= _TRACE_TOL)))
        i, value = offset + j, checks.flat[j]
        if i % (s + 1) < s:
            raise InstabilityError(f"trace drifted by {abs(value - 1.0):.3e} at step {i % (s + 1) + 1}")
        raise LeakageError(f"recovery lost trace {abs(value):.3e}: error space not fully spanned")


# ---------------------------------------------------------------------------
# Stochastic phase picture
# ---------------------------------------------------------------------------


def sample_phases(B: float, gamma: float, t: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized phase draws; deterministic for a fixed generator state."""
    _check_domain("duration", t)
    _check_domain("gamma", gamma)
    _check_domain("B", B, _FINITE)
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


def trajectory_average_state(
    B: float, gamma: float, t: float, theta: float, n: int, rng: np.random.Generator
) -> TrajectoryEnsemble:
    """Average n sampled-phase pure states exp(-i Phi sigma_n x I)|bell> of the theta model."""
    phis = sample_phases(B, gamma, t, n, rng)
    psi0 = bell_probe()
    rotated = kron(sigma_n_theta(theta), eye2) @ psi0
    psi = np.cos(phis)[:, None] * psi0 - 1j * np.sin(phis)[:, None] * rotated
    projectors = psi[:, :, None] * psi[:, None, :].conj()
    mean = projectors.mean(axis=0)
    sem_real = projectors.real.std(axis=0, ddof=1) / np.sqrt(n)
    sem_imag = projectors.imag.std(axis=0, ddof=1) / np.sqrt(n)
    return TrajectoryEnsemble(mean=mean, sem_real=sem_real, sem_imag=sem_imag, n=n)


def trajectory_outcome_probability(
    B: float, gamma: float, t: float, beta: float, n: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo estimate of the first-outcome probability cos^2(Phi + beta)."""
    _check_domain("beta", beta, _FINITE)
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
    _check_domain("gamma", gamma)
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
    _check_domain("duration", t)
    _check_domain("gamma", gamma)
    _check_domain("B", B, _FINITE)
    _check_domain("theta", theta, _FINITE)
    sn = sigma_n_theta(theta)
    u = np.cos(B * t) * eye2 - 1j * np.sin(B * t) * sn
    eta = np.exp(-2 * gamma * t)
    k1 = np.sqrt((1 + eta) / 2) * u
    k2 = np.sqrt((1 - eta) / 2) * (sn @ u)
    return k1, k2
