"""Physical models and their evolution.

Two built-in models on probe+ancilla (dim 4):

* ``theta_model`` -- static field axis at angle theta: H = B*sigma_n(theta),
  one Lindblad operator sqrt(gamma)*sigma_n(theta), ancilla idle.
* ``omega_model`` -- axis rotating in the XY plane at angular frequency
  omega: sigma_n(omega, t) = cos(omega t) sigma1 - sin(omega t) sigma2,
  which is sigma1 seen from the frame exp(+i omega t sigma3 / 2).

A model is data: constant matrices plus, for a rotating model, the diagonal of the frame generator, whose phase
rate :func:`in_frame` applies to every frame change of a model or a code.  Deterministic evolution is fixed-step
RK4 on drho/dt = -i[H, rho] + sum_k (E_k rho E_k^dag - {E_k^dag E_k, rho}/2) (:class:`L2Action`), in the model's
frame, where every step is the same matrix.  A step, a recovery or any product of them is one checked real map on
the state's float64 row with the same three check columns (:func:`_checked_map`, :func:`_block_map`), and
:func:`_run` screens them per chunk of products and replays a failing product to name the step that failed.
The stochastic picture draws the accumulated phase Phi = B t + phi with phi ~ Normal(0, gamma t), in
:func:`sample_phases` alone, and averages pure-state trajectories.
Every refusal of a duration, rate, draw count, field, angle or frequency is :func:`_check_domain`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, InstabilityError, LeakageError, StepError
from .qmat import eye2, kron, sigma1, sigma2, sigma3

_TRACE_TOL = 1e-6  # largest trace drift a step, or trace loss a recovery, may show
_BLOCK_STEPS = 16  # most RK4 steps one product applies (CHANGES.md has the sweep)
_CHUNK = 64  # most products of a run whose check columns one screen reads
# Targets and largest gaps of the checks that end every checked map: the trace and the witness after its last
# step, and the trace its recoveries lost, which a recovery's map returns alone.
_TARGET, _LIMIT = np.array([1.0, 0.0, 0.0]), np.array([_TRACE_TOL, 1.0 + _TRACE_TOL, _TRACE_TOL])
_FINITE = -float(np.finfo(float).max)  # the least finite float, _check_domain's finite-only bound
_REAL, _COMPLEX = np.dtype(np.float64), np.dtype(complex)  # the two views of a state's rows
_SIGMA1_I, _SIGMA2_I = kron(sigma1, eye2), kron(sigma2, eye2)  # the rotating model's axis and its derivative's


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

    ``rate`` is the (d, d) matrix i (g_j - g_k) that a model or code keeps as ``_rate``, so entry jk becomes
    op_jk exp(i (g_j - g_k) t); ``op`` may be a stacked (..., d, d) batch, or a scalar that scales the phases.
    A None rate, or t = 0, where every phase is exactly 1, returns ``op`` itself; another non-finite t is a
    DomainError.
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
    ``matrix()`` is the same map as the superoperator that RK4 steps build on.
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

    def matrix(self) -> np.ndarray:
        """The (d^2, d^2) M with vec(rho) @ M == vec(apply(rho)) for row-major vec: a rho b is entry
        ((i, j), (k, l)) = a[k, i] b[j, l], for the left factor -i G - sum anti / 2, the right factor
        +i G - sum anti / 2 and each Kraus pair (a, a^dag), by broadcasting."""
        d = len(self.generator)
        eye, anti = np.eye(d), 0.5 * sum(self.anticommutators, np.zeros((d, d)))
        pairs = [(-1j * self.generator - anti, eye), (eye, 1j * self.generator - anti)]
        pairs += [(a, a.conj().T) for a in (*self.kraus_a, *self.kraus_b)]
        return sum(a.T[:, None, :, None] * b[None, :, None, :] for a, b in pairs).reshape(d * d, d * d)


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

    def _maps_at(self, dt: float) -> dict[int, np.ndarray]:
        """The checked maps of k RK4 steps of length dt in the model's frame, keyed by k.

        Since L(t) = D_t L(0) D_-t with D_t = exp(iGt), L at a stage time tau is L(0)'s
        entry (a, b) times conj(p_a) p_b, p the raveled in_frame(1, rate, tau), and a step in
        the frame is the step from 0 left by p(dt)'s conjugate; a static model's is l0's alone.
        Entry 1 is built once per dt from one ``at(0)``; :func:`_block_map` adds the others.
        """
        maps = self._maps.get(dt)
        if maps is None:
            h, ops = self.at(0.0)
            l0 = L2Action(h, ops, [e.conj().T @ e for e in ops], []).matrix()
            mid, end = (np.ravel(in_frame(1.0, self._rate, tau)) for tau in (0.5 * dt, dt))
            stages = (l0 * np.multiply.outer(p.conj(), p) for p in (mid, end))
            step = _rk4_map(l0, l0, l0, dt) if self._rate is None else _rk4_map(l0, *stages, dt) * end.conj()
            maps = self._maps[dt] = {1: _checked_map(step, self.dim)}
        return maps


def theta_model(B: float, gamma: float, theta: float) -> LindbladModel:
    """Static-axis model: H = B sigma_n(theta), one Lindblad operator sqrt(gamma) sigma_n(theta)."""
    _check_domain("B", B, _FINITE)
    _check_domain("theta", theta, _FINITE)
    _check_domain("gamma", gamma)
    axes = np.array([sigma_n_theta(theta), sigma_n_theta_deriv(theta)])
    sn, sm = (axes[:, :, None, :, None] * eye2[:, None, :]).reshape(2, 4, 4)  # axis x I, np.kron's products
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
    root, s1, s2 = np.sqrt(gamma), _SIGMA1_I, _SIGMA2_I
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


def _checked_map(linear: np.ndarray, d: int, recovery: bool = False) -> np.ndarray:
    """The real (2 d^2, 2 d^2 + 3) matrix of one checked linear step on (d, d) states.

    ``linear`` is a complex (d^2, d^2) map under which a row-major vectorised state steps as ``vec @ linear``.
    The real matrix acts on the (1, 2 d^2) float64 view of that row: its first 2 d^2 columns apply ``linear`` and
    then the Hermitian projection (rho + rho^dag) / 2, which is real-linear, and its last three the :func:`_checks`
    of the output; a ``recovery``'s map returns the last alone, the output's trace less the input's.  Columns
    (a, b) and (b, a) are equal, or negatives for the imaginary parts, bit for bit; the states are exactly
    Hermitian only if the BLAS treats equal columns alike, which ``test_every_returned_state_is_exactly_hermitian``
    checks (Havel, J. Math. Phys. 44, 534 (2003)).
    """
    n = d * d
    real = np.empty((n, 2, n, 2))  # [input entry, input re/im, output entry, output re/im]
    real[:, 0, :, 0] = real[:, 1, :, 1] = linear.real
    real[:, 0, :, 1] = linear.imag
    real[:, 1, :, 0] = -linear.imag
    mirror = real[:, :, np.arange(n).reshape(d, d).T.ravel()]  # output entry (b, a)
    folded = (0.5 * (real + mirror * [1.0, -1.0])).reshape(2 * n, 2 * n)
    trace = _checks(d)[:, :1]
    return np.concatenate([folded, folded @ trace - trace if recovery else folded @ _checks(d)], axis=1)


@lru_cache
def _checks(d: int) -> np.ndarray:
    """The (2 d^2, 3) columns of Tr(rho), Tr(W rho) and a lost trace of 0 on a float64 row, for a fixed Hermitian W
    of spectral norm 1 with no zero entry: a state keeps |Tr(W rho)| <= Tr(rho), which an unstable step breaks."""
    j = np.arange(d)
    w = 1 / np.add.outer(j, j + 1) + 1j * np.subtract.outer(j, j) / np.add.outer(j, j + 2)
    w /= np.abs(np.linalg.eigvalsh(w)).max()  # the spectral norm, without the pages an SVD's first call maps in
    rows = np.array([np.eye(d), w, np.zeros((d, d))]).reshape(3, d * d)
    (columns := rows.view(_REAL).T).setflags(write=False)  # one array for every caller
    return columns


def _then(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a`` then ``b`` as one checked map, stacks too: ``a``'s state block times ``b``, plus the trace ``a`` lost."""
    out = a[..., : b.shape[-2]] @ b
    out[..., -1] += a[..., -1]
    return out


def _block_map(maps: dict[int, np.ndarray], k: int) -> np.ndarray:
    """``maps[k]``: k checked maps ``maps[1]`` in turn as one by :func:`_then`, built at its first use: one map at a
    time up to ``_BLOCK_STEPS``, past it one block of ``_BLOCK_STEPS`` at a time, then the rest as one block (the
    block raised by binary powering drifted further from one step at a time; CHANGES.md has the measurement)."""
    if k not in maps:
        q, r = divmod(k - 1, _BLOCK_STEPS)
        parts = [_block_map(maps, _BLOCK_STEPS)] * q + [_block_map(maps, r + 1)] if q else [maps[1]] * k
        maps[k] = reduce(_then, parts)
    return maps[k]


def _rk4_map(l0: np.ndarray, mid: np.ndarray, end: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step, I + dt/6 (l0 + 2 k2 + 2 k3 + k4), of a linear equation whose
    superoperators (:meth:`L2Action.matrix`) at the step's start, midpoint and end are ``l0``,
    ``mid`` and ``end``: k2 = (I + dt/2 l0) mid, k3 = (I + dt/2 k2) mid, k4 = (I + dt k3) end."""
    eye = np.eye(len(l0))
    k2 = (eye + 0.5 * dt * l0) @ mid
    k3 = (eye + 0.5 * dt * k2) @ mid
    k4 = (eye + dt * k3) @ end
    return eye + (dt / 6.0) * (l0 + 2 * k2 + 2 * k3 + k4)


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

    RK4 at fixed step ``dt`` in the model's frame, through :func:`_steps`: the state enters it by :func:`in_frame`
    at t0 and leaves it the same way at the end.  A non-finite t0 is a DomainError for every model.  ``rho0`` is
    one (d, d) state; any other shape is a DimensionError.  A zero duration returns a copy.
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


def _steps(rho: np.ndarray, maps: dict[int, np.ndarray], n_steps: int, replay=None) -> np.ndarray:
    """``n_steps`` checked maps ``maps[1]``, steps or recovery intervals, of one C-contiguous complex (d, d) state:
    one ``ndarray.dot`` of its float64 row and a :func:`_block_map` per block of up to ``_BLOCK_STEPS``, through
    :func:`_run` for all but the last of over 8.  ``replay(first, k, row)``, by default step by step, replays a
    failing block of maps ``first`` + 1 to ``first`` + k from its input ``row``: it raises at the first map that
    fails, or returns."""
    w, done, out = 2 * rho.size, 0, rho
    replay = replay or (lambda first, k, row: _step_by_step(row, maps[1], first, k))
    if n_steps > 8 * _BLOCK_STEPS:
        done = (n_steps - 1) // _BLOCK_STEPS * _BLOCK_STEPS
        out = _run(rho, _block_map(maps, _BLOCK_STEPS), done // _BLOCK_STEPS,
                   lambda i, row: replay(i * _BLOCK_STEPS, _BLOCK_STEPS, row))
    while done < n_steps:
        k, row = min(_BLOCK_STEPS, n_steps - done), np.ndarray((w,), _REAL, out)
        out = row.dot(_block_map(maps, k))
        if not (abs(out.item(w) - 1.0) <= _TRACE_TOL and abs(out.item(w + 1)) <= 1.0 + _TRACE_TOL
                and abs(out.item(w + 2)) <= _TRACE_TOL):  # NaN fails too
            replay(done, k, row)
        done += k
    return np.ndarray(rho.shape, _COMPLEX, out)


def _step_by_step(row: np.ndarray, step: np.ndarray, first: int, k: int) -> None:
    """Replay steps ``first`` + 1 to ``first`` + k from their input ``row``, one checked ``step`` at a time."""
    for j in range(first, first + k):
        out = row.dot(step)
        _read_checks(out[None, len(row) :], j)
        row = out[: len(row)]


def _run(rho: np.ndarray, maps: np.ndarray, n: int, replay, weights=None) -> np.ndarray:
    """``n`` products of a (d, d) state's float64 row with a checked map, or, given ``weights``, with the stack
    ``maps`` weighted by the (m, q) ``weights(k, m)`` for m products from k, taken once per ``_CHUNK**2`` products.
    Each is one ``ndarray.dot`` of row views made once per run, from buffer row i into i + 1.  Per chunk one screen
    reads their checks, and ``replay(i, row)`` replays each failing product i from its input row: it raises at the
    first step or recovery that fails, or returns, and the run goes on."""
    w, m = 2 * rho.size, min(n, _CHUNK)
    buf, tables = np.empty((m + 1, maps.shape[-1])), [maps] * m if weights is None else np.empty((m, *maps.shape[1:]))
    ins, outs, blocks = list(buf[:-1, :w]), list(buf[1:]), list(tables)  # tables reused: no page faults
    buf[0, :w] = rho.view(_REAL).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n, _CHUNK):
            m, at = min(_CHUNK, n - first), first % _CHUNK**2
            if weights is not None:
                if at == 0:  # one weights call per _CHUNK**2 products, so memory does not grow with n
                    weight_block = weights(first, min(_CHUNK**2, n - first))
                np.matmul(weight_block[at : at + m], maps.reshape(len(maps), -1), out=tables[:m].reshape(m, -1))
            for row, out, table in zip(ins[:m], outs, blocks):
                row.dot(table, out)
            gaps = np.abs(buf[1 : m + 1, w:] - _TARGET) - _LIMIT  # no compare while passing: its first use pages in
            if not gaps.max() <= 0:  # 256 KB of numpy; a NaN gap fails too
                for i in np.flatnonzero(~(gaps <= 0).all(axis=1)):
                    replay(first + int(i), buf[i, :w])
            buf[0, :w] = buf[m, :w]  # the next chunk's first input
    return buf[m, :w].copy().view(_COMPLEX).reshape(rho.shape)


def _read_checks(checks: np.ndarray, offset: int = 0) -> None:
    """Raise for the first failing check of single steps, row i step ``offset`` + i + 1, or of recoveries."""
    gaps = np.abs(checks - _TARGET[-checks.shape[1] :]) - _LIMIT[-checks.shape[1] :]
    if not gaps.max() <= 0:  # a NaN gap fails too
        i, j = divmod(int(np.argmax(~(gaps <= 0))), checks.shape[1])
        value, kind = checks[i, j], j - checks.shape[1]  # from the end: -3 trace, -2 witness, -1 lost trace
        if kind == -1:
            raise LeakageError(f"recovery lost trace {abs(value):.3e}: error space not fully spanned")
        if kind == -3:
            raise InstabilityError(f"trace drifted by {abs(value - 1.0):.3e} at step {offset + i + 1}")
        raise InstabilityError(f"trace-norm witness read {abs(value):.3e} at step {offset + i + 1}")


# ---------------------------------------------------------------------------
# Stochastic phase picture
# ---------------------------------------------------------------------------


def sample_phases(B: float, gamma: float, t: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized phase draws; deterministic for a fixed generator state, which gamma t = 0 does not advance."""
    _check_domain("duration", t)
    _check_domain("gamma", gamma)
    _check_domain("B", B, _FINITE)
    _check_domain("n", n)
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
    rotated = sigma_n_theta(theta).ravel() / np.sqrt(2)  # (sigma_n x I)|bell> = vec(sigma_n)/sqrt(2)
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
    reproduce the master equation to first order in dt.  Each step's angles
    are :func:`sample_phases`' over dt, so gamma dt = 0 draws nothing.
    Returns an (n, 4) array of final states.
    """
    n_steps = fixed_steps(t, dt)
    _check_domain("gamma", gamma)
    _check_domain("omega", omega, _FINITE)
    _check_domain("B", B, _FINITE)
    _check_domain("n", n)
    psi = np.tile(bell_probe(), (n, 1))
    for k in range(n_steps):
        angles = sample_phases(B, gamma, dt, n, rng)
        m = (sigma_n_omega(omega, k * dt)[:, None, :, None] * eye2[:, None, :]).reshape(4, 4)  # axis x I
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
