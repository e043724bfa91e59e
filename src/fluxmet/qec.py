"""Adaptive error-correction machinery.

Two concrete codes, a static one for the field-angle task and a rotating one for the rotation-frequency task,
protect a two-dimensional code space of the probe+ancilla pair against the noise axis at the current estimate
with the recovery {P, P sigma_n}, one checked real map.  A code is data: its t = 0 code words and recovery and, for
a rotating code, the diagonal of its frame generator, applied through ``dynamics.in_frame``.  Stepwise corrected
evolution (:func:`_corrected_evolve`) and the continuous-recovery closed state are written once for both codes, on
a code built once per estimate (``_memo_code``).  A run recovers once a step, or ``n_recoveries`` times, a count
>= 1 (``dynamics._check_count``); a run of zero length at one recovery a step runs no interval.

The general engine (``check_qec_conditions`` -> ``expansion_superoperators`` -> ``asymptotic_qfi``) takes any
model with explicit first and second parameter derivatives to the second-order expansion of the recovered
dynamics, L = L0 + L1 dx + L2 dx^2, and the asymptotic information rate J = 4 t^2 Var(H_eff) - 4 t <L2>, each
stage a pure function returning a frozen record.  ``expansion_evolve`` steps the expansion as ``lindblad_evolve``
steps a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .dynamics import (
    _BLOCK_STEPS,
    _TRACE_TOL,
    L2Action,
    LindbladModel,
    _COMPLEX,
    _REAL,
    _SIGMA1_I,
    _block_map,
    _check_count,
    _check_domain,
    _checked_map,
    _frame_rate,
    _read_checks,
    _rk4_map,
    _run,
    _steps,
    _then,
    fixed_steps,
    in_frame,
    lindblad_evolve,
    omega_model,
    rotating_frame,
    sigma_n_theta,
    theta_model,
)
from .errors import (
    ConfigError,
    DegenerateErrorSpaceError,
    DimensionError,
    DomainError,
    NumericError,
    QecConditionError,
)
from .metrology import OMEGA_COHERENCE, THETA_COHERENCE, Coherence, FisherResult
from .qmat import eye2

_QEC_TOL = 1e-8  # residual of the error-correction conditions, of the Gram matrix and of a recovery out of the code
_WEIGHTLESS = 1e-12  # error weight d_kk at or below which a direction is dropped
_CODE_MEMO = 16  # most (constructor, estimate) codes the corrected states and evolutions keep built


@dataclass(frozen=True)
class QecCode:
    """Code words and recovery Kraus set at t = 0, and the code's frame.

    ``frame_generator`` is None for a static code; otherwise it is the real diagonal of the generator G that carries
    the code along: at time t every ingredient is its t = 0 value conjugated by exp(+i G t).  ``recovery`` is None
    for a code that only states the error-correction conditions.  The maps ``_recovery_map`` and
    ``_coordinate_maps`` are built at first use; replace a field with ``dataclasses.replace``, since an array
    changed in place leaves them stale.
    """

    c0: np.ndarray
    c1: np.ndarray
    recovery: list[np.ndarray] | None = None
    frame_generator: np.ndarray | None = None

    def __post_init__(self) -> None:
        rate = None if self.frame_generator is None else _frame_rate(self.frame_generator)
        object.__setattr__(self, "_rate", rate)

    @cached_property
    def _recovery_map(self) -> np.ndarray:
        if self.recovery is None:
            raise ConfigError("code has no recovery Kraus set")
        n = self.c0.shape[0] ** 2
        superop = sum((_kron_conj(k) for k in self.recovery), np.zeros((n, n))).T
        return _checked_map(superop, self.c0.shape[0], recovery=True)

    @cached_property
    def _coordinate_maps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(embed, recover, probe): the (8, 2 d^2) float64 row map of code coordinates y to V y V^dag, V = [c0 c1];
        the (2 d^2, 9) ``_recovery_map`` into y by the embedding's left inverse, L rho L^dag, L = G^-1 V^dag with
        G = V^dag V; and :func:`code_probe`'s y.  A recovery out of span{c0, c1} is a ConfigError: y would drop it."""
        def rows(a: np.ndarray) -> np.ndarray:  # rho -> a rho a^dag: its complex row map, and i times it
            return (_kron_conj(a.T)[:, None] * np.array([[1.0], [1j]])).reshape(2 * a.shape[1] ** 2, -1).view(_REAL)
        v, recovery = np.column_stack([self.c0, self.c1]), self._recovery_map
        embed, left = rows(v), np.linalg.solve(v.conj().T @ v, v.conj().T)
        recovered = recovery[:, :-1] @ rows(left)
        if not np.max(np.abs(recovered @ embed - recovery[:, :-1])) <= _QEC_TOL:  # a NaN fails too
            raise ConfigError("recovery leaves the span of the code words")
        return embed, np.column_stack([recovered, recovery[:, -1]]), _outer(left @ code_probe(self))

    def basis(self, t: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        if self.frame_generator is None:
            return self.c0, self.c1
        rot = np.exp(1j * self.frame_generator * t)
        return rot * self.c0, rot * self.c1

    def projector(self, t: float = 0.0) -> np.ndarray:
        c0, c1 = self.basis(t)
        return _outer(c0) + _outer(c1)

    def recovery_kraus(self, t: float = 0.0) -> list[np.ndarray]:
        if self.recovery is None:
            raise ConfigError("code has no recovery Kraus set")
        return [in_frame(k, self._rate, t) for k in self.recovery]


def _outer(v: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    w = v if w is None else w
    return v[:, None] * w[None, :].conj()


def _kron_conj(a: np.ndarray) -> np.ndarray:
    """``np.kron`` of a and a* bit for bit, without its overhead; for a^T, the row map of rho -> a rho a^dag."""
    return (a[:, None, :, None] * a.conj()[None, :, None, :]).reshape(a.shape[0] ** 2, -1)


def _noise_code(c0: np.ndarray, c1: np.ndarray, noise: np.ndarray, frame=None) -> QecCode:
    """Code with recovery {P, P noise}, for noise that maps the code space to
    an orthogonal error space."""
    proj = _outer(c0) + _outer(c1)
    return QecCode(c0=c0, c1=c1, recovery=[proj, proj @ noise], frame_generator=frame)


def theta_code(theta_hat: float) -> QecCode:
    """Static code for the field-angle task at estimate theta_hat.

    The code words are doubled eigenvectors of the Hamiltonian's angle
    derivative; their equal superposition is the maximally entangled probe.
    Recovery is {P, P (sigma_n x I)} with the noise axis at theta_hat.
    """
    _check_domain(theta_hat=theta_hat)
    half = theta_hat / 2
    plus = np.array([-np.cos(half), np.sin(half)], dtype=complex)
    minus = np.array([np.sin(half), np.cos(half)], dtype=complex)
    noise = (sigma_n_theta(theta_hat)[:, None, :, None] * eye2[:, None, :]).reshape(4, 4)  # axis x I
    return _noise_code((plus[:, None] * plus).ravel(), (minus[:, None] * minus).ravel(), noise)


def omega_code(omega_hat: float) -> QecCode:
    """Rotating code for the rotation-frequency task at estimate omega_hat.

    At t = 0 the code words pair the two rotation-axis-derivative eigenstates
    with orthogonal ancilla states, and recovery is {P, P (sigma1 x I)}; at
    later times every ingredient is the t = 0 one conjugated by
    exp(+i omega_hat t sigma3 / 2) on the probe.
    """
    _check_domain(omega_hat=omega_hat)
    plus0 = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2)
    minus0 = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    words = (plus0[:, None] * e0).ravel(), (minus0[:, None] * e1).ravel()  # np.kron's products
    return _noise_code(*words, _SIGMA1_I, frame=rotating_frame(omega_hat))


def code_probe(code: QecCode) -> np.ndarray:
    """Equal superposition (|c0> + |c1>)/sqrt(2) of the code words at t = 0."""
    c0, c1 = code.basis()
    return (c0 + c1) / np.sqrt(2)


def apply_recovery(code: QecCode, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Apply the code's recovery channel at time t; fails on trace leakage.

    ``rho`` is one (d, d) state; any other shape is a DimensionError, and a non-finite t is a DomainError.  The
    state enters the code's frame at t and recovers as one ``ndarray.dot`` of its float64 row and ``_recovery_map``.
    Trace loss above ``dynamics._TRACE_TOL`` means weight outside the code and its correctable error space.
    """
    _check_domain(**{"frame time": t})
    rho = np.ascontiguousarray(rho, dtype=_COMPLEX)  # copies only a real or strided state
    d, rate = code.c0.shape[0], code._rate
    if rho.shape != (d, d):
        raise DimensionError(f"state shape {rho.shape} does not match code dim {d}")
    out = np.ndarray((1, 2 * d * d), _REAL, in_frame(rho, rate, -t)).dot(code._recovery_map)
    if not abs(out.item(-1)) <= _TRACE_TOL:  # a NaN loss fails too
        _read_checks(out[:, -1:])
    return in_frame(np.ndarray((d, d), _COMPLEX, out), rate, t)


def _corrected_evolve(
    model: LindbladModel, code: QecCode, t: float, dt: float, n_recoveries: int | None
) -> np.ndarray:
    """Stepwise evolve-and-recover dynamics from the code-word superposition probe.

    Per interval [tau, tau+dt'] of t/n_recoveries: evolve under the master equation, recover with the code frozen at
    tau and, for a rotating code, advance the frame by exp(+i G dt').  Fewer than ``_BLOCK_STEPS`` intervals make one
    ``lindblad_evolve`` and one ``apply_recovery`` call each, by which a longer run replays a failing product.  Where
    the code's frame does not turn against the model's, ``dynamics._steps`` applies the one interval map
    (:func:`_interval_maps`) as it applies a step; else a product of ``dynamics._run`` is four intervals on the 8
    floats of the state's coordinates in the code words (:func:`_fused_polynomial`), and the last n_recoveries % 4
    intervals are one more product, as ``_steps`` ends a run with one block for the rest.
    """
    if n_recoveries is not None:
        _check_count("n_recoveries", n_recoveries, 1)
    _check_domain(duration=t)  # by fixed_steps' name for it, not as the interval t / n_recoveries
    n_rec = fixed_steps(t, dt) if n_recoveries is None else n_recoveries  # 0 at t = 0: no interval runs
    interval = t / max(n_rec, 1)
    s = fixed_steps(interval, dt)  # StepError unless dt divides the interval
    rate = code._rate if model._rate is None else -model._rate if code._rate is None else code._rate - model._rate

    def intervals(rho: np.ndarray, first: int, m: int) -> np.ndarray:  # the code's frame entered and left
        for k in range(first, first + m):  # relative to the model's around each recovery
            rho = lindblad_evolve(model, rho, interval, dt) / in_frame(1.0, rate, k * interval)
            rho = apply_recovery(code, rho) * in_frame(1.0, rate, (k + 1) * interval)
        return rho

    def replay(first: int, m: int, row: np.ndarray) -> None:  # intervals first + 1 to first + m from their input's
        z, v = row.view(_COMPLEX), np.column_stack([code.c0, code.c1])  # row: the state's, or its 2x2 code-word block
        rho = v @ z.reshape(2, 2) @ v.conj().T if z.size == 4 else z.reshape(model.dim, -1)
        intervals(in_frame(rho, rate, first * interval), first, m)

    if n_rec < _BLOCK_STEPS or t == 0:
        return in_frame(intervals(_outer(code_probe(code)), 0, n_rec), model._rate, n_rec * interval)
    steps, model_exit = _block_map(model._maps_at(dt), s), np.ravel(in_frame(1.0, model._rate, s * dt))
    if rate is None or not rate.any():  # every interval is the same map
        unit = _interval_maps(steps, model_exit, code._recovery_map)
        return in_frame(_steps(_outer(code_probe(code)), {1: unit}, n_rec, replay), model._rate, n_rec * interval)
    samples, y, done = _interval_polynomial(steps, code, model_exit, rate), code._coordinate_maps[2], 0
    for p, m in ((4, n_rec // 4), (n_rec % 4, 1)):  # four intervals a product, then the rest as one product
        if p:
            fused, weights = _fused_polynomial(samples, rate, interval, p, first=done)
            y = _run(y, fused, m, lambda i, row: replay(done + p * i, p, row), weights)
            done += p * m
    rho = (v := np.column_stack(code.basis(t))) @ y @ v.conj().T
    return 0.5 * (rho + rho.conj().T)


def _interval_maps(stepped: np.ndarray, entry, recovery: np.ndarray) -> np.ndarray:
    """The checked (..., r, c + 3) maps of intervals from r rows ``stepped`` by a block map (w state columns): the
    phase ``entry`` by broadcasting, then ``recovery``, (w, c + 1) with the trace lost last, which adds to theirs."""
    w = recovery.shape[0]
    recovered = (stepped[..., :w].view(_COMPLEX) * entry).view(_REAL) @ recovery
    out = np.concatenate([recovered[..., :-1], stepped[..., w:]], axis=-1)
    out[..., -1] += recovered[..., -1]
    return out


def _interval_polynomial(steps: np.ndarray, code: QecCode, model_exit, rate: np.ndarray) -> np.ndarray:
    """The maps of an interval from tau on code coordinates (embed with the phase at tau, step, enter the code's
    frame at tau, recover into coordinates), as (5, 8, 8 + 3) samples.  ``rate`` is 0 or +-i nu, so the phases
    rotate by +-nu tau, and a map is a trigonometric polynomial of degree 2 in nu tau fixed by its samples at
    nu tau = 2 pi j / 5, which :func:`_fused_polynomial` interpolates."""
    grid, (embed, recover, _) = 2 * np.pi / 5 * np.arange(5), code._coordinate_maps
    phase = np.exp(1j * np.sign(rate.imag).ravel() * grid[:, None, None])  # exp(rate tau) at nu tau on the grid
    return _interval_maps((embed.view(_COMPLEX) * phase).view(_REAL) @ steps, model_exit / phase, recover)


def _fused_polynomial(samples: np.ndarray, rate: np.ndarray, interval: float, p: int, first: int = 0):
    """The maps of p intervals in turn from a = nu tau, of degree 2p in a, as (4p + 1, w, w + 3) samples at
    a = 2 pi j / (4p + 1), each its p intervals interpolated from the five ``samples`` and composed by
    ``dynamics._then``, and weights(k, m) for m products from the k-th, counted from interval ``first``: the
    Dirichlet kernel."""
    def dirichlet(a: np.ndarray, q: int) -> np.ndarray:  # cos(l (a - a_j)) split: q - 1 cos and sin calls an angle
        l = np.arange(1, q // 2 + 1)
        x, y = np.multiply.outer(a, l), np.outer(l, 2 * np.pi / q * np.arange(q))
        return 1 / q + 2 / q * (np.cos(x) @ np.cos(y) + np.sin(x) @ np.sin(y))
    c, q, w = float(np.max(np.abs(rate))) * interval, 4 * p + 1, samples.shape[1]
    starts = np.add.outer(2 * np.pi / q * np.arange(q), c * np.arange(p))  # of each sample's p intervals
    single = (dirichlet(starts, 5) @ samples.reshape(5, -1)).reshape(q, p, w, -1)
    return reduce(_then, single.swapaxes(0, 1)), lambda k, m: dirichlet(c * (first + p * np.arange(k, k + m)), q)


def _closed_state(code: QecCode, coherence: Coherence, B: float, gamma: float, d: float, t: float):
    """Equal-weight state on the time-t code words, coherence exp(-(decay + i phase)) at d."""
    phase, decay = coherence._checked_at(B, gamma, d, t)
    coh = np.exp(-decay - 1j * phase)
    c0, c1 = code.basis(t)
    return 0.5 * (_outer(c0) + _outer(c1) + coh * _outer(c0, c1) + np.conj(coh) * _outer(c1, c0))


def _code_at(make, estimate: float) -> QecCode:
    """``make(estimate)``, kept for the next call at that float by :func:`_memo_code` (its maps with it)."""
    return _memo_code(make, estimate.hex()) if isinstance(estimate, float) else make(estimate)


@lru_cache(maxsize=_CODE_MEMO)
def _memo_code(make, estimate: str) -> QecCode:  # keyed by float.hex, so 0.0 and -0.0 are apart; a refusal is not kept
    return make(float.fromhex(estimate))


def corrected_evolve_theta(
    B: float, gamma: float, theta: float, theta_hat: float, t: float,
    dt: float = 1e-3, n_recoveries: int | None = None,
) -> np.ndarray:
    """Stepwise corrected dynamics for the field-angle task, recovering at theta_hat."""
    model, code = theta_model(B, gamma, theta), _code_at(theta_code, theta_hat)
    return _corrected_evolve(model, code, t, dt, n_recoveries)


def corrected_state_theta_closed(B: float, gamma: float, theta: float, theta_hat: float, t: float):
    """Continuous-recovery corrected state for the field-angle task."""
    _check_domain(theta=theta)
    return _closed_state(_code_at(theta_code, theta_hat), THETA_COHERENCE, B, gamma, theta - theta_hat, t)


def corrected_evolve_omega(
    B: float, gamma: float, omega: float, omega_hat: float, t: float,
    dt: float = 1e-3, n_recoveries: int | None = None,
) -> np.ndarray:
    """Stepwise corrected dynamics for the rotation-frequency task, code rotating at omega_hat."""
    model, code = omega_model(B, gamma, omega), _code_at(omega_code, omega_hat)
    return _corrected_evolve(model, code, t, dt, n_recoveries)


def corrected_state_omega_closed(B: float, gamma: float, omega: float, omega_hat: float, t: float):
    """Continuous-recovery corrected state for the rotation-frequency task, in the lab frame."""
    _check_domain(omega=omega)
    return _closed_state(_code_at(omega_code, omega_hat), OMEGA_COHERENCE, B, gamma, omega - omega_hat, t)


# ---------------------------------------------------------------------------
# General engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QecConditions:
    """P E_k P = alpha_k P and P E_k^dag E_j P = beta_kj P: the fitted alpha
    and beta, the error weights d_kk = beta_kk - |alpha_k|^2, the code
    projector and the largest residual of each relation."""

    alpha: np.ndarray
    beta: np.ndarray
    d: np.ndarray
    projector: np.ndarray
    residual_alpha: float
    residual_beta: float


@dataclass(frozen=True)
class GeneralQecReport:
    """The expansion of the recovered dynamics: the conditions of the error
    operators the recovery acts on (the Gram recombination of the model's
    when ``orthogonalized``), the indices of those with error weight, the
    effective generator H_eff of L1 and the action of L2."""

    conditions: QecConditions
    orthogonalized: bool
    active: list[int]
    l1_generator: np.ndarray
    l2_action: L2Action


def _conditions(
    proj: np.ndarray, ops: list[np.ndarray]
) -> tuple[QecConditions, list[tuple[str, float]]]:
    """The conditions of ``ops`` on the code space of ``proj``, and the
    (label, residual) pairs of the relations that miss by more than 1e-8."""
    n, rank = len(ops), np.trace(proj).real
    terms = list(ops) + [ek.conj().T @ ej for ek in ops for ej in ops]
    labels = [f"E_{k}" for k in range(n)] + [f"E_{k}^dag E_{j}" for k in range(n) for j in range(n)]
    # The best scalar s with P op P = s P for each term, and the residual of that relation.
    fit = [complex(np.trace(proj @ op) / rank) for op in terms]
    res = [float(np.max(np.abs(proj @ op @ proj - s * proj))) for op, s in zip(terms, fit)]
    alpha = np.array(fit[:n], dtype=complex)
    beta = np.array(fit[n:], dtype=complex).reshape(n, n)
    d = np.real(np.diag(beta)) - np.abs(alpha) ** 2
    conditions = QecConditions(
        alpha, beta, d, proj, max(res[:n], default=0.0), max(res[n:], default=0.0)
    )
    return conditions, [(label, r) for label, r in zip(labels, res) if r > _QEC_TOL]


def check_qec_conditions(model: LindbladModel, code: QecCode, t: float = 0.0) -> QecConditions:
    """Verify P E_k P = alpha_k P and P E_k^dag E_j P = beta_kj P.

    Returns the extracted alpha vector, beta matrix and error weights
    d_kk = beta_kk - |alpha_k|^2.  Raises :class:`QecConditionError` naming
    the offending operators if any residual exceeds 1e-8.  A non-finite t is a DomainError.
    """
    _check_domain(**{"frame time": t})
    conditions, bad = _conditions(code.projector(t), model.at(t)[1])
    if bad:
        worst = max(bad, key=lambda kv: kv[1])
        raise QecConditionError(
            f"code fails the error-correction conditions: {worst[0]} has residual "
            f"{worst[1]:.3e} > tol {_QEC_TOL:.1e}",
            residuals=bad,
        )
    return conditions


def expansion_superoperators(
    model: LindbladModel, code: QecCode, t: float = 0.0
) -> GeneralQecReport:
    """Second-order expansion L0 + L1 dx + L2 dx^2 of the recovered dynamics.

    Requires first and second derivative operators on the model.  Error
    operators with non-orthogonal leakage directions (off-diagonal Gram
    matrix beta - alpha* alpha) are first recombined by the Gram
    eigenbasis, which leaves the Lindblad dissipator invariant; directions of
    zero weight (d_kk at most 1e-12) are dropped from the recovery
    provided they do not couple to the first-derivative operators.  The
    control -P H P cancels L0 = P H P, so L0 is not returned.  A non-finite t is a DomainError.
    """
    _check_domain(**{"frame time": t})
    (h, ops), (dh, dops), (ddh, ddops) = (model.at(t, order) for order in range(3))
    conditions = check_qec_conditions(model, code, t=t)
    proj, alpha, beta = conditions.projector, conditions.alpha, conditions.beta
    gram = beta - np.outer(alpha.conj(), alpha)
    orthogonalized = bool(np.any(np.abs(gram - np.diag(np.diag(gram))) > _QEC_TOL))
    if orthogonalized:
        # Unitary recombination E_l <- sum_k W_kl E_k diagonalizes the Gram
        # matrix and leaves sum_k E_k rho E_k^dag unchanged.
        _, w = np.linalg.eigh(gram)
        ops, dops, ddops = (
            [sum(w[k, l] * xs[k] for k in range(len(xs))) for l in range(len(xs))]
            for xs in (ops, dops, ddops)
        )
        conditions = _conditions(proj, ops)[0]  # a unitary recombination keeps them holding

    eye = np.eye(model.dim, dtype=complex)
    rank = np.trace(proj).real
    active: list[int] = []
    returns: list[np.ndarray] = []
    for k, e in enumerate(ops):
        if conditions.d[k] > _WEIGHTLESS:
            # m = (1 - P) E_k P = s u P for an isometry u from the code space
            # onto its error space, so the return P u^dag is m^dag / s.  s is
            # read from m: beta_kk - |alpha_k|^2 cancels at small weight.
            m = (eye - proj) @ e @ proj
            active.append(k)
            returns.append(m.conj().T / np.sqrt(np.trace(m.conj().T @ m).real / rank))
        else:
            # A weightless direction may not feed the 1/sqrt(d) cross term.
            for j, de in enumerate(dops):
                coupling = proj @ (e.conj().T @ de - np.conj(conditions.alpha[k]) * de) @ proj
                if np.max(np.abs(coupling)) > _QEC_TOL:
                    raise DegenerateErrorSpaceError(
                        f"error operator {k} has zero weight but couples to derivative {j}"
                    )

    def sandwich(op: np.ndarray) -> np.ndarray:
        return proj @ op @ proj

    def hermitian_part(op: np.ndarray) -> np.ndarray:
        return 0.5 * (op + op.conj().T)

    def drift(derivs: list[np.ndarray]) -> np.ndarray:
        terms = (e.conj().T @ de - de.conj().T @ e for e, de in zip(ops, derivs))
        return sum(terms, np.zeros_like(h))

    h_eff = hermitian_part(sandwich(dh + 0.5j * drift(dops)))
    # The i/2 combination keeps the second-order commutator generator
    # Hermitian; without it the expansion would not preserve Hermiticity.
    n2 = hermitian_part(0.5 * sandwich(ddh + 0.5j * drift(ddops)))
    l2_action = L2Action(
        generator=n2,
        kraus_a=[sandwich(de) for de in dops],
        anticommutators=[sandwich(de.conj().T @ de) for de in dops],
        kraus_b=[sandwich(r @ de) for r in returns for de in dops],
    )
    return GeneralQecReport(conditions, orthogonalized, active, h_eff, l2_action)


def _l2_expectation(report: GeneralQecReport, psi: np.ndarray):
    """<psi|L2(|psi><psi|)|psi>, the second-order expectation of a report."""
    return np.vdot(psi, report.l2_action.apply(_outer(psi)) @ psi).real


def asymptotic_qfi(report: GeneralQecReport, psi: np.ndarray, t: float) -> FisherResult:
    """Information rate J = 4 t^2 Var_psi(H_eff) - 4 t <psi|L2(|psi><psi|)|psi>.

    ``psi`` must be a normalized vector in the code space.  The first-order
    expectation <psi|L1(|psi><psi|)|psi> is verified to vanish and the L2
    expectation to be non-positive (both within 1e-10).  A t at which J
    overflows is a DomainError.
    """
    _check_domain(t=t)
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise DomainError("probe vector is not normalized")
    outside = psi - report.conditions.projector @ psi
    if np.linalg.norm(outside) > 1e-10:
        raise DomainError("probe vector is not in the code space")
    h_eff = report.l1_generator
    mean = np.vdot(psi, h_eff @ psi).real
    var = np.vdot(psi, h_eff @ h_eff @ psi).real - mean**2
    rho = _outer(psi)
    l1_val = np.vdot(psi, (-1j) * (h_eff @ rho - rho @ h_eff) @ psi)
    if abs(l1_val) > 1e-10:
        raise NumericError(f"first-order expectation {l1_val!r} does not vanish")
    l2_val = _l2_expectation(report, psi)
    if -l2_val < -1e-10:
        raise NumericError(f"second-order expectation {l2_val!r} is positive")
    value = float(4.0 * t * t * var - 4.0 * t * l2_val)
    if not np.isfinite(value):
        raise DomainError(f"t must be small enough for a finite information value, got {t:g}")
    return FisherResult(value)


def expansion_evolve(
    report: GeneralQecReport, rho0: np.ndarray, dx: float, t: float, dt: float = 1e-3
) -> np.ndarray:
    """Evolve a code-space state under L0 + L1 dx + L2 dx^2 for duration t.

    The control Hamiltonian -P H P cancels the zeroth-order generator,
    leaving the detuning-driven dynamics only.  The equation is constant and
    linear, with superoperator ``L2Action(dx H_eff, [], [], []).matrix()``
    plus dx^2 times L2's, so every RK4 step at ``dt`` is one checked map,
    ``dynamics._rk4_map`` of it, built per call, and ``dynamics._steps``
    checks each, as in ``lindblad_evolve``.  ``rho0`` is one (d, d) state;
    any other shape is a DimensionError, and a non-finite dx a DomainError.
    """
    _check_domain(dx=dx)
    n_steps = fixed_steps(t, dt)
    rho = np.array(rho0, dtype=complex)
    d = report.l1_generator.shape[0]
    if rho.shape != (d, d):
        raise DimensionError(f"state shape {rho.shape} does not match report dim {d}")
    l = L2Action(dx * report.l1_generator, [], [], []).matrix() + dx * dx * report.l2_action.matrix()
    return _steps(rho, {1: _checked_map(_rk4_map(l, l, l, dt), d)}, n_steps)
