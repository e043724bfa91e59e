"""Adaptive error-correction machinery.

Two concrete codes: a static one for the field-angle task and a rotating one
for the rotation-frequency task.  Both protect a two-dimensional code space
of the probe+ancilla pair against the parameter-correlated noise axis at the
current estimate; recovery is the two-operator Kraus set {P, P sigma_n},
applied as one checked real map that also re-symmetrizes the state and
returns the trace it lost.  A code is data: its t = 0 code words and
recovery plus, for a rotating code, the diagonal of the frame generator that
carries them along in time, whose phase rate goes through
``dynamics.in_frame`` like a model's.  Stepwise corrected evolution and the
continuous-recovery closed state are written once for both codes; a static
one takes 16 recovery intervals per ``ndarray.dot``, a rotating one two
products per interval, its phases read off tables (``_corrected_evolve``).

The general engine (``check_qec_conditions`` -> ``expansion_superoperators``
-> ``asymptotic_qfi``) takes any model with explicit first and second
parameter derivatives and produces the second-order expansion of the
recovered dynamics around the operating point, L = L0 + L1 dx + L2 dx^2,
together with the asymptotic information rate
J = 4 t^2 Var(H_eff) - 4 t <L2>.  Each stage is a pure function that
returns a frozen record: ``QecConditions``, then ``GeneralQecReport``, whose
L2 is a ``dynamics.L2Action``, the one commutator-plus-Kraus form.
``expansion_evolve`` steps the expansion as ``lindblad_evolve`` steps a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import (
    _BLOCK_STEPS,
    _CHUNK,
    _TRACE_TOL,
    L2Action,
    LindbladModel,
    _COMPLEX,
    _FINITE,
    _REAL,
    _block_map,
    _check_domain,
    _checked_map,
    _frame_rate,
    _read_checks,
    _rk4_map,
    _run,
    _steps,
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
    StepError,
)
from .metrology import OMEGA_COHERENCE, THETA_COHERENCE, Coherence, FisherResult
from .qmat import eye2, kron, sigma1

_QEC_TOL = 1e-8  # residual of the error-correction conditions and of the Gram matrix
_WEIGHTLESS = 1e-12  # error weight d_kk at or below which a direction is dropped


@dataclass(frozen=True)
class QecCode:
    """Code words and recovery Kraus set at t = 0, and the code's frame.

    ``frame_generator`` is None for a static code; otherwise it is the real
    diagonal of the generator G that carries the code along: at time t every
    ingredient is its t = 0 value conjugated by exp(+i G t).  ``recovery`` is
    None for a code that only states the error-correction conditions.

    Construction derives a rotating code's phase rate i (g_j - g_k).  The
    first recovery builds ``_recovery_map``: the t = 0 recovery
    (sum_k K x K*)^T as ``dynamics._checked_map``, whose last column is the
    trace lost; a code that never recovers never builds it.  Replace a field
    with ``dataclasses.replace``; an array changed in place leaves them stale.
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
        d = self.c0.shape[0]
        superop = sum((np.kron(k, k.conj()) for k in self.recovery), np.zeros((d * d, d * d))).T
        return _checked_map(superop, d, minus_input_trace=True)

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
    _check_domain("theta_hat", theta_hat, _FINITE)
    half = theta_hat / 2
    plus = np.array([-np.cos(half), np.sin(half)], dtype=complex)
    minus = np.array([np.sin(half), np.cos(half)], dtype=complex)
    noise = kron(sigma_n_theta(theta_hat), eye2)
    return _noise_code(np.kron(plus, plus), np.kron(minus, minus), noise)


def omega_code(omega_hat: float) -> QecCode:
    """Rotating code for the rotation-frequency task at estimate omega_hat.

    At t = 0 the code words pair the two rotation-axis-derivative eigenstates
    with orthogonal ancilla states, and recovery is {P, P (sigma1 x I)}; at
    later times every ingredient is the t = 0 one conjugated by
    exp(+i omega_hat t sigma3 / 2) on the probe.
    """
    plus0 = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2)
    minus0 = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([0.0, 1.0], dtype=complex)
    return _noise_code(
        np.kron(plus0, e0),
        np.kron(minus0, e1),
        kron(sigma1, eye2),
        frame=rotating_frame(omega_hat),
    )


def code_probe(code: QecCode) -> np.ndarray:
    """Equal superposition (|c0> + |c1>)/sqrt(2) of the code words at t = 0."""
    c0, c1 = code.basis()
    return (c0 + c1) / np.sqrt(2)


def apply_recovery(code: QecCode, rho: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Apply the code's recovery channel at time t; fails on trace leakage.

    ``rho`` is one (d, d) state; any other shape is a DimensionError, and a
    non-finite t is a DomainError.  The state enters the code's frame at t
    through ``in_frame`` and recovers as one ``ndarray.dot`` of its float64
    row and ``_recovery_map``.  Trace loss above ``dynamics._TRACE_TOL``
    means weight outside the code and its correctable error space.
    """
    _check_domain("frame time", t, _FINITE)
    rho = np.ascontiguousarray(rho, dtype=_COMPLEX)  # copies only a real or strided state
    d, rate = code.c0.shape[0], code._rate
    if rho.shape != (d, d):
        raise DimensionError(f"state shape {rho.shape} does not match code dim {d}")
    out = np.ndarray((1, 2 * d * d), _REAL, in_frame(rho, rate, -t)).dot(code._recovery_map)
    if not abs(out.item(-1)) <= _TRACE_TOL:  # a NaN loss fails too
        _read_checks(out[:, -1:], 0, 0)
    return in_frame(np.ndarray((d, d), _COMPLEX, out), rate, t)


def _corrected_evolve(
    model: LindbladModel, code: QecCode, t: float, dt: float, n_recoveries: int | None
) -> np.ndarray:
    """Stepwise evolve-and-recover dynamics from the code-word superposition probe.

    Per interval [tau, tau+dt'] of t/n_recoveries: evolve under the master
    equation, recover with the code frozen at tau and, for a rotating code,
    advance the frame by exp(+i G dt').  Converges first-order in the
    recovery interval to the continuous-recovery closed state.

    An interval of s <= ``_BLOCK_STEPS`` steps is the s-step block map and
    the recovery map, checked by s traces and the trace lost.  A static
    pair takes 16 intervals per product of a ``_block_map`` in
    ``dynamics._run``; a rotating one steps each from t0 = 0, leaves the
    model's frame at s dt, enters the code's (relative to the model's) at
    tau, recovers and leaves at tau + dt', with no call but in
    ``lindblad_evolve`` and ``apply_recovery``'s arithmetic and order.  Its
    two buffers are read once per ``_CHUNK`` intervals, whose phases one
    np.exp makes (a shorter last table re-reads passed rows).  The rest
    (n_rec % 16 static intervals, or all if s is larger) make those calls.
    """
    n_rec = fixed_steps(t, dt) if n_recoveries is None else n_recoveries
    if not isinstance(n_rec, (int, np.integer)):
        raise StepError(f"n_recoveries must be an integer, got {n_rec!r}")
    if n_rec < 1:
        raise StepError(f"n_recoveries must be >= 1, got {n_rec}")
    interval = t / n_rec
    s = fixed_steps(interval, dt)  # StepError unless dt divides the interval
    rho, done, w = _outer(code_probe(code)), 0, 2 * code.c0.size**2
    steps = _block_map(model._maps_at(dt), s) if 0 < s <= _BLOCK_STEPS else None
    rate = code._rate if model._rate is None else -model._rate if code._rate is None else code._rate - model._rate
    if steps is not None and rate is None and n_rec >= _BLOCK_STEPS:
        done, stepped = n_rec - n_rec % _BLOCK_STEPS, steps[:, :w] @ code._recovery_map
        unit = {1: np.column_stack([stepped[:, :w], steps[:, w:], stepped[:, w:]])}  # s traces, a loss
        rho = _run(rho, _block_map(unit, _BLOCK_STEPS), done // _BLOCK_STEPS, s)
    elif steps is not None and rate is not None:
        recover, model_exit, rows = code._recovery_map, in_frame(1.0, model._rate, s * dt), min(n_rec, _CHUNK)
        evolved, recovered = np.empty((rows, w + s)), np.empty((rows, w + 1))
        xs, ys = (buf[:, :w].view(_COMPLEX).reshape(rows, *rho.shape) for buf in (evolved, recovered))
        views, row = [*zip(evolved, xs, evolved[:, :w], recovered, ys, recovered[:, :w])], rho.view(_REAL).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n_rec, _CHUNK):
                taus = np.arange(start, min(start + _CHUNK, n_rec) + 1) * interval
                phases = np.exp(rate * taus[:, None, None])
                for (out, x, x_row, rec, y, y_row), enter, leave in zip(views, phases[:-1], phases[1:]):
                    row.dot(steps, out=out)
                    x *= model_exit
                    x /= enter
                    x_row.dot(recover, out=rec)
                    y *= leave
                    row = y_row
                _read_checks(np.column_stack([evolved[:, w:], recovered[:, w:]]), start * (s + 1), s)
        rho, done = row.copy().view(_COMPLEX).reshape(rho.shape), n_rec
    for k in range(done, n_rec):  # the code's frame entered and left relative to the model's, as above
        rho = lindblad_evolve(model, rho, interval, dt) / in_frame(1.0, rate, k * interval)
        rho = apply_recovery(code, rho) * in_frame(1.0, rate, (k + 1) * interval)
    return in_frame(rho, model._rate, n_rec * interval)


def _closed_state(code: QecCode, coherence: Coherence, B: float, gamma: float, d: float, t: float):
    """Equal-weight state on the time-t code words, coherence exp(-(decay + i phase)) at d."""
    phase, decay = coherence._checked_at(B, gamma, d, t)
    coh = np.exp(-decay - 1j * phase)
    c0, c1 = code.basis(t)
    return 0.5 * (_outer(c0) + _outer(c1) + coh * _outer(c0, c1) + np.conj(coh) * _outer(c1, c0))


def corrected_evolve_theta(
    B: float, gamma: float, theta: float, theta_hat: float, t: float,
    dt: float = 1e-3, n_recoveries: int | None = None,
) -> np.ndarray:
    """Stepwise corrected dynamics for the field-angle task, recovering at theta_hat."""
    model, code = theta_model(B, gamma, theta), theta_code(theta_hat)
    return _corrected_evolve(model, code, t, dt, n_recoveries)


def corrected_state_theta_closed(B: float, gamma: float, theta: float, theta_hat: float, t: float):
    """Continuous-recovery corrected state for the field-angle task."""
    return _closed_state(theta_code(theta_hat), THETA_COHERENCE, B, gamma, theta - theta_hat, t)


def corrected_evolve_omega(
    B: float, gamma: float, omega: float, omega_hat: float, t: float,
    dt: float = 1e-3, n_recoveries: int | None = None,
) -> np.ndarray:
    """Stepwise corrected dynamics for the rotation-frequency task, code rotating at omega_hat."""
    model, code = omega_model(B, gamma, omega), omega_code(omega_hat)
    return _corrected_evolve(model, code, t, dt, n_recoveries)


def corrected_state_omega_closed(B: float, gamma: float, omega: float, omega_hat: float, t: float):
    """Continuous-recovery corrected state for the rotation-frequency task, in the lab frame."""
    return _closed_state(omega_code(omega_hat), OMEGA_COHERENCE, B, gamma, omega - omega_hat, t)


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
    the offending operators if any residual exceeds 1e-8.
    """
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
    control -P H P cancels L0 = P H P, so L0 is not returned.
    """
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
    _check_domain("t", t)
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
    linear, so every RK4 step at ``dt`` is one checked map, built per call,
    and ``dynamics._steps`` checks each, as in ``lindblad_evolve``.  ``rho0``
    is one (d, d) state; any other shape is a DimensionError.
    """
    h = dx * report.l1_generator

    def rhs(rho: np.ndarray) -> np.ndarray:
        return -1j * (h @ rho - rho @ h) + dx * dx * report.l2_action.apply(rho)

    n_steps = fixed_steps(t, dt)
    rho = np.array(rho0, dtype=complex)
    d = h.shape[0]
    if rho.shape != (d, d):
        raise DimensionError(f"state shape {rho.shape} does not match report dim {d}")
    step = _checked_map(_rk4_map(lambda _t: rhs, d, dt), d)
    return _steps(rho, {1: step}, n_steps)
