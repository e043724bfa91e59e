"""Code constructions, recovery channels and the general expansion engine."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from fluxmet import dynamics, qec
from fluxmet.cli import load_model_file, resolve_model_path
from fluxmet.dynamics import (
    _BLOCK_STEPS,
    LindbladModel,
    fixed_steps,
    in_frame,
    lindblad_evolve,
    omega_model,
    sigma_n_omega,
    sigma_n_theta,
    theta_model,
)
from fluxmet.errors import (
    ConfigError,
    DegenerateErrorSpaceError,
    DimensionError,
    DomainError,
    InstabilityError,
    LeakageError,
    QecConditionError,
    StepError,
)
from fluxmet.metrology import (
    OMEGA_COHERENCE,
    THETA_COHERENCE,
    fidelity,
    qfi_omega_qec_closed,
    qfi_sld_numeric,
    qfi_theta_qec_closed,
)
from fluxmet.qec import (
    QecCode,
    apply_recovery,
    asymptotic_qfi,
    check_qec_conditions,
    code_probe,
    corrected_evolve_omega,
    corrected_evolve_theta,
    corrected_state_omega_closed,
    corrected_state_theta_closed,
    expansion_evolve,
    expansion_superoperators,
    omega_code,
    theta_code,
)
from fluxmet.qmat import kron, sigma1
from lab_frame import field as _field, lab_frame_evolve as _reference_evolve, rk4_step as _rk4_step
from per_interval import per_interval as _per_interval

B, GAMMA, T = 0.1, 0.05, 5.0
EYE2 = np.eye(2, dtype=complex)
EYE4 = np.eye(4, dtype=complex)
ZERO4 = np.zeros((4, 4), dtype=complex)


def outer(v: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    w = v if w is None else w
    return np.outer(v, w.conj())


# ---------------------------------------------------------------------------
# Code constructions
# ---------------------------------------------------------------------------


def test_theta_code_orthonormal_basis() -> None:
    for th in (0.0, np.pi / 4, 1.1):
        c0, c1 = theta_code(th).basis()
        assert np.vdot(c0, c0) == pytest.approx(1.0, abs=1e-14)
        assert np.vdot(c1, c1) == pytest.approx(1.0, abs=1e-14)
        assert abs(np.vdot(c0, c1)) < 1e-14


def test_theta_code_noise_maps_code_to_error_space() -> None:
    th = np.pi / 4
    code = theta_code(th)
    c0, c1 = code.basis()
    sn4 = kron(sigma_n_theta(th), EYE2)
    half = th / 2
    plus = np.array([-np.cos(half), np.sin(half)], dtype=complex)
    minus = np.array([np.sin(half), np.cos(half)], dtype=complex)
    assert np.allclose(sn4 @ c0, -np.kron(minus, plus), atol=1e-14)
    assert np.allclose(sn4 @ c1, -np.kron(plus, minus), atol=1e-14)
    # The errored words are orthogonal to the code space.
    proj = code.projector(0.0)
    assert np.max(np.abs(proj @ sn4 @ proj)) < 1e-14


@pytest.mark.parametrize("theta_hat", [0.0, -0.0, 0.7, np.pi / 4, -2.9])
def test_theta_code_noise_is_the_kronecker_axis_bit_for_bit(theta_hat) -> None:
    code = theta_code(theta_hat)
    proj = code.projector()
    noise = np.kron(sigma_n_theta(theta_hat), EYE2)
    assert code.recovery[0].tobytes() == proj.tobytes()
    assert code.recovery[1].tobytes() == (proj @ noise).tobytes()


def test_theta_code_projector() -> None:
    code = theta_code(0.7)
    proj = code.projector(0.0)
    c0, c1 = code.basis()
    assert np.allclose(proj, proj.conj().T, atol=1e-14)
    assert np.allclose(proj @ proj, proj, atol=1e-14)
    assert np.trace(proj).real == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(proj @ c0, c0, atol=1e-14)
    assert np.allclose(proj @ c1, c1, atol=1e-14)


def test_theta_code_recovery_completeness() -> None:
    code = theta_code(np.pi / 4)
    total = sum(k.conj().T @ k for k in code.recovery_kraus(0.0))
    assert np.allclose(total, EYE4, atol=1e-14)


def test_code_probe_maximally_entangled() -> None:
    psi = code_probe(theta_code(np.pi / 4))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
    r = outer(psi).reshape(2, 2, 2, 2)
    assert np.allclose(np.einsum("ikjk->ij", r), EYE2 / 2, atol=1e-12)  # the probe's reduced state
    assert np.allclose(np.einsum("kikj->ij", r), EYE2 / 2, atol=1e-12)  # the ancilla's


def test_omega_code_rotating_basis() -> None:
    om = 0.2
    code = omega_code(om)
    for t in (0.0, 1.3, 5.0):
        rot = scipy_expm(0.5j * om * t * kron(np.diag([1.0, -1.0]).astype(complex), EYE2))
        c0, c1 = code.basis(t)
        assert np.allclose(c0, rot @ code.basis(0.0)[0], atol=1e-12)
        assert np.allclose(c1, rot @ code.basis(0.0)[1], atol=1e-12)
        assert abs(np.vdot(c0, c1)) < 1e-14
        assert np.vdot(c0, c0) == pytest.approx(1.0, abs=1e-14)


def test_omega_code_frame_generator() -> None:
    om = 0.2
    want = 0.5 * om * kron(np.diag([1.0, -1.0]).astype(complex), EYE2)
    assert np.allclose(np.diag(omega_code(om).frame_generator), want, atol=1e-14)


def test_omega_code_recovery_completeness_all_times() -> None:
    code = omega_code(0.2)
    for t in (0.0, 1.3, 5.0):
        total = sum(k.conj().T @ k for k in code.recovery_kraus(t))
        assert np.allclose(total, EYE4, atol=1e-12)
        sn4 = kron(sigma_n_omega(0.2, t), EYE2)
        proj = code.projector(t)
        assert np.max(np.abs(proj @ sn4 @ proj)) < 1e-12


# ---------------------------------------------------------------------------
# Recovery channel
# ---------------------------------------------------------------------------


def test_apply_recovery_corrects_noise_error() -> None:
    code = theta_code(np.pi / 4)
    rho0 = outer(code_probe(code))
    sn4 = kron(sigma_n_theta(np.pi / 4), EYE2)
    errored = 0.3 * rho0 + 0.7 * sn4 @ rho0 @ sn4
    assert np.allclose(apply_recovery(code, errored), rho0, atol=1e-12)


def test_apply_recovery_leakage() -> None:
    code = theta_code(np.pi / 4)
    rho0 = outer(code_probe(code))
    sn4 = kron(sigma_n_theta(np.pi / 4), EYE2)
    incomplete = QecCode(c0=code.c0, c1=code.c1, recovery=[code.projector()])
    with pytest.raises(LeakageError):
        apply_recovery(incomplete, 0.5 * rho0 + 0.5 * sn4 @ rho0 @ sn4)
    no_recovery = QecCode(c0=code.c0, c1=code.c1, recovery=None)
    with pytest.raises(ConfigError):
        apply_recovery(no_recovery, rho0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_apply_recovery_refuses_a_non_finite_state(value) -> None:
    # A NaN trace loss is not within tolerance.  An inf state turns NaN in
    # the Kraus sandwich, where numpy warns of an invalid value.
    for code in (theta_code(0.3), omega_code(0.3)):
        with np.errstate(invalid="ignore"), pytest.raises(LeakageError, match="lost trace nan"):
            apply_recovery(code, np.full((4, 4), value), 0.4)


def _correctable_state(code: QecCode, noise: np.ndarray, t: float) -> np.ndarray:
    # Probe and its noise image, at the code's time t: recovery keeps its trace.
    rho0 = outer(code_probe(code))
    return in_frame(0.3 * rho0 + 0.7 * noise @ rho0 @ noise, code._rate, t)


def _recover_from_kraus(code: QecCode, rho: np.ndarray, t: float) -> np.ndarray:
    out = np.zeros_like(rho)
    for k in code.recovery_kraus(t):
        out += k @ rho @ k.conj().T
    return 0.5 * (out + out.conj().T)


def test_apply_recovery_matches_kraus_sandwich() -> None:
    # The superoperator and the frame rate derived once per code agree
    # with the Kraus set rebuilt at each time, to rounding (1.1e-16 seen),
    # out to a rotating code's phase at t = 1e3.
    codes = [
        (theta_code(0.8), kron(sigma_n_theta(0.8), EYE2)),
        (omega_code(1.2), kron(sigma1, EYE2)),
    ]
    for code, noise in codes:
        for t in (0.0, 0.37, 5.0, 1e3):
            kraus = [in_frame(k, code._rate, t) for k in code.recovery]
            assert all(np.array_equal(a, b) for a, b in zip(code.recovery_kraus(t), kraus))
            rho = _correctable_state(code, noise, t)
            got = apply_recovery(code, rho, t)
            assert np.max(np.abs(got - _recover_from_kraus(code, rho, t))) <= 1e-15


@pytest.mark.parametrize(
    "code, noise",
    [(theta_code(0.8), kron(sigma_n_theta(0.8), EYE2)), (omega_code(1.2), kron(sigma1, EYE2))],
)
def test_recovery_at_t0_is_the_static_copy_bit_for_bit(code, noise) -> None:
    # At t = 0 every frame phase is exactly 1, so a code recovers as its
    # static copy does: a corrected evolution recovers with the code itself.
    static = dataclasses.replace(code, frame_generator=None)
    states = [_correctable_state(code, noise, 0.0), outer(code_probe(code))]
    for rho in states:
        assert np.array_equal(apply_recovery(code, rho), apply_recovery(static, rho))


def test_apply_recovery_accepts_a_real_state() -> None:
    # A real state recovers as the same state held as complex, bit for bit.
    code = theta_code(0.3)
    noise = kron(sigma_n_theta(0.3), EYE2)
    for rho in (np.eye(4) / 4, _correctable_state(code, noise, 0.0).real):
        assert rho.dtype == np.float64
        assert np.array_equal(apply_recovery(code, rho), apply_recovery(code, rho.astype(complex)))


def test_replaced_code_rebuilds_recovery() -> None:
    other = theta_code(0.3)
    rho = _correctable_state(other, kron(sigma_n_theta(0.3), EYE2), 0.0)
    new = dataclasses.replace(theta_code(0.8), recovery=other.recovery)
    assert np.array_equal(apply_recovery(new, rho), apply_recovery(other, rho))
    static = dataclasses.replace(omega_code(1.2), frame_generator=None)
    got = apply_recovery(static, rho, 0.37)
    assert np.max(np.abs(got - _recover_from_kraus(static, rho, 0.37))) <= 1e-15


@pytest.mark.parametrize(
    "closed, evolve",
    [
        (corrected_state_theta_closed, corrected_evolve_theta),
        (corrected_state_omega_closed, corrected_evolve_omega),
    ],
)
def test_recovery_map_is_built_only_when_a_recovery_runs(monkeypatch, closed, evolve) -> None:
    # A code builds its checked recovery map at its first recovery and keeps
    # it: the code of a closed state never builds one, corrected evolutions
    # build one per estimate rather than one per interval or per call, and a
    # replaced code builds its own rather than keep the one of the code it
    # came from.  The memo starts empty, so the first evolution builds it.
    qec._memo_code.cache_clear()
    built = []
    checked_map = qec._checked_map

    def record(*args, **kwargs):
        built.append(kwargs)
        return checked_map(*args, **kwargs)

    monkeypatch.setattr(qec, "_checked_map", record)
    closed(B, GAMMA, 0.8, 0.75, T)
    assert built == []
    evolve(B, GAMMA, 0.8, 0.75, 0.01, dt=1e-3, n_recoveries=5)
    evolve(B, GAMMA, 0.81, 0.75, 0.01, dt=1e-3, n_recoveries=5)
    assert built == [{"recovery": True}]
    code, other = theta_code(0.8), theta_code(0.3)
    assert "_recovery_map" not in vars(code)
    probe = outer(code_probe(code))
    apply_recovery(code, probe)
    apply_recovery(code, probe)
    assert len(built) == 2
    rho = _correctable_state(other, kron(sigma_n_theta(0.3), EYE2), 0.0)
    replaced = dataclasses.replace(code, recovery=other.recovery)
    assert np.array_equal(apply_recovery(replaced, rho), apply_recovery(other, rho))
    assert len(built) == 4


_CORRECTED = [
    (corrected_state_theta_closed, corrected_evolve_theta, theta_code, np.pi / 4, "theta_hat"),
    (corrected_state_omega_closed, corrected_evolve_omega, omega_code, 0.25, "omega_hat"),
]


@pytest.mark.parametrize("closed, evolve, make, hat, name", _CORRECTED)
def test_a_repeated_estimate_builds_no_recovery_or_coordinate_map(monkeypatch, closed, evolve, make, hat, name):
    # Short runs at one estimate, 2-step intervals: the static one recovers
    # through apply_recovery, the detuned rotating one on code coordinates.
    qec._memo_code.cache_clear()
    evolve(B, GAMMA, hat + 0.01, hat, 0.02, dt=1e-3, n_recoveries=10)
    assert "_recovery_map" in vars(qec._memo_code(make, hat.hex()))

    def refuse(*args, **kwargs):
        raise AssertionError("a map built again")

    monkeypatch.setattr(qec, "_checked_map", refuse)
    monkeypatch.setattr(qec, "_kron_conj", refuse)
    for x in (hat - 0.01, hat + 0.02):
        evolve(B, GAMMA, x, hat, 0.02, dt=1e-3, n_recoveries=10)
        closed(B, GAMMA, x, hat, T)


@pytest.mark.parametrize("closed, evolve, make, hat, name", _CORRECTED)
def test_a_memo_hit_returns_the_bytes_of_a_fresh_code(closed, evolve, make, hat, name) -> None:
    # Two calls at one estimate (the second a hit), one after the memo is
    # cleared, and one with the estimate as a numpy float, which shares it.
    def outputs(estimate):
        return [evolve(B, GAMMA, hat + 0.01, estimate, 0.05, dt=2.5e-3, n_recoveries=n) for n in (5, 20)] + [
            closed(B, GAMMA, hat + 0.01, estimate, T)
        ]

    qec._memo_code.cache_clear()
    first, hit = outputs(hat), outputs(hat)
    qec._memo_code.cache_clear()
    for got in (hit, outputs(hat), outputs(np.float64(hat))):
        assert [a.tobytes() for a in got] == [a.tobytes() for a in first]
    assert qec._memo_code.cache_info().currsize == 1


def test_signed_zero_estimates_and_the_two_codes_keep_their_own_entries() -> None:
    # theta_code(0.0) and theta_code(-0.0) differ in the signs of zeros, so a
    # hit of one for the other would hand out a code other than the one asked
    # for; theta and omega codes at one value are different codes.
    assert theta_code(0.0).c0.tobytes() != theta_code(-0.0).c0.tobytes()
    qec._memo_code.cache_clear()
    for closed, _, make, _, _ in _CORRECTED:
        for hat in (0.0, -0.0):
            got = closed(B, GAMMA, 0.01, hat, T)
            coherence = THETA_COHERENCE if make is theta_code else OMEGA_COHERENCE
            want = qec._closed_state(make(hat), coherence, B, GAMMA, 0.01 - hat, T)
            assert got.tobytes() == want.tobytes()
            assert qec._memo_code(make, hat.hex()).c0.tobytes() == make(hat).c0.tobytes()
    assert qec._memo_code.cache_info().currsize == 4


def test_the_code_memo_stays_bounded_and_public_codes_stay_fresh() -> None:
    qec._memo_code.cache_clear()
    for k in range(3 * qec._CODE_MEMO):
        corrected_state_theta_closed(B, GAMMA, 0.8, 0.8 + k * 1e-3, T)
        corrected_state_omega_closed(B, GAMMA, 0.3, 0.3 + k * 1e-3, T)
    assert qec._memo_code.cache_info().currsize == qec._CODE_MEMO
    qec._memo_code.cache_clear()  # an int estimate is built afresh, to the bytes of its float
    at_int = corrected_state_omega_closed(B, GAMMA, 0.3, 1, T)
    assert qec._memo_code.cache_info().currsize == 0
    assert at_int.tobytes() == corrected_state_omega_closed(B, GAMMA, 0.3, 1.0, T).tobytes()
    assert theta_code(0.8) is not theta_code(0.8)
    assert omega_code(0.3) is not omega_code(0.3)


@pytest.mark.parametrize("closed, evolve, make, hat, name", _CORRECTED)
@pytest.mark.parametrize("bad", [float("nan"), np.float64("nan"), float("inf"), -float("inf")])
def test_a_non_finite_estimate_is_refused_by_name_on_every_call(closed, evolve, make, hat, name, bad) -> None:
    qec._memo_code.cache_clear()
    for _ in range(2):
        with pytest.raises(DomainError, match=f"{name} must be finite, got {bad}"):
            evolve(B, GAMMA, hat, bad, 0.01, dt=1e-3, n_recoveries=5)
        with pytest.raises(DomainError, match=f"{name} must be finite, got {bad}"):
            closed(B, GAMMA, hat, bad, T)
    assert qec._memo_code.cache_info().currsize == 0


def test_results_do_not_alias_the_input() -> None:
    # Each result is an array of its own, even where no step, frame change
    # or conversion makes one: changing it leaves the caller's state alone.
    code = theta_code(0.3)
    rho = _correctable_state(code, kron(sigma_n_theta(0.3), EYE2), 0.0)
    kept = rho.copy()
    results = [
        lindblad_evolve(theta_model(B, GAMMA, 0.3), rho, 0.0),
        lindblad_evolve(omega_model(B, GAMMA, 0.3), rho, 0.0, t0=0.4),
        apply_recovery(code, rho),
    ]
    assert all(np.array_equal(out, kept) for out in results[:2])  # no time, no change
    for out in results:
        out[0, 1] = 7.0
        assert np.array_equal(rho, kept)


@pytest.mark.parametrize(
    "state",
    [
        np.ones(4),
        np.eye(3) / 3,
        np.ones((2, 4, 3)),
        np.float64(1.0),
        np.zeros((0, 4, 4)),
        np.ones((1, 4, 4)),
        np.ones((3, 4, 4)),
    ],
)
def test_apply_recovery_refuses_a_state_of_the_wrong_shape(state) -> None:
    # One (d, d) state per call: a stack of states, even of none or one, is refused.
    with pytest.raises(DimensionError, match=r"state shape \(.*\) does not match code dim 4"):
        apply_recovery(theta_code(0.3), state)


@pytest.mark.parametrize("t", [0.0, 0.3])
@pytest.mark.parametrize(
    "code, noise",
    [(theta_code(0.7), kron(sigma_n_theta(0.7), EYE2)), (omega_code(1.3), kron(sigma1, EYE2))],
)
def test_a_leaking_state_names_its_trace_loss(code, noise, t) -> None:
    # A recovery that misses the error space names the trace the state
    # lost, read from its one row by item, at any frame time.
    incomplete = dataclasses.replace(code, recovery=[code.projector()])
    rho0 = outer(code_probe(code))
    for weight, loss in ((0.2, "2.000e-01"), (0.5, "5.000e-01")):
        leaking = in_frame((1 - weight) * rho0 + weight * noise @ rho0 @ noise, code._rate, t)
        with pytest.raises(LeakageError) as err:
            apply_recovery(incomplete, leaking, t)
        assert str(err.value) == f"recovery lost trace {loss}: error space not fully spanned"


def _is_hermitian(rho: np.ndarray) -> bool:
    return np.array_equal(rho, rho.conj().T)


def test_every_returned_state_is_exactly_hermitian() -> None:
    # The checked maps pair the columns of entries (a, b) and (b, a) bit for
    # bit, and a frame phase is conjugate-symmetric, so every state the
    # evolutions and recoveries return equals its conjugate transpose exactly.
    rho = _random_states(6)
    evolved = [
        *(lindblad_evolve(theta_model(0.3, 0.2, 0.7), state, 1.0, dt=0.01) for state in rho),
        lindblad_evolve(omega_model(0.3, 0.2, 1.3), rho[1], 1.0, dt=0.01, t0=1.7),
        *(lindblad_evolve(omega_model(0.5, 0.1, 0.9), state, 1.0, dt=5e-3, t0=0.4) for state in rho),
    ]
    assert all(_is_hermitian(out) for out in evolved)
    codes = [
        (theta_code(0.8), kron(sigma_n_theta(0.8), EYE2)),
        (omega_code(1.2), kron(sigma1, EYE2)),
    ]
    for code, noise in codes:
        for t in (0.0, 0.37, 1e3):
            for state in (_correctable_state(code, noise, t), rho[2], rho[3]):
                assert _is_hermitian(apply_recovery(code, state, t))
    assert _is_hermitian(corrected_evolve_theta(0.3, 0.2, 0.9, 0.8, 1.0, dt=0.01, n_recoveries=20))
    assert _is_hermitian(corrected_evolve_omega(0.3, 0.2, 1.4, 1.2, 1.0, dt=0.01, n_recoveries=20))


# ---------------------------------------------------------------------------
# Stepwise corrected dynamics vs closed forms
# ---------------------------------------------------------------------------


def test_corrected_evolve_theta_identity_at_estimate() -> None:
    code = theta_code(np.pi / 4)
    rho0 = outer(code_probe(code))
    out = corrected_evolve_theta(B, GAMMA, np.pi / 4, np.pi / 4, 1.0, dt=1e-3)
    assert np.max(np.abs(out - rho0)) < 1e-12


def test_corrected_evolve_theta_converges_first_order() -> None:
    theta = np.pi / 4 + 0.1
    closed = corrected_state_theta_closed(B, GAMMA, theta, np.pi / 4, T)
    e_fine = np.max(np.abs(corrected_evolve_theta(B, GAMMA, theta, np.pi / 4, T, dt=1e-3, n_recoveries=5000) - closed))
    e_coarse = np.max(np.abs(corrected_evolve_theta(B, GAMMA, theta, np.pi / 4, T, dt=1e-3, n_recoveries=2500) - closed))
    assert e_fine < 5e-6
    assert 1.8 < e_coarse / e_fine < 2.2


def test_corrected_evolve_theta_step_errors() -> None:
    with pytest.raises(StepError):
        corrected_evolve_theta(B, GAMMA, 0.8, np.pi / 4, T, dt=1e-3, n_recoveries=3)


@pytest.mark.parametrize("evolve, closed, x, x_hat", [
    (corrected_evolve_theta, corrected_state_theta_closed, 0.9, 0.8),
    (corrected_evolve_omega, corrected_state_omega_closed, 0.3, 0.25),
])
def test_a_corrected_run_of_zero_length_returns_the_probe(evolve, closed, x, x_hat) -> None:
    # At one recovery a step, t = 0 once asked for a recovery count of 0 and
    # refused it, though the caller passed none; it runs no interval.
    got = evolve(0.1, 0.05, x, x_hat, 0.0)
    assert np.max(np.abs(got - closed(0.1, 0.05, x, x_hat, 0.0))) <= 1e-15


def test_corrected_state_theta_closed_qfi() -> None:
    def family(th: float) -> np.ndarray:
        return corrected_state_theta_closed(B, GAMMA, th, np.pi / 4, T)

    at_zero = qfi_sld_numeric(family, np.pi / 4).value
    assert abs(at_zero - qfi_theta_qec_closed(B, GAMMA, T, 0.0).value) < 1e-6
    detuned = qfi_sld_numeric(family, np.pi / 4 + 0.05).value
    assert abs(detuned - qfi_theta_qec_closed(B, GAMMA, T, 0.05).value) < 1e-6


def test_corrected_evolve_omega_converges_first_order() -> None:
    closed = corrected_state_omega_closed(B, GAMMA, 0.25, 0.2, T)
    e_fine = np.max(np.abs(corrected_evolve_omega(B, GAMMA, 0.25, 0.2, T, dt=1e-3, n_recoveries=5000) - closed))
    e_coarse = np.max(np.abs(corrected_evolve_omega(B, GAMMA, 0.25, 0.2, T, dt=1e-3, n_recoveries=2500) - closed))
    assert e_fine < 5e-5
    assert 1.8 < e_coarse / e_fine < 2.2


@pytest.mark.parametrize("n", [16, 65, 2000])
def test_a_rotating_corrected_evolution_calls_exp_six_times_at_any_length(monkeypatch, n) -> None:
    # From the shortest run on the code-word path on, every phase is made once
    # per evolution, none per interval or per table
    # of intervals: the probe's frame, whose coordinates start the code-word
    # path, the two RK4 stage times (dt / 2 and dt, whose phase also takes the
    # step map out of the frame), the model's exit after an interval, the
    # phases of the interval map's five samples, and the code words at the
    # end, which carry the coordinates out.  The probe's frame is made once
    # per estimate: a second evolution there keeps its code's coordinates.
    qec._memo_code.cache_clear()
    calls = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x: calls.append(x) or exp(x))
    corrected_evolve_omega(0.3, 0.2, 1.4, 1.2, 1.0, dt=1.0 / n, n_recoveries=n)
    assert len(calls) == 6
    calls.clear()
    corrected_evolve_omega(0.3, 0.2, 1.41, 1.2, 1.0, dt=1.0 / n, n_recoveries=n)
    assert len(calls) == 5


@pytest.mark.parametrize("n", [16, 255, 256, 257, 2001])
@pytest.mark.parametrize("s", [1, 8, 9, 16])
def test_a_detuned_rotating_evolution_makes_no_call_per_interval(monkeypatch, s, n) -> None:
    # Fused four a product or one a product, the last n % 4 intervals too,
    # every interval of a run of 16 or more is a product of dynamics._run.
    def refuse(*args):
        raise AssertionError("one call of each per interval")

    monkeypatch.setattr(qec, "lindblad_evolve", refuse)
    monkeypatch.setattr(qec, "apply_recovery", refuse)
    corrected_evolve_omega(0.3, 0.2, 1.4, 1.2, n * s * 1e-3, dt=1e-3, n_recoveries=n)


def test_corrected_state_omega_closed_structure() -> None:
    om, om_hat = 0.25, 0.2
    code = omega_code(om_hat)
    c0, c1 = code.basis(T)
    rho = corrected_state_omega_closed(B, GAMMA, om, om_hat, T)
    coh = np.vdot(c0, rho @ c1)
    a = om - om_hat
    assert abs(coh) == pytest.approx(
        0.5 * np.exp(-OMEGA_COHERENCE.at(B, GAMMA, a, T)[1]), abs=1e-12
    )
    assert np.angle(coh) == pytest.approx(-OMEGA_COHERENCE.at(B, GAMMA, a, T)[0], abs=1e-12)


def test_corrected_state_omega_closed_qfi() -> None:
    def family(om: float) -> np.ndarray:
        return corrected_state_omega_closed(B, GAMMA, om, 0.2, T)

    got = qfi_sld_numeric(family, 0.2).value
    assert got == pytest.approx(qfi_omega_qec_closed(B, GAMMA, T, 0.0).value, abs=1e-2)
    assert got == pytest.approx(14.58333, abs=1e-2)


# ---------------------------------------------------------------------------
# Fused and rotating corrected evolutions against one call of each per interval
# ---------------------------------------------------------------------------

# (a builder of the model and code, the path's block of intervals) per task: a static pair, or a
# rotating one at zero detuning, takes 16 intervals per product, a rotating pair reads its checks
# once per table.
_PAIRS = {
    "theta": (lambda: (theta_model(0.1, 0.05, 0.85), theta_code(0.8)), _BLOCK_STEPS),
    "omega": (lambda: (omega_model(0.3, 0.2, 1.4), omega_code(1.2)), dynamics._CHUNK),
    "omega_centre": (lambda: (omega_model(0.3, 0.2, 1.2), omega_code(1.2)), _BLOCK_STEPS),
}
_ARGS = {"theta": (0.1, 0.05, 0.85, 0.8), "omega": (0.3, 0.2, 1.4, 1.2), "omega_centre": (0.3, 0.2, 1.2, 1.2)}


@pytest.mark.parametrize("s", [1, 2, 4, 5, 20])
@pytest.mark.parametrize("task", ["theta", "omega", "omega_centre"])
def test_the_fused_and_lean_paths_match_one_call_of_each_per_interval(task, s) -> None:
    # A static evolution of 16 or more intervals is dynamics._steps of its
    # one interval map, products of up to 16 intervals, its last n % 16 one
    # product too, as is a rotating one at zero detuning, whose every
    # interval is the same map; a detuned rotating one makes no call either,
    # and a shorter run makes one call of each per interval.  All land
    # within 1e-13 of the route of one call of each per interval, across
    # block and table boundaries, and return exactly Hermitian states.
    # Intervals of 20 steps, more than one step block, are products too.
    build, dt, args = _PAIRS[task][0], 1e-3, _ARGS[task]
    evolve = corrected_evolve_theta if task == "theta" else corrected_evolve_omega
    for n in (1, 2, 3, 15, 16, 17, 33, 259, 1000):
        got = evolve(*args, n * s * dt, dt=dt, n_recoveries=n)
        *_, want = _per_interval(*build(), n * s * dt, dt, n)
        assert np.max(np.abs(got - want)) <= 1e-13
        assert _is_hermitian(got)


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("args, dt", [((0.3, 0.2, 1.4, 1.2), 1e-3), ((0.1, 0.05, 0.26, 0.25), 2.5e-3)])
def test_a_long_fused_run_stays_within_half_the_per_interval_routes_own_drift(args, dt, s) -> None:
    # Over thousands of intervals the rounding of both routes grows past 1e-13.
    # The route of one call of each per interval keeps the trace at 1 up to its
    # own rounding, which drifts by about 2 eps per interval; the fused path's
    # state stays within half that drift of it (it reads at most 0.11 of it).
    for n in (2000, 4097):
        got = corrected_evolve_omega(*args, n * s * dt, dt=dt, n_recoveries=n)
        *_, want = _per_interval(omega_model(*args[:3]), omega_code(args[3]), n * s * dt, dt, n)
        drift = abs(np.trace(want) - 1)
        assert drift > 1e-13
        assert np.max(np.abs(got - want)) <= drift / 2


def _intervals_on_rows(steps, code, model_exit, rate, tau: float, interval: float, p: int) -> np.ndarray:
    # p detuned rotating intervals from tau composed directly on the identity
    # rows of the code coordinates: each interval's embedding with the frame
    # phase at its start, block map, phase into the code's frame, and recovery
    # into coordinates; then the check columns, the last interval's trace and
    # witness after its steps and the trace all p recoveries lost.
    embed, recover, _ = code._coordinate_maps
    w = steps.shape[0]
    rows, lost = np.eye(8), 0.0
    for i in range(p):
        phase = np.exp(rate * (tau + i * interval)).ravel()
        stepped = ((rows @ embed).view(complex) * phase).view(np.float64) @ steps
        recovered = (stepped[:, :w].view(complex) * model_exit.ravel() / phase).view(np.float64) @ recover
        rows, lost = recovered[:, :8], lost + stepped[:, -1:] + recovered[:, 8:]
    return np.concatenate([rows, stepped[:, w:-1], lost], axis=1)


@pytest.mark.parametrize("s", [1, 4, 16, 20])
def test_a_rotating_interval_map_is_the_degree_2_polynomial_through_its_five_samples(s) -> None:
    # The code's frame turns against the model's at nu = |omega_hat - omega|, so the
    # map of the interval from tau on the code coordinates is a trigonometric
    # polynomial of degree 2 in nu tau.  The map the weights rebuild from the five
    # samples matches, within a few ulps of its norm, the interval composed directly
    # on the identity rows (the embedding, the block map, the frame phases, the
    # recovery) at angles off the sample grid.  A frame with a second rate would
    # break the polynomial and fail here.
    (model, code), dt = _PAIRS["omega"][0](), 1e-3
    interval, rate = s * dt, code._rate - model._rate
    steps, model_exit = dynamics._block_map(model._maps_at(dt), s), np.exp(model._rate * (s * dt))
    samples = qec._interval_polynomial(steps, code, model_exit.ravel(), rate)
    _, weights = qec._fused_polynomial(samples, rate, interval, 1)
    assert samples.shape == (5, 8, 8 + 3)
    for k in (1, 7, 250, 1999, 4321, 9999):  # nu tau from 2e-4 * s to 2 * s
        want = _intervals_on_rows(steps, code, model_exit, rate, k * interval, interval, 1)
        got = (weights(k, 1) @ samples.reshape(5, -1)).reshape(want.shape)
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.linalg.norm(want, 2)


@pytest.mark.parametrize("s, p", [(1, 2), (2, 2), (8, 2), (1, 4), (8, 4)])
def test_a_fused_rotating_map_is_the_degree_2p_polynomial_through_its_4p_plus_1_samples(s, p) -> None:
    # A product of p detuned rotating intervals from nu tau = a is a trigonometric
    # polynomial of degree 2p in a, fixed by its 4p + 1 samples.  At p = 4, which
    # qec._corrected_evolve takes at 1 to 8 steps an interval, and at p = 2, the
    # map the weights rebuild at angles off the sample grid matches, within a
    # few ulps of its norm, the p intervals composed directly on the identity
    # rows, with the last interval's trace and witness and the summed lost trace.
    (model, code), dt = _PAIRS["omega"][0](), 1e-3
    interval, rate = s * dt, code._rate - model._rate
    steps, model_exit = dynamics._block_map(model._maps_at(dt), s), np.exp(model._rate * (s * dt))
    samples = qec._interval_polynomial(steps, code, model_exit.ravel(), rate)
    fused, weights = qec._fused_polynomial(samples, rate, interval, p)
    assert fused.shape == (4 * p + 1, 8, 8 + 3)
    for k in (1, 7, 250, 1999, 4321, 9999):  # nu tau from 2e-4 * s p to 2 * s p
        want = _intervals_on_rows(steps, code, model_exit, rate, k * p * interval, interval, p)
        got = (weights(k, 1) @ fused.reshape(4 * p + 1, -1)).reshape(want.shape)
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.linalg.norm(want, 2)


@pytest.mark.parametrize("s", [1, 20])
@pytest.mark.parametrize("omega", [1.4, 1.0])
def test_a_code_coordinate_sample_is_the_32_float_interval_between_embedding_and_compression(omega, s) -> None:
    # With omega above and below omega_hat = 1.2, the map that the weights rebuild
    # from the five samples, at angles off their grid, is the interval map on the
    # (4, 4) state's float64 row (the block map, the phase into the code's frame at
    # tau, the recovery, the phase out of it at tau + interval), entered from the
    # coordinates y as V y V^dag in the frame at tau and left by the embedding's
    # left inverse G^-1 V^dag rho V G^-1, G = V^dag V, in the frame at tau + interval.
    model, code, dt = omega_model(0.3, 0.2, omega), omega_code(1.2), 1e-3
    interval, rate = s * dt, code._rate - model._rate
    steps, model_exit = dynamics._block_map(model._maps_at(dt), s), np.exp(model._rate * (s * dt))
    samples = qec._interval_polynomial(steps, code, model_exit.ravel(), rate)
    _, weights = qec._fused_polynomial(samples, rate, interval, 1)
    v = np.column_stack([code.c0, code.c1])
    left = np.linalg.inv(v.conj().T @ v) @ v.conj().T
    units = np.eye(8).view(complex).reshape(8, 2, 2)  # the coordinates' float64 rows, as matrices
    for k in (1, 7, 250, 1999, 4321, 9999):
        tau = k * interval
        embedded = (v @ units @ v.conj().T) * np.exp(rate * tau)
        stepped = embedded.reshape(8, 16).view(np.float64) @ steps
        x = stepped[:, :32].view(complex).reshape(8, 4, 4) * model_exit / np.exp(rate * tau)
        recovered = x.reshape(8, 16).view(np.float64) @ code._recovery_map
        out = recovered[:, :32].view(complex).reshape(8, 4, 4) * np.exp(rate * (tau + interval))
        y = left @ (out / np.exp(rate * (tau + interval))) @ left.conj().T
        lost = stepped[:, -1:] + recovered[:, 32:]
        want = np.concatenate([y.reshape(8, 4).view(np.float64), stepped[:, 32:-1], lost], axis=1)
        got = (weights(k, 1) @ samples.reshape(5, -1)).reshape(want.shape)
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.linalg.norm(want, 2)


def test_a_recovery_that_leaves_the_code_words_is_refused_before_any_product(monkeypatch) -> None:
    # A detuned rotating evolution keeps only the recovered state's coordinates in
    # the code words, so a recovery whose output leaves their span would drop that
    # weight with no check seeing it: it is refused before any product runs.
    def refuse(*args):
        raise AssertionError("a product ran")

    monkeypatch.setattr(qec, "_run", refuse)
    code = dataclasses.replace(omega_code(1.2), recovery=[np.eye(4)])
    with pytest.raises(ConfigError, match="^recovery leaves the span of the code words$"):
        qec._corrected_evolve(omega_model(0.3, 0.2, 1.4), code, 0.1, 1e-3, 20)


def test_a_detuned_rotating_run_starts_from_the_probes_code_coordinates() -> None:
    # The coordinates the code-word path starts from embed as the probe's state.
    code = omega_code(1.2)
    v = np.column_stack([code.c0, code.c1])
    assert np.max(np.abs(v @ code._coordinate_maps[2] @ v.conj().T - outer(code_probe(code)))) <= 1e-15


@pytest.mark.parametrize(
    "n, s, on_coordinates",
    [(15, 1, False), (16, 1, True), (15, 17, False), (16, 17, True), (15, 129, False), (16, 129, True),
     (1, 5000, False), (16, 1000, True)],
)
def test_a_detuned_rotating_run_takes_code_coordinates_only_where_they_pay(monkeypatch, n, s, on_coordinates) -> None:
    # A run of 16 or more intervals, at any number of steps an interval, is
    # dynamics._run products on the code coordinates and makes no call of
    # lindblad_evolve or apply_recovery; a shorter run makes one call of each
    # per interval, whose step blocks hold at most 16 steps.  Either path
    # lands within 1e-13 of one call of each per interval.
    def refuse(*args):
        raise AssertionError("one call of each per interval")

    if on_coordinates:
        monkeypatch.setattr(qec, "lindblad_evolve", refuse)
        monkeypatch.setattr(qec, "apply_recovery", refuse)
    runs = []
    monkeypatch.setattr(qec, "_run", lambda *args, run=qec._run: runs.append(args) or run(*args))
    model, code, dt = omega_model(0.3, 0.2, 1.4), omega_code(1.2), 1e-3
    got = qec._corrected_evolve(model, code, n * s * dt, dt, n)
    assert bool(runs) == on_coordinates
    *_, want = _per_interval(omega_model(0.3, 0.2, 1.4), omega_code(1.2), n * s * dt, dt, n)
    assert np.max(np.abs(got - want)) <= 1e-13
    assert _is_hermitian(got)


@pytest.mark.parametrize("n", [16, 17, 128, 129, 1007, 2000])
@pytest.mark.parametrize("task", ["theta", "omega_centre"])
def test_a_static_or_centre_run_takes_its_products_from_steps(monkeypatch, task, n) -> None:
    # Where every interval is the same map, a run of 16 or more intervals is
    # one dynamics._steps of that map, as a free run is of its step: it makes
    # no product of its own through dynamics._run and no call of each per
    # interval.
    def refuse(*args):
        raise AssertionError("a product of its own or one call of each per interval")

    for name in ("_run", "lindblad_evolve", "apply_recovery"):
        monkeypatch.setattr(qec, name, refuse)
    runs = []
    monkeypatch.setattr(qec, "_steps", lambda *args, steps=qec._steps: runs.append(args[2]) or steps(*args))
    model, code = _PAIRS[task][0]()
    qec._corrected_evolve(model, code, n * 1e-3, 1e-3, n)
    assert runs == [n]


@pytest.mark.parametrize("omega, omega_hat", [(1e-308, 2e-308), (5e-324, 0.0)])
def test_a_subnormal_detuning_evolves_like_one_call_of_each(omega, omega_hat) -> None:
    # The samples' phases take nu tau as an angle and the sign of the rate as its
    # direction, so a detuning that is tiny, even subnormal, divides by nothing and
    # overflows nowhere.
    got = corrected_evolve_omega(0.3, 0.2, omega, omega_hat, 0.1, dt=1e-3, n_recoveries=20)
    *_, want = _per_interval(omega_model(0.3, 0.2, omega), omega_code(omega_hat), 0.1, 1e-3, 20)
    assert np.max(np.abs(got - want)) <= 1e-13


def _failing_interval(intervals) -> tuple[int, str, type]:
    # The interval, counted from 1, at which a per-interval route first
    # raises, with the message and class it raises.
    done = 0
    with pytest.raises((InstabilityError, LeakageError)) as err:
        for _ in intervals:
            done += 1
    return done + 1, str(err.value), err.type


# (task, steps per interval, the failing interval's place): on the static task
# inside a product of 16 intervals; on the rotating one in a run of 128
# intervals, placed as if one went per product; and in runs of 256 or more at
# each place inside a product of four intervals, and in the last of the three
# intervals left over, which go as one more product.
_FAILING = [("theta", 5, None), ("omega", 2, None)] + [("omega", s, at) for s in (1, 2) for at in (0, 1, 2, 3, "tail")]


@pytest.mark.parametrize("kind", ["drift", "leakage"])
@pytest.mark.parametrize("task, s, at", _FAILING)
def test_a_forced_failure_inside_a_later_block_names_what_one_call_of_each_names(task, s, at, kind) -> None:
    # Drift: the recovery's second Kraus operator K, shrunk by eps, loses
    # (2 eps - eps^2) <K^dag K> of trace at each recovery until a step's trace
    # has drifted by 1e-6.  Leakage: the recovery's lost-trace column also reads
    # alpha times the code-word coherence Im <c0|rho|c1>, which the detuning
    # grows, so one recovery's reading passes 1e-6 and the state is not
    # touched.  A route of one call of each per interval reads the witness
    # before each recovery, and eps or alpha is set so that the first failure
    # falls at the target interval, in a later block (16 static intervals, or
    # 64 rotating products of p intervals) and at no block boundary.  The route
    # then finds it there; the fused path raises its class and message, and an
    # evolution of k - 1 intervals of the same length raises nothing.
    (build, block), dt = _PAIRS[task], 1e-3
    model, code = build()
    if at is None:  # placed in blocks of 16 static intervals or 64 rotating ones
        n, p, target = (4 if task == "theta" else 2) * block, 1, block + 5
    else:  # a rotating run of 256 or more intervals, four a product, then the rest as one
        p = 4
        n = 2 * block * p + (p - 1 if at == "tail" else 0)
        target = n if at == "tail" else (block + 5) * p + at + 1
    if kind == "drift":
        kraus = code.recovery[1].conj().T @ code.recovery[1]
        witness = np.column_stack([kraus.T.real.ravel(), -kraus.T.imag.ravel()]).reshape(16 * 2, 1)
    else:
        c0, c1 = code.basis()
        z = np.outer(c0.conj(), c1).ravel()
        witness = np.column_stack([z.imag, z.real]).reshape(16 * 2, 1)  # Im <c0|rho|c1> of a float64 row
    readings = np.abs(np.ravel(list(_per_interval(model, code, n * s * dt, dt, n, witness))))
    if kind == "drift":  # the trace lost by the recoveries before the target's first step crosses 1e-6
        lost = np.cumsum(readings)
        assert np.all(readings > 0)
        eps = 1 - np.sqrt(1 - 2e-6 / (lost[target - 3] + lost[target - 2]))
        code = dataclasses.replace(code, recovery=[code.recovery[0], (1 - eps) * code.recovery[1]])
    else:
        assert np.all(np.diff(readings) > 0)
        alpha = 2e-6 / (readings[target - 2] + readings[target - 1])
        leaky = code._recovery_map.copy()
        leaky[:, -1:] += alpha * witness
        code = dataclasses.replace(code)
        vars(code)["_recovery_map"] = leaky
    k, message, error = _failing_interval(_per_interval(model, code, n * s * dt, dt, n))
    assert k == target
    assert k > n - n % p if at == "tail" else k > block * p and (k - 1) // p % block not in (0, block - 1)
    if kind == "leakage":
        assert error is LeakageError
    else:
        assert message.endswith("at step 1") and error is InstabilityError
    with pytest.raises(error) as err:
        qec._corrected_evolve(model, code, n * s * dt, dt, n)
    assert str(err.value) == message
    qec._corrected_evolve(model, code, (k - 1) * s * dt, dt, k - 1)


# ---------------------------------------------------------------------------
# Error-correction conditions
# ---------------------------------------------------------------------------


def test_check_qec_conditions_theta() -> None:
    report = check_qec_conditions(theta_model(B, GAMMA, np.pi / 4), theta_code(np.pi / 4))
    assert report.alpha == pytest.approx([0.0], abs=1e-12)
    assert report.beta[0, 0] == pytest.approx(GAMMA, abs=1e-12)
    assert report.d == pytest.approx([GAMMA], abs=1e-12)
    assert report.residual_alpha < 1e-12
    assert report.residual_beta < 1e-12


def test_check_qec_conditions_wrong_code() -> None:
    c0 = np.array([1, 0, 0, 0], dtype=complex)
    c1 = np.array([0, 0, 0, 1], dtype=complex)
    wrong = QecCode(c0=c0, c1=c1, recovery=None)
    with pytest.raises(QecConditionError) as exc:
        check_qec_conditions(theta_model(B, GAMMA, np.pi / 4), wrong)
    assert exc.value.residuals
    assert any(name.startswith("E_0") for name, _ in exc.value.residuals)


def test_check_qec_conditions_identity_noise() -> None:
    model = LindbladModel(
        dim=4,
        hamiltonian=ZERO4,
        lindblads=[np.sqrt(GAMMA) * EYE4],
    )
    report = check_qec_conditions(model, theta_code(np.pi / 4))
    assert report.alpha == pytest.approx([np.sqrt(GAMMA)], abs=1e-12)
    assert report.d == pytest.approx([0.0], abs=1e-12)


# ---------------------------------------------------------------------------
# Expansion engine
# ---------------------------------------------------------------------------


def test_expansion_worked_example() -> None:
    code = theta_code(np.pi / 4)
    report = expansion_superoperators(theta_model(B, GAMMA, np.pi / 4), code)
    c0, c1 = code.basis()
    s3c = outer(c0) - outer(c1)
    # L0 = P H P and the control -P H P that cancels it both vanish here.
    proj = code.projector()
    assert np.max(np.abs(proj @ theta_model(B, GAMMA, np.pi / 4).hamiltonian @ proj)) < 1e-12
    assert np.allclose(report.l1_generator, B * s3c, atol=1e-10)
    rho0 = outer(code_probe(code))
    want_l2 = GAMMA * (s3c @ rho0 @ s3c - rho0)
    assert np.allclose(report.l2_action.apply(rho0), want_l2, atol=1e-10)
    assert report.active == [0]


def test_expansion_gram_recombination() -> None:
    # Two identical half-weight copies of the noise operator have a singular
    # Gram matrix; recombination must shed the null direction and leave the
    # physics unchanged.
    sn4 = kron(sigma_n_theta(np.pi / 4), EYE2)
    sm4 = kron(
        -np.sin(np.pi / 4) * np.array([[0, 1], [1, 0]], dtype=complex)
        + np.cos(np.pi / 4) * np.array([[1, 0], [0, -1]], dtype=complex),
        EYE2,
    )
    half = np.sqrt(GAMMA / 2)
    model = LindbladModel(
        dim=4,
        hamiltonian=B * sn4,
        lindblads=[half * sn4, half * sn4],
        d_hamiltonian=B * sm4,
        d_lindblads=[half * sm4, half * sm4],
        dd_hamiltonian=-B * sn4,
        dd_lindblads=[-half * sn4, -half * sn4],
    )
    code = theta_code(np.pi / 4)
    report = expansion_superoperators(model, code)
    assert report.orthogonalized is True
    assert sorted(np.round(report.conditions.d, 12)) == pytest.approx([0.0, GAMMA], abs=1e-12)
    assert len(report.active) == 1
    got = asymptotic_qfi(report, code_probe(code), T)
    assert got.value == pytest.approx(2.0, abs=1e-10)


def test_expansion_degenerate_coupling() -> None:
    # Nearly scalar noise carries no error-space weight, yet its derivative
    # still couples through the weightless direction: the 1/sqrt(d) term is
    # ill defined and must be refused.
    sn4 = kron(sigma_n_theta(np.pi / 4), EYE2)
    eps = 1e-7
    model = LindbladModel(
        dim=4,
        hamiltonian=ZERO4,
        lindblads=[np.sqrt(GAMMA) * EYE4 + eps * sn4],
        d_hamiltonian=ZERO4,
        d_lindblads=[sn4],
        dd_hamiltonian=ZERO4,
        dd_lindblads=[ZERO4],
    )
    with pytest.raises(DegenerateErrorSpaceError):
        expansion_superoperators(model, theta_code(np.pi / 4))


def test_expansion_harmless_identity_noise() -> None:
    # Scalar noise with a vanishing derivative is dropped entirely; only the
    # coherent part of the dynamics carries information.
    th = np.pi / 4
    sn4 = kron(sigma_n_theta(th), EYE2)
    sm4 = kron(
        -np.sin(th) * np.array([[0, 1], [1, 0]], dtype=complex)
        + np.cos(th) * np.array([[1, 0], [0, -1]], dtype=complex),
        EYE2,
    )
    model = LindbladModel(
        dim=4,
        hamiltonian=B * sn4,
        lindblads=[np.sqrt(GAMMA) * EYE4],
        d_hamiltonian=B * sm4,
        d_lindblads=[ZERO4],
        dd_hamiltonian=-B * sn4,
        dd_lindblads=[ZERO4],
    )
    code = theta_code(th)
    report = expansion_superoperators(model, code)
    assert report.active == []
    got = asymptotic_qfi(report, code_probe(code), T)
    assert got.value == pytest.approx(4 * B * B * T * T, abs=1e-10)


def test_expansion_unitary_model_without_lindblad_operators() -> None:
    # No noise at all: the conditions hold vacuously and only the coherent
    # part carries information, 4 B^2 t^2.
    th = np.pi / 4
    model = dataclasses.replace(
        theta_model(B, 0.0, th), lindblads=[], d_lindblads=[], dd_lindblads=[]
    )
    code = theta_code(th)
    report = expansion_superoperators(model, code)
    assert report.conditions.alpha.shape == (0,) and report.conditions.beta.shape == (0, 0)
    assert report.orthogonalized is False and report.active == []
    assert np.allclose(report.l1_generator, B * (outer(code.c0) - outer(code.c1)), atol=1e-10)
    got = asymptotic_qfi(report, code_probe(code), T)
    assert got.value == pytest.approx(4 * B * B * T * T, abs=1e-10)


@pytest.mark.parametrize("eps", [3e-6, 9e-6, 1.1e-5, 1e-4, 1e-2])
def test_expansion_small_weight_direction_is_corrected(eps) -> None:
    # sqrt(gamma) I + eps sigma_n has error weight eps^2 along sigma_n and a
    # derivative along sigma_n: the recovery returns that derivative to the
    # code space, so nothing is lost and J = 0, however small the weight.
    sn4 = kron(sigma_n_theta(np.pi / 4), EYE2)
    model = LindbladModel(
        dim=4, hamiltonian=ZERO4, lindblads=[np.sqrt(GAMMA) * EYE4 + eps * sn4],
        d_hamiltonian=ZERO4, d_lindblads=[sn4], dd_hamiltonian=ZERO4, dd_lindblads=[ZERO4],
    )
    code = theta_code(np.pi / 4)
    report = expansion_superoperators(model, code)
    assert report.active == [0]
    assert asymptotic_qfi(report, code_probe(code), T).value == pytest.approx(0.0, abs=1e-9)


def test_expansion_omega_time_local_generator() -> None:
    code = omega_code(0.2)
    tau = 2.0
    report = expansion_superoperators(omega_model(B, GAMMA, 0.2), code, t=tau)
    assert report.conditions.alpha == pytest.approx([0.0], abs=1e-12)
    assert report.conditions.d == pytest.approx([GAMMA], abs=1e-12)
    c0, c1 = code.basis(tau)
    want = B * tau * (outer(c0) - outer(c1))
    assert np.allclose(report.l1_generator, want, atol=1e-10)


# ---------------------------------------------------------------------------
# Asymptotic information rate
# ---------------------------------------------------------------------------


def test_asymptotic_qfi_worked_example() -> None:
    code = theta_code(np.pi / 4)
    report = expansion_superoperators(theta_model(B, GAMMA, np.pi / 4), code)
    got = asymptotic_qfi(report, code_probe(code), T)
    assert got.value == pytest.approx(4 * B * B * T * T + 4 * GAMMA * T, abs=1e-10)


def test_asymptotic_qfi_generator_eigenstate() -> None:
    code = theta_code(np.pi / 4)
    report = expansion_superoperators(theta_model(B, GAMMA, np.pi / 4), code)
    c0, _ = code.basis()
    assert asymptotic_qfi(report, c0, T).value == pytest.approx(0.0, abs=1e-12)


def test_asymptotic_qfi_unitary_model() -> None:
    code = theta_code(np.pi / 4)
    report = expansion_superoperators(theta_model(B, 0.0, np.pi / 4), code)
    got = asymptotic_qfi(report, code_probe(code), T)
    assert got.value == pytest.approx(4 * B * B * T * T, abs=1e-10)


def test_asymptotic_qfi_domain_errors() -> None:
    code = theta_code(np.pi / 4)
    model = theta_model(B, GAMMA, np.pi / 4)
    report = expansion_superoperators(model, code)
    psi = code_probe(code)
    with pytest.raises(DomainError):
        asymptotic_qfi(report, 2.0 * psi, T)
    outside = np.array([1, 0, 0, 0], dtype=complex)
    with pytest.raises(DomainError):
        asymptotic_qfi(report, outside, T)


def test_asymptotic_l2_nonpositive_random_probes() -> None:
    code = theta_code(np.pi / 4)
    report = expansion_superoperators(theta_model(B, GAMMA, np.pi / 4), code)
    c0, c1 = code.basis()
    rng = np.random.default_rng(21)
    for _ in range(100):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = a * c0 + b * c1
        psi /= np.linalg.norm(psi)
        rho = outer(psi)
        l2 = np.vdot(psi, report.l2_action.apply(rho) @ psi).real
        assert l2 <= 1e-12
        assert asymptotic_qfi(report, psi, T).value >= -1e-12


# ---------------------------------------------------------------------------
# Expansion dynamics
# ---------------------------------------------------------------------------


def test_expansion_evolve_matches_closed_state() -> None:
    code = theta_code(np.pi / 4)
    report = expansion_superoperators(theta_model(B, GAMMA, np.pi / 4), code)
    rho0 = outer(code_probe(code))
    got = expansion_evolve(report, rho0, 0.05, T, dt=1e-3)
    want = corrected_state_theta_closed(B, GAMMA, np.pi / 4 + 0.05, np.pi / 4, T)
    assert np.max(np.abs(got - want)) < 2e-5


def test_expansion_evolve_fidelity_law() -> None:
    # Bures route through the expansion dynamics: 8(1 - F)/dx^2 must match
    # the asymptotic information rate.
    code = theta_code(np.pi / 4)
    report = expansion_superoperators(theta_model(B, GAMMA, np.pi / 4), code)
    rho0 = outer(code_probe(code))
    dx = 1e-3
    r_base = expansion_evolve(report, rho0, 0.0, T, dt=1e-3)
    r_step = expansion_evolve(report, rho0, dx, T, dt=1e-3)
    j_fd = 8.0 * (1.0 - fidelity(r_base, r_step)) / dx**2
    j_engine = asymptotic_qfi(report, code_probe(code), T).value
    assert j_fd == pytest.approx(j_engine, rel=0.01)


def test_expansion_evolve_step_error() -> None:
    code = theta_code(np.pi / 4)
    report = expansion_superoperators(theta_model(B, GAMMA, np.pi / 4), code)
    rho0 = outer(code_probe(code))
    with pytest.raises(StepError):
        expansion_evolve(report, rho0, 0.05, 5.0005, dt=1e-3)


@pytest.mark.parametrize("state", [np.ones(16), np.ones((2, 8)), np.ones((2, 4, 4))])
def test_expansion_evolve_refuses_a_state_of_the_wrong_shape(state) -> None:
    report = expansion_superoperators(theta_model(B, GAMMA, 0.3), theta_code(0.3))
    with pytest.raises(DimensionError, match=r"state shape \(.*\) does not match report dim 4"):
        expansion_evolve(report, state, 0.05, 0.01, dt=1e-3)


def _reference_expansion(report, rho0, dx: float, t: float, dt: float) -> np.ndarray:
    # The closure loop: every RK4 stage applies the expansion's operators,
    # then each step re-symmetrises.
    h = dx * report.l1_generator

    def rhs(rho: np.ndarray) -> np.ndarray:
        return -1j * (h @ rho - rho @ h) + dx * dx * report.l2_action.apply(rho)

    rho = np.array(rho0, dtype=complex)
    for k in range(fixed_steps(t, dt)):
        rho = _rk4_step(lambda _t: rhs, rho, k * dt, dt)
        rho = 0.5 * (rho + rho.conj().T)
    return rho


@pytest.mark.parametrize("dx", [0.0, 0.05])
def test_expansion_step_map_matches_the_closure_loop(dx) -> None:
    code = theta_code(np.pi / 4)
    report = expansion_superoperators(theta_model(B, GAMMA, np.pi / 4), code)
    rho0 = outer(code_probe(code))
    got = expansion_evolve(report, rho0, dx, T, dt=1e-2)
    assert np.max(np.abs(got - _reference_expansion(report, rho0, dx, T, 1e-2))) < 1e-12


def test_expansion_trace_column_raises_at_the_step_the_state_drifts() -> None:
    # The expansion keeps the trace exactly, so a genuine drift needs an L2
    # that does not: its jump operators a_k scaled by 1 - 3e-5 lose trace at
    # every step.  The check must fail at the step where the closure loop's
    # trace first leaves 1 by more than 1e-6, inside a later block of steps.
    code = theta_code(np.pi / 4)
    report = expansion_superoperators(theta_model(B, GAMMA, np.pi / 4), code)
    l2 = report.l2_action
    lossy = dataclasses.replace(
        report, l2_action=dataclasses.replace(l2, kraus_a=[(1 - 3e-5) * a for a in l2.kraus_a])
    )
    rho0 = outer(code_probe(code))
    step = 34
    assert step > _BLOCK_STEPS and step % _BLOCK_STEPS not in (0, 1)
    for k in range(1, step + 1):
        rho = _reference_expansion(lossy, rho0, 1.0, k * 1e-2, 1e-2)
        assert (abs(np.trace(rho).real - 1.0) > 1e-6) == (k == step)
    with pytest.raises(InstabilityError, match=f"at step {step}$"):
        expansion_evolve(lossy, rho0, 1.0, 1.0, dt=1e-2)


# ---------------------------------------------------------------------------
# Pinned evolution numbers
# ---------------------------------------------------------------------------

# Recorded while every model operator was a function of time, evaluated on
# each integrator sub-step.  The angle task's digest is of the lab-frame RK4
# loop below, which keeps every byte; the frequency task's literals may move
# by rounding only, since its operators are now phase-weighted t = 0
# matrices.  The production step map is pinned to both within 1e-12.
_THETA_SHA256 = "935db7319b9f32eba2164ee11095cbbdf408261ca46ab67bb4a9a99aa39b6e30"
_OMEGA_EVOLVED = np.array([
    [0.30846166712801626+0.0j, -0.05475562420498503-0.04699756590038305j,
     -0.14947501052733686-0.2720738434617027j, -0.24732589895242918-0.06741876341611511j],
    [-0.05475562420498503+0.04699756590038305j, 0.08410140330093127+0.0j,
     0.08078368769111223+0.032136451339474875j, 0.0775703610279252+0.018936726523827697j],
    [-0.14947501052733686+0.2720738434617027j, 0.08078368769111223-0.032136451339474875j,
     0.3515076483866008+0.0j, 0.18965435292827557-0.1823656127410106j],
    [-0.24732589895242918+0.06741876341611511j, 0.0775703610279252-0.018936726523827697j,
     0.18965435292827557+0.1823656127410106j, 0.2559292811844514+0.0j],
])
_OMEGA_CORRECTED = np.array([
    [0.24999999999999906+0.0j, 0.24727036832587684-0.018826291326966456j,
     -0.2330097714918057+0.090589438619168j, 0.22364379543086643-0.10714717477572323j],
    [0.24727036832587687+0.01882629132696646j, 0.249999999999999+0.0j,
     -0.23728750073159288+0.07205349605464616j, 0.2330097714918057-0.090589438619168j],
    [-0.2330097714918057-0.090589438619168j, -0.23728750073159288-0.07205349605464616j,
     0.249999999999999+0.0j, -0.24727036832587687+0.01882629132696646j],
    [0.22364379543086643+0.10714717477572323j, 0.2330097714918057+0.090589438619168j,
     -0.24727036832587684-0.018826291326966456j, 0.24999999999999903+0.0j],
])


def _random_states(n: int) -> np.ndarray:
    rng = np.random.default_rng(4)
    v = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v[:, :, None] * v[:, None, :].conj()


def _reference_corrected(model, code: QecCode, t: float, dt: float, n_recoveries: int):
    # _corrected_evolve with each interval evolved by the lab-frame loop and
    # recovered by the Kraus sandwich.
    rho = outer(code_probe(code))
    interval = t / n_recoveries
    for k in range(n_recoveries):
        tau = k * interval
        rho = _recover_from_kraus(code, _reference_evolve(model, rho, interval, dt, t0=tau), tau)
        if code._rate is not None:
            rho = rho * np.exp(code._rate * interval)
    return rho


def test_evolution_numbers_pinned() -> None:
    rho = _random_states(2)
    theta, omega = theta_model(0.3, 0.2, 0.7), omega_model(0.3, 0.2, 1.3)
    evolved = _reference_evolve(theta, rho, 1.0, 0.01, t0=0.4)
    corrected = _reference_corrected(theta_model(0.3, 0.2, 0.9), theta_code(0.8), 1.0, 0.01, 20)
    digest = hashlib.sha256(evolved.tobytes())
    digest.update(corrected.tobytes())
    assert digest.hexdigest() == _THETA_SHA256
    alone = np.stack([lindblad_evolve(theta, state, 1.0, dt=0.01, t0=0.4) for state in rho])
    assert np.max(np.abs(alone - evolved)) < 1e-12
    got = corrected_evolve_theta(0.3, 0.2, 0.9, 0.8, 1.0, dt=0.01, n_recoveries=20)
    assert np.max(np.abs(got - corrected)) < 1e-12

    evolved = lindblad_evolve(omega, rho[0], 1.0, dt=0.01, t0=0.4)
    assert np.max(np.abs(evolved - _OMEGA_EVOLVED)) < 1e-12
    assert np.max(np.abs(_reference_evolve(omega, rho[0], 1.0, 0.01, t0=0.4) - evolved)) < 1e-12
    corrected = corrected_evolve_omega(0.3, 0.2, 1.4, 1.2, 1.0, dt=0.01, n_recoveries=20)
    assert np.max(np.abs(corrected - _OMEGA_CORRECTED)) < 1e-12
    reference = _reference_corrected(omega_model(0.3, 0.2, 1.4), omega_code(1.2), 1.0, 0.01, 20)
    assert np.max(np.abs(reference - corrected)) < 1e-12


def test_step_map_matches_the_lab_frame_loop() -> None:
    # One step map in the model's frame against RK4 rebuilt at every step:
    # a constant model, a framed one started at t0 != 0, a model file, and
    # six states of another framed model.
    file_model, _ = load_model_file(resolve_model_path("theta_example"))
    rho = _random_states(6)
    cases = [
        (theta_model(0.3, 0.2, 0.7), rho[0], 2.0, 0.01, 0.0),
        (omega_model(0.3, 0.2, 1.3), rho[1], 2.0, 0.01, 1.7),
        (file_model, rho[2], 2.0, 0.02, 0.3),
        *((omega_model(0.5, 0.1, 0.9), state, 1.0, 5e-3, 0.4) for state in rho),
    ]
    for model, rho0, t, dt, t0 in cases:
        got = lindblad_evolve(model, rho0, t, dt=dt, t0=t0)
        assert got.shape == rho0.shape
        assert np.max(np.abs(got - _reference_evolve(model, rho0, t, dt, t0))) < 1e-12


@pytest.mark.parametrize("framed", [False, True])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_step_map_is_the_lab_frame_rk4_step_on_complex_operators(d, framed) -> None:
    # The superoperator polynomial of _maps_at against one lab-frame RK4 step
    # of every basis matrix, taken into the frame at dt, on a random Hermitian
    # H, random complex non-Hermitian Lindblad operators and a random frame.
    rng = np.random.default_rng(10 * d + framed)

    def op() -> np.ndarray:
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    h, frame = op(), rng.normal(size=d) if framed else None
    model = LindbladModel(d, h + h.conj().T, [op(), op()], frame=frame)
    dt, n = 0.01, d * d
    basis = np.eye(n, dtype=complex).reshape(n, d, d)
    lab = in_frame(_rk4_step(_field(model), basis, 0.0, dt), model._rate, -dt).reshape(n, n)
    want = dynamics._checked_map(lab, d)
    gap = np.max(np.abs(model._maps_at(dt)[1] - want))
    assert gap <= 4 * np.finfo(float).eps * np.linalg.norm(want, 2)
