"""Physical models, Lindblad integration and stochastic trajectories."""

from __future__ import annotations

import dataclasses
import warnings
from itertools import repeat

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from fluxmet import dynamics, qec
from fluxmet.dynamics import (
    bell_probe,
    dephasing_kraus,
    lindblad_evolve,
    omega_model,
    sample_omega_trajectories,
    sample_phases,
    sigma_n_omega,
    sigma_n_theta,
    theta_model,
    trajectory_average_state,
    trajectory_outcome_probability,
)
from fluxmet.cli import load_model_file, resolve_model_path
from fluxmet.errors import DimensionError, DomainError, InstabilityError, LeakageError, StepError
from fluxmet.metrology import qfi_sld_numeric
from fluxmet.qec import apply_recovery, omega_code
from fluxmet.qmat import hermitian_eig, kron

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)

B, GAMMA, T = 0.1, 0.05, 5.0


def bell_rho() -> np.ndarray:
    psi = bell_probe()
    return np.outer(psi, psi.conj())


def test_theta_model_hamiltonian_spectrum() -> None:
    model = theta_model(B, GAMMA, np.pi / 4)
    assert model.dim == 4
    vals, _ = hermitian_eig(model.hamiltonian)
    assert np.allclose(np.sort(vals), [-0.1, -0.1, 0.1, 0.1], atol=1e-12)
    # Constant in t.
    assert np.array_equal(model.at(0.0)[0], model.at(3.7)[0])


def test_theta_model_unitary_limit_has_zero_lindblad() -> None:
    model = theta_model(B, 0.0, 0.3)
    assert len(model.lindblads) == 1
    assert np.max(np.abs(model.lindblads[0])) == 0.0


def test_theta_model_rejects_negative_rate() -> None:
    with pytest.raises(DomainError):
        theta_model(B, -0.01, 0.3)


def test_lindblad_model_rejects_nan_hamiltonian() -> None:
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = np.nan
    with pytest.raises(DomainError, match="not Hermitian"):
        dataclasses.replace(theta_model(B, GAMMA, 0.3), hamiltonian=h)


def test_lindblad_model_refuses_a_hamiltonian_not_of_its_dim() -> None:
    # Unrefused, dim 3 on the theta model's 4x4 operators constructed, and
    # expansion_superoperators raised numpy's bare broadcast ValueError.
    with pytest.raises(DimensionError, match=r"^hamiltonian shape \(4, 4\) does not match model dim 3$"):
        dataclasses.replace(theta_model(B, GAMMA, 0.3), dim=3)


def test_theta_model_derivative_commutator_identity() -> None:
    # (i/2)(E^dag Edot - Edot^dag E) equals gamma * sigma_2 on the probe.
    model = theta_model(B, GAMMA, np.pi / 4)
    e = model.lindblads[0]
    edot = model.d_lindblads[0]
    got = 0.5j * (e.conj().T @ edot - edot.conj().T @ e)
    assert np.allclose(got, GAMMA * kron(SIGMA2, EYE2), atol=1e-12)


def test_theta_model_second_derivatives_flip_sign() -> None:
    model = theta_model(B, GAMMA, 0.6)
    hdd = model.dd_hamiltonian
    assert np.allclose(hdd, -model.hamiltonian, atol=1e-12)


def test_omega_model_hamiltonian_rotates() -> None:
    model = omega_model(B, GAMMA, 0.5)
    assert np.allclose(model.at(0.0)[0], B * kron(SIGMA1, EYE2), atol=1e-12)
    assert np.allclose(model.at(np.pi / 0.5)[0], -B * kron(SIGMA1, EYE2), atol=1e-12)
    for t in (0.0, 0.7, 2.3, 9.1):
        vals, _ = hermitian_eig(model.at(t)[0])
        assert np.allclose(np.sort(vals), [-B, -B, B, B], atol=1e-12)


def test_omega_model_frequency_derivative() -> None:
    omega = 0.5
    model = omega_model(B, GAMMA, omega)
    for t in (0.4, 1.9):
        want = -B * t * (np.sin(omega * t) * SIGMA1 + np.cos(omega * t) * SIGMA2)
        assert np.allclose(model.at(t, 1)[0], kron(want, EYE2), atol=1e-12)


def test_omega_model_second_frequency_derivative() -> None:
    # d^2 sigma_n / d omega^2 = -t^2 sigma_n(omega, t), on H and on E alike.
    omega = 0.5
    model = omega_model(B, GAMMA, omega)
    for t in (0.4, 1.9):
        want = -(t**2) * kron(sigma_n_omega(omega, t), EYE2)
        h, (e,) = model.at(t, 2)
        assert np.allclose(h, B * want, atol=1e-12)
        assert np.allclose(e, np.sqrt(GAMMA) * want, atol=1e-12)


def _random_rho(seed: int, dim: int = 4) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _rhs_from_operators(model, rho: np.ndarray, t: float) -> np.ndarray:
    # The master equation rebuilt from model.at(t) at every call.
    h, ops = model.at(t)
    out = -1j * (h @ rho - rho @ h)
    for e in ops:
        ede = e.conj().T @ e
        out = out + e @ rho @ e.conj().T - 0.5 * (ede @ rho + rho @ ede)
    return out


def _action(model, t: float = 0.0) -> dynamics.L2Action:
    # The master equation of the model's operators at t as one L2Action.
    h, ops = model.at(t)
    return dynamics.L2Action(h, ops, [e.conj().T @ e for e in ops], [])


def test_lindblad_rhs_matches_operators_rebuilt_at_each_time() -> None:
    # The operators derived at construction give the same bits as the
    # master equation rebuilt from the model's operators at time t.
    file_model, _ = load_model_file(resolve_model_path("theta_example"))
    models = [theta_model(0.3, 0.2, 0.7), omega_model(0.3, 0.2, 1.3), file_model]
    for i, model in enumerate(models):
        rho = _random_rho(i, model.dim)
        for t in (0.0, 0.37, 5.0):
            assert np.array_equal(_action(model, t).apply(rho), _rhs_from_operators(model, rho, t))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_superoperator_is_apply_on_complex_non_hermitian_operators(d) -> None:
    # Every operator the package ships is real symmetric, where a transposed
    # or conjugated factor goes unseen; random complex, non-Hermitian
    # operators in all four slots tell each factor of matrix() apart.
    rng = np.random.default_rng(d)

    def op() -> np.ndarray:
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    action = dynamics.L2Action(op(), [op(), op()], [op(), op()], [op(), op(), op()])
    matrix = action.matrix()
    assert matrix.shape == (d * d, d * d)
    for _ in range(3):
        rho = op()
        want = action.apply(rho)
        got = (rho.reshape(-1) @ matrix).reshape(d, d)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("model", [omega_model(B, GAMMA, 0.5), theta_model(B, GAMMA, 0.5)])
def test_a_step_map_builds_operators_once_per_step_size(monkeypatch, model) -> None:
    # A model's operators are built once, at t = 0, per step size, whether or
    # not it is framed: the stage times take them by their frame phases.  The
    # first evolve at a dt builds the step map, later evolves at that dt
    # reuse it.
    model = dataclasses.replace(model)  # a fresh instance, with no step map yet
    calls = []
    at = dynamics.LindbladModel.at

    def counted(self, *args):
        calls.append(args)
        return at(self, *args)

    monkeypatch.setattr(dynamics.LindbladModel, "at", counted)
    for dt, t0, built in ((1e-3, 0.0, 1), (1e-3, 0.7, 0), (2e-3, 0.0, 1)):
        calls.clear()
        lindblad_evolve(model, bell_rho(), 0.01, dt=dt, t0=t0)
        assert len(calls) == built


def test_replaced_model_rebuilds_derived_operators() -> None:
    # Each original has evolved once, so its step map at dt = 0.01 is memoised;
    # the replaced model must evolve with a map of its own.
    rho = _random_rho(7)
    model, framed = theta_model(0.3, 0.2, 0.7), omega_model(0.3, 0.2, 1.3)
    replaced = [
        (model, dataclasses.replace(model, hamiltonian=2.0 * model.hamiltonian)),
        (model, dataclasses.replace(model, lindblads=[0.5 * model.lindblads[0]])),
        (framed, dataclasses.replace(framed, frame=None)),
    ]
    for original, new in replaced:
        want = _rhs_from_operators(new, rho, 0.37)
        assert np.array_equal(_action(new, 0.37).apply(rho), want)
        assert not np.array_equal(_action(original, 0.37).apply(rho), want)
        evolved = lindblad_evolve(original, rho, 1.0, dt=0.01, t0=0.4)
        assert np.max(np.abs(lindblad_evolve(new, rho, 1.0, dt=0.01, t0=0.4) - evolved)) > 1e-3


def test_lindblad_evolve_unitary_limit() -> None:
    model = theta_model(B, 0.0, 0.9)
    rho = lindblad_evolve(model, bell_rho(), T)
    u = scipy_expm(-1j * T * model.hamiltonian)
    want = u @ bell_rho() @ u.conj().T
    assert np.max(np.abs(rho - want)) < 1e-8


def test_lindblad_evolve_coherence_decay() -> None:
    theta = np.pi / 4
    rho = lindblad_evolve(theta_model(B, GAMMA, theta), bell_rho(), T)
    _, vecs = hermitian_eig(sigma_n_theta(theta))
    lo, hi = vecs[:, 0], vecs[:, 1]
    upper = np.kron(hi, hi)
    lower = np.kron(lo, lo)
    coh = upper.conj() @ rho @ lower
    assert abs(coh) == pytest.approx(0.5 * np.exp(-2 * GAMMA * T), abs=1e-6)


def test_lindblad_evolve_free_state_information() -> None:
    def family(th: float) -> np.ndarray:
        return lindblad_evolve(theta_model(B, GAMMA, th), bell_rho(), T, dt=1e-2)

    got = qfi_sld_numeric(family, np.pi / 4)
    want = 2 * (1 - np.exp(-0.5) * np.cos(1.0))
    assert got.value == pytest.approx(want, rel=1e-4)
    assert want == pytest.approx(1.34458, abs=5e-6)


def test_lindblad_evolve_trace_and_positivity() -> None:
    models = [theta_model(B, GAMMA, 0.7), omega_model(B, GAMMA, 0.5)]
    for model in models:
        for t in (1.0, 5.0, 10.0):
            rho = lindblad_evolve(model, bell_rho(), t)
            assert abs(np.trace(rho).real - 1) < 1e-8
            vals, _ = hermitian_eig(rho)
            assert vals.min() > -1e-7


def test_lindblad_evolve_step_error() -> None:
    with pytest.raises(StepError):
        lindblad_evolve(theta_model(B, GAMMA, 0.3), bell_rho(), t=0.5, dt=1.0)


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
def test_lindblad_evolve_refuses_a_state_of_the_wrong_shape(state) -> None:
    # One (d, d) state per call: a stack of states, even of none or one, is refused.
    with pytest.raises(DimensionError, match="does not match model dim 4"):
        lindblad_evolve(theta_model(B, GAMMA, 0.3), state, 1.0)


def test_lindblad_evolve_unstable_step_raises() -> None:
    # At B = 100 a step of 0.1 is far beyond RK4's stability region: the
    # state's trace-norm witness leaves its bound at the first step, five
    # steps before the trace leaves 1.
    with pytest.raises(InstabilityError, match="^trace-norm witness read .* at step 1$"):
        lindblad_evolve(theta_model(100.0, 0.05, 0.3), bell_rho(), 10.0, dt=0.1)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_lindblad_evolve_refuses_a_non_finite_state(value) -> None:
    # A NaN drift is not within tolerance.  An inf state turns NaN in its
    # first step, where numpy warns of an invalid value.
    for model in (theta_model(B, GAMMA, 0.3), omega_model(B, GAMMA, 0.3)):
        with np.errstate(invalid="ignore"), pytest.raises(InstabilityError, match="by nan at step 1"):
            lindblad_evolve(model, np.full((4, 4), value), 0.01)


@pytest.mark.parametrize(
    "gain, step", [(1 + 3e-7, 4), (1 - 3e-7, 4), (1 + 1e-7, 10), (1 + 3e-8, 34)]
)
def test_trace_column_raises_at_the_step_the_state_drifts(gain, step) -> None:
    # An RK4 step of a Lindbladian keeps the trace exactly, so a genuine
    # drift needs a map that does not: the step scaled by ``gain``.  The
    # checked map's trace column must fail at the step where the trace of
    # the state itself, stepped by the complex map, first leaves 1 by more
    # than 1e-6; (1 + 1e-7)^10 - 1 clears 1e-6 by only 4.5e-13.
    model = theta_model(B, GAMMA, 0.3)
    lab = gain * dynamics._rk4_map(*[_action(model).matrix()] * 3, 0.01)
    rho = bell_rho()
    for k in range(1, step + 1):
        rho = (rho.reshape(16) @ lab).reshape(4, 4)
        assert (abs(np.trace(rho).real - 1.0) > 1e-6) == (k == step)
    model._maps[0.01] = {1: dynamics._checked_map(lab, 4)}
    with pytest.raises(InstabilityError, match=f"at step {step}$"):
        lindblad_evolve(model, bell_rho(), 1.0, dt=0.01)


@pytest.mark.parametrize(
    "gain, step", [(1 + 2e-6, 1), (1 + 3e-7, 4), (1 - 3e-7, 4), (1 + 1e-7, 10), (1 + 6.5e-8, 16)]
)
def test_one_state_in_one_block_names_the_step_that_drifts(gain, step) -> None:
    # The gain trick above on a one-state run of one full block (one
    # ndarray.dot, the traces read by item) names the step.
    # (1 + 6.5e-8)^16 - 1 clears 1e-6 by 4e-8, ^15 misses it.
    k = dynamics._BLOCK_STEPS
    model = theta_model(B, GAMMA, 0.3)
    lab = gain * dynamics._rk4_map(*[_action(model).matrix()] * 3, 0.01)
    rho = bell_rho()
    for j in range(1, step + 1):
        rho = (rho.reshape(16) @ lab).reshape(4, 4)
        assert (abs(np.trace(rho).real - 1.0) > 1e-6) == (j == step)
    model._maps[0.01] = {1: dynamics._checked_map(lab, 4)}
    with pytest.raises(InstabilityError, match=f"^trace drifted by .* at step {step}$"):
        lindblad_evolve(model, bell_rho(), k * 0.01, dt=0.01)


def test_a_long_run_names_a_drift_at_its_first_step_without_a_warning() -> None:
    # A 4000-step run reads its blocks' traces once per chunk, so it steps
    # on past a failed step: scaled by 1e3 at every step, the state
    # overflows near step 100, inside the first chunk.  The error still
    # names step 1, and no RuntimeWarning escapes with warnings as errors.
    # A gain of 1 + 8.7e-10 fails inside a later block of a later chunk.
    model = theta_model(B, GAMMA, 0.3)
    lab = dynamics._rk4_map(*[_action(model).matrix()] * 3, 4e-3)
    step = next(k for k in range(1, 4001) if abs((1 + 8.7e-10) ** k - 1.0) > 1e-6)
    assert step > dynamics._CHUNK * dynamics._BLOCK_STEPS and step % dynamics._BLOCK_STEPS not in (0, 1)
    for gain, message in ((1e3, "trace drifted by 9.990e[+]02 at step 1"), (1 + 8.7e-10, f"at step {step}")):
        model._maps[4e-3] = {1: dynamics._checked_map(gain * lab, 4)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError, match=f"{message}$"):
                lindblad_evolve(model, bell_rho(), 16.0, dt=4e-3)


def test_the_last_drift_case_fails_inside_a_later_block() -> None:
    # The (1 + 3e-8, 34) case above must name a step past the first block
    # of K steps that no block starts or ends at.
    k = dynamics._BLOCK_STEPS
    assert 34 > k and 34 % k not in (0, 1)


def test_an_unstable_step_with_an_exact_trace_raises() -> None:
    # One step of 0.1 at B = 1e5 lies far outside RK4's stability region:
    # the state returns with entries of about 1.8e15 and trace exactly 1.
    with pytest.raises(InstabilityError):
        lindblad_evolve(theta_model(1e5, 0.05, 0.3), bell_rho(), 0.1, dt=0.1)


def _stepwise(model, rho: np.ndarray, n: int, dt: float, t0: float) -> np.ndarray:
    # n products with the model's checked step map, in its frame, of the
    # state's (1, 2 d^2) float64 row, each dropping the three check columns.
    step = model._maps[dt][1]
    row = np.ascontiguousarray(dynamics.in_frame(rho, model._rate, -t0)).reshape(1, 16).view(np.float64)
    for _ in range(n):
        row = (row @ step)[:, :-3]
    return dynamics.in_frame(row.view(complex).reshape(4, 4), model._rate, t0 + n * dt)


@pytest.mark.parametrize("model", [theta_model(0.3, 0.2, 0.7), omega_model(0.3, 0.2, 1.3)])
def test_block_maps_match_the_step_map_loop(model) -> None:
    # A run of n steps takes one product per block of up to K steps; it
    # must match n products with the step map within rounding, and a
    # one-step run must be exactly that product.
    k = dynamics._BLOCK_STEPS
    for rho in [_random_rho(seed) for seed in range(3)]:
        for n in (1, k - 1, k, k + 1, 2 * k + 3):
            got = lindblad_evolve(model, rho, n * 0.01, dt=0.01, t0=0.37)
            want = _stepwise(model, rho, n, 0.01, 0.37)
            assert got.shape == rho.shape
            if n == 1:
                assert np.array_equal(got, want)
            assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("t0", [0.0, 0.37])
@pytest.mark.parametrize("n", [2, dynamics._BLOCK_STEPS + 1, 2 * dynamics._BLOCK_STEPS + 3])
@pytest.mark.parametrize("model", [theta_model(0.3, 0.2, 0.7), omega_model(0.3, 0.2, 1.3)])
def test_a_run_split_in_two_calls_evolves_as_one_call(model, n, t0) -> None:
    # A state evolved m steps and then n - m more from t0 + m dt, as the
    # corrected evolutions do interval by interval, lands where one run of
    # n steps lands, within rounding, whether a block boundary is crossed or not.
    for seed in range(3):
        rho = _random_rho(seed)
        whole = lindblad_evolve(model, rho, n * 0.01, dt=0.01, t0=t0)
        for m in (1, n // 2, n - 1):
            head = lindblad_evolve(model, rho, m * 0.01, dt=0.01, t0=t0)
            tail = lindblad_evolve(model, head, (n - m) * 0.01, dt=0.01, t0=t0 + m * 0.01)
            assert tail.shape == (4, 4)
            assert np.max(np.abs(tail - whole)) <= 1e-13


def test_the_product_of_one_state_is_matmul_bit_for_bit() -> None:
    # One state steps and recovers by ndarray.dot on its row, which rounds
    # as matmul does, for the step map, a full block map and a code's
    # recovery map: each one-state call returns both products, bit for bit.
    model, code, k = omega_model(0.3, 0.2, 1.3), omega_code(1.2), dynamics._BLOCK_STEPS
    for seed in range(5):
        rho = _random_rho(seed)
        rows = rho.reshape(1, 16).view(np.float64)
        for n in (1, k):
            got = lindblad_evolve(model, rho, n * 0.01, dt=0.01)
            maps = model._maps[0.01]
            for product in (np.ndarray.dot, np.matmul):
                want = product(rows, maps[n])[..., :-3].view(complex).reshape(rho.shape)
                want = want * dynamics.in_frame(1.0, model._rate, n * 0.01)
                assert np.array_equal(got, want)
        for product in (np.ndarray.dot, np.matmul):
            want = product(rows, code._recovery_map)[..., :-1].view(complex).reshape(rho.shape)
            assert np.array_equal(apply_recovery(code, rho), want)


def _reference_run(rho: np.ndarray, maps: np.ndarray, n: int, replay, weights=None) -> np.ndarray:
    # dynamics._run as it stood with its views made per product, its weights
    # taken per chunk of _CHUNK products and each product's checks screened as
    # it lands: the oracle of the tests below.
    chunk = dynamics._CHUNK
    row, w, buf = rho.view(np.float64).ravel(), 2 * rho.size, np.empty((min(n, chunk), maps.shape[-1]))
    tables = repeat(maps) if weights is None else np.empty((len(buf), *maps.shape[1:]))
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n, chunk):
            m = min(chunk, n - first)
            if weights is not None:
                np.matmul(weights(first, m), maps.reshape(len(maps), -1), out=tables[:m].reshape(m, -1))
            for i, out, block in zip(range(first, first + m), buf[:m], tables):
                row.dot(block, out=out)
                if not np.all(np.abs(out[w:] - dynamics._TARGET) <= dynamics._LIMIT):
                    replay(i, row)
                row = out[:w]
    return row.copy().view(complex).reshape(rho.shape)


def _rotating_stack(gain: float = 1.0):
    # The five samples of a detuned rotating recovery interval of four steps,
    # as qec._corrected_evolve builds them, scaled by ``gain``, their weights
    # and the code's probe in its code-word coordinates.
    model, code, s, dt = omega_model(0.1, 0.05, 0.3), omega_code(0.25), 4, 2.5e-3
    steps = dynamics._block_map(model._maps_at(dt), s)
    model_exit = np.ravel(dynamics.in_frame(1.0, model._rate, s * dt))
    samples = qec._interval_polynomial(steps, code, model_exit, code._rate - model._rate)
    nu, grid = np.max(np.abs(code._rate - model._rate)), 2 * np.pi / 5 * np.arange(5)

    def weights(k: int, m: int) -> np.ndarray:  # the five-point kernel elementwise: a row hangs on no other row
        apart = np.subtract.outer(nu * (s * dt) * np.arange(k, k + m), grid)
        return 0.2 + 0.4 * (np.cos(apart) + np.cos(2 * apart))
    return gain * samples, weights, code._coordinate_maps[2]


def _alone(maps: np.ndarray, weights=None):
    # A replay that makes product i again, alone, from the input row it is
    # given, and reads its checks as those of step i + 1.
    def replay(i: int, row: np.ndarray) -> None:
        table = maps if weights is None else (weights(i, 1) @ maps.reshape(len(maps), -1)).reshape(maps.shape[1:])
        dynamics._read_checks(row.dot(table)[None, len(row) :], i)
    return replay


def _run_both(rho: np.ndarray, maps: np.ndarray, n: int, replay, weights=None) -> list:
    # What dynamics._run and the reference return or raise, with warnings as errors.
    results = []
    for run in (dynamics._run, _reference_run):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                results.append(run(rho, maps, n, replay, weights).tobytes())
            except (InstabilityError, LeakageError) as err:
                results.append((type(err), str(err)))
    return results


def _never(i: int, row: np.ndarray) -> None:
    raise AssertionError(f"product {i} replayed")


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 4095, 4096, 4097])
def test_run_is_the_per_product_loop_byte_for_byte(n) -> None:
    # _run makes its row views once per run and takes the weights once per
    # _CHUNK**2 products; it must return the bytes of the loop that built
    # them per product and took the weights per chunk, for one static
    # checked map and, across the weight blocks' edge, for a weighted stack.
    samples, weights, probe = _rotating_stack()
    got, want = _run_both(probe, samples, n, _never, weights)
    assert isinstance(got, bytes) and got == want
    if n < 4095:
        block = dynamics._block_map(theta_model(B, GAMMA, 0.3)._maps_at(0.01), dynamics._BLOCK_STEPS)
        got, want = _run_both(_random_rho(n), block, n, _never)
        assert isinstance(got, bytes) and got == want


def _scaled_blocks(gain: float):
    # The 16-step block of a step map scaled by ``gain``, and the replay of a
    # failing block one scaled step at a time, as dynamics._steps makes it.
    lab = gain * dynamics._rk4_map(*[_action(theta_model(B, GAMMA, 0.3)).matrix()] * 3, 4e-3)
    maps, k = {1: dynamics._checked_map(lab, 4)}, dynamics._BLOCK_STEPS
    return dynamics._block_map(maps, k), lambda i, row: dynamics._step_by_step(row, maps[1], i * k, k)


@pytest.mark.parametrize(
    "gain, n, clean, weighted",
    [(1e3, 129, 0, False), (1 + 8.7e-10, 80, 64, False), (1 + 8.7e-10, 200, 64, False),
     (1 + 9.7e-10, 130, 64, False), (1 + 2.4e-10, 4200, 4160, True)],
)
def test_a_failing_run_raises_what_the_per_product_loop_raises(gain, n, clean, weighted) -> None:
    # Scaled maps whose first ``clean`` products pass: one that fails at its
    # first step and overflows on to the chunk's end, one that fails in a
    # partial last chunk, one in a full chunk after the first, one at the
    # first product of a later chunk, whose input row the chunk before
    # wrote last, and, weighted, one in a partial last chunk past the first
    # weight block.  _run raises the reference's class and message, from the
    # replay of the failing product, and no warning escapes.
    if weighted:
        maps, weights, rho = _rotating_stack(gain)
        replay = _alone(maps, weights)
    else:
        (maps, replay), weights, rho = _scaled_blocks(gain), None, bell_rho()
    if clean:
        dynamics._run(rho, maps, clean, _never, weights)
    got, want = _run_both(rho, maps, n, replay, weights)
    assert got == want and got[0] is InstabilityError
    if gain == 1 + 9.7e-10:
        assert got[1].endswith(f"at step {64 * dynamics._BLOCK_STEPS + 7}")


@pytest.mark.parametrize("weighted", [False, True])
def test_a_run_goes_on_past_a_product_whose_replay_finds_nothing(weighted) -> None:
    # A replay that returns lets the run go on: _run calls it at every product
    # that fails its screen, in order and from its input row, and returns the
    # bytes the per-product loop returns.
    if weighted:
        maps, weights, rho = _rotating_stack(1 + 2.4e-10)
        n = 4200
    else:
        (maps, _), weights, rho, n = _scaled_blocks(1 + 9.7e-10), None, bell_rho(), 200
    calls = {}
    for run in (dynamics._run, _reference_run):
        seen = calls[run] = []
        got = run(rho, maps, n, lambda i, row, seen=seen: seen.append((i, row.tobytes())), weights)
        seen.append(got.tobytes())
    assert calls[dynamics._run] == calls[_reference_run]
    assert len(calls[dynamics._run]) > 2


def _in_frame_route(model, rho: np.ndarray, n: int, dt: float) -> np.ndarray:
    # n steps of the state from t0 = 0 in the model's frame, left through in_frame.
    stepped = dynamics._steps(np.ascontiguousarray(rho), model._maps_at(dt), n)
    return dynamics.in_frame(stepped, model._rate, n * dt)


@pytest.mark.parametrize("n", [1, 3, dynamics._BLOCK_STEPS + 5])
def test_an_evolution_from_t0_0_is_the_in_frame_route(n) -> None:
    # From t0 = 0 a rotating model leaves its frame through in_frame: bit
    # for bit the in_frame route, on the call that builds the step maps and
    # on a later one that finds them cached.
    model = omega_model(B, GAMMA, 0.7)
    for rho in [_random_rho(seed) for seed in (3, 0, 1, 2)]:
        first = lindblad_evolve(model, rho, n * 0.01, dt=0.01)
        again = lindblad_evolve(model, rho, n * 0.01, dt=0.01)
        want = _in_frame_route(model, rho, n, 0.01)
        assert np.array_equal(first, want) and np.array_equal(again, want)


def test_a_replaced_frame_gets_its_own_exit_phase() -> None:
    model = omega_model(B, GAMMA, 0.3)
    before = lindblad_evolve(model, bell_rho(), 0.05, dt=0.01)
    other = dataclasses.replace(model, frame=dynamics.rotating_frame(0.9))
    got = lindblad_evolve(other, bell_rho(), 0.05, dt=0.01)
    assert np.array_equal(got, lindblad_evolve(omega_model(B, GAMMA, 0.9), bell_rho(), 0.05, dt=0.01))
    assert not np.array_equal(got, before)
    assert np.array_equal(lindblad_evolve(model, bell_rho(), 0.05, dt=0.01), before)


def test_lindblad_evolve_step_halving_order() -> None:
    model = omega_model(B, GAMMA, 0.5)
    r1 = lindblad_evolve(model, bell_rho(), 1.0, dt=0.02)
    r2 = lindblad_evolve(model, bell_rho(), 1.0, dt=0.01)
    r3 = lindblad_evolve(model, bell_rho(), 1.0, dt=0.005)
    ratio = np.max(np.abs(r1 - r2)) / np.max(np.abs(r2 - r3))
    assert ratio >= 8.0


def test_sample_phase_deterministic_limit() -> None:
    rng = np.random.default_rng(0)
    assert sample_phases(B, 0.0, T, 1, rng)[0] == B * T


def test_sample_phase_mean() -> None:
    rng = np.random.default_rng(123)
    phis = sample_phases(B, GAMMA, T, 10**6, rng)
    assert abs(phis.mean() - B * T) < 3 * np.sqrt(GAMMA * T / 10**6)
    assert phis.std() == pytest.approx(np.sqrt(GAMMA * T), rel=5e-3)


def test_sample_phase_dephasing_average() -> None:
    rng = np.random.default_rng(2024)
    for beta in (0.0, 0.3):
        phis = sample_phases(B, GAMMA, T, 10**6, rng)
        got = np.mean(np.cos(2 * phis + 2 * beta))
        want = np.exp(-2 * GAMMA * T) * np.cos(2 * B * T + 2 * beta)
        assert abs(got - want) < 0.003


def test_trajectory_outcome_probability_matches_closed_form() -> None:
    rng = np.random.default_rng(99)
    beta = 0.4
    got = trajectory_outcome_probability(B, GAMMA, T, beta, 10**6, rng)
    want = 0.5 * (1 + np.exp(-2 * GAMMA * T) * np.cos(2 * B * T + 2 * beta))
    assert got == pytest.approx(want, abs=0.003)


def test_trajectory_average_matches_master_equation() -> None:
    theta = np.pi / 4
    rng = np.random.default_rng(7)
    ens = trajectory_average_state(B, GAMMA, T, theta, 10**5, rng)
    rho = lindblad_evolve(theta_model(B, GAMMA, theta), bell_rho(), T)
    diff = ens.mean - rho
    assert np.all(np.abs(diff.real) <= 3 * ens.sem_real + 1e-12)
    assert np.all(np.abs(diff.imag) <= 3 * ens.sem_imag + 1e-12)


def test_omega_trajectories_reproduce_coherence_decay() -> None:
    rng = np.random.default_rng(31)
    omega = 0.5
    t = 2.0
    psi = sample_omega_trajectories(B, GAMMA, omega, t, 1e-3, 4000, rng)
    mean_rho = np.einsum("ni,nj->ij", psi, psi.conj()) / psi.shape[0]
    rho = lindblad_evolve(omega_model(B, GAMMA, omega), bell_rho(), t)
    assert np.max(np.abs(mean_rho - rho)) < 0.02


def test_omega_trajectories_step_with_the_kronecker_axis_bit_for_bit() -> None:
    # Each step's operator is sigma_n(omega, tau) x I; built by broadcast it
    # must leave every state as np.kron's operator leaves it.
    n, dt, steps = 16, 0.01, 200
    rng = np.random.default_rng(13)
    psi = np.tile(bell_probe(), (n, 1))
    for k in range(steps):
        angles = B * dt + np.sqrt(GAMMA * dt) * rng.normal(size=n)
        m = np.kron(sigma_n_omega(0.3, k * dt), EYE2)
        psi = np.cos(angles)[:, None] * psi - 1j * np.sin(angles)[:, None] * (psi @ m.T)
    got = sample_omega_trajectories(B, GAMMA, 0.3, steps * dt, dt, n, np.random.default_rng(13))
    assert got.tobytes() == psi.tobytes()


def test_omega_trajectories_step_error() -> None:
    rng = np.random.default_rng(0)
    with pytest.raises(StepError):
        sample_omega_trajectories(B, GAMMA, 0.5, 1.0, 0.3, 10, rng)


def test_dephasing_kraus_completeness() -> None:
    k1, k2 = dephasing_kraus(B, GAMMA, T, 0.8)
    assert np.max(np.abs(k1.conj().T @ k1 + k2.conj().T @ k2 - EYE2)) < 1e-12


def test_dephasing_kraus_limits() -> None:
    k1, k2 = dephasing_kraus(B, 0.0, T, 0.8)
    assert np.max(np.abs(k2)) == 0.0
    assert np.max(np.abs(k1 @ k1.conj().T - EYE2)) < 1e-12
    k1, k2 = dephasing_kraus(B, GAMMA, 0.0, 0.8)
    assert np.allclose(k1, EYE2, atol=1e-12)
    assert np.max(np.abs(k2)) == 0.0


def test_dephasing_kraus_matches_master_equation_on_bell() -> None:
    theta = np.pi / 4
    k1, k2 = dephasing_kraus(B, GAMMA, T, theta)
    channel = sum(
        kron(k, EYE2) @ bell_rho() @ kron(k, EYE2).conj().T for k in (k1, k2)
    )
    rho = lindblad_evolve(theta_model(B, GAMMA, theta), bell_rho(), T)
    assert np.max(np.abs(channel - rho)) < 1e-6


def test_dephasing_kraus_matches_master_equation_random_inputs() -> None:
    theta = 0.6
    k1, k2 = dephasing_kraus(B, GAMMA, T, theta)
    model = theta_model(B, GAMMA, theta)
    rng = np.random.default_rng(17)
    for _ in range(20):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho0 = np.outer(v, v.conj())
        channel = sum(
            kron(k, EYE2) @ rho0 @ kron(k, EYE2).conj().T for k in (k1, k2)
        )
        rho = lindblad_evolve(model, rho0, T)
        assert np.max(np.abs(channel - rho)) < 1e-6
