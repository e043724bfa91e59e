"""Adaptive Bayesian-style estimation: outcome models and campaigns."""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from fluxmet import estimation
from fluxmet.dynamics import bell_probe, sigma_n_theta
from fluxmet.errors import DomainError
from fluxmet.estimation import (
    AdaptiveConfig,
    campaign_estimates,
    mse_campaign,
    outcome_probability,
    run_adaptive,
)
from fluxmet.qec import (
    corrected_evolve_omega,
    corrected_evolve_theta,
    corrected_state_omega_closed,
    corrected_state_theta_closed,
    omega_code,
    theta_code,
)
from fluxmet.qmat import sigma1, sigma2
from fluxmet.tasks import STRATEGIES, TASKS

B = 0.1
GAMMA = 0.05
T = 5.0


def _sigma_x_code(code, t: float) -> np.ndarray:
    c0, c1 = code.basis(t)
    return np.outer(c0, c1.conj()) + np.outer(c1, c0.conj())


def test_outcome_probability_theta_normalization_and_symmetry() -> None:
    for d in (0.0, 0.03, 0.4, -0.25):
        dist = outcome_probability(np.pi / 4 + d, np.pi / 4, B, GAMMA, T, task="theta")
        total = sum(p for _, p in dist.outcomes)
        assert abs(total - 1.0) < 1e-14
        p_plus = dist.probability("+")
        assert 0.0 <= p_plus <= 1.0
        mirrored = outcome_probability(np.pi / 4 - d, np.pi / 4, B, GAMMA, T, task="theta")
        assert abs(p_plus - mirrored.probability("+")) < 1e-14


def test_outcome_probability_theta_fixed_point() -> None:
    dist = outcome_probability(0.3, 0.3, B, GAMMA, T, task="theta")
    assert dist.probability("+") == 1.0
    assert dist.probability("-") == 0.0


def test_outcome_probability_theta_unitary_limit() -> None:
    d = 0.17
    p = outcome_probability(0.5 + d, 0.5, B, 0.0, T, task="theta").probability("+")
    assert abs(p - np.cos(B * T * np.sin(d)) ** 2) < 1e-14


def test_outcome_probability_theta_value() -> None:
    d = 0.1
    p = outcome_probability(np.pi / 4 + d, np.pi / 4, B, GAMMA, T, task="theta").probability("+")
    expected = 0.5 * (1.0 + np.exp(-2 * T * GAMMA * np.sin(d) ** 2) * np.cos(2 * B * T * np.sin(d)))
    assert abs(p - expected) < 1e-14


def test_outcome_probability_theta_matches_corrected_state() -> None:
    est = np.pi / 4
    code = theta_code(est)
    sx = _sigma_x_code(code, T)
    for d in (0.0, 0.05, 0.2, -0.3):
        rho = corrected_state_theta_closed(B, GAMMA, est + d, est, T)
        p_state = 0.5 * (1.0 + np.real(np.trace(rho @ sx)))
        p = outcome_probability(est + d, est, B, GAMMA, T, task="theta").probability("+")
        assert abs(p - p_state) < 1e-12


def test_outcome_probability_omega_fixed_point_and_unitary_form() -> None:
    assert outcome_probability(0.3, 0.3, B, GAMMA, T, task="omega").probability("+") == 1.0
    a, t = 0.15, 5.0
    p = outcome_probability(0.3 + a, 0.3, B, 0.0, t, task="omega").probability("+")
    assert abs(p - np.cos(B * (1.0 - np.cos(a * t)) / a) ** 2) < 1e-14


def test_outcome_probability_omega_matches_corrected_state() -> None:
    est = 0.25
    code = omega_code(est)
    sx = _sigma_x_code(code, T)
    for a in (0.0, 0.05, 0.12):
        rho = corrected_state_omega_closed(B, GAMMA, est + a, est, T)
        p_state = 0.5 * (1.0 + np.real(np.trace(rho @ sx)))
        p = outcome_probability(est + a, est, B, GAMMA, T, task="omega").probability("+")
        assert abs(p - p_state) < 1e-12


def test_outcome_probability_omega_matches_stepwise_recovery() -> None:
    est = 0.25
    rho = corrected_evolve_omega(B, GAMMA, est + 0.05, est, T, n_recoveries=1000, dt=1e-3)
    sx = _sigma_x_code(omega_code(est), T)
    p_numeric = 0.5 * (1.0 + np.real(np.trace(rho @ sx)))
    p = outcome_probability(est + 0.05, est, B, GAMMA, T, task="omega").probability("+")
    assert abs(p - p_numeric) < 1e-3


@pytest.mark.parametrize(
    "task, evolve, code, est, width",
    [
        ("theta", corrected_evolve_theta, theta_code, np.pi / 4, 0.0707),
        ("omega", corrected_evolve_omega, omega_code, 0.3, 0.0262),
    ],
)
def test_qec_outcome_law_matches_stepwise_recovery(task, evolve, code, est, width) -> None:
    # Criterion 7's corrected p(+) against the stepwise evolve-and-recover
    # route, out to the 4-width detunings where the campaign's outliers sit.
    # The stepwise error is first order in the recovery interval (up to
    # 2.1e-5 for theta and 1.5e-4 for omega at 1000 recoveries), so the
    # Richardson pair 2 p(2000) - p(1000) cancels it: the residual is at
    # most 5.2e-9 (theta) and 1.8e-7 (omega).
    sx = _sigma_x_code(code(est), T)
    coherence = TASKS[task].coherence
    for k in (0, 1, -2, 4):
        x = est + k * width
        p1000, p2000 = (
            0.5 * (1.0 + np.real(np.trace(evolve(B, GAMMA, x, est, T, T / n, n) @ sx)))
            for n in (1000, 2000)
        )
        assert abs(2.0 * p2000 - p1000 - coherence.p_plus(x, est, B, GAMMA, T)) < 1e-6


def _unitary_oracle_state(task: str, x: float, x_hat: float, n_steps: int = 4000) -> np.ndarray:
    # exp(-i B (sigma_n(x) - sigma_n(x_hat)) t) x I on the Bell probe: one
    # expm for the angle, whose detuning Hamiltonian is constant, and for the
    # frequency a time-ordered product of midpoint steps of the rotating
    # one.  exp(A x I) = exp(A) x I, so each of those is a 2 x 2 expm.
    if task == "theta":
        h = B * (sigma_n_theta(x) - sigma_n_theta(x_hat))
        return scipy_expm(-1j * T * np.kron(h, np.eye(2))) @ bell_probe()
    tau = (np.arange(n_steps) + 0.5) * T / n_steps
    axis = (np.cos(x * tau) - np.cos(x_hat * tau), np.sin(x * tau) - np.sin(x_hat * tau))
    h = B * (axis[0][:, None, None] * sigma1 - axis[1][:, None, None] * sigma2)  # sigma_n_omega
    steps = scipy_expm(-1j * (T / n_steps) * h)
    while len(steps) > 1:  # u = steps[-1] @ ... @ steps[0], pairwise
        if len(steps) % 2:
            steps = np.concatenate([steps, np.eye(2)[None]])
        steps = steps[1::2] @ steps[0::2]
    return np.kron(steps[0], np.eye(2)) @ bell_probe()


def _lab_frame_information(omega_hat: float) -> float:
    # 4 B^2 |integral_0^T tau exp(i omega_hat tau) dtau|^2: the QFI at zero
    # detuning of a control that cancels B sigma_n(omega_hat, tau) alone.
    c = omega_hat
    return 4 * B * B * abs((np.exp(1j * c * T) * (1 - 1j * c * T) - 1) / (c * c)) ** 2


# law p(+) minus the oracle's at k final-round widths, each to the digits
# stated; a k not listed agrees to rounding.  In the frame rotating at
# omega_hat (the law's control frame) the frequency of the field is the
# detuning and the estimate's axis stands still; there the first-order law
# misses only its second-order terms, evenly in k.  Against the lab-frame
# evolution, with no frame term in the control, the deviations are README's
# at k > 0, and they are mostly that control's smaller J.
_FRAME_DEVIATION = {k: v for a, v in ((1, -2.1e-10), (2, -1.3e-8), (4, -7.9e-7)) for k in (a, -a)}
_LAB_DEVIATION = {1: -3.3e-4, 2: -1.5e-3, 4: -6.7e-3, -1: -2.6e-4, -2: -8.7e-4, -4: -2.2e-3}


@pytest.mark.parametrize(
    "task, x_hat, in_frame, deviation, info",
    [
        ("theta", np.pi / 4, False, {}, 4 * B * B * T * T),
        ("omega", 0.3, True, _FRAME_DEVIATION, B * B * T**4),
        ("omega", 0.3, False, _LAB_DEVIATION, _lab_frame_information(0.3)),
    ],
    ids=["theta", "omega-control-frame", "omega-lab-frame"],
)
def test_unitary_outcome_law_against_the_time_ordered_evolution(
    task, x_hat, in_frame, deviation, info
) -> None:
    # The unitary_controlled p(+) against a test-side evolution of the
    # detuning Hamiltonian, out to 4 final-round widths 1/sqrt(m K J) (m = K
    # = 10).  The midpoint product at 4000 steps agrees with 2000 to 1e-9 at
    # 4 widths.
    record = TASKS[task]
    law_info = record.information("unitary_controlled", B, GAMMA, T)
    width = 1.0 / np.sqrt(100.0 * law_info)
    bell = bell_probe()

    def oracle(x: float, n_steps: int = 4000) -> np.ndarray:
        at = (x - x_hat, 0.0) if in_frame else (x, x_hat)
        return _unitary_oracle_state(task, *at, n_steps)

    for k in (0, 1, -1, 2, -2, 4, -4):
        x = x_hat + k * width
        p_oracle = abs(np.vdot(bell, oracle(x))) ** 2
        gap = record.p_plus_unitary(x, x_hat, B, T) - p_oracle
        want = deviation.get(k, 0.0)
        tol = 0.05 * 10 ** np.floor(np.log10(abs(want))) if want else 2e-15
        assert abs(gap - want) <= tol, (k, gap)
    if task == "omega":
        assert abs(abs(np.vdot(bell, oracle(x, 2000))) ** 2 - p_oracle) <= 1e-9
    # At zero detuning: the oracle family's pure-state QFI, and the law's
    # curvature, which is the J of the campaign's Cramer-Rao line.
    d = 1e-4
    dpsi = (oracle(x_hat + d) - oracle(x_hat - d)) / (2 * d)
    qfi = 4 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(bell, dpsi)) ** 2)
    assert qfi == pytest.approx(info, rel=1e-6)
    curvature = 4 * (1 - record.p_plus_unitary(x_hat + d, x_hat, B, T)) / d**2
    assert curvature == pytest.approx(law_info, rel=1e-6)


def test_adaptive_config_validation() -> None:
    good = dict(true_value=0.3, initial_guess=0.2)
    with pytest.raises(DomainError):
        AdaptiveConfig(**good, strategy="teleported")
    with pytest.raises(DomainError):
        AdaptiveConfig(**good, grid=(0.5, 0.5, 1e-4))
    with pytest.raises(DomainError):
        AdaptiveConfig(**good, grid=(0.0, 1.0, 0.0))
    with pytest.raises(DomainError):
        AdaptiveConfig(**good, gamma=-0.1)
    with pytest.raises(DomainError):
        AdaptiveConfig(**good, t=-2.0)
    with pytest.raises(DomainError, match="grid"):
        AdaptiveConfig(**good, grid=(0.0, 1.0))
    with pytest.raises(DomainError, match="grid"):
        AdaptiveConfig(**good, grid=(0.0, 1.0, float("nan")))
    with pytest.raises(DomainError, match="'seed' must be an integer"):
        AdaptiveConfig(**good, seed=1.5)
    with pytest.raises(DomainError, match="grid"):
        AdaptiveConfig(**good, grid=[0, 1, True])
    assert AdaptiveConfig(**good, grid=[0.0, 1.0, 1e-3]).grid == (0.0, 1.0, 1e-3)


def test_adaptive_config_refuses_its_reals_before_the_rest() -> None:
    # t and gamma are checked with the other reals, before the integers, the
    # strategy and the grid, by the rule every entry point uses.
    bad = dict(m=2.5, strategy="teleported", grid=[0, 1])
    with pytest.raises(DomainError, match=r"^t must be >= 0 and finite, got -1\.0$"):
        AdaptiveConfig(0.3, 0.2, t=-1.0, **bad)
    with pytest.raises(DomainError, match=r"^gamma must be a finite number, got '0\.05'$"):
        AdaptiveConfig(0.3, 0.2, gamma="0.05", **bad)
    with pytest.raises(DomainError, match=r"^'m' must be an integer, got 2\.5$"):
        AdaptiveConfig(0.3, 0.2, **bad)


def test_run_adaptive_deterministic() -> None:
    cfg = AdaptiveConfig(true_value=np.pi / 4, initial_guess=0.1, seed=42)
    first = run_adaptive(cfg)
    second = run_adaptive(cfg)
    assert first.estimates == second.estimates
    assert first.outcome_history == second.outcome_history
    assert first.log_likelihood_final == second.log_likelihood_final


def test_run_adaptive_structure() -> None:
    cfg = AdaptiveConfig(true_value=np.pi / 4, initial_guess=0.1, rounds=6, m=8, seed=9)
    run = run_adaptive(cfg)
    assert len(run.estimates) == 7
    assert run.estimates[0] == 0.1
    assert len(run.outcome_history) == 6
    assert all(np + nm == 8 for np_, nm in run.outcome_history for np in (np_,))
    assert run.seed == 9
    assert np.isfinite(run.log_likelihood_final)
    assert run.log_likelihood_final <= 0.0


def test_run_adaptive_fixed_point() -> None:
    for strategy in ("qec_corrected", "unitary_controlled"):
        cfg = AdaptiveConfig(
            true_value=np.pi / 4, initial_guess=np.pi / 4, rounds=5, seed=3, strategy=strategy
        )
        run = run_adaptive(cfg)
        assert max(abs(e - np.pi / 4) for e in run.estimates) < 5e-8


def test_run_adaptive_omega_fixed_point() -> None:
    cfg = AdaptiveConfig(true_value=0.3, initial_guess=0.3, rounds=5, seed=3)
    run = run_adaptive(cfg, task="omega")
    assert max(abs(e - 0.3) for e in run.estimates) < 5e-8


def test_run_adaptive_converges_toward_truth() -> None:
    cfg = AdaptiveConfig(true_value=np.pi / 4, initial_guess=0.0, seed=1)
    run = run_adaptive(cfg)
    assert abs(run.estimates[-1] - np.pi / 4) < 0.1
    assert abs(run.estimates[-1] - np.pi / 4) < abs(run.estimates[0] - np.pi / 4)


def test_run_adaptive_phase_guard() -> None:
    with pytest.raises(DomainError):
        run_adaptive(AdaptiveConfig(true_value=0.5, initial_guess=0.4, B=2.0, t=10.0))
    with pytest.raises(DomainError):
        run_adaptive(AdaptiveConfig(true_value=0.3, initial_guess=0.3, t=10.0), task="omega")
    # The angle's likelihood phase turns 2 |B| t per radian: 7.85 rad across
    # the prior at B = 0.5, t = 5.  p(+) is even in B, so B = -2 aliases too.
    for B, t in ((0.5, 5.0), (-2.0, 10.0)):
        with pytest.raises(DomainError, match="aliases the likelihood phase"):
            run_adaptive(AdaptiveConfig(true_value=0.5, initial_guess=0.4, B=B, t=t))


def test_campaign_estimates_shape_and_seeding() -> None:
    cfg = AdaptiveConfig(true_value=np.pi / 4, initial_guess=0.1, rounds=4, seed=12)
    table = campaign_estimates(cfg, repetitions=5)
    assert table.shape == (5, 5)
    assert list(table[0]) == run_adaptive(cfg).estimates
    third = run_adaptive(dataclasses.replace(cfg, seed=12 ^ 3))
    assert list(table[3]) == third.estimates


# sha256 of campaign estimates in criterion 7's shape (70 repetitions; a guess
# at each end of the prior) and of one run's outcome history and final
# log-likelihood.  Re-recorded once when the default grid came to follow the
# likelihood width, the golden-section search to run a fixed 31 iterations
# and the unitary p(+) to square as arrays do; estimates moved by at most
# 6e-8 except where a moved estimate changed a later outcome draw.
# Re-recorded again when two 17-point passes and a parabolic step replaced
# that search: every estimate moved by at most 1e-7 and no draw changed.
# Re-recorded a third time when each estimate came to be read off the grid
# likelihood (a parabolic step from its argmax) with no search at all: every
# estimate moved by at most 3.1e-6 and no draw changed; the oracle test below
# bounds the step's error.  A change to the campaign engine must otherwise
# leave every byte in place.
_CAMPAIGN_SHA256 = {
    ("theta", "qec_corrected"): "cfc25800fd3cef407ba05045b7689f4ea60932888c52331896eebff623cd8b5b",
    ("theta", "unitary_controlled"): "18ca179dcefb8ca08a6239b9a85fe7ddf0f10ee8003eb3767c50357dde743c26",
    ("omega", "qec_corrected"): "efcf620621e712c0b0a61fd7156d0d3cdd64c3b475ad794e00c832240a840b07",
    ("omega", "unitary_controlled"): "8d22b5a2a5ea251ce15a85bc654a60640f2d2e5745d45bd657f6e0350658231d",
}
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(f, lo, hi) -> np.ndarray:
    """Reference maximizer: 31 golden-section iterations on every lane.

    The campaign engine refined its grid argmax with this search, and then
    with a batched two-pass search, until it came to read each estimate off
    the grid likelihood.  It makes 33 calls of f, one point per lane each.
    """

    def at(x):
        return f(x[:, None])[:, 0]

    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = at(c), at(d)
    for _ in range(31):
        keep_left = fc >= fd  # the maximum lies in [a, d]: drop (d, b]
        a, b = np.where(keep_left, [a, d], [c, b])
        x = np.where(keep_left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = at(x)
        c, d, fc, fd = np.where(keep_left, [x, c, fx, fc], [d, x, fd, fx])
    return 0.5 * (a + b)


def _golden_bytes_configs(task, strategy) -> list[AdaptiveConfig]:
    """One config per initial guess of test_campaign_estimates_golden_bytes."""
    if task == "theta":
        true_value, guesses, grid = np.pi / 4, (0.0, np.pi / 2), None
    else:
        true_value, guesses, grid = 0.3, (0.2, 0.4), (0.2, 0.4, 1e-4)
    return [
        AdaptiveConfig(
            true_value=true_value, initial_guess=guess, grid=grid, seed=20240811, strategy=strategy
        )
        for guess in guesses
    ]


def _campaign_digest(task, strategy) -> str:
    configs = _golden_bytes_configs(task, strategy)
    digest = hashlib.sha256()
    for cfg in configs:
        digest.update(campaign_estimates(cfg, 70, task=task).tobytes())
    single = run_adaptive(configs[-1], task=task)
    digest.update(np.array(single.outcome_history).tobytes())
    digest.update(np.float64(single.log_likelihood_final).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("task, strategy", list(_CAMPAIGN_SHA256))
def test_campaign_estimates_golden_bytes(task, strategy) -> None:
    assert _campaign_digest(task, strategy) == _CAMPAIGN_SHA256[task, strategy]


@pytest.mark.parametrize("task, strategy", list(_CAMPAIGN_SHA256))
def test_refinement_matches_the_golden_section_oracle(task, strategy) -> None:
    # Each round's estimate, the grid argmax refined by a parabolic step,
    # against the maximum likelihood that the oracle finds within a cell of
    # the argmax, at the campaign's own working points and outcome counts.
    record = TASKS[task]
    for cfg in _golden_bytes_configs(task, strategy):
        rngs = [np.random.default_rng(cfg.seed ^ r) for r in range(70)]
        estimates, n_plus = estimation._lockstep(cfg, record, rngs)
        assert np.array_equal(estimates, campaign_estimates(cfg, 70, task=task))
        p_plus = estimation._prob_plus(cfg, record)
        grid, step = estimation._likelihood_grid(cfg, record)
        points = np.broadcast_to(grid, (len(rngs), grid.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(cfg.rounds):
                counts = n_plus[:, : k + 1]
                args = (p_plus, estimates[:, : k + 1], counts, cfg.m - counts)
                best = grid[np.argmax(estimation._total_loglik(*args, points), axis=1)]
                lo, hi = np.maximum(grid[0], best - step), np.minimum(grid[-1], best + step)
                oracle = _golden_section_max(lambda x: estimation._total_loglik(*args, x), lo, hi)
                assert np.max(np.abs(estimates[:, k + 1] - oracle)) < 1e-5


@settings(max_examples=40, deadline=None)
@given(
    task=st.sampled_from(["theta", "omega"]),
    strategy=st.sampled_from(STRATEGIES),
    m=st.integers(1, 12),
    rounds=st.integers(1, 6),
    lo=st.floats(0.0, 0.6),
    width=st.floats(0.01, 0.5),
    cells=st.integers(1, 400),
    true_at=st.floats(0.0, 1.0),
    guess_at=st.floats(0.0, 1.0),
    gamma=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**31 - 1),
    reps=st.integers(1, 6),
)
# m = 1, one round, a guess on the true value, a one-cell grid, a grid fine
# enough that two lanes fill a block (lanes 0-1, 2-3 and 4 run apart), and one
# whose 3000 points put two lanes in a chunk (lanes 0-1, 2-3 and 4 of one block).
@example("theta", "qec_corrected", 1, 3, 0.2, 0.4, 50, 0.3, 0.9, 0.05, 11, 4)
@example("omega", "unitary_controlled", 7, 1, 0.1, 0.3, 80, 0.6, 0.1, 0.05, 12, 3)
@example("theta", "unitary_controlled", 5, 4, 0.3, 0.5, 120, 0.4, 0.4, 0.05, 13, 4)
@example("omega", "qec_corrected", 5, 3, 0.2, 0.2, 1, 0.7, 0.2, 0.05, 14, 4)
@example("theta", "qec_corrected", 4, 2, 0.6, 0.3, 2**19 - 1, 0.5, 0.0, 0.05, 15, 5)
@example("omega", "qec_corrected", 6, 3, 0.2, 0.3, 2999, 0.4, 0.6, 0.05, 16, 5)
def test_campaign_rows_are_independent_runs(
    task, strategy, m, rounds, lo, width, cells, true_at, guess_at, gamma, seed, reps
) -> None:
    cfg = AdaptiveConfig(
        true_value=lo + true_at * width,
        initial_guess=lo + guess_at * width,
        m=m,
        rounds=rounds,
        gamma=gamma,
        grid=(lo, lo + width, width / cells),
        seed=seed,
        strategy=strategy,
    )
    table = campaign_estimates(cfg, reps, task=task)
    for r in range(reps):
        run = run_adaptive(dataclasses.replace(cfg, seed=seed ^ r), task=task)
        assert list(table[r]) == run.estimates


@pytest.mark.parametrize("lanes", [1, 2, 3])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("task, true_value", [("theta", np.pi / 4), ("omega", 0.3)])
def test_campaign_rows_do_not_depend_on_the_chunk(
    monkeypatch, task, true_value, strategy, lanes
) -> None:
    # Chunks of 1, 2 and 3 rows split each round's parents (one grid p(+) row
    # per count history before the round) with a partial last chunk, and in
    # some round the parents outnumber the largest chunk; every row is the same
    # bytes as at the default chunk, where all 7 lanes fit one chunk on this
    # coarse grid, and as a single run.
    sizes, children = [], []
    prob_plus, loglik = estimation._prob_plus, estimation._loglik

    def record(config, task):
        p_plus = prob_plus(config, task)

        def grid_rows(x, x_hat):
            if np.ndim(x):  # on the grid, not at the true value
                sizes.append(len(x_hat))
            return p_plus(x, x_hat)

        return grid_rows

    def record_child(*args):
        children.append(1)
        return loglik(*args)

    cfg = AdaptiveConfig(
        true_value=true_value,
        initial_guess=true_value + 0.15,
        m=30,
        rounds=5,
        grid=(true_value - 0.2, true_value + 0.2, 0.004),
        seed=19,
        strategy=strategy,
    )
    whole = campaign_estimates(cfg, 7, task=task)
    points = estimation._likelihood_grid(cfg, TASKS[task])[0].size
    assert estimation._CHUNK_BYTES // (8 * points) >= 7
    monkeypatch.setattr(estimation, "_CHUNK_BYTES", 8 * points * lanes)
    monkeypatch.setattr(estimation, "_prob_plus", record)
    monkeypatch.setattr(estimation, "_loglik", record_child)
    table = campaign_estimates(cfg, 7, task=task)
    assert table.tobytes() == whole.tobytes()
    layout, child_rows, histories = list(sizes), len(children), []  # a campaign takes no final log-likelihood
    for r in range(7):
        run = run_adaptive(dataclasses.replace(cfg, seed=19 ^ r), task=task)
        assert list(table[r]) == run.estimates
        histories.append(run.outcome_history)
    # Per round, the parents in chunks of `lanes` rows, from the last chunk
    # down, and one _loglik row per group.
    groups = [len({tuple(h[: k + 1]) for h in histories}) for k in range(cfg.rounds)]
    parents = [1, *groups[:-1]]
    assert max(parents) > 3
    assert layout == [min(lanes, g - lo) for g in parents for lo in reversed(range(0, g, lanes))]
    assert child_rows == sum(groups)


def test_campaign_takes_one_likelihood_row_per_count_history(monkeypatch) -> None:
    # A guess at the prior's edge near the true value: the 40 lanes share 2 to
    # 13 count histories a round.  Each round evaluates _loglik and takes the
    # grid peak on one row per distinct history so far, and every lane's
    # estimates are still a single run's.
    cfg = AdaptiveConfig(true_value=0.1, initial_guess=0.0, seed=5)
    loglik, grid_peak, rows, peaks = estimation._loglik, estimation._grid_peak, [0], []

    def record_rows(*args):
        rows[-1] += 1
        return loglik(*args)

    def record_peak(cum, grid, step):
        rows.append(0)
        peaks.append(len(cum))
        return grid_peak(cum, grid, step)

    monkeypatch.setattr(estimation, "_loglik", record_rows)
    monkeypatch.setattr(estimation, "_grid_peak", record_peak)
    rngs = [np.random.default_rng(cfg.seed ^ r) for r in range(40)]
    estimates, n_plus = estimation._lockstep(cfg, TASKS["theta"], rngs)
    monkeypatch.undo()
    histories = [len({tuple(h[: k + 1]) for h in n_plus.tolist()}) for k in range(cfg.rounds)]
    assert rows[:-1] == peaks == histories
    assert 1 < histories[0] and histories[-1] < 20
    for r in range(40):
        assert list(estimates[r]) == run_adaptive(dataclasses.replace(cfg, seed=cfg.seed ^ r)).estimates


@pytest.mark.parametrize("chunk_bytes", [None, 8], ids=["default-chunk", "one-row-chunk"])
@pytest.mark.parametrize(
    "grid, lanes, parent_rows, group_rows",
    [(None, 200, 484, 564), ((0.0, np.pi / 2, 1e-4), 66, 202, 230)],
    ids=["default-grid", "grid-1e-4"],
)
def test_campaign_takes_one_p_plus_row_per_parent(
    monkeypatch, chunk_bytes, grid, lanes, parent_rows, group_rows
) -> None:
    # Siblings (groups that split from one group by their new counts) stand at
    # their parent's estimate: per round, p(+) on the grid is evaluated on one
    # row per count-history prefix before the round (the parents), at the
    # default chunk (4 rows on the default angle grid, one on the 1e-4 grid)
    # and at one row per chunk, and the estimates keep their bytes.
    cfg = AdaptiveConfig(true_value=np.pi / 4, initial_guess=0.0, grid=grid)
    theta, rounds = TASKS["theta"], []
    rngs = [np.random.default_rng(cfg.seed ^ r) for r in range(lanes)]
    whole = estimation._lockstep(cfg, theta, rngs)[0]
    prob_plus = estimation._prob_plus

    def recorded(config, task):
        p_plus = prob_plus(config, task)

        def on_grid(x, x_hat):
            if np.ndim(x):
                rounds[-1] += len(x_hat)
            else:  # the draws at the true value open each round
                rounds.append(0)
            return p_plus(x, x_hat)

        return on_grid

    monkeypatch.setattr(estimation, "_prob_plus", recorded)
    if chunk_bytes is not None:
        monkeypatch.setattr(estimation, "_CHUNK_BYTES", chunk_bytes)
    rngs = [np.random.default_rng(cfg.seed ^ r) for r in range(lanes)]
    estimates, n_plus = estimation._lockstep(cfg, theta, rngs)
    histories = n_plus.tolist()
    parents = [len({tuple(h[:k]) for h in histories}) for k in range(cfg.rounds)]
    assert rounds == parents and sum(parents) == parent_rows
    assert len({tuple(h[:k]) for h in histories for k in range(1, cfg.rounds + 1)}) == group_rows
    assert estimates.tobytes() == whole.tobytes()


def test_campaign_block_memory_when_nearly_every_history_differs() -> None:
    # At m = 1000 and gamma = 50, p(+) is near 1/2 on the whole grid, so by
    # the last round nearly every lane of the 523-lane block has its own
    # history.  The rows are filled in place in the block's (lanes, cells)
    # buffer, so the engine's peak stays within 1.1 times that buffer; a copy
    # of the gathered parent rows would take it to about 1.9.
    cfg = AdaptiveConfig(
        true_value=0.3, initial_guess=0.2, m=1000, rounds=3, gamma=50, grid=(0.2, 0.4, 1e-4)
    )
    lanes, record = 523, TASKS["omega"]
    cells = estimation._likelihood_grid(cfg, record)[0].size
    rngs = [np.random.default_rng(cfg.seed ^ r) for r in range(lanes)]
    tracemalloc.start()
    try:
        estimates, n_plus = estimation._lockstep(cfg, record, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len({tuple(h) for h in n_plus.tolist()}) > 0.9 * lanes
    assert peak <= 1.1 * lanes * cells * 8
    assert np.array_equal(estimates, campaign_estimates(cfg, lanes, task="omega"))


@pytest.mark.parametrize(
    "m, chunk_bytes",
    [(10, 24), (10, 240), (7000, 8 * 7000)],
    ids=["one-lane-a-piece-m-split", "three-lanes-a-piece-partial-last-slab", "m-above-one-piece"],
)
@pytest.mark.parametrize("task, true_value", [("theta", np.pi / 4), ("omega", 0.3)])
def test_campaign_outcomes_drawn_in_chunks(monkeypatch, task, true_value, m, chunk_bytes) -> None:
    # A round's draws fill one _CHUNK_BYTES buffer: a piece of each lane's
    # stream, in rows of as many lanes as fit.  At 24 bytes each of the 5
    # lanes draws m = 10 in pieces of 3, 3, 3 and 1; at 240 three lanes share
    # a piece and the last of two slabs holds two; and m = 7000 is drawn in one
    # piece, where the unpatched buffer of 6144 draws splits it.  Each lane's
    # stream is the same in pieces as at once, so each campaign is the same
    # bytes as at the unpatched buffer.
    cfg = AdaptiveConfig(true_value=true_value, initial_guess=true_value + 0.05, m=m, rounds=4, seed=8)
    whole = campaign_estimates(cfg, 5, task=task)
    monkeypatch.setattr(estimation, "_CHUNK_BYTES", chunk_bytes)
    assert campaign_estimates(cfg, 5, task=task).tobytes() == whole.tobytes()


class _CountedGenerator:
    """A generator whose ``random`` calls are counted."""

    def __init__(self, seed: int) -> None:
        self.rng, self.calls = np.random.default_rng(seed), 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.rng.random(*args, **kwargs)


@pytest.mark.parametrize(
    "m, lanes, calls",
    [(10, 700, 1), (estimation._CHUNK_BYTES // 8, 3, 1), (estimation._CHUNK_BYTES // 8 + 1, 3, 2)],
)
def test_each_lane_draws_a_round_in_one_call_while_m_fits_the_buffer(m, lanes, calls) -> None:
    # Whatever the lanes, a lane makes one Generator.random call a round
    # while its m draws fit one _CHUNK_BYTES buffer: at m = 10, 614 lanes a
    # slab and a second slab of 86, and at m = 6144 one lane a slab.  Past it,
    # one call a piece of the buffer's size.
    cfg = AdaptiveConfig(true_value=0.3, initial_guess=0.2, m=m, rounds=3, seed=4)
    rngs = [_CountedGenerator(cfg.seed ^ r) for r in range(lanes)]
    estimation._lockstep(cfg, TASKS["omega"], rngs)
    assert [rng.calls for rng in rngs] == [calls * cfg.rounds] * lanes


def test_campaign_estimates_validation() -> None:
    cfg = AdaptiveConfig(true_value=0.3, initial_guess=0.2)
    with pytest.raises(DomainError):
        campaign_estimates(cfg, repetitions=2, task="magnetization")


def _no_draws(*args, **kwargs):
    raise AssertionError("the campaign started drawing outcomes")


@pytest.mark.parametrize(
    "run",
    [
        lambda cfg: campaign_estimates(cfg, 10),
        lambda cfg: mse_campaign(cfg, 10, task="omega"),
        lambda cfg: run_adaptive(dataclasses.replace(cfg, m=cfg.m * 10)),
    ],
    ids=["campaign_estimates", "mse_campaign", "run_adaptive"],
)
def test_oversized_campaign_is_refused_before_any_draw(monkeypatch, run) -> None:
    # 10**8 outcomes per round, 10 rounds and 10 repetitions: 10**10 draws.
    cfg = AdaptiveConfig(true_value=0.3, initial_guess=0.2, m=10**8)
    monkeypatch.setattr(estimation, "_lockstep", _no_draws)
    with pytest.raises(DomainError, match=r"m \* rounds \* repetitions"):
        run(cfg)


@pytest.mark.parametrize(
    "run",
    [
        lambda cfg, task: campaign_estimates(cfg, 2, task=task),
        lambda cfg, task: mse_campaign(cfg, 2, task=task),
        lambda cfg, task: run_adaptive(cfg, task=task),
    ],
    ids=["campaign_estimates", "mse_campaign", "run_adaptive"],
)
@pytest.mark.parametrize(
    "task, change, message",
    [
        ("theta", dict(t=0.0), "t must be > 0"),
        ("omega", dict(B=0.0, strategy="unitary_controlled"), "B must be nonzero"),
        ("omega", dict(t=1e100), "t must be small enough for a finite J at this B and gamma"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_campaign_without_finite_information_is_refused_before_any_draw(
    monkeypatch, run, task, change, message
) -> None:
    # No information, or a J that overflows: the CLI's messages.
    cfg = AdaptiveConfig(true_value=0.3, initial_guess=0.2, **change)
    monkeypatch.setattr(estimation, "_lockstep", _no_draws)
    with pytest.raises(DomainError, match=f"^{message}: .* Cramer-Rao line 1/\\(m K J\\)"):
        run(cfg, task)


def test_campaign_lane_round_limit_is_inclusive(monkeypatch) -> None:
    # A 3-cell grid passes the draw and cell-update bounds at 10**9 rounds,
    # or at 10 rounds and 10**8 repetitions, yet either would hold an 8 GB
    # table of estimates.
    cfg = AdaptiveConfig(true_value=0.7, initial_guess=0.0, m=1, rounds=10, grid=[0, 1.5, 0.5])
    estimation.check_campaign_size(cfg, 10**6)
    message = r"rounds \* repetitions must be at most 10000000, got 10 \* 1000001 = 10000010"
    with pytest.raises(DomainError, match=message):
        estimation.check_campaign_size(cfg, 10**6 + 1)
    with pytest.raises(DomainError, match=r"got 10 \* 100000000 ="):
        estimation.check_campaign_size(cfg, 10**8)
    monkeypatch.setattr(estimation, "_lockstep", _no_draws)
    with pytest.raises(DomainError, match=r"got 1000000000 \* 1 ="):
        run_adaptive(dataclasses.replace(cfg, rounds=10**9))


def test_lone_lane_rounds_are_charged_a_block_round(monkeypatch) -> None:
    # 10**7 rounds of one lane are 10**7 lane-rounds, but each costs a
    # block's round (50-105 us, minutes in all): charged at 40 lane-rounds.
    cfg = AdaptiveConfig(true_value=0.3, initial_guess=0.2, m=1, rounds=10**7, grid=(0, 1.5, 0.5))
    monkeypatch.setattr(estimation, "_lockstep", _no_draws)
    message = (
        r"^rounds \* repetitions must be at most 10000000, got 10000000 \* 1 = 10000000, "
        r"charged as 400000000 lane-rounds at 40 or more a block's round"
    )
    for run in (lambda: run_adaptive(cfg), lambda: campaign_estimates(cfg, 1)):
        with pytest.raises(DomainError, match=message):
            run()
    # One block of up to 40 lanes is admitted for at most 10**7 / 40 rounds.
    for lanes in (1, 2, 40):
        estimation.check_campaign_size(dataclasses.replace(cfg, rounds=250000), lanes)
        with pytest.raises(DomainError, match=f"got 250001 \\* {lanes} = {250001 * lanes}, "):
            estimation.check_campaign_size(dataclasses.replace(cfg, rounds=250001), lanes)


def test_campaign_size_limit_is_inclusive() -> None:
    cfg = AdaptiveConfig(true_value=0.3, initial_guess=0.2, m=10**7, rounds=10)
    assert cfg.m * cfg.rounds * 10 == estimation.MAX_CAMPAIGN_DRAWS
    estimation.check_campaign_size(cfg, 10)
    with pytest.raises(DomainError, match="lower m, rounds or repetitions"):
        estimation.check_campaign_size(dataclasses.replace(cfg, rounds=11), 10)


def test_campaign_cell_update_limit_is_inclusive() -> None:
    # A grid of 10**4 cells: 10**5 repetitions of 10 rounds update 10**10
    # cells, the limit, and are admitted.
    assert estimation.MAX_CAMPAIGN_CELL_UPDATES == 10**10
    cfg = AdaptiveConfig(true_value=0.3, initial_guess=0.2, m=1, rounds=10, grid=(0.0, 1.0, 1e-4))
    estimation.check_campaign_size(cfg, 10**5, task="omega")
    with pytest.raises(DomainError, match=r"grid cells \* rounds \* repetitions must be"):
        estimation.check_campaign_size(cfg, 10**5 + 1, task="omega")
    # The default grids count their derived cells: at m = 100 and 10 rounds
    # the final-round width is sqrt(1 / (1000 J)), 0.02236 for the angle
    # (J = 2), so its grid has round((pi/2) / (0.02236 / 64)) = 4496 cells.
    cfg = dataclasses.replace(cfg, m=100, grid=None)
    most = 10**10 // (4496 * 10)
    estimation.check_campaign_size(cfg, most, task="theta")
    with pytest.raises(DomainError, match=r"4496 \* 10 \*"):
        estimation.check_campaign_size(cfg, most + 1, task="theta")


@pytest.mark.parametrize(
    "task, strategy, cells",
    [
        ("theta", "qec_corrected", 1422),
        ("theta", "unitary_controlled", 1005),
        ("omega", "qec_corrected", 2444),
        ("omega", "unitary_controlled", 1600),
    ],
)
def test_default_grid_follows_the_likelihood_width(task, strategy, cells) -> None:
    # At the defaults (m = rounds = 10) the final-round width sqrt(1/(m K J))
    # is 0.071 and 0.1 for the angle (J = 2 and 1), 0.026 and 0.04 for the
    # frequency (J = 14.58 and 6.25); the grid resolves a 64th of it.
    cfg = AdaptiveConfig(true_value=0.3, initial_guess=0.2, strategy=strategy)
    record = TASKS[task]
    width = np.sqrt(estimation.crb_line(cfg, record))
    lo, hi = record.prior
    assert estimation._grid_cells(cfg, record) == (lo, hi, cells)
    assert cells == round((hi - lo) / (width / 64))


def test_explicit_grid_is_used_as_given() -> None:
    for grid in ((0.2, 0.4, 1e-4), (0.0, 1.0, 0.25), (0.1, 0.3, 1e-6)):
        cfg = AdaptiveConfig(true_value=0.3, initial_guess=0.2, grid=grid)
        lo, hi, res = grid
        assert estimation._grid_cells(cfg, TASKS["omega"]) == (lo, hi, round((hi - lo) / res))


@pytest.mark.parametrize("task", ["theta", "omega"])
def test_default_grid_without_information_spans_the_prior_in_64_cells(task) -> None:
    # J = 0: the unitary strategy at B = 0, or no time at all.
    for change in (dict(B=0.0, strategy="unitary_controlled"), dict(t=0.0)):
        cfg = AdaptiveConfig(true_value=0.3, initial_guess=0.2, **change)
        assert estimation.crb_line(cfg, TASKS[task]) == np.inf
        assert estimation._grid_cells(cfg, TASKS[task])[2] == 64


@pytest.mark.parametrize(
    "task, t, B, cells",
    [("theta", 1e200, 0.1, 15708), ("omega", 1e100, 0.1, 10**4), ("omega", 1e100, 1e-300, 10**4)],
)
@pytest.mark.filterwarnings("error")
def test_default_grid_with_overflowing_information_keeps_the_finest_resolution(
    task, t, B, cells
) -> None:
    # J is inf (a Cramer-Rao line of 0), or nan for B^2 below the float range
    # times an infinite t**4; neither raises nor warns.
    cfg = AdaptiveConfig(true_value=0.3, initial_guess=0.2, t=t, B=B)
    assert not estimation.crb_line(cfg, TASKS[task]) > 0
    assert estimation._grid_cells(cfg, TASKS[task])[2] == cells


_GRID = np.linspace(0.1, 0.5, 41)
_STEP = 0.4 / 40


@pytest.mark.filterwarnings("error")
def test_grid_peak_is_the_vertex_of_a_quadratic() -> None:
    # Peaks between cells, on a cell and next to each end cell.
    peak = np.array([0.2037, _GRID[20], 0.1 + 1.3 * _STEP, 0.5 - 0.6 * _STEP])
    cum = -7.0 * (_GRID - peak[:, None]) ** 2
    assert np.max(np.abs(estimation._grid_peak(cum, _GRID, _STEP) - peak)) < 1e-14


@pytest.mark.filterwarnings("error")
def test_grid_peak_at_a_grid_end_returns_that_end() -> None:
    # A peak within or beyond an end cell: the argmax is the end, taken as is.
    peak = np.array([0.1 - 0.3 * _STEP, 0.1 - 1.0, 0.5 + 0.3 * _STEP, 0.5 + 1.0])
    cum = -((_GRID - peak[:, None]) ** 2)
    assert np.array_equal(estimation._grid_peak(cum, _GRID, _STEP), _GRID[[0, 0, -1, -1]])


@pytest.mark.filterwarnings("error")
def test_grid_peak_moves_by_at_most_half_a_step() -> None:
    # At a row's argmax neither neighbour is higher, so |left - right| is at
    # most -(curvature) and the vertex lies within half a cell of it, up to
    # rounding: the curvature's, relative to it, and that of grid[j] + shift.
    # Random concave rows with interior peaks, and rows whose argmax's right
    # neighbour is tied to it, which step by half a cell.
    rng, rows = np.random.default_rng(36), np.arange(2000)
    centre, scale = rng.uniform(0.12, 0.48, rows.size), 10.0 ** rng.uniform(-2, 6, rows.size)
    cum = -scale[:, None] * (_GRID - centre[:, None]) ** 2 + rng.normal(0.0, 50.0, rows.size)[:, None]
    j, tied = np.argmax(cum, axis=1), rng.random(rows.size) < 0.5
    cum[tied, j[tied] + 1] = cum[tied, j[tied]]
    left, mid, right = cum[rows, j - 1], cum[rows, j], cum[rows, j + 1]
    cancel = (abs(left) + 2 * abs(mid) + abs(right)) / -(left - 2 * mid + right)
    slack = 4 * np.finfo(float).eps * cancel * _STEP + np.spacing(_GRID[j])
    gap = np.abs(estimation._grid_peak(cum, _GRID, _STEP) - _GRID[j])
    assert np.all(gap <= _STEP / 2 + slack)
    assert tied.sum() > 900 and np.all(np.abs(gap[tied] - _STEP / 2) <= slack[tied])


@pytest.mark.parametrize("width", [0.0, 1e-12, 1e-4, 0.3, 7.0])
@pytest.mark.filterwarnings("error")
def test_grid_peak_at_any_grid_width(width) -> None:
    # A quadratic row on a 40-cell grid of any width, down to a zero-width
    # grid: a peak between cells is found to within a part in 10^6 of the
    # width, a peak beyond either end gives that end.
    grid, step = 0.1 + width * np.linspace(0.0, 1.0, 41), width / 40
    peak = np.array([0.1 + 0.4075 * width, grid[-1] + 1.0, grid[0] - 1.0])
    cum = -((grid - peak[:, None]) ** 2)
    x = estimation._grid_peak(cum, grid, step)
    assert abs(x[0] - peak[0]) <= 1e-6 * width + 1e-15
    assert x[1] == grid[-1] and x[2] == grid[0]


@pytest.mark.parametrize(
    "row",
    [
        np.where(_GRID < _GRID[8], -np.inf, -_GRID),
        np.where(_GRID < _GRID[8], -np.inf, -_GRID)[::-1],
        np.full(_GRID.shape, -np.inf),
        np.zeros(_GRID.shape),
    ],
    ids=["inf-cells", "inf-cells-reversed", "all-inf", "flat"],
)
@pytest.mark.filterwarnings("error")
def test_grid_peak_of_a_degenerate_row_is_a_grid_point(row) -> None:
    x = estimation._grid_peak(row[None, :], _GRID, _STEP)
    assert np.isfinite(x[0]) and x[0] in _GRID


@pytest.mark.filterwarnings("error")
def test_grid_peak_on_a_one_cell_grid() -> None:
    grid = np.array([0.2, 0.4])
    cum = np.array([[0.0, -1.0], [-1.0, 0.0], [-np.inf, -np.inf], [0.0, 0.0]])
    assert np.array_equal(estimation._grid_peak(cum, grid, 0.2), [0.2, 0.4, 0.2, 0.2])


def _grid_peak_reference(cum, grid, step) -> np.ndarray:
    """_grid_peak as written with np.clip and np.take_along_axis, before it
    came to read the three cells of each row by flat indexing."""
    j, last = np.argmax(cum, axis=1), grid.size - 1
    near = np.clip(j[:, None] + np.arange(-1, 2), 0, last)
    left, mid, right = np.take_along_axis(cum, near, axis=1).T
    with np.errstate(divide="ignore", invalid="ignore"):
        curvature = left - 2.0 * mid + right
        shift = np.clip(0.5 * (left - right) / curvature, -1.0, 1.0) * step
    vertex = (0 < j) & (j < last) & (curvature < 0) & np.isfinite([left, mid, right]).all(axis=0)
    return grid[j] + np.where(vertex, shift, 0.0)


# Ties, infinities, NaN, signed zeros, and finite values near the float range
# whose differences and sums overflow.
_PEAK_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -2.0, np.inf, -np.inf, np.nan, 1e308, -1e308]),
    st.floats(1e307, 1.7976931348623157e308).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(-10.0, 10.0),
)


@settings(max_examples=300, deadline=None)
@given(points=st.integers(2, 3), rows=st.integers(1, 5), data=st.data())
def test_grid_peak_matches_the_clip_and_gather_reference(points, rows, data) -> None:
    cells = data.draw(st.lists(_PEAK_CELLS, min_size=rows * points, max_size=rows * points))
    cum = np.array(cells).reshape(rows, points)
    grid = np.linspace(0.2, 0.2 + 0.1 * (points - 1), points)
    with np.errstate(over="ignore"):
        assert estimation._grid_peak(cum, grid, 0.1).tobytes() == _grid_peak_reference(cum, grid, 0.1).tobytes()


def test_campaign_rows_equal_runs_with_edge_lanes_in_the_block(monkeypatch) -> None:
    # A true value on the edge of the prior puts some lanes' argmax on an end
    # cell of the default grid, which takes no parabolic step, while other
    # lanes of the same block step from an interior cell.
    on_end = []
    grid_peak = estimation._grid_peak

    def record(cum, grid, step):
        j = np.argmax(cum, axis=1)
        on_end.append((j == 0) | (j == grid.size - 1))
        return grid_peak(cum, grid, step)

    monkeypatch.setattr(estimation, "_grid_peak", record)
    for task, true_value in (("theta", 0.0), ("omega", 1.0)):
        for strategy in STRATEGIES:
            cfg = AdaptiveConfig(
                true_value=true_value, initial_guess=0.5, rounds=4, seed=31, strategy=strategy
            )
            table = campaign_estimates(cfg, 8, task=task)
            for r in range(8):
                run = run_adaptive(dataclasses.replace(cfg, seed=31 ^ r), task=task)
                assert list(table[r]) == run.estimates
    assert any(ends.any() and not ends.all() for ends in on_end)


def test_long_campaign_is_refused_before_any_draw(monkeypatch) -> None:
    # A 1e-7 grid is admitted, but 1000 repetitions of 10 rounds on its 10**7
    # cells would run for over an hour.
    cfg = AdaptiveConfig(true_value=0.3, initial_guess=0.2, grid=(0.0, 1.0, 1e-7))
    monkeypatch.setattr(estimation, "_lockstep", _no_draws)
    with pytest.raises(DomainError, match="grid cells"):
        campaign_estimates(cfg, 1000, task="omega")


def test_grid_cell_limit_is_inclusive() -> None:
    # A 1e-7 grid on [0, 1] is 10**7 cells, about 0.5 GB at peak: admitted.
    # One more cell is refused by the config, before any grid is built.
    assert estimation.MAX_GRID_CELLS == 10**7
    AdaptiveConfig(true_value=0.3, initial_guess=0.2, grid=(0.0, 1.0, 1e-7))
    with pytest.raises(DomainError, match="grid must be at most"):
        AdaptiveConfig(true_value=0.3, initial_guess=0.2, grid=(0.0, 1.0, 1 / (10**7 + 1)))


def test_mse_campaign_fixed_point_is_zero() -> None:
    cfg = AdaptiveConfig(true_value=0.4, initial_guess=0.4, rounds=3, seed=5)
    mses = mse_campaign(cfg, repetitions=1)
    assert len(mses) == 4
    assert all(m < 1e-14 for m in mses)


def test_mse_campaign_decreases() -> None:
    cfg = AdaptiveConfig(true_value=np.pi / 4, initial_guess=0.0, seed=7)
    mses = mse_campaign(cfg, repetitions=50)
    assert abs(mses[0] - (np.pi / 4) ** 2) < 1e-12
    assert mses[-1] < 0.01 * mses[0]


@pytest.mark.xfail(
    strict=True,
    reason="final-round estimates spread with the Cramer-Rao width 1/sqrt(m K J) ~ 0.07 "
    "at m*K = 100 shots, which caps the fraction inside +/-0.05 near one half",
)
def test_convergence_fraction_within_band() -> None:
    base_seed = 20240811
    hits = 0
    total = 0
    for k, guess in enumerate((0.0, np.pi / 2)):
        cfg = AdaptiveConfig(
            true_value=np.pi / 4, initial_guess=guess, seed=base_seed + k * 2**20
        )
        table = campaign_estimates(cfg, repetitions=500)
        hits += int(np.sum(np.abs(table[:, -1] - np.pi / 4) <= 0.05))
        total += table.shape[0]
    assert hits / total >= 0.90
