"""Adaptive maximum-likelihood estimation and Monte-Carlo error campaigns.

Each adaptive round builds the code (or the control) at the current estimate,
draws m two-outcome measurements, and re-estimates by maximizing the
cumulative log-likelihood over all rounds so far on a dense grid, then
refining the winning cell by golden-section search.  The outcome
distribution is even in (true - estimate), so a single round cannot resolve
the detuning sign; the product over rounds with different working points
breaks that degeneracy.

The loop and the campaigns are written once against a ``tasks.Task`` record;
the per-task names (``run_adaptive_omega`` and so on) pick the record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .metrology import MeasurementDistribution
from .tasks import STRATEGIES, TASKS, Task

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):  # ints beyond the float range, non-numbers
        return False


@dataclass(frozen=True)
class AdaptiveConfig:
    """Parameters of one adaptive estimation run.

    ``grid`` is (lo, hi, resolution) for the likelihood search; None picks
    the task default ([0, pi/2] for the angle, [0, 1] for the frequency,
    resolution 1e-4).  Each round maximizes the likelihood product over all
    rounds so far.
    """

    true_value: float
    initial_guess: float
    m: int = 10
    rounds: int = 10
    t: float = 5.0
    B: float = 0.1
    gamma: float = 0.05
    grid: tuple[float, float, float] | None = None
    seed: int = 0
    strategy: str = "qec_corrected"

    def __post_init__(self) -> None:
        for name in ("true_value", "initial_guess", "t", "B", "gamma"):
            value = getattr(self, name)
            if not _finite(value):
                raise DomainError(f"{name} must be a finite number, got {value!r}")
        if self.m < 1:
            raise DomainError(f"m must be >= 1, got {self.m}")
        if self.rounds < 1:
            raise DomainError(f"rounds must be >= 1, got {self.rounds}")
        if self.strategy not in STRATEGIES:
            raise DomainError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.grid is not None:
            if len(self.grid) != 3 or not all(_finite(v) for v in self.grid):
                raise DomainError(f"grid must be three finite numbers, got {self.grid!r}")
            lo, hi, res = self.grid
            if not lo < hi:
                raise DomainError(f"grid lo must be < hi, got ({lo}, {hi})")
            if res <= 0:
                raise DomainError(f"grid resolution must be > 0, got {res}")
        if self.gamma < 0:
            raise DomainError(f"gamma must be >= 0, got {self.gamma}")
        if self.t < 0:
            raise DomainError(f"t must be >= 0, got {self.t}")


@dataclass(frozen=True)
class EstimationRun:
    """Record of one adaptive run: estimates x_0..x_K and per-round counts."""

    estimates: list[float]
    outcome_history: list[tuple[int, int]]
    log_likelihood_final: float
    seed: int


# ---------------------------------------------------------------------------
# Outcome distributions
# ---------------------------------------------------------------------------


def _outcome_distribution(
    task: Task, x: float, x_hat: float, B: float, gamma: float, t: float
) -> MeasurementDistribution:
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    p = float(task.p_plus(x, x_hat, B, gamma, t))
    return MeasurementDistribution(outcomes=[("+", p), ("-", 1.0 - p)])


def outcome_probability_theta(
    theta: float, theta_hat: float, B: float, gamma: float, t: float
) -> MeasurementDistribution:
    """Code-basis outcome distribution for the angle task.

    p(+) = (1 + exp(-2 t gamma sin^2 d) cos(2 B t sin d))/2 with
    d = theta - theta_hat; the distribution is even in d.
    """
    return _outcome_distribution(TASKS["theta"], theta, theta_hat, B, gamma, t)


def outcome_probability_omega(
    omega: float, omega_hat: float, B: float, gamma: float, t: float
) -> MeasurementDistribution:
    """Code-basis outcome distribution for the frequency task.

    p(+) = (1 + exp(-R) cos(Phi))/2 with the analytic rotating-frame phase
    Phi and decay R at detuning omega - omega_hat.
    """
    return _outcome_distribution(TASKS["omega"], omega, omega_hat, B, gamma, t)


# ---------------------------------------------------------------------------
# Adaptive loop
# ---------------------------------------------------------------------------


def _loglik(n_plus: int, n_minus: int, p):
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.where(n_plus > 0, n_plus * np.log(p), 0.0)
        lm = np.where(n_minus > 0, n_minus * np.log(1.0 - p), 0.0)
    return lp + lm


def _golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _run_adaptive(
    config: AdaptiveConfig, rng: np.random.Generator | None, task: Task
) -> EstimationRun:
    """Per round: build the code (or control) at the current estimate, draw
    config.m outcomes at the true value, update the cumulative grid
    likelihood, take its argmax (first index on ties) and refine within the
    winning cell.  Deterministic for a given (config, seed).
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if config.strategy == "unitary_controlled":
        def prob_plus(x, x_hat):
            return task.p_plus_unitary(x, x_hat, config.B, config.t)
    else:
        def prob_plus(x, x_hat):
            return task.p_plus(x, x_hat, config.B, config.gamma, config.t)

    lo, hi, res = config.grid if config.grid is not None else task.default_grid
    if task.phase_scale(config.B, config.t) * (hi - lo) >= 2.0 * np.pi:
        raise DomainError(
            f"grid width {hi - lo} aliases the likelihood phase at t={config.t}; "
            "shorten t or the prior interval"
        )
    n_cells = max(1, int(round((hi - lo) / res)))
    grid = np.linspace(lo, hi, n_cells + 1)
    step = (hi - lo) / n_cells

    cum = np.zeros_like(grid)
    estimates = [float(config.initial_guess)]
    history: list[tuple[int, int]] = []
    for _ in range(config.rounds):
        x_hat = estimates[-1]
        p_true = float(prob_plus(config.true_value, x_hat))
        n_plus = int(np.count_nonzero(rng.random(config.m) < p_true))
        n_minus = config.m - n_plus
        history.append((n_plus, n_minus))

        cum += _loglik(n_plus, n_minus, prob_plus(grid, x_hat))
        idx = int(np.argmax(cum))
        rounds_used = list(zip(history, estimates))

        def objective(x: float) -> float:
            total = 0.0
            for (np_, nm_), xh in rounds_used:
                total += float(_loglik(np_, nm_, prob_plus(x, xh)))
            return total

        cell_lo = max(lo, grid[idx] - step)
        cell_hi = min(hi, grid[idx] + step)
        estimates.append(_golden_max(objective, cell_lo, cell_hi))

    final_ll = 0.0
    for (np_, nm_), xh in zip(history, estimates):
        final_ll += float(_loglik(np_, nm_, prob_plus(estimates[-1], xh)))
    return EstimationRun(estimates, history, final_ll, config.seed)


def run_adaptive(config: AdaptiveConfig, rng: np.random.Generator | None = None) -> EstimationRun:
    """Adaptive maximum-likelihood estimation of the noise-axis angle."""
    return _run_adaptive(config, rng, TASKS["theta"])


def run_adaptive_omega(
    config: AdaptiveConfig, rng: np.random.Generator | None = None
) -> EstimationRun:
    """Adaptive maximum-likelihood estimation of the rotation frequency."""
    return _run_adaptive(config, rng, TASKS["omega"])


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


def campaign_estimates(config: AdaptiveConfig, repetitions: int, task: str = "theta") -> np.ndarray:
    """Estimate trajectories for all repetitions, shape (reps, rounds+1).

    Repetition r uses an independent generator seeded with config.seed XOR r.
    """
    if repetitions < 1:
        raise DomainError(f"repetitions must be >= 1, got {repetitions}")
    if task not in TASKS:
        raise DomainError(f"unknown task {task!r}; expected 'theta' or 'omega'")
    out = np.empty((repetitions, config.rounds + 1))
    for rep in range(repetitions):
        run = _run_adaptive(replace(config, seed=config.seed ^ rep), None, TASKS[task])
        out[rep] = run.estimates
    return out


def _mse_curve(config: AdaptiveConfig, repetitions: int, task: str) -> list[float]:
    est = campaign_estimates(config, repetitions, task=task)
    return list(np.mean((est - config.true_value) ** 2, axis=0))


def mse_campaign(config: AdaptiveConfig, repetitions: int) -> list[float]:
    """Per-round mean-squared error of the angle estimator.

    Entry k is the MSE of the round-k estimate over all repetitions.
    """
    return _mse_curve(config, repetitions, "theta")


def mse_campaign_omega(config: AdaptiveConfig, repetitions: int) -> list[float]:
    """Per-round mean-squared error of the frequency estimator."""
    return _mse_curve(config, repetitions, "omega")
