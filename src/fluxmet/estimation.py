"""Adaptive maximum-likelihood estimation and Monte-Carlo error campaigns.

Each adaptive round builds the code (or the control) at the current estimate,
draws m two-outcome measurements, and re-estimates by maximizing the
cumulative log-likelihood over all rounds so far on a dense grid, then
refining the winning cell by golden-section search.  The outcome
distribution is even in (true - estimate), so a single round cannot resolve
the detuning sign; the product over rounds with different working points
breaks that degeneracy.

The loop and the campaigns are written once against a ``tasks.Task`` record;
every public entry point takes the task name ("theta" or "omega") as its
``task`` argument.

One lockstep engine runs every campaign: a block of repetitions ("lanes")
moves through each round together.  Each lane draws from its own generator
and adds its round to its own row of a shared (lanes, grid) cumulative
log-likelihood; one golden-section search then refines all lanes at once,
freezing each lane where a search of that lane alone would stop.  A lane's
estimates therefore do not depend on which lanes share its block, and a
single run (``run_adaptive``) is the one-lane case.  Blocks hold at most
2**20 grid cells (8 MB) and at most 1024 lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError
from .metrology import MeasurementDistribution
from .tasks import STRATEGIES, Task, task_record

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-10  # bracket width at which a golden-section lane stops
# A block of lanes holds at most this many grid cells (8 MB of float64) and
# at most this many lanes: past a few hundred, batching saves no more time,
# while each lane adds a generator (about 1 KB) and its refinement rows.
_BLOCK_CELLS = 2**20
_BLOCK_LANES = 1024
_DRAW_CHUNK = 2**16
# A campaign draws m outcomes per repetition and round, at about 3e8 draws a
# second; one that asks for more than this many draws is refused before its
# first draw rather than left to run for minutes with no output.
MAX_CAMPAIGN_DRAWS = 10**9
# A likelihood grid of (hi - lo) / resolution cells peaks near 0.5 GB at
# 10**7 cells; a finer one is refused before anything is allocated.
MAX_GRID_CELLS = 10**7
# Every repetition and round updates each grid cell, at 50-80 ns a cell: a
# campaign of more updates (about 10 minutes) is refused before its first draw.
MAX_CAMPAIGN_CELL_UPDATES = 10**10


def _finite(value) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return False
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):  # ints beyond the float range, non-numbers
        return False


def _check_integer(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise DomainError(f"{name!r} must be an integer, got {value!r}")


@dataclass(frozen=True)
class AdaptiveConfig:
    """Parameters of one adaptive estimation run, checked in type and value.

    ``grid`` is (lo, hi, resolution) for the likelihood search, given as a
    list or tuple and stored as a tuple; None picks the task default
    ([0, pi/2] for the angle, [0, 1] for the frequency, resolution 1e-4).
    Each round maximizes the likelihood product over all rounds so far.
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
        for name in ("m", "rounds", "seed"):
            _check_integer(name, getattr(self, name))
        if self.m < 1:
            raise DomainError(f"m must be >= 1, got {self.m}")
        if self.rounds < 1:
            raise DomainError(f"rounds must be >= 1, got {self.rounds}")
        if self.seed < 0:  # repetition r seeds numpy's generator with seed XOR r
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.strategy not in STRATEGIES:
            raise DomainError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.grid is not None:
            grid = self.grid
            if not (isinstance(grid, (list, tuple)) and len(grid) == 3 and all(map(_finite, grid))):
                raise DomainError(f"grid must be a list or tuple of 3 finite numbers, got {grid!r}")
            object.__setattr__(self, "grid", tuple(grid))
            lo, hi, res = grid
            if not lo < hi:
                raise DomainError(f"grid lo must be < hi, got ({lo}, {hi})")
            if res <= 0:
                raise DomainError(f"grid resolution must be > 0, got {res}")
            if not (hi - lo) / res <= MAX_GRID_CELLS:
                cells = f"(hi - lo) / resolution = {(hi - lo) / res:.3g}"
                raise DomainError(f"grid must be at most {MAX_GRID_CELLS} cells, got {cells}")
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


def outcome_probability(
    x: float, x_hat: float, B: float, gamma: float, t: float, task: str = "theta"
) -> MeasurementDistribution:
    """Code-basis outcome distribution of ``task`` at estimate x_hat; even in x - x_hat.

    Angle: p(+) = (1 + exp(-2 t gamma sin^2 d) cos(2 B t sin d))/2, d = x - x_hat.
    Frequency: p(+) = (1 + exp(-R) cos(Phi))/2 with the analytic rotating-frame
    phase Phi and decay R at detuning x - x_hat.
    """
    record = task_record(task)
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    p = float(record.p_plus(x, x_hat, B, gamma, t))
    return MeasurementDistribution(outcomes=[("+", p), ("-", 1.0 - p)])


# ---------------------------------------------------------------------------
# Adaptive loop
# ---------------------------------------------------------------------------


def _loglik(n_plus, n_minus, p):
    """n+ log p + n- log(1 - p) elementwise, a zero count adding 0.0.

    The log term of a count that is zero throughout is not evaluated.  The
    caller holds np.errstate for log(0) under a positive count.
    """
    p = np.asarray(p, dtype=float)
    plus, minus = n_plus > 0, n_minus > 0
    lp = np.where(plus, n_plus * np.log(p), 0.0) if plus.any() else 0.0
    lm = np.where(minus, n_minus * np.log(1.0 - p), 0.0) if minus.any() else 0.0
    return lp + lm


def _golden_max(f, lo, hi) -> np.ndarray:
    """Golden-section maximum of f on [lo[i], hi[i]] for every lane i at once.

    f maps one point per lane to that lane's objective; it is called once per
    iteration for the whole batch.  A lane is frozen from the iteration in
    which its bracket is within _GOLDEN_TOL (at most 80 iterations), where a
    search of that lane alone would stop, so each lane ends on the same float.
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        live = ~(b - a <= _GOLDEN_TOL)
        if not live.any():
            break
        keep_left = fc >= fd  # the maximum lies in [a, d]: drop (d, b]
        a1 = np.where(keep_left, a, c)
        b1 = np.where(keep_left, d, b)
        x = np.where(keep_left, b1 - _GOLDEN * (b1 - a1), a1 + _GOLDEN * (b1 - a1))
        fx = f(x)
        c1, fc1 = np.where(keep_left, x, d), np.where(keep_left, fx, fd)
        d1, fd1 = np.where(keep_left, c, x), np.where(keep_left, fc, fx)
        if live.all():
            a, b, c, d, fc, fd = a1, b1, c1, d1, fc1, fd1
        else:
            a, b, c, d, fc, fd = (
                np.where(live, new, old)
                for new, old in zip((a1, b1, c1, d1, fc1, fd1), (a, b, c, d, fc, fd))
            )
    return 0.5 * (a + b)


def _pow_square(y) -> np.ndarray:
    """y ** 2 elementwise as a float scalar squares: through C pow(), which
    differs in the last bit from y * y (what ``array ** 2`` computes) on about
    one input in a thousand."""
    return np.float_power(y, 2.0)


def _prob_plus(config: AdaptiveConfig, task: Task, square=np.square):
    """p(+ | x, x_hat) of the configured strategy, elementwise; ``square``
    squares within the unitary formulas."""
    if config.strategy == "unitary_controlled":
        return lambda x, x_hat: task.p_plus_unitary(x, x_hat, config.B, config.t, square)
    return lambda x, x_hat: task.p_plus(x, x_hat, config.B, config.gamma, config.t)


def _total_loglik(prob_plus, x_hats, n_plus, n_minus, x) -> np.ndarray:
    """Per lane i, the log-likelihood of its rounds (columns) at x[i].

    The rounds are summed left to right into zeros, the order of a scalar
    running total, so a lane's value does not depend on the other lanes.
    """
    terms = _loglik(n_plus, n_minus, prob_plus(x[:, None], x_hats))
    total = np.zeros(len(x))
    for column in terms.T:
        total += column
    return total


def _grid_cells(config: AdaptiveConfig, task: Task) -> tuple[float, float, int]:
    """(lo, hi, cells) of the likelihood grid, the task default when unset."""
    lo, hi, res = config.grid if config.grid is not None else task.default_grid
    return lo, hi, max(1, int(round((hi - lo) / res)))


def _likelihood_grid(config: AdaptiveConfig, task: Task) -> tuple[np.ndarray, float]:
    lo, hi, n_cells = _grid_cells(config, task)
    if task.phase_scale(config.B, config.t) * (hi - lo) >= 2.0 * np.pi:
        raise DomainError(
            f"grid width {hi - lo} aliases the likelihood phase at t={config.t}; "
            "shorten t or the prior interval"
        )
    return np.linspace(lo, hi, n_cells + 1), (hi - lo) / n_cells


def _lockstep(
    config: AdaptiveConfig, task: Task, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance one lane per generator through every round together.

    Per round and lane: build the code (or control) at the lane's estimate,
    draw config.m outcomes at the true value from the lane's generator, add
    the round to the lane's row of the cumulative grid likelihood and take
    its argmax (first index on ties).  One batched golden-section search then
    refines every lane within its winning cell.  Returns the estimates
    x_0..x_K, shape (lanes, rounds + 1), the + counts, (lanes, rounds), and
    each lane's log-likelihood of all rounds at its final estimate.
    """
    # The grid takes p(+) in array arithmetic.  The outcome draw and the
    # refinement take it as the per-repetition scalar loop did, so that the
    # estimates keep their bytes: squares through C pow(), see _pow_square.
    on_grid = _prob_plus(config, task)
    at_points = _prob_plus(config, task, _pow_square)
    grid, step = _likelihood_grid(config, task)
    lo, hi = grid[0], grid[-1]
    lanes, m = len(rngs), config.m
    estimates = np.empty((lanes, config.rounds + 1))
    estimates[:, 0] = config.initial_guess
    n_plus = np.empty((lanes, config.rounds), dtype=np.int64)
    cum = np.zeros((lanes, grid.size))
    # log(0) is -inf, and 0 * log(0) is NaN masked by _loglik's np.where.
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(config.rounds):
            x_hat = estimates[:, k]
            p_true = at_points(config.true_value, x_hat)
            # In round 0 every lane stands at initial_guess: one grid serves all.
            shared = on_grid(grid, x_hat[0]) if k == 0 else None
            for i, rng in enumerate(rngs):
                # At most _DRAW_CHUNK draws at a time, so memory does not grow with m;
                # Generator.random returns the same stream in pieces as at once.
                chunks = (min(_DRAW_CHUNK, m - s) for s in range(0, m, _DRAW_CHUNK))
                n_plus[i, k] = sum(np.count_nonzero(rng.random(c) < p_true[i]) for c in chunks)
                p_grid = shared if shared is not None else on_grid(grid, x_hat[i])
                cum[i] += _loglik(n_plus[i, k], m - n_plus[i, k], p_grid)
            best = grid[np.argmax(cum, axis=1)]
            counts = n_plus[:, : k + 1]
            objective = partial(_total_loglik, at_points, estimates[:, : k + 1], counts, m - counts)
            estimates[:, k + 1] = _golden_max(
                objective, np.maximum(lo, best - step), np.minimum(hi, best + step)
            )
        final_ll = _total_loglik(at_points, estimates[:, :-1], n_plus, m - n_plus, estimates[:, -1])
    return estimates, n_plus, final_ll


def check_campaign_size(config: AdaptiveConfig, repetitions: int, task: str = "theta") -> None:
    """DomainError unless repetitions is an integer >= 1 and the campaign
    fits its two bounds: outcome draws, m * rounds * repetitions, at most
    ``MAX_CAMPAIGN_DRAWS``, and likelihood-grid cell updates, cells * rounds
    * repetitions on ``task``'s grid, at most ``MAX_CAMPAIGN_CELL_UPDATES``."""
    _check_integer("repetitions", repetitions)
    if repetitions < 1:
        raise DomainError(f"repetitions must be >= 1, got {repetitions}")
    draws = config.m * config.rounds * repetitions
    if draws > MAX_CAMPAIGN_DRAWS:
        raise DomainError(
            f"m * rounds * repetitions = {config.m} * {config.rounds} * {repetitions} = {draws} "
            f"outcome draws exceeds the limit of {MAX_CAMPAIGN_DRAWS}; lower m, rounds or "
            "repetitions"
        )
    cells = _grid_cells(config, task_record(task))[2]
    updates = cells * config.rounds * repetitions
    if updates > MAX_CAMPAIGN_CELL_UPDATES:
        raise DomainError(
            f"grid cells * rounds * repetitions must be at most {MAX_CAMPAIGN_CELL_UPDATES} "
            f"likelihood updates, got {cells} * {config.rounds} * {repetitions} = {updates}; "
            "coarsen the grid or lower rounds or repetitions"
        )


def run_adaptive(config: AdaptiveConfig, task: str = "theta") -> EstimationRun:
    """Adaptive maximum-likelihood estimation of ``task``'s parameter.

    One lane of the lockstep engine, seeded with config.seed.
    """
    record = task_record(task)
    check_campaign_size(config, 1, task)
    rng = np.random.default_rng(config.seed)
    estimates, n_plus, final_ll = _lockstep(config, record, [rng])
    history = [(int(n), config.m - int(n)) for n in n_plus[0]]
    return EstimationRun(estimates[0].tolist(), history, float(final_ll[0]), config.seed)


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


def campaign_estimates(config: AdaptiveConfig, repetitions: int, task: str = "theta") -> np.ndarray:
    """Estimate trajectories for all repetitions, shape (reps, rounds+1).

    Repetition r uses an independent generator seeded with config.seed XOR r.
    Repetitions advance in lockstep, in blocks of at most 1024 that keep the
    cumulative likelihood grid within 8 MB.  A campaign that
    ``check_campaign_size`` refuses is a DomainError before its first draw.
    """
    record = task_record(task)
    check_campaign_size(config, repetitions, task)
    grid_size = _likelihood_grid(config, record)[0].size
    block = min(_BLOCK_LANES, max(1, _BLOCK_CELLS // grid_size))
    out = np.empty((repetitions, config.rounds + 1))
    for start in range(0, repetitions, block):
        stop = min(start + block, repetitions)
        rngs = [np.random.default_rng(config.seed ^ rep) for rep in range(start, stop)]
        out[start:stop] = _lockstep(config, record, rngs)[0]
    return out


def mse_campaign(config: AdaptiveConfig, repetitions: int, task: str = "theta") -> list[float]:
    """Per-round mean-squared error of ``task``'s estimator.

    Entry k is the MSE of the round-k estimate over all repetitions.
    """
    est = campaign_estimates(config, repetitions, task=task)
    return list(np.mean((est - config.true_value) ** 2, axis=0))
