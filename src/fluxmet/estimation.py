"""Adaptive maximum-likelihood estimation and Monte-Carlo error campaigns.

Each adaptive round builds the code (or the control) at the current estimate,
draws m two-outcome measurements, and re-estimates by maximizing the
cumulative log-likelihood over all rounds so far on a grid, moving the
winning cell to the vertex of the parabola through it and its neighbours.
The outcome distribution is even in (true - estimate), so a single round
cannot resolve the detuning sign; the product over rounds with different
working points breaks that degeneracy.

The loop and the campaigns are written once against a ``tasks.Task`` record;
every public entry point takes the task name ("theta" or "omega") as its
``task`` argument.

One lockstep engine runs every campaign: a block of repetitions ("lanes") moves
through each round together, each lane drawing from its own generator into one
shared 48 KiB buffer.  The lanes with one count history so far (a group) share
one row of a (lanes, grid) cumulative log-likelihood and the estimate read off
it (``_grid_peak``).  Each round evaluates p(+) and its logs on the grid once
per parent group, 48 KiB of rows at a time, and each child group adds its
counts' terms to its parent's row: every element keeps the operands and order of
operations it has alone, so a lane's estimates do not depend on which lanes
share its block, group or chunk, and a single run (``run_adaptive``) is the
one-lane case.  Blocks hold at most 2**20 grid cells (8 MB) and 1024 lanes; a
default grid is sized to the likelihood (``AdaptiveConfig``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _FINITE, _check_domain
from .errors import DomainError
from .metrology import MeasurementDistribution
from .tasks import STRATEGIES, Task, task_record

_CELLS_PER_WIDTH = 64
_FINEST_DEFAULT = 1e-4
# A block of lanes holds at most this many grid cells (8 MB of float64) and
# at most this many lanes: past a few hundred, batching saves no more time,
# while each lane adds a generator (about 1 KB).
_BLOCK_CELLS = 2**20
_BLOCK_LANES = 1024
# Each round evaluates p(+) and its logs on the grid for this many bytes of
# float64 parent rows at a time, so that their temporaries stay in cache.  With
# a row per lane, 10-lane campaigns took 20% less CPU at 48 KiB than one row at a
# time; 16 KiB (a row on the default grids) saved nothing, 120 KiB or a block 9-13%.
_CHUNK_BYTES = 48 * 1024
# A campaign draws m outcomes per repetition and round (2.5e8 a second at m >= 10**5 on a
# 2-core Xeon); more draws are refused before the first rather than run for minutes unseen.
MAX_CAMPAIGN_DRAWS = 10**9
# A likelihood grid of (hi - lo) / resolution cells peaks near 0.5 GB at
# 10**7 cells; a finer one is refused before anything is allocated.
MAX_GRID_CELLS = 10**7
# At worst, when no two count histories agree, every repetition and round
# updates each grid cell, at 30-95 ns a cell on a 2-core Xeon (30-75 on the
# default grids, 36-95 on 10**6 cells): more (about 10 minutes) are refused.
MAX_CAMPAIGN_CELL_UPDATES = 10**10
# A lane-round, one repetition's one round, takes a float64 per table and on a 3-cell grid
# about 2 us in a block of 1024 lanes, 50-55 us alone (2-core Xeon): more (80 MB) are refused.
_MAX_LANE_ROUNDS = 10**7


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
    list or tuple and stored as a tuple, and used exactly as given.  None
    picks the task's prior ([0, pi/2] for the angle, [0, 1] for the
    frequency) at a resolution of 1/64 of the final-round likelihood width
    sqrt(1/(m K J)), or of the prior if that is narrower, and at least 1e-4.
    Each round maximizes the likelihood product over all rounds so far on
    this grid, to within a parabolic step of one cell.
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
        _check_domain("gamma", self.gamma)
        _check_domain("t", self.t)


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

    p(+) = (1 + exp(-decay) cos(phase))/2 with the phase and decay of the task's
    ``coherence`` at detuning x - x_hat (``metrology.Coherence``).
    """
    _check_domain("t", t)
    _check_domain("gamma", gamma)
    _check_domain("x", x, _FINITE)
    _check_domain("x_hat", x_hat, _FINITE)
    _check_domain("B", B, _FINITE)
    p = float(task_record(task).coherence.p_plus(x, x_hat, B, gamma, t))
    return MeasurementDistribution(outcomes=[("+", p), ("-", 1.0 - p)])


# ---------------------------------------------------------------------------
# Adaptive loop
# ---------------------------------------------------------------------------


def _loglik(n_plus: int, n_minus: int, log_p, log_q):
    """n+ log p + n- log(1 - p) from log p and log(1 - p), for n+ + n- >= 1.

    A zero count's term is skipped, where 0 * log(0) would be NaN; no term is
    -0.0, so the result is the bytes of a sum with that term set to 0.0.
    """
    if n_plus and n_minus:
        return n_plus * log_p + n_minus * log_q
    return n_plus * log_p if n_plus else n_minus * log_q


def _grid_peak(cum, grid, step) -> np.ndarray:
    """Per row of cum, its grid argmax (first on ties) moved to the vertex of the parabola through
    that cell and its two neighbours, by at most half a step as neither neighbour is higher (rounding
    in a near-tie can make it one).  There is no step from a grid end, or where the three values are
    not each finite and concave.  Rows do not interact.
    """
    j, last = np.argmax(cum, axis=1), grid.size - 1
    at = np.arange(0, cum.size, grid.size)
    left, mid, right = near = cum.ravel()[[np.maximum(j - 1, 0) + at, j + at, np.minimum(j + 1, last) + at]]
    with np.errstate(divide="ignore", invalid="ignore"):
        curvature = left - 2.0 * mid + right
        shift = 0.5 * (left - right) / curvature * step
    vertex = (0 < j) & (j < last) & (curvature < 0) & np.isfinite(near).all(axis=0)
    return grid[j] + np.where(vertex, shift, 0.0)


def _prob_plus(config: AdaptiveConfig, task: Task):
    """p(+ | x, x_hat) of the configured strategy, elementwise."""
    if config.strategy == "unitary_controlled":
        return lambda x, x_hat: task.p_plus_unitary(x, x_hat, config.B, config.t)
    return lambda x, x_hat: task.coherence.p_plus(x, x_hat, config.B, config.gamma, config.t)


def _total_loglik(prob_plus, x_hats, n_plus, n_minus, x) -> np.ndarray:
    """Per lane i, the log-likelihood of its rounds (columns) at each point x[i, p].

    The rounds are summed left to right into zeros, the order of a scalar
    running total, so a lane's value does not depend on the other lanes.
    """
    p = prob_plus(x[:, :, None], x_hats[:, None])
    log_p, log_q, total = np.log(p), np.log(1.0 - p), np.zeros(x.shape)
    for k in range(x_hats.shape[1]):
        for plus, minus in set(zip(n_plus[:, k].tolist(), n_minus[:, k].tolist())):
            lanes = (n_plus[:, k] == plus) & (n_minus[:, k] == minus)
            total[lanes] += _loglik(plus, minus, log_p[lanes, :, k], log_q[lanes, :, k])
    return total


def crb_line(config: AdaptiveConfig, task: Task) -> float:
    """The Cramer-Rao line 1/(m K J), J the zero-detuning information per shot
    of the configured strategy: inf at J = 0, 0 or nan where J overflows."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        j = task.information(config.strategy, config.B, config.gamma, config.t)
        return float(np.float64(1.0) / (config.m * config.rounds * j))


def _grid_cells(config: AdaptiveConfig, task: Task) -> tuple[float, float, int]:
    """(lo, hi, cells) of the likelihood grid: ``config.grid`` as given, else
    the task's prior at the resolution derived from the Cramer-Rao line."""
    if config.grid is not None:
        lo, hi, res = config.grid
    else:
        (lo, hi), res, crb = task.prior, _FINEST_DEFAULT, crb_line(config, task)
        if crb > 0:  # a J that overflows keeps the finest resolution
            res = max(res, min(math.sqrt(crb), hi - lo) / _CELLS_PER_WIDTH)
    return lo, hi, max(1, int(round((hi - lo) / res)))


def _likelihood_grid(config: AdaptiveConfig, task: Task) -> tuple[np.ndarray, float]:
    lo, hi, n_cells = _grid_cells(config, task)
    return np.linspace(lo, hi, n_cells + 1), (hi - lo) / n_cells


def _lockstep(
    config: AdaptiveConfig, task: Task, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Advance one lane per generator through every round together.

    Per round: each lane draws config.m outcomes at the true value from its
    generator, the code (or control) at its estimate, into one ``_CHUNK_BYTES``
    buffer, as many lanes a piece as fit, and one comparison counts a piece's +
    outcomes.  The lanes of one count history so far (a group) share a row of the
    cumulative grid likelihood: a new group's row is its parent's plus the round
    at the parent's estimate.  p(+) on the grid and its two logs are evaluated
    once per parent, ``_CHUNK_BYTES`` of parent rows at a time, and each child
    adds its own counts' terms (``_loglik``), elementwise as for one lane.  A
    group's estimate is its row's argmax (first on ties) moved to the vertex of
    the parabola through it and its neighbours (``_grid_peak``).  Returns the
    estimates x_0..x_K, (lanes, rounds + 1), and the + counts, (lanes, rounds).
    """
    grid, step = _likelihood_grid(config, task)
    lanes, m, p_plus = len(rngs), config.m, _prob_plus(config, task)
    estimates = np.full((lanes, config.rounds + 1), config.initial_guess, dtype=float)
    n_plus = np.zeros((lanes, config.rounds), dtype=np.int64)
    cum, group = np.zeros((lanes, grid.size)), np.zeros(lanes, dtype=np.int64)  # all in group 0
    peaks, chunk = estimates[:1, 0], max(1, _CHUNK_BYTES // (8 * grid.size))
    width = min(m, _CHUNK_BYTES // 8)  # a lane's draws a piece: Generator.random's stream is the same in pieces
    draws = np.empty((_CHUNK_BYTES // (8 * width), width))  # a piece for a slab of as many lanes as fit
    new = np.ones(lanes, dtype=bool)  # new[i]: the i-th lane in key order opens a group
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) is -inf
        for k in range(config.rounds):
            p_true = p_plus(config.true_value, peaks)[group]
            for a, s in itertools.product(range(0, lanes, len(draws)), range(0, m, width)):
                u, slab = draws[: lanes - a, : m - s], slice(a, a + len(draws))
                for rng, row in zip(rngs[slab], u):
                    rng.random(out=row)
                n_plus[slab, k] += (u < p_true[slab, None]).sum(axis=1)
            # Groups numbered by sorted key (parent group, count), as by np.unique: a parent
            # row is at or before its children's, so filled from the last row down, each
            # row is read before it is overwritten.
            key = group * (m + 1) + n_plus[:, k]
            order = np.argsort(key, kind="stable")
            np.not_equal(key[order[1:]], key[order[:-1]], out=new[1:])
            first = order[new]
            parent, counts = group[first].tolist(), n_plus[first, k].tolist()
            group[order] = np.cumsum(new) - 1
            rows, g = cum[: first.size], first.size
            for lo in reversed(range(0, peaks.size, chunk)):
                p = p_plus(grid[None, :], peaks[lo : lo + chunk, None])
                log_p, log_q = np.log(p), np.log(1.0 - p)
                while g and parent[g - 1] >= lo:
                    g -= 1
                    j, n = parent[g], counts[g]
                    np.add(rows[j], _loglik(n, m - n, log_p[j - lo], log_q[j - lo]), out=rows[g])
            peaks = _grid_peak(rows, grid, step)
            estimates[:, k + 1] = peaks[group]
    return estimates, n_plus


def check_campaign_size(config: AdaptiveConfig, repetitions: int, task: str = "theta") -> None:
    """DomainError unless the campaign is admitted, by these rules in order:
    repetitions an integer >= 1; at most ``MAX_CAMPAIGN_DRAWS`` outcome draws
    (m * rounds * repetitions), ``MAX_CAMPAIGN_CELL_UPDATES`` grid-cell updates
    (cells * rounds * repetitions) and ``_MAX_LANE_ROUNDS`` lane-rounds (rounds
    * repetitions); a finite positive Cramer-Rao line 1/(m K J); and a grid
    narrower than one period of the likelihood phase, whose rate is |dphase/dx|
    of the task's coherence at zero detuning (2 |B| t angle, |B| t^2 frequency)."""
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
    record = task_record(task)
    lo, hi, cells = _grid_cells(config, record)
    updates = cells * config.rounds * repetitions
    if updates > MAX_CAMPAIGN_CELL_UPDATES:
        raise DomainError(
            f"grid cells * rounds * repetitions must be at most {MAX_CAMPAIGN_CELL_UPDATES} "
            f"likelihood updates, got {cells} * {config.rounds} * {repetitions} = {updates}; "
            "coarsen the grid or lower rounds or repetitions"
        )
    lane_rounds = config.rounds * repetitions
    if lane_rounds > _MAX_LANE_ROUNDS:
        raise DomainError(
            f"rounds * repetitions must be at most {_MAX_LANE_ROUNDS}, got "
            f"{config.rounds} * {repetitions} = {lane_rounds}; lower rounds or repetitions"
        )
    crb = crb_line(config, record)
    if not 0 < crb < np.inf:
        field, bound = ("t", "> 0") if config.t == 0 else ("B", "nonzero")
        if not crb > 0:  # 0 or nan: J overflows
            field, bound = "t", "small enough for a finite J at this B and gamma"
        raise DomainError(
            f"{field} must be {bound}: at t = {config.t:g}, B = {config.B:g}, gamma = {config.gamma:g} "
            f"the {config.strategy} campaign's Cramer-Rao line 1/(m K J) is {crb:g}, not a finite "
            "positive number"
        )
    rate = abs(float(record.coherence.deriv(config.B, config.gamma, 0.0, config.t)[0]))
    if rate * (hi - lo) >= 2.0 * np.pi:
        raise DomainError(
            f"grid width {hi - lo} aliases the likelihood phase at t={config.t}; "
            "shorten t or the prior interval"
        )


def run_adaptive(config: AdaptiveConfig, task: str = "theta") -> EstimationRun:
    """Adaptive maximum-likelihood estimation of ``task``'s parameter.

    One lane of the lockstep engine, seeded with config.seed.
    """
    record = task_record(task)
    check_campaign_size(config, 1, task)
    estimates, n_plus = _lockstep(config, record, [np.random.default_rng(config.seed)])
    p_plus, m = _prob_plus(config, record), config.m
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0), as in _lockstep
        final_ll = _total_loglik(p_plus, estimates[:, :-1], n_plus, m - n_plus, estimates[:, -1:])
    history = [(int(n), m - int(n)) for n in n_plus[0]]
    return EstimationRun(estimates[0].tolist(), history, float(final_ll[0, 0]), config.seed)


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
    block = min(_BLOCK_LANES, max(1, _BLOCK_CELLS // (_grid_cells(config, record)[2] + 1)))
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
