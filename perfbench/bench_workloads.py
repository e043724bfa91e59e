"""The three workloads: their inputs, ops and output checks.

Every input comes from the workload seed; ``fluxmet`` receives only the
generated configs and arguments, through its public calls.  Calls go through
module attributes (``qec.corrected_evolve_theta``, not a name bound here at
import) so that a traced phase sees them.

An op's ``run`` raises ``OpFailed`` (or any error) when the program reports
a failure; its ``check`` raises ``CheckError`` when the program reported
success but the output is wrong.  Either makes a run incorrect, except the
failures listed in ``KNOWN_FAILURES``.
"""

from __future__ import annotations

import io
import json
import math
import os
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import fluxmet.cli as fcli
from bench_stats import CheckError, OpFailed
from fluxmet import dynamics, metrology, qec

B, GAMMA, T = 0.1, 0.05, 5.0
STRATEGIES = ("qec_corrected", "unitary_controlled")

# Known program defects, kept in the op mix so that they stay visible: op
# label -> start of the error it fails with.  The README's qfi-omega line
# exits 4 because its first sample time, t = 0.1, fails the cross-check gate.
# Such an op still counts as failed; any other failure makes a run incorrect.
KNOWN_FAILURES = {
    "fluxmet qfi-omega --domega 0 --domega 0.05 --out omega.csv": "OpFailed: exit 4: error: unitary t=0.1: ",
}


def known_failure(result) -> bool:
    """Whether a failed OpResult is a known defect, failing the known way."""
    want = KNOWN_FAILURES.get(result.label)
    return want is not None and not result.wrong and result.error.startswith(want)


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _close(value: float, want: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - want) <= rel * abs(want)


# ---------------------------------------------------------------------------
# Adaptive-campaign outputs (campaign and cli workloads)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskSpec:
    """Campaign shape of one estimation task, as in acceptance criterion 7."""

    name: str
    true_value: float
    prior: tuple[float, float]
    grid: tuple[float, float, float] | None

    def information(self, strategy: str) -> float:
        """Zero-detuning Fisher information J per shot at t = T."""
        if self.name == "theta":
            coherent, noise = 4 * B * B * T * T, 4 * GAMMA * T
        else:
            coherent, noise = B * B * T**4, (4.0 / 3.0) * GAMMA * T**3
        return coherent + (noise if strategy == "qec_corrected" else 0.0)


TASKS = (
    TaskSpec("theta", math.pi / 4, (0.0, math.pi / 2), None),
    TaskSpec("omega", 0.3, (0.2, 0.4), (0.2, 0.4, 1e-4)),
)
M, ROUNDS = 10, 10


def write_adapt_config(path: Path, task: TaskSpec, guess: float, reps: int, seed: int) -> None:
    doc = {
        "true_value": task.true_value,
        "initial_guess": guess,
        "m": M,
        "rounds": ROUNDS,
        "repetitions": reps,
        "seed": seed,
    }
    if task.grid is not None:
        doc["grid"] = list(task.grid)
    path.write_text(json.dumps(doc))


def check_adapt_csv(path: Path, task: TaskSpec, strategy: str, guess: float, seed: int) -> float:
    """Check one strategy's campaign table; return its final MSE over the CRB.

    The table holds per-round means and MSEs over repetitions.  Estimates
    inside the prior [lo, hi] force the mean inside it and the variance
    (MSE minus squared bias) below (hi - mean)(mean - lo), the Bhatia-Davis
    bound; both are checked on every round.
    """
    try:
        table = fcli.read_csv(str(path))
    except (OSError, fcli.ConfigError) as exc:
        raise CheckError(f"{path.name} does not re-read: {exc}") from exc
    if table.columns != ["round", "estimate_mean", "mse", "crb_line"]:
        raise CheckError(f"{path.name}: columns {table.columns}")
    rows = table.rows
    if rows.shape != (ROUNDS + 1, 4) or not np.all(np.isfinite(rows)):
        raise CheckError(f"{path.name}: shape {rows.shape} or non-finite values")
    if table.metadata.get("seed") != str(seed):
        raise CheckError(f"{path.name}: seed {table.metadata.get('seed')!r}, expected {seed}")
    lo, hi = task.prior
    mean, mse = rows[:, 1], rows[:, 2]
    if not np.array_equal(rows[:, 0], np.arange(ROUNDS + 1)):
        raise CheckError(f"{path.name}: round column {rows[:, 0]}")
    if abs(mean[0] - guess) > 1e-12:
        raise CheckError(f"{path.name}: round 0 mean {mean[0]} is not the guess {guess}")
    # 1e-12 absorbs the rounding of a mean over repetitions.
    if np.any(mean < lo - 1e-12) or np.any(mean > hi + 1e-12):
        raise CheckError(f"{path.name}: an estimate mean leaves the prior [{lo}, {hi}]")
    var = mse - (mean - task.true_value) ** 2
    if np.any(var < -1e-12) or np.any(var > (hi - mean) * (mean - lo) + 1e-12):
        raise CheckError(f"{path.name}: mean and MSE imply estimates outside the prior")
    crb = 1.0 / (M * ROUNDS * task.information(strategy))
    if not np.all(np.abs(rows[:, 3] - crb) <= 1e-12 * crb):
        raise CheckError(f"{path.name}: crb_line {rows[0, 3]} != {crb}")
    return float(mse[-1] / crb)


class AdaptRecord:
    """Final MSE/CRB of every checked campaign table, by task and strategy."""

    # A run fails its statistical check when the median over its calls of
    # final MSE/CRB exceeds this for any (task, strategy).  Criterion 7
    # measures about 2; single calls at ten repetitions scatter widely
    # because a few repetitions lock onto the far edge of the prior.
    MEDIAN_LIMIT = 10.0

    def __init__(self) -> None:
        self.ratios: dict[str, list[float]] = {}

    def add(self, task: str, strategy: str, ratio: float) -> None:
        self.ratios.setdefault(f"{task}.{strategy}", []).append(ratio)

    def mse_over_crb(self) -> dict[str, float]:
        """Pooled final MSE over CRB (all calls use the same repetitions)."""
        return {
            f"estimation.mse_over_crb.{task.name}.{s}": float(
                np.mean(self.ratios.get(f"{task.name}.{s}", [0.0]))
            )
            for task in TASKS
            for s in STRATEGIES
        }

    def statistical_check(self) -> dict[str, float]:
        """Median final MSE/CRB per (task, strategy); raises past the limit."""
        medians = {k: float(statistics.median(v)) for k, v in sorted(self.ratios.items())}
        bad = {k: v for k, v in medians.items() if v > self.MEDIAN_LIMIT}
        if bad:
            raise CheckError(f"median final MSE/CRB above {self.MEDIAN_LIMIT}: {bad}")
        return medians


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


class Campaign:
    """In-process ``cmd_adapt`` calls, one strategy per call.

    A cycle is criterion 7's shape at REPS repetitions per call: both tasks,
    both strategies, initial guesses at both ends of the prior.  Each
    (task, guess) pair of a cycle draws a fresh campaign seed.  The theta
    shape runs twice per cycle: an omega call costs about 2.5 theta calls, so
    with equal counts the median would fall in the gap between the two and
    swing with noise; at 2:1 it falls among theta calls and the tail among
    omega calls.
    """

    name = "campaign"
    REPS = 10
    # Measured time of one cycle in reference-speed seconds (see run.py):
    # eight theta calls at about 0.34 s and four omega calls at about 0.8 s.
    CYCLE_S = 5.9

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.adapt = AdaptRecord()

    def warmup(self) -> list[Op]:
        return self.cycle(-1)[:1]

    def cycle(self, k: int) -> list[Op]:
        rng = _rng(self.seed, k + 1)
        ops = []
        for i, task in enumerate((TASKS[0], TASKS[0], TASKS[1])):
            for g, guess in enumerate(task.prior):
                seed = int(rng.integers(2**31))
                config = self.workdir / f"c{k}-{i}-{task.name}-{g}.json"
                write_adapt_config(config, task, guess, self.REPS, seed)
                for strategy in STRATEGIES:
                    out = self.workdir / f"c{k}-{i}-{task.name}-{g}-{strategy}.csv"
                    ops.append(self._op(task, strategy, guess, seed, config, out))
        return ops

    def _op(self, task, strategy, guess, seed, config, out) -> Op:
        def run():
            return fcli.cmd_adapt(task.name, str(config), str(out), strategy=strategy)

        def check(tables):
            written = out.with_name(f"{out.stem}.{strategy}{out.suffix}")
            ratio = check_adapt_csv(written, task, strategy, guess, seed)
            if not np.array_equal(tables[strategy].rows, fcli.read_csv(str(written)).rows):
                raise CheckError(f"{written.name} differs from the returned table")
            self.adapt.add(task.name, strategy, ratio)

        return Op(f"adapt.{task.name}", f"adapt {task.name} {strategy} guess={guess:.4g}", run, check)

    def final_checks(self) -> dict:
        return {"median_final_mse_over_crb": self.adapt.statistical_check()}


# ---------------------------------------------------------------------------
# numeric_route
# ---------------------------------------------------------------------------


def _bell_density() -> np.ndarray:
    psi = dynamics.bell_probe()
    return np.outer(psi, psi.conj())


def _kraus_state(t: float, theta: float) -> np.ndarray:
    """Free theta-model state from the exact two-Kraus channel."""
    rho0 = _bell_density()
    out = np.zeros_like(rho0)
    for k in dynamics.dephasing_kraus(B, GAMMA, t, theta):
        k4 = np.kron(k, np.eye(2))
        out += k4 @ rho0 @ k4.conj().T
    return out


@dataclass
class Family:
    """A state family evaluated on the points the SLD route samples.

    Each state is checked against the family's closed-form state, and
    ``qfi_sld_numeric`` on the stored states against the closed-form QFI.
    With ``split`` each state is its own op and the last one also runs the
    SLD route; otherwise the whole route is one op.
    """

    kind: str
    state: Callable[[float], np.ndarray]
    closed_state: Callable[[float], np.ndarray]
    state_tol: float
    x0: float
    delta: float
    closed_qfi: float
    qfi_tol: float
    relative: bool
    split: bool = True
    states: dict[float, np.ndarray] = field(default_factory=dict)

    def points(self) -> list[float]:
        # The abscissae qfi_sld_numeric and state_derivative evaluate.
        x, d = self.x0, self.delta
        return [x, x + d, x - d, x + d / 2, x - d / 2]

    def stored(self, x: float) -> np.ndarray:
        # Points other than points() (a changed SLD route) are evaluated here.
        return self.states[x] if x in self.states else self.state(x)


class NumericRoute:
    """SLD-route QFI of evolved families at the acceptance sizes, plus the
    criterion-5 convergence states, each state checked against its closed form.

    The seed draws the operating points: theta_hat within 0.1 of pi/4 and
    omega_hat in [0.2, 0.3]; the closed-form values do not depend on them.

    Ops are cut so that the median falls inside the long free evolutions
    (0.55 s) and the tail inside the twelve equal-cost omega evolutions of a
    run (2000 steps and recoveries each), with only the two coarser
    criterion-5 omega ops beyond them: the short free family (20 ms a
    state) is one op, the two coarser criterion-5 intervals of a task are
    one op, and every other state is its own op.
    """

    name = "numeric_route"
    CYCLE_S = 15.0

    def __init__(self, workdir: Path, seed: int) -> None:
        rng = _rng(seed, 0)
        self.theta_hat = math.pi / 4 + float(rng.uniform(-0.1, 0.1))
        self.omega_hat = float(rng.uniform(0.2, 0.3))
        self.crosscheck_rel_err_max = 0.0

    def _families(self) -> list[Family]:
        th, om = self.theta_hat, self.omega_hat
        rho0 = _bell_density()

        def free(t: float, dt: float, kind: str, split: bool) -> Family:
            return Family(
                kind,
                lambda x: dynamics.lindblad_evolve(dynamics.theta_model(B, GAMMA, x), rho0, t, dt=dt),
                lambda x: _kraus_state(t, x),
                1e-6, th, 1e-4,
                metrology.qfi_theta_free_closed(B, GAMMA, t).value, 1e-4, False, split,
            )

        return [
            free(0.1, 1e-3, "free.short", split=False),
            Family(
                "theta.corrected",
                lambda x: qec.corrected_evolve_theta(B, GAMMA, x, th, T, dt=5e-3, n_recoveries=1000),
                lambda x: qec.corrected_state_theta_closed(B, GAMMA, x, th, T),
                1e-6, th, 1e-4,
                metrology.qfi_theta_qec_closed(B, GAMMA, T, 0.0).value, 1e-3, True,
            ),
            free(16.0, 4e-3, "free.long", split=True),
            Family(
                "omega.corrected",
                lambda x: qec.corrected_evolve_omega(B, GAMMA, x, om, T, dt=2.5e-3, n_recoveries=2000),
                lambda x: qec.corrected_state_omega_closed(B, GAMMA, x, om, T),
                1e-3, om, 5e-4,
                metrology.qfi_omega_qec_closed(B, GAMMA, T, 0.0).value, 1e-3, True,
            ),
        ]

    def _family_ops(self, fam: Family) -> list[Op]:
        def check_state(x: float, rho: np.ndarray) -> None:
            err = float(np.linalg.norm(rho - fam.closed_state(x)))
            if not err <= fam.state_tol:
                raise CheckError(f"{fam.kind} x={x!r}: state off its closed form by {err:.3e}")

        def check_qfi(value: float) -> None:
            err = abs(value - fam.closed_qfi)
            rel = err / abs(fam.closed_qfi)
            self.crosscheck_rel_err_max = max(self.crosscheck_rel_err_max, rel)
            if not (rel if fam.relative else err) <= fam.qfi_tol:
                raise CheckError(f"{fam.kind}: SLD QFI {value!r} vs closed form {fam.closed_qfi!r}")

        def qfi() -> float:
            return metrology.qfi_sld_numeric(fam.stored, fam.x0, delta=fam.delta).value

        def states_op(xs: list[float], with_qfi: bool) -> Op:
            def run():
                rhos = [fam.state(x) for x in xs]
                fam.states.update(zip(xs, rhos))
                return rhos, (qfi() if with_qfi else None)

            def check(out):
                rhos, value = out
                for x, rho in zip(xs, rhos):
                    check_state(x, rho)
                if with_qfi:
                    check_qfi(value)

            label = f"{fam.kind} state x={xs[0]:.9g}" if len(xs) == 1 else f"{fam.kind} route"
            return Op(fam.kind, label + (" + qfi_sld_numeric" if with_qfi else ""), run, check)

        xs = fam.points()
        if not fam.split:
            return [states_op(xs, True)]
        return [states_op([x], x == xs[-1]) for x in xs]

    def _convergence_ops(self, task: str) -> list[Op]:
        """Criterion 5: error against the closed state halves with the interval.

        The two coarser intervals are one op and the finest another, which
        records its error and checks the three together.
        """
        intervals = (0.01, 0.005, 0.0025)
        hat, cap = (self.theta_hat, 1e-5) if task == "theta" else (self.omega_hat, 3e-4)
        errors: dict[float, float] = {}

        def op(dvs: tuple[float, ...]) -> Op:
            def run():
                evolve = getattr(qec, f"corrected_evolve_{task}")
                return [
                    evolve(B, GAMMA, hat + 0.05, hat, T, n_recoveries=int(round(T / dv)), dt=2.5e-3)
                    for dv in dvs
                ]

            def check(rhos):
                closed = getattr(qec, f"corrected_state_{task}_closed")(B, GAMMA, hat + 0.05, hat, T)
                errors.update((dv, float(np.linalg.norm(rho - closed))) for dv, rho in zip(dvs, rhos))
                if intervals[-1] not in dvs:
                    return
                e = [errors.get(dv, math.nan) for dv in intervals]
                ratios = (e[0] / e[1], e[1] / e[2])
                if not (e[2] < cap and all(1.8 < r < 2.2 for r in ratios)):
                    raise CheckError(f"crit5 {task}: errors {e} (ratios {ratios}, cap {cap})")

            return Op(f"crit5.{task}", f"crit5 {task} intervals {dvs}", run, check)

        return [op(intervals[:2]), op(intervals[2:])]

    def warmup(self) -> list[Op]:
        return self._family_ops(self._families()[0])

    def cycle(self, k: int) -> list[Op]:
        ops = []
        for fam in self._families():
            ops += self._family_ops(fam)
        return ops + self._convergence_ops("theta") + self._convergence_ops("omega")

    def final_checks(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def _qfi_at(table, column: str, t: float) -> float:
    rows = table.rows[np.abs(table.rows[:, 0] - t) < 1e-12]
    if column not in table.columns or rows.shape[0] != 1:
        raise CheckError(f"no {column} value at t={t}")
    return float(rows[0, table.columns.index(column)])


class Cli:
    """The README command lines, each as its own ``python -m fluxmet`` process.

    A cycle runs the sweeps, one campaign per task at REPS repetitions, the
    general engine, and plots of the theta sweep and of the theta campaign.
    With seven commands a cycle, the median lands inside one command's
    group of equal-cost runs rather than between two.  The theta campaign
    runs more repetitions so that both campaigns cost about 0.8 s: the tail
    then falls among all of a run's campaigns rather than among the omega
    ones alone.  With ``in_process`` the same argument lists go to
    ``fluxmet.cli.main`` in this interpreter, which a traced phase can see
    into.
    """

    name = "cli"
    REPS = {"theta": 7, "omega": 3}
    CYCLE_S = 3.5  # as separate processes; in-process cycles take about 1 s

    def __init__(self, workdir: Path, seed: int, env: dict[str, str], in_process: bool = False):
        self.workdir = workdir
        self.seed = seed
        self.env = env
        self.in_process = in_process
        self.adapt = AdaptRecord()

    def _command(self, kind: str, args: list[str], cwd: Path, check) -> Op:
        """One command line, run in ``cwd`` with file arguments relative to it."""

        def run():
            if self.in_process:
                err, here = io.StringIO(), os.getcwd()
                os.chdir(cwd)
                try:
                    with redirect_stdout(io.StringIO()), redirect_stderr(err):
                        code = fcli.main(args)
                finally:
                    os.chdir(here)
                text = err.getvalue()
            else:
                proc = subprocess.run(
                    [sys.executable, "-m", "fluxmet", *args],
                    cwd=cwd, env=self.env, capture_output=True, text=True, timeout=150,
                )
                code, text = proc.returncode, proc.stderr
            if code != 0:
                raise OpFailed(f"exit {code}: {text.strip().splitlines()[-1] if text.strip() else ''}")

        return Op(kind, "fluxmet " + " ".join(args), run, lambda out: check())

    def warmup(self) -> list[Op]:
        return self.cycle(-1)[:1]

    def cycle(self, k: int) -> list[Op]:
        d = self.workdir / f"cycle{k}"
        d.mkdir(parents=True, exist_ok=True)
        rng = _rng(self.seed, k + 1)
        theta_csv, omega_csv = d / "theta.csv", d / "omega.csv"
        report = d / "report.json"

        def check_theta():
            table = self._read(theta_csv)
            if table.rows.shape[0] != 101 or not _close(_qfi_at(table, "qfi_qec_dtheta_0", T), 2.0, 1e-9):
                raise CheckError("qfi-theta: qfi_qec_dtheta_0 at t=5 is not 2.0")

        def check_omega():
            table = self._read(omega_csv)
            want = B * B * T**4 + (4.0 / 3.0) * GAMMA * T**3
            if not _close(_qfi_at(table, "qfi_qec_domega_0", T), want, 1e-9):
                raise CheckError("qfi-omega: qfi_qec_domega_0 at t=5 is not 14.58333")

        def check_report():
            doc = json.loads(report.read_text())
            if not _close(float(doc["qfi_asymptotic"]), 2.0, 1e-9):
                raise CheckError(f"general-qec: qfi_asymptotic {doc['qfi_asymptotic']!r}")

        def plot(csv: Path) -> Op:
            svg = csv.with_suffix(".svg")

            def check():
                columns = self._read(csv).columns
                if svg.read_text().count("<polyline") != len(columns) - 1:
                    raise CheckError(f"plot {csv.name}: not one polyline per column of {columns}")

            return self._command("plot", ["plot", csv.name, "--out", svg.name], d, check)

        ops = [
            self._command("qfi-theta", ["qfi-theta", "--t-max", "10", "--points", "101", "--out", theta_csv.name], d, check_theta),
            self._command("qfi-omega", ["qfi-omega", "--domega", "0", "--domega", "0.05", "--out", omega_csv.name], d, check_omega),
        ]
        for task in TASKS:
            guess = float(rng.uniform(*task.prior))
            seed = int(rng.integers(2**31))
            config, out = d / f"campaign-{task.name}.json", d / f"mse-{task.name}.csv"
            write_adapt_config(config, task, guess, self.REPS[task.name], seed)

            def check_adapt(task=task, guess=guess, seed=seed, out=out):
                for s in STRATEGIES:
                    ratio = check_adapt_csv(out.with_name(f"{out.stem}.{s}.csv"), task, s, guess, seed)
                    self.adapt.add(task.name, s, ratio)

            args = ["adapt", task.name, "--config", config.name, "--out", out.name]
            ops.append(self._command(f"adapt-{task.name}", args, d, check_adapt))
        ops += [
            self._command("general-qec", ["general-qec", "theta_example", "--t", "5", "--out", report.name], d, check_report),
            plot(theta_csv),
            plot(d / "mse-theta.qec_corrected.csv"),
        ]
        return ops

    @staticmethod
    def _read(path: Path):
        try:
            return fcli.read_csv(str(path))
        except (OSError, fcli.ConfigError) as exc:
            raise CheckError(f"{path.name} does not re-read: {exc}") from exc

    def final_checks(self) -> dict:
        return {}


def make(name: str, workdir: Path, seed: int, env: dict[str, str], in_process: bool = False):
    if name == "campaign":
        return Campaign(workdir, seed)
    if name == "numeric_route":
        return NumericRoute(workdir, seed)
    return Cli(workdir, seed, env, in_process)
