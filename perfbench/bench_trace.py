"""Span tracing from outside the package, and the per-layer metrics it yields.

The benchmark never edits ``fluxmet``.  A traced phase replaces each layer
boundary listed in ``BOUNDARIES`` with a wrapper in every ``fluxmet`` module
that binds the function (``qec`` binds ``lindblad_evolve``, ``cli`` and
``dynamics`` bind ``kron``, ...), and puts the originals back afterwards.
Each wrapper records one span: name, start, end, parent span and op id.
Spans stay in memory, in flat arrays, until the run ends.

A boundary whose function no longer exists (a later change removes a private
helper such as ``_golden_max``) is skipped; its metrics then read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Hooks see (tracer, bound arguments) before the call and may replace
# arguments in place, e.g. to wrap a callback.
Hook = Callable[["Tracer", inspect.BoundArguments], None]


class Tracer:
    """In-memory span and counter store.

    ``op_id`` is set by the op loop before each op; every span and counter
    increment made while it runs carries that id.  While ``active`` is False
    (output checks between ops) wrapped calls record nothing.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.active = True
        self.counts: dict[tuple[str, int], float] = {}
        self.maxima: dict[tuple[str, int], float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, n: float = 1.0) -> None:
        k = (key, self.op_id)
        self.counts[k] = self.counts.get(k, 0.0) + n

    def note_max(self, key: str, value: float) -> None:
        k = (key, self.op_id)
        self.maxima[k] = max(self.maxima.get(k, value), value)

    def save(self, path: str) -> None:
        """Write all spans to an ``.npz`` file (times in ns)."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


# ---------------------------------------------------------------------------
# Boundaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Boundary:
    """One function to wrap: ``module.attr``, recorded as span ``span``.

    ``span`` None records no span, only what ``hook`` counts.
    """

    module: str
    attr: str
    span: str | None
    hook: Hook | None = None


def _count_rk4_steps(tracer: Tracer, ba: inspect.BoundArguments) -> None:
    t, dt = ba.arguments["t"], ba.arguments["dt"]
    if t > 0 and dt > 0:
        tracer.count("dynamics.rk4_steps", round(t / dt))


def _trace_state_map(tracer: Tracer, ba: inspect.BoundArguments) -> None:
    ba.arguments["state_map"] = _wrap(tracer, ba.arguments["state_map"], "metrology.state_eval")


def _count_campaign(tracer: Tracer, ba: inspect.BoundArguments) -> None:
    config, reps, task = ba.arguments["config"], ba.arguments["repetitions"], ba.arguments["task"]
    lo, hi, res = config.grid if config.grid is not None else DEFAULT_GRIDS[task]
    points = max(1, int(round((hi - lo) / res))) + 1
    tracer.count("estimation.reps", reps)
    tracer.count("estimation.grid_points", reps * config.rounds * points)


def _count_objective(tracer: Tracer, ba: inspect.BoundArguments) -> None:
    objective = ba.arguments["f"]

    def counted(x):
        tracer.count("estimation.objective_evals")
        return objective(x)

    ba.arguments["f"] = counted


def _count_bytes(tracer: Tracer, ba: inspect.BoundArguments) -> None:
    tracer.count("cli.bytes_written", len(ba.arguments["text"].encode()))


def _note_crosscheck(tracer: Tracer, ba: inspect.BoundArguments) -> None:
    closed, numeric = ba.arguments["closed"], ba.arguments["numeric"]
    scale = max(abs(closed), abs(numeric), 1e-9)
    tracer.note_max("metrology.crosscheck_rel_err_max", abs(closed - numeric) / scale)


# Default likelihood grids of the two estimation tasks, as documented on
# AdaptiveConfig; used to count grid points from configs that leave grid unset.
DEFAULT_GRIDS = {"theta": (0.0, np.pi / 2, 1e-4), "omega": (0.0, 1.0, 1e-4)}

_CLOSED_FORMS = (
    "qfi_theta_free_closed",
    "qfi_theta_qec_closed",
    "qfi_omega_qec_closed",
    "qfi_theta_unitary_controlled",
    "qfi_omega_unitary_controlled",
    "cfi_theta_qec_closed",
    "cfi_omega_qec_closed",
)
_CLI_COMMANDS = ("cmd_qfi_theta", "cmd_qfi_omega", "cmd_adapt", "cmd_general_qec", "cmd_plot")

BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("fluxmet.qmat", "kron", "qmat.kron"),
    Boundary("fluxmet.qmat", "expm", "qmat.expm"),
    Boundary("fluxmet.qmat", "hermitian_eig", "qmat.eig"),
    Boundary("fluxmet.dynamics", "lindblad_evolve", "dynamics.evolve", _count_rk4_steps),
    Boundary("fluxmet.qec", "corrected_evolve_theta", "qec.corrected"),
    Boundary("fluxmet.qec", "corrected_evolve_omega", "qec.corrected"),
    Boundary("fluxmet.qec", "apply_recovery", "qec.recovery"),
    Boundary("fluxmet.qec", "check_qec_conditions", "qec.expansion"),
    Boundary("fluxmet.qec", "expansion_superoperators", "qec.expansion"),
    Boundary("fluxmet.metrology", "qfi_sld_numeric", "metrology.qfi_sld", _trace_state_map),
    *(Boundary("fluxmet.metrology", name, "metrology.closed") for name in _CLOSED_FORMS),
    Boundary("fluxmet.estimation", "campaign_estimates", "estimation.campaign", _count_campaign),
    Boundary("fluxmet.estimation", "_golden_max", "estimation.golden", _count_objective),
    *(Boundary("fluxmet.cli", name, "cli.cmd") for name in _CLI_COMMANDS),
    Boundary("fluxmet.cli", "write_csv", "cli.write"),
    Boundary("fluxmet.cli", "_atomic_write", "cli.write", _count_bytes),
    Boundary("fluxmet.cli", "_crosscheck_theta", "cli.crosscheck"),
    Boundary("fluxmet.cli", "_crosscheck_omega", "cli.crosscheck"),
    Boundary("fluxmet.cli", "_check_pair", None, _note_crosscheck),
)


def _wrap(tracer: Tracer, fn, span: str | None, hook: Hook | None = None):
    name_id = tracer.name_id(span) if span is not None else -1
    sig = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if sig is not None:
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            hook(tracer, ba)
            args, kwargs = ba.args, ba.kwargs
        if name_id < 0:
            return fn(*args, **kwargs)
        i = tracer.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(i)

    wrapper.__perfbench_wrapper__ = True
    return wrapper


@contextmanager
def traced(tracer: Tracer, boundaries: tuple[Boundary, ...] = BOUNDARIES):
    """Wrap every binding of every boundary for the duration of the block."""
    # Import every boundary module first: one imported mid-way would bind
    # wrappers it never gets back from.
    for b in boundaries:
        importlib.import_module(b.module)
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "fluxmet"]
    patched: list[tuple[object, str, object]] = []
    try:
        for b in boundaries:
            original = getattr(sys.modules[b.module], b.attr, None)
            if original is None:
                continue
            wrapper = _wrap(tracer, original, b.span, b.hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def leftover_wrappers() -> list[str]:
    """Names of fluxmet module attributes that still hold a tracing wrapper."""
    return [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "fluxmet"
        for attr, value in vars(module).items()
        if getattr(value, "__perfbench_wrapper__", False)
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


@dataclass
class SpanTable:
    """Spans as numpy arrays, with self time and outermost flags."""

    names: list[str]
    name: np.ndarray
    dur: np.ndarray
    self_time: np.ndarray
    outermost: np.ndarray
    op: np.ndarray

    @classmethod
    def from_arrays(cls, names, name, start, end, parent, op) -> "SpanTable":
        name = np.asarray(name, dtype=np.int64)
        parent = np.asarray(parent, dtype=np.int64)
        dur = (np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)) * 1e-9
        n = name.size
        has_parent = parent >= 0
        # Self time: duration minus the part covered by direct children.
        child_cover = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_cover[:n]
        # A span is outermost when no ancestor carries the same name.
        outermost = np.ones(n, dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            outermost[live] &= name[anc[live]] != name[live]
            anc[live] = parent[anc[live]]
        return cls(list(names), name, dur, self_time, outermost, np.asarray(op, dtype=np.int64))

    @classmethod
    def from_tracer(cls, tracer: Tracer) -> "SpanTable":
        return cls.from_arrays(
            tracer.names, tracer.name, tracer.start, tracer.end, tracer.parent, tracer.op
        )

    def select(self, span: str, ops: np.ndarray | None) -> np.ndarray:
        if span not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        mask = self.name == self.names.index(span)
        if ops is not None:
            mask &= np.isin(self.op, ops)
        return mask

    def calls(self, span: str, ops=None) -> int:
        return int(np.count_nonzero(self.select(span, ops) & self.outermost))

    def seconds(self, span: str, ops=None) -> float:
        return float(self.dur[self.select(span, ops) & self.outermost].sum())

    def self_seconds(self, span: str, ops=None) -> float:
        return float(self.self_time[self.select(span, ops)].sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(table: SpanTable, tracer: Tracer, ops=None) -> dict[str, float]:
    """Every span-derived per-layer metric, over all ops or the given op ids."""
    op_set = None if ops is None else set(int(o) for o in ops)

    def counted(key: str) -> float:
        return sum(v for (k, o), v in tracer.counts.items() if k == key and (op_set is None or o in op_set))

    def maximum(key: str) -> float:
        vals = [v for (k, o), v in tracer.maxima.items() if k == key and (op_set is None or o in op_set)]
        return max(vals, default=0.0)

    ops_arr = None if ops is None else np.asarray(sorted(op_set), dtype=np.int64)
    m: dict[str, float] = {}
    for span in ("qmat.kron", "qmat.expm", "qmat.eig", "qec.recovery", "metrology.closed", "cli.write"):
        m[f"{span}.calls"] = table.calls(span, ops_arr)
        m[f"{span}.s"] = table.seconds(span, ops_arr)
    for span in ("dynamics.evolve", "qec.corrected", "metrology.qfi_sld"):
        m[f"{span}.calls"] = table.calls(span, ops_arr)
        m[f"{span}.self_s"] = table.self_seconds(span, ops_arr)
    steps = counted("dynamics.rk4_steps")
    m["dynamics.rk4_steps"] = steps
    m["dynamics.step_us"] = 1e6 * _ratio(table.seconds("dynamics.evolve", ops_arr), steps)
    m["qec.expansion.s"] = table.seconds("qec.expansion", ops_arr)
    m["metrology.state_evals"] = int(np.count_nonzero(table.select("metrology.state_eval", ops_arr)))
    m["metrology.crosscheck_rel_err_max"] = maximum("metrology.crosscheck_rel_err_max")
    campaign_s = table.seconds("estimation.campaign", ops_arr)
    golden_s = table.seconds("estimation.golden", ops_arr)
    reps = counted("estimation.reps")
    evals = counted("estimation.objective_evals")
    m["estimation.campaign.calls"] = table.calls("estimation.campaign", ops_arr)
    m["estimation.reps"] = reps
    m["estimation.rep_ms"] = 1e3 * _ratio(campaign_s, reps)
    m["estimation.golden.s"] = golden_s
    m["estimation.golden.share"] = _ratio(golden_s, campaign_s)
    m["estimation.objective_evals"] = evals
    m["estimation.objective_evals_per_round"] = _ratio(evals, table.calls("estimation.golden", ops_arr))
    m["estimation.grid_points"] = counted("estimation.grid_points")
    m["cli.cmd.self_s"] = table.self_seconds("cli.cmd", ops_arr)
    m["cli.bytes_written"] = counted("cli.bytes_written")
    m["cli.crosscheck.s"] = table.seconds("cli.crosscheck", ops_arr)
    return m
