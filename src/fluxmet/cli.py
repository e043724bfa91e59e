"""Command-line front end: sweeps, campaigns, the general engine and plots.

Subcommands
-----------
qfi-theta    information-vs-time table for the angle task
qfi-omega    information-vs-time table for the frequency task
adapt        adaptive-estimation campaign from a JSON config
general-qec  run the expansion engine on a model file
plot         render a CSV table as an SVG line chart

All numeric output is deterministic given (config, seed, version).  CSV
files carry '#'-prefixed metadata (command, config hash, seed, version) and
17-significant-digit values so they round-trip losslessly.  Exit codes:
0 success, 2 config/input error, 3 recovery-condition violation, 4 numeric
cross-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import __version__
from .dynamics import LindbladModel, _check_count, _check_domain, _check_number, _finite
from .errors import (
    ConfigError,
    CrossCheckError,
    DomainError,
    FluxmetError,
    LeakageError,
    NumericError,
    QecConditionError,
)
from .estimation import AdaptiveConfig, campaign_estimates, check_campaign_size, crb_line
from .metrology import qfi_sld_numeric
from .qec import QecCode, _l2_expectation, asymptotic_qfi, code_probe, expansion_superoperators
from .tasks import STRATEGIES, TASKS, Task, task_record

_CROSSCHECK_RTOL = 1e-3
_CROSSCHECK_SAMPLES = 5
# A sweep fills its table one point at a time, about 0.15 ms a point for the
# frequency task on a 2-core x86 host; more points are refused up front.
MAX_SWEEP_POINTS = 10**5
# The exit code of each failure class; any other FluxmetError or OSError exits 2.
_EXIT_CODES = ((QecConditionError, 3), (LeakageError, 3), (CrossCheckError, 4), (NumericError, 4))


# ---------------------------------------------------------------------------
# Curve tables
# ---------------------------------------------------------------------------


@dataclass
class CurveTable:
    """Rectangular numeric table with '#'-comment metadata."""

    columns: list[str]
    rows: np.ndarray
    metadata: dict[str, str]

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.columns):
            raise ConfigError(
                f"table shape {self.rows.shape} does not match {len(self.columns)} columns"
            )
        if len(self.columns) < 2:
            raise ConfigError(f"a table needs at least two columns, got {self.columns}")
        for name, column in zip(self.columns, self.rows.T):
            if not np.all(np.isfinite(column)):
                raise ConfigError(f"non-finite value in column {name!r}", field=name)


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` through a new temp file beside ``path`` and a rename.
    The temp file is created as ``open(path, "w")`` creates a file, with mode
    0o666 less the umask; O_EXCL refuses a file or symlink at its name."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".fluxmet-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(table: CurveTable, path: str) -> None:
    """Write the table; atomic (temp file + rename), 17 significant digits."""
    lines = [f"# {k}: {v}" for k, v in table.metadata.items()]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(f"{x:.17g}" for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_csv(path: str) -> CurveTable:
    """Parse a table written by :func:`write_csv`."""
    metadata: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[float]] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                metadata[key.strip()] = value.strip()
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                continue
            try:
                rows.append([float(x) for x in line.split(",")])
            except ValueError as exc:
                raise ConfigError(f"bad numeric row in {path}: {line!r}") from exc
    if header is None or not rows:
        raise ConfigError(f"no data rows in {path}")
    width = len(header)
    if any(len(r) != width for r in rows):
        raise ConfigError(f"ragged rows in {path}")
    return CurveTable(columns=header, rows=np.array(rows), metadata=metadata)


def _config_hash(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _metadata(command: str, params: dict, seed: int | None) -> dict[str, str]:
    return {
        "command": command,
        "config": _config_hash(params),
        "seed": str(seed if seed is not None else ""),
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# Cross-check gate
# ---------------------------------------------------------------------------


def _check_pair(label: str, closed: float, numeric: float) -> None:
    scale = max(abs(closed), abs(numeric), 1e-9)
    if abs(closed - numeric) / scale > _CROSSCHECK_RTOL:
        raise CrossCheckError(
            f"{label}: closed form {closed:.6e} vs numeric {numeric:.6e} "
            f"disagree beyond {_CROSSCHECK_RTOL:g} relative"
        )


# ---------------------------------------------------------------------------
# Sweep commands
# ---------------------------------------------------------------------------


def _curves(spec: Task, B: float, gamma: float, d_list: list[float]) -> list[tuple]:
    """The sweep's columns after t, in order, as (column, gate label, closed
    form at t, state family at t, the point where the gate evaluates it).
    Two detunings that print alike would name one column twice: a DomainError."""
    x_hat = spec.x_hat
    curves = [(
        "qfi_unitary", "unitary", lambda t: spec.unitary_closed(B, t, 0.0).value,
        lambda t: spec.unitary_family(B, t, x_hat), x_hat,
    )]
    seen: dict[str, float] = {}
    for d in d_list:
        column = f"qfi_qec_{spec.symbol}_{d + 0.0:g}"  # -0 names the column of 0
        if column in seen:
            raise DomainError(f"{spec.symbol} values {seen[column]!r} and {d!r} both name {column}")
        seen[column] = d
        curves.append((
            column, f"qec {spec.symbol}={d:g}",
            lambda t, d=d: spec.qec_closed(B, gamma, t, d).value,
            lambda t: lambda x: spec.corrected_state(B, gamma, x, x_hat, t), x_hat + d,
        ))
    if spec.free_closed is not None:
        curves.append((
            "qfi_free", "free", lambda t: spec.free_closed(B, gamma, t).value,
            lambda t: spec.free_family(B, gamma, t), x_hat,
        ))
    return curves


def cmd_qfi(
    task: str, B: float, gamma: float, t_max: float, n_points: int, d_list: list[float],
    out_path: str | None,
) -> CurveTable:
    """Information-vs-time table for one task ("theta" or "omega").

    Columns: t, the unitary-control baseline (4B^2t^2 for the angle, B^2t^4
    for the frequency), one corrected-dynamics column per detuning and, for
    the angle, the free-evolution value.  Before anything is written, the
    closed-form cells of up to five sample rows are cross-checked against
    the eigendecomposition route on each column's state family.
    """
    spec = task_record(task)
    _check_domain(B=B, gamma=gamma)
    _check_number("t_max", t_max)
    if not 1e-9 < t_max < np.inf:  # the cross-check gate samples t > 1e-9
        raise DomainError(f"t_max must be finite and > 1e-9, got {t_max}")
    _check_count("n_points", n_points, 2)
    if n_points > MAX_SWEEP_POINTS:
        raise DomainError(f"n_points must be at most {MAX_SWEEP_POINTS}, got {n_points}")
    for d in d_list:
        _check_domain(**{spec.symbol: d})
    ts = np.linspace(0.0, t_max, n_points)
    curves = _curves(spec, B, gamma, d_list)
    inputs = f"got B = {B:g}, gamma = {gamma:g}, t_max = {t_max:g}"
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused below
        try:
            rows = np.array([[t] + [closed(t) for _, _, closed, _, _ in curves] for t in ts])
        except NumericError as exc:  # at finite arguments a closed form is inf or nan
            raise DomainError(
                f"B, gamma and t_max must be small enough for finite information values, {inputs}"
            ) from exc
        # The gate: up to _CROSSCHECK_SAMPLES rows spread evenly over t > 1e-9.
        positive = np.flatnonzero(ts > 1e-9)
        picks = np.linspace(0, positive.size - 1, min(_CROSSCHECK_SAMPLES, positive.size)).astype(int)  # distinct
        try:
            for i in positive[picks]:
                for cell, (_, label, _, family, x) in zip(rows[i, 1:], curves):
                    numeric = qfi_sld_numeric(family(ts[i]), x).value
                    _check_pair(f"{label} t={ts[i]:g}", cell, numeric)
        except DomainError as exc:  # a state family's matrices are not finite (no known input reaches this)
            raise DomainError(
                f"B, gamma and t_max must be small enough for finite states, {inputs}: {exc}"
            ) from exc
    params = {"B": B, "gamma": gamma, "t_max": t_max, "n_points": n_points}
    params[f"{spec.symbol}_list"] = list(d_list)
    cols = ["t"] + [column for column, *_ in curves]
    table = CurveTable(columns=cols, rows=rows, metadata=_metadata(f"qfi-{task}", params, None))
    if out_path is not None:
        write_csv(table, out_path)
    return table


# ---------------------------------------------------------------------------
# Adaptive campaigns
# ---------------------------------------------------------------------------

# An adapt config sets the fields of AdaptiveConfig, which checks their types
# and values, with a list of strategies in place of one, plus the repetitions.
_ADAPT_KEYS = {"repetitions", "strategies"} | {
    f.name for f in dataclasses.fields(AdaptiveConfig) if f.name != "strategy"
}
_ADAPT_REQUIRED = ("true_value", "initial_guess", "repetitions")


def _load_adapt_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    for key in raw:
        if key not in _ADAPT_KEYS:
            raise ConfigError(f"unknown config key {key!r}", field=key)
    for key in _ADAPT_REQUIRED:
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}", field=key)
    # The default list is part of the config hash, as if it had been written.
    strategies = raw.setdefault("strategies", list(STRATEGIES))
    if not isinstance(strategies, list) or not strategies:
        raise ConfigError(
            f"strategies must be a non-empty list, got {strategies!r}", field="strategies"
        )
    if any(s in strategies[:i] for i, s in enumerate(strategies)):  # one campaign, one file each
        raise ConfigError(f"strategies must be distinct, got {strategies!r}", field="strategies")
    return raw


def _strategy_out_path(out_path: str, strategy: str) -> str:
    base, ext = os.path.splitext(out_path)
    return f"{base}.{strategy}{ext or '.csv'}"


def cmd_adapt(
    task: str,
    config_path: str,
    out_path: str,
    seed: int | None = None,
    reps: int | None = None,
    strategy: str | None = None,
) -> dict[str, CurveTable]:
    """Run the adaptive campaign described by a JSON config.

    Writes one CSV per strategy (suffix inserted before the extension) with
    columns round, estimate_mean, mse and the constant Cramer-Rao line
    1/(m*K*J).  Returns the tables keyed by strategy.  seed, reps and
    strategy override the corresponding config entries when given.
    """
    record = task_record(task)
    raw = _load_adapt_config(config_path)
    reps = raw["repetitions"] if reps is None else reps
    seed = raw.get("seed", 0) if seed is None else seed
    strategies = raw["strategies"] if strategy is None else [strategy]
    kwargs = {k: v for k, v in raw.items() if k not in ("repetitions", "strategies", "seed")}
    # Every strategy's campaign is admitted before any campaign runs, so a
    # bad one writes no file.
    runs = []
    for s in strategies:
        cfg = AdaptiveConfig(**kwargs, seed=seed, strategy=s)
        check_campaign_size(cfg, reps, task)
        runs.append((s, cfg))
    tables: dict[str, CurveTable] = {}
    for strategy, cfg in runs:
        estimates = campaign_estimates(cfg, reps, task=task)
        with np.errstate(over="ignore"):  # an overflow is an inf cell, which the table refuses
            mse = np.mean((estimates - cfg.true_value) ** 2, axis=0)
        mean = np.mean(estimates, axis=0)
        rounds = np.arange(cfg.rounds + 1, dtype=float)
        crb = np.full_like(rounds, crb_line(cfg, record))
        rows = np.column_stack([rounds, mean, mse, crb])
        params = dict(raw, repetitions=reps, strategy=strategy, task=task, seed=seed)
        tables[strategy] = CurveTable(
            columns=["round", "estimate_mean", "mse", "crb_line"],
            rows=rows,
            metadata=_metadata("adapt", params, seed),
        )
    for strategy, table in tables.items():
        write_csv(table, _strategy_out_path(out_path, strategy))
    return tables


# ---------------------------------------------------------------------------
# General engine
# ---------------------------------------------------------------------------


def _complex_from_json(obj, shape: tuple[int, ...], field: str) -> np.ndarray:
    """Complex array of ``shape`` from nested lists of [re, im] pairs.

    ConfigError naming ``field`` unless every level is a list of the right
    length and every pair holds two finite numbers.
    """
    def valid(node, want: tuple[int, ...]) -> bool:
        if not want:
            return _finite(node)
        return isinstance(node, list) and len(node) == want[0] and all(
            valid(item, want[1:]) for item in node
        )

    if not valid(obj, shape + (2,)):
        dims = "x".join(map(str, shape))
        raise ConfigError(f"{field}: expected {dims} [re, im] pairs of finite numbers", field=field)
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


# A model file holds the fields of LindbladModel but its frame, then the code words.
_MODEL_KEYS = [f.name for f in dataclasses.fields(LindbladModel) if f.name != "frame"]
_MODEL_KEYS += ["code_c0", "code_c1"]


def resolve_model_path(name: str) -> str:
    """Resolve a path or the bare name of a bundled model file."""
    if os.path.exists(name):
        return name
    stem = name if name.endswith(".json") else name + ".json"
    ref = resources.files("fluxmet.models").joinpath(stem)
    if ref.is_file():
        return str(ref)
    raise ConfigError(f"model file {name!r} not found (not a path or bundled model)")


def load_model_file(path: str) -> tuple[LindbladModel, QecCode]:
    """Parse a model document into a constant-operator model and its code."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("model file must be a JSON object")
    unknown = sorted(set(raw).difference(_MODEL_KEYS))
    if unknown:
        raise ConfigError(f"unknown model keys {unknown}", field=unknown[0])
    missing = sorted(set(_MODEL_KEYS).difference(raw))
    if missing:
        raise ConfigError(f"model file missing keys {missing}", field=missing[0])
    dim = raw["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise ConfigError("dim must be an integer >= 2", field="dim")
    ops, square = {}, (dim, dim)
    for key in _MODEL_KEYS[1:-2]:  # the operators: a matrix or a list of matrices each
        if key.endswith("hamiltonian"):
            ops[key] = _complex_from_json(raw[key], square, key)
            continue
        if not isinstance(raw[key], list):
            raise ConfigError(f"{key}: expected a list of matrices", field=key)
        ops[key] = [_complex_from_json(e, square, f"{key}[{i}]") for i, e in enumerate(raw[key])]
    model = LindbladModel(dim=dim, **ops)
    c0 = _complex_from_json(raw["code_c0"], (dim,), "code_c0")
    c1 = _complex_from_json(raw["code_c1"], (dim,), "code_c1")
    for name, v in (("code_c0", c0), ("code_c1", c1)):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ConfigError(f"{name} is not normalized", field=name)
    if abs(np.vdot(c0, c1)) > 1e-8:
        raise ConfigError("code words are not orthogonal", field="code_c1")
    return model, QecCode(c0=c0, c1=c1)


def _parse_probe(spec: str, code: QecCode) -> np.ndarray:
    if spec == "plus":
        return code_probe(code)
    try:
        a_str, b_str = spec.split(",")
        a, b = complex(a_str), complex(b_str)
    except ValueError as exc:
        raise ConfigError(
            f"probe spec {spec!r} is neither 'plus' nor 'a,b' amplitudes", field="probe"
        ) from exc
    if not np.all(np.isfinite([a, b])):
        raise ConfigError(f"probe amplitudes must be finite, got {spec!r}", field="probe")
    c0, c1 = code.basis()
    v = a * c0 + b * c1
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise ConfigError("probe amplitudes are all zero", field="probe")
    return v / norm


def cmd_general_qec(
    model_path: str, probe_spec: str, t: float, out_path: str | None
) -> dict:
    """Run conditions check, expansion and asymptotic information on a model.

    Emits a JSON report with alpha, beta, d, the spectrum of the effective
    generator, the second-order expectation and the information value.
    """
    model, code = load_model_file(resolve_model_path(model_path))
    report = expansion_superoperators(model, code)
    psi = _parse_probe(probe_spec, code)
    result = asymptotic_qfi(report, psi, t)
    h_spec = np.linalg.eigvalsh(report.l1_generator)
    doc = {
        "model": os.path.basename(model_path),
        "t": t,
        "probe": probe_spec,
        "alpha": [[z.real, z.imag] for z in report.conditions.alpha],
        "beta": [[[z.real, z.imag] for z in row] for row in report.conditions.beta],
        "d": [float(x) for x in report.conditions.d],
        "h_eff_spectrum": [float(x) for x in h_spec],
        "l2_expectation": float(_l2_expectation(report, psi)),
        "qfi_asymptotic": result.value,
        "orthogonalized": report.orthogonalized,
        "version": __version__,
    }
    if out_path is not None:
        _atomic_write(out_path, json.dumps(doc, indent=2) + "\n")
    return doc


# ---------------------------------------------------------------------------
# Plot
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 480
_ML, _MR, _MT, _MB = 60, 20, 20, 45


def _scale(vals: np.ndarray, lo_px: float, hi_px: float) -> np.ndarray:
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    span = vmax - vmin if vmax - vmin >= 1e-300 else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        px = lo_px + (vals - vmin) * (hi_px - lo_px) / span
    if not np.all(np.isfinite(px)):
        raise ConfigError(f"values from {vmin:g} to {vmax:g} overflow the plot's scale")
    return px


def _svg_text(name: str) -> str:
    """``name`` as SVG text content: what ``xml.sax.saxutils.escape`` returns,
    without the urllib import (about 37 ms) that module pulls in."""
    return name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def cmd_plot(csv_path: str, out_svg: str) -> None:
    """Render a curve table as a single SVG line chart.

    One polyline per numeric column against the first column; legend built
    from the header names, XML-escaped.  Output bytes depend only on the
    input CSV.
    """
    table = read_csv(csv_path)
    x = table.rows[:, 0]
    xs = _scale(x, _ML, _W - _MR)
    ys_all = table.rows[:, 1:]
    ys_px = _H - _MB - (_scale(ys_all.ravel(), 0.0, _H - _MT - _MB).reshape(ys_all.shape))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 10}" font-size="13" '
        f'text-anchor="middle">{_svg_text(table.columns[0])}</text>',
    ]
    for j in range(ys_all.shape[1]):
        color = _PALETTE[j % len(_PALETTE)]
        pts = " ".join(f"{xs[i]:.2f},{ys_px[i, j]:.2f}" for i in range(len(x)))
        parts.append(f'<polyline fill="none" stroke="{color}" points="{pts}"/>')
        parts.append(
            f'<text x="{_W - _MR - 150}" y="{_MT + 16 * (j + 1)}" font-size="12" '
            f'fill="{color}">{_svg_text(table.columns[j + 1])}</text>'
        )
    parts.append("</svg>")
    _atomic_write(out_svg, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _default_seed() -> int | None:
    """Seed from the environment, or None so the config (or 0) decides."""
    env = os.environ.get("FLUXMET_SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigError(f"FLUXMET_SEED must be an integer, got {env!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxmet",
        description="Fluctuation-enhanced metrology: sweeps, campaigns and plots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for task in TASKS.values():
        p = sub.add_parser(f"qfi-{task.name}", help=f"information-vs-time table, {task.label} task")
        p.add_argument("--B", type=float, default=0.1)
        p.add_argument("--gamma", type=float, default=0.05)
        p.add_argument("--t-max", type=float, default=10.0)
        p.add_argument("--points", type=int, default=101)
        p.add_argument(f"--{task.symbol}", type=float, action="append")
        p.add_argument("--out", required=True)

    p = sub.add_parser("adapt", help="adaptive estimation campaign from a config file")
    p.add_argument("task", choices=tuple(TASKS))
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("general-qec", help="expansion engine on a model file")
    p.add_argument("model")
    p.add_argument("--t", type=float, default=5.0)
    p.add_argument("--probe", default="plus")
    p.add_argument("--out", default=None)

    p = sub.add_parser("plot", help="render a CSV table to SVG")
    p.add_argument("csv")
    p.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command.startswith("qfi-"):
            task = args.command.removeprefix("qfi-")
            detunings = getattr(args, TASKS[task].symbol) or [0.0, 0.05, 0.1]
            cmd_qfi(task, args.B, args.gamma, args.t_max, args.points, detunings, args.out)
        elif args.command == "adapt":
            seed = args.seed if args.seed is not None else _default_seed()
            cmd_adapt(
                args.task, args.config, args.out,
                seed=seed, reps=args.reps, strategy=args.strategy,
            )
        elif args.command == "general-qec":
            doc = cmd_general_qec(args.model, args.probe, args.t, args.out)
            print(f"asymptotic QFI at t={args.t:g}: {doc['qfi_asymptotic']:.12g}")
        elif args.command == "plot":
            cmd_plot(args.csv, args.out)
    except (FluxmetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for name, residual in getattr(exc, "residuals", ()):  # a QecConditionError's
            print(f"  {name}: residual {residual:.3e}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)), 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
