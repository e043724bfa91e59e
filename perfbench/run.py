"""fluxmet benchmark: one workload per run, end-to-end or traced metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 28 --trace 0

Workloads (see bench_workloads.py): ``campaign`` (in-process adaptive
campaigns), ``numeric_route`` (SLD-route QFI of evolved state families) and
``cli`` (README command lines, one process each).  Every op's output is
checked.  The run drives ``fluxmet`` from ``src/`` of the checkout this
file sits in, and fails with exit code 2 when that source is missing.

``--seconds`` sets the work of a run: the whole cycles of ops that fill it
at their nominal cost.  ``--trace 0`` reports the end-to-end metrics of one
timed phase, in seconds scaled to a reference machine speed (see
``calibrate``).  ``--trace 1`` runs an untraced and a traced phase of a
quarter of that work each and reports the per-layer metrics of the traced
one, plus the tracing overhead.  The last line of standard output is the
JSON result; the line before it holds the details (op counts, tail
percentile, failed ops, raw wall-clock figures, environment).
"""

from __future__ import annotations

import os

# Matrices here are 4x4 and 16x16: threads only add contention on a small
# shared machine, so when run as a program every BLAS/OpenMP pool is pinned
# to one thread, before numpy is first imported and in every child process.
# Importing this module (as its tests do) leaves the environment alone.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
if __name__ == "__main__":
    os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from bench_stats import MIN_OPS, CheckError, OpResult, summarize  # noqa: E402
from bench_trace import SpanTable, Tracer, layer_metrics, leftover_wrappers, traced  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("campaign", "numeric_route", "cli")
SETUP_SAMPLES = 9

# The fresh-interpreter import every CLI command pays; prints the import
# time and the (system-wide) monotonic clock when ready.
CLI_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import fluxmet.cli; "
    "print(time.perf_counter() - t, time.monotonic())"
)


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json lists in ``section``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def bench_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict[str, object]:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit, clean = "unknown", None
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            commit, clean = head.stdout.strip(), status.stdout.strip() == ""
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "tree_clean": clean,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


# Calibration kernel: fixed Python and small-numpy work that never touches
# fluxmet.  The sandbox's CPU speed swings up to twofold within seconds, so
# every timed op and set-up sample is scaled by CAL_REF_S over the kernel's
# mean time just before and after it.  CAL_REF_S is about the kernel's median
# on the 2-core Xeon sandbox, so scaled times stay close to seconds there.
CAL_REF_S = 0.010
_CAL_X = np.linspace(0.0, 1.0, 4096)
_CAL_M = np.eye(4, dtype=complex) * (0.5 + 0.5j)


def calibrate() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(15000):
        acc += math.sin(i * 1e-3)
    for _ in range(100):
        acc += float(np.sum(np.cos(_CAL_X) * np.exp(-_CAL_X)))
    m = _CAL_M
    for _ in range(750):
        m = m @ _CAL_M
    return time.perf_counter() - start


def run_phase(workload, seconds: float, first_cycle: int, tracer=None, min_ops: int = 1):
    """Run the cycles of ops that fill ``seconds`` at their nominal cost.

    The work is fixed by ``seconds``, not by the clock: every run, and both
    sides of a comparison, time the same ops, so the median and the tail
    fall on the same ranks.  Whole cycles are added until ``min_ops`` ran.
    Only the program calls are timed; output checks run between ops, with
    any tracer paused.  Returns (results, next cycle index).
    """
    cycles = max(1, math.ceil(seconds / workload.CYCLE_S))
    results: list[OpResult] = []
    cycle = first_cycle
    while cycle < first_cycle + cycles or len(results) < min_ops:
        for op in workload.cycle(cycle):
            before = calibrate()
            if tracer is not None:
                tracer.op_id, tracer.active = len(results), True
            start = time.perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # any error the program raises fails the op
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            scale = 2 * CAL_REF_S / (before + calibrate())
            wrong = False
            if error is None:
                try:
                    op.check(out)
                except CheckError as exc:
                    error, wrong = f"wrong output: {exc}", True
            results.append(OpResult(op.kind, op.label, elapsed, error, wrong, scale))
        cycle += 1
    return results, cycle


def setup_samples(workload: str, seed: int, env: dict[str, str]) -> list[tuple[float, float]]:
    """(set-up seconds at reference speed, raw import seconds) of fresh interpreters.

    Set-up runs from the spawn until the first timed op could start: for
    ``cli`` the ``import fluxmet.cli`` every command pays, otherwise import,
    input generation and one warm-up op.  Import seconds is only for ``cli``.
    """
    if workload == "cli":
        argv = [sys.executable, "-c", CLI_IMPORT_PROBE]
    else:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--probe-setup"]
    out = []
    for _ in range(SETUP_SAMPLES):
        before = calibrate()
        start = time.monotonic()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        fields = [float(x) for x in proc.stdout.split()]
        scale = 2 * CAL_REF_S / (before + calibrate())
        out.append(((fields[-1] - start) * scale, fields[0] if workload == "cli" else 0.0))
    return out


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of this process; for ``cli`` plus its largest child.

    Children run one at a time, so the two peaks bound the combined peak.
    """
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def failed_ops(results: list[OpResult]) -> dict[str, dict]:
    """Failed ops by label: how often, and the first error seen."""
    out: dict[str, dict] = {}
    for r in results:
        if not r.ok:
            entry = out.setdefault(r.label, {"count": 0, "error": r.error})
            entry["count"] += 1
    return out


def kind_latency(results: list[OpResult]) -> dict[str, dict]:
    """Op count and median wall time by op kind, failed ops included."""
    kinds: dict[str, list[float]] = {}
    for r in results:
        kinds.setdefault(r.kind, []).append(r.seconds)
    return {k: {"ops": len(v), "median_s": statistics.median(v)} for k, v in kinds.items()}


def final_checks(workload) -> dict:
    """Run-level checks over all ops; ``error`` is None when they pass."""
    try:
        return {"error": None, **workload.final_checks()}
    except CheckError as exc:
        return {"error": str(exc)}


def run_untraced(args, workload, env):
    """End-to-end metrics of one timed phase; returns (metrics, detail, results)."""
    samples = setup_samples(args.workload, args.seed, env)
    results, cycles = run_phase(workload, args.seconds, 0, min_ops=MIN_OPS)
    s = summarize(results)
    values = dict(s, setup_s=statistics.median(x for x, _ in samples), peak_rss_mb=peak_rss_mb(args.workload))
    metrics = {name: (values[name], unit) for name, unit in metric_units("end_to_end").items()}
    detail = dict(s, cycles=cycles, setup_samples_s=[x for x, _ in samples], kinds=kind_latency(results))
    return metrics, detail, results


def layer_values(table, tracer, workload, import_s: float, overhead: float) -> dict[str, float]:
    """Every per-layer metric: span-derived ones plus the workload's own.

    ``numeric_route`` adds the error of its SLD route against the closed
    form to the cross-check maximum; ``campaign`` and ``cli`` add the final
    MSE over CRB of their campaigns.  Workloads without one read zero.
    """
    from bench_workloads import AdaptRecord

    layers = layer_metrics(table, tracer)
    layers["metrology.crosscheck_rel_err_max"] = max(
        layers["metrology.crosscheck_rel_err_max"], getattr(workload, "crosscheck_rel_err_max", 0.0)
    )
    layers.update(getattr(workload, "adapt", AdaptRecord()).mse_over_crb())
    layers["cli.import_s"] = import_s
    layers["trace.overhead"] = overhead
    return layers


def run_traced(args, workload, env, span_path: Path):
    """Per-layer metrics of a traced phase, and its overhead against an
    untraced one; returns (metrics, detail, results)."""
    import_s = 0.0
    if args.workload == "cli":
        import_s = statistics.median(x for _, x in setup_samples("cli", args.seed, env))
    quarter = args.seconds / 4
    plain, next_cycle = run_phase(workload, quarter, 0)
    tracer = Tracer()
    with traced(tracer):
        traced_results, _ = run_phase(workload, quarter, next_cycle, tracer)
    leftover = leftover_wrappers()
    if leftover:
        raise RuntimeError(f"still wrapped after the traced phase: {leftover}")
    s_plain, s_traced = summarize(plain), summarize(traced_results)
    table = SpanTable.from_tracer(tracer)
    overhead = 1.0 - s_traced["goodput_ops_s"] / s_plain["goodput_ops_s"]
    layers = layer_values(table, tracer, workload, import_s, overhead)
    units = metric_units("per_layer")
    metrics = {name: (layers[name], unit) for name, unit in units.items()}

    # Per-kind split of the traced phase: the numbers to set beside a
    # single-task baseline (theta against omega, corrected against free).
    kinds: dict[str, list[int]] = {}
    for i, r in enumerate(traced_results):
        kinds.setdefault(r.kind, []).append(i)
    by_kind = {}
    for kind, ops in kinds.items():
        m = layer_metrics(table, tracer, np.asarray(ops))
        by_kind[kind] = {k: v for k, v in m.items() if v}
    tracer.save(str(span_path))
    detail = {
        "untraced": s_plain,
        "traced": s_traced,
        "spans": len(tracer.name),
        "span_file": str(span_path.relative_to(ROOT)),
        "kinds": kind_latency(traced_results),
        "by_kind": by_kind,
    }
    return metrics, detail, plain + traced_results




# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "fluxmet" / "__init__.py").is_file():
        print(f"error: no fluxmet source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench_workloads
    import fluxmet

    if Path(fluxmet.__file__).resolve().parent != SRC / "fluxmet":
        print(f"error: imported fluxmet from {fluxmet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = bench_env()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workload = bench_workloads.make(args.workload, workdir, args.seed, env, in_process=args.trace == 1)
        for op in workload.warmup():
            op.run()
        if args.probe_setup:
            print(time.monotonic())
            return 0
        if args.trace:
            run = run_traced(args, workload, env, scratch / f"spans-{args.workload}.npz")
        else:
            run = run_untraced(args, workload, env)
        metrics, detail, results = run
        final = final_checks(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = sorted({r.label for r in results if r.wrong})
    unexpected = sorted({r.label for r in results if not r.ok and not bench_workloads.known_failure(r)})
    correct = not wrong and not unexpected and final["error"] is None
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        failed_ops=failed_ops(results), wrong_ops=wrong, unexpected_failures=unexpected,
        final_checks=final, env=environment(),
    )
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>13}  {name:<48} {value:>14.6g} {unit}")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
