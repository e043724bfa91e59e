"""Alternating parent/change benchmark pairs, summarised against BENCHMARK.json.

    python3 scripts/bench_pairs.py --parent <commit> --workload numeric_route \\
        --workload campaign --workload cli --first-seed 20201 --out BENCH_20.json

The parent tree is a ``git archive`` of ``--parent`` in a temporary
directory; the change tree is this working tree.  Each ``--workload`` in
turn runs ``PAIRS`` = 10 pairs, the count every record of this repository
uses.  Pair k runs ``perfbench/run.py --workload W --seed S --seconds T``
once in each tree with seed S = first seed + k, the parent first at odd
seeds and the change first at even ones.  Every run has ``PYTHONDONTWRITEBYTECODE=1`` and starts
with every ``__pycache__`` removed from its tree, so neither side imports
bytecode the other lacks.  T is ``run_seconds`` of BENCHMARK.json.

Each workload's entry goes into the ``workloads`` section of ``--out``, in
the layout of the earlier ``BENCH_<n>.json`` records: each side's median
and inclusive quartiles, ``change_wins`` (pairs in which the change is
better; ties count for neither) and ``relative_worsening``, (change -
parent) / parent of the medians signed so that positive is worse, against
the metric's bound in BENCHMARK.json.  ``--out`` is written after each
workload, and its other keys are kept, but for two it writes itself:
``parent``, the full hash that ``--parent`` names (``git rev-parse``), and
``claim``, the ``--claim`` text, when one is given.
BENCHMARK.json is read, never written.

``--micro`` also times the layers ``numeric_route`` and ``campaign`` spend
their time in, the cases of ``MICRO``: one static and one rotating recovery
interval (a whole corrected evolution in that workload's shape, per
interval), one static interval of a run of 64, which ``dynamics._steps``
applies without ``dynamics._run``, one rotating interval of a run of 128,
which ``qec._corrected_evolve`` takes four intervals a product as it takes
every detuned run of 16 or more, one static
and one rotating interval of four steps and one rotating interval of two
(criterion 5's shapes), one rotating interval of 20 steps, more than a step
block, one rotating interval of a run of four of 1000 steps, which
``qec._corrected_evolve`` steps one call of each an interval rather than
build its long map, one rotating interval at zero detuning (the centre point
of the workload's frequency family), four intervals of runs that the
interval rule of ``qec._corrected_evolve`` routes by their length alone
(static runs of 1000 intervals of 20 steps and of 64 of 1000 steps, detuned
runs of 16 intervals of 1024 steps and of four of 16), one 4000-step free
evolution, and the two calls of each interval apart: one single-state
``lindblad_evolve`` step and one ``apply_recovery``, on the rotating model
and code and (``_static``) on the static ones, each per call of 1000 on a
model or code built in the expression and on a complex state, which no call
copies, as in an interval.
Two cases time a model's RK4 step map, which every public evolution builds
for its fresh model: one ``_maps_at`` per static and per rotating model,
each model built in the expression, per call of 100.
Two cases time one ``qfi_sld_numeric`` per family point, five corrected
evolutions at one estimate, on a corrected angle and a corrected frequency
family in the workload's shapes.
Three campaign cases time one ``campaign_estimates`` per repetition: the
frequency task at 100 repetitions on README's grid, criterion 7's angle
shape at 10 repetitions (``campaign``'s size) from a guess at the prior's edge,
and README's angle campaign at 1000 repetitions, the size users run, whose
outcome draws weigh more than at 10 (this case takes about a minute of
``--micro``).
One worker process imports both trees' packages, the change's from
``PYTHONPATH`` and the parent's as ``fluxmet_parent``, with BLAS threads
pinned to 1, and warms every case up with one call per side.  In each of
``2 * PAIRS + 1`` rounds every case is called ``MICRO_REPEATS`` times per
side, the calls alternating between the sides, the parent first in even
rounds, and each side keeps its fastest call, the one least disturbed by the
rest of the machine; a drift of the machine's speed cannot favour either
side.  The rounds go into ``micro_side_by_side_us`` with each side's median
and quartiles, ``change_wins`` (lower is better) and the median of the
rounds' change/parent ratios.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
PAIRS = 10
# case -> (expression, units per call): side_by_side_worker() times the expression
# with each tree's package modules in scope and reports microseconds per unit.
MICRO = {
    "interval_static": (
        "qec.corrected_evolve_theta(0.1, 0.05, np.pi / 4 + 0.01, np.pi / 4, 5.0, dt=5e-3, n_recoveries=1000)",
        1000,
    ),
    "interval_static_64": (
        "qec.corrected_evolve_theta(0.1, 0.05, np.pi / 4 + 0.01, np.pi / 4, 0.32, dt=5e-3, n_recoveries=64)", 64
    ),
    "interval_static_4_steps": (
        "qec.corrected_evolve_theta(0.1, 0.05, np.pi / 4 + 0.05, np.pi / 4, 5.0, dt=2.5e-3, n_recoveries=500)", 500
    ),
    "interval_rotating": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.26, 0.25, 5.0, dt=2.5e-3, n_recoveries=2000)", 2000
    ),
    "interval_rotating_128": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.26, 0.25, 0.32, dt=2.5e-3, n_recoveries=128)", 128
    ),
    "interval_rotating_2_steps": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.26, 0.25, 5.0, dt=2.5e-3, n_recoveries=1000)", 1000
    ),
    "interval_rotating_4_steps": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.3, 0.25, 5.0, dt=2.5e-3, n_recoveries=500)", 500
    ),
    "interval_rotating_20_steps": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.26, 0.25, 5.0, dt=2.5e-3, n_recoveries=100)", 100
    ),
    "interval_rotating_1000_steps": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.26, 0.25, 10.0, dt=2.5e-3, n_recoveries=4)", 4
    ),
    # Runs whose path the interval rule of qec._corrected_evolve decides by their length alone: static runs of
    # 1000 intervals of 20 steps and of 64 of 1000 steps, and detuned runs of 16 intervals of 1024 steps and of
    # four of 16 steps, the shortest that goes product by product and a run below it.
    "interval_static_20_steps": (
        "qec.corrected_evolve_theta(0.1, 0.05, np.pi / 4 + 0.01, np.pi / 4, 5.0, dt=2.5e-4, n_recoveries=1000)", 1000
    ),
    "interval_static_1000_steps": (
        "qec.corrected_evolve_theta(0.1, 0.05, np.pi / 4 + 0.01, np.pi / 4, 6.4, dt=1e-4, n_recoveries=64)", 64
    ),
    "interval_rotating_1024_steps": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.26, 0.25, 4.096, dt=2.5e-4, n_recoveries=16)", 16
    ),
    "interval_rotating_16_steps_4_intervals": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.26, 0.25, 0.16, dt=2.5e-3, n_recoveries=4)", 4
    ),
    "interval_rotating_centre": (
        "qec.corrected_evolve_omega(0.1, 0.05, 0.25, 0.25, 5.0, dt=2.5e-3, n_recoveries=2000)", 2000
    ),
    "free_4000_steps": (
        "dynamics.lindblad_evolve(dynamics.theta_model(0.1, 0.05, 0.8), np.full((4, 4), 0.25), 16.0, dt=4e-3)", 1
    ),
    "evolve_one_step": (
        "(lambda m, rho: [dynamics.lindblad_evolve(m, rho, 2.5e-3, dt=2.5e-3) for _ in range(1000)])"
        "(dynamics.omega_model(0.1, 0.05, 0.26), np.full((4, 4), 0.25 + 0j))", 1000
    ),
    "recovery_one_call": (
        "(lambda c, rho: [qec.apply_recovery(c, rho) for _ in range(1000)])"
        "(qec.omega_code(0.25), np.full((4, 4), 0.25 + 0j))", 1000
    ),
    "evolve_one_step_static": (
        "(lambda m, rho: [dynamics.lindblad_evolve(m, rho, 5e-3, dt=5e-3) for _ in range(1000)])"
        "(dynamics.theta_model(0.1, 0.05, np.pi / 4 + 0.01), np.full((4, 4), 0.25 + 0j))", 1000
    ),
    "recovery_one_call_static": (
        "(lambda c, rho: [qec.apply_recovery(c, rho) for _ in range(1000)])"
        "(qec.theta_code(np.pi / 4), np.full((4, 4), 0.25 + 0j))", 1000
    ),
    "step_map_static": (
        "[dynamics.theta_model(0.1, 0.05, np.pi / 4 + 0.01)._maps_at(5e-3) for _ in range(100)]", 100
    ),
    "step_map_rotating": (
        "[dynamics.omega_model(0.1, 0.05, 0.26)._maps_at(2.5e-3) for _ in range(100)]", 100
    ),
    "qfi_sld_corrected_theta": (
        "metrology.qfi_sld_numeric(lambda x: qec.corrected_evolve_theta(0.1, 0.05, x, np.pi / 4, 5.0, dt=5e-3,"
        " n_recoveries=1000), np.pi / 4, delta=1e-4)", 5
    ),
    "qfi_sld_corrected_omega": (
        "metrology.qfi_sld_numeric(lambda x: qec.corrected_evolve_omega(0.1, 0.05, x, 0.25, 5.0, dt=2.5e-3,"
        " n_recoveries=2000), 0.25, delta=5e-4)", 5
    ),
    "campaign_omega_100": (
        "estimation.campaign_estimates(estimation.AdaptiveConfig(true_value=0.3, initial_guess=0.2, "
        "grid=(0.2, 0.4, 1e-4), seed=20240811), 100, task='omega')", 100
    ),
    "campaign_theta_10": (
        "estimation.campaign_estimates(estimation.AdaptiveConfig(true_value=np.pi / 4, initial_guess=0.0, "
        "seed=20240811), 10)", 10
    ),
    "campaign_theta_1000": (
        "estimation.campaign_estimates(estimation.AdaptiveConfig(true_value=np.pi / 4, initial_guess=0.0, "
        "seed=20240811), 1000)", 1000
    ),
}
MICRO_REPEATS = 15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def export_parent(rev: str, dest: Path) -> Path:
    """Extract ``git archive rev`` of this repository into ``dest``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``, from a tree with no bytecode: its final JSON line."""
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(seeds: list[int], parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """The ``workloads`` entry of paired runs, one run per side and seed."""
    metrics = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        runs = {side: [r["metrics"][name]["value"] for r in rs]
                for side, rs in (("parent", parent), ("change", change))}
        sign = 1.0 if lower else -1.0  # positive is worse
        wins = sum(sign * (c - p) < 0 for p, c in zip(runs["parent"], runs["change"]))
        p_med, c_med = statistics.median(runs["parent"]), statistics.median(runs["change"])
        worsening = sign * (c_med - p_med) / p_med if p_med else 0.0
        metrics[name] = {
            "parent": _quartiles(runs["parent"]),
            "change": _quartiles(runs["change"]),
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "relative_worsening": round(worsening, 4),
            "within_bound": worsening <= spec["bound"],
            "change_wins": f"{wins}/{len(seeds)}",
            "runs": {side: [round(v, 4) for v in vs] for side, vs in runs.items()},
        }
    return {
        "seeds": seeds,
        "pairs": len(seeds),
        "correct_every_run": {"parent": all(r["correct"] for r in parent),
                              "change": all(r["correct"] for r in change)},
        "attempted_failed": {
            side: [sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs)]
            for side, rs in (("parent", parent), ("change", change))
        },
        "metrics": metrics,
    }


def _micro_cases(us: dict[str, dict[str, list[float]]]) -> dict:
    """Per ``MICRO`` case, from each side's microseconds per unit in each round: quartiles and wins
    (lower is better), and the median of the rounds' change/parent ratios."""
    cases = {}
    for name, (expr, units) in MICRO.items():
        parent, change = us["parent"][name], us["change"][name]
        cases[name] = {
            "expression": expr,
            "per": units,
            "parent": _quartiles(parent),
            "change": _quartiles(change),
            "change_wins": f"{sum(c < p for p, c in zip(parent, change))}/{len(parent)}",
            "median_ratio": round(statistics.median(c / p for p, c in zip(parent, change)), 4),
            "runs": {side: [round(v, 4) for v in vs[name]] for side, vs in us.items()},
        }
    return cases


def side_by_side_worker(parent_src: str) -> None:
    """Time the cases of the stdin JSON with both trees' packages in this one process; print the times as JSON.

    ``fluxmet`` is the change's, from ``PYTHONPATH``; the parent's, in ``parent_src``, is imported as
    ``fluxmet_parent``.  The JSON holds ``cases`` (in ``MICRO``'s layout), ``rounds`` and ``repeats``.
    Every case is called once per side to warm up.  In each round every case is called ``repeats``
    times per side, the calls alternating between the sides, the parent first in even rounds, and each
    side keeps its fastest call: ``{side: {case: [microseconds per unit, one per round]}}``.
    """
    import time

    import numpy as np

    init = Path(parent_src) / "fluxmet" / "__init__.py"
    spec = importlib.util.spec_from_file_location("fluxmet_parent", init, submodule_search_locations=[str(init.parent)])
    sys.modules["fluxmet_parent"] = parent = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parent)
    import fluxmet_parent.dynamics
    import fluxmet_parent.estimation
    import fluxmet_parent.metrology
    import fluxmet_parent.qec
    from fluxmet import dynamics, estimation, metrology, qec

    if Path(dynamics.__file__).resolve().is_relative_to(Path(parent_src).resolve()):
        raise SystemExit(f"fluxmet imported from {dynamics.__file__}, the parent's tree")
    job = json.loads(sys.stdin.read())
    scopes = {"parent": {"np": np, "dynamics": fluxmet_parent.dynamics, "estimation": fluxmet_parent.estimation,
                         "metrology": fluxmet_parent.metrology, "qec": fluxmet_parent.qec},
              "change": {"np": np, "dynamics": dynamics, "estimation": estimation, "metrology": metrology, "qec": qec}}
    cases = {name: (compile(expr, name, "eval"), units) for name, (expr, units) in job["cases"].items()}
    for code, _ in cases.values():
        for scope in scopes.values():
            eval(code, scope)  # warm-up: first-use allocations
    us: dict[str, dict[str, list[float]]] = {side: {name: [] for name in cases} for side in scopes}
    for k in range(job["rounds"]):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for name, (code, units) in cases.items():
            best = dict.fromkeys(order, float("inf"))
            for _ in range(job["repeats"]):
                for side in order:
                    start = time.perf_counter()
                    eval(code, scopes[side])
                    best[side] = min(best[side], time.perf_counter() - start)
            for side in order:
                us[side][name].append(best[side] * 1e6 / units)
    print(json.dumps(us))


def side_by_side(trees: dict[str, Path]) -> dict:
    """The ``micro_side_by_side_us`` entry: ``2 * PAIRS + 1`` rounds of :func:`side_by_side_worker`.

    Both trees run in one process, with BLAS threads pinned to 1, so that a drift of the machine's speed
    between processes cannot favour either side.
    """
    rounds = 2 * PAIRS + 1
    env = dict(os.environ, PYTHONPATH=str(trees["change"] / "src"), PYTHONDONTWRITEBYTECODE="1")
    job = json.dumps({"cases": MICRO, "rounds": rounds, "repeats": MICRO_REPEATS})
    cmd = [sys.executable, str(SCRIPT), "--side-by-side-worker", str(trees["parent"] / "src")]
    done = subprocess.run(cmd, input=job, env=env | dict.fromkeys(THREAD_VARS, "1"), capture_output=True,
                          text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"side-by-side timings exited {done.returncode}:\n{done.stderr}")
    return {"how": "both packages in one process, the parent's imported as fluxmet_parent", "rounds": rounds,
            "repeats": MICRO_REPEATS, "cases": _micro_cases(json.loads(done.stdout))}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="commit to compare the working tree against")
    p.add_argument("--workload", action="append", default=[], help="repeat for more workloads")
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True, help="JSON record to write the workloads into")
    p.add_argument("--micro", action="store_true", help="also time the MICRO cases into micro_side_by_side_us")
    p.add_argument("--claim", default=None, help="the gain the record is for, written as its claim")
    args = p.parse_args(argv)
    if not args.workload and not args.micro:
        p.error("give at least one --workload, or --micro")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--side-by-side-worker"]:
        side_by_side_worker(argv[1])
        return 0
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    parent = subprocess.run(["git", "rev-parse", "--verify", f"{args.parent}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["parent"] = parent
    if args.claim is not None:
        doc["claim"] = args.claim
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"parent": export_parent(args.parent, Path(tmp)), "change": ROOT}
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], workload, seed, seconds)
                    runs[side].append(result)
                    goodput = result["metrics"]["goodput_ops_s"]["value"]
                    print(f"{workload} seed {seed} {side}: goodput {goodput:.4g} ops/s", flush=True)
            entry = summarize(seeds, runs["parent"], runs["change"], bench["end_to_end"])
            doc = json.loads(args.out.read_text()) if args.out.exists() else {}
            doc.setdefault("workloads", {})[workload] = entry
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            for name, m in entry["metrics"].items():
                print(f"{workload} {name}: {m['parent']['median']} -> {m['change']['median']} "
                      f"(worse by {m['relative_worsening']:+.4f}, bound {m['bound']}), "
                      f"change wins {m['change_wins']}")
        if args.micro:
            entry = side_by_side(trees)
            doc = json.loads(args.out.read_text()) if args.out.exists() else {}
            doc["micro_side_by_side_us"] = entry
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            for name, case in entry["cases"].items():
                print(f"micro side by side {name}: {case['parent']['median']} -> {case['change']['median']} us, "
                      f"change wins {case['change_wins']}, median ratio {case['median_ratio']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
