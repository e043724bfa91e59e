"""Alternating parent/change benchmark pairs, summarised against BENCHMARK.json.

    python3 scripts/bench_pairs.py --parent <commit> --workload numeric_route \\
        --first-seed 18201 --out BENCH_18.json

The parent tree is a ``git archive`` of ``--parent`` in a temporary
directory; the change tree is this working tree.  There are ``PAIRS`` = 10
pairs, the count every record of this repository uses.  Pair k runs
``perfbench/run.py --workload W --seed S --seconds T`` once in each tree
with seed S = first seed + k, the parent first at odd seeds and the change
first at even ones.  Every run has ``PYTHONDONTWRITEBYTECODE=1`` and starts
with every ``__pycache__`` removed from its tree, so neither side imports
bytecode the other lacks.  T is ``run_seconds`` of BENCHMARK.json.

The workload's entry goes into the ``workloads`` section of ``--out``, in
the layout of the earlier ``BENCH_<n>.json`` records: each side's median
and inclusive quartiles, ``change_wins`` (pairs in which the change is
better; ties count for neither) and ``relative_worsening``, (change -
parent) / parent of the medians signed so that positive is worse, against
the metric's bound in BENCHMARK.json.  Other keys of ``--out`` are kept.
BENCHMARK.json is read, never written.
"""

from __future__ import annotations

import argparse
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

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


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


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="commit to compare the working tree against")
    p.add_argument("--workload", required=True)
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True, help="JSON record to write the workload into")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + PAIRS))
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"parent": export_parent(args.parent, Path(tmp)), "change": ROOT}
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], args.workload, seed, seconds)
                runs[side].append(result)
                goodput = result["metrics"]["goodput_ops_s"]["value"]
                print(f"{args.workload} seed {seed} {side}: goodput {goodput:.4g} ops/s", flush=True)
    entry = summarize(seeds, runs["parent"], runs["change"], bench["end_to_end"])
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("workloads", {})[args.workload] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, m in entry["metrics"].items():
        print(f"{name}: {m['parent']['median']} -> {m['change']['median']} "
              f"(worse by {m['relative_worsening']:+.4f}, bound {m['bound']}), "
              f"change wins {m['change_wins']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
