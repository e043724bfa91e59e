"""Acceptance criterion 7 across seeds: its pass rate and final MSE/CRB spread.

    PYTHONPATH=src python3 scripts/criterion7_seeds.py --bases 100 --json study.json

For each base b (0 to 99 here; ``--first`` moves the start) it runs
criterion 7's campaigns exactly as
``tests/test_acceptance.py::test_criterion_7_estimation_campaigns`` does
(both tasks, both strategies, 500 repetitions from each end of the prior),
with the seed of initial guess k set to b * 7919 + k * 2**20 in place of the
test's fixed seed, and applies the test's gate.  It prints one line per base,
then the pass rate and the quantiles of the corrected strategy's final
MSE/CRB per task.  ``--json`` also writes the summary, the study's wall time
and every base's values.  ``--compare BEFORE.json`` reads such a file from an
earlier study (another build, say) and prints, for the bases both ran, each
base's MSE/CRB deltas, the change in pass rate and in mean MSE/CRB per task,
and both studies' wall times.  ``--compare BEFORE.json AFTER.json`` prints
the same for two stored studies (a parent and a change run side by side,
say) and runs no campaign.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from fluxmet.estimation import AdaptiveConfig, campaign_estimates

B, GAMMA, T = 0.1, 0.05, 5.0
REPETITIONS = 500
FLOOR = 1.0 - 3.0 / np.sqrt(1000.0)
# task: (true value, initial guesses, grid, CRB of qec_corrected, CRB of unitary_controlled)
SHAPES = {
    "theta": (np.pi / 4, (0.0, np.pi / 2), None, 1.0 / (100.0 * 2.0), 1.0 / 100.0),
    "omega": (
        0.3,
        (0.2, 0.4),
        (0.2, 0.4, 1e-4),
        1.0 / (100.0 * (B**2 * T**4 + (4.0 / 3.0) * GAMMA * T**3)),
        1.0 / (100.0 * 6.25),
    ),
}
QUANTILES = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)


def final_sq_errors(task: str, strategy: str, base: int) -> np.ndarray:
    true_value, guesses, grid = SHAPES[task][:3]
    chunks = []
    for k, guess in enumerate(guesses):
        cfg = AdaptiveConfig(
            true_value=true_value,
            initial_guess=guess,
            seed=base * 7919 + k * 2**20,
            strategy=strategy,
            grid=grid,
        )
        table = campaign_estimates(cfg, REPETITIONS, task=task)
        chunks.append((table[:, -1] - true_value) ** 2)
    return np.concatenate(chunks)


def welch_z(worse: np.ndarray, better: np.ndarray) -> float:
    var = worse.var(ddof=1) / worse.size + better.var(ddof=1) / better.size
    return float((worse.mean() - better.mean()) / np.sqrt(var))


def check_task(task: str, base: int) -> dict:
    """Criterion 7's gate on one task at one base: its values and verdict."""
    crb_qec, crb_uni = SHAPES[task][3:]
    qec = final_sq_errors(task, "qec_corrected", base)
    uni = final_sq_errors(task, "unitary_controlled", base)
    ratio = float(qec.mean()) / crb_qec
    z = welch_z(uni, qec)
    passed = (
        0.5 <= ratio <= 2.0
        and ratio >= FLOOR
        and float(uni.mean()) >= FLOOR * crb_uni
        and z > 1.645
    )
    return {"mse_over_crb": ratio, "unitary_mse_over_crb": float(uni.mean()) / crb_uni,
            "z": z, "pass": passed}


def summarize(rows: list[dict]) -> dict:
    out = {"bases": len(rows), "pass_rate": float(np.mean([r["pass"] for r in rows]))}
    for task in SHAPES:
        ratios = np.array([r[task]["mse_over_crb"] for r in rows])
        out[task] = {
            "pass_rate": float(np.mean([r[task]["pass"] for r in rows])),
            "mean": float(ratios.mean()),
            "quantiles": {f"{q:g}": float(np.quantile(ratios, q)) for q in QUANTILES},
        }
    return out


def _verdict(row: dict) -> str:
    return "PASS" if row["pass"] else "FAIL"


def compare(before: dict, rows: list[dict], wall_s: float) -> None:
    """Print this study's changes against ``before``, a --json file, on the bases both ran."""
    earlier = {row["base"]: row for row in before["rows"]}
    pairs = [(earlier[row["base"]], row) for row in rows if row["base"] in earlier]
    if not pairs:
        print("compare: no base in common with the earlier study")
        return
    for old, new in pairs:
        deltas = " ".join(
            f"{task} {new[task]['mse_over_crb'] - old[task]['mse_over_crb']:+.3e}" for task in SHAPES
        )
        print(f"base {new['base']:3d}: MSE/CRB delta {deltas} {_verdict(old)} -> {_verdict(new)}")
    old_rate = np.mean([old["pass"] for old, _ in pairs])
    new_rate = np.mean([new["pass"] for _, new in pairs])
    print(f"pass rate over {len(pairs)} bases: {old_rate:.2f} -> {new_rate:.2f} ({new_rate - old_rate:+.2f})")
    for task in SHAPES:
        old_mean = np.mean([old[task]["mse_over_crb"] for old, _ in pairs])
        new_mean = np.mean([new[task]["mse_over_crb"] for _, new in pairs])
        change = (new_mean - old_mean) / old_mean
        print(f"{task}: mean MSE/CRB {old_mean:.4f} -> {new_mean:.4f} ({change:+.3%})")
    old_wall = before["summary"].get("wall_s")
    old_text = f"{old_wall:.0f} s" if old_wall is not None else "not recorded"
    print(f"wall time: {old_text} -> {wall_s:.0f} s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bases", type=int, default=100, help="how many bases to run")
    parser.add_argument("--first", type=int, default=0, help="the first base")
    parser.add_argument("--json", help="write the summary and per-base values here")
    parser.add_argument(
        "--compare", nargs="+", metavar="JSON",
        help="an earlier study's --json file, or two (BEFORE AFTER) to compare without a run",
    )
    args = parser.parse_args()
    if args.compare and len(args.compare) > 2:
        parser.error("--compare takes BEFORE.json or BEFORE.json AFTER.json")
    studies = []
    for path in args.compare or ():
        with open(path) as fh:
            studies.append(json.load(fh))
    if len(studies) == 2:
        before, after = studies
        compare(before, after["rows"], after["summary"]["wall_s"])
        return
    before = studies[0] if studies else None
    rows = []
    start = time.monotonic()
    for base in range(args.first, args.first + args.bases):
        row = {"base": base, **{task: check_task(task, base) for task in SHAPES}}
        row["pass"] = all(row[task]["pass"] for task in SHAPES)
        rows.append(row)
        print(
            f"base {base:3d}: theta {row['theta']['mse_over_crb']:.4f} "
            f"omega {row['omega']['mse_over_crb']:.4f} {_verdict(row)} "
            f"({time.monotonic() - start:.0f}s)",
            flush=True,
        )
    summary = summarize(rows)
    summary["wall_s"] = time.monotonic() - start
    for task in SHAPES:
        s = summary[task]
        q = " ".join(f"q{k}={v:.4f}" for k, v in s["quantiles"].items())
        print(f"{task}: pass {s['pass_rate']:.2f} mean {s['mean']:.4f} {q}")
    print(f"criterion 7 over {summary['bases']} bases: pass rate {summary['pass_rate']:.2f}")
    if before is not None:
        compare(before, rows, summary["wall_s"])
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"summary": summary, "rows": rows}, fh, indent=1)


if __name__ == "__main__":
    main()
