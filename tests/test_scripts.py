"""The checked-in study scripts, driven in-process on small synthetic inputs."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_criterion7_seeds():
    spec = importlib.util.spec_from_file_location("criterion7_seeds", SCRIPTS / "criterion7_seeds.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _study(path: Path, wall_s: float, rows: list[tuple[int, float, float, bool]]) -> str:
    # rows: (base, theta MSE/CRB, omega MSE/CRB, pass), in the --json layout.
    doc = {
        "summary": {"wall_s": wall_s},
        "rows": [
            {
                "base": base,
                "theta": {"mse_over_crb": theta, "pass": passed},
                "omega": {"mse_over_crb": omega, "pass": True},
                "pass": passed,
            }
            for base, theta, omega, passed in rows
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_criterion7_seeds_compares_two_stored_studies(tmp_path, monkeypatch, capsys) -> None:
    script = _load_criterion7_seeds()

    def no_campaign(task, base):
        raise AssertionError(f"a campaign ran: {task} at base {base}")

    monkeypatch.setattr(script, "check_task", no_campaign)
    before = _study(tmp_path / "before.json", 600.0, [(0, 1.5, 1.0, True), (1, 2.5, 1.2, False)])
    after = _study(tmp_path / "after.json", 620.0, [(0, 1.6, 0.9, True), (1, 1.9, 1.2, True)])
    monkeypatch.setattr(sys, "argv", ["criterion7_seeds.py", "--compare", before, after])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "base   0: MSE/CRB delta theta +1.000e-01 omega -1.000e-01 PASS -> PASS",
        "base   1: MSE/CRB delta theta -6.000e-01 omega +0.000e+00 FAIL -> PASS",
        "pass rate over 2 bases: 0.50 -> 1.00 (+0.50)",
        "theta: mean MSE/CRB 2.0000 -> 1.7500 (-12.500%)",
        "omega: mean MSE/CRB 1.1000 -> 1.0500 (-4.545%)",
        "wall time: 600 s -> 620 s",
    ]


def test_criterion7_seeds_refuses_three_studies(tmp_path, monkeypatch, capsys) -> None:
    script = _load_criterion7_seeds()
    paths = [_study(tmp_path / f"s{k}.json", 1.0, [(0, 1.0, 1.0, True)]) for k in range(3)]
    monkeypatch.setattr(sys, "argv", ["criterion7_seeds.py", "--compare", *paths])
    with pytest.raises(SystemExit) as exit_info:
        script.main()
    assert exit_info.value.code == 2
    assert "--compare takes BEFORE.json or BEFORE.json AFTER.json" in capsys.readouterr().err


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(goodput: float, p50: float, failed: int = 0) -> dict:
    # One perfbench result line: every end-to-end metric of BENCHMARK.json,
    # with the given goodput and median op time and 1.0 for the others.
    specs = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]
    values = {spec["name"]: 1.0 for spec in specs} | {"goodput_ops_s": goodput, "op_p50_s": p50}
    metrics = {name: {"value": value, "unit": ""} for name, value in values.items()}
    return {"correct": failed == 0, "attempted": 40, "failed": failed, "metrics": metrics}


_END_TO_END = [
    {"name": "goodput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.2},
    {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.2},
]


def test_bench_pairs_summarizes_paired_runs() -> None:
    script = _load_bench_pairs()
    parent = [_run(g, p) for g, p in ((10.0, 0.05), (12.0, 0.04), (11.0, 0.06), (9.0, 0.05), (13.0, 0.05))]
    change = [_run(g, p) for g, p in ((15.0, 0.06), (11.0, 0.04), (16.0, 0.07), (14.0, 0.07), (13.0, 0.08))]
    entry = script.summarize([1, 2, 3, 4, 5], parent, change, _END_TO_END)
    assert entry["pairs"] == 5
    assert entry["correct_every_run"] == {"parent": True, "change": True}
    assert entry["attempted_failed"] == {"parent": [200, 0], "change": [200, 0]}
    goodput = entry["metrics"]["goodput_ops_s"]
    assert goodput["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert goodput["change"] == {"median": 14.0, "q1": 13.0, "q3": 15.0}
    assert goodput["change_wins"] == "3/5"  # the tie at 13.0 counts for neither
    assert goodput["relative_worsening"] == round(-3.0 / 11.0, 4)
    assert goodput["within_bound"] is True
    p50 = entry["metrics"]["op_p50_s"]
    assert p50["change_wins"] == "0/5"
    assert p50["relative_worsening"] == 0.4  # (0.07 - 0.05) / 0.05, lower is better
    assert p50["within_bound"] is False
    assert p50["runs"]["change"] == [0.06, 0.04, 0.07, 0.07, 0.08]


def test_bench_pairs_alternates_sides_and_keeps_the_record(tmp_path, monkeypatch, capsys) -> None:
    script = _load_bench_pairs()
    calls = []

    def fake_run(tree, workload, seed, seconds):
        side = "change" if tree == script.ROOT else "parent"
        calls.append((workload, side, seed, seconds))
        return _run(20.0 if side == "change" else 10.0, 0.05, failed=int(side == "parent"))

    monkeypatch.setattr(script, "export_parent", lambda rev, dest: dest)
    monkeypatch.setattr(script, "run_once", fake_run)
    monkeypatch.setattr(script, "PAIRS", 2)
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"claim": "old", "parent": "HEAD~1", "workloads": {"cli": {"pairs": 3}}}))
    argv = ["--parent", "HEAD", "--workload", "campaign", "--workload", "numeric_route",
            "--first-seed", "7", "--out", str(out), "--claim", "campaign goodput_ops_s rises"]
    assert script.main(argv) == 0
    seconds = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["run_seconds"]
    pairs = [("parent", 7, seconds), ("change", 7, seconds), ("change", 8, seconds), ("parent", 8, seconds)]
    assert calls == [(w, *call) for w in ("campaign", "numeric_route") for call in pairs]
    doc = json.loads(out.read_text())
    # The record names its parent by full hash and its claim by --claim; other keys are kept.
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=SCRIPTS, capture_output=True, text=True, check=True)
    assert doc["parent"] == head.stdout.strip()
    assert doc["claim"] == "campaign goodput_ops_s rises" and doc["workloads"]["cli"] == {"pairs": 3}
    for workload in ("campaign", "numeric_route"):
        entry = doc["workloads"][workload]
        assert entry["seeds"] == [7, 8]
        assert entry["correct_every_run"] == {"parent": False, "change": True}
        assert entry["attempted_failed"] == {"parent": [80, 2], "change": [80, 0]}
        assert entry["metrics"]["goodput_ops_s"]["change_wins"] == "2/2"
    printed = capsys.readouterr().out
    assert "campaign goodput_ops_s: 10.0 -> 20.0" in printed
    assert "numeric_route goodput_ops_s: 10.0 -> 20.0" in printed


def test_bench_pairs_micro_times_both_trees_side_by_side(tmp_path, monkeypatch, capsys) -> None:
    # A tiny case; both trees' packages run in one worker subprocess, the
    # parent's as fluxmet_parent (the worker refuses a change package
    # imported from the parent's src).
    script = _load_bench_pairs()

    def copy_tree(rev, dest):
        shutil.copytree(script.ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        return dest

    tiny = "qec.corrected_evolve_omega(0.1, 0.05, 0.26, 0.25, 0.01, dt=5e-3, n_recoveries=2)"
    monkeypatch.setattr(script, "export_parent", copy_tree)
    monkeypatch.setattr(script, "PAIRS", 2)
    monkeypatch.setattr(script, "MICRO", {"tiny": (tiny, 2)})
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"claim": "kept"}))
    with pytest.raises(SystemExit):
        script.main(["--parent", "HEAD", "--first-seed", "1", "--out", str(out)])  # nothing to run
    assert script.main(["--parent", "HEAD", "--micro", "--first-seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["claim"] == "kept" and "workloads" not in doc
    # The one timer's section: 2 * PAIRS + 1 rounds, each side's fastest call
    # per round and the median of the rounds' change/parent ratios.
    assert set(doc) == {"claim", "parent", "micro_side_by_side_us"}
    side = doc["micro_side_by_side_us"]
    assert side["rounds"] == 5 and side["cases"]["tiny"]["expression"] == tiny
    assert side["cases"]["tiny"]["per"] == 2
    runs = side["cases"]["tiny"]["runs"]
    assert all(len(vs) == 5 and min(vs) > 0 for vs in runs.values())
    ratios = sorted(c / p for p, c in zip(runs["parent"], runs["change"]))
    assert side["cases"]["tiny"]["median_ratio"] == pytest.approx(ratios[2], rel=1e-3)
    printed = capsys.readouterr().out
    assert "micro side by side tiny: " in printed


def _load_output_digest():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPTS / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_runs_one_route_in_both_trees(tmp_path, monkeypatch, capsys) -> None:
    # The parent tree is a copy of this one, so the route reads identical;
    # each side still runs in its own subprocess on its own src.
    script = _load_output_digest()

    def copy_tree(rev, dest):
        shutil.copytree(script.ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        return dest

    name = "corrected_state_omega_closed"
    monkeypatch.setattr(script, "export_parent", copy_tree)
    monkeypatch.setattr(script, "ROUTES", {name: script.ROUTES[name]})
    out = tmp_path / "digest.json"
    assert script.main(["--parent", "HEAD", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"{name}: identical\n"
    doc = json.loads(out.read_text())
    assert doc["parent"] == "HEAD" and list(doc["routes"]) == [name]
    route = doc["routes"][name]
    assert route["verdict"] == "identical" and route["parent"] == route["change"]


def test_output_digest_compares_numbers_and_bytes() -> None:
    script = _load_output_digest()
    arrays = [[0.0, 1.0 + 0.5j], [3.1e-17, 1.0 + 0.5j]]
    texts = [b"# seed 7\nt,qfi\n0.5,2e-3\n", b"# seed 7\nt,qfi\n0.5,2.5e-3\n"]
    digest = [script._digest(np.array(a)) for a in arrays] + [script._digest(t) for t in texts]
    assert digest[0]["values"] == [0.0, 0.0, 1.0, 0.5]  # real and imaginary parts
    assert digest[2]["values"] == [7.0, 0.5, 2e-3]
    parent = {"same": digest[0], "array": digest[0], "text": digest[2], "short": digest[2]}
    change = {"same": digest[0], "array": digest[1], "text": digest[3], "short": script._digest(b"0.5")}
    assert script.compare(parent, change) == {
        "same": "identical",
        "array": "largest absolute difference 3.1e-17",
        "text": "largest absolute difference 0.0005",
        "short": "differs: 3 numbers -> 1",
    }


def test_output_digest_digests_a_refused_command_line() -> None:
    # A refusal is a route too: its exit code and stderr, where main prints it.
    script = _load_output_digest()
    argv = ["adapt", "theta", "--config", "c.json", "--out", "a.csv"]
    text = script.cli_bytes(argv, {"true_value": 0.3, "initial_guess": 0.2, "repetitions": 3, "t": 0})
    assert text.startswith(b"exit 2\nerror: t must be > 0: at t = 0, B = 0.1, gamma = 0.05 ")
    assert text.endswith(b"not a finite positive number\n")
    assert script._digest(text)["values"][:3] == [2.0, 0.0, 0.0]
