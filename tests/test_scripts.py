"""The checked-in study scripts, driven in-process on small synthetic inputs."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

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
