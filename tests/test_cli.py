"""Command-line layer: tables, configs, exit codes and determinism."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import fluxmet
from fluxmet import cli
from fluxmet.cli import (
    CurveTable,
    cmd_adapt,
    cmd_general_qec,
    cmd_plot,
    cmd_qfi,
    read_csv,
    resolve_model_path,
    write_csv,
    _config_hash,
)
from fluxmet.errors import ConfigError, DomainError
from fluxmet.tasks import TASKS


def _table() -> CurveTable:
    rows = np.array([[0.0, 1.0, 0.1], [1.0, 0.5, 0.2], [2.0, 1.0 / 3.0, 0.3]])
    return CurveTable(columns=["t", "a", "b"], rows=rows, metadata={"command": "test", "seed": "7"})


def test_curve_table_rejects_shape_mismatch() -> None:
    with pytest.raises(ConfigError):
        CurveTable(columns=["t", "a"], rows=np.zeros((2, 3)), metadata={})


def test_csv_round_trip(tmp_path) -> None:
    table = _table()
    path = str(tmp_path / "t.csv")
    write_csv(table, path)
    back = read_csv(path)
    assert back.columns == table.columns
    assert back.metadata == table.metadata
    assert np.array_equal(back.rows, table.rows)


def test_read_csv_rejects_malformed(tmp_path) -> None:
    bad_row = tmp_path / "a.csv"
    bad_row.write_text("t,a\n0.0,oops\n")
    with pytest.raises(ConfigError):
        read_csv(str(bad_row))
    ragged = tmp_path / "b.csv"
    ragged.write_text("t,a\n0.0,1.0\n1.0\n")
    with pytest.raises(ConfigError):
        read_csv(str(ragged))
    empty = tmp_path / "c.csv"
    empty.write_text("# command: x\nt,a\n")
    with pytest.raises(ConfigError):
        read_csv(str(empty))
    gap = tmp_path / "d.csv"
    gap.write_text("x,y\n0,1\n1,nan\n2,3\n")
    with pytest.raises(ConfigError, match="non-finite"):
        read_csv(str(gap))


def test_config_hash_is_order_insensitive() -> None:
    a = _config_hash({"x": 1, "y": [2.0, 3.0]})
    b = _config_hash({"y": [2.0, 3.0], "x": 1})
    assert a == b
    assert a != _config_hash({"x": 1, "y": [2.0, 3.5]})


def test_cmd_qfi_theta_columns_and_anchor(tmp_path) -> None:
    out = str(tmp_path / "theta.csv")
    table = cmd_qfi("theta", 0.1, 0.05, 5.0, 2, [0.0, 0.05, 0.1], out)
    assert table.columns == [
        "t",
        "qfi_unitary",
        "qfi_qec_dtheta_0",
        "qfi_qec_dtheta_0.05",
        "qfi_qec_dtheta_0.1",
        "qfi_free",
    ]
    row = table.rows[1]
    assert row[0] == 5.0
    assert abs(row[1] - 1.0) < 1e-12
    assert abs(row[2] - 2.0) < 1e-12
    assert abs(row[5] - 1.3445801719550803) < 1e-12
    assert read_csv(out).metadata["command"] == "qfi-theta"


def test_cmd_qfi_theta_gamma_zero_collapse() -> None:
    table = cmd_qfi("theta", 0.1, 0.0, 2.0, 3, [0.0, 0.3], None)
    unitary = table.rows[:, 1]
    for j, d in enumerate((0.0, 0.3)):
        np.testing.assert_allclose(table.rows[:, 2 + j], unitary * np.cos(d) ** 2, atol=1e-12)


def test_cmd_qfi_theta_empty_detuning_list() -> None:
    table = cmd_qfi("theta", 0.1, 0.05, 2.0, 3, [], None)
    assert table.columns == ["t", "qfi_unitary", "qfi_free"]


def test_cmd_qfi_theta_rejects_bad_horizon() -> None:
    with pytest.raises(DomainError):
        cmd_qfi("theta", 0.1, 0.05, -1.0, 5, [0.0], None)


def test_cmd_qfi_omega_anchor_and_zero_row() -> None:
    table = cmd_qfi("omega", 0.1, 0.05, 5.0, 2, [0.0, 0.1], None)
    assert table.columns == ["t", "qfi_unitary", "qfi_qec_domega_0", "qfi_qec_domega_0.1"]
    np.testing.assert_allclose(table.rows[0], [0.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert abs(table.rows[1, 1] - 6.25) < 1e-12
    assert abs(table.rows[1, 2] - 14.583333333333334) < 5e-6


def test_cmd_qfi_omega_detuning_penalty() -> None:
    table = cmd_qfi("omega", 0.1, 0.05, 8.0, 5, [0.0, 0.1], None)
    positive = table.rows[:, 0] > 0
    assert np.all(table.rows[positive, 3] < table.rows[positive, 2])


def test_readme_qfi_omega_line_passes_the_gate(tmp_path) -> None:
    # README: fluxmet qfi-omega --domega 0 --domega 0.05 --out omega.csv
    out = tmp_path / "omega.csv"
    assert cli.main(["qfi-omega", "--domega", "0", "--domega", "0.05", "--out", str(out)]) == 0
    assert read_csv(str(out)).rows.shape == (101, 4)


def test_crosscheck_gate_aborts(tmp_path, monkeypatch, capsys) -> None:
    fake = lambda B, gamma, t, d: types.SimpleNamespace(value=999.0)
    monkeypatch.setitem(TASKS, "theta", dataclasses.replace(TASKS["theta"], qec_closed=fake))
    out = str(tmp_path / "theta.csv")
    code = cli.main(["qfi-theta", "--t-max", "5", "--points", "2", "--out", out])
    assert code == 4
    assert "disagree" in capsys.readouterr().err
    assert not (tmp_path / "theta.csv").exists()


@pytest.mark.parametrize("task", ["theta", "omega"])
@pytest.mark.parametrize(
    "flags, field",
    [
        (["--points", "0"], "points"),
        (["--points", "1"], "points"),
        (["--gamma", "-1"], "gamma"),
        (["--gamma", "nan"], "gamma"),
        (["--B", "inf"], "B"),
        (["--t-max", "nan"], "t_max"),
        (["--t-max", "1e-10"], "t_max"),
        (["--points", "1000000000000"], "points"),
    ],
)
def test_cmd_qfi_rejects_bad_sweep_inputs(tmp_path, capsys, task, flags, field) -> None:
    out = tmp_path / "sweep.csv"
    assert cli.main([f"qfi-{task}", "--t-max", "5", *flags, "--out", str(out)]) == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not out.exists()


def _adapt_config(tmp_path, **overrides) -> str:
    cfg = {
        "true_value": 0.4,
        "initial_guess": 0.4,
        "m": 4,
        "rounds": 3,
        "repetitions": 2,
        "seed": 5,
        "strategies": ["qec_corrected"],
    }
    cfg.update(overrides)
    path = tmp_path / "adapt.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cmd_adapt_fixed_point_mse_zero(tmp_path) -> None:
    config = _adapt_config(tmp_path, repetitions=1)
    tables = cmd_adapt("theta", config, str(tmp_path / "camp.csv"))
    table = tables["qec_corrected"]
    assert table.columns == ["round", "estimate_mean", "mse", "crb_line"]
    assert np.all(table.rows[:, 2] < 1e-14)
    mk = 4 * 3
    j = 4 * 0.01 * 25 + 4 * 0.05 * 5.0
    np.testing.assert_allclose(table.rows[:, 3], 1.0 / (mk * j), rtol=1e-12)
    assert (tmp_path / "camp.qec_corrected.csv").exists()


def test_cmd_adapt_deterministic_bytes(tmp_path) -> None:
    config = _adapt_config(tmp_path, initial_guess=0.1)
    out = str(tmp_path / "camp.csv")
    cmd_adapt("theta", config, out)
    first = (tmp_path / "camp.qec_corrected.csv").read_bytes()
    cmd_adapt("theta", config, out)
    assert (tmp_path / "camp.qec_corrected.csv").read_bytes() == first


def test_cmd_adapt_schema_rejection(tmp_path, capsys) -> None:
    out = str(tmp_path / "camp.csv")
    config = _adapt_config(tmp_path, surprise=1.0)
    assert cli.main(["adapt", "theta", "--config", config, "--out", out]) == 2
    assert "surprise" in capsys.readouterr().err
    config = _adapt_config(tmp_path, m="four")
    assert cli.main(["adapt", "theta", "--config", config, "--out", out]) == 2
    assert "'m'" in capsys.readouterr().err
    config = _adapt_config(tmp_path, strategies=["teleported"])
    assert cli.main(["adapt", "theta", "--config", config, "--out", out]) == 2
    assert "teleported" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, field",
    [
        ({"grid": [0, 1]}, "grid"),
        ({"grid": [0, 1, "fine"]}, "grid"),
        ({"true_value": float("nan")}, "true_value"),
        ({"initial_guess": float("inf")}, "initial_guess"),
        # zero Fisher information: caught before the campaign runs
        ({"t": 0}, "t"),
        ({"B": 0, "strategies": ["unitary_controlled"]}, "B"),
        ({"B": 0, "strategies": ["qec_corrected", "unitary_controlled"]}, "B"),
        # more cells than can be allocated: caught before the grid is built
        ({"grid": [0, 1, 1e-10]}, "grid"),
        ({"grid": [0, 1, 1e-300]}, "grid"),
        # AdaptiveConfig checks types as well as values
        ({"grid": [0, 1, True]}, "grid"),
        ({"m": 2.5}, "'m'"),
        ({"m": True}, "'m'"),
        ({"rounds": 2.5}, "'rounds'"),
        ({"seed": 1.5}, "'seed'"),
        ({"repetitions": 2.5}, "'repetitions'"),
        ({"strategies": []}, "strategies"),
        ({"strategies": "qec_corrected"}, "strategies"),
        # 10**7 cells, 10 rounds and 1000 repetitions: over an hour of updates
        ({"grid": [0, 1, 1e-7], "rounds": 10, "repetitions": 1000}, "repetitions"),
    ],
)
def test_cmd_adapt_rejects_bad_values(tmp_path, capsys, override, field) -> None:
    config = _adapt_config(tmp_path, **override)
    out = tmp_path / "camp.csv"
    assert cli.main(["adapt", "theta", "--config", config, "--out", str(out)]) == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert list(tmp_path.glob("camp*")) == []


def test_adapt_with_oversized_m_exits_2_without_drawing(tmp_path) -> None:
    # 10**11 outcomes a round would draw for hours; run as a user would, with
    # a timeout, so that a campaign which starts drawing fails instead of hanging.
    config = _adapt_config(tmp_path, m=100_000_000_000)
    out = tmp_path / "camp.csv"
    argv = ["adapt", "theta", "--config", config, "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(fluxmet.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fluxmet", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("an adapt config with m = 10**11 was not refused within 60 s")
    assert proc.returncode == 2, proc.stderr
    assert "m * rounds * repetitions" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.glob("camp*")) == []


def test_cmd_adapt_missing_required_key(tmp_path, capsys) -> None:
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"true_value": 0.4, "initial_guess": 0.3}))
    code = cli.main(["adapt", "theta", "--config", str(path), "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert "repetitions" in capsys.readouterr().err


def test_cmd_adapt_seed_precedence(tmp_path, monkeypatch) -> None:
    config = _adapt_config(tmp_path, seed=5)
    out = str(tmp_path / "camp.csv")
    written = tmp_path / "camp.qec_corrected.csv"

    assert cli.main(["adapt", "theta", "--config", config, "--out", out]) == 0
    assert read_csv(str(written)).metadata["seed"] == "5"
    monkeypatch.setenv("FLUXMET_SEED", "9")
    assert cli.main(["adapt", "theta", "--config", config, "--out", out]) == 0
    assert read_csv(str(written)).metadata["seed"] == "9"
    assert cli.main(["adapt", "theta", "--config", config, "--out", out, "--seed", "3"]) == 0
    assert read_csv(str(written)).metadata["seed"] == "3"


def test_cmd_adapt_config_hash_covers_reps_override(tmp_path) -> None:
    # The hash names the campaign the rows come from: a --reps override that
    # changes the repetitions changes it, one equal to the file's value does not.
    config = _adapt_config(tmp_path, repetitions=2)
    out = str(tmp_path / "camp.csv")
    written = tmp_path / "camp.qec_corrected.csv"
    hashes = {}
    for flags in ((), ("--reps", "2"), ("--reps", "50")):
        assert cli.main(["adapt", "theta", "--config", config, "--out", out, *flags]) == 0
        hashes[flags] = read_csv(str(written)).metadata["config"]
    assert hashes[("--reps", "2")] == hashes[()]
    assert hashes[("--reps", "50")] != hashes[()]


@pytest.mark.parametrize(
    "config_seed, flags, env_seed",
    [(-3, [], None), (5, ["--seed", "-1"], None), (5, [], "-2")],
    ids=["config", "flag", "env"],
)
def test_cmd_adapt_rejects_negative_seed(
    tmp_path, monkeypatch, capsys, config_seed, flags, env_seed
) -> None:
    config = _adapt_config(tmp_path, seed=config_seed)
    if env_seed is not None:
        monkeypatch.setenv("FLUXMET_SEED", env_seed)
    out = tmp_path / "camp.csv"
    assert cli.main(["adapt", "theta", "--config", config, "--out", str(out), *flags]) == 2
    assert "seed must be" in capsys.readouterr().err
    assert list(tmp_path.glob("camp*")) == []


def test_fluxmet_seed_must_be_integer(tmp_path, monkeypatch, capsys) -> None:
    config = _adapt_config(tmp_path)
    monkeypatch.setenv("FLUXMET_SEED", "lots")
    code = cli.main(["adapt", "theta", "--config", config, "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert "FLUXMET_SEED" in capsys.readouterr().err


def test_cmd_adapt_strategy_override(tmp_path) -> None:
    config = _adapt_config(tmp_path, strategies=["qec_corrected", "unitary_controlled"])
    out = str(tmp_path / "camp.csv")
    tables = cmd_adapt("theta", config, out, strategy="unitary_controlled")
    assert list(tables) == ["unitary_controlled"]
    assert (tmp_path / "camp.unitary_controlled.csv").exists()
    assert not (tmp_path / "camp.qec_corrected.csv").exists()


def test_resolve_model_path(tmp_path) -> None:
    bundled = resolve_model_path("theta_example")
    assert bundled.endswith("theta_example.json")
    assert resolve_model_path("theta_example.json") == bundled
    local = tmp_path / "m.json"
    local.write_text("{}")
    assert resolve_model_path(str(local)) == str(local)
    with pytest.raises(ConfigError):
        resolve_model_path("no_such_model")


def test_cmd_general_qec_bundled_example(tmp_path) -> None:
    out = str(tmp_path / "report.json")
    doc = cmd_general_qec("theta_example", "plus", 5.0, out)
    assert abs(doc["qfi_asymptotic"] - 2.0) < 1e-10
    np.testing.assert_allclose(doc["alpha"], [[0.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(doc["d"], [0.05], atol=1e-12)
    np.testing.assert_allclose(
        sorted(doc["h_eff_spectrum"]), [-0.1, 0.0, 0.0, 0.1], atol=1e-10
    )
    assert abs(doc["l2_expectation"] + 0.05) < 1e-12
    assert doc["orthogonalized"] is False
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["qfi_asymptotic"] == doc["qfi_asymptotic"]


def test_cmd_general_qec_eigenstate_probe() -> None:
    doc = cmd_general_qec("theta_example", "1,0", 5.0, None)
    assert abs(doc["qfi_asymptotic"]) < 1e-10


def _model_file(tmp_path, **overrides) -> str:
    raw = json.loads(open(resolve_model_path("theta_example")).read())
    raw.update(overrides)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cmd_general_qec_noiseless_model(tmp_path) -> None:
    zero = [[[0.0, 0.0]] * 4] * 4
    path = _model_file(tmp_path, lindblads=[zero], d_lindblads=[zero], dd_lindblads=[zero])
    doc = cmd_general_qec(path, "plus", 5.0, None)
    assert abs(doc["qfi_asymptotic"] - 1.0) < 1e-10


def test_cmd_general_qec_model_without_lindblad_operators(tmp_path, capsys) -> None:
    # A unitary model: the engine reads 4 B^2 t^2 = 1 off the coherent part.
    path = _model_file(tmp_path, lindblads=[], d_lindblads=[], dd_lindblads=[])
    assert cli.main(["general-qec", path]) == 0
    assert capsys.readouterr().out == "asymptotic QFI at t=5: 1\n"


def test_cmd_general_qec_negative_time_exits_2(tmp_path, capsys) -> None:
    out = tmp_path / "report.json"
    assert cli.main(["general-qec", "theta_example", "--t", "-5", "--out", str(out)]) == 2
    assert "t must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_general_qec_wrong_code_exits_3(capsys) -> None:
    assert cli.main(["general-qec", "wrong_code"]) == 3
    err = capsys.readouterr().err
    assert "residual" in err


def test_cmd_general_qec_missing_model_exits_2(capsys) -> None:
    assert cli.main(["general-qec", "no_such_model"]) == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"lindblads": 3.0}, "lindblads"),
        ({"lindblads": [[["x", 0]] * 4] * 4}, "lindblads[0]"),
        ({"d_lindblads": [[[[0, 0]] * 4] * 3 + [[[0, 0]] * 3]]}, "d_lindblads[0]"),
        ({"hamiltonian": [[[float("nan"), 0.0]] * 4] * 4}, "hamiltonian"),
        ({"dd_hamiltonian": [[[True, 0]] * 4] * 4}, "dd_hamiltonian"),
        ({"d_hamiltonian": [[[10**400, 0]] * 4] * 4}, "d_hamiltonian"),
        ({"code_c0": "up"}, "code_c0"),
        ({"code_c1": [[0, 0, 0]] * 4}, "code_c1"),
    ],
)
def test_load_model_file_rejects_malformed_operators(tmp_path, capsys, overrides, field) -> None:
    path = _model_file(tmp_path, **overrides)
    with pytest.raises(ConfigError) as exc:
        cli.load_model_file(path)
    assert exc.value.field == field
    assert cli.main(["general-qec", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: expected")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["qfi-omega", "--domega", "nan"], "domega must be finite"),
        (["qfi-theta", "--dtheta", "0", "--dtheta", "inf"], "dtheta must be finite"),
        (["general-qec", "theta_example", "--t", "inf"], "t must be >= 0"),
        (["general-qec", "theta_example", "--t", "nan"], "t must be >= 0"),
        (["general-qec", "theta_example", "--probe", "1,nan"], "probe amplitudes must be finite"),
        (["general-qec", "theta_example", "--probe", "infj,1"], "probe amplitudes must be finite"),
        # J = 4 t^2 Var(H) - 4 t <L2> overflows
        (["general-qec", "theta_example", "--t", "1e200"], "t must be small enough"),
    ],
)
def test_non_finite_user_numbers_exit_2(tmp_path, capsys, argv, message) -> None:
    out = tmp_path / "out.file"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["plot", "{folder}", "--out", "{tmp}/x.svg"],
        ["plot", "{tmp}/pair.csv", "--out", "{folder}"],
        ["qfi-theta", "--t-max", "5", "--points", "3", "--out", "{folder}"],
        ["qfi-omega", "--t-max", "5", "--points", "3", "--out", "{folder}"],
        ["general-qec", "theta_example", "--out", "{folder}"],
    ],
    ids=["plot-input", "plot-out", "qfi-theta-out", "qfi-omega-out", "general-qec-out"],
)
def test_directory_paths_exit_2(tmp_path, capsys, argv) -> None:
    folder = tmp_path / "folder"
    folder.mkdir()
    (tmp_path / "pair.csv").write_text("t,a\n0,1\n1,2\n")
    argv = [a.format(folder=folder, tmp=tmp_path) for a in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder", "pair.csv"]
    assert list(folder.iterdir()) == []


def test_parse_probe_rejects_garbage() -> None:
    from fluxmet.qec import theta_code

    with pytest.raises(ConfigError):
        cli._parse_probe("sideways", theta_code(0.0))
    with pytest.raises(ConfigError):
        cli._parse_probe("0,0", theta_code(0.0))


def test_cmd_plot_polylines_and_determinism(tmp_path) -> None:
    table = cmd_qfi("theta", 0.1, 0.05, 5.0, 4, [0.0, 0.05, 0.1], None)
    csv_path = str(tmp_path / "curves.csv")
    write_csv(table, csv_path)
    svg_path = tmp_path / "curves.svg"
    cmd_plot(csv_path, str(svg_path))
    svg = svg_path.read_text()
    assert svg.count("<polyline") == 5
    for name in table.columns[1:]:
        assert name in svg
    first = svg_path.read_bytes()
    cmd_plot(csv_path, str(svg_path))
    assert svg_path.read_bytes() == first


def test_cmd_plot_two_column_csv(tmp_path) -> None:
    csv_path = tmp_path / "pair.csv"
    csv_path.write_text("t,a\n0,1\n1,2\n2,4\n")
    svg_path = tmp_path / "pair.svg"
    cmd_plot(str(csv_path), str(svg_path))
    assert svg_path.read_text().count("<polyline") == 1


def test_cmd_plot_malformed_csv_exits_2(tmp_path, capsys) -> None:
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("t,a\n")
    code = cli.main(["plot", str(csv_path), "--out", str(tmp_path / "x.svg")])
    assert code == 2
    assert "no data rows" in capsys.readouterr().err


# sha256 of every file the command lines below write, recorded before the
# angle and frequency tasks shared one task table.  The determinism tests
# compare two runs of one build; this one fails when a change moves a byte.
# general-qec is left out: its report depends on the LAPACK eigensolvers.
_GOLDEN_SHA256 = {
    "theta.csv": "582618f535fec31cee75074f831de4ff2c1eed7962cbebc26bda1b8880fac383",
    "omega.csv": "79b0916347ac35f34fa9923c2e266d3d6d4fff6c6eda7fc2d614696c082e09bf",
    "adapt_theta.qec_corrected.csv": "21b04a59df0417137fd2f759b7b412069b5121f5324a45bdba7e7e1f3a14387a",
    "adapt_theta.unitary_controlled.csv": "ef3011d91f394c13f3c4f846a4d9c5fe76835d97ebf92d1e38c53fa7e2335ba2",
    "adapt_omega.qec_corrected.csv": "d7c41ca66415bee22d3889adc95c8c90afc8755f93d7a241fa992f540b5a06f4",
    "adapt_omega.unitary_controlled.csv": "dc0935c05d31630fa66796594f7655a9a324f83d2c782154c972feda94563487",
}


def test_golden_output_bytes(tmp_path) -> None:
    theta_cfg = tmp_path / "theta.json"
    theta_cfg.write_text(
        json.dumps({"true_value": 0.785, "initial_guess": 0.0, "repetitions": 3, "seed": 7})
    )
    omega_cfg = tmp_path / "omega.json"
    omega_cfg.write_text(json.dumps({
        "true_value": 0.3, "initial_guess": 0.2, "repetitions": 3, "seed": 7,
        "grid": [0.2, 0.4, 1e-4],
    }))
    for argv in (
        ["qfi-theta", "--t-max", "5", "--points", "11", "--out", str(tmp_path / "theta.csv")],
        ["qfi-omega", "--t-max", "5", "--points", "3", "--out", str(tmp_path / "omega.csv")],
        ["adapt", "theta", "--config", str(theta_cfg), "--out", str(tmp_path / "adapt_theta.csv")],
        ["adapt", "omega", "--config", str(omega_cfg), "--out", str(tmp_path / "adapt_omega.csv")],
    ):
        assert cli.main(argv) == 0, argv
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in _GOLDEN_SHA256
    }
    assert digests == _GOLDEN_SHA256
