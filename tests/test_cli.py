"""Command-line layer: tables, configs, exit codes and determinism."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import types
import xml.etree.ElementTree as ET
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
from fluxmet.errors import (
    ConfigError,
    CrossCheckError,
    DegenerateErrorSpaceError,
    DomainError,
    InstabilityError,
    LeakageError,
    NumericError,
    QecConditionError,
)
from fluxmet.tasks import STRATEGIES, TASKS


def _table() -> CurveTable:
    rows = np.array([[0.0, 1.0, 0.1], [1.0, 0.5, 0.2], [2.0, 1.0 / 3.0, 0.3]])
    return CurveTable(columns=["t", "a", "b"], rows=rows, metadata={"command": "test", "seed": "7"})


def test_curve_table_rejects_shape_mismatch() -> None:
    with pytest.raises(ConfigError):
        CurveTable(columns=["t", "a"], rows=np.zeros((2, 3)), metadata={})


@pytest.mark.parametrize(
    "columns, rows, message",
    [
        (["t"], [[0.0], [1.0]], "at least two columns"),
        (["t", "a", "b"], [[0.0, 1.0, 2.0], [1.0, 1.0, np.inf]], "non-finite value in column 'b'"),
    ],
)
def test_curve_table_rejects_invalid_tables(columns, rows, message) -> None:
    with pytest.raises(ConfigError, match=message):
        CurveTable(columns=columns, rows=np.array(rows), metadata={})


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


@pytest.mark.parametrize(
    "task, values",
    [
        ("theta", ["0.1", "0.1000001"]),
        ("omega", ["0.05", "0", "0.05"]),
        ("theta", ["1e-7", "1.0000001e-7"]),
        ("theta", ["0", "-0"]),
    ],
)
def test_detunings_that_name_one_column_exit_2_before_any_cell(
    tmp_path, monkeypatch, capsys, task, values
) -> None:
    # Two detunings that print alike under %g would give two columns of one
    # name; the sweep refuses them, naming both, before a closed form runs.
    def cell(*args):
        raise AssertionError("a cell was computed")

    record = dataclasses.replace(
        TASKS[task], qec_closed=cell, unitary_closed=cell, free_closed=None
    )
    monkeypatch.setattr(cli, "task_record", lambda name: record)
    symbol, out = TASKS[task].symbol, tmp_path / "sweep.csv"
    flags = [arg for value in values for arg in (f"--{symbol}", value)]
    assert cli.main([f"qfi-{task}", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    first, second = values[0], values[-1]
    assert f"{symbol} values {float(first)!r} and {float(second)!r} both name qfi_qec_" in err
    assert not out.exists()


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


def test_gate_checks_the_cells_it_writes(monkeypatch) -> None:
    # Each closed-form cell is evaluated once, and the gate compares that
    # cell, column by column, at five rows spread evenly over t > 0.
    calls = []
    spec = TASKS["theta"]

    def counted(B, gamma, t, d):
        calls.append((float(t), d))
        return spec.qec_closed(B, gamma, t, d)

    checked = []
    monkeypatch.setitem(TASKS, "theta", dataclasses.replace(spec, qec_closed=counted))
    monkeypatch.setattr(cli, "_check_pair", lambda *args: checked.append(args))
    table = cmd_qfi("theta", 0.1, 0.05, 5.0, 11, [0.0, 0.05], None)
    assert sorted(calls) == sorted((t, d) for t in table.rows[:, 0] for d in (0.0, 0.05))
    sampled = table.rows[[1, 3, 5, 7, 10]]
    assert [closed for _, closed, _ in checked] == list(sampled[:, 1:].ravel())
    assert [label for label, _, _ in checked[:4]] == [
        "unitary t=0.5", "qec dtheta=0 t=0.5", "qec dtheta=0.05 t=0.5", "free t=0.5"
    ]


@pytest.mark.parametrize("n_points", [*range(2, 13), 101, 10**5])
def test_gate_rows_are_the_distinct_rows_of_five_even_picks(monkeypatch, n_points) -> None:
    # The gate's rows are the distinct ones among five picks spread evenly over
    # t > 1e-9, fewer where the sweep has fewer such rows, each checked once.
    ts = np.linspace(0.0, 5.0, n_points)
    positive = np.flatnonzero(ts > 1e-9)
    expected = ts[positive[np.unique(np.linspace(0, positive.size - 1, 5).astype(int))]]
    spec, real, gated = TASKS["omega"], cli.qfi_sld_numeric, []

    def family(B, t, x_hat):
        state = spec.unitary_family(B, t, x_hat)
        state.t = t
        return state

    def spy(state, x):
        gated.append(state.t)
        return real(state, x)

    record = dataclasses.replace(spec, unitary_family=family)
    monkeypatch.setattr(cli, "task_record", lambda name: record)
    monkeypatch.setattr(cli, "qfi_sld_numeric", spy)
    cmd_qfi("omega", 0.1, 0.05, 5.0, n_points, [], None)
    assert gated == list(expected)


def test_sweeps_do_not_import_numpy_ma(tmp_path) -> None:
    # np.unique imported numpy.ma, about 10 ms of a fresh process's start; neither sweep needs it.
    code = (
        "import sys\n"
        "from fluxmet.cli import main\n"
        "for task in ('theta', 'omega'):\n"
        "    assert main([f'qfi-{task}', '--out', f'{task}.csv']) == 0\n"
        "    print(task, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fluxmet.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "theta False\nomega False\n"


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
        ({"strategies": ["qec_corrected", "unitary_controlled", "qec_corrected"]}, "strategies"),
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


def test_adapt_with_a_billion_rounds_exits_2_without_drawing(tmp_path) -> None:
    # 10**9 rounds on a 3-cell grid pass the draw and cell-update bounds but
    # would hold two 8 GB tables and run for hours; run with a timeout.
    config = _adapt_config(tmp_path, m=1, rounds=10**9, repetitions=1, grid=[0, 1.5, 0.5])
    out = tmp_path / "camp.csv"
    argv = ["adapt", "theta", "--config", config, "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(fluxmet.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fluxmet", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("an adapt config with 10**9 rounds was not refused within 60 s")
    assert proc.returncode == 2, proc.stderr
    assert "rounds * repetitions must be at most 10000000" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.glob("camp*")) == []


def test_adapt_with_an_aliased_grid_exits_2_without_files(tmp_path, capsys) -> None:
    # At B = 0.5 and t = 5 the angle's likelihood phase turns 2 |B| t = 5 rad
    # per radian, 7.85 rad across the prior: more than one period.
    config = _adapt_config(tmp_path, B=0.5, t=5)
    out = tmp_path / "camp.csv"
    assert cli.main(["adapt", "theta", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "grid width 1.5707963267948966 aliases the likelihood phase at t=5;" in err
    assert list(tmp_path.glob("camp*")) == []


@pytest.mark.filterwarnings("error")
def test_adapt_with_overflowing_mse_exits_2_without_files(tmp_path, capsys) -> None:
    # (estimate - 1e300)^2 overflows, so the mse column would hold inf.
    config = _adapt_config(tmp_path, true_value=1e300, strategies=list(STRATEGIES))
    out = tmp_path / "camp.csv"
    assert cli.main(["adapt", "theta", "--config", config, "--out", str(out)]) == 2
    assert "non-finite value in column 'mse'" in capsys.readouterr().err
    assert list(tmp_path.glob("camp*")) == []


@pytest.mark.parametrize(
    "task, t, B", [("omega", 1e100, 0.1), ("theta", 1e200, 0.1), ("omega", 1e100, 1e-300)]
)
@pytest.mark.filterwarnings("error")
def test_adapt_with_overflowing_j_exits_2_without_files(tmp_path, capsys, task, t, B) -> None:
    # The zero-detuning J overflows: a float's t**4 raised OverflowError for
    # the frequency, an infinite J drew a Cramer-Rao line of 0 for the angle,
    # and B^2 t^4 with B^2 below the float range is 0 * inf.
    config = _adapt_config(tmp_path, t=t, B=B)
    out = tmp_path / "camp.csv"
    assert cli.main(["adapt", task, "--config", config, "--out", str(out)]) == 2
    assert "t must be small enough for a finite J" in capsys.readouterr().err
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


def _adapt_rows(tmp_path, monkeypatch, env: str | None, flags=()) -> np.ndarray:
    # The rows one `adapt theta` run writes, under FLUXMET_SEED=env (unset for
    # None), from a guess off the truth so that the draws move the estimates.
    if env is None:
        monkeypatch.delenv("FLUXMET_SEED", raising=False)
    else:
        monkeypatch.setenv("FLUXMET_SEED", env)
    config, out = _adapt_config(tmp_path, initial_guess=0.3), str(tmp_path / "camp.csv")
    assert cli.main(["adapt", "theta", "--config", config, "--out", out, *flags]) == 0
    return read_csv(str(tmp_path / "camp.qec_corrected.csv")).rows


def test_fluxmet_seed_seeds_the_draws_when_no_flag_is_given(tmp_path, monkeypatch) -> None:
    # The environment's seed, not the config's 5, drives the campaign: its
    # rows are those of --seed 9, and not those of the config's seed.
    flagged = _adapt_rows(tmp_path, monkeypatch, None, ["--seed", "9"])
    assert np.array_equal(_adapt_rows(tmp_path, monkeypatch, "9"), flagged)
    assert not np.array_equal(_adapt_rows(tmp_path, monkeypatch, None), flagged)


@pytest.mark.parametrize("env", ["9", "lots"])
def test_the_seed_flag_overrides_fluxmet_seed(tmp_path, monkeypatch, env) -> None:
    # With --seed given the environment is never read, so even a value that
    # is not an integer leaves the run as --seed alone makes it.
    flagged = _adapt_rows(tmp_path, monkeypatch, None, ["--seed", "3"])
    assert np.array_equal(_adapt_rows(tmp_path, monkeypatch, env, ["--seed", "3"]), flagged)


@pytest.mark.parametrize(
    "env, message",
    [
        ("lots", "FLUXMET_SEED must be an integer, got 'lots'"),
        ("1.5", "FLUXMET_SEED must be an integer, got '1.5'"),
        ("", "FLUXMET_SEED must be an integer, got ''"),
        ("-2", "seed must be >= 0, got -2"),
    ],
)
def test_a_bad_fluxmet_seed_exits_2_before_any_draw(tmp_path, monkeypatch, capsys, env, message) -> None:
    monkeypatch.setattr(cli, "campaign_estimates", lambda *a, **k: pytest.fail("a campaign ran"))
    monkeypatch.setenv("FLUXMET_SEED", env)
    out = str(tmp_path / "camp.csv")
    assert cli.main(["adapt", "theta", "--config", _adapt_config(tmp_path), "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.glob("camp*")) == []


def test_a_repeated_strategy_is_refused_before_any_draw(tmp_path, monkeypatch) -> None:
    # Each strategy's campaign writes one file, so a repeat would run a
    # campaign twice for nothing.
    config = _adapt_config(tmp_path, strategies=["qec_corrected", "qec_corrected"])
    monkeypatch.setattr(cli, "campaign_estimates", lambda *a, **k: pytest.fail("a campaign ran"))
    with pytest.raises(ConfigError, match="strategies must be distinct") as err:
        cmd_adapt("theta", config, str(tmp_path / "camp.csv"))
    assert err.value.field == "strategies"
    assert list(tmp_path.glob("camp*")) == []


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
        # the sweeps' closed forms overflow
        (["qfi-theta", "--t-max", "1e300", "--points", "3"], "and t_max must be small enough"),
        (["qfi-theta", "--B", "1e200", "--t-max", "1", "--points", "3"], "B = 1e+200"),
        (["qfi-omega", "--B", "1e200", "--t-max", "1", "--points", "3"], "B = 1e+200"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_non_finite_user_numbers_exit_2(tmp_path, capsys, argv, message) -> None:
    out = tmp_path / "out.file"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, start",
    [
        (["qfi-theta", "--t-max", "1e150", "--points", "3"],
         "error: finite-difference derivative not converged"),
        (
            ["qfi-omega", "--B", "6.6e15", "--gamma", "6.6e15", "--t-max", "1.6e16",
             "--points", "6"],
            "error: unitary t=3.2e+15: closed form ",
        ),
    ],
)
@pytest.mark.filterwarnings("error")
def test_huge_sweeps_fail_the_gate_exit_4(tmp_path, capsys, argv, start) -> None:
    # The closed forms are finite and the gate's unitary states stay bounded,
    # so these sweeps reach the large-t gate failure, not an overflow.
    out = tmp_path / "out.file"
    assert cli.main([*argv, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(start) and "Traceback" not in err
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


@pytest.mark.parametrize(
    "exc, code, extra",
    [
        (QecConditionError("code fails", [("E_0", 1.5e-3), ("E_1", 2e-9)]), 3,
         ["  E_0: residual 1.500e-03", "  E_1: residual 2.000e-09"]),
        (LeakageError("trace lost"), 3, []),
        (CrossCheckError("routes disagree"), 4, []),
        (NumericError("not finite"), 4, []),
        (InstabilityError("drift"), 2, []),
        (DegenerateErrorSpaceError("d_kk ~ 0"), 2, []),
        (DomainError("t must be finite"), 2, []),
        (ConfigError("bad key", field="k"), 2, []),
        (IsADirectoryError(21, "Is a directory", "d"), 2, []),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else None,
)
def test_main_maps_each_failure_class_to_its_exit_code(monkeypatch, capsys, exc, code, extra) -> None:
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "cmd_plot", fail)
    assert cli.main(["plot", "in.csv", "--out", "out.svg"]) == code
    assert capsys.readouterr().err.splitlines() == [f"error: {exc}", *extra]


def test_a_file_at_the_temp_name_is_refused_not_followed(tmp_path, monkeypatch, capsys) -> None:
    # The temp file is created with O_EXCL: a symlink already at its name
    # makes the write fail, and the file the link points at is untouched.
    target = tmp_path / "target.txt"
    target.write_text("keep")
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    (tmp_path / f".fluxmet-{bytes(8).hex()}").symlink_to(target)
    out = tmp_path / "t.csv"
    assert cli.main(["qfi-theta", "--t-max", "1", "--points", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")
    assert target.read_text() == "keep" and not out.exists()


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


def test_cmd_plot_escapes_column_names(tmp_path) -> None:
    # Header names are text content of the SVG: markup characters are
    # escaped, so the file parses and each label reads back as written.
    csv_path = tmp_path / "marks.csv"
    csv_path.write_text("t<0 & >1,a<b & c,\"q\"\n0,1,2\n1,2,3\n")
    svg_path = tmp_path / "marks.svg"
    cmd_plot(str(csv_path), str(svg_path))
    root = ET.parse(svg_path).getroot()
    labels = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
    assert labels == ["t<0 & >1", "a<b & c", '"q"']
    assert "a&lt;b &amp; c" in svg_path.read_text()


def test_written_files_get_the_mode_a_plain_open_gives(tmp_path) -> None:
    # Each command writes through a temp file and a rename; the file still
    # gets 0o666 less the umask, as open(path, "w") would give it.
    old = os.umask(0o022)
    try:
        csv_path, svg_path, report = tmp_path / "t.csv", tmp_path / "t.svg", tmp_path / "r.json"
        assert cli.main(["qfi-theta", "--t-max", "1", "--points", "3", "--out", str(csv_path)]) == 0
        assert cli.main(["plot", str(csv_path), "--out", str(svg_path)]) == 0
        assert cli.main(["general-qec", "theta_example", "--out", str(report)]) == 0
        (tmp_path / "plain.txt").write_text("x")
        for path in (csv_path, svg_path, report, tmp_path / "plain.txt"):
            assert path.stat().st_mode & 0o777 == 0o644, path.name
        os.umask(0o077)
        write_csv(_table(), str(csv_path))
        assert csv_path.stat().st_mode & 0o777 == 0o600
    finally:
        os.umask(old)


def test_cmd_plot_two_column_csv(tmp_path) -> None:
    csv_path = tmp_path / "pair.csv"
    csv_path.write_text("t,a\n0,1\n1,2\n2,4\n")
    svg_path = tmp_path / "pair.svg"
    cmd_plot(str(csv_path), str(svg_path))
    assert svg_path.read_text().count("<polyline") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("t\n0\n1\n", "at least two columns"),
        ("t,a\n0,1e308\n1,-1e308\n", "overflow the plot's scale"),
        ("t,a\n0,0\n1,1e308\n", "overflow the plot's scale"),
    ],
    ids=["one-column", "range-overflows", "scale-overflows"],
)
@pytest.mark.filterwarnings("error")
def test_cmd_plot_unplottable_csv_exits_2(tmp_path, capsys, text, message) -> None:
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(text)
    assert cli.main(["plot", str(csv_path), "--out", str(tmp_path / "x.svg")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.filterwarnings("error")
def test_cmd_plot_constant_huge_column_draws_finite_points(tmp_path) -> None:
    csv_path = tmp_path / "flat.csv"
    csv_path.write_text("t,a\n0,1e300\n1,1e300\n")
    cmd_plot(str(csv_path), str(tmp_path / "flat.svg"))
    assert 'points="60.00,435.00 620.00,435.00"' in (tmp_path / "flat.svg").read_text()


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
# theta.csv was re-recorded once when both corrected families' QFI became one
# expression in their phase and decay: 21 of its 33 qfi_qec cells moved by at
# most 4e-16 relative (it was 582618f535fec31cee75074f831de4ff2c1eed7962cbebc26bda1b8880fac383).
# The adapt_* files were re-recorded once when the default likelihood grid came
# to follow the likelihood width and the golden-section search to run a fixed
# 31 iterations: their estimate_mean cells moved by at most 2e-8 and their mse
# cells by at most 1e-7 relative; crb_line kept every byte.  They were
# re-recorded again when two 17-point passes and a parabolic step replaced
# that search: estimate_mean cells moved by at most 1.6e-8 and mse cells by at
# most 2e-7 relative, with no outcome draw changed.  Before that they were
# 19e03ca4... (adapt_theta.qec_corrected), 5c7eb9a8... (adapt_theta.unitary_controlled),
# bd6ef406... (adapt_omega.qec_corrected) and e6be8d1c... (adapt_omega.unitary_controlled).
# They were re-recorded a third time when each estimate came to be read off
# the grid likelihood with no search: estimate_mean cells moved by at most
# 8.8e-7 and mse cells by at most 5.7e-6 relative, with no outcome draw
# changed.  Before that they were a862c0cd..., 8cbe47b6..., 48aaee0e... and
# 0c707fa1... in the same order.
_GOLDEN_SHA256 = {
    "theta.csv": "26098a6ba6b3b9cceb13b48627dfc40aadf589c5e567e509b14204871425f2cd",
    "omega.csv": "79b0916347ac35f34fa9923c2e266d3d6d4fff6c6eda7fc2d614696c082e09bf",
    "adapt_theta.qec_corrected.csv": "fb7b01981ba26408a72a910ce22fbf91d70973905913e8e73d28c657298ba13a",
    "adapt_theta.unitary_controlled.csv": "515dec1d8a9b9b24d4750069faebec1a0e4e933bb5b58f58905a85b31ea1b64a",
    "adapt_omega.qec_corrected.csv": "49bd52873b0acd95d8ae22757d0197bb2c175ccc7321e052de38b109c1dbcd75",
    "adapt_omega.unitary_controlled.csv": "5d26bd4e6b1f4cf12092ad50a2a8fea887f421d55c487235ee9cf76e65e0a924",
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
