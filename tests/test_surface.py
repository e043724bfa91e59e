"""The public surface: one name per operation, the task as an argument."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import fluxmet
from fluxmet import cli, dynamics, estimation, metrology, qec, qmat
from fluxmet.errors import DomainError
from fluxmet.estimation import (
    AdaptiveConfig,
    campaign_estimates,
    mse_campaign,
    outcome_probability,
    run_adaptive,
)

# Per-task twins folded into one name with a task argument, wrappers that
# nothing called, the method/params fields of FisherResult, the polar
# isometry the general engine no longer builds, the CLI's copy of the adapt
# config types and the finite difference folded into qfi_sld_numeric.
_REMOVED_NAMES = {
    "fluxmet": (
        "TrajectoryPhase", "sample_phase", "outcome_probability_theta",
        "outcome_probability_omega", "run_adaptive_omega", "mse_campaign_omega",
        "NonIsotropicError",
    ),
    "fluxmet.estimation": (
        "outcome_probability_theta", "outcome_probability_omega", "_outcome_distribution",
        "_run_adaptive", "run_adaptive_omega", "_mse_curve", "mse_campaign_omega",
    ),
    "fluxmet.cli": (
        "cmd_qfi_theta", "cmd_qfi_omega", "_matrix_from_json", "_vector_from_json",
        "_ADAPT_SCHEMA",
    ),
    "fluxmet.dynamics": ("TrajectoryPhase", "sample_phase"),
    "fluxmet.metrology": ("METHODS", "state_derivative"),
    "fluxmet.qmat": ("polar_isometry", "PolarIsometry"),
    "fluxmet.errors": ("NonIsotropicError",),
}

# Tolerance keywords that were only ever called with their default, and
# arguments that no caller passed.
_REMOVED_KEYWORDS = [
    (qmat.sqrtm_psd, "neg_tol"),
    (qmat.sqrtm_psd, "clamp_tol"),
    (qmat.hermitian_eig, "tol"),
    (qmat.check_density_matrix, "tol"),
    (dynamics.lindblad_evolve, "trace_tol"),
    (qec.expansion_evolve, "apply_control"),
    (qec.check_qec_conditions, "tol"),
    (qec.expansion_superoperators, "tol"),
    (qec.expansion_superoperators, "deg_tol"),
    (metrology.qfi_sld, "params"),
    (estimation._golden_max, "tol"),
    (estimation.run_adaptive, "rng"),
    (qec.code_probe, "t"),
]


def test_every_exported_name_resolves() -> None:
    for name in fluxmet.__all__:
        assert hasattr(fluxmet, name), name


@pytest.mark.parametrize("module", list(_REMOVED_NAMES))
def test_removed_names_are_gone(module) -> None:
    mod = importlib.import_module(module)
    assert [name for name in _REMOVED_NAMES[module] if hasattr(mod, name)] == []


@pytest.mark.parametrize(
    "fn, keyword", _REMOVED_KEYWORDS, ids=[f"{fn.__name__}-{kw}" for fn, kw in _REMOVED_KEYWORDS]
)
def test_removed_keywords_are_gone(fn, keyword) -> None:
    assert keyword not in inspect.signature(fn).parameters


def test_fisher_result_carries_only_its_value() -> None:
    assert [f.name for f in dataclasses.fields(metrology.FisherResult)] == ["value"]


def test_general_engine_returns_frozen_records() -> None:
    # No field is left empty for a later stage to fill in, and no stage can
    # write into a record it is given.
    for record in (qec.QecConditions, qec.GeneralQecReport, qec.L2Action):
        assert record.__dataclass_params__.frozen, record
        assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(record))
    assert [f.name for f in dataclasses.fields(qec.GeneralQecReport)] == [
        "conditions", "orthogonalized", "active", "l1_generator", "l2_action"
    ]


_CFG = AdaptiveConfig(true_value=0.3, initial_guess=0.2, m=1, rounds=1)
_TASK_CALLS = {
    "outcome_probability": lambda task: outcome_probability(0.3, 0.2, 0.1, 0.05, 5.0, task=task),
    "run_adaptive": lambda task: run_adaptive(_CFG, task=task),
    "mse_campaign": lambda task: mse_campaign(_CFG, 1, task=task),
    "campaign_estimates": lambda task: campaign_estimates(_CFG, 1, task=task),
    "cmd_qfi": lambda task: cli.cmd_qfi(task, 0.1, 0.05, 1.0, 3, [0.0], None),
}


@pytest.mark.parametrize("name", list(_TASK_CALLS))
def test_unknown_task_raises_domain_error(name) -> None:
    with pytest.raises(DomainError, match="unknown task 'magnetization'"):
        _TASK_CALLS[name]("magnetization")


def test_runtime_imports_no_scipy() -> None:
    # scipy is a test-only dependency: a fresh interpreter that imports the
    # package and its CLI loads no scipy module.
    probe = (
        "import sys, fluxmet, fluxmet.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {"PYTHONPATH": str(Path(fluxmet.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
