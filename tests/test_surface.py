"""The public surface: one name per operation, the task as an argument."""

from __future__ import annotations

import ast
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
from fluxmet.tasks import TASKS
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
# config types, the finite difference folded into qfi_sld_numeric, the
# per-task p(+) that each task's coherence record replaced, the likelihood
# peak search that reading the estimate off the grid replaced, a partial
# trace that nothing in the package called, the per-call Kraus pairs that
# each code's recovery superoperator replaced, the re-symmetrisation and
# trace-reading helpers that the checked real maps replaced, a right-hand-side
# wrapper that only tests called, the step-map cache that each model's
# one cache of step and block maps replaced, the CLI's copy of the
# campaign's information rule, the stacked-row views that a batch going
# state by state no longer needed, the batch loop itself, since each
# state map takes one state, the frequency coherence's public wrappers,
# whose formulas OMEGA_COHERENCE holds as THETA_COHERENCE holds its own,
# the rotating phase-table rows that dynamics._CHUNK already counts, the
# config's own integer rule, which dynamics._check_count replaced, and the
# finite-only bound that callers passed to dynamics._check_domain, which now
# bounds each real by its name.  A dotted name is an attribute of a
# module-level name.
_REMOVED_NAMES = {
    "fluxmet": (
        "TrajectoryPhase", "sample_phase", "outcome_probability_theta",
        "outcome_probability_omega", "run_adaptive_omega", "mse_campaign_omega",
        "NonIsotropicError",
    ),
    "fluxmet.estimation": (
        "outcome_probability_theta", "outcome_probability_omega", "_outcome_distribution",
        "_run_adaptive", "run_adaptive_omega", "_mse_curve", "mse_campaign_omega",
        "_golden_max", "_PASS_FRACTIONS", "_check_integer", "_FINITE",
    ),
    "fluxmet.cli": (
        "cmd_qfi_theta", "cmd_qfi_omega", "_matrix_from_json", "_vector_from_json",
        "_ADAPT_SCHEMA", "_crb_value", "_FINITE",
    ),
    "fluxmet.dynamics": (
        "TrajectoryPhase", "sample_phase", "_dagger", "_largest", "lindblad_rhs",
        "LindbladModel._step_map", "_product", "_largest_gap", "_as_rows", "_from_rows",
        "_each_state",
    ),
    "fluxmet.metrology": (
        "METHODS", "state_derivative", "_check_t", "omega_frame_phase", "omega_frame_decay",
        "omega_frame_phase_deriv", "omega_frame_decay_deriv", "_FINITE",
    ),
    "fluxmet.tasks": ("_p_plus_theta", "_p_plus_omega"),
    "fluxmet.qmat": ("polar_isometry", "PolarIsometry", "partial_trace", "_PADE13", "_THETA13"),
    "fluxmet.errors": ("NonIsotropicError",),
    "fluxmet.qec": ("QecCode._recovery_pairs", "_PHASE_ROWS", "_FINITE"),
}

# Tolerance keywords that were only ever called with their default,
# arguments that no caller passed, the frame diagonal that in_frame
# took before it took the phase rate each model and code keeps, the
# bound that each caller of _check_domain chose before the name chose it,
# the SLD's eigenvalue cut that only qfi_sld_numeric set, and the error
# class that only the integrator's step chose before its name bounded it.
_REMOVED_KEYWORDS = [
    (qmat.sqrtm_psd, "neg_tol"),
    (qmat.sqrtm_psd, "clamp_tol"),
    (qmat.hermitian_eig, "tol"),
    (qmat.check_density_matrix, "tol"),
    (dynamics.lindblad_evolve, "trace_tol"),
    (dynamics.in_frame, "frame"),
    (qec.expansion_evolve, "apply_control"),
    (qec.check_qec_conditions, "tol"),
    (qec.expansion_superoperators, "tol"),
    (qec.expansion_superoperators, "deg_tol"),
    (metrology.qfi_sld, "params"),
    (estimation.run_adaptive, "rng"),
    (qec.code_probe, "t"),
    (metrology.cfi, "delta"),
    (metrology.cfi_trajectory_B, "delta"),
    (dynamics._check_domain, "least"),
    (metrology.sld, "kernel_tol"),
    (metrology.qfi_sld, "kernel_tol"),
    (dynamics._check_number, "error"),
]


def test_every_exported_name_resolves() -> None:
    for name in fluxmet.__all__:
        assert hasattr(fluxmet, name), name


@pytest.mark.parametrize("module", list(_REMOVED_NAMES))
def test_removed_names_are_gone(module) -> None:
    def has(obj, dotted: str) -> bool:
        for part in dotted.split("."):
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    mod = importlib.import_module(module)
    assert [name for name in _REMOVED_NAMES[module] if has(mod, name)] == []


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


def test_readme_library_block_prints_its_values(capsys) -> None:
    # README's "Library use" block calls the corrected closed forms by their
    # public names; its comments give the values it prints.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4, lines
    assert float(lines[0]) == 2.0
    assert float(lines[1]) == pytest.approx(2.0, rel=1e-6)
    assert float(lines[2]) == pytest.approx(0.991, abs=5e-4)
    assert lines[3] == "(20, 11)"


# The benchmark under perfbench/ calls the package by module attribute; a
# name it uses that the package drops fails here, not only when it runs.
_BENCH = Path(__file__).parents[1] / "perfbench"
_BENCH_MODULES = {"fcli": cli, "dynamics": dynamics, "metrology": metrology, "qec": qec, "qmat": qmat}


def _bench_attributes(node: ast.AST) -> list[tuple[str, str]]:
    """The (module, attribute) pairs an expression reads: ``module.attr``, or
    ``getattr(module, f"...{task}...")`` once per task."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return [(node.value.id, node.attr)] if node.value.id in _BENCH_MODULES else []
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"):
        return []
    module, name = node.args[0], node.args[1]
    if not (isinstance(module, ast.Name) and module.id in _BENCH_MODULES):
        return []
    if isinstance(name, ast.Constant):
        return [(module.id, name.value)]
    assert isinstance(name, ast.JoinedStr), ast.dump(name)
    return [
        (module.id, "".join(p.value if isinstance(p, ast.Constant) else task for p in name.values))
        for task in TASKS
    ]


def _bench_uses() -> tuple[set, set]:
    """Attributes of the package modules that bench_workloads.py reads, and the
    (module, attribute, keyword) of every keyword it passes to one of them."""
    tree = ast.parse((_BENCH / "bench_workloads.py").read_text())
    bound = {  # a local name bound to getattr(module, ...)
        node.targets[0].id: _bench_attributes(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Call) and _bench_attributes(node.value)
    }
    reads, keywords = set(), set()
    for node in ast.walk(tree):
        reads.update(_bench_attributes(node))
        if isinstance(node, ast.Call):
            callees = bound.get(node.func.id, []) if isinstance(node.func, ast.Name) else _bench_attributes(node.func)
            keywords.update((m, a, kw.arg) for m, a in callees for kw in node.keywords if kw.arg)
    return reads, keywords


def test_the_benchmark_uses_only_names_the_package_has() -> None:
    reads, keywords = _bench_uses()
    # bench_workloads.py's own calls, and what perfbench/test_bench.py wraps and calls.
    assert {("fcli", "cmd_adapt"), ("qec", "corrected_evolve_omega"), ("dynamics", "lindblad_evolve")} <= reads
    assert ("qec", "corrected_evolve_theta", "n_recoveries") in keywords
    reads |= {
        ("qmat", "kron"), ("qmat", "expm"), ("dynamics", "kron"), ("dynamics", "lindblad_evolve"),
        ("metrology", "hermitian_eig"), ("qec", "lindblad_evolve"),
        ("qec", "corrected_evolve_theta"), ("qec", "corrected_evolve_omega"),
    }
    assert sorted(f"{m}.{a}" for m, a in reads if not hasattr(_BENCH_MODULES[m], a)) == []
    missing = []
    for m, a, keyword in sorted(keywords):
        params = inspect.signature(getattr(_BENCH_MODULES[m], a)).parameters.values()
        if not any(p.name == keyword or p.kind is p.VAR_KEYWORD for p in params):
            missing.append(f"{m}.{a}({keyword}=)")
    assert missing == []
