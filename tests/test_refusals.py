"""Every real a public entry point takes is refused by name when it is not in the domain.

The cases are generated from the signatures: each parameter annotated ``float`` of one valid call per
callable of ``fluxmet.__all__`` (and of the public functions the package does not export) is tried at
nan, inf and -inf, and at -1.0 where it is a duration or a rate, with every warning an error.  Each
refusal must be a ``DomainError`` whose message starts with the parameter's name, or with the name the
alias table below gives it.  The full messages are pinned in ``test_metrology.py``.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

import fluxmet
from fluxmet import dynamics, estimation, metrology, qec
from fluxmet.errors import DomainError, FluxmetError, StepError

_RHO = np.outer(dynamics.bell_probe(), dynamics.bell_probe().conj())
_THETA_MODEL, _THETA_CODE = dynamics.theta_model(0.1, 0.05, 0.3), qec.theta_code(0.3)
_REPORT = qec.expansion_superoperators(_THETA_MODEL, _THETA_CODE)
_PROBE = qec.code_probe(_THETA_CODE)
_CONFIG = estimation.AdaptiveConfig(true_value=0.3, initial_guess=0.2, m=1, rounds=1)


def _family(theta: float) -> np.ndarray:
    return qec.corrected_state_theta_closed(0.1, 0.05, theta, 0.3, 5.0)


def _distribution(B: float) -> metrology.MeasurementDistribution:
    return metrology.trajectory_distribution_B(B, 0.05, 5.0, 0.3)


def _rng() -> np.random.Generator:
    return np.random.default_rng(0)


def _fields(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


# name -> (callable, positional arguments, keyword arguments) of one cheap valid call.  Every callable
# of fluxmet.__all__ is here; the error classes and records take no real input, or none the package
# checks, and are called once each all the same.
_CALLS = {
    "AdaptiveConfig": (estimation.AdaptiveConfig, (0.3, 0.2), {"m": 1, "rounds": 1}),
    "ConfigError": (fluxmet.ConfigError, ("message",), {"field": "m"}),
    "CrossCheckError": (fluxmet.CrossCheckError, ("message",), {}),
    "DegenerateErrorSpaceError": (fluxmet.DegenerateErrorSpaceError, ("message",), {}),
    "DimensionError": (fluxmet.DimensionError, ("message",), {}),
    "DomainError": (fluxmet.DomainError, ("message",), {}),
    "EstimationRun": (fluxmet.EstimationRun, ([0.2, 0.3], [(1, 0)], -0.5, 0), {}),
    "FisherResult": (fluxmet.FisherResult, (1.0,), {}),
    "FluxmetError": (fluxmet.FluxmetError, ("message",), {}),
    "GeneralQecReport": (fluxmet.GeneralQecReport, _fields(_REPORT), {}),
    "InstabilityError": (fluxmet.InstabilityError, ("message",), {}),
    "LeakageError": (fluxmet.LeakageError, ("message",), {}),
    "LindbladModel": (fluxmet.LindbladModel, (4, _THETA_MODEL.hamiltonian, _THETA_MODEL.lindblads), {}),
    "MeasurementDistribution": (fluxmet.MeasurementDistribution, ([("+", 0.5), ("-", 0.5)],), {}),
    "NonHermitianError": (fluxmet.NonHermitianError, ("message",), {}),
    "NotPsdError": (fluxmet.NotPsdError, ("message",), {}),
    "NumericError": (fluxmet.NumericError, ("message",), {}),
    "QecCode": (fluxmet.QecCode, (_THETA_CODE.c0, _THETA_CODE.c1), {}),
    "QecConditions": (fluxmet.QecConditions, _fields(_REPORT.conditions), {}),
    "QecConditionError": (fluxmet.QecConditionError, ("message",), {}),
    "StepError": (fluxmet.StepError, ("message",), {}),
    "apply_recovery": (qec.apply_recovery, (_THETA_CODE, _RHO), {"t": 0.5}),
    "asymptotic_qfi": (qec.asymptotic_qfi, (_REPORT, _PROBE, 5.0), {}),
    "bell_probe": (dynamics.bell_probe, (), {}),
    "cfi": (metrology.cfi, (_distribution, 0.1), {}),
    "check_qec_conditions": (qec.check_qec_conditions, (_THETA_MODEL, _THETA_CODE), {"t": 0.5}),
    "corrected_evolve_omega": (qec.corrected_evolve_omega, (0.1, 0.05, 0.3, 0.25, 1.0), {"dt": 0.5}),
    "corrected_evolve_theta": (qec.corrected_evolve_theta, (0.1, 0.05, 0.9, 0.8, 1.0), {"dt": 0.5}),
    "corrected_state_omega_closed": (qec.corrected_state_omega_closed, (0.1, 0.05, 0.3, 0.25, 5.0), {}),
    "corrected_state_theta_closed": (qec.corrected_state_theta_closed, (0.1, 0.05, 0.9, 0.8, 5.0), {}),
    "dephasing_kraus": (dynamics.dephasing_kraus, (0.1, 0.05, 5.0, 0.3), {}),
    "expansion_superoperators": (qec.expansion_superoperators, (_THETA_MODEL, _THETA_CODE), {"t": 0.5}),
    "fidelity": (metrology.fidelity, (_RHO, _RHO), {}),
    "fidelity_qubit": (metrology.fidelity_qubit, (_RHO[:2, :2] * 2, _RHO[:2, :2] * 2), {}),
    "lindblad_evolve": (dynamics.lindblad_evolve, (_THETA_MODEL, _RHO, 1.0), {"dt": 0.5, "t0": 0.5}),
    "campaign_estimates": (estimation.campaign_estimates, (_CONFIG, 1), {}),
    "mse_campaign": (estimation.mse_campaign, (_CONFIG, 1), {}),
    "omega_code": (qec.omega_code, (0.3,), {}),
    "omega_model": (dynamics.omega_model, (0.1, 0.05, 0.3), {}),
    "outcome_probability": (estimation.outcome_probability, (0.3, 0.2, 0.1, 0.05, 5.0), {}),
    "qfi_B_trajectory_averaged": (metrology.qfi_B_trajectory_averaged, (5.0, 0.05), {}),
    "qfi_fidelity_fd": (metrology.qfi_fidelity_fd, (_family, 0.7), {}),
    "qfi_omega_qec_closed": (metrology.qfi_omega_qec_closed, (0.1, 0.05, 5.0), {"d": 0.01}),
    "qfi_omega_unitary_controlled": (metrology.qfi_omega_unitary_controlled, (0.1, 5.0), {"domega": 0.01}),
    "qfi_sld": (metrology.qfi_sld, (_RHO, 0 * _RHO), {}),
    "qfi_sld_numeric": (metrology.qfi_sld_numeric, (_family, 0.7), {}),
    "qfi_theta_free_closed": (metrology.qfi_theta_free_closed, (0.1, 0.05, 5.0), {}),
    "qfi_theta_qec_closed": (metrology.qfi_theta_qec_closed, (0.1, 0.05, 5.0), {"d": 0.01}),
    "qfi_theta_unitary_controlled": (metrology.qfi_theta_unitary_controlled, (0.1, 5.0), {"dtheta": 0.01}),
    "run_adaptive": (estimation.run_adaptive, (_CONFIG,), {}),
    "sample_phases": (dynamics.sample_phases, (0.1, 0.05, 5.0, 3, _rng()), {}),
    "sld": (metrology.sld, (_RHO, 0 * _RHO), {}),
    "theta_code": (qec.theta_code, (0.3,), {}),
    "theta_model": (dynamics.theta_model, (0.1, 0.05, 0.3), {}),
}
# Public functions that take reals and that fluxmet does not export.
_UNEXPORTED = {
    "trajectory_average_state": (dynamics.trajectory_average_state, (0.1, 0.05, 5.0, 0.3, 3, _rng()), {}),
    "trajectory_outcome_probability": (
        dynamics.trajectory_outcome_probability, (0.1, 0.05, 5.0, 0.3, 3, _rng()), {}
    ),
    "sample_omega_trajectories": (dynamics.sample_omega_trajectories, (0.1, 0.05, 0.3, 1.0, 0.5, 3, _rng()), {}),
    "cfi_trajectory_B": (metrology.cfi_trajectory_B, (0.1, 0.05, 5.0, 0.3, 3, _rng()), {}),
    "bell_basis_distribution_theta_free": (metrology.bell_basis_distribution_theta_free, (0.1, 0.05, 5.0, 0.3), {}),
    "trajectory_distribution_B": (metrology.trajectory_distribution_B, (0.1, 0.05, 5.0, 0.3), {}),
    "expansion_evolve": (qec.expansion_evolve, (_REPORT, np.outer(_PROBE, _PROBE.conj()), 0.01, 0.5), {"dt": 0.25}),
}
_ALL = {**_CALLS, **_UNEXPORTED}

# The name a refusal gives a parameter where it is not the parameter's own: a t that fixed_steps,
# sample_phases or dephasing_kraus checks is a duration, a d a detuning, and a time at which a frame
# is entered, which may be negative, a frame time.
_DURATION = {"t": "duration"}
_FRAME = {"t": "frame time"}
_ALIASES = {
    "lindblad_evolve": {"t": "duration", "t0": "frame time"},
    "corrected_evolve_theta": _DURATION,
    "corrected_evolve_omega": _DURATION,
    "sample_phases": _DURATION,
    "sample_omega_trajectories": _DURATION,
    "trajectory_average_state": _DURATION,
    "trajectory_outcome_probability": _DURATION,
    "cfi_trajectory_B": _DURATION,
    "dephasing_kraus": _DURATION,
    "expansion_evolve": _DURATION,
    "qfi_theta_qec_closed": {"d": "detuning"},
    "qfi_omega_qec_closed": {"d": "detuning"},
    "apply_recovery": _FRAME,
    "check_qec_conditions": _FRAME,
    "expansion_superoperators": _FRAME,
}
# (callable, parameter) -> (what it raises, why), for the reals that are not refused under their own name.
_EXCEPTIONS = {
    **{
        (name, "dt"): (StepError, "a step that is not positive or does not divide the duration is the integrator's")
        for name in ("lindblad_evolve", "corrected_evolve_theta", "corrected_evolve_omega",
                     "sample_omega_trajectories", "expansion_evolve")
    },
    **{
        (name, param): (DomainError, "x and delta reach the state family only as x +- delta, and it names them")
        for name in ("qfi_sld_numeric", "qfi_fidelity_fd") for param in ("x", "delta")
    },
}
# The reals of the records the package returns: results, not inputs, so no case tries them.
_RESULTS = {("FisherResult", "value"), ("EstimationRun", "log_likelihood_final"),
            ("QecConditions", "residual_alpha"), ("QecConditions", "residual_beta")}
_NON_NEGATIVE = {"t", "gamma", "duration"}  # the names of a duration or a rate, refused below 0 too


def _reals(name: str) -> list[str]:
    """The parameters annotated ``float`` of a table entry; an error class takes none."""
    fn = _ALL[name][0]
    if isinstance(fn, type) and issubclass(fn, Exception):
        return []
    return [p.name for p in inspect.signature(fn).parameters.values() if p.annotation == "float"]


def _call_with(name: str, param: str, value: float):
    fn, args, kwargs = _ALL[name]
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    bound.arguments[param] = value
    return fn(*bound.args, **bound.kwargs)


_REALS = [(name, param) for name in _ALL for param in _reals(name)]
_CASES = [case for case in _REALS if case not in _RESULTS]


def test_the_table_has_every_export() -> None:
    exported = {name for name in fluxmet.__all__ if callable(getattr(fluxmet, name))}
    assert sorted(exported - set(_CALLS)) == []
    assert sorted(set(_CALLS) - exported) == []


def test_every_exception_and_result_is_a_real_of_its_callable() -> None:
    assert sorted(key for key in (*_EXCEPTIONS, *_RESULTS) if key not in _REALS) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(_ALL))
def test_every_valid_call_returns(name) -> None:
    fn, args, kwargs = _ALL[name]
    fn(*args, **kwargs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, param", _CASES, ids=[f"{name}-{param}" for name, param in _CASES])
def test_a_real_out_of_its_domain_is_refused_by_name(name, param) -> None:
    raises, _ = _EXCEPTIONS.get((name, param), (DomainError, ""))
    label = _ALIASES.get(name, {}).get(param, param)
    values = [np.nan, np.inf, -np.inf] + ([-1.0] if label in _NON_NEGATIVE else [])
    wrong = []
    for value in values:
        for _ in range(2):  # twice: a memo, such as qec._memo_code's of a float estimate, keeps no refusal
            try:
                _call_with(name, param, value)
            except FluxmetError as exc:
                named = (name, param) in _EXCEPTIONS or str(exc).startswith(f"{label} must be")
                if not (isinstance(exc, raises) and named):
                    wrong.append(f"{value}: {type(exc).__name__}: {exc}")
            else:
                wrong.append(f"{value}: returned")
    assert wrong == []
