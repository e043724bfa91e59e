"""Every real and every count a public entry point takes is refused by name, with one message, outside its domain.

The cases are generated from the signatures, on one valid call per table entry (every callable of
``fluxmet.__all__``, and the public functions the package does not export).  Each parameter annotated
``float`` is tried at nan, inf and -inf, at -1.0 where it is a duration or a rate and at 0.0 and -1.0 where
it is a step (``_BOUNDS``), and at four values that are not numbers: '0.1', None, True and 10**400.  Each
parameter annotated ``int`` is tried at 0, -1 and one below its least value (``_LEAST``) where they are below
it, and at 2.5, 2.0, -1.0, inf, '2' and True.
Each bad value is one case, whose call is made twice, with every warning an error, and must raise the
exact message that the parameter's name gives, or the name the alias table gives it:

* ``<name> must be >= 0 and finite, got <v>`` for a duration or a rate;
* ``<name> must be > 0 and finite, got <v>`` for a step;
* ``<name> must be finite, got <v>`` for any other real;
* ``<name> must be a finite number, got <repr>`` for a real that is not a number;
* ``'<name>' must be an integer, got <repr>`` or ``<name> must be >= <least>, got <v>`` for a count.

The three parameters with a rule of their own (``_OWN_RULES``) are a finite difference's step, whose square
must be finite, the sweep's length, and its number of points, which has a cap.  A guard holds the table to
every public function and class of ``dynamics``, ``metrology``, ``qec``, ``estimation`` and ``cli`` that
takes a real or a count, or to an excuse with its reason, and each own rule and edge to a tried parameter.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

import fluxmet
from fluxmet import cli, dynamics, estimation, metrology, qec
from fluxmet.errors import DomainError

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
# The public callables that fluxmet does not export, and, as "name/variant", second valid calls: gamma = 0,
# where a duration of inf once made gamma t = 0 * inf = NaN, an explicit recovery count, whose interval
# once named a t the caller never passed, and the frequency task of outcome_probability.
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
    "cfi_theta_qec_closed": (metrology.cfi_theta_qec_closed, (0.1, 0.05, 5.0), {"d": 0.01}),
    "cfi_omega_qec_closed": (metrology.cfi_omega_qec_closed, (0.1, 0.05, 5.0), {"d": 0.01}),
    "fixed_steps": (dynamics.fixed_steps, (1.0, 0.5), {}),
    "rotating_frame": (dynamics.rotating_frame, (0.3,), {}),
    "in_frame": (dynamics.in_frame, (_RHO, dynamics._frame_rate(dynamics.rotating_frame(0.3)), 0.5), {}),
    "check_campaign_size": (estimation.check_campaign_size, (_CONFIG, 1), {}),
    "cmd_qfi": (cli.cmd_qfi, ("theta", 0.1, 0.05, 5.0, 3, [0.0], None), {}),
    "cmd_general_qec": (cli.cmd_general_qec, ("theta_example", "plus", 5.0, None), {}),
    "sample_phases/gamma=0": (dynamics.sample_phases, (0.1, 0.0, 5.0, 3, _rng()), {}),
    "dephasing_kraus/gamma=0": (dynamics.dephasing_kraus, (0.1, 0.0, 5.0, 0.3), {}),
    "trajectory_outcome_probability/gamma=0": (
        dynamics.trajectory_outcome_probability, (0.1, 0.0, 5.0, 0.3, 3, _rng()), {}
    ),
    "cfi_trajectory_B/gamma=0": (metrology.cfi_trajectory_B, (0.1, 0.0, 5.0, 0.3, 3, _rng()), {}),
    "corrected_evolve_theta/n_recoveries=4": (
        qec.corrected_evolve_theta, (0.1, 0.05, 0.9, 0.8, 1.0), {"dt": 0.25, "n_recoveries": 4}
    ),
    "corrected_evolve_omega/n_recoveries=4": (
        qec.corrected_evolve_omega, (0.1, 0.05, 0.3, 0.25, 1.0), {"dt": 0.25, "n_recoveries": 4}
    ),
    "outcome_probability/omega": (estimation.outcome_probability, (0.3, 0.2, 0.1, 0.05, 5.0), {"task": "omega"}),
}
_ALL = {**_CALLS, **_UNEXPORTED}

# The name a refusal gives a parameter where it is not the parameter's own: a t that fixed_steps,
# sample_phases or dephasing_kraus checks is a duration, a d a detuning, a time at which a frame is
# entered, which may be negative, a frame time, and the x of a finite difference the state family's theta.
_DURATION = {"t": "duration"}
_FRAME = {"t": "frame time"}
_DETUNING = {"d": "detuning"}
_FAMILY = {"x": "theta"}
_ALIASES = {
    "lindblad_evolve": {"t": "duration", "t0": "frame time"},
    "fixed_steps": _DURATION,
    "corrected_evolve_theta": _DURATION,
    "corrected_evolve_omega": _DURATION,
    "sample_phases": _DURATION,
    "sample_omega_trajectories": _DURATION,
    "trajectory_average_state": _DURATION,
    "trajectory_outcome_probability": _DURATION,
    "cfi_trajectory_B": _DURATION,
    "dephasing_kraus": _DURATION,
    "expansion_evolve": _DURATION,
    "qfi_theta_qec_closed": _DETUNING,
    "qfi_omega_qec_closed": _DETUNING,
    "cfi_theta_qec_closed": _DETUNING,
    "cfi_omega_qec_closed": _DETUNING,
    "apply_recovery": _FRAME,
    "check_qec_conditions": _FRAME,
    "expansion_superoperators": _FRAME,
    "in_frame": _FRAME,
    "qfi_sld_numeric": _FAMILY,
    "qfi_fidelity_fd": _FAMILY,
}
# The bound a name puts on a real beyond being finite, and the values below it that it is tried at.
_BOUNDS = {**dict.fromkeys(("t", "gamma", "duration"), ">= 0 and "), **dict.fromkeys(("dt", "delta"), "> 0 and ")}
_BELOW = {">= 0 and ": [-1.0], "> 0 and ": [0.0, -1.0]}
# The least value of each count, by name, or by (callable, name) where the callable's differs.
_LEAST = {"n": 1, ("trajectory_average_state", "n"): 2, "m": 1, "rounds": 1, "seed": 0, "repetitions": 1,
          "dim": 2, "n_points": 2, "n_recoveries": 1}
_HUGE = 10**400
_NON_NUMBERS = ["0.1", None, True, _HUGE]
_NOT_COUNTS = [2.5, 2.0, -1.0, np.inf, "2", True]


def _is_number(value) -> bool:
    return isinstance(value, float) or value is not True and isinstance(value, int) and value < _HUGE


def _real(label: str, value) -> str:
    """The message of the rule every real follows."""
    if not _is_number(value):
        return f"{label} must be a finite number, got {value!r}"
    return f"{label} must be {_BOUNDS.get(label, '')}finite, got {value}"


def _count(label: str, value, least: int) -> str:
    """The message of the rule every count follows."""
    if not isinstance(value, int) or value is True:
        return f"{label!r} must be an integer, got {value!r}"
    return f"{label} must be >= {least}, got {value}"


def _delta(value) -> str:
    if _is_number(value) and 0 < value < np.inf:  # a finite step whose square overflows
        return f"delta must be positive with a finite square, got {value}"
    return _real("delta", value)


def _t_max(value) -> str:
    if not _is_number(value):
        return _real("t_max", value)
    return f"t_max must be finite and > 1e-9, got {value}"


def _n_points(value) -> str:
    if isinstance(value, int) and value is not True and value > cli.MAX_SWEEP_POINTS:
        return f"n_points must be at most {cli.MAX_SWEEP_POINTS}, got {value}"
    return _count("n_points", value, 2)


# parameter -> its message of a value, for the parameters whose bounds are not a name's alone, and the values
# beyond the common ones that probe those bounds.
_OWN_RULES = {"delta": _delta, "t_max": _t_max, "n_points": _n_points}
_EDGES = {"delta": [1e200], "t_max": [1e-9, -1.0], "n_points": [cli.MAX_SWEEP_POINTS + 1]}

# (callable, parameter) -> why no case tries it.
_RESULT = "a field of a result the package returns, not an input"
_AXIS = "an axis formula, whose callers check the angle or frequency and time first"
_EXCUSED = {
    ("FisherResult", "value"): _RESULT,
    ("EstimationRun", "log_likelihood_final"): _RESULT,
    ("EstimationRun", "seed"): _RESULT,
    ("QecConditions", "residual_alpha"): _RESULT,
    ("QecConditions", "residual_beta"): _RESULT,
    ("TrajectoryEnsemble", "n"): _RESULT,
    ("sigma_n_theta", "theta"): _AXIS,
    ("sigma_n_theta_deriv", "theta"): _AXIS,
    ("sigma_n_omega", "omega"): _AXIS,
    ("sigma_n_omega", "t"): _AXIS,
    ("cmd_adapt", "seed"): "an override handed to AdaptiveConfig, whose seed is tried",
    ("cmd_adapt", "reps"): "an override handed to check_campaign_size, whose repetitions are tried",
}
_MODULES = (dynamics, metrology, qec, estimation, cli)


def _numbers(fn) -> dict[str, str]:
    """The parameters annotated as a real or a count, optional or not, by name: "float" or "int"."""
    if isinstance(fn, type) and issubclass(fn, Exception):
        return {}
    kinds = {}
    for p in inspect.signature(fn).parameters.values():
        kind = str(p.annotation).removesuffix(" | None")
        if kind in ("float", "int"):
            kinds[p.name] = kind
    return kinds


def _least(name: str, param: str) -> int:
    return _LEAST.get((name, param), _LEAST.get(param))


def _values(key: str, param: str) -> list:
    name, fn = key.split("/")[0], _ALL[key][0]
    label, kind = _ALIASES.get(name, {}).get(param, param), _numbers(fn)[param]
    if kind == "int":
        least = _least(name, param)
        values = [value for value in dict.fromkeys((0, -1, least - 1)) if value < least] + _NOT_COUNTS
    else:
        values = [np.nan, np.inf, -np.inf, *_BELOW.get(_BOUNDS.get(label), []), *_NON_NUMBERS]
    values += _EDGES.get(param, [])
    optional = inspect.signature(fn).parameters[param].default is None
    return [value for value in values if not (optional and value is None)]


def _expected(key: str, param: str, value) -> str:
    name = key.split("/")[0]
    label = _ALIASES.get(name, {}).get(param, param)
    if param in _OWN_RULES:
        return _OWN_RULES[param](value)
    if _numbers(_ALL[key][0])[param] == "int":
        return _count(label, value, _least(name, param))
    return _real(label, value)


def _arguments(key: str, param: str, value) -> inspect.BoundArguments:
    fn, args, kwargs = _ALL[key]
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    bound.arguments[param] = value
    return bound


_CASES = [(key, param) for key in _ALL for param in _numbers(_ALL[key][0])
          if (key.split("/")[0], param) not in _EXCUSED]
_REALS = [(key, param) for key, param in _CASES if _numbers(_ALL[key][0])[param] == "float"]
_COUNTS = [(key, param) for key, param in _CASES if _numbers(_ALL[key][0])[param] == "int"]


def _public() -> set[tuple[str, str]]:
    """(callable, parameter) of every real and count of a public function, method or class of the modules."""
    pairs = set()
    for module in _MODULES:
        for name, obj in vars(module).items():
            public = not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
            if public and (inspect.isfunction(obj) or inspect.ismethod(obj) or inspect.isclass(obj)):
                pairs |= {(name, param) for param in _numbers(obj)}
    return pairs


def test_the_table_has_every_export() -> None:
    exported = {name for name in fluxmet.__all__ if callable(getattr(fluxmet, name))}
    assert sorted(exported - set(_CALLS)) == []
    assert sorted(set(_CALLS) - exported) == []


def test_every_real_and_count_is_tried_or_excused() -> None:
    tried = {(key.split("/")[0], param) for key, param in _CASES}
    assert sorted(_public() - tried - set(_EXCUSED)) == []
    assert sorted(set(_EXCUSED) - _public()) == []
    assert sorted((set(_OWN_RULES) | set(_EDGES)) - {param for _, param in tried}) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(_ALL))
def test_every_valid_call_returns(name) -> None:
    fn, args, kwargs = _ALL[name]
    fn(*args, **kwargs)


def _wrong(key: str, param: str, value) -> list[str]:
    """What one bad value raised, twice, where it was not the expected refusal: a memo, such as
    qec._memo_code's of a float estimate, keeps no refusal."""
    fn, wrong = _ALL[key][0], []
    bound = _arguments(key, param, value)
    want = DomainError, _expected(key, param, value)
    for _ in range(2):
        try:
            fn(*bound.args, **bound.kwargs)
        except Exception as exc:  # a bare TypeError too, which a refusal should have named
            if (type(exc), str(exc)) != want:
                wrong.append(f"{type(exc).__name__}: {exc}")
        else:
            wrong.append("returned")
    return wrong


def _triples(pairs: list[tuple[str, str]]) -> list:
    """One case a bad value of each (callable, parameter), with its id."""
    return [pytest.param(key, param, value, id=f"{key}-{param}-{'10**400' if value is _HUGE else repr(value)}")
            for key, param in pairs for value in _values(key, param)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, param, value", _triples(_REALS))
def test_a_real_out_of_its_domain_is_refused_by_name(name, param, value) -> None:
    assert _wrong(name, param, value) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, param, value", _triples(_COUNTS))
def test_a_count_out_of_its_domain_is_refused_by_name(name, param, value) -> None:
    assert _wrong(name, param, value) == []
