"""Fluctuation-enhanced quantum metrology: simulation and analysis toolkit.

Noise generated by the same fluctuating field that carries the signal is not
pure nuisance: with an entangled probe, an adaptive two-operator recovery
and a code built at the running estimate, the dephasing itself contributes
Fisher information.  This package simulates the corrected and uncorrected
dynamics, evaluates the information bounds along closed-form and numeric
routes, and runs the adaptive estimation protocol end to end.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .dynamics import (
    LindbladModel,
    bell_probe,
    dephasing_kraus,
    lindblad_evolve,
    omega_model,
    sample_phases,
    theta_model,
)
from .errors import (
    ConfigError,
    CrossCheckError,
    DegenerateErrorSpaceError,
    DimensionError,
    DomainError,
    FluxmetError,
    InstabilityError,
    LeakageError,
    NonHermitianError,
    NotPsdError,
    NumericError,
    QecConditionError,
    StepError,
)
from .estimation import (
    AdaptiveConfig,
    EstimationRun,
    campaign_estimates,
    mse_campaign,
    outcome_probability,
    run_adaptive,
)
from .metrology import (
    FisherResult,
    MeasurementDistribution,
    cfi,
    fidelity,
    fidelity_qubit,
    qfi_B_trajectory_averaged,
    qfi_fidelity_fd,
    qfi_omega_qec_closed,
    qfi_omega_unitary_controlled,
    qfi_sld,
    qfi_sld_numeric,
    qfi_theta_free_closed,
    qfi_theta_qec_closed,
    qfi_theta_unitary_controlled,
    sld,
)
from .qec import (
    GeneralQecReport,
    QecCode,
    QecConditions,
    apply_recovery,
    asymptotic_qfi,
    check_qec_conditions,
    corrected_evolve_omega,
    corrected_evolve_theta,
    corrected_state_omega_closed,
    corrected_state_theta_closed,
    expansion_superoperators,
    omega_code,
    theta_code,
)

__all__ = [
    "__version__",
    "AdaptiveConfig",
    "ConfigError",
    "CrossCheckError",
    "DegenerateErrorSpaceError",
    "DimensionError",
    "DomainError",
    "EstimationRun",
    "FisherResult",
    "FluxmetError",
    "GeneralQecReport",
    "InstabilityError",
    "LeakageError",
    "LindbladModel",
    "MeasurementDistribution",
    "NonHermitianError",
    "NotPsdError",
    "NumericError",
    "QecCode",
    "QecConditions",
    "QecConditionError",
    "StepError",
    "apply_recovery",
    "asymptotic_qfi",
    "bell_probe",
    "cfi",
    "check_qec_conditions",
    "corrected_evolve_omega",
    "corrected_evolve_theta",
    "corrected_state_omega_closed",
    "corrected_state_theta_closed",
    "dephasing_kraus",
    "expansion_superoperators",
    "fidelity",
    "fidelity_qubit",
    "lindblad_evolve",
    "campaign_estimates",
    "mse_campaign",
    "omega_code",
    "omega_model",
    "outcome_probability",
    "qfi_B_trajectory_averaged",
    "qfi_fidelity_fd",
    "qfi_omega_qec_closed",
    "qfi_omega_unitary_controlled",
    "qfi_sld",
    "qfi_sld_numeric",
    "qfi_theta_free_closed",
    "qfi_theta_qec_closed",
    "qfi_theta_unitary_controlled",
    "run_adaptive",
    "sample_phases",
    "sld",
    "theta_code",
    "theta_model",
]
