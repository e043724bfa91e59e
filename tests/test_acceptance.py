"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with the measured values once all of its
assertions hold; `pytest -v` therefore shows one pass/fail line per
criterion.  Tolerances are pinned in the assertions.
"""

from __future__ import annotations

import time

import numpy as np

from fluxmet.cli import load_model_file, resolve_model_path
from fluxmet.dynamics import (
    LindbladModel,
    bell_probe,
    dephasing_kraus,
    lindblad_evolve,
    sigma_n_theta,
    theta_model,
    trajectory_average_state,
    trajectory_outcome_probability,
)
from fluxmet.estimation import AdaptiveConfig, campaign_estimates
from fluxmet.metrology import (
    cfi,
    cfi_omega_qec_closed,
    cfi_theta_qec_closed,
    bell_basis_distribution_theta_free,
    qfi_omega_qec_closed,
    qfi_omega_unitary_controlled,
    qfi_sld_numeric,
    qfi_theta_free_closed,
    qfi_theta_qec_closed,
    qfi_theta_unitary_controlled,
)
from fluxmet.qec import (
    asymptotic_qfi,
    check_qec_conditions,
    code_probe,
    corrected_evolve_omega,
    corrected_evolve_theta,
    corrected_state_omega_closed,
    corrected_state_theta_closed,
    expansion_superoperators,
)
from fluxmet.qmat import eye2, kron

B = 0.1
GAMMA = 0.05
T = 5.0


def _bell_density() -> np.ndarray:
    bell = bell_probe()
    return np.outer(bell, bell.conj())


def test_criterion_1_theta_closed_forms_and_numeric_route() -> None:
    """Angle task at the operating point: 2.0 corrected vs 1.0 baseline."""
    start = time.monotonic()
    j_qec = qfi_theta_qec_closed(B, GAMMA, T, 0.0).value
    j_unitary = qfi_theta_unitary_controlled(B, T, 0.0).value
    assert abs(j_qec - 2.0) < 1e-12
    assert abs(j_unitary - 1.0) < 1e-12

    def corrected(th: float) -> np.ndarray:
        return corrected_evolve_theta(B, GAMMA, th, np.pi / 4, T, n_recoveries=1000, dt=5e-3)

    j_sld = qfi_sld_numeric(corrected, np.pi / 4).value
    assert abs(j_sld - 2.0) / 2.0 < 1e-3

    sn_hat = kron(sigma_n_theta(np.pi / 4), eye2)

    def unitary(th: float) -> np.ndarray:
        model = LindbladModel(
            dim=4,
            hamiltonian=B * (kron(sigma_n_theta(th), eye2) - sn_hat),
            lindblads=[],
        )
        return lindblad_evolve(model, _bell_density(), T, dt=5e-3)

    j_sld_u = qfi_sld_numeric(unitary, np.pi / 4).value
    assert abs(j_sld_u - 1.0) < 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"criterion 1: PASS (qec {j_qec:.12f}, unitary {j_unitary:.12f}, "
        f"sld {j_sld:.6f}/{j_sld_u:.6f}, {elapsed:.1f}s)"
    )


def test_criterion_2_omega_closed_forms_and_numeric_route() -> None:
    """Frequency task at the operating point: 14.58333 corrected vs 6.25."""
    start = time.monotonic()
    j_qec = qfi_omega_qec_closed(B, GAMMA, T, 0.0).value
    j_unitary = qfi_omega_unitary_controlled(B, T, 0.0).value
    assert abs(j_qec - (B**2 * T**4 + (4.0 / 3.0) * GAMMA * T**3)) < 1e-12
    assert abs(j_qec - 14.58333) < 5e-6
    assert abs(j_unitary - 6.25) < 1e-12

    def corrected(om: float) -> np.ndarray:
        return corrected_evolve_omega(B, GAMMA, om, 0.25, T, n_recoveries=2000, dt=2.5e-3)

    j_sld = qfi_sld_numeric(corrected, 0.25, delta=5e-4).value
    assert abs(j_sld - j_qec) / j_qec < 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"criterion 2: PASS (qec {j_qec:.10f}, unitary {j_unitary:.4f}, "
        f"sld {j_sld:.6f}, {elapsed:.1f}s)"
    )


def test_criterion_3_free_evolution_crossover() -> None:
    """Fluctuation gain 4*gamma*t at short times, loss at long times."""
    for t in (0.02, 0.05, 0.1):
        gain = qfi_theta_free_closed(B, GAMMA, t).value - 4 * np.sin(B * t) ** 2
        assert gain > 0
        assert abs(gain - 4 * GAMMA * t) <= 0.01 * (4 * GAMMA * t)
    t_long = 16.0
    assert GAMMA * t_long > 0.5
    j_long = qfi_theta_free_closed(B, GAMMA, t_long).value
    assert j_long < 4 * np.sin(B * t_long) ** 2

    checked = []
    for t, dt in ((0.1, 1e-3), (t_long, 4e-3)):

        def free(th: float, t: float = t, dt: float = dt) -> np.ndarray:
            return lindblad_evolve(theta_model(B, GAMMA, th), _bell_density(), t, dt=dt)

        j_sld = qfi_sld_numeric(free, np.pi / 4).value
        j_closed = qfi_theta_free_closed(B, GAMMA, t).value
        assert abs(j_sld - j_closed) < 1e-4
        checked.append(abs(j_sld - j_closed))
    print(
        "criterion 3: PASS (gain within 1% for t<=0.1, crossover at t=16, "
        f"sld diffs {checked[0]:.1e}/{checked[1]:.1e})"
    )


def test_criterion_4_trajectory_ensemble_equivalence() -> None:
    """1e5 sampled-phase pure states against the master equation."""
    start = time.monotonic()
    n = 100_000
    rng = np.random.default_rng(2024)
    ens = trajectory_average_state(B, GAMMA, T, np.pi / 4, n, rng)
    rho = lindblad_evolve(theta_model(B, GAMMA, np.pi / 4), _bell_density(), T, dt=1e-3)
    diff = ens.mean - rho
    assert np.all(np.abs(diff.real) <= 3 * ens.sem_real + 1e-12)
    assert np.all(np.abs(diff.imag) <= 3 * ens.sem_imag + 1e-12)

    beta = 0.3
    p_mc = trajectory_outcome_probability(B, GAMMA, T, beta, n, np.random.default_rng(2025))
    p_closed = 0.5 * (1 + np.exp(-2 * GAMMA * T) * np.cos(2 * B * T + 2 * beta))
    assert abs(p_mc - p_closed) < 0.003
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"criterion 4: PASS (3-sigma bands hold, |p-p_closed| = {abs(p_mc - p_closed):.4f}, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_5_recovery_interval_convergence() -> None:
    """Stepwise evolve+recover error halves with the recovery interval."""
    intervals = (0.01, 0.005, 0.0025)
    closed_t = corrected_state_theta_closed(B, GAMMA, np.pi / 4 + 0.05, np.pi / 4, T)
    errs_theta = [
        float(
            np.linalg.norm(
                corrected_evolve_theta(
                    B, GAMMA, np.pi / 4 + 0.05, np.pi / 4, T,
                    n_recoveries=int(round(T / dv)), dt=2.5e-3,
                )
                - closed_t
            )
        )
        for dv in intervals
    ]
    closed_o = corrected_state_omega_closed(B, GAMMA, 0.30, 0.25, T)
    errs_omega = [
        float(
            np.linalg.norm(
                corrected_evolve_omega(
                    B, GAMMA, 0.30, 0.25, T, n_recoveries=int(round(T / dv)), dt=2.5e-3
                )
                - closed_o
            )
        )
        for dv in intervals
    ]
    for errs, cap in ((errs_theta, 1e-5), (errs_omega, 3e-4)):
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < cap
        assert 1.8 < errs[0] / errs[1] < 2.2
        assert 1.8 < errs[1] / errs[2] < 2.2
    print(
        f"criterion 5: PASS (theta ratios {errs_theta[0] / errs_theta[1]:.3f}/"
        f"{errs_theta[1] / errs_theta[2]:.3f}, omega {errs_omega[0] / errs_omega[1]:.3f}/"
        f"{errs_omega[1] / errs_omega[2]:.3f})"
    )


def test_criterion_6_general_engine_worked_example() -> None:
    """Bundled model through conditions, expansion and the information value."""
    model, code = load_model_file(resolve_model_path("theta_example"))
    conditions = check_qec_conditions(model, code)
    assert conditions.residual_alpha < 1e-12
    assert conditions.residual_beta < 1e-12
    report = expansion_superoperators(model, code)
    c0, c1 = code.basis(0.0)
    sigma3_c = np.outer(c0, c0.conj()) - np.outer(c1, c1.conj())
    assert np.max(np.abs(report.l1_generator - B * sigma3_c)) < 1e-10
    psi = code_probe(code)
    rho = np.outer(psi, psi.conj())
    expected_l2 = GAMMA * (sigma3_c @ rho @ sigma3_c - rho)
    assert np.max(np.abs(report.l2_action.apply(rho) - expected_l2)) < 1e-10
    j = asymptotic_qfi(report, psi, T).value
    assert abs(j - (4 * B**2 * T**2 + 4 * GAMMA * T)) < 1e-10
    print(f"criterion 6: PASS (generator, dephasing action and value {j:.12f})")


def _pooled_final_sq_errors(
    task: str,
    strategy: str,
    true_value: float,
    guesses: tuple[float, float],
    grid: tuple[float, float, float] | None,
) -> np.ndarray:
    base_seed = 20240811
    chunks = []
    for k, guess in enumerate(guesses):
        cfg = AdaptiveConfig(
            true_value=true_value,
            initial_guess=guess,
            seed=base_seed + k * 2**20,
            strategy=strategy,
            grid=grid,
        )
        table = campaign_estimates(cfg, 500, task=task)
        chunks.append((table[:, -1] - true_value) ** 2)
    return np.concatenate(chunks)


def _welch_z(worse: np.ndarray, better: np.ndarray) -> float:
    var = worse.var(ddof=1) / worse.size + better.var(ddof=1) / better.size
    return float((worse.mean() - better.mean()) / np.sqrt(var))


def test_criterion_7_estimation_campaigns() -> None:
    """Final MSE within factor 2 of the CRB and below the unitary strategy."""
    start = time.monotonic()
    floor_factor = 1.0 - 3.0 / np.sqrt(1000.0)

    sq_qec_t = _pooled_final_sq_errors("theta", "qec_corrected", np.pi / 4, (0.0, np.pi / 2), None)
    sq_uni_t = _pooled_final_sq_errors(
        "theta", "unitary_controlled", np.pi / 4, (0.0, np.pi / 2), None
    )
    crb_t = 1.0 / (100.0 * 2.0)
    mse_qec_t = float(sq_qec_t.mean())
    mse_uni_t = float(sq_uni_t.mean())
    assert 0.5 * crb_t <= mse_qec_t <= 2.0 * crb_t
    assert mse_qec_t >= floor_factor * crb_t
    assert mse_uni_t >= floor_factor * 1.0 / (100.0 * 1.0)
    z_t = _welch_z(sq_uni_t, sq_qec_t)
    assert z_t > 1.645

    grid_o = (0.2, 0.4, 1e-4)
    sq_qec_o = _pooled_final_sq_errors("omega", "qec_corrected", 0.3, (0.2, 0.4), grid_o)
    sq_uni_o = _pooled_final_sq_errors("omega", "unitary_controlled", 0.3, (0.2, 0.4), grid_o)
    crb_o = 1.0 / (100.0 * (B**2 * T**4 + (4.0 / 3.0) * GAMMA * T**3))
    mse_qec_o = float(sq_qec_o.mean())
    mse_uni_o = float(sq_uni_o.mean())
    assert 0.5 * crb_o <= mse_qec_o <= 2.0 * crb_o
    assert mse_qec_o >= floor_factor * crb_o
    assert mse_uni_o >= floor_factor * 1.0 / (100.0 * 6.25)
    z_o = _welch_z(sq_uni_o, sq_qec_o)
    assert z_o > 1.645

    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(
        f"criterion 7: PASS (theta mse {mse_qec_t:.4e} vs unitary {mse_uni_t:.4e} z={z_t:.1f}; "
        f"omega mse {mse_qec_o:.4e} vs unitary {mse_uni_o:.4e} z={z_o:.1f}; {elapsed:.0f}s)"
    )


def test_criterion_8_information_inequalities() -> None:
    """CFI never exceeds QFI; the designed measurements saturate it on axis."""
    ts = np.arange(1.0, 11.0)
    for t in ts:
        for d in (0.0, 0.05, 0.1):
            c = cfi_theta_qec_closed(B, GAMMA, t, d).value
            q = qfi_theta_qec_closed(B, GAMMA, t, d).value
            assert c <= q + 1e-8
            c = cfi_omega_qec_closed(B, GAMMA, t, d).value
            q = qfi_omega_qec_closed(B, GAMMA, t, d).value
            assert c <= q + 1e-8
        c_free = cfi(
            lambda th, t=t: bell_basis_distribution_theta_free(B, GAMMA, t, th), np.pi / 4
        ).value
        assert c_free <= qfi_theta_free_closed(B, GAMMA, t).value + 1e-8
    worst_t = max(
        abs(cfi_theta_qec_closed(B, GAMMA, t, 0.0).value - qfi_theta_qec_closed(B, GAMMA, t, 0.0).value)
        for t in ts
    )
    worst_o = max(
        abs(cfi_omega_qec_closed(B, GAMMA, t, 0.0).value - qfi_omega_qec_closed(B, GAMMA, t, 0.0).value)
        for t in ts
    )
    assert worst_t < 1e-6
    assert worst_o < 1e-6
    print(f"criterion 8: PASS (optimality gaps {worst_t:.1e}/{worst_o:.1e})")


def test_criterion_9_kraus_lindblad_identity() -> None:
    """The two-Kraus channel equals master-equation propagation."""
    rng = np.random.default_rng(99)
    psi = rng.normal(size=(100, 4)) + 1j * rng.normal(size=(100, 4))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    rhos = psi[:, :, None] * psi[:, None, :].conj()
    k1, k2 = dephasing_kraus(B, GAMMA, T, np.pi / 4)
    k14, k24 = kron(k1, eye2), kron(k2, eye2)
    out_kraus = k14 @ rhos @ k14.conj().T + k24 @ rhos @ k24.conj().T
    model = theta_model(B, GAMMA, np.pi / 4)
    out_lind = np.stack([lindblad_evolve(model, rho, T, dt=2e-3) for rho in rhos])
    worst = float(np.max(np.abs(out_kraus - out_lind)))
    assert worst < 1e-6
    print(f"criterion 9: PASS (max deviation {worst:.2e} over 100 random states)")
