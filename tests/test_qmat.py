"""Dense complex linear algebra substrate."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from fluxmet.dynamics import theta_model
from fluxmet.errors import (
    DimensionError,
    DomainError,
    NonHermitianError,
    NotPsdError,
)
from fluxmet.qmat import (
    check_density_matrix,
    expm,
    hermitian_eig,
    kron,
    sqrtm_psd,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def test_kron_identity() -> None:
    assert np.array_equal(kron(EYE2, EYE2), np.eye(4, dtype=complex))


def test_kron_bitflip_on_bell() -> None:
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    flipped = kron(SIGMA1, EYE2) @ bell
    expected = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    assert np.allclose(flipped, expected, atol=1e-15)


def test_kron_sigma3_sigma3_eigenvalues() -> None:
    vals, _ = hermitian_eig(kron(SIGMA3, SIGMA3))
    assert np.allclose(np.sort(vals), [-1, -1, 1, 1], atol=1e-12)


def test_kron_mixed_product_property() -> None:
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_kron_dimension_cap() -> None:
    big = np.eye(8, dtype=complex)
    with pytest.raises(DimensionError):
        kron(big, np.eye(4, dtype=complex))


def test_hermitian_eig_sigma3() -> None:
    vals, vecs = hermitian_eig(SIGMA3)
    assert np.allclose(vals, [-1, 1], atol=1e-12)
    assert abs(abs(vecs[1, 0]) - 1) < 1e-12  # lowest eigenvector is |1>
    assert abs(abs(vecs[0, 1]) - 1) < 1e-12


def test_hermitian_eig_pauli_axis() -> None:
    n = np.cos(np.pi / 4) * SIGMA1 + np.sin(np.pi / 4) * SIGMA3
    vals, _ = hermitian_eig(n)
    assert np.allclose(vals, [-1, 1], atol=1e-12)


def test_hermitian_eig_dephased_bell_spectrum() -> None:
    # Bell state through the dephasing channel: eigenvalues {0, 0, (1-eta)/2, (1+eta)/2}.
    from fluxmet.dynamics import bell_probe, dephasing_kraus

    k1, k2 = dephasing_kraus(0.1, 0.05, 5.0, np.pi / 4)
    psi = bell_probe()
    rho = sum(kron(k, EYE2) @ np.outer(psi, psi.conj()) @ kron(k, EYE2).conj().T for k in (k1, k2))
    vals, _ = hermitian_eig(rho)
    eta = np.exp(-0.5)
    assert np.allclose(np.sort(vals), [0, 0, (1 - eta) / 2, (1 + eta) / 2], atol=1e-12)


def test_hermitian_eig_reconstruction_random() -> None:
    rng = np.random.default_rng(11)
    for _ in range(1000):
        h = random_hermitian(4, rng)
        vals, vecs = hermitian_eig(h)
        recon = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.max(np.abs(recon - h)) < 1e-9
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) < 1e-10


def test_hermitian_eig_rejects_non_hermitian() -> None:
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_expm_zero() -> None:
    assert np.allclose(expm(np.zeros((3, 3), dtype=complex)), np.eye(3), atol=1e-14)


def test_expm_pauli_rotation() -> None:
    assert np.allclose(expm(-1j * (np.pi / 2) * SIGMA1), -1j * SIGMA1, atol=1e-12)


def test_expm_taylor_oracle() -> None:
    # Independent route: term-wise Taylor summation of a = -i h.
    rng = np.random.default_rng(3)
    a = -0.8j * random_hermitian(4, rng)
    series = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, 40):
        term = term @ a / k
        series = series + term
    assert np.allclose(expm(a), series, atol=1e-12)


def test_expm_axis_rotation_closed_form() -> None:
    got = expm(-1j * 1.0 * SIGMA1)  # Bt = 1, axis angle 0
    want = np.cos(1.0) * EYE2 - 1j * np.sin(1.0) * SIGMA1
    assert np.allclose(got, want, atol=1e-12)


def test_expm_unitarity_for_hermitian_generators() -> None:
    rng = np.random.default_rng(5)
    for _ in range(50):
        h = random_hermitian(4, rng)
        u = expm(-1j * h)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10


def _expm_rel_err(a: np.ndarray) -> float:
    want = scipy.linalg.expm(a)
    return float(np.max(np.abs(expm(a) - want)) / max(1.0, np.max(np.abs(want))))


@pytest.mark.parametrize("dim", [2, 4, 16])
@pytest.mark.parametrize("kind", ["anti_hermitian"])
def test_expm_matches_scipy_oracle(dim, kind) -> None:
    # scipy.linalg.expm, a test-only dependency, is the oracle: -i h
    # (h Hermitian), rescaled to 1-norms from 1e-8 to 1e2.
    rng = np.random.default_rng(dim)
    for norm in np.logspace(-8, 2, 21):
        for _ in range(4):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            if kind == "anti_hermitian":
                a = -1j * (a + a.conj().T) / 2
            a *= norm / np.linalg.norm(a, 1)
            assert _expm_rel_err(a) < 1e-12, (norm, a)


def test_expm_matches_scipy_on_angle_task_hamiltonian() -> None:
    # The angle task's 4x4 Hamiltonian, the unitary part of its dynamics.
    h = theta_model(0.1, 0.05, np.pi / 4).hamiltonian
    for t in (0.1, 5.0, 20.0):
        assert _expm_rel_err(-1j * t * h) < 1e-12, t


def test_expm_rejects_angle_task_liouvillian() -> None:
    # Row-major vectorised Lindbladian of the angle task (16x16):
    # -i(H x I - I x H^T) + sum_l [l x l* - (l^dag l x I)/2 - (I x (l^dag l)^T)/2].
    # Its decay part makes it non-normal, so it has no unitary exponential.
    model = theta_model(0.1, 0.05, np.pi / 4)
    eye4 = np.eye(4)
    h = model.hamiltonian
    gen = -1j * (np.kron(h, eye4) - np.kron(eye4, h.T))
    for l in model.lindblads:
        ll = l.conj().T @ l
        gen += np.kron(l, l.conj()) - 0.5 * np.kron(ll, eye4) - 0.5 * np.kron(eye4, ll.T)
    with pytest.raises(NonHermitianError):
        expm(gen)


@pytest.mark.parametrize(
    "bad, error",
    [(np.zeros((2, 3)), DimensionError), (np.array([[0.0, np.nan], [0.0, 0.0]]), ValueError)],
    ids=["non_square", "non_finite"],
)
def test_expm_rejects_non_square_or_non_finite(bad, error) -> None:
    with pytest.raises(error):
        expm(bad)


def test_expm_rejects_non_skew_hermitian() -> None:
    with pytest.raises(NonHermitianError):
        expm(np.array([[0, 1], [0, 0]], dtype=complex))


def test_sqrtm_psd_scalar_matrix() -> None:
    assert np.allclose(sqrtm_psd(EYE2 / 2), EYE2 / np.sqrt(2), atol=1e-12)


def test_sqrtm_psd_projector() -> None:
    p = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(sqrtm_psd(p), p, atol=1e-12)


def test_sqrtm_psd_diagonal() -> None:
    got = sqrtm_psd(np.diag([0.25, 0.75]).astype(complex))
    assert np.allclose(got, np.diag([0.5, np.sqrt(0.75)]), atol=1e-12)


def test_sqrtm_psd_squares_back() -> None:
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        s = sqrtm_psd(rho)
        assert np.max(np.abs(s @ s - rho)) < 1e-9 * max(1.0, np.max(np.abs(rho)))


def test_sqrtm_psd_rejects_indefinite() -> None:
    with pytest.raises(NotPsdError):
        sqrtm_psd(np.diag([1.0, -0.5]).astype(complex))


def test_check_density_matrix_accepts_valid() -> None:
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert np.allclose(check_density_matrix(rho), rho)


def test_check_density_matrix_rejects_bad_trace() -> None:
    with pytest.raises(DomainError):
        check_density_matrix(np.diag([0.5, 0.75]).astype(complex))
