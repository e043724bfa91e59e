"""Dense complex linear algebra for small dimensions (2, 4, up to 16).

All matrices are plain ``numpy.ndarray`` of ``complex128``; this module only
adds the contract checks and conventions the rest of the package relies on.
It needs numpy alone, so no scipy import weighs on the start-up of a CLI
process.  :func:`expm` has no caller in the package; it is kept, through the
:func:`hermitian_eig` that the PSD square root uses, as a name the benchmark wraps.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError, NonHermitianError, NotPsdError

MAX_DIM = 16
_HERMITIAN_TOL = 1e-10  # largest |h - h^dag| entry an eigendecomposition accepts
_STATE_TOL = 1e-8  # Hermiticity, trace and negative-eigenvalue slack of a state

sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
sigma2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
sigma3 = np.array([[1, 0], [0, -1]], dtype=complex)
eye2 = np.eye(2, dtype=complex)


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise DomainError("matrix has non-finite entries")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the package's dimension cap: ``np.kron`` bit for bit, one product an entry."""
    a, b = _as_square(a), _as_square(b)
    dim = a.shape[0] * b.shape[0]
    if dim > MAX_DIM:
        raise DimensionError(f"kron result dimension {dim} exceeds {MAX_DIM}")
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(dim, dim)


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    h : ndarray
        Hermitian matrix; ``max |h - h^dag|`` must be below 1e-10.

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues ascending; eigenvectors as columns, orthonormal.
    """
    h = _as_square(h)
    defect = np.max(np.abs(h - h.conj().T))
    if defect >= _HERMITIAN_TOL:
        raise NonHermitianError(f"matrix is not Hermitian: max |h - h^dag| = {defect:.3e}")
    w, v = np.linalg.eigh(h)
    return w, v


def expm(a: np.ndarray) -> np.ndarray:
    """Unitary exponential of a skew-Hermitian ``a = -i h``: ``v exp(-i w) v^dag`` for ``h = v w v^dag``.

    Any other ``a`` raises :class:`NonHermitianError` from :func:`hermitian_eig`.
    """
    w, v = hermitian_eig(1j * np.asarray(a, dtype=complex))
    return (v * np.exp(-1j * w)) @ v.conj().T


def sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues in ``[-1e-8, 0)`` are taken as round-off and clipped to zero;
    a more negative one raises :class:`NotPsdError`.
    """
    w, v = hermitian_eig(rho)
    if w[0] < -_STATE_TOL:
        raise NotPsdError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    s = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (s + s.conj().T)


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity of a state (to 1e-8)."""
    rho = _as_square(rho)
    if np.max(np.abs(rho - rho.conj().T)) > _STATE_TOL:
        raise NonHermitianError("density matrix is not Hermitian")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > _STATE_TOL:
        raise DomainError(f"density matrix trace is {tr!r}, expected 1")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w[0] < -_STATE_TOL:
        raise NotPsdError(f"density matrix has negative eigenvalue {w[0]:.3e}")
    return rho
