"""Dense complex linear algebra for small dimensions (2, 4, up to 16).

All matrices are plain ``numpy.ndarray`` of ``complex128``; this module only
adds the contract checks and conventions the rest of the package relies on.
It needs numpy alone: the matrix exponential is computed here rather than
by scipy, whose import would dominate the start-up of every CLI process.
"""

from __future__ import annotations

import math

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


# Coefficients b_0..b_13 of the [13/13] Pade approximant to exp, and the
# largest 1-norm at which it is accurate to double precision unscaled
# (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the [13/13] Pade approximant.

    ``a`` is scaled by 2**-s so that its 1-norm is at most 5.37, the
    approximant r = (v - u)^-1 (v + u) is formed from the even (v) and odd
    (u) parts of the Pade numerator, and r is squared s times (Higham 2005).
    """
    a = _as_square(a)
    norm = np.linalg.norm(a, 1)
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = a / 2.0**s
    b = _PADE13
    eye = np.eye(a.shape[0], dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


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
