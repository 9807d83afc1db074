"""Dense complex linear algebra for one- and two-qubit operators and states.

All operators are plain ``numpy`` arrays of complex128. Dimensions are tiny
(2 or 4, hard cap 16), so everything is done with exact spectral
decompositions rather than series approximations. The norm used by the
validation predicates is the maximum absolute entry difference.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 16

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def pauli_op(axis: str) -> np.ndarray:
    """Return the 2x2 Pauli matrix for axis 'x', 'y' or 'z'."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected 'x', 'y' or 'z'")


def max_abs(a: np.ndarray) -> float:
    """Max absolute entry; the default operator distance in this package."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    return max_abs(a - a.conj().T) <= tol


def is_unitary(a: np.ndarray, tol: float = 1e-10) -> bool:
    return max_abs(a.conj().T @ a - np.eye(a.shape[0])) <= tol


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, rejecting results larger than the 16-dim cap."""
    dim = a.shape[0] * b.shape[0]
    if dim > MAX_DIM:
        raise ValueError(f"tensor product dimension {dim} exceeds cap {MAX_DIM}")
    return np.kron(a, b)


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i*h*t) for Hermitian h, via spectral decomposition.

    Raises ValueError if h is not Hermitian within 1e-10.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, 1e-10):
        raise ValueError("expm_hermitian requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def as_state(amplitudes: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Validate and return a pure-state amplitude vector (unit norm)."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm2 = float(np.sum(np.abs(psi) ** 2))
    if abs(norm2 - 1.0) > tol:
        raise ValueError(f"state norm^2 = {norm2!r} is not 1 within {tol}")
    return psi


def ket(dim: int, index: int) -> np.ndarray:
    psi = np.zeros(dim, dtype=complex)
    psi[index] = 1.0
    return psi


def bell_state(which: str = "phi+") -> np.ndarray:
    """One of the four Bell states in the sensor (x) ancilla product basis."""
    s = 1.0 / np.sqrt(2.0)
    table = {
        "phi+": [s, 0, 0, s],
        "phi-": [s, 0, 0, -s],
        "psi+": [0, s, s, 0],
        "psi-": [0, s, -s, 0],
    }
    try:
        return np.array(table[which], dtype=complex)
    except KeyError:
        raise ValueError(f"unknown Bell state {which!r}")


def bell_basis() -> list[np.ndarray]:
    """The four Bell states in readout order: phi+, phi-, psi+, psi-."""
    return [bell_state(k) for k in ("phi+", "phi-", "psi+", "psi-")]


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state from a normalized complex-normal vector."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def density(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def partial_trace(rho: np.ndarray, keep: str = "first") -> np.ndarray:
    """Reduced 2x2 density matrix of a two-qubit density matrix.

    ``keep`` selects which tensor factor survives ('first' or 'second').
    Input must be Hermitian with unit trace within 1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"partial_trace requires a 4x4 matrix, got {rho.shape}")
    if not is_hermitian(rho, 1e-10):
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise ValueError("density matrix must have unit trace")
    r = rho.reshape(2, 2, 2, 2)
    if keep == "first":
        return np.einsum("ikjk->ij", r)
    if keep == "second":
        return np.einsum("kikj->ij", r)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def pure_cov(psi: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Symmetrized covariance  <{a,b}>/2 - <a><b>  in the pure state psi.

    Both operators must be Hermitian and match the state dimension. A stack
    of states (..., d) gives the covariances over the stack.
    """
    psi = np.asarray(psi, dtype=complex)
    d = psi.shape[-1]
    if a.shape != (d, d) or b.shape != (d, d):
        raise ValueError("operator dimensions do not match the state")
    if not (is_hermitian(a, 1e-10) and is_hermitian(b, 1e-10)):
        raise ValueError("pure_cov requires Hermitian operators")
    apsi = psi @ a.T
    bpsi = psi @ b.T
    ea = np.einsum("...i,...i->...", psi.conj(), apsi).real
    eb = np.einsum("...i,...i->...", psi.conj(), bpsi).real
    # Re<a psi|b psi> = <{a,b}>/2
    eab = np.einsum("...i,...i->...", apsi.conj(), bpsi).real
    return eab - ea * eb
