"""Dense complex linear algebra for one- and two-qubit operators and states.

All operators are plain ``numpy`` arrays of complex128. Dimensions are tiny
(2 or 4, hard cap 16), so everything is done with exact spectral
decompositions rather than series approximations. The norm used by the
validation predicates is the maximum absolute entry difference.
``index_normals`` gives the per-index ``default_rng([seed, i])`` normal
streams that the random probes and the shot noise draw from.
"""

from __future__ import annotations

import operator

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
    """a, or each matrix of a stack, is Hermitian within tol (NaN is not)."""
    return max_abs(a - np.swapaxes(a.conj(), -1, -2)) <= tol


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


# numpy's SeedSequence (NEP 19): pool size, hash and mix constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hasher(init: int, mult: int):
    """SeedSequence's hash of uint32 arrays, whose constant steps per call."""
    const = init

    def hash_words(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)
    return hash_words


def _mix(x, y):
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ (r >> 16)


def _pcg64_states(entropy: np.ndarray):
    """Yield the PCG64 (state, inc) that SeedSequence seeds from each
    column of the (words, n) uint32 ``entropy``, as default_rng does."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    words = len(entropy)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < words else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, words):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))
    # generate_state(4, uint64): 8 words cycling the pool, paired low first
    hash_state = _hasher(_INIT_B, _MULT_B)
    w = [hash_state(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    s0, s1, q0, q1 = ((w[i] | w[i + 1] << np.uint64(32)).tolist()
                      for i in range(0, 8, 2))
    for a, b, c, d in zip(s0, s1, q0, q1):  # pcg_setseq_128_srandom_r
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        yield ((a << 64 | b) + inc) * _PCG_MULT + inc & _MASK128, inc


def index_normals(seed: int, n: int, size: int) -> np.ndarray:
    """The (n, size) standard normals whose row i is, bit for bit,
    ``np.random.default_rng([seed, i]).standard_normal(size)``.

    Every index's SeedSequence is hashed in one batch; each draw re-states
    one PCG64 and runs numpy's own normal sampler. The first and last rows
    are checked against default_rng itself, so a numpy whose seeding
    differs raises RuntimeError rather than drawing other numbers.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 0 <= n <= 2**32:  # beyond, an index spans two entropy words
        raise ValueError(f"need 0 <= n <= 2**32 indices, got {n}")
    # the seed's uint32 words, low first; 0 is the one word [0]
    words = [seed >> s & _MASK32 for s in range(0, seed.bit_length() or 1, 32)]
    entropy = np.empty((len(words) + 1, n), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(n, dtype=np.uint32)
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    out = np.empty((n, size))
    for row, (state, inc) in zip(out, _pcg64_states(entropy)):
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        gen.standard_normal(out=row)
    for i in {0, n - 1} if n else ():
        if (np.random.default_rng([seed, i]).standard_normal(size).tobytes()
                != out[i].tobytes()):
            raise RuntimeError(
                f"index_normals row {i} of seed {seed} differs from "
                "default_rng: numpy's seeding has changed")
    return out


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
