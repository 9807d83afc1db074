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
from functools import cache

import numpy as np

MAX_DIM = 16

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _pauli in (I2, SIGMA_X, SIGMA_Y, SIGMA_Z):  # shared: read-only
    _pauli.flags.writeable = False

_NORM_TOL = 1e-12  # how far a pure state's norm^2 may stand from 1


def max_abs(a: np.ndarray) -> float:
    """Max absolute entry; the default operator distance in this package."""
    return float(np.abs(a).max()) if a.size else 0.0


def _check_count(value, name: str, minimum: int = 0) -> None:
    """Raise ValueError naming ``name`` unless ``value``, one count or an
    array of them, holds integers, not bools, of at least ``minimum``."""
    if type(value) is int and minimum <= value < 2**64:  # int64 or uint64
        return
    if np.asarray(value).dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if np.any(np.asarray(value) < minimum):
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def is_hermitian(a: np.ndarray) -> bool:
    """a, or each matrix of a stack, is Hermitian within 1e-10 (NaN is not)."""
    return max_abs(a - a.conj().swapaxes(-1, -2)) <= 1e-10


def is_unitary(a: np.ndarray) -> bool:
    """a^dagger a is the identity within 1e-10."""
    return max_abs(a.conj().T @ a - np.eye(a.shape[0])) <= 1e-10


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
    if not is_hermitian(h):
        raise ValueError("expm_hermitian requires a Hermitian matrix")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def as_state(amplitudes: np.ndarray) -> np.ndarray:
    """Validate and return a pure-state amplitude vector (norm 1 +- 1e-12)."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm2 = float(np.sum(np.abs(psi) ** 2))
    if not abs(norm2 - 1.0) <= _NORM_TOL:  # NaN too
        raise ValueError(f"state norm^2 = {norm2!r} is not 1 within {_NORM_TOL}")
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
# PCG64's 128-bit LCG multiplier, its inverse, and its halves and 32-bit
# limbs as uint64
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_M_HI, _M_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
_M_LO0 = np.uint64(_PCG_MULT & _MASK32)
_M_LO1 = np.uint64(_PCG_MULT >> 32 & _MASK32)
_LOW32 = np.uint64(_MASK32)
# Chunks of at least _BATCH_ROWS_PER_DRAW rows per draw, of at most
# _BATCH_SIZE draws a row, take the batch path; the others draw row by row.
# Measured against the row loop with numpy 2.4 on x86-64 (least of repeated
# in-process calls), the batch breaks even near 16 rows at size 1, 24 at
# size 2, 30 at 3, 80 at 8 and 180 at 16. At size 32 it breaks even only
# near 1,000 rows, as a third of its rows leave the fast branch. Its first
# call in a process also probes numpy's ziggurat tables, 512 draws, one
# PCG64 state each: 1.8 to 2.1 ms warm and 2.2 to 2.6 ms first in a
# process, on a 2-vCPU x86-64 guest, as the host's speed varied.
_BATCH_ROWS_PER_DRAW, _BATCH_SIZE = 16, 16
# rows per chunk, which bounds the batch's transient arrays
_CHUNK_ROWS = 4096


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


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * M + inc mod 2**128, over uint64 arrays of
    the (high, low) halves. The one full 64 x 64-bit product, lo times M's
    low half, is taken in 32-bit limbs so that every partial product fits."""
    a0, a1 = lo & _LOW32, lo >> np.uint64(32)
    t = a0 * _M_LO0
    u = a1 * _M_LO0 + (t >> np.uint64(32))
    v = a0 * _M_LO1 + (u & _LOW32)
    hi = (a1 * _M_LO1 + (u >> np.uint64(32)) + (v >> np.uint64(32))
          + hi * _M_LO + lo * _M_HI + inc_hi)
    lo = lo * _M_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _seed_words(entropy: np.ndarray):
    """SeedSequence's generate_state(4, uint64) of each column of the
    (words, n) uint32 ``entropy``: the uint64 arrays (s_hi, s_lo, q_hi,
    q_lo) that default_rng seeds its PCG64 from."""
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
    return [w[i] | w[i + 1] << np.uint64(32) for i in range(0, 8, 2)]


def _xsl_rr(state: int) -> int:
    """PCG64's output of a 128-bit state: rotr64(hi ^ lo, hi >> 58)."""
    x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
    return (x >> rot | x << (64 - rot)) & _MASK64


def _probe(bits, gen, r: int):
    """numpy's standard normal from a PCG64 whose outputs run r, 0: the
    normal, and the number of outputs it took, 1, 2, or 0 for more."""
    inc = -r * _PCG_MULT & _MASK128  # so the states run r, 0
    bits.state = {"bit_generator": "PCG64",  # the step to r, undone
                  "state": {"state": (r - inc) * _PCG_MULT_INV & _MASK128,
                            "inc": inc},
                  "has_uint32": 0, "uinteger": 0}
    z = gen.standard_normal()
    return z, {0: 1, _xsl_rr(inc): 2}.get(bits.random_raw(), 0)


@cache
def _ziggurat_tables():
    """(wi, bound) of numpy's ziggurat normal sampler, probed through the
    public state setter. An output r = rabs << 9 | sign << 8 | idx, rabs of
    52 bits, gives +-rabs * wi[idx] when rabs < ki[idx]; bound is a lower
    bound of ki, verified by a probe at bound - 1, or 0 where that probe
    disagrees, so that idx never takes the batch path."""
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    idx = np.arange(256)
    # at rabs = 2**51, x = 2**51 wi, after one output or, where ki = 0, two:
    # the output 0 after r makes the slow branch accept x at once
    z, took = np.array([_probe(bits, gen, r)
                        for r in (1 << 60 | idx).tolist()]).T
    wi = np.where(took > 0, z, np.nan) / 2.0**51
    # ki is near 2**52 x[idx - 1] / x[idx], x = 2**52 wi (idx 0 takes
    # x[255]): within 0.5 for idx >= 2. A margin comes off that guess.
    with np.errstate(all="ignore"):  # a NaN width disables its neighbours
        guess = 2.0**52 * np.roll(wi, 1) / wi * (1.0 - 2.0**-30)
    # the largest rabs below each bound, drawn with sign 1; 0 where there
    # is no guess
    b = np.maximum(np.nan_to_num(guess.clip(0.0, 2.0**52)).astype(np.int64)
                   - 1, 0)
    z, took = np.array([_probe(bits, gen, r)
                        for r in (b << 9 | 1 << 8 | idx).tolist()]).T
    kept = (b > 0) & (took == 1) & (z == -b * wi)
    return wi, np.where(kept, b + 1, 0).astype(np.uint64)


def _batch_normals(block, s_hi, s_lo, q_hi, q_lo):
    """Fill the rows of ``block`` whose every draw takes numpy's ziggurat
    fast branch from the PCG64s seeded from _seed_words; return the
    indices of the other rows, whose contents are undefined."""
    wi, bound = _ziggurat_tables()
    # pcg_setseq_128_srandom_r: inc = q << 1 | 1, state = (s + inc) M + inc
    one = np.uint64(1)
    inc_hi, inc_lo = q_hi << one | q_lo >> np.uint64(63), q_lo << one | one
    lo = s_lo + inc_lo
    hi, lo = _lcg_step(s_hi + inc_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    r = np.empty(block.shape, dtype=np.uint64)
    for j in range(block.shape[1]):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        r[:, j] = x >> rot | x << (np.uint64(64) - rot)
    idx = r.astype(np.uint8)  # r & 0xff, in one byte
    rabs = r >> np.uint64(9)
    rabs &= np.uint64((1 << 52) - 1)
    np.multiply(rabs, wi[idx], out=block)
    # rabs * wi >= 0, so setting the sign bit is numpy's negation; r turns
    # into its bit 8 at bit 63 in place, with no further temporaries
    r >>= np.uint64(8)
    r <<= np.uint64(63)
    block.view(np.uint64)[...] |= r
    return np.flatnonzero(~(rabs < bound[idx]).all(axis=1))


def index_normals(seed: int, n: int, size: int) -> np.ndarray:
    """The (n, size) standard normals whose row i is, bit for bit,
    ``np.random.default_rng([seed, i]).standard_normal(size)``.

    Every index's SeedSequence is hashed in one batch. Where that pays,
    every row's PCG64 is then seeded and stepped in uint64 arrays, and each
    row whose draws all take the ziggurat's fast branch is computed from
    its outputs. Every other row re-states one PCG64 and runs numpy's own
    normal sampler. The first and last rows are checked against
    default_rng itself, so a numpy whose seeding differs raises
    RuntimeError rather than drawing other numbers.
    """
    try:
        if isinstance(seed, bool):  # operator.index reads True as 1
            raise TypeError
        seed = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _check_count(n, "n")
    _check_count(size, "size")
    if not 0 <= n <= 2**32:  # beyond, an index spans two entropy words
        raise ValueError(f"need 0 <= n <= 2**32 indices, got {n}")
    # the seed's uint32 words, low first; 0 is the one word [0]
    words = [seed >> s & _MASK32 for s in range(0, seed.bit_length() or 1, 32)]
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    out = np.empty((n, size))
    for start in range(0, n, _CHUNK_ROWS):
        block = out[start:start + _CHUNK_ROWS]
        entropy = np.empty((len(words) + 1, len(block)), dtype=np.uint32)
        entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
        entropy[-1] = np.arange(start, start + len(block), dtype=np.uint32)
        seeds = _seed_words(entropy)
        rows = range(len(block))
        if _BATCH_ROWS_PER_DRAW * size <= len(block) and size <= _BATCH_SIZE:
            rows = _batch_normals(block, *seeds)
            seeds = [w[rows] for w in seeds]
        for i, a, b, c, d in zip(rows, *(w.tolist() for w in seeds)):
            inc = ((c << 64 | d) << 1 | 1) & _MASK128  # as in _batch_normals
            bits.state = {"bit_generator": "PCG64",
                          "state": {"state": ((a << 64 | b) + inc) * _PCG_MULT
                                    + inc & _MASK128, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            gen.standard_normal(out=block[i])
    for i in {0, n - 1} if n else ():
        if (np.random.default_rng([seed, i]).standard_normal(size).tobytes()
                != out[i].tobytes()):
            raise RuntimeError(
                f"index_normals row {i} of seed {seed} differs from "
                "default_rng: numpy's seeding has changed")
    return out


def pure_cov(psi: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Symmetrized covariance  <{a,b}>/2 - <a><b>  in the pure state psi.

    Both operators must be Hermitian and match the state dimension. A stack
    of states (..., d) gives the covariances over the stack.
    """
    psi = np.asarray(psi, dtype=complex)
    d = psi.shape[-1]
    if a.shape != (d, d) or b.shape != (d, d):
        raise ValueError("operator dimensions do not match the state")
    if not (is_hermitian(a) and is_hermitian(b)):
        raise ValueError("pure_cov requires Hermitian operators")
    apsi = psi @ a.T
    bpsi = psi @ b.T
    ea = np.einsum("...i,...i->...", psi.conj(), apsi).real
    eb = np.einsum("...i,...i->...", psi.conj(), bpsi).real
    # Re<a psi|b psi> = <{a,b}>/2
    eab = np.einsum("...i,...i->...", apsi.conj(), bpsi).real
    return eab - ea * eb
