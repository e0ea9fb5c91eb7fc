"""Deterministic counter-based randomness built on splitmix64.

Every random draw in this package is a pure function of a 64-bit key and
a counter, so any substream can be regenerated independently (codewords,
channel noise, source blocks) without storing generator state.  The same
finalizer is reimplemented inside the numba kernels; `tests/test_kernels`
pins the two paths to bit-identical output.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
PHI64 = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53

_U_PHI = np.uint64(PHI64)
_U_MIX1 = np.uint64(MIX1)
_U_MIX2 = np.uint64(MIX2)


def _finalize_int(z: int) -> int:
    """splitmix64 output function on a Python int (masked to 64 bits)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def derive_key(key: int, *words: int) -> int:
    """Fold extra words into a key, one splitmix64 round per word.

    Used for domain separation: derive_key(seed, TAG, index) gives every
    (tag, index) pair its own independent substream.
    """
    h = key & MASK64
    for w in words:
        h = _finalize_int((h + PHI64) ^ _finalize_int(w & MASK64))
    return h


def derive_keys(key: int, indices: np.ndarray) -> np.ndarray:
    """Vectorized derive_key(key, i) for an int64/uint64 index array."""
    w = _finalize_u64(indices.astype(np.uint64))
    return _finalize_u64((np.uint64((key + PHI64) & MASK64)) ^ w)


def _finalize_u64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _U_MIX1
    z = (z ^ (z >> np.uint64(27))) * _U_MIX2
    return z ^ (z >> np.uint64(31))


def uniforms(key: int, n: int, start: int = 0) -> np.ndarray:
    """Uniforms in [0, 1) at counters start..start+n-1 of the keyed stream."""
    c = np.arange(start + 1, start + n + 1, dtype=np.uint64) * _U_PHI
    z = _finalize_u64(np.uint64(key) + c)
    return (z >> np.uint64(11)) * _INV_2_53


def uniform_grid(keys: np.ndarray, n: int) -> np.ndarray:
    """(len(keys), n) uniforms; row i is the stream of keys[i]."""
    c = np.arange(1, n + 1, dtype=np.uint64) * _U_PHI
    z = _finalize_u64(keys.astype(np.uint64)[:, None] + c[None, :])
    return (z >> np.uint64(11)) * _INV_2_53


def make_cdf(pmf: np.ndarray) -> np.ndarray:
    """Row-wise cumulative distribution with the last entry pinned to 1.0.

    Pinning removes the risk of a uniform falling past the final bin when
    the row sums to 1 only within tolerance.
    """
    pmf = np.asarray(pmf, dtype=np.float64)
    cdf = np.cumsum(pmf / pmf.sum(axis=-1, keepdims=True), axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def sample_from_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling: symbol = #{k : cdf[k] <= u}."""
    return np.searchsorted(cdf, u, side="right").astype(np.int64)

