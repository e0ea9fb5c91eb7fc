"""Deterministic counter-based randomness built on splitmix64.

Every random draw in this package is a pure function of a 64-bit key and
a counter, so any substream can be regenerated independently (codewords,
channel noise, source blocks) without storing generator state.  Keys
fold in Python ints (`derive_key`) or in broadcast uint64 arrays
(`derive_keys`); the array form wraps modulo 2^64 exactly like the masked
int arithmetic, and `tests/test_kernels` pins it to a pure-int oracle.

Draws are the 53-bit words s = z >> 11 of splitmix64 outputs z, and
`draw(s, thresholds(pmf))` is inversion (Devroye 1986, sec. 2.2) in
integers: for u = s * 2^-53 and a cdf entry c, u >= c iff
s >= ceil(c * 2^53), since scaling by 2^53 is exact and s is an integer.
A cdf entry 0 gives threshold 0 (always reached), one >= 1 gives 2^53
(never reached).
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
PHI64 = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

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


def derive_keys(keys, words) -> np.ndarray:
    """derive_key(k, w) for keys k and int words w broadcast against each
    other, as a uint64 array of at least one dimension."""
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    words = np.atleast_1d(np.asarray(words).astype(np.uint64))
    return _finalize_u64((keys + _U_PHI) ^ _finalize_u64(words))


def _finalize_u64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _U_MIX1
    z = (z ^ (z >> np.uint64(27))) * _U_MIX2
    return z ^ (z >> np.uint64(31))


def uniforms(key: int, n: int) -> np.ndarray:
    """53-bit words at counters 1..n of the keyed stream; row 0 of
    uniform_grid([key], n)."""
    c = np.arange(1, n + 1, dtype=np.uint64) * _U_PHI
    return _finalize_u64(np.uint64(key) + c) >> np.uint64(11)


def uniform_grid(keys: np.ndarray, n: int) -> np.ndarray:
    """(len(keys), n) 53-bit words; row i is the stream of keys[i]."""
    c = np.arange(1, n + 1, dtype=np.uint64) * _U_PHI
    return _finalize_u64(keys.astype(np.uint64)[:, None] + c[None, :]) >> np.uint64(11)


def thresholds(pmf: np.ndarray) -> np.ndarray:
    """Row-wise uint64 thresholds ceil(min(c_k, 1) * 2^53) of the cdf
    entries c_k before the last (that one is 1 and never reached)."""
    pmf = np.asarray(pmf, dtype=np.float64)
    cdf = np.cumsum(pmf / pmf.sum(axis=-1, keepdims=True), axis=-1)[..., :-1]
    return np.ceil(np.minimum(cdf, 1.0) * 2.0 ** 53).astype(np.uint64)


def draw(s: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Inverse-cdf symbols #{k : thr[..., k] <= s}; s broadcasts against
    the leading axes of thr."""
    return np.count_nonzero(thr <= s[..., None], axis=-1)
