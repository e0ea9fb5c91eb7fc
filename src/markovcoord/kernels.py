"""Hot numeric kernels, all in numpy.

Hot paths covered here: Markov channel sampling, keyed codeword
generation, count tables for codeword scans, and exhaustive sequence-pair
enumeration for the AEP audit.  Everything else in the package is cheap
enough to write inline.

Channel sampling is a prefix composition.  With the 53-bit word s_t
drawn, step t of the channel is a fixed map g_t on the state alphabet,
g_t(y) = draw(s_t, thresholds[x_t, y]), and y_t = (g_t o ... o g_1)(y_0).
Composition is associative, so all n prefix maps come out of
ceil(log2 n) vectorized doubling steps (Hillis & Steele 1986; Blelloch
1990) instead of n sequential Python steps, with the same integer output
as the step-by-step loop.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import draw, uniform_grid

PATH_SEGMENT_SYMBOLS = 1 << 14  # channel steps composed per pass; bounds the map tables
AEP_PASS_CELLS = 1 << 20  # count-table cells per enumeration pass; bounds its tables


def markov_path(x_seq: np.ndarray, y0: int, thr_rows: np.ndarray,
                key: int | np.ndarray) -> np.ndarray:
    """Sample a channel output path for input x_seq from initial state y0.

    thr_rows is the flattened (nx*ny, ny-1) conditional threshold table,
    row x * ny + y_prev; y_t is draw(s_t, thr_rows[x_t * ny + y_{t-1}])
    with s_t at counter t of the keyed stream.  A (T, n) x_seq with an
    array of T keys samples T independent paths, row i from keys[i].
    Steps are composed in segments of about PATH_SEGMENT_SYMBOLS symbols,
    each starting from the last state of the one before.
    """
    x_seq = np.asarray(x_seq, dtype=np.int64)
    n = x_seq.shape[-1]
    s = uniform_grid(np.atleast_1d(np.asarray(key, dtype=np.uint64)), n).reshape(x_seq.shape)
    ny = thr_rows.shape[1] + 1
    tables = thr_rows.reshape(thr_rows.shape[0] // ny, ny, ny - 1)
    y = np.empty(x_seq.shape, dtype=np.int64)
    state = np.full(x_seq.shape[:-1] + (1, 1), y0, dtype=np.int64)
    seg = max(1, PATH_SEGMENT_SYMBOLS // math.prod(x_seq.shape[:-1]))  # steps per segment
    for lo in range(0, n, seg):
        hi = min(lo + seg, n)
        # g[..., t, y]: state after step t when the state before it is y
        g = draw(s[..., lo:hi, None], tables[x_seq[..., lo:hi]])
        d = 1
        while d < hi - lo:  # g[t] <- g[t] o g[t-d]: g[t] then composes steps max(0, t-2d+1)..t
            g[..., d:, :] = np.take_along_axis(g[..., d:, :], g[..., :-d, :], axis=-1)
            d *= 2
        y[..., lo:hi] = np.take_along_axis(g, np.broadcast_to(state, g.shape[:-1] + (1,)),
                                           axis=-1)[..., 0]
        state = y[..., hi - 1:hi, None]
    return y


def word_symbols(keys: np.ndarray, row_idx: np.ndarray, thr_rows: np.ndarray) -> np.ndarray:
    """(len(keys), n) symbol table, one word per key; word m, position t
    draws from thr_rows[row_idx[t]] with the keyed stream of keys[m]."""
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    row_idx = np.ascontiguousarray(row_idx, dtype=np.int64)
    return draw(uniform_grid(keys, row_idx.size), thr_rows[row_idx])


def offset_counts(words: np.ndarray, base: np.ndarray, stride: int, ncells: int) -> np.ndarray:
    """Per-row count tables: row m counts cells base[t] + words[m, t] * stride."""
    words = np.ascontiguousarray(words, dtype=np.int64)
    base = np.ascontiguousarray(base, dtype=np.int64)
    m = words.shape[0]
    flat = base[None, :] + words * int(stride) + (np.arange(m, dtype=np.int64) * ncells)[:, None]
    return np.bincount(flat.ravel(), minlength=m * ncells).reshape(m, ncells)


def aep_enumerate(xdig, ydig, y0, logpx, logw_flat, support_flat, q_flat,
                  n, nx, ny, eps):
    """Exhaustive scan over all (x, y) sequence pairs.

    Returns (typical_count, prob_typical, prob_all, nll_min, nll_max);
    the nll statistics are over typical pairs only.  Pairs stepping on a
    zero-probability transition get probability zero and nll = inf.
    """

    nx_rows, _ = xdig.shape
    ncells = q_flat.size
    x_counts = np.stack([np.bincount(r, minlength=nx) for r in xdig])
    x_logp = x_counts @ np.where(np.isfinite(logpx), logpx, 0.0)
    x_support_ok = ~np.any((x_counts > 0) & ~np.isfinite(logpx)[None, :], axis=1)
    logw_safe = np.where(support_flat, logw_flat, 0.0)

    yprev = np.concatenate([np.full((ydig.shape[0], 1), y0, dtype=np.int64),
                            ydig[:, :-1]], axis=1)
    ybase = yprev * (nx * ny) + ydig  # cell index with the x contribution left out

    block = max(1, AEP_PASS_CELLS // (nx_rows * ncells))  # y sequences per pass
    typical = 0
    prob_t = 0.0
    prob_all = 0.0
    nll_min, nll_max = np.inf, -np.inf
    for lo in range(0, ydig.shape[0], block):
        yb = ybase[lo:lo + block]
        b = yb.shape[0]
        cells = yb[:, None, :] + xdig[None, :, :] * ny  # (b, Nx, n)
        pair_ids = np.arange(b * nx_rows, dtype=np.int64).reshape(b, nx_rows, 1)
        counts = np.bincount(
            (cells + pair_ids * ncells).ravel(), minlength=b * nx_rows * ncells
        ).reshape(b, nx_rows, ncells)
        gap = np.abs(counts / n - q_flat[None, None, :]).sum(axis=-1)
        w_ok = ~np.any((counts > 0) & ~support_flat[None, None, :], axis=-1)
        logp = counts @ logw_safe + x_logp[None, :]
        ok = w_ok & x_support_ok[None, :]
        prob = np.where(ok, np.exp2(np.where(ok, logp, 0.0)), 0.0)
        prob_all += prob.sum()
        mask = gap <= eps
        typical += int(mask.sum())
        if mask.any():
            prob_t += prob[mask].sum()
            with np.errstate(invalid="ignore"):
                nll = np.where(ok, -logp / n, np.inf)[mask]
            nll_min = min(nll_min, float(nll.min()))
            nll_max = max(nll_max, float(nll.max()))
    return typical, prob_t, prob_all, nll_min, nll_max


def digit_rows(count: int, base: int, n: int) -> np.ndarray:
    """(count, n) table of base-`base` digit expansions, most significant first."""
    codes = np.arange(count, dtype=np.int64)
    out = np.empty((count, n), dtype=np.int64)
    for t in range(n - 1, -1, -1):
        out[:, t] = codes % base
        codes //= base
    return out
