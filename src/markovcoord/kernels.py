"""Hot numeric kernels, all in numpy.

Hot paths covered here: Markov channel sampling, keyed codeword
generation, count tables for codeword scans, and exhaustive sequence-pair
enumeration for the AEP audit.  Everything else in the package is cheap
enough to write inline.

Every count table in the package is `row_counts`, adjacent triplets in
cell order (y' * nx + x) * ny + y are `triplet_counts` (y' from
`prev_states`), and every count-vs-target gap is `l1_gaps`, so the cell
order and gap expression that fix the gap floats live here alone.

A codeword table is stored as `bit_planes`: one uint64 plane per symbol
after the first, 64 positions a word.  `plane_triplet_counts` gives the
same int64 tables as `triplet_counts` on the unpacked rows, each cell
(y', x >= 1, y) a popcount (`np.bitwise_count`, numpy >= 2.0) of plane x
AND the (y', y) class mask, so the gaps are bit-equal; `plane_symbols`
unpacks single rows.

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
PLANE_PASS_BYTES = 1 << 22  # plane AND temporaries per counting pass


def check_state(y0, ny: int) -> None:
    """Raise a ValueError naming y0 unless it is an integer state in [0, ny)."""
    if not isinstance(y0, (int, np.integer)):
        raise ValueError(f"y0={y0!r} is not an integer state")
    if not 0 <= y0 < ny:
        raise ValueError(f"y0={y0} outside [0, {ny})")


def markov_path(x_seq: np.ndarray, y0: int, thr_rows: np.ndarray,
                s: np.ndarray) -> np.ndarray:
    """Sample a channel output path for input x_seq from initial state y0.

    thr_rows is the flattened (nx*ny, ny-1) conditional threshold table,
    row x * ny + y_prev; y_t is draw(s_t, thr_rows[x_t * ny + y_{t-1}]),
    with s the 53-bit words (`rng.uniform_grid`) in the shape of x_seq.
    A (T, n) x_seq samples T independent paths, each from y0.  Steps are
    composed in segments of about PATH_SEGMENT_SYMBOLS symbols, each
    starting from the last state of the one before.
    """
    x_seq = np.asarray(x_seq, dtype=np.int64)
    n = x_seq.shape[-1]
    ny = thr_rows.shape[1] + 1
    check_state(y0, ny)
    s = np.reshape(s, x_seq.shape)
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
    draws from thr_rows[row_idx[..., t]] with the keyed stream of keys[m],
    where row_idx is one length-n row for every key or one row per key."""
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    row_idx = np.ascontiguousarray(row_idx, dtype=np.int64)
    return draw(uniform_grid(keys, row_idx.shape[-1]), thr_rows[row_idx])


def prev_states(y: np.ndarray, y0) -> np.ndarray:
    """y shifted one step right along its last axis, with y0 in front;
    y0 is a scalar or one state per row."""
    y = np.asarray(y, dtype=np.int64)
    out = np.empty_like(y)
    out[..., 0] = y0
    out[..., 1:] = y[..., :-1]
    return out


def row_counts(cells: np.ndarray, ncells: int) -> np.ndarray:
    """Count tables along the last axis: out[..., c] = #{t : cells[..., t] == c}."""
    cells = np.asarray(cells, dtype=np.int64)
    lead = cells.shape[:-1]
    rows = math.prod(lead)
    if rows > 1:  # row r counts in cells r * ncells .. (r + 1) * ncells - 1
        cells = cells + np.arange(0, rows * ncells, ncells).reshape(*lead, 1)
    return np.bincount(cells.ravel(), minlength=rows * ncells).reshape(*lead, ncells)


def triplet_counts(x: np.ndarray, y: np.ndarray, y0, nx: int, ny: int) -> np.ndarray:
    """Adjacent-triplet count tables of int arrays x and y, broadcast against
    each other: cell (y_{t-1} * nx + x_t) * ny + y_t, y0 (scalar or one per
    row of y) as y_0.  The y part is summed on y's own shape first."""
    return row_counts(prev_states(y, y0) * (nx * ny) + y + x * ny, ny * nx * ny)


def plane_shape(n: int, nsym: int) -> tuple[int, int]:
    """(planes, uint64 words) of one length-n word in `bit_planes` form."""
    return nsym - 1, -(-n // 64)


def bit_planes(sym: np.ndarray, nsym: int) -> np.ndarray:
    """uint64 bit planes (..., *plane_shape(n, nsym)) of an int array with
    symbols in [0, nsym): plane k - 1 has bit t set where sym[..., t] == k,
    packed little-endian bit order, tail bits zero."""
    sym = np.asarray(sym, dtype=np.int64)
    n = sym.shape[-1]
    nplanes, words = plane_shape(n, nsym)
    bits = np.zeros(sym.shape[:-1] + (nplanes, words * 64), dtype=bool)
    bits[..., :n] = sym[..., None, :] == np.arange(1, nsym).reshape(-1, 1)
    return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)


def plane_symbols(planes: np.ndarray, n: int) -> np.ndarray:
    """The int symbols (..., n) whose `bit_planes` are planes (..., nsym - 1, words)."""
    bits = np.unpackbits(planes.view(np.uint8), axis=-1, count=n, bitorder="little")
    return np.arange(1, planes.shape[-2] + 1) @ bits


def plane_triplet_counts(planes: np.ndarray, y: np.ndarray, y0, nx: int, ny: int) -> np.ndarray:
    """triplet_counts(x, y, y0, nx, ny) of the rows x whose `bit_planes(x, nx)`
    are `planes` (..., nx - 1, words), against one output row y and scalar y0.

    Cell (y', x >= 1, y) of a row is the popcount of plane x AND the (y', y)
    class mask; the x = 0 cell is the class size minus the others.  Rows are
    counted PLANE_PASS_BYTES of AND temporaries at a time."""
    cls = prev_states(y, y0) * ny + y
    masks = bit_planes(cls + 1, ny * ny + 1).reshape(ny, 1, ny, -1)  # (y', 1, y, words)
    sizes = row_counts(cls, ny * ny).reshape(ny, ny)
    lead, (nplanes, words) = planes.shape[:-2], planes.shape[-2:]
    rows = math.prod(lead)
    flat = planes.reshape(rows, 1, nplanes, 1, words)
    per_pass = max(1, PLANE_PASS_BYTES // max(1, 8 * nplanes * ny * ny * words))
    counts = np.empty((rows, ny, nx, ny), dtype=np.int64)
    for lo in range(0, rows, per_pass):
        anded = flat[lo:lo + per_pass] & masks
        counts[lo:lo + per_pass, :, 1:] = np.bitwise_count(anded).sum(axis=-1, dtype=np.int64)
    counts[:, :, 0] = sizes - counts[:, :, 1:].sum(axis=2)
    return counts.reshape(lead + (ny * nx * ny,))


def l1_gaps(counts: np.ndarray, n: int, target: np.ndarray) -> np.ndarray:
    """l1 distance of each count table (last axis) over n from the flat target."""
    return np.abs(counts / n - target.ravel()).sum(axis=-1)


def aep_enumerate(xdig, ydig, y0, logpx, logw_flat, support_flat, q_flat,
                  n, nx, ny, eps):
    """Exhaustive scan over all (x, y) sequence pairs.

    Returns (typical_count, prob_typical, prob_all, nll_min, nll_max);
    the nll statistics are over typical pairs only.  Pairs stepping on a
    zero-probability transition get probability zero and nll = inf.
    """

    nx_rows, _ = xdig.shape
    ncells = q_flat.size
    x_counts = row_counts(xdig, nx)
    x_logp = x_counts @ np.where(np.isfinite(logpx), logpx, 0.0)
    x_support_ok = ~np.any((x_counts > 0) & ~np.isfinite(logpx)[None, :], axis=1)
    logw_safe = np.where(support_flat, logw_flat, 0.0)

    block = max(1, AEP_PASS_CELLS // (nx_rows * ncells))  # y sequences per pass
    typical = 0
    prob_t = 0.0
    prob_all = 0.0
    nll_min, nll_max = np.inf, -np.inf
    for lo in range(0, ydig.shape[0], block):
        counts = triplet_counts(xdig, ydig[lo:lo + block, None, :], y0, nx, ny)  # (b, Nx, cells)
        gap = l1_gaps(counts, n, q_flat)
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
