"""Independent oracles: brute-force routes that never share code with the
implementation paths they check."""

import itertools
import math

import numpy as np


def entropy_direct(pmf):
    """-sum p log2 p via a plain Python loop."""
    total = 0.0
    for p in pmf:
        if p > 0:
            total -= p * math.log2(p)
    return total


def nested_loop_inner(c, pi):
    """Six-fold loop assembly of the inner factorization."""
    nu, nx, nw, ny, nv = c.sizes
    out = np.zeros((nu, nx, nw, ny, ny, nv))
    for u in range(nu):
        for x in range(nx):
            for w in range(nw):
                for i in range(ny):
                    for y in range(ny):
                        for v in range(nv):
                            out[u, x, w, i, y, v] = (
                                c.p_u.pmf[u] * c.p_x.pmf[x]
                                * c.p_w_given_ux.table[u, x, w] * pi[i]
                                * c.channel.table[x, i, y]
                                * c.p_v_given_yxw.table[y, x, w, v])
    return out


def nested_loop_outer(c):
    """Six-fold loop assembly of the outer factorization."""
    nu, nx = c.p_u.size, c.p_x.size
    ny = c.channel.output_size
    nw = c.p_w_given_uxyy.output_size
    nv = c.p_v_given_yxw.output_size
    out = np.zeros((nu, nx, nw, ny, ny, nv))
    for u in range(nu):
        for x in range(nx):
            for w in range(nw):
                for i in range(ny):
                    for y in range(ny):
                        for v in range(nv):
                            out[u, x, w, i, y, v] = (
                                c.p_u.pmf[u] * c.p_x.pmf[x]
                                * c.p_yprime_given_x.table[x, i]
                                * c.channel.table[x, i, y]
                                * c.p_w_given_uxyy.table[u, x, y, i, w]
                                * c.p_v_given_yxw.table[y, x, w, v])
    return out


def chain_structure_direct(pattern):
    """(recurrent classes, unichain, aperiodic) of a transition pattern A
    from the definitions: j is reachable from i iff (I + A)^(k-1)_ij > 0, a
    recurrent class is a communicating class that no edge leaves, and the
    period of a state i is gcd{t <= 2k^2 : (A^t)_ii > 0}."""
    a = np.asarray(pattern, dtype=np.int64)
    k = a.shape[0]
    reach = np.linalg.matrix_power(np.eye(k, dtype=np.int64) + a, k - 1) > 0
    classes = []
    for i in range(k):
        members = [j for j in range(k) if reach[i, j] and reach[j, i]]
        leaves = any(a[s, j] for s in members for j in range(k) if j not in members)
        if members[0] == i and not leaves:
            classes.append(frozenset(members))
    unichain = len(classes) == 1
    period = 0
    if unichain:
        i = min(classes[0])
        walk = np.eye(k, dtype=np.int64)
        for t in range(1, 2 * k * k + 1):
            walk = np.minimum(walk @ a, 1)
            if walk[i, i]:
                period = math.gcd(period, t)
    return tuple(classes), unichain, period == 1


def sequence_prob_direct(x_seq, y_seq, y0, px_pmf, w_table):
    """Plain product of path factors (not in log domain)."""
    prob = 1.0
    prev = y0
    for x, y in zip(x_seq, y_seq):
        prob *= px_pmf[x] * w_table[x, prev, y]
        prev = y
    return prob


def sequence_log_prob(x_seq, y_seq, y0, px, w):
    """log2 P(x^n, y^n) under iid inputs px and the one-step channel w from
    state y0: the per-step log2(px[x] w[x, y', y]), summed; -inf when the
    path crosses a zero-probability factor."""
    x, y = np.asarray(x_seq), np.asarray(y_seq)
    y_prev = np.concatenate([[y0], y[:-1]])
    with np.errstate(divide="ignore"):  # a zero factor gives log2 = -inf
        return float(np.log2(px.pmf[x] * w.table[x, y_prev, y]).sum())


def enumerate_pairs(n, nx, ny):
    """All (x^n, y^n) pairs as tuples, pure itertools."""
    return itertools.product(itertools.product(range(nx), repeat=n),
                             itertools.product(range(ny), repeat=n))


def typical_set_scan(n, eps, px_pmf, w_table, q, y0):
    """Exhaustive typical-set statistics via pure-Python counting.

    Returns (typical_count, typical_prob, nll_list) with the triplet-type
    gap computed cell by cell.
    """
    nx, ny = len(px_pmf), w_table.shape[2]
    typical = 0
    prob_t = 0.0
    nlls = []
    for x_seq, y_seq in enumerate_pairs(n, nx, ny):
        counts = {}
        prev = y0
        for x, y in zip(x_seq, y_seq):
            counts[(prev, x, y)] = counts.get((prev, x, y), 0) + 1
            prev = y
        gap = 0.0
        for i in range(ny):
            for x in range(nx):
                for j in range(ny):
                    gap += abs(counts.get((i, x, j), 0) / n - q[i, x, j])
        if gap <= eps:
            typical += 1
            p = sequence_prob_direct(x_seq, y_seq, y0, px_pmf, w_table)
            prob_t += p
            nlls.append(-math.log2(p) / n if p > 0 else math.inf)
    return typical, prob_t, nlls


def binary_grid_slack(target_pmf, i_channel, step=0.05, tol=1e-9):
    """Exhaustive grid oracle for the best auxiliary slack on a binary
    (|U|=|X|=|Y|=|V|=2, |W|=2) target.

    Grids P(w=1|u,x) at the given step; for each grid point the decoder
    kernel is pinned by a per-(x, y) linear system, so feasibility and
    I(U;W|X) are exact.  Returns the best slack over feasible grid points
    (-inf when none are feasible).
    """
    p_u = target_pmf.sum(axis=(1, 2, 3, 4))
    p_x = target_pmf.sum(axis=(0, 2, 3, 4))
    # target P(V=1 | u, x, y), y'-marginalized
    t_uxyv = target_pmf.sum(axis=2)
    mass = t_uxyv.sum(axis=3)
    c1 = np.where(mass > 0, t_uxyv[..., 1] / np.maximum(mass, 1e-300), 0.5)

    grid = np.arange(0.0, 1.0 + step / 2, step)
    g = len(grid)
    a = np.stack(np.meshgrid(grid, grid, grid, grid, indexing="ij"), axis=-1)
    a = a.reshape(-1, 2, 2)  # [point, u, x] = P(w=1 | u, x)

    def h2(p):
        p = np.clip(p, 1e-15, 1 - 1e-15)
        return -(p * np.log2(p) + (1 - p) * np.log2(1 - p))

    pbar = np.einsum("u,pux->px", p_u, a)
    h_w_given_x = h2(pbar)
    h_w_given_ux = np.einsum("u,pux->px", p_u, h2(a))
    i_uwx = np.einsum("x,px->p", p_x, h_w_given_x - h_w_given_ux)

    feasible = np.ones(a.shape[0], dtype=bool)
    for x in range(2):
        det = a[:, 1, x] - a[:, 0, x]
        degenerate = np.abs(det) < 1e-12
        for y in range(2):
            c0v, c1v = c1[0, x, y], c1[1, x, y]
            with np.errstate(divide="ignore", invalid="ignore"):
                p0 = (a[:, 1, x] * c0v - a[:, 0, x] * c1v) / det
                p1 = ((1 - a[:, 0, x]) * c1v - (1 - a[:, 1, x]) * c0v) / det
            ok = (p0 >= -tol) & (p0 <= 1 + tol) & (p1 >= -tol) & (p1 <= 1 + tol)
            ok_degenerate = abs(c0v - c1v) <= 1e-9
            feasible &= np.where(degenerate, ok_degenerate, ok)
    if not feasible.any():
        return -np.inf
    return float((i_channel - i_uwx)[feasible].max())


MASK64 = (1 << 64) - 1


def make_cdf(pmf):
    """Float reference for rng.thresholds: row-wise cdf of the normalized
    pmf with the last entry pinned to 1.0."""
    pmf = np.asarray(pmf, dtype=np.float64)
    cdf = np.cumsum(pmf / pmf.sum(axis=-1, keepdims=True), axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def splitmix_uniform(key, counter):
    """Uniform at (1-based) counter of the keyed splitmix64 stream, in
    Python ints: z = key + counter * phi, finalized, top 53 bits."""
    z = (key + counter * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return (z >> 11) / 2.0 ** 53


def inverse_cdf_symbol(row, u):
    """#{k : row[k] <= u}, counted one entry at a time."""
    return sum(1 for c in row if c <= u)


def channel_path_loop(x_seq, y0, cdf_rows, us):
    """One Python step per symbol: y_t from row x_t * ny + y_{t-1}."""
    ny = cdf_rows.shape[1]
    prev = int(y0)
    out = []
    for x, u in zip(x_seq, us):
        prev = inverse_cdf_symbol(cdf_rows[int(x) * ny + prev], u)
        out.append(prev)
    return np.array(out, dtype=np.int64)


def word_symbols_loop(keys, row_idx, cdf_rows):
    """Keyed codeword table with the stream computed in Python ints."""
    out = np.empty((len(keys), len(row_idx)), dtype=np.int64)
    for m, key in enumerate(keys):
        for t, r in enumerate(row_idx):
            out[m, t] = inverse_cdf_symbol(cdf_rows[r], splitmix_uniform(int(key), t + 1))
    return out


def row_counts_loop(cells, ncells):
    """Count table of one row of cells, one increment per position."""
    out = np.zeros(ncells, dtype=np.int64)
    for c in cells:
        out[int(c)] += 1
    return out


def triplet_counts_loop(x, y, y0, nx, ny):
    """Adjacent-triplet table of one (x, y) pair, one increment per symbol,
    in cell order (y_prev, x, y)."""
    out = np.zeros((ny, nx, ny), dtype=np.int64)
    prev = int(y0)
    for xs, ys in zip(x, y):
        out[prev, int(xs), int(ys)] += 1
        prev = int(ys)
    return out.ravel()


def packing_decode_full_table(cb, y_prev, y_cur, m_prev, boundaries, eps):
    """Indices passing both packing-decoder conditions, with condition 2
    counted over the full auxiliary row W(m_prev, 0..m_count-1)."""
    cand = cb.candidate
    _, nx, nw, ny, _ = cand.sizes
    n, m_count = cb.n, cb.m_count
    rows = np.arange(m_count)[:, None]
    x_all = np.stack([cb.x_word(m) for m in range(m_count)])  # sees edited planes
    yp_cur = np.concatenate([[boundaries[1]], y_cur[:-1]])
    c1 = np.zeros((m_count, ny, nx, ny), dtype=np.int64)
    np.add.at(c1, (rows, yp_cur[None, :], x_all, y_cur[None, :]), 1)
    gaps1 = np.abs(c1.reshape(m_count, -1) / n
                   - cand.decode_target1.ravel()).sum(axis=1)
    x_prev = x_all[m_prev]
    w_all = cb.w_rows(m_prev, np.arange(m_count), x_prev)
    yp_prev = np.concatenate([[boundaries[0]], y_prev[:-1]])
    c2 = np.zeros((m_count, ny, nx, nw, ny), dtype=np.int64)
    np.add.at(c2, (rows, yp_prev[None, :], x_prev[None, :], w_all, y_prev[None, :]), 1)
    gaps2 = np.abs(c2.reshape(m_count, -1) / n
                   - cand.decode_target2.ravel()).sum(axis=1)
    return np.flatnonzero((gaps1 <= eps) & (gaps2 <= eps))
