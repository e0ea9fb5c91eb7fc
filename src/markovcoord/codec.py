"""Block-Markov coordination coding over a one-step-memory channel.

The scheme transmits B blocks of length n.  The encoder is one block
behind the source (strict causality): at the start of block b it covers
the previous block's source with an auxiliary codeword and sends the
channel codeword indexed by the covering choice.  The channel is one
Markov path over the concatenated blocks, so its state carries across
block boundaries; covering never looks at the channel output, so the
whole path is sampled in one call once every index is chosen.  The
decoder resolves indices block by block with two Markov-typicality
checks, and after the last block reconstructs the auxiliary words and
generates its outputs; the final block's output is the all-zero sequence.

All randomness is counter-based (see rng): a scheme configuration plus
its seed reproduces every codeword, channel transition, and decoder
output bit-identically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .region import InnerCandidate
from .rng import derive_key, derive_keys, draw, thresholds, uniform_grid
from .typicality import FullType, check_seq, full_type

MEMORY_GUARD_BYTES = 8 * 10 ** 8  # X plane table plus the per-index decode vectors
_DECODE_INDEX_BYTES = 40  # gaps1, gaps2, survivor and hit indices and masks, per index
_DECODE_PASS_BYTES = 1 << 24  # count and word temporaries per decoding pass
_X_CHUNK_CELLS = 1 << 20  # X symbols generated per materialization pass
DEFAULT_SCAN_LIMIT = 1 << 16  # covering-search cap when 2^{nR} is astronomical
_COVER_CHUNK_FIRST, _COVER_CHUNK_MAX = 8, 512  # covering rows per pass, doubling

_TAG_X, _TAG_W, _TAG_U, _TAG_CHAN, _TAG_V, _TAG_ROW = 1, 2, 3, 4, 5, 6


class MemoryGuard(RuntimeError):
    """A table materialization would exceed the byte guard."""


class DecodeStatus(Enum):
    OK = "ok"
    NONE = "none"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class DecodeResult:
    status: DecodeStatus
    index: Optional[int]
    n_candidates: int


def message_count(n: int, rate: float) -> int:
    """Codebook size ceil(2^{n R}); at least one codeword.

    Past the float range (n R >= 1024) the size is an exact Python int:
    2^{n R - k} carried to 53 bits and shifted by k - 52, with k = floor(n R).
    """
    x = n * rate
    try:
        return max(1, math.ceil(2.0 ** x))
    except OverflowError:
        k = math.floor(x)
        return math.ceil(2.0 ** (x - k) * 2 ** 52) << (k - 52)


def _check_eps(eps: float) -> None:
    if not 0 < eps < math.inf:
        raise ValueError("eps must be finite and positive")


def _check_code(candidate: InnerCandidate, n: int, rate: float, eps: float, y0: int) -> None:
    """The checks SchemeConfig and joint_packing_event share, each naming its field."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_eps(eps)
    if not 0 <= rate < math.inf:
        raise ValueError("rate must be finite and >= 0")
    kernels.check_state(y0, candidate.channel.output_size)


@dataclass(frozen=True, eq=False)
class SchemeConfig:
    """Parameters of one scheme execution.

    `eps` is the Markov-typicality radius used by the decoder and the
    channel-atypicality event; `cover_eps` (defaulting to `eps`) is the
    iid-typicality radius of the covering encoder.  The two checks run on
    tables of different sizes, so finite blocklengths generally want a
    tighter covering radius than decoding radius.
    """

    candidate: InnerCandidate
    n: int
    num_blocks: int
    rate: float
    eps: float
    cover_eps: Optional[float] = None
    y0: int = 0
    seed: int = 0
    scan_limit: Optional[int] = None

    def __post_init__(self):
        _check_code(self.candidate, self.n, self.rate, self.eps, self.y0)
        if self.num_blocks < 2:
            raise ValueError("num_blocks must be >= 2")
        if self.cover_eps is not None and not 0 < self.cover_eps < math.inf:
            raise ValueError("cover_eps must be None or finite and positive")
        if self.scan_limit is not None and self.scan_limit < 1:
            raise ValueError("scan_limit must be >= 1")
        i_aux, i_chan = self.candidate.i_auxiliary, self.candidate.i_channel
        if not i_aux <= self.rate <= i_chan:
            warnings.warn(
                f"rate {self.rate:.4f} outside the coding window "
                f"[I(U;W|X)={i_aux:.4f}, I(X;Y|Y')={i_chan:.4f}]",
                stacklevel=2,
            )

    @property
    def m_count(self) -> int:
        return message_count(self.n, self.rate)

    @property
    def effective_cover_eps(self) -> float:
        return self.eps if self.cover_eps is None else self.cover_eps


class Codebook:
    """Random code {X^n(m), W^n(m, m_hat)} generated from a seed.

    Codewords are functions of (seed, index) alone, so any index subset
    generates the same rows as a full table.  `x_planes` holds the channel
    codeword table as `kernels.bit_planes`, (m_count, *kernels.plane_shape(n, nx))
    uint64, once `materialize_x` has built it within MEMORY_GUARD_BYTES;
    `x_word` unpacks one row of it.  Auxiliary words come from one
    generator, `w_rows`, over index arrays, given the X rows the caller holds.
    """

    def __init__(self, candidate: InnerCandidate, n: int, rate: float, seed: int):
        self.candidate = candidate
        self.n = n
        self.rate = rate
        self.seed = seed
        self.m_count = message_count(n, rate)
        self.x_planes: Optional[np.ndarray] = None
        self._x_thr = thresholds(candidate.p_x.pmf)[None, :]
        self._w_thr = thresholds(candidate.p_w_given_x)
        self._key_x = derive_key(seed, _TAG_X)
        self._key_w = derive_key(seed, _TAG_W, _TAG_ROW)
        self._zero_rows = np.zeros(n, dtype=np.int64)

    def x_rows(self, lo: int, hi: int) -> np.ndarray:
        """Channel codewords for indices lo..hi-1, shape (hi-lo, n)."""
        keys = derive_keys(self._key_x, np.arange(lo, hi, dtype=np.int64))
        return kernels.word_symbols(keys, self._zero_rows, self._x_thr)

    def x_word(self, m: int) -> np.ndarray:
        if self.x_planes is None:
            return self.x_rows(m, m + 1)[0]
        return kernels.plane_symbols(self.x_planes[m], self.n)

    def w_rows(self, m, m_hat, x_row: np.ndarray) -> np.ndarray:
        """Auxiliary codewords W^n(m, m_hat), one row per pair of the index
        arrays m and m_hat broadcast; x_row is X(m), one row or one per pair."""
        keys = derive_keys(derive_keys(self._key_w, m), m_hat)
        return kernels.word_symbols(keys, x_row, self._w_thr)

    def materialize_x(self) -> None:
        if self.x_planes is not None:
            return
        nx = self.candidate.p_x.size
        shape = kernels.plane_shape(self.n, nx)
        need = self.m_count * (8 * math.prod(shape) + _DECODE_INDEX_BYTES)
        if need > MEMORY_GUARD_BYTES:
            raise MemoryGuard(f"x planes and decode vectors need ~2^{math.log2(need):.1f} "
                              f"bytes (guard {MEMORY_GUARD_BYTES})")
        planes = np.empty((self.m_count,) + shape, dtype=np.uint64)
        step = max(1, _X_CHUNK_CELLS // self.n)
        for lo in range(0, self.m_count, step):
            hi = min(lo + step, self.m_count)
            planes[lo:hi] = kernels.bit_planes(self.x_rows(lo, hi), nx)
        self.x_planes = planes


def _cover_gaps(candidate: InnerCandidate, u_prev: np.ndarray, x_prev: np.ndarray,
                w_chunk: np.ndarray, n: int) -> np.ndarray:
    nu, nx, nw, _, _ = candidate.sizes
    counts = kernels.row_counts((u_prev * nx + x_prev) * nw + w_chunk, nu * nx * nw)
    return kernels.l1_gaps(counts, n, candidate.cover_target)


def encode_block(u_prev: np.ndarray, m_prev: int, cb: Codebook, eps: float,
                 scan_limit: Optional[int] = None) -> Optional[int]:
    """Covering search: smallest index m whose auxiliary word is jointly
    iid-typical with (u_prev, X^n(m_prev)) within eps; None on failure.

    When 2^{nR} exceeds the scan limit (DEFAULT_SCAN_LIMIT when None)
    only the first `scan_limit` candidates are examined, so None then
    means "no hit in the scanned prefix" rather than a certified covering
    failure.  The scan reads 8 rows first and doubles its chunk up to 512,
    so a shallow hit generates few words.
    """
    _check_eps(eps)
    if scan_limit is None:
        scan_limit = DEFAULT_SCAN_LIMIT
    elif scan_limit < 1:
        raise ValueError("scan_limit must be >= 1")
    if not 0 <= m_prev < cb.m_count:
        raise ValueError("m_prev outside [0, m_count)")
    n = cb.n
    x_prev = cb.x_word(m_prev)
    u_prev = check_seq(u_prev, cb.candidate.p_u.size, "u_prev", n)
    limit = min(cb.m_count, scan_limit)
    lo, chunk = 0, _COVER_CHUNK_FIRST
    while lo < limit:
        hi = min(lo + chunk, limit)
        w_chunk = cb.w_rows(m_prev, np.arange(lo, hi), x_prev)
        gaps = _cover_gaps(cb.candidate, u_prev, x_prev, w_chunk, n)
        hits = np.nonzero(gaps <= eps)[0]
        if hits.size:
            return lo + int(hits[0])
        lo, chunk = hi, min(2 * chunk, _COVER_CHUNK_MAX)
    return None


def _transmit(cb: Codebook, m: np.ndarray, y0: int,
              seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """(x, y), each (len(m), n): the channel codewords X(m[b]) sent in blocks
    b = 0, 1, ... and the outputs of one channel path over them from y0;
    block b's words are the stream of derive_key(seed, _TAG_CHAN, b)."""
    x = kernels.plane_symbols(cb.x_planes[m], cb.n)
    s = uniform_grid(derive_keys(derive_key(seed, _TAG_CHAN), np.arange(len(m))), cb.n)
    y = kernels.markov_path(x.ravel(), y0, cb.candidate.channel.thresholds, s.ravel())
    return x, y.reshape(x.shape)


def _decode_gaps(cb: Codebook, y_prev: np.ndarray, y_cur: np.ndarray,
                 m_prev: int, boundary_prev: int, boundary_cur: int, eps: float):
    """(gaps1, gaps2) of every index under the two decoder conditions;
    condition 2 is counted only where condition 1 passes (gaps2 = inf
    elsewhere), so the decision (gaps1 <= eps) & (gaps2 <= eps) is unchanged.
    Both are counted in passes of about _DECODE_PASS_BYTES of temporaries,
    so only the per-index vectors grow with the codebook."""
    candidate = cb.candidate
    nu, nx, nw, ny, nv = candidate.sizes
    n = cb.n
    # condition 1: (y_cur, X(m)) against pi x P_X x W, all candidates, by popcount;
    # a pass holds an int64 count table and two float64 gap temporaries per index
    gaps1 = np.empty(cb.m_count)
    step = max(1, _DECODE_PASS_BYTES // (24 * ny * nx * ny))
    for lo in range(0, cb.m_count, step):
        counts1 = kernels.plane_triplet_counts(cb.x_planes[lo:lo + step], y_cur,
                                               boundary_cur, nx, ny)
        gaps1[lo:lo + step] = kernels.l1_gaps(counts1, n, candidate.decode_target1)
    # condition 2: (y_prev, X(m_prev), W(m_prev, m)) against pi x P_X x P_W|X x W,
    # a triplet count whose input symbol is the pair x * nw + w; a pass holds
    # about eight int64 words per symbol of each survivor's W row
    idx = np.flatnonzero(gaps1 <= eps)
    gaps2 = np.full(cb.m_count, np.inf)
    step = max(1, _DECODE_PASS_BYTES // (64 * n))
    x_prev = cb.x_word(m_prev)
    for lo in range(0, idx.size, step):
        part = idx[lo:lo + step]
        xw = x_prev * nw + cb.w_rows(m_prev, part, x_prev)
        counts2 = kernels.triplet_counts(xw, y_prev, boundary_prev, nx * nw, ny)
        gaps2[part] = kernels.l1_gaps(counts2, n, candidate.decode_target2)
    return gaps1, gaps2


def decode_block(y_prev_block: np.ndarray, y_block: np.ndarray,
                 m_tilde_prev: int, cb: Codebook, eps: float,
                 y_boundary_states: Tuple[int, int]) -> DecodeResult:
    """Packing decoder for one block.

    Succeeds iff exactly one index satisfies both Markov-typicality
    conditions: the current block's output with its channel codeword, and
    the previous block's output with the previous codeword and the
    connecting auxiliary word.  y_boundary_states supplies the y' values
    at t=1 of the previous and current block (threaded channel states).
    """
    _check_eps(eps)
    if not 0 <= m_tilde_prev < cb.m_count:
        raise ValueError("m_tilde_prev outside [0, m_count)")
    ny = cb.candidate.channel.output_size
    y_prev_block = check_seq(y_prev_block, ny, "y_prev_block", cb.n)
    y_block = check_seq(y_block, ny, "y_block", cb.n)
    boundary_prev, boundary_cur = check_seq(y_boundary_states, ny, "y_boundary_states", 2)
    cb.materialize_x()
    gaps1, gaps2 = _decode_gaps(cb, y_prev_block, y_block, m_tilde_prev,
                                boundary_prev, boundary_cur, eps)
    hits = np.nonzero((gaps1 <= eps) & (gaps2 <= eps))[0]
    if hits.size == 0:
        return DecodeResult(DecodeStatus.NONE, None, 0)
    if hits.size > 1:
        return DecodeResult(DecodeStatus.AMBIGUOUS, None, int(hits.size))
    return DecodeResult(DecodeStatus.OK, int(hits[0]), 1)


@dataclass(frozen=True, eq=False)
class RunResult:
    """Full accounting of one scheme execution.

    Event flags are per block (0-based): `event_a[b]` marks a covering
    failure while describing block b's source (never raised for the last
    block, whose source is not described), `event_b[b]` channel
    atypicality of the transmitted pair, `event_c[b]` a wrong, missing,
    or ambiguous index decision (block 0 is pinned to index 0).  The
    empirical 5-tuple types are each counted once over the concatenated
    blocks (the coordinated blocks 0..B-2, the last block, and all B
    blocks), with the channel state threading across block boundaries, so
    all = coordinated + last is a check of three separate counts.
    """

    n: int
    num_blocks: int
    true_indices: np.ndarray
    decoded_indices: np.ndarray
    decode_status: Tuple[str, ...]
    event_a: np.ndarray
    event_b: np.ndarray
    event_c: np.ndarray
    type_coord: FullType
    type_last: FullType
    type_all: FullType
    tv_coord: float
    tv_all: float

    @property
    def cells(self) -> int:
        return self.type_all.counts.size

    def mixing_identity_exact(self) -> bool:
        """Counts identity: all-blocks type = coordinated + last block."""
        return bool(np.array_equal(
            self.type_all.counts, self.type_coord.counts + self.type_last.counts))

    def mixing_gap(self) -> float:
        """l1 distance between the all-blocks and coordinated-blocks types."""
        return float(np.abs(self.type_all.normalized
                            - self.type_coord.normalized).sum())

    def mixing_bound(self) -> float:
        """(2 / B) * number of cells, the coarse last-block mixing bound."""
        return 2.0 * self.cells / self.num_blocks


def run_scheme(cfg: SchemeConfig,
               source_blocks: Optional[Sequence[np.ndarray]] = None) -> RunResult:
    """Execute the full B-block scheme and account for every error event.

    On a covering failure the encoder substitutes index 0 and flags the
    event; on a decoding failure the decoder does the same, so runs always
    complete and the empirical statistics stay well defined.
    `source_blocks` overrides the seeded source draw (used by the strict
    causality test).
    """
    cand = cfg.candidate
    nu, nx, nw, ny, nv = cand.sizes
    n, B = cfg.n, cfg.num_blocks
    blocks = np.arange(B)
    if source_blocks is None:
        u = draw(uniform_grid(derive_keys(derive_key(cfg.seed, _TAG_U), blocks), n),
                 thresholds(cand.p_u.pmf))
    else:
        if len(source_blocks) != B:
            raise ValueError("source_blocks must supply one block per block")
        u = np.stack([check_seq(u_b, nu, f"source_blocks[{b}]", n)
                      for b, u_b in enumerate(source_blocks)])

    cb = Codebook(cand, n, cfg.rate, cfg.seed)
    cb.materialize_x()

    true_m = np.zeros(B, dtype=np.int64)
    event_a = np.zeros(B, dtype=bool)
    for b in range(1, B):
        m = encode_block(u[b - 1], int(true_m[b - 1]), cb,
                         cfg.effective_cover_eps, cfg.scan_limit)
        if m is None:
            event_a[b - 1] = True
            m = 0
        true_m[b] = m
    x, y = _transmit(cb, true_m, cfg.y0, cfg.seed)
    boundaries = kernels.prev_states(y[:, -1], cfg.y0)  # y' at t=1 of each block

    counts = kernels.triplet_counts(x, y, boundaries, nx, ny)
    event_b = kernels.l1_gaps(counts, n, cand.decode_target1) > cfg.eps

    decoded_m = np.zeros(B, dtype=np.int64)
    status: List[str] = [DecodeStatus.OK.value]
    event_c = np.zeros(B, dtype=bool)
    for b in range(1, B):
        res = decode_block(y[b - 1], y[b], int(decoded_m[b - 1]), cb, cfg.eps,
                           (int(boundaries[b - 1]), int(boundaries[b])))
        decoded_m[b] = res.index if res.status is DecodeStatus.OK else 0
        status.append(res.status.value)
        event_c[b] = (res.status is not DecodeStatus.OK
                      or int(decoded_m[b]) != int(true_m[b]))

    # decoder outputs from (X(m_hat_b), W(m_hat_b, m_hat_{b+1})); the last block's is zero
    x_hat = kernels.plane_symbols(cb.x_planes[decoded_m[:-1]], n)
    w_hat = cb.w_rows(decoded_m[:-1], decoded_m[1:], x_hat)
    v = np.zeros((B, n), dtype=np.int64)
    v_thr = cand.p_v_given_yxw.thresholds[(y[:-1] * nx + x_hat) * nw + w_hat]
    v[:-1] = draw(uniform_grid(derive_keys(derive_key(cfg.seed, _TAG_V), blocks[:-1]), n),
                  v_thr)

    sizes = (nu, nx, ny, nv)
    type_coord = full_type(u[:-1].ravel(), x[:-1].ravel(), y[:-1].ravel(), v[:-1].ravel(),
                           cfg.y0, sizes)
    type_last = full_type(u[-1], x[-1], y[-1], v[-1], int(boundaries[-1]), sizes)
    type_all = full_type(u.ravel(), x.ravel(), y.ravel(), v.ravel(), cfg.y0, sizes)

    target = cand.target.pmf
    tv_coord = float(np.abs(type_coord.normalized - target).sum())
    tv_all = float(np.abs(type_all.normalized - target).sum())
    return RunResult(
        n=n, num_blocks=B, true_indices=true_m, decoded_indices=decoded_m,
        decode_status=tuple(status), event_a=event_a, event_b=event_b,
        event_c=event_c, type_coord=type_coord, type_last=type_last,
        type_all=type_all, tv_coord=tv_coord, tv_all=tv_all,
    )


def joint_packing_event(candidate: InnerCandidate, n: int, rate: float,
                        eps: float, y0: int, seed: int) -> dict:
    """One Monte-Carlo trial of the joint packing event.

    Builds a fresh codebook, transmits two consecutive blocks with true
    indices (0, 1), and reports whether any wrong index passes both
    decoder conditions simultaneously.
    """
    _check_code(candidate, n, rate, eps, y0)
    cb = Codebook(candidate, n, rate, seed)
    cb.materialize_x()
    if cb.m_count == 1:
        return {"event": False, "m_count": 1, "wrong_candidates": 0}
    m_prev, m_true = 0, 1
    _, (y_prev, y_cur) = _transmit(cb, np.array([m_prev, m_true]), y0, seed)
    gaps1, gaps2 = _decode_gaps(cb, y_prev, y_cur, m_prev, y0, int(y_prev[-1]), eps)
    passing = (gaps1 <= eps) & (gaps2 <= eps)
    passing[m_true] = False
    wrong = int(passing.sum())
    return {"event": wrong > 0, "m_count": cb.m_count, "wrong_candidates": wrong}
