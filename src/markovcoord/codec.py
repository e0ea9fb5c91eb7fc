"""Block-Markov coordination coding over a one-step-memory channel.

The scheme transmits B blocks of length n.  The encoder is one block
behind the source (strict causality): at the start of block b it covers
the previous block's source with an auxiliary codeword and sends the
channel codeword indexed by the covering choice.  Channel state threads
across block boundaries, the decoder resolves indices block by block with
two Markov-typicality checks, and after the last block reconstructs the
auxiliary words and generates its outputs; the final block's output is
the all-zero sequence.

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
from .probability import Kernel
from .region import InnerCandidate
from .rng import derive_key, derive_keys, draw, thresholds, uniforms
from .typicality import FullType, _check_seq, full_type, triplet_type

MEMORY_GUARD_CELLS = 10 ** 8
DEFAULT_SCAN_LIMIT = 1 << 16  # covering-search cap when 2^{nR} is astronomical
_COVER_CHUNK_FIRST, _COVER_CHUNK_MAX = 8, 512  # covering rows per pass, doubling

_TAG_X, _TAG_W, _TAG_U, _TAG_CHAN, _TAG_V, _TAG_ROW = 1, 2, 3, 4, 5, 6


class MemoryGuard(RuntimeError):
    """A table materialization would exceed the cell guard."""


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
    """Codebook size ceil(2^{n R}); at least one codeword."""
    return max(1, math.ceil(2.0 ** (n * rate)))


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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.num_blocks < 2:
            raise ValueError("num_blocks must be >= 2")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.rate < 0:
            raise ValueError("rate must be >= 0")
        if self.scan_limit is not None and self.scan_limit < 1:
            raise ValueError("scan_limit must be >= 1")
        ny = self.candidate.channel.output_size
        if not 0 <= self.y0 < ny:
            raise ValueError("y0 outside the state alphabet")
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
    generates the same rows as a full table.  `x_words` holds the channel
    codeword table once `materialize_x` has built it within the memory
    guard; auxiliary words are generated per index on demand.
    """

    def __init__(self, candidate: InnerCandidate, n: int, rate: float, seed: int):
        self.candidate = candidate
        self.n = n
        self.rate = rate
        self.seed = seed
        self.m_count = message_count(n, rate)
        self.x_words: Optional[np.ndarray] = None
        self._x_thr = thresholds(candidate.p_x.pmf)[None, :]
        self._w_thr = thresholds(candidate.p_w_given_x)
        self._key_x = derive_key(seed, _TAG_X)
        self._key_w = derive_key(seed, _TAG_W)
        self._zero_rows = np.zeros(n, dtype=np.int64)

    def x_rows(self, lo: int, hi: int) -> np.ndarray:
        """Channel codewords for indices lo..hi-1, shape (hi-lo, n)."""
        if self.x_words is not None and lo == 0 and hi == self.m_count:
            return self.x_words
        keys = derive_keys(self._key_x, np.arange(lo, hi, dtype=np.int64))
        return kernels.word_symbols(keys, self._zero_rows, self._x_thr)

    def x_word(self, m: int) -> np.ndarray:
        if self.x_words is not None:
            return self.x_words[m]
        return self.x_rows(m, m + 1)[0]

    def w_rows_at(self, m: int, idx: np.ndarray) -> np.ndarray:
        """Auxiliary codewords W^n(m, m_hat) for m_hat in idx, shape (len(idx), n)."""
        row_key = derive_key(self._key_w, _TAG_ROW, m)
        keys = derive_keys(row_key, np.asarray(idx, dtype=np.int64))
        return kernels.word_symbols(keys, self.x_word(m), self._w_thr)

    def w_rows(self, m: int, lo: int, hi: int) -> np.ndarray:
        """Auxiliary codewords W^n(m, m_hat) for m_hat in lo..hi-1."""
        return self.w_rows_at(m, np.arange(lo, hi, dtype=np.int64))

    def w_word(self, m: int, m_hat: int) -> np.ndarray:
        return self.w_rows(m, m_hat, m_hat + 1)[0]

    def materialize_x(self) -> None:
        if self.x_words is not None:
            return
        if self.m_count * self.n > MEMORY_GUARD_CELLS:
            raise MemoryGuard(
                f"x table needs {self.m_count * self.n} cells "
                f"(guard {MEMORY_GUARD_CELLS})")
        self.x_words = self.x_rows(0, self.m_count)


def _cover_gaps(candidate: InnerCandidate, u_prev: np.ndarray, x_prev: np.ndarray,
                w_chunk: np.ndarray, n: int) -> np.ndarray:
    nu, nx, nw, _, _ = candidate.sizes
    base = (u_prev * nx + x_prev) * nw
    counts = kernels.offset_counts(w_chunk, base, 1, nu * nx * nw)
    return np.abs(counts / n - candidate.cover_target.ravel()).sum(axis=1)


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
    if scan_limit is None:
        scan_limit = DEFAULT_SCAN_LIMIT
    elif scan_limit < 1:
        raise ValueError("scan_limit must be >= 1")
    if not 0 <= m_prev < cb.m_count:
        raise ValueError("m_prev outside [0, m_count)")
    n = cb.n
    x_prev = cb.x_word(m_prev)
    u_prev = _check_seq(u_prev, cb.candidate.p_u.size, "u_prev")
    if u_prev.size != n:
        raise ValueError("source block length does not match n")
    limit = min(cb.m_count, scan_limit)
    lo, chunk = 0, _COVER_CHUNK_FIRST
    while lo < limit:
        hi = min(lo + chunk, limit)
        gaps = _cover_gaps(cb.candidate, u_prev, x_prev, cb.w_rows(m_prev, lo, hi), n)
        hits = np.nonzero(gaps <= eps)[0]
        if hits.size:
            return lo + int(hits[0])
        lo, chunk = hi, min(2 * chunk, _COVER_CHUNK_MAX)
    return None


def channel_block(x_block: np.ndarray, y_init: int, channel: Kernel,
                  key: int) -> np.ndarray:
    """Transmit one block through the channel from state y_init.

    The caller threads y_init = last output of the previous block, which
    preserves the cross-block memory of the channel.
    """
    return kernels.markov_path(x_block, y_init, channel.thresholds, key)


def _decode_gaps(cb: Codebook, y_prev: np.ndarray, y_cur: np.ndarray,
                 m_prev: int, boundary_prev: int, boundary_cur: int, eps: float):
    """(gaps1, gaps2) of every index under the two decoder conditions;
    condition 2 is counted only where condition 1 passes (gaps2 = inf
    elsewhere), so the decision (gaps1 <= eps) & (gaps2 <= eps) is unchanged."""
    candidate = cb.candidate
    nu, nx, nw, ny, nv = candidate.sizes
    n = cb.n
    # condition 1: (y_cur, X(m)) against pi x P_X x W, all candidates
    yprev_cur = np.concatenate([[boundary_cur], y_cur[:-1]])
    base1 = yprev_cur * (nx * ny) + y_cur
    counts1 = kernels.offset_counts(cb.x_rows(0, cb.m_count), base1, ny,
                                    ny * nx * ny)
    gaps1 = np.abs(counts1 / n - candidate.decode_target1.ravel()).sum(axis=1)
    # condition 2: (y_prev, X(m_prev), W(m_prev, m)) against pi x P_X x P_W|X x W
    idx = np.flatnonzero(gaps1 <= eps)
    gaps2 = np.full(cb.m_count, np.inf)
    if idx.size:
        x_prev = cb.x_word(m_prev)
        yprev_prev = np.concatenate([[boundary_prev], y_prev[:-1]])
        base2 = ((yprev_prev * nx + x_prev) * nw) * ny + y_prev
        counts2 = kernels.offset_counts(cb.w_rows_at(m_prev, idx), base2, ny,
                                        ny * nx * nw * ny)
        gaps2[idx] = np.abs(counts2 / n - candidate.decode_target2.ravel()).sum(axis=1)
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
    if not 0 <= m_tilde_prev < cb.m_count:
        raise ValueError("m_tilde_prev outside [0, m_count)")
    ny = cb.candidate.channel.output_size
    y_prev_block = _check_seq(y_prev_block, ny, "y_prev_block")
    y_block = _check_seq(y_block, ny, "y_block")
    for name, block in (("y_prev_block", y_prev_block), ("y_block", y_block)):
        if block.size != cb.n:
            raise ValueError(f"{name} length {block.size} does not match n={cb.n}")
    boundary_prev, boundary_cur = _check_seq(y_boundary_states, ny, "y_boundary_states")
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
    empirical 5-tuple types cover the coordinated blocks 0..B-2 and all B
    blocks respectively; their count tables satisfy
    all = coordinated + last exactly.
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
    cb = Codebook(cand, n, cfg.rate, cfg.seed)
    cb.materialize_x()

    if source_blocks is None:
        u_thr = thresholds(cand.p_u.pmf)
        u_blocks = [draw(uniforms(derive_key(cfg.seed, _TAG_U, b), n), u_thr)
                    for b in range(B)]
    else:
        if len(source_blocks) != B:
            raise ValueError("source_blocks must supply one block per block")
        u_blocks = [np.asarray(u, dtype=np.int64) for u in source_blocks]

    true_m = np.zeros(B, dtype=np.int64)
    event_a = np.zeros(B, dtype=bool)
    x_blocks: List[np.ndarray] = []
    y_blocks: List[np.ndarray] = []
    boundaries = np.empty(B, dtype=np.int64)
    y_state = cfg.y0
    for b in range(B):
        if b > 0:
            m = encode_block(u_blocks[b - 1], int(true_m[b - 1]), cb,
                             cfg.effective_cover_eps, cfg.scan_limit)
            if m is None:
                event_a[b - 1] = True
                m = 0
            true_m[b] = m
        x_blocks.append(cb.x_word(int(true_m[b])))
        boundaries[b] = y_state
        y_blocks.append(channel_block(x_blocks[b], int(y_state),
                                      cand.channel,
                                      derive_key(cfg.seed, _TAG_CHAN, b)))
        y_state = int(y_blocks[b][-1])

    event_b = np.zeros(B, dtype=bool)
    for b in range(B):
        t = triplet_type(x_blocks[b], y_blocks[b], int(boundaries[b]), nx, ny)
        event_b[b] = float(np.abs(t.normalized - cand.decode_target1).sum()) > cfg.eps

    decoded_m = np.zeros(B, dtype=np.int64)
    status: List[str] = [DecodeStatus.OK.value]
    event_c = np.zeros(B, dtype=bool)
    for b in range(1, B):
        res = decode_block(y_blocks[b - 1], y_blocks[b], int(decoded_m[b - 1]),
                           cb, cfg.eps,
                           (int(boundaries[b - 1]), int(boundaries[b])))
        decoded_m[b] = res.index if res.status is DecodeStatus.OK else 0
        status.append(res.status.value)
        event_c[b] = (res.status is not DecodeStatus.OK
                      or int(decoded_m[b]) != int(true_m[b]))

    v_thr = cand.p_v_given_yxw.thresholds
    v_blocks: List[np.ndarray] = []
    for b in range(B - 1):
        x_hat = cb.x_word(int(decoded_m[b]))
        w_hat = cb.w_word(int(decoded_m[b]), int(decoded_m[b + 1]))
        rows = (y_blocks[b] * nx + x_hat) * nw + w_hat
        v_blocks.append(draw(uniforms(derive_key(cfg.seed, _TAG_V, b), n), v_thr[rows]))
    v_blocks.append(np.zeros(n, dtype=np.int64))

    sizes = (nu, nx, ny, nv)
    coord_counts = np.zeros((nu, nx, ny, ny, nv), dtype=np.int64)
    for b in range(B - 1):
        t = full_type(u_blocks[b], x_blocks[b], y_blocks[b], v_blocks[b],
                      int(boundaries[b]), sizes)
        coord_counts += t.counts
    type_coord = FullType(coord_counts, (B - 1) * n)
    type_last = full_type(u_blocks[B - 1], x_blocks[B - 1], y_blocks[B - 1],
                          v_blocks[B - 1], int(boundaries[B - 1]), sizes)
    type_all = FullType(coord_counts + type_last.counts, B * n)

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
    cb = Codebook(candidate, n, rate, seed)
    cb.materialize_x()
    if cb.m_count == 1:
        return {"event": False, "m_count": 1, "wrong_candidates": 0}
    m_prev, m_true = 0, 1
    y_prev = channel_block(cb.x_word(m_prev), y0, candidate.channel,
                           derive_key(seed, _TAG_CHAN, 0))
    y_cur = channel_block(cb.x_word(m_true), int(y_prev[-1]), candidate.channel,
                          derive_key(seed, _TAG_CHAN, 1))
    gaps1, gaps2 = _decode_gaps(cb, y_prev, y_cur, m_prev, y0, int(y_prev[-1]), eps)
    passing = (gaps1 <= eps) & (gaps2 <= eps)
    passing[m_true] = False
    wrong = int(passing.sum())
    return {"event": wrong > 0, "m_count": cb.m_count, "wrong_candidates": wrong}
