"""Adjacent-triplet empirical types, typicality gaps, and exhaustive
small-blocklength audits of the equipartition and cardinality bounds.

Types are stored as integer count tables, never floats, so counting
invariants (marginalization commutes with counting, counts sum to n) are
exact; normalization happens only at comparison time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from . import kernels
from .probability import (
    Dist,
    JointDist,
    Kernel,
    entropy_table,
    induced_transition,
    stationary_dist,
    triplet_law,
)
from .rng import derive_key, derive_keys, draw, thresholds, uniform_grid

MAX_EXACT_PAIRS = 10 ** 7      # default enumeration guard for audits
AUDIT_CHUNK_SYMBOLS = 1 << 14  # sampled-audit trials x n per batched pass; bounds memory
_FLOAT_GUARD = 1e-9            # absorbs round-off in boundary comparisons


class EnumerationTooLarge(RuntimeError):
    """Exact enumeration was requested past the sequence-pair guard."""


def check_seq(seq: np.ndarray, size: int, name: str, n: Optional[int] = None) -> np.ndarray:
    """seq as a one-dimensional int64 array of symbols in [0, size), of
    length n when n is given; a ValueError names `name` otherwise."""
    seq = np.asarray(seq)
    if seq.size and seq.dtype.kind not in "biu":
        raise ValueError(f"{name} has non-integer symbols")
    seq = seq.astype(np.int64, copy=False)
    if seq.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if seq.size and (seq.min() < 0 or seq.max() >= size):
        raise ValueError(f"{name} has symbols outside [0, {size})")
    if n is not None and seq.size != n:
        raise ValueError(f"{name} length {seq.size} does not match n={n}")
    return seq


def _check_pair(x_seq, y_seq, y0: int, x_size: int, y_size: int):
    """(x_seq, y_seq) checked as equal-length symbol sequences, y0 as a state."""
    x_seq = check_seq(x_seq, x_size, "x_seq")
    y_seq = check_seq(y_seq, y_size, "y_seq")
    if x_seq.size != y_seq.size:
        raise ValueError(f"length mismatch: {x_seq.size} vs {y_seq.size}")
    kernels.check_state(y0, y_size)
    return x_seq, y_seq


@dataclass(frozen=True, eq=False)
class TripletType:
    """Empirical counts over adjacent triplets (y_prev, x, y)."""

    counts: np.ndarray  # (ny, nx, ny) int64
    n: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if counts.sum() != self.n:
            raise ValueError("triplet counts do not sum to n")

    @property
    def normalized(self) -> np.ndarray:
        return self.counts / self.n


@dataclass(frozen=True, eq=False)
class FullType:
    """Empirical counts over 5-tuples (u, x, y_prev, y, v)."""

    counts: np.ndarray  # (nu, nx, ny, ny, nv) int64
    n: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if counts.sum() != self.n:
            raise ValueError("full-type counts do not sum to n")

    @property
    def normalized(self) -> np.ndarray:
        return self.counts / self.n

    def to_triplet(self) -> TripletType:
        """Marginalize out (u, v); reproduces triplet_type on the same data."""
        table = self.counts.sum(axis=(0, 4))  # (nx, ny, ny) -> reorder to (ny, nx, ny)
        return TripletType(np.transpose(table, (1, 0, 2)), self.n)


@dataclass(frozen=True)
class AepConstants:
    """Finite log-probability bounds entering the equipartition deviation."""

    l_x: float
    l_w: float
    boundary: float


def triplet_type(x_seq, y_seq, y0: int, x_size: int, y_size: int) -> TripletType:
    """Count adjacent triplets (y_{t-1}, x_t, y_t); y0 supplies y_0."""
    x_seq, y_seq = _check_pair(x_seq, y_seq, y0, x_size, y_size)
    if x_seq.size < 1:
        raise ValueError("sequences must have length >= 1")
    counts = kernels.triplet_counts(x_seq, y_seq, y0, x_size, y_size)
    return TripletType(counts.reshape(y_size, x_size, y_size), x_seq.size)


def full_type(u_seq, x_seq, y_seq, v_seq, y0: int,
              sizes: Tuple[int, int, int, int]) -> FullType:
    """Count 5-tuples (u_t, x_t, y_{t-1}, y_t, v_t)."""
    nu, nx, ny, nv = sizes
    u_seq = check_seq(u_seq, nu, "u_seq")
    x_seq = check_seq(x_seq, nx, "x_seq")
    y_seq = check_seq(y_seq, ny, "y_seq")
    v_seq = check_seq(v_seq, nv, "v_seq")
    n = u_seq.size
    if not (x_seq.size == y_seq.size == v_seq.size == n):
        raise ValueError("all four sequences must have the same length")
    if n < 1:
        raise ValueError("sequences must have length >= 1")
    kernels.check_state(y0, ny)
    yprev = kernels.prev_states(y_seq, y0)
    cells = (((u_seq * nx + x_seq) * ny + yprev) * ny + y_seq) * nv + v_seq
    counts = kernels.row_counts(cells, nu * nx * ny * ny * nv)
    return FullType(counts.reshape(nu, nx, ny, ny, nv), n)


def type_gap(t: Union[TripletType, FullType], target: JointDist) -> float:
    """l1 distance between a normalized type and a target distribution."""
    if t.counts.shape != target.pmf.shape:
        raise ValueError(f"shape mismatch {t.counts.shape} vs {target.pmf.shape}")
    return float(np.abs(t.normalized - target.pmf).sum())


def project_type(t: TripletType):
    """Exact input marginal and adjacent-pair marginal of a triplet type."""
    x_marginal = t.counts.sum(axis=(0, 2)) / t.n
    pair_marginal = t.counts.sum(axis=1) / t.n
    return x_marginal, pair_marginal


def conditional_gap(x_seq, y_seq, y0: int, pi: Dist, w: Kernel) -> float:
    """l1 gap between the triplet type and pi x (empirical x-marginal) x w."""
    t = triplet_type(x_seq, y_seq, y0, w.input_sizes[0], w.output_size)
    return _conditional_gap(t, pi, w)


def _conditional_gap(t: TripletType, pi: Dist, w: Kernel) -> float:
    qx = t.counts.sum(axis=(0, 2)) / t.n
    return float(np.abs(t.normalized - triplet_law(pi.pmf, qx, w)).sum())


def sequence_log_prob(x_seq, y_seq, y0: int, px: Dist, w: Kernel) -> float:
    """log2 P(x^n, y^n) under iid inputs and the one-step channel, y0 fixed.

    Returns -inf when the path crosses a zero-probability factor.
    """
    x_seq, y_seq = _check_pair(x_seq, y_seq, y0, px.size, w.output_size)
    return float(_path_log2(x_seq, y_seq, y0, px, w))


def _path_log2(x, y, y0: int, px: Dist, w: Kernel) -> np.ndarray:
    """log2 P(x, y) of the paths along the last axis; -inf across a zero factor."""
    with np.errstate(divide="ignore"):  # a zero factor gives log2 = -inf
        return np.log2(px.pmf[x] * w.table[x, kernels.prev_states(y, y0), y]).sum(axis=-1)


def sample_pairs(keys, n: int, px: Dist, w: Kernel, y0: int):
    """(x, y), each (len(keys), n): per key k, x is drawn from px on the
    words of derive_key(k, 0) and y is the channel path from y0 on the words
    of derive_key(k, 1).  A single key gives one row."""
    x = draw(uniform_grid(derive_keys(keys, 0), n), thresholds(px.pmf))
    return x, kernels.markov_path(x, y0, w.thresholds, uniform_grid(derive_keys(keys, 1), n))


def prop1_gaps(x_seq, y_seq, y0: int, px: Dist, w: Kernel,
               pi: Optional[Dist] = None) -> dict:
    """All four gaps entering the typicality projection properties.

    Returns joint, x-marginal, pair-marginal and conditional gaps for one
    sequence pair, measured against the product target pi x px x w and its
    marginals.
    """
    if pi is None:
        pi = stationary_dist(induced_transition(px, w))
    nx, ny = px.size, w.output_size
    t = triplet_type(x_seq, y_seq, y0, nx, ny)
    joint = float(np.abs(t.normalized - triplet_law(pi.pmf, px.pmf, w)).sum())
    x_marg, pair_marg = project_type(t)
    x_gap = float(np.abs(x_marg - px.pmf).sum())
    t_matrix = induced_transition(px, w).table
    pair_gap = float(np.abs(pair_marg - pi.pmf[:, None] * t_matrix).sum())
    cond = _conditional_gap(t, pi, w)
    return {"joint": joint, "x": x_gap, "pair": pair_gap, "conditional": cond}


def aep_constants(px: Dist, w: Kernel, n: int, y0_known: bool = True) -> AepConstants:
    """Support log-bounds L_X, L_W plus the first-step boundary term.

    With a known initial state the first channel factor is an ordinary
    path factor and the boundary term vanishes; for an unknown start it
    is the worst-case first-step log-probability divided by n.
    """
    px_pos = px.pmf[px.pmf > 0]
    w_pos = w.table[w.table > 0]
    l_x = float(np.abs(np.log2(px_pos)).max())
    l_w = float(np.abs(np.log2(w_pos)).max())
    if y0_known:
        boundary = 0.0
    else:
        first = px.pmf[:, None, None] * w.table  # (x, y0, y1)
        first = first[first > 0]
        boundary = float(np.abs(np.log2(first)).max()) / n
    return AepConstants(l_x=l_x, l_w=l_w, boundary=boundary)


@dataclass(frozen=True)
class AepAuditReport:
    """Outcome of one equipartition audit at a fixed (n, eps)."""

    mode: str                   # "exact" or "statistical"
    n: int
    eps: float
    delta: float
    y0: int
    h_rate: float               # H(X, Y | Y') in bits
    constants: AepConstants
    pairs_total: int
    pairs_checked: int
    typical_count: Optional[int]
    typical_prob: float
    prob_mass_checked: float
    nll_min: float
    nll_max: float
    sandwich_ok: bool
    cardinality_log2_bound: float
    cardinality_ok: Optional[bool]
    all_pass: bool

    def to_dict(self) -> dict:
        d = {
            "mode": self.mode, "n": self.n, "eps": self.eps, "delta": self.delta,
            "y0": self.y0, "h_rate": self.h_rate,
            "l_x": self.constants.l_x, "l_w": self.constants.l_w,
            "boundary": self.constants.boundary,
            "pairs_total": self.pairs_total, "pairs_checked": self.pairs_checked,
            "typical_count": self.typical_count, "typical_prob": self.typical_prob,
            "prob_mass_checked": self.prob_mass_checked,
            "nll_min": self.nll_min, "nll_max": self.nll_max,
            "sandwich_ok": self.sandwich_ok,
            "cardinality_log2_bound": self.cardinality_log2_bound,
            "cardinality_ok": self.cardinality_ok, "all_pass": self.all_pass,
        }
        return d


def aep_audit(n: int, eps: float, px: Dist, w: Kernel, y0: int = 0,
              delta: Optional[float] = None, mode: str = "auto",
              max_pairs: int = MAX_EXACT_PAIRS, sample_size: int = 100_000,
              seed: int = 0) -> AepAuditReport:
    """Audit the probability sandwich and cardinality bound at blocklength n.

    Exact mode enumerates every (x^n, y^n) pair, classifies typicality by
    the triplet-type gap against pi x px x w, and checks that every
    typical pair has -(1/n) log2 P within delta of H(X,Y|Y') and that the
    typical count stays below 2^{n (H + delta)}.  Past `max_pairs` the
    audit switches to seeded sampling from the generation law ("auto") or
    raises EnumerationTooLarge (mode="exact").  delta defaults to
    eps (L_X + L_W) + boundary, the smallest value the deviation bound
    guarantees; smaller or non-finite requests are rejected, as is a
    non-finite eps.  stationary_dist raises AssumptionViolated unless the
    output chain is unichain and aperiodic.
    """
    if mode not in ("auto", "exact", "sample"):
        raise ValueError(f"unknown audit mode {mode!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be > 0 and finite, got {eps}")
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    nx, ny = px.size, w.output_size
    kernels.check_state(y0, ny)
    pi = stationary_dist(induced_transition(px, w))
    q = triplet_law(pi.pmf, px.pmf, w)
    h_rate = entropy_table(q) - entropy_table(pi.pmf)
    consts = aep_constants(px, w, n, y0_known=True)
    min_delta = eps * (consts.l_x + consts.l_w) + consts.boundary
    if delta is None:
        delta = min_delta
    elif not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    elif delta < min_delta - 1e-12:
        raise ValueError(f"delta={delta} is below the guaranteed bound {min_delta}")

    pairs_total = nx ** n * ny ** n
    exact = pairs_total <= max_pairs if mode == "auto" else (mode == "exact")
    if mode == "exact" and pairs_total > max_pairs:
        raise EnumerationTooLarge(f"{pairs_total} pairs exceed the guard {max_pairs}")

    logpx = np.where(px.pmf > 0, np.log2(np.where(px.pmf > 0, px.pmf, 1.0)), -np.inf)
    support = (w.table > 0)
    logw = np.where(support, np.log2(np.where(support, w.table, 1.0)), -np.inf)
    # cell order (y_prev, x, y) -> flat index (i * nx + x) * ny + j
    logw_flat = np.transpose(logw, (1, 0, 2)).ravel()
    support_flat = np.transpose(support, (1, 0, 2)).ravel()
    q_flat = q.ravel()

    if exact:
        xdig = kernels.digit_rows(nx ** n, nx, n)
        ydig = kernels.digit_rows(ny ** n, ny, n)
        typical, prob_t, prob_all, nll_min, nll_max = kernels.aep_enumerate(
            xdig, ydig, y0, logpx, logw_flat, support_flat, q_flat, n, nx, ny, eps)
        pairs_checked = pairs_total
        typical_count: Optional[int] = int(typical)
        typical_prob = float(prob_t)
        card_ok: Optional[bool] = (
            typical == 0 or math.log2(typical) < n * (h_rate + delta)
        )
        mode_used = "exact"
    else:
        trial_root = derive_key(seed, 5001)
        chunk = max(1, AUDIT_CHUNK_SYMBOLS // n)
        typical = 0
        nll_min, nll_max = np.inf, -np.inf
        for lo in range(0, sample_size, chunk):
            # trial t is the pair of key derive_key(seed, 5001, t)
            keys = derive_keys(trial_root, np.arange(lo, min(lo + chunk, sample_size)))
            x, y = sample_pairs(keys, n, px, w, y0)
            hit = kernels.l1_gaps(kernels.triplet_counts(x, y, y0, nx, ny), n, q_flat) <= eps
            if hit.any():
                typical += int(hit.sum())
                nll = -_path_log2(x[hit], y[hit], y0, px, w) / n
                nll_min = min(nll_min, float(nll.min()))
                nll_max = max(nll_max, float(nll.max()))
        pairs_checked = sample_size
        typical_count = None
        typical_prob = typical / sample_size  # estimate of P(typical)
        prob_all = float("nan")  # no exhaustive mass check in sampling mode
        card_ok = None
        mode_used = "statistical"

    empty = (typical_count == 0) if typical_count is not None else (typical == 0)
    sandwich_ok = bool(
        empty
        or (nll_max <= h_rate + delta + _FLOAT_GUARD
            and nll_min >= h_rate - delta - _FLOAT_GUARD)
    )
    all_pass = sandwich_ok and (card_ok is not False)
    return AepAuditReport(
        mode=mode_used, n=n, eps=eps, delta=float(delta), y0=y0, h_rate=h_rate,
        constants=consts, pairs_total=pairs_total, pairs_checked=pairs_checked,
        typical_count=typical_count, typical_prob=typical_prob,
        prob_mass_checked=float(prob_all),
        nll_min=float(nll_min), nll_max=float(nll_max), sandwich_ok=sandwich_ok,
        cardinality_log2_bound=n * (h_rate + delta), cardinality_ok=card_ok,
        all_pass=all_pass,
    )
