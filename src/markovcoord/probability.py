"""Exact finite-alphabet probability arithmetic and Markov-chain analysis.

Provides the value types used across the package (Dist, Kernel,
JointDist), information measures in bits, the input-induced output chain
of a one-step-memory channel, its equilibrium distribution, the lifted
adjacent-triplet chain and that chain's stationary law.  A chain is a
square two-dimensional Kernel, T.table[i, j] = P(next=j | current=i).

Chain structure is boolean matrix algebra on the positive-entry pattern:
recurrence from the reachability closure, found by repeated squaring, and
aperiodicity of the recurrent class from Wielandt's bound, under which a
primitive pattern of r states has an all-positive power (r-1)^2 + 1.

All types validate on construction, freeze their arrays, and every
operation is a pure function, so instances can be shared across
concurrent workers without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .rng import thresholds

PROB_TOL = 1e-9          # validity tolerance for pmfs and kernel rows
STATIONARY_TOL = 1e-12   # required ||pi T - pi||_1 of a returned equilibrium
NEG_INFO_TOL = 1e-9      # information quantities below -NEG_INFO_TOL are errors


class AssumptionViolated(RuntimeError):
    """The chain does not have a unique aperiodic recurrent class."""


class ConvergenceError(RuntimeError):
    """A computed equilibrium misses its stationarity tolerance."""


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def _finite_frozen(a: np.ndarray, what: str) -> np.ndarray:
    """_frozen(a); a ValueError names `what` unless every entry is finite,
    since a NaN passes every sign and sum check after it."""
    out = _frozen(a)
    if not np.isfinite(out).all():
        raise ValueError(f"{what} has non-finite entries")
    return out


@dataclass(frozen=True, eq=False)
class Dist:
    """A pmf over a finite alphabet."""

    pmf: np.ndarray

    def __post_init__(self):
        pmf = _finite_frozen(self.pmf, "pmf")
        if pmf.ndim != 1:
            raise ValueError("pmf must be one-dimensional")
        if np.any(pmf < 0):
            raise ValueError("pmf has negative entries")
        if abs(pmf.sum() - 1.0) > PROB_TOL:
            raise ValueError(f"pmf sums to {float(pmf.sum())!r}, not 1 within {PROB_TOL}")
        object.__setattr__(self, "pmf", pmf)

    @property
    def size(self) -> int:
        return self.pmf.size


@dataclass(frozen=True, eq=False)
class Kernel:
    """A conditional pmf table, one output row per joint conditioning index.

    `table` has shape (*input_sizes, output_size); conditioning
    coordinates are ordered as written in the kernel's subscript, e.g. a
    channel P(y | x, y') is stored as table[x, y_prev, y].
    """

    table: np.ndarray

    def __post_init__(self):
        table = _finite_frozen(self.table, "kernel")
        if table.ndim < 2:
            raise ValueError("kernel table needs at least one conditioning axis")
        if 0 in table.shape[:-1]:
            raise ValueError(f"kernel table {table.shape} has an empty conditioning axis")
        if np.any(table < 0):
            raise ValueError("kernel has negative entries")
        rowsums = table.sum(axis=-1)
        if np.any(np.abs(rowsums - 1.0) > PROB_TOL):
            bad = tuple(np.argwhere(np.abs(rowsums - 1.0) > PROB_TOL)[0].tolist())
            raise ValueError(f"kernel row {bad} sums to {float(rowsums[bad])!r}")
        object.__setattr__(self, "table", table)

    @property
    def input_sizes(self) -> Tuple[int, ...]:
        return self.table.shape[:-1]

    @property
    def output_size(self) -> int:
        return self.table.shape[-1]

    @cached_property
    def thresholds(self) -> np.ndarray:
        """(prod(input_sizes), output_size - 1) uint64 threshold table for
        `rng.draw`; row r is the row-major flattened conditioning index."""
        thr = thresholds(self.table.reshape(-1, self.output_size))
        thr.setflags(write=False)
        return thr


@dataclass(frozen=True, eq=False)
class JointDist:
    """A joint pmf table with one axis per coordinate."""

    pmf: np.ndarray

    def __post_init__(self):
        pmf = _finite_frozen(self.pmf, "joint pmf")
        if np.any(pmf < 0):
            raise ValueError("joint pmf has negative entries")
        if abs(pmf.sum() - 1.0) > PROB_TOL:
            raise ValueError(f"joint pmf sums to {float(pmf.sum())!r}")
        object.__setattr__(self, "pmf", pmf)

    @property
    def arity(self) -> int:
        return self.pmf.ndim

    def marginal(self, keep: Sequence[int]) -> "JointDist":
        """Marginal over the coordinates in `keep`, in the order given."""
        keep = list(keep)
        if len(set(keep)) != len(keep) or not set(keep) <= set(range(self.pmf.ndim)):
            raise ValueError(f"keep {keep} must name distinct coordinates "
                             f"in [0, {self.pmf.ndim})")
        drop = tuple(i for i in range(self.pmf.ndim) if i not in keep)
        table = self.pmf.sum(axis=drop) if drop else self.pmf
        # after summing, axes sit in sorted-coordinate order; put them in `keep` order
        rank = np.argsort(np.argsort(keep))
        if list(rank) != list(range(len(keep))):
            table = np.transpose(table, axes=rank)
        return JointDist(table)

    def permuted(self, order: Sequence[int]) -> "JointDist":
        return JointDist(np.transpose(self.pmf, axes=order))


@dataclass(frozen=True)
class ChainStructure:
    """Recurrence/periodicity summary of a finite Markov chain."""

    recurrent_classes: Tuple[frozenset, ...]
    is_unichain: bool
    is_aperiodic: bool


def entropy_table(p: np.ndarray) -> float:
    """Shannon entropy in bits of an arbitrary probability table, 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64).ravel()
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def entropy(d: Dist) -> float:
    """H(X) in bits; lies in [0, log2 |X|]."""
    return entropy_table(d.pmf)


def mutual_info(j: JointDist) -> float:
    """I(A;B) in bits of a two-coordinate joint distribution."""
    if j.arity != 2:
        raise ValueError(f"mutual_info needs a 2-coordinate joint, got {j.arity}")
    p = j.pmf
    value = (entropy_table(p.sum(1)) + entropy_table(p.sum(0)) - entropy_table(p))
    return _clamp_info(value, "I(A;B)")


def cond_mutual_info(j: JointDist) -> float:
    """I(A;B|C) of a three-coordinate joint with C the conditioning coordinate."""
    if j.arity != 3:
        raise ValueError(f"cond_mutual_info needs a 3-coordinate joint, got {j.arity}")
    p = j.pmf
    h_ac = entropy_table(p.sum(1))
    h_bc = entropy_table(p.sum(0))
    h_abc = entropy_table(p)
    h_c = entropy_table(p.sum((0, 1)))
    return _clamp_info(h_ac + h_bc - h_abc - h_c, "I(A;B|C)")


def _clamp_info(value: float, what: str) -> float:
    if value < -NEG_INFO_TOL:
        raise ArithmeticError(f"{what} = {value}, below -{NEG_INFO_TOL}; inputs inconsistent")
    return max(value, 0.0)


def tv_distance(p: JointDist, q: JointDist) -> float:
    """l1 distance sum_cells |p - q|, in [0, 2]."""
    if p.pmf.shape != q.pmf.shape:
        raise ValueError(f"shape mismatch {p.pmf.shape} vs {q.pmf.shape}")
    return float(np.abs(p.pmf - q.pmf).sum())


def induced_transition(px: Dist, w: Kernel) -> Kernel:
    """Output chain T(j|i) = sum_x px(x) w(j | x, i), a square Kernel.

    `w` must condition on (input, previous output) with the previous-output
    alphabet equal to the output alphabet.
    """
    if len(w.input_sizes) != 2:
        raise ValueError("channel kernel must condition on (x, y_prev)")
    nx, ny_prev = w.input_sizes
    if ny_prev != w.output_size:
        raise ValueError("previous-output alphabet must equal output alphabet")
    if px.size != nx:
        raise ValueError("input pmf does not match channel input alphabet")
    return Kernel(np.einsum("x,xij->ij", px.pmf, w.table))


def _square_until(pattern: np.ndarray, power: int) -> np.ndarray:
    """Boolean pattern^(2^s) for the least s with 2^s >= power.

    Stops at an all-positive power: every later power of a pattern with a
    positive diagonal or of an irreducible one is all-positive too.
    """
    m = pattern.astype(np.float64)
    reached = 1
    while reached < power and not m.all():
        m = np.minimum(m @ m, 1.0)  # 0/1 entries: BLAS products stay exact
        reached *= 2
    return m > 0


def chain_structure(t: Kernel) -> ChainStructure:
    """Recurrent classes and aperiodicity of the positive-entry digraph A.

    reach[i, j] says j is reachable from i in zero or more steps: the
    closure of A | I by at most ceil(log2 k) boolean squarings.  State i is
    recurrent iff every state it reaches reaches it back, and its class is
    reach[i]; classes are ordered by their smallest state.  The unique
    class of r states, when there is one, is aperiodic iff its pattern is
    primitive, i.e. its power (r-1)^2 + 1 is all-positive (Wielandt 1950).
    A kernel that is not square and two-dimensional is a ValueError.
    """
    a = t.table > 0
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"a chain is a square 2-D kernel, got shape {a.shape}")
    k = a.shape[0]
    reach = _square_until(a | np.eye(k, dtype=bool), k)
    # recurrent states that are the smallest of their class
    smallest = (reach <= reach.T).all(axis=1) & (reach.argmax(axis=1) == np.arange(k))
    recurrent = [np.flatnonzero(reach[i]).tolist() for i in np.flatnonzero(smallest)]
    is_unichain = len(recurrent) == 1
    if is_unichain:
        c, r = recurrent[0], len(recurrent[0])
        is_aperiodic = bool(_square_until(a[c][:, c], (r - 1) ** 2 + 1).all())
    else:
        is_aperiodic = False
    return ChainStructure(
        recurrent_classes=tuple(frozenset(c) for c in recurrent),
        is_unichain=is_unichain,
        is_aperiodic=is_aperiodic,
    )


def stationary_dist(t: Kernel, tol: float = STATIONARY_TOL) -> Dist:
    """Equilibrium pmf pi with ||pi T - pi||_1 <= tol.

    pi is zero off the recurrent class R; on R it solves pi T_RR = pi,
    sum(pi) = 1 directly, with the normalization replacing one balance
    equation (Stewart 1994, Numerical Solution of Markov Chains).
    Raises what chain_structure raises, AssumptionViolated unless the
    chain is unichain with an aperiodic recurrent class, and
    ConvergenceError if the solution misses the tolerance.
    """
    structure = chain_structure(t)
    if not (structure.is_unichain and structure.is_aperiodic):
        raise AssumptionViolated(
            f"chain has {len(structure.recurrent_classes)} recurrent class(es), "
            f"aperiodic={structure.is_aperiodic}"
        )
    m = t.table
    rec = sorted(structure.recurrent_classes[0])
    # (T - I)^T on R, the diagonal taken from the off-diagonal sums so that
    # slow chains (T_ii near 1) keep their small rates exactly
    q = m[np.ix_(rec, rec)].T.copy()
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=0))
    q[-1] = 1.0
    pi = np.zeros(m.shape[0])
    pi[rec] = np.clip(np.linalg.solve(q, np.eye(len(rec))[-1]), 0.0, None)
    pi = pi / pi.sum()
    if np.abs(pi @ m - pi).sum() > tol:
        raise ConvergenceError("equilibrium misses tolerance")
    return Dist(pi)


def lifted_transition(px: Dist, w: Kernel) -> Kernel:
    """Chain kernel of the adjacent-triplet process S_t = (y', x, y).

    From state (i, x, j) the chain moves to (j, x', k) with probability
    px(x') w(k | x', j); any state whose first coordinate differs from j
    is structurally unreachable.  State (i, x, j) maps to flat index
    (i * |X| + x) * |Y| + j.
    """
    if len(w.input_sizes) != 2 or w.input_sizes[1] != w.output_size:
        raise ValueError("channel kernel must condition on (x, y_prev) with square state")
    nx, ny = px.size, w.output_size
    if w.input_sizes[0] != nx:
        raise ValueError("input pmf does not match channel input alphabet")
    step = np.einsum("x,xjk->jxk", px.pmf, w.table)  # P(x', k | current y = j)
    m = np.zeros((ny, nx, ny, ny, nx, ny))  # (i, x, j) -> (j', x', k)
    j = np.arange(ny)
    m[:, :, j, j] = step
    return Kernel(m.reshape(ny * nx * ny, ny * nx * ny))


def triplet_law(pi: np.ndarray, px: np.ndarray, w: Kernel) -> np.ndarray:
    """pi(y') px(x) w(y | x, y') as a (y', x, y) table.

    With pi the equilibrium of the output chain px drives through w, this
    is the stationary law of the lifted chain in lifted_transition's cell
    order: the decoder's condition-1 target and the typicality target of
    the input-driven Markov AEP.
    """
    return np.einsum("i,x,xij->ixj", pi, px, w.table)
