"""Exact finite-alphabet probability arithmetic and Markov-chain analysis.

Provides the value types used across the package (Dist, Kernel,
JointDist, TransitionMatrix), information measures in bits, the
input-induced output transition matrix of a one-step-memory channel, its
equilibrium distribution, and the lifted adjacent-triplet chain.

All types validate on construction, freeze their arrays, and every
operation is a pure function, so instances can be shared across
concurrent workers without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .rng import make_cdf

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


@dataclass(frozen=True, eq=False)
class Dist:
    """A pmf over a finite alphabet."""

    pmf: np.ndarray

    def __post_init__(self):
        pmf = _frozen(self.pmf)
        if pmf.ndim != 1:
            raise ValueError("pmf must be one-dimensional")
        if np.any(pmf < 0):
            raise ValueError("pmf has negative entries")
        if abs(pmf.sum() - 1.0) > PROB_TOL:
            raise ValueError(f"pmf sums to {pmf.sum()!r}, not 1 within {PROB_TOL}")
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
        table = _frozen(self.table)
        if table.ndim < 2:
            raise ValueError("kernel table needs at least one conditioning axis")
        if 0 in table.shape[:-1]:
            raise ValueError(f"kernel table {table.shape} has an empty conditioning axis")
        if np.any(table < 0):
            raise ValueError("kernel has negative entries")
        rowsums = table.sum(axis=-1)
        if np.any(np.abs(rowsums - 1.0) > PROB_TOL):
            bad = np.argwhere(np.abs(rowsums - 1.0) > PROB_TOL)[0]
            raise ValueError(f"kernel row {tuple(bad)} sums to {rowsums[tuple(bad)]!r}")
        object.__setattr__(self, "table", table)

    @property
    def input_sizes(self) -> Tuple[int, ...]:
        return self.table.shape[:-1]

    @property
    def output_size(self) -> int:
        return self.table.shape[-1]

    @cached_property
    def cdf(self) -> np.ndarray:
        """(prod(input_sizes), output_size) row cdf table for inverse-cdf
        sampling; row r is the row-major flattened conditioning index."""
        return _frozen(make_cdf(self.table.reshape(-1, self.output_size)))


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """A square row-stochastic matrix T[i, j] = P(next=j | current=i)."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _frozen(self.entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("transition matrix must be square")
        if entries.shape[0] == 0:
            raise ValueError("transition matrix has no states")
        if np.any(entries < 0):
            raise ValueError("transition matrix has negative entries")
        rowsums = entries.sum(axis=1)
        if np.any(np.abs(rowsums - 1.0) > PROB_TOL):
            i = int(np.argmax(np.abs(rowsums - 1.0)))
            raise ValueError(f"row {i} sums to {rowsums[i]!r}, not 1 within {PROB_TOL}")
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class JointDist:
    """A joint pmf table with one axis per coordinate."""

    pmf: np.ndarray

    def __post_init__(self):
        pmf = _frozen(self.pmf)
        if np.any(pmf < 0):
            raise ValueError("joint pmf has negative entries")
        if abs(pmf.sum() - 1.0) > PROB_TOL:
            raise ValueError(f"joint pmf sums to {pmf.sum()!r}")
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


def induced_transition(px: Dist, w: Kernel) -> TransitionMatrix:
    """Output transition matrix T(j|i) = sum_x px(x) w(j | x, i).

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
    t = np.einsum("x,xij->ij", px.pmf, w.table)
    return TransitionMatrix(t)


def _successors(entries: np.ndarray) -> list:
    return [np.nonzero(entries[i] > 0)[0].tolist() for i in range(entries.shape[0])]


def _strongly_connected_components(adj: list) -> list:
    """Iterative Tarjan; returns SCCs as lists of state indices."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list = []
    sccs = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            for i in range(pi, len(adj[v])):
                u = adj[v][i]
                if index[u] == -1:
                    work[-1] = (v, i + 1)
                    work.append((u, 0))
                    recurse = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if recurse:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


def _class_period(adj: list, members: list) -> int:
    """gcd of cycle lengths inside one strongly connected class via BFS levels."""
    member_set = set(members)
    root = members[0]
    level = {root: 0}
    frontier = [root]
    g = 0
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in member_set:
                    continue
                if u in level:
                    g = math.gcd(g, level[v] + 1 - level[u])
                else:
                    level[u] = level[v] + 1
                    nxt.append(u)
        frontier = nxt
    return abs(g) if g != 0 else 0


def chain_structure(t: TransitionMatrix) -> ChainStructure:
    """Recurrent classes (closed SCCs of the positive-entry digraph) and
    aperiodicity of the unique recurrent class when there is one."""
    adj = _successors(t.entries)
    sccs = _strongly_connected_components(adj)
    recurrent = []
    for comp in sccs:
        members = set(comp)
        closed = all(u in members for v in comp for u in adj[v])
        if closed:
            recurrent.append(sorted(comp))
    recurrent.sort()
    is_unichain = len(recurrent) == 1
    is_aperiodic = is_unichain and _class_period(adj, recurrent[0]) == 1
    return ChainStructure(
        recurrent_classes=tuple(frozenset(c) for c in recurrent),
        is_unichain=is_unichain,
        is_aperiodic=is_aperiodic,
    )


def stationary_dist(t: TransitionMatrix, tol: float = STATIONARY_TOL) -> Dist:
    """Equilibrium pmf pi with ||pi T - pi||_1 <= tol.

    pi is zero off the recurrent class R; on R it solves pi T_RR = pi,
    sum(pi) = 1 directly, with the normalization replacing one balance
    equation (Stewart 1994, Numerical Solution of Markov Chains).
    Raises AssumptionViolated unless the chain is unichain with an
    aperiodic recurrent class, and ConvergenceError if the solution misses
    the tolerance.
    """
    structure = chain_structure(t)
    if not (structure.is_unichain and structure.is_aperiodic):
        raise AssumptionViolated(
            f"chain has {len(structure.recurrent_classes)} recurrent class(es), "
            f"aperiodic={structure.is_aperiodic}"
        )
    m = t.entries
    rec = sorted(structure.recurrent_classes[0])
    # (T - I)^T on R, the diagonal taken from the off-diagonal sums so that
    # slow chains (T_ii near 1) keep their small rates exactly
    q = m[np.ix_(rec, rec)].T.copy()
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=0))
    q[-1] = 1.0
    pi = np.zeros(t.size)
    pi[rec] = np.clip(np.linalg.solve(q, np.eye(len(rec))[-1]), 0.0, None)
    pi = pi / pi.sum()
    if np.abs(pi @ m - pi).sum() > tol:
        raise ConvergenceError("equilibrium misses tolerance")
    return Dist(pi)


def lifted_transition(px: Dist, w: Kernel) -> TransitionMatrix:
    """Transition matrix of the adjacent-triplet process S_t = (y', x, y).

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
    m = np.zeros((ny * nx * ny, ny * nx * ny))
    for i in range(ny):
        for x in range(nx):
            for j in range(ny):
                src = (i * nx + x) * ny + j
                m[src].reshape(ny, nx, ny)[j, :, :] = step[j]
    return TransitionMatrix(m)


def lifted_index(i: int, x: int, j: int, nx: int, ny: int) -> int:
    """Flat state index used by lifted_transition."""
    return (i * nx + x) * ny + j
