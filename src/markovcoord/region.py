"""Inner and outer bounds of the achievable coordination region.

A joint distribution over (U, X, Y', Y, V) is inner-feasible when some
auxiliary alphabet W and kernels P(w|u,x), P(v|y,x,w) reproduce it as the
marginal of

    P(u) P(x) P(w|u,x) pi(y') channel(y|x,y') P(v|y,x,w)

subject to the information constraint I(X;Y|Y') - I(U;W|X) >= 0.  The
outer bound keeps the same constraint over a looser factorization in
which Y' may depend on X and W may additionally see (Y, Y').

Assembled joints are ordered (U, X, W, Y', Y, V) and targets
(U, X, Y', Y, V) throughout; code that picks coordinates out of them uses
the axis names below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .probability import (
    AssumptionViolated,
    Dist,
    JointDist,
    Kernel,
    _frozen,
    cond_mutual_info,
    induced_transition,
    mutual_info,
    stationary_dist,
    triplet_law,
    tv_distance,
)

FEASIBILITY_TOL = 1e-9   # slack >= -FEASIBILITY_TOL counts as feasible
MARGINAL_GAP_TOL = 1e-6  # matching requirement on the 5-tuple marginal of a feasible candidate
TARGET_TOL = 1e-6        # structural validation tolerance for targets

AX_U, AX_X, AX_W, AX_YP, AX_Y, AX_V = range(6)   # axes of an assembled joint
TARGET_AXES = (AX_U, AX_X, AX_YP, AX_Y, AX_V)
AUXILIARY_AXES = (AX_U, AX_W, AX_X)   # I(U; W | X)
CHANNEL_AXES = (AX_X, AX_Y, AX_YP)    # I(X; Y | Y')

_STEP_GRID = (1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)
_GAP_PENALTY = 1e6


class InconsistentTarget(RuntimeError):
    """Target joint distribution violates the channel/stationarity structure."""

    def __init__(self, message: str, details: Optional[List[str]] = None):
        super().__init__(message)
        self.details = details or []


@dataclass(frozen=True, eq=False)
class InnerCandidate:
    """Factorized specification for the inner (achievability) bound; |W| is
    the output size of p_w_given_ux."""

    p_u: Dist
    p_x: Dist
    p_w_given_ux: Kernel     # table [u, x, w]
    channel: Kernel          # table [x, y_prev, y]
    p_v_given_yxw: Kernel    # table [y, x, w, v]

    def __post_init__(self):
        nu, nx, nw, ny, _ = self.sizes
        if self.p_w_given_ux.input_sizes != (nu, nx):
            raise ValueError("p_w_given_ux shape inconsistent with (U, X)")
        if self.channel.input_sizes != (nx, ny):
            raise ValueError("channel must condition on (x, y_prev)")
        if self.p_v_given_yxw.input_sizes != (ny, nx, nw):
            raise ValueError("p_v_given_yxw shape inconsistent with (Y, X, W)")
        try:
            self.equilibrium  # solving for it checks the chain's structure
        except AssumptionViolated:
            raise AssumptionViolated("induced output chain is not unichain-aperiodic") from None

    @property
    def sizes(self) -> Tuple[int, int, int, int, int]:
        return (self.p_u.size, self.p_x.size, self.p_w_given_ux.output_size,
                self.channel.output_size, self.p_v_given_yxw.output_size)

    # Everything below is derived once per candidate and cached.

    @cached_property
    def equilibrium(self) -> Dist:
        """The equilibrium of the output chain p_x drives through the channel."""
        return stationary_dist(induced_transition(self.p_x, self.channel))

    @cached_property
    def joint(self) -> JointDist:
        """The assembled joint over (U, X, W, Y', Y, V)."""
        return assemble_inner(self)

    @cached_property
    def target(self) -> JointDist:
        """The (U, X, Y', Y, V) marginal the candidate induces."""
        return self.joint.marginal(TARGET_AXES)

    @cached_property
    def i_auxiliary(self) -> float:
        """I(U; W | X), the lower end of the scheme's rate window."""
        return cond_mutual_info(self.joint.marginal(AUXILIARY_AXES))

    @cached_property
    def i_channel(self) -> float:
        """I(X; Y | Y'), the upper end of the scheme's rate window."""
        return cond_mutual_info(self.joint.marginal(CHANNEL_AXES))

    @cached_property
    def pi(self) -> np.ndarray:
        """The Y' marginal of the joint: the equilibrium of the output chain."""
        return self.joint.marginal([AX_YP]).pmf

    @cached_property
    def p_w_given_x(self) -> np.ndarray:
        """Table [x, w] of P(w | x) = sum_u P(u) P(w | u, x)."""
        return _frozen(np.einsum("u,uxw->xw", self.p_u.pmf, self.p_w_given_ux.table))

    @cached_property
    def cover_target(self) -> np.ndarray:
        """Covering target over (u, x, w): P(u) P(x) P(w | u, x)."""
        return _frozen(np.einsum("u,x,uxw->uxw", self.p_u.pmf, self.p_x.pmf,
                                 self.p_w_given_ux.table))

    @cached_property
    def decode_target1(self) -> np.ndarray:
        """Decoder condition 1 target over (y', x, y): pi(y') P(x) W(y | x, y')."""
        return _frozen(triplet_law(self.pi, self.p_x.pmf, self.channel))

    @cached_property
    def decode_target2(self) -> np.ndarray:
        """Decoder condition 2 target over (y', x, w, y):
        pi(y') P(x) P(w | x) W(y | x, y')."""
        return _frozen(np.einsum("i,x,xw,xiy->ixwy", self.pi, self.p_x.pmf,
                                 self.p_w_given_x, self.channel.table))


def _on_target(axes: Tuple[int, ...]) -> List[int]:
    """Positions of joint axes within a (U, X, Y', Y, V) target."""
    return [TARGET_AXES.index(a) for a in axes]


@dataclass(frozen=True, eq=False)
class OuterCandidate:
    """Factorized specification for the outer (necessity) bound; |W| is
    the output size of p_w_given_uxyy."""

    p_u: Dist
    p_x: Dist
    p_yprime_given_x: Kernel   # table [x, y_prev]
    channel: Kernel            # table [x, y_prev, y]
    p_w_given_uxyy: Kernel     # table [u, x, y, y_prev, w]
    p_v_given_yxw: Kernel      # table [y, x, w, v]

    def __post_init__(self):
        nu, nx, nw = self.p_u.size, self.p_x.size, self.p_w_given_uxyy.output_size
        ny = self.channel.output_size
        if self.channel.input_sizes != (nx, ny):
            raise ValueError("channel must condition on (x, y_prev)")
        if self.p_yprime_given_x.input_sizes != (nx,) or self.p_yprime_given_x.output_size != ny:
            raise ValueError("p_yprime_given_x shape inconsistent with (X, Y')")
        if self.p_w_given_uxyy.input_sizes != (nu, nx, ny, ny):
            raise ValueError("p_w_given_uxyy shape inconsistent with (U, X, Y, Y')")
        if self.p_v_given_yxw.input_sizes != (ny, nx, nw):
            raise ValueError("p_v_given_yxw shape inconsistent with (Y, X, W)")


@dataclass(frozen=True)
class FeasibilityReport:
    """Information-constraint slack and target-marginal match of a candidate;
    feasible needs both slack >= -FEASIBILITY_TOL and marginal_gap <= MARGINAL_GAP_TOL."""

    slack: float
    feasible: bool
    marginal_gap: float
    i_channel: float     # I(X; Y | Y')
    i_auxiliary: float   # I(U; W | X)


def assemble_inner(c: InnerCandidate) -> JointDist:
    """Joint over (U, X, W, Y', Y, V) from the inner factorization.

    The Y'-coordinate carries the equilibrium distribution of the output
    chain induced by p_x through the channel.
    """
    return JointDist(_inner_joint(c.p_u.pmf, c.p_x.pmf, c.p_w_given_ux.table,
                                  c.equilibrium.pmf, c.channel.table, c.p_v_given_yxw.table))


def _inner_joint(p_u, p_x, pw, pi, channel, pv) -> np.ndarray:
    """P(u) P(x) P(w|u,x) pi(y') channel(y|x,y') P(v|y,x,w) over (U, X, W, Y', Y, V)."""
    return np.einsum("u,x,uxw,i,xiy,yxwv->uxwiyv", p_u, p_x, pw, pi, channel, pv)


def assemble_outer(c: OuterCandidate) -> JointDist:
    """Joint over (U, X, W, Y', Y, V) from the outer factorization."""
    pmf = np.einsum(
        "u,x,xi,xiy,uxyiw,yxwv->uxwiyv",
        c.p_u.pmf, c.p_x.pmf, c.p_yprime_given_x.table,
        c.channel.table, c.p_w_given_uxyy.table, c.p_v_given_yxw.table,
    )
    return JointDist(pmf)


def _feasibility(joint: JointDist, target: JointDist) -> FeasibilityReport:
    if target.arity != 5:
        raise ValueError("target must be a 5-coordinate joint (U, X, Y', Y, V)")
    i_channel = cond_mutual_info(joint.marginal(CHANNEL_AXES))
    i_aux = cond_mutual_info(joint.marginal(AUXILIARY_AXES))
    slack = i_channel - i_aux
    gap = tv_distance(joint.marginal(TARGET_AXES), target)
    return FeasibilityReport(
        slack=slack, feasible=bool(slack >= -FEASIBILITY_TOL and gap <= MARGINAL_GAP_TOL),
        marginal_gap=gap, i_channel=i_channel, i_auxiliary=i_aux,
    )


def inner_feasibility(c: InnerCandidate, target: JointDist) -> FeasibilityReport:
    """Evaluate the information constraint and marginal match of an inner candidate."""
    return _feasibility(c.joint, target)


def outer_feasibility(c: OuterCandidate, target: JointDist) -> FeasibilityReport:
    """Evaluate the information constraint and marginal match of an outer candidate."""
    return _feasibility(assemble_outer(c), target)


def embed_inner(c: InnerCandidate) -> OuterCandidate:
    """Outer candidate equivalent to an inner one: Y' drawn from the
    equilibrium independently of X, W blind to (Y, Y')."""
    nx = c.p_x.size
    ny = c.channel.output_size
    p_yx = Kernel(np.tile(c.pi, (nx, 1)))
    pw = np.broadcast_to(
        c.p_w_given_ux.table[:, :, None, None, :],
        (c.p_u.size, nx, ny, ny, c.p_w_given_ux.output_size),
    ).copy()
    return OuterCandidate(
        p_u=c.p_u, p_x=c.p_x, p_yprime_given_x=p_yx, channel=c.channel,
        p_w_given_uxyy=Kernel(pw), p_v_given_yxw=c.p_v_given_yxw,
    )


# ---------------------------------------------------------------------------
# target decomposition and the separation special case
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetDecomposition:
    """Channel-side structure extracted from a valid target joint."""

    p_u: Dist
    p_x: Dist
    channel: Kernel
    pi: Dist


def _conditional(table: np.ndarray) -> np.ndarray:
    """P(last coordinate | the rest) of a nonnegative table, uniform where
    the conditioning mass is zero."""
    mass = table.sum(axis=-1, keepdims=True)
    return np.where(mass > 0, table / np.maximum(mass, 1e-300), 1.0 / table.shape[-1])


def _decompose_channel_marginal(p_xyy: np.ndarray, tol: float) -> Tuple[Dist, Dist, Kernel]:
    """Split a (X, Y', Y) table into p_x, pi, channel; raise InconsistentTarget
    listing every cell where X and Y' are dependent or Y' is off the
    equilibrium of the induced chain.  Nothing is silently repaired."""
    details: List[str] = []
    p_x = p_xyy.sum(axis=(1, 2))
    p_yp = p_xyy.sum(axis=(0, 2))
    p_xyp = p_xyy.sum(axis=2)
    indep_gap = np.abs(p_xyp - np.outer(p_x, p_yp))
    for cell in np.argwhere(indep_gap > tol):
        details.append(f"X and Y' not independent at (x={cell[0]}, y'={cell[1]}): "
                       f"gap {indep_gap[tuple(cell)]:.3g}")
    channel = Kernel(_conditional(p_xyy))  # rows of zero mass are unconstrained
    px_dist = Dist(p_x / p_x.sum())
    try:
        pi = stationary_dist(induced_transition(px_dist, channel))
    except AssumptionViolated:
        details.append("induced output chain is not unichain-aperiodic")
    else:
        pi_gap = np.abs(p_yp - pi.pmf)
        for i in np.argwhere(pi_gap > tol).ravel():
            details.append(f"Y' marginal is not the equilibrium at state {i}: "
                           f"{p_yp[i]:.6g} vs {pi.pmf[i]:.6g}")
    if details:
        raise InconsistentTarget(
            f"target violates the channel structure in {len(details)} place(s)", details)
    return px_dist, pi, channel


def validate_target(target: JointDist, tol: float = TARGET_TOL) -> TargetDecomposition:
    """Check a target (U, X, Y', Y, V) for the structure every candidate induces.

    The (X, Y', Y) marginal must factor as p_x x pi x channel with pi the
    equilibrium of the induced chain (see _decompose_channel_marginal).
    """
    if target.arity != 5:
        raise ValueError("target must have coordinates (U, X, Y', Y, V)")
    p_u = Dist(target.pmf.sum(axis=(1, 2, 3, 4)))
    p_xyy = target.marginal(_on_target((AX_X, AX_YP, AX_Y))).pmf
    p_x, pi, channel = _decompose_channel_marginal(p_xyy, tol)
    return TargetDecomposition(p_u=p_u, p_x=p_x, channel=channel, pi=pi)


def product_target(p_uv: JointDist, p_xyy: JointDist) -> JointDist:
    """Target with independent source and channel sides, (U, X, Y', Y, V)."""
    pmf = np.einsum("uv,xiy->uxiyv", p_uv.pmf, p_xyy.pmf)
    return JointDist(pmf)


def separation_slack(p_uv: JointDist, p_xyy: JointDist) -> float:
    """I(X;Y|Y') - I(U;V): the separation form of the information constraint.

    For product-form targets this sign decides inner feasibility; the
    witness routes the source description through W.
    """
    if p_uv.arity != 2 or p_xyy.arity != 3:
        raise ValueError("need (U, V) and (X, Y', Y) joints")
    _decompose_channel_marginal(p_xyy.pmf, TARGET_TOL)
    i_channel = cond_mutual_info(p_xyy.permuted([0, 2, 1]))  # (X, Y, Y')
    return i_channel - mutual_info(p_uv)


def witness_w_equals_u(p_uv: JointDist, p_xyy: JointDist) -> InnerCandidate:
    """Inner candidate with W = U and the decoder kernel reproducing P(v|u)."""
    p_x, _, channel = _decompose_channel_marginal(p_xyy.pmf, TARGET_TOL)
    nu, nv = p_uv.pmf.shape
    nx, ny = p_x.size, channel.output_size
    p_u = Dist(p_uv.pmf.sum(axis=1))
    pw = np.zeros((nu, nx, nu))
    for u in range(nu):
        pw[u, :, u] = 1.0
    cond_v = _conditional(p_uv.pmf)
    pv = np.broadcast_to(cond_v[None, None, :, :], (ny, nx, nu, nv)).copy()
    return InnerCandidate(
        p_u=p_u, p_x=p_x, p_w_given_ux=Kernel(pw), channel=channel,
        p_v_given_yxw=Kernel(pv),
    )


def witness_w_copies_v(p_uv: JointDist, p_xyy: JointDist) -> InnerCandidate:
    """Inner candidate with W drawn as P(v|u) and V a copy of W.

    This witness attains I(U;W|X) = I(U;V), the smallest auxiliary rate a
    product target admits, so its feasibility matches the sign of
    separation_slack exactly.
    """
    p_x, _, channel = _decompose_channel_marginal(p_xyy.pmf, TARGET_TOL)
    nu, nv = p_uv.pmf.shape
    nx, ny = p_x.size, channel.output_size
    p_u = Dist(p_uv.pmf.sum(axis=1))
    cond_v = _conditional(p_uv.pmf)
    pw = np.broadcast_to(cond_v[:, None, :], (nu, nx, nv)).copy()
    pv = np.broadcast_to(np.eye(nv)[None, None, :, :], (ny, nx, nv, nv)).copy()
    return InnerCandidate(
        p_u=p_u, p_x=p_x, p_w_given_ux=Kernel(pw), channel=channel,
        p_v_given_yxw=Kernel(pv),
    )


# ---------------------------------------------------------------------------
# auxiliary-variable search
# ---------------------------------------------------------------------------


def _slack_of(decomp: TargetDecomposition, i_channel: float, pw: np.ndarray) -> float:
    p_uwx = np.einsum("u,x,uxw->uwx", decomp.p_u.pmf, decomp.p_x.pmf, pw)
    return i_channel - cond_mutual_info(JointDist(p_uwx))


def _state(decomp, target_pmf, pw, pv, slack) -> Tuple[float, float, np.ndarray]:
    """Search state (score, slack, pv) of (pw, pv), given pw's slack: the
    slack less a penalty on the marginal gap past MARGINAL_GAP_TOL."""
    joint = _inner_joint(decomp.p_u.pmf, decomp.p_x.pmf, pw, decomp.pi.pmf,
                         decomp.channel.table, pv)
    gap = float(np.abs(joint.sum(axis=2) - target_pmf).sum())
    return slack - _GAP_PENALTY * max(gap - MARGINAL_GAP_TOL, 0.0), slack, pv


def _refit_decoder_kernel(decomp: TargetDecomposition, target_pmf: np.ndarray,
                          pw: np.ndarray, nv: int) -> np.ndarray:
    """Least-squares refit of P(v|y,x,w) to the target's (U, X, Y, V) slice.

    For fixed P(w|u,x) the marginal constraint is linear in the decoder
    kernel; solving it per (x, y) and projecting back to the simplex keeps
    the coordinate search from stalling on jointly-constrained moves.
    """
    nu, nx, ny = decomp.p_u.size, decomp.p_x.size, decomp.channel.output_size
    nw = pw.shape[2]
    # C[u, x, y, v] = target P(v | u, x, y); rows weighted by P(u) mass
    cond = _conditional(target_pmf.sum(axis=2))  # sum over y'
    pv = np.full((ny, nx, nw, nv), 1.0 / nv)  # a row without mass stays uniform
    sqrt_w = np.sqrt(np.maximum(decomp.p_u.pmf, 1e-12))
    for x in range(nx):
        m = pw[:, x, :] * sqrt_w[:, None]          # (nu, nw), mass-weighted
        for y in range(ny):
            c = cond[:, x, y, :] * sqrt_w[:, None]  # (nu, nv)
            sol, *_ = np.linalg.lstsq(m, c, rcond=None)
            rows = np.clip(sol, 0.0, None)          # (nw, nv), projected row by row
            mass = rows.sum(axis=1, keepdims=True)
            np.divide(rows, mass, out=pv[y, x], where=mass > 0)
    return pv


def _initial_points(decomp: TargetDecomposition, target_pmf: np.ndarray,
                    w_size: int, nv: int, starts: int, seed: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    nu, nx, ny = decomp.p_u.size, decomp.p_x.size, decomp.channel.output_size
    inits: List[Tuple[np.ndarray, np.ndarray]] = []
    # marginal decoder kernel shared by the deterministic starts
    cond_yv = _conditional(target_pmf.sum(axis=(0, 1, 2)))
    pv_marginal = np.broadcast_to(cond_yv[:, None, None, :], (ny, nx, w_size, nv)).copy()

    # constant auxiliary
    pw0 = np.zeros((nu, nx, w_size))
    pw0[:, :, 0] = 1.0
    inits.append((pw0, pv_marginal.copy()))

    # W spread over U (identity when w_size >= nu)
    pw1 = np.zeros((nu, nx, w_size))
    for u in range(nu):
        pw1[u, :, u % w_size] = 1.0
    inits.append((pw1, pv_marginal.copy()))

    # W drawn like V given U (separation-style), V copies W when sizes allow
    if w_size >= nv:
        cond_uv = _conditional(target_pmf.sum(axis=(1, 2, 3)))
        pw2 = np.zeros((nu, nx, w_size))
        pw2[:, :, :nv] = cond_uv[:, None, :]
        pv2 = np.zeros((ny, nx, w_size, nv))
        pv2[:, :, :nv, :] = np.eye(nv)[None, None, :, :]
        pv2[:, :, nv:, :] = 1.0 / nv
        inits.append((pw2, pv2))

    rng = np.random.default_rng(seed)
    while len(inits) < starts:
        pw = rng.dirichlet(np.ones(w_size), size=(nu, nx))
        pv = rng.dirichlet(np.ones(nv), size=(ny, nx, w_size))
        inits.append((pw, pv))
    return inits[:starts]


def optimize_auxiliary(target: JointDist, w_size: Optional[int] = None,
                       budget: int = 30, seed: int = 0, starts: int = 32
                       ) -> Tuple[InnerCandidate, FeasibilityReport]:
    """Search auxiliary kernels maximizing slack under marginal match.

    Multi-start coordinate ascent: seeded Dirichlet starts plus a few
    deterministic ones, cyclic projected line searches on kernel rows,
    and a linear refit of the decoder kernel after every auxiliary-kernel
    move.  All sub-cardinalities 1..w_size are searched and embedded, so
    the reported best slack is nondecreasing in both budget and w_size.
    The result is a lower bound on the true maximum; no cardinality bound
    on the auxiliary alphabet is known, so w_size (default |U| |X|) caps
    the search rather than certifying exhaustiveness.
    """
    if w_size is None:
        w_size = target.pmf.shape[0] * target.pmf.shape[1]
    if w_size < 1:
        raise ValueError("w_size must be >= 1")
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    decomp = validate_target(target)
    i_channel = cond_mutual_info(target.marginal(_on_target(CHANNEL_AXES)))
    nv = target.pmf.shape[4]

    best = None  # ((score, -start rank), pw, pv) with the tables padded to w_size
    rank = 0
    for k in range(1, w_size + 1):
        for pw, pv in _initial_points(decomp, target.pmf, k, nv, starts, seed):
            pw, (score, _, pv) = _coordinate_search(decomp, target.pmf, i_channel,
                                                    pw, pv, budget)
            key = (score, -rank)
            if best is None or key > best[0]:
                pw_full = np.zeros((decomp.p_u.size, decomp.p_x.size, w_size))
                pw_full[:, :, :k] = pw
                pv_full = np.full((decomp.channel.output_size, decomp.p_x.size,
                                   w_size, nv), 1.0 / nv)
                pv_full[:, :, :k, :] = pv
                best = (key, pw_full, pv_full)
            rank += 1

    _, pw, pv = best
    candidate = InnerCandidate(
        p_u=decomp.p_u, p_x=decomp.p_x, p_w_given_ux=Kernel(pw),
        channel=decomp.channel, p_v_given_yxw=Kernel(pv),
    )
    return candidate, inner_feasibility(candidate, target)


def _coordinate_search(decomp, target_pmf, i_channel, pw, pv, budget):
    """Cyclic row moves: each row of pw, then of pv, steps toward every
    simplex vertex and takes the best move that beats the score by more
    than 1e-12 (the first on a tie).  A pw move refits pv; a pv move keeps
    pw's slack.  Returns pw and the final state (score, slack, pv)."""
    state = _refit_or_keep(decomp, target_pmf, i_channel, pw, pv)
    rows = ([(True, i) for i in np.ndindex(pw.shape[:2])]
            + [(False, i) for i in np.ndindex(pv.shape[:3])])
    for _ in range(budget):
        improved = False
        for on_pw, idx in rows:
            table = pw if on_pw else state[2]
            row = table[idx]
            best = None
            for vertex in np.eye(row.size):
                for step in _STEP_GRID:
                    trial = table.copy()
                    trial[idx] = (1.0 - step) * row + step * vertex
                    if on_pw:
                        new = _refit_or_keep(decomp, target_pmf, i_channel, trial, state[2])
                    else:
                        new = _state(decomp, target_pmf, pw, trial, state[1])
                    if new[0] > state[0] + 1e-12 and (best is None or new[0] > best[0][0]):
                        best = (new, trial)
            if best is not None:
                state = best[0]
                if on_pw:
                    pw = best[1]
                improved = True
        if not improved:
            break
    return pw, state


def _refit_or_keep(decomp, target_pmf, i_channel, pw, pv):
    """State (score, slack, pv) of the better of pv and its
    least-squares refit for pw; pv is kept on a tie.  pw's slack is
    computed once and shared."""
    slack = _slack_of(decomp, i_channel, pw)
    refit = _state(decomp, target_pmf, pw,
                   _refit_decoder_kernel(decomp, target_pmf, pw, pv.shape[3]), slack)
    keep = _state(decomp, target_pmf, pw, pv, slack)
    return refit if refit[0] > keep[0] else keep
