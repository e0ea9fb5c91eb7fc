import hashlib

import numpy as np
import pytest

from conftest import make_flip_candidate, random_channel_instance, random_kernel
from _oracles import binary_grid_slack, nested_loop_inner, nested_loop_outer

from markovcoord import probability, region
from markovcoord.probability import (
    AssumptionViolated,
    Dist,
    JointDist,
    Kernel,
    cond_mutual_info,
    induced_transition,
    stationary_dist,
    triplet_law,
)
from markovcoord.region import (
    InconsistentTarget,
    InnerCandidate,
    OuterCandidate,
    assemble_inner,
    assemble_outer,
    embed_inner,
    inner_feasibility,
    optimize_auxiliary,
    outer_feasibility,
    product_target,
    separation_slack,
    validate_target,
    witness_w_copies_v,
    witness_w_equals_u,
)

UNIF2 = Dist(np.array([0.5, 0.5]))


def _const_w_candidate(channel, pv_given_yx):
    """w_size = 1 candidate; the decoder kernel sees (y, x) only."""
    ny, nx, nv = pv_given_yx.shape
    pw = Kernel(np.ones((2, 2, 1)))
    pv = Kernel(pv_given_yx[:, :, None, :])
    return InnerCandidate(UNIF2, UNIF2, pw, channel, pv)


def _noiseless_channel():
    table = np.zeros((2, 2, 2))
    for x in range(2):
        table[x, :, x] = 1.0
    return Kernel(table)


def _state_only_channel():
    # output ignores x entirely
    rows = np.array([[0.7, 0.3], [0.4, 0.6]])
    return Kernel(np.broadcast_to(rows[None], (2, 2, 2)).copy())


def test_assemble_inner_matches_nested_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        px, chan = random_channel_instance(rng, 2, 2)
        cand = InnerCandidate(
            p_u=UNIF2, p_x=px,
            p_w_given_ux=random_kernel(rng, (2, 2), 2),
            channel=chan,
            p_v_given_yxw=random_kernel(rng, (2, 2, 2), 2))
        pi = stationary_dist(induced_transition(px, chan)).pmf
        expect = nested_loop_inner(cand, pi)
        got = assemble_inner(cand).pmf
        assert np.abs(got - expect).max() <= 1e-12
        assert got.sum() == pytest.approx(1.0, abs=1e-9)


def test_assemble_outer_matches_nested_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        px, chan = random_channel_instance(rng, 2, 2)
        cand = OuterCandidate(
            p_u=UNIF2, p_x=px,
            p_yprime_given_x=random_kernel(rng, (2,), 2),
            channel=chan,
            p_w_given_uxyy=random_kernel(rng, (2, 2, 2, 2), 2),
            p_v_given_yxw=random_kernel(rng, (2, 2, 2), 2))
        expect = nested_loop_outer(cand)
        got = assemble_outer(cand).pmf
        assert np.abs(got - expect).max() <= 1e-12


def test_constant_w_is_always_feasible():
    rng = np.random.default_rng(2)
    _, chan = random_channel_instance(rng, 2, 2)
    pv = rng.dirichlet(np.ones(2), size=(2, 2))
    cand = _const_w_candidate(chan, pv)
    target = assemble_inner(cand).marginal([0, 1, 3, 4, 5])
    rep = inner_feasibility(cand, target)
    assert rep.i_auxiliary == pytest.approx(0.0, abs=1e-12)
    assert rep.slack == pytest.approx(rep.i_channel, abs=1e-12)
    assert rep.feasible and rep.marginal_gap <= 1e-12


def test_noiseless_channel_w_equals_u_slack_zero():
    # I(X;Y|Y') = 1 bit, I(U;U|X) = 1 bit
    chan = _noiseless_channel()
    pw = np.zeros((2, 2, 2))
    for u in range(2):
        pw[u, :, u] = 1.0
    pv = np.broadcast_to(np.eye(2)[None, None], (2, 2, 2, 2)).copy()
    cand = InnerCandidate(UNIF2, UNIF2, Kernel(pw), chan, Kernel(pv))
    target = assemble_inner(cand).marginal([0, 1, 3, 4, 5])
    rep = inner_feasibility(cand, target)
    assert rep.i_channel == pytest.approx(1.0, abs=1e-9)
    assert rep.i_auxiliary == pytest.approx(1.0, abs=1e-9)
    assert rep.slack == pytest.approx(0.0, abs=1e-9)
    assert rep.feasible


def test_state_only_channel_w_equals_u_infeasible():
    # I(X;Y|Y') = 0, I(U;U|X) = H(U) = 1: slack -1
    chan = _state_only_channel()
    pw = np.zeros((2, 2, 2))
    for u in range(2):
        pw[u, :, u] = 1.0
    pv = np.broadcast_to(np.eye(2)[None, None], (2, 2, 2, 2)).copy()
    cand = InnerCandidate(UNIF2, UNIF2, Kernel(pw), chan, Kernel(pv))
    target = assemble_inner(cand).marginal([0, 1, 3, 4, 5])
    rep = inner_feasibility(cand, target)
    assert rep.i_channel == pytest.approx(0.0, abs=1e-9)
    assert rep.slack == pytest.approx(-1.0, abs=1e-9)
    assert not rep.feasible


def test_candidates_reject_inconsistent_shapes():
    cand = make_flip_candidate(0.2, 0.3, 0.1, 0.35, 0.15)
    pw, chan, pv = cand.p_w_given_ux, cand.channel, cand.p_v_given_yxw
    pv_w3 = Kernel(np.full((2, 2, 3, 2), 0.5))  # |W| = 3 against pw's 2
    with pytest.raises(ValueError, match="p_v_given_yxw"):
        InnerCandidate(UNIF2, UNIF2, pw, chan, pv_w3)
    x3 = Dist(np.full(3, 1 / 3))  # |X| = 3 against the channel's 2
    with pytest.raises(ValueError, match="channel"):
        InnerCandidate(UNIF2, x3, Kernel(np.full((2, 3, 2), 0.5)), chan,
                       Kernel(np.full((2, 3, 2, 2), 0.5)))
    py = Kernel(np.full((2, 2), 0.5))
    pw_w3 = Kernel(np.full((2, 2, 2, 2, 3), 1 / 3))
    with pytest.raises(ValueError, match="p_v_given_yxw"):
        OuterCandidate(UNIF2, UNIF2, py, chan, pw_w3, pv)
    with pytest.raises(ValueError, match="channel"):
        OuterCandidate(UNIF2, x3, Kernel(np.full((3, 2), 0.5)), chan,
                       Kernel(np.full((2, 3, 2, 2, 2), 0.5)),
                       Kernel(np.full((2, 3, 2, 2), 0.5)))
    OuterCandidate(UNIF2, UNIF2, py, chan, pw_w3, pv_w3)  # consistent |W| = 3


def test_candidate_requires_unichain_assumption():
    swap = np.zeros((2, 2, 2))
    swap[:, 0, 1] = 1.0
    swap[:, 1, 0] = 1.0  # period-2 output chain for every input
    with pytest.raises(AssumptionViolated):
        InnerCandidate(UNIF2, UNIF2, Kernel(np.ones((2, 2, 1))), Kernel(swap),
                       Kernel(np.full((2, 2, 1, 2), 0.5)))


def test_candidate_analyses_its_chain_once(monkeypatch):
    calls = []  # one ChainStructure per analysis, whoever imported chain_structure
    build = probability.ChainStructure
    monkeypatch.setattr(probability, "ChainStructure",
                        lambda **fields: calls.append(fields) or build(**fields))
    c = make_flip_candidate(0.25, 0.29, 0.1, 0.9, 0.2)
    c.joint, c.target, c.decode_target2
    assert len(calls) == 1
    assert c.joint.marginal([3]).pmf == pytest.approx(c.equilibrium.pmf, abs=1e-15)


def test_inner_embeds_into_outer_with_identical_slack():
    rng = np.random.default_rng(3)
    for _ in range(5):
        px, chan = random_channel_instance(rng, 2, 2)
        cand = InnerCandidate(
            UNIF2, px, random_kernel(rng, (2, 2), 2), chan,
            random_kernel(rng, (2, 2, 2), 2))
        target = assemble_inner(cand).marginal([0, 1, 3, 4, 5])
        inner_rep = inner_feasibility(cand, target)
        outer_rep = outer_feasibility(embed_inner(cand), target)
        assert outer_rep.slack == pytest.approx(inner_rep.slack, abs=1e-10)
        assert outer_rep.marginal_gap <= 1e-9


def test_assembled_joint_structure():
    # U independent of (X, Y', Y); assembled factors reproduce their inputs
    cand = make_flip_candidate(0.2, 0.3, 0.1, 0.35, 0.15)
    joint = assemble_inner(cand)
    m = joint.marginal([0, 1, 3, 4]).pmf
    prod = np.einsum("u,xiy->uxiy", joint.marginal([0]).pmf,
                     joint.marginal([1, 3, 4]).pmf)
    assert np.abs(m - prod).sum() <= 1e-9
    assert np.allclose(joint.marginal([0]).pmf, cand.p_u.pmf, atol=1e-12)
    assert np.allclose(joint.marginal([1]).pmf, cand.p_x.pmf, atol=1e-12)
    # conditional P(w | u, x) reconstructs the auxiliary kernel
    m_uxw = joint.marginal([0, 1, 2]).pmf
    cond = m_uxw / m_uxw.sum(axis=2, keepdims=True)
    assert np.abs(cond - cand.p_w_given_ux.table).max() <= 1e-12


def test_decoder_target_is_the_triplet_law():
    cand = make_flip_candidate(0.2, 0.3, 0.1, 0.35, 0.15)
    assert np.array_equal(cand.decode_target1,
                          triplet_law(cand.pi, cand.p_x.pmf, cand.channel))


def test_slack_invariant_under_w_relabeling():
    cand = make_flip_candidate(0.2, 0.3, 0.1, 0.35, 0.15)
    target = assemble_inner(cand).marginal([0, 1, 3, 4, 5])
    rep = inner_feasibility(cand, target)
    perm = [1, 0]
    permuted = InnerCandidate(
        cand.p_u, cand.p_x,
        Kernel(cand.p_w_given_ux.table[:, :, perm]), cand.channel,
        Kernel(cand.p_v_given_yxw.table[:, :, perm, :]))
    rep2 = inner_feasibility(permuted, target)
    assert rep2.slack == pytest.approx(rep.slack, abs=1e-12)
    assert rep2.marginal_gap == pytest.approx(rep.marginal_gap, abs=1e-12)


# ---------------------------------------------------------------------------
# target validation
# ---------------------------------------------------------------------------


def test_validate_target_accepts_candidate_marginals():
    cand = make_flip_candidate(0.22, 0.31, 0.08, 0.2, 0.12)
    target = assemble_inner(cand).marginal([0, 1, 3, 4, 5])
    decomp = validate_target(target)
    assert np.allclose(decomp.p_x.pmf, cand.p_x.pmf, atol=1e-9)
    assert np.allclose(decomp.channel.table, cand.channel.table, atol=1e-9)


def test_validate_target_reports_offending_cells():
    cand = make_flip_candidate(0.22, 0.31, 0.08, 0.2, 0.12)
    pmf = assemble_inner(cand).marginal([0, 1, 3, 4, 5]).pmf.copy()
    # shift mass between Y' slices to break stationarity of the marginal
    pmf[:, :, 0, :, :] *= 1.25
    pmf /= pmf.sum()
    with pytest.raises(InconsistentTarget) as exc:
        validate_target(JointDist(pmf))
    assert exc.value.details  # names the violated cells


def test_channel_side_entry_points_share_one_check():
    cand = make_flip_candidate(0.22, 0.31, 0.08, 0.2, 0.12)
    pmf = assemble_inner(cand).marginal([0, 1, 3, 4, 5]).pmf.copy()
    pmf[:, :, 0, :, :] *= 1.25
    pmf /= pmf.sum()
    target = JointDist(pmf)
    p_uv, p_xyy = target.marginal([0, 4]), target.marginal([1, 2, 3])
    message = r"^target violates the channel structure in \d+ place\(s\)$"
    raised = []
    for check in (lambda: validate_target(target), lambda: separation_slack(p_uv, p_xyy),
                  lambda: witness_w_equals_u(p_uv, p_xyy),
                  lambda: witness_w_copies_v(p_uv, p_xyy)):
        with pytest.raises(InconsistentTarget, match=message) as exc:
            check()
        raised.append((str(exc.value), exc.value.details))
    assert raised[0][1] and all(r == raised[0] for r in raised)  # one message, same cells


# ---------------------------------------------------------------------------
# auxiliary optimizer
# ---------------------------------------------------------------------------


def _decoder_copies_y():
    pv = np.zeros((2, 2, 2, 2))
    for y in range(2):
        pv[y, :, :, y] = 1.0
    return Kernel(pv)


def test_optimizer_trivial_target_reaches_channel_info():
    # V = f(Y): constant W attains slack = I(X;Y|Y')
    cand = make_flip_candidate(0.2, 0.3, 0.1, 0.35, 0.15)
    cand = InnerCandidate(cand.p_u, cand.p_x, cand.p_w_given_ux, cand.channel,
                          _decoder_copies_y())
    target = assemble_inner(cand).marginal([0, 1, 3, 4, 5])
    _, rep = optimize_auxiliary(target, w_size=2, budget=15, seed=0, starts=6)
    assert rep.marginal_gap <= 1e-6
    assert rep.slack == pytest.approx(rep.i_channel, abs=1e-9)


def test_optimizer_matches_grid_oracle_on_binary_instances():
    # targets whose optimum sits on the 0.05 grid
    cases = []
    base = make_flip_candidate(0.25, 0.29, 0.1, 0.9, 0.0)
    cases.append(InnerCandidate(base.p_u, base.p_x, base.p_w_given_ux,
                                base.channel, _decoder_copies_y()))  # V = Y
    ident = np.zeros((2, 2, 2))
    ident[0, :, 0] = ident[1, :, 1] = 1.0
    copy_w = np.broadcast_to(np.eye(2)[None, None], (2, 2, 2, 2)).copy()
    cases.append(InnerCandidate(base.p_u, base.p_x, Kernel(ident), base.channel,
                                Kernel(copy_w)))  # V = U
    bsc = np.zeros((2, 2, 2))
    bsc[0, :, :] = [0.9, 0.1]
    bsc[1, :, :] = [0.1, 0.9]
    cases.append(InnerCandidate(base.p_u, base.p_x, Kernel(bsc), base.channel,
                                Kernel(copy_w)))  # V = BSC(U)

    for cand in cases:
        target = assemble_inner(cand).marginal([0, 1, 3, 4, 5])
        i_chan = cond_mutual_info(target.marginal([1, 3, 2]))
        oracle = binary_grid_slack(target.pmf, i_chan, step=0.05)
        _, rep = optimize_auxiliary(target, w_size=2, budget=25, seed=0, starts=8)
        assert rep.marginal_gap <= 1e-6
        assert abs(rep.slack - oracle) <= 1e-3


def test_optimizer_monotone_in_w_size_and_budget():
    # reported best = max slack subject to the marginal-match constraint;
    # runs that cannot match the target count as -inf
    def constrained(rep):
        return rep.slack if rep.marginal_gap <= 1e-6 else -np.inf

    cand = make_flip_candidate(0.2, 0.3, 0.15, 0.4, 0.2)
    target = assemble_inner(cand).marginal([0, 1, 3, 4, 5])
    slacks = [constrained(optimize_auxiliary(target, w_size=k, budget=8,
                                             seed=3, starts=4)[1])
              for k in (1, 2, 3)]
    assert slacks[0] <= slacks[1] + 1e-12
    assert slacks[1] <= slacks[2] + 1e-12
    s_small = constrained(optimize_auxiliary(target, w_size=2, budget=2,
                                             seed=3, starts=4)[1])
    s_big = constrained(optimize_auxiliary(target, w_size=2, budget=10,
                                           seed=3, starts=4)[1])
    assert s_small <= s_big + 1e-12


def test_optimizer_rejects_inconsistent_target():
    rng = np.random.default_rng(9)
    pmf = rng.dirichlet(np.ones(32)).reshape(2, 2, 2, 2, 2)
    with pytest.raises(InconsistentTarget):
        optimize_auxiliary(JointDist(pmf), w_size=2)


@pytest.mark.parametrize("kwargs,match", [
    (dict(w_size=0), "^w_size must be >= 1"),
    (dict(starts=0), "^starts must be >= 1, got 0"),
    (dict(starts=-2), "^starts must be >= 1, got -2"),
    (dict(budget=-3), "^budget must be >= 0, got -3"),
], ids=["w-size-zero", "starts-zero", "starts-negative", "budget-negative"])
def test_optimizer_names_bad_search_sizes(kwargs, match):
    # unchecked, starts=0 leaves no best start, a negative starts runs a
    # subset of the starts and a negative budget runs as budget=0
    target = make_flip_candidate(0.2, 0.3, 0.1, 0.3, 0.1).target
    with pytest.raises(ValueError, match=match):
        optimize_auxiliary(target, **kwargs)


def _region_search_candidate():
    """The instance of the region-search benchmark workload."""
    chan = [[[0.75, 0.25], [0.71, 0.29]], [[0.25, 0.75], [0.29, 0.71]]]
    pw = [[[0.94, 0.06], [0.94, 0.06]], [[0.86, 0.14], [0.86, 0.14]]]
    pv = [[[[0.9, 0.1], [0.1, 0.9]], [[0.9, 0.1], [0.1, 0.9]]],
          [[[0.1, 0.9], [0.9, 0.1]], [[0.1, 0.9], [0.9, 0.1]]]]
    return InnerCandidate(UNIF2, UNIF2, Kernel(np.array(pw)), Kernel(np.array(chan)),
                          Kernel(np.array(pv)))


def _ternary_candidate():
    """Ternary U and V over binary X, Y and W."""
    chan = [[[0.8, 0.2], [0.7, 0.3]], [[0.25, 0.75], [0.35, 0.65]]]
    pw = [[[0.9, 0.1], [0.85, 0.15]], [[0.2, 0.8], [0.3, 0.7]], [[0.5, 0.5], [0.6, 0.4]]]
    pv = np.full((2, 2, 2, 3), 0.1)
    for y in range(2):
        for w in range(2):
            pv[y, :, w, (y + 2 * w) % 3] = 0.8
    return InnerCandidate(Dist(np.array([0.5, 0.3, 0.2])), Dist(np.array([0.6, 0.4])),
                          Kernel(np.array(pw)), Kernel(np.array(chan)), Kernel(pv))


@pytest.mark.parametrize("make,kwargs,slack,gap,digest", [
    (_region_search_candidate, dict(w_size=2, budget=4, seed=1, starts=4),
     0.14942658567089584, 3.95516952522712e-16,
     "8b28c859cd185fea9456bcd1ded934551e19307f67f2f2d18266b84d0f0c0605"),
    (_ternary_candidate, dict(w_size=2, budget=4, seed=2, starts=3),
     -0.15094876697023007, 9.889988474372138e-07,
     "b89360b5c83e9ea96a9b0a475b5205a8633f6b85efb3f3bfab5c757e37822f20"),
], ids=["region-search", "ternary-u-v"])
def test_optimizer_bits_are_pinned(make, kwargs, slack, gap, digest):
    # exact floats and table bytes: a change in the order of the search's
    # float operations or in its tie rule shows here
    best, rep = optimize_auxiliary(make().target, **kwargs)
    assert (rep.slack, rep.marginal_gap) == (slack, gap)
    tables = best.p_w_given_ux.table.tobytes() + best.p_v_given_yxw.table.tobytes()
    assert hashlib.sha256(tables).hexdigest() == digest


def test_optimizer_computes_each_auxiliary_slack_once(monkeypatch):
    # every auxiliary kernel the search scores is refit once; its slack
    # depends on it alone, so it is computed once too
    calls = {"_slack_of": 0, "_refit_decoder_kernel": 0}

    def counted(name):
        inner = getattr(region, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)
        return call

    for name in calls:
        monkeypatch.setattr(region, name, counted(name))
    optimize_auxiliary(_region_search_candidate().target, w_size=2, budget=4, seed=1, starts=4)
    assert calls["_refit_decoder_kernel"] > 0
    assert calls["_slack_of"] == calls["_refit_decoder_kernel"]


def test_optimizer_default_w_size_is_source_times_input():
    cand = make_flip_candidate(0.2, 0.3, 0.1, 0.3, 0.1)
    target = assemble_inner(cand).marginal([0, 1, 3, 4, 5])
    best, rep = optimize_auxiliary(target, budget=3, starts=2)
    assert best.p_w_given_ux.output_size == 4  # |U| * |X|
    assert rep.marginal_gap <= 1e-6


# ---------------------------------------------------------------------------
# separation special case
# ---------------------------------------------------------------------------


def _channel_side(p0, p1):
    cand = make_flip_candidate(p0, p1, 0.1, 0.2, 0.1)
    return assemble_inner(cand).marginal([1, 3, 4])  # (X, Y', Y)


def test_separation_slack_independent_source():
    p_uv = JointDist(np.full((2, 2), 0.25))  # U independent of V
    p_xyy = _channel_side(0.2, 0.3)
    slack = separation_slack(p_uv, p_xyy)
    i_chan = cond_mutual_info(p_xyy.permuted([0, 2, 1]))
    assert slack == pytest.approx(i_chan, abs=1e-12)
    assert slack >= 0


def test_separation_slack_noiseless_channel_v_copies_u():
    p_uv = JointDist(np.diag([0.5, 0.5]))  # V = U uniform
    chan = _noiseless_channel()
    cand = InnerCandidate(UNIF2, UNIF2, Kernel(np.ones((2, 2, 1))), chan,
                          Kernel(np.full((2, 2, 1, 2), 0.5)))
    p_xyy = assemble_inner(cand).marginal([1, 3, 4])
    assert separation_slack(p_uv, p_xyy) == pytest.approx(0.0, abs=1e-9)


def test_separation_sign_matches_witness_feasibility():
    rng = np.random.default_rng(10)
    seen = {True: 0, False: 0}
    for _ in range(30):
        alpha = rng.uniform(0.0, 0.5)
        p_uv = JointDist(0.5 * np.array([[1 - alpha, alpha], [alpha, 1 - alpha]]))
        p_xyy = _channel_side(*sorted(rng.uniform(0.05, 0.45, size=2)))
        slack = separation_slack(p_uv, p_xyy)
        cand = witness_w_copies_v(p_uv, p_xyy)
        rep = inner_feasibility(cand, product_target(p_uv, p_xyy))
        assert rep.marginal_gap <= 1e-9
        assert rep.slack == pytest.approx(slack, abs=1e-9)
        assert rep.feasible == (slack >= -1e-9)
        seen[rep.feasible] += 1
    assert seen[True] and seen[False]  # both signs exercised


def test_witness_w_equals_u_on_v_copy_targets():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p_u = rng.dirichlet(np.ones(2))
        p_uv = JointDist(np.diag(p_u))  # V = U
        p_xyy = _channel_side(*sorted(rng.uniform(0.05, 0.45, size=2)))
        cand = witness_w_equals_u(p_uv, p_xyy)
        rep = inner_feasibility(cand, product_target(p_uv, p_xyy))
        assert rep.marginal_gap <= 1e-9
        assert rep.slack == pytest.approx(separation_slack(p_uv, p_xyy), abs=1e-9)


def test_subnormal_input_mass_gives_conditionals():
    # an input of mass 1e-320: its channel rows are divided by their own mass,
    # so they sum to 1, where a 1e-300 floor on the mass left rows summing to ~3e-21
    cand = make_flip_candidate(0.25, 0.29, 0.06, 0.14, 0.10, x_pmf=(1e-320, 1.0))
    _, report = optimize_auxiliary(cand.target, w_size=1, budget=2, seed=0, starts=1)
    assert report.slack <= cand.i_channel + 1e-9
    table = np.array([[5e-324, 1e-323], [0.0, 0.0]])
    assert np.array_equal(region._conditional(table), [[1 / 3, 2 / 3], [0.5, 0.5]])
