"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the whole suite is seeded and deterministic.
"""

import json

import numpy as np
import pytest

from conftest import BLESSED, make_flip_candidate, random_channel_instance
from _oracles import binary_grid_slack, nested_loop_inner, nested_loop_outer

from markovcoord import kernels
from markovcoord.codec import (
    Codebook,
    SchemeConfig,
    encode_block,
    joint_packing_event,
    message_count,
    run_scheme,
)
from markovcoord.harness import (
    config_from_dict,
    default_config,
    emit_report,
    run_experiment,
)
from markovcoord.probability import (
    Dist,
    JointDist,
    Kernel,
    chain_structure,
    cond_mutual_info,
    induced_transition,
    lifted_transition,
    stationary_dist,
)
from markovcoord.region import (
    InnerCandidate,
    assemble_inner,
    assemble_outer,
    embed_inner,
    inner_feasibility,
    optimize_auxiliary,
    product_target,
    separation_slack,
    witness_w_copies_v,
    witness_w_equals_u,
)
from markovcoord.rng import derive_key, derive_keys, draw, thresholds, uniform_grid
from markovcoord.typicality import aep_audit, prop1_gaps, triplet_type


def _report(num, name, ok, detail):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _blessed():
    return make_flip_candidate(BLESSED["p0"], BLESSED["p1"], BLESSED["a0"],
                               BLESSED["a1"], BLESSED["vmix"])


def _random_instances(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        out.append(random_channel_instance(rng, nx, ny))
    return out


def test_criterion_01_stationarity():
    worst_fixed, worst_eq6 = 0.0, 0.0
    for px, w in _random_instances(100, seed=101):
        t = induced_transition(px, w)
        s = chain_structure(t)
        assert s.is_unichain and s.is_aperiodic
        pi = stationary_dist(t)
        worst_fixed = max(worst_fixed, float(np.abs(pi.pmf @ t.table - pi.pmf).sum()))
        rhs = np.einsum("i,x,xij->j", pi.pmf, px.pmf, w.table)
        worst_eq6 = max(worst_eq6, float(np.abs(rhs - pi.pmf).max()))
    ok = worst_fixed <= 1e-10 and worst_eq6 <= 1e-10
    _report(1, "stationarity", ok,
            f"max |pi T - pi|_1 = {worst_fixed:.2e}, "
            f"max equilibrium-identity dev = {worst_eq6:.2e} over 100 instances")


def test_criterion_02_lifted_chain_equivalence():
    worst = 0.0
    for px, w in _random_instances(100, seed=202):
        nx, ny = px.size, w.output_size
        pi = stationary_dist(induced_transition(px, w))
        lifted_pi = stationary_dist(lifted_transition(px, w))
        product = np.einsum("i,x,xij->ixj", pi.pmf, px.pmf, w.table)
        worst = max(worst, float(
            np.abs(lifted_pi.pmf.reshape(ny, nx, ny) - product).sum()))
    _report(2, "lifted-chain equivalence", worst <= 1e-9,
            f"max l1 gap between lifted equilibrium and product = {worst:.2e}")


def test_criterion_03_deterministic_aep():
    cases = [
        (Dist(np.array([0.5, 0.5])), Kernel(np.full((2, 2, 2), 0.5)), (0.25, 1.0)),
        (Dist(np.array([0.6, 0.4])),
         Kernel(np.array([[[0.7, 0.3], [0.8, 0.2]],
                          [[0.3, 0.7], [0.4, 0.6]]])), (0.4, 0.6)),
        (Dist(np.array([0.5, 0.5])), _blessed().channel, (0.5,)),
    ]
    nonvacuous = 0
    for px, w, eps_grid in cases:
        for eps in eps_grid:
            r = aep_audit(8, eps, px, w, y0=0)
            assert r.mode == "exact"
            assert r.delta == pytest.approx(
                eps * (r.constants.l_x + r.constants.l_w), abs=1e-12)
            assert r.sandwich_ok and r.cardinality_ok is not False and r.all_pass
            assert r.prob_mass_checked == pytest.approx(1.0, abs=1e-9)
            if r.typical_count:
                nonvacuous += 1
    _report(3, "deterministic equipartition audit", nonvacuous >= 3,
            f"exhaustive n=8 audits exact-passed; {nonvacuous} audits non-vacuous")


def test_criterion_04_ergodicity():
    cand = _blessed()
    pi = stationary_dist(induced_transition(cand.p_x, cand.channel))
    q3 = np.einsum("i,x,xij->ixj", pi.pmf, cand.p_x.pmf, cand.channel.table)
    x_thr = thresholds(cand.p_x.pmf)
    medians = {}
    hits = 0
    for n in (1000, 10000):
        gaps = []
        for seed in range(100):
            s_x, s_chan = uniform_grid(derive_keys(derive_key(404, n, seed), [0, 1]), n)
            x = draw(s_x, x_thr)
            y = kernels.markov_path(x, 0, cand.channel.thresholds, s_chan)
            t = triplet_type(x, y, 0, 2, 2)
            gaps.append(float(np.abs(t / n - q3).sum()))
        medians[n] = float(np.median(gaps))
        if n == 10000:
            hits = sum(g <= 0.05 for g in gaps)
    ok = hits >= 95 and medians[10000] < medians[1000]
    _report(4, "ergodicity of the triplet type", ok,
            f"{hits}/100 runs within 0.05 at n=1e4; "
            f"median {medians[10000]:.4f} (n=1e4) < {medians[1000]:.4f} (n=1e3)")


def test_criterion_05_projection_closure():
    rng = np.random.default_rng(505)
    instances = [random_channel_instance(rng, 2, 2) for _ in range(9)]
    instances.append((_blessed().p_x, _blessed().channel))
    pairs_per_instance = 1000
    eps_grid = (0.05, 0.1, 0.2, 0.4, 0.6)
    checked = fired = 0
    for k, (px, w) in enumerate(instances):
        pi = stationary_dist(induced_transition(px, w))
        x_thr = thresholds(px.pmf)
        for trial in range(pairs_per_instance):
            n = 40 if trial % 2 else 80
            s_x, s_chan = uniform_grid(derive_keys(derive_key(606, k, trial), [0, 1]), n)
            x = draw(s_x, x_thr)
            y = kernels.markov_path(x, 0, w.thresholds, s_chan)
            gaps = prop1_gaps(x, y, 0, px, w, pi)
            checked += 1
            # 1e-9 absorbs independent rounding of the two gap summations;
            # the underlying inequalities are exact in real arithmetic
            slop = 1e-9
            for eps in eps_grid:
                if gaps["joint"] <= eps:
                    fired += 1
                    assert gaps["x"] <= eps + slop
                    assert gaps["pair"] <= eps + slop
                    assert gaps["conditional"] <= 2 * eps + slop
                    assert gaps["joint"] <= 2 * eps + slop
    _report(5, "projection-property closure", checked == 10_000 and fired > 5_000,
            f"{checked} pairs over 10 instances, hypothesis fired {fired} times, "
            "all projection implications exact")


def test_criterion_06_region_oracle_equivalence():
    rng = np.random.default_rng(606)
    # entrywise assembly checks against six-fold-loop oracles
    max_inner = max_outer = 0.0
    for _ in range(3):
        from conftest import random_kernel
        px, chan = random_channel_instance(rng, 2, 2)
        cand = InnerCandidate(Dist(np.array([0.5, 0.5])), px,
                              random_kernel(rng, (2, 2), 2), chan,
                              random_kernel(rng, (2, 2, 2), 2))
        pi = stationary_dist(induced_transition(px, chan)).pmf
        max_inner = max(max_inner, float(np.abs(
            assemble_inner(cand).pmf - nested_loop_inner(cand, pi)).max()))
        outer = embed_inner(cand)
        max_outer = max(max_outer, float(np.abs(
            assemble_outer(outer).pmf - nested_loop_outer(outer)).max()))
    assert max_inner <= 1e-12 and max_outer <= 1e-12

    # optimizer vs exhaustive grid on targets whose optimum is grid-aligned
    base = make_flip_candidate(0.25, 0.29, 0.1, 0.9, 0.0)
    pv_copy_y = np.zeros((2, 2, 2, 2))
    for y in range(2):
        pv_copy_y[y, :, :, y] = 1.0
    ident = np.zeros((2, 2, 2))
    ident[0, :, 0] = ident[1, :, 1] = 1.0
    copy_w = np.broadcast_to(np.eye(2)[None, None], (2, 2, 2, 2)).copy()
    bsc = np.zeros((2, 2, 2))
    bsc[0, :, :] = [0.9, 0.1]
    bsc[1, :, :] = [0.1, 0.9]
    cases = [
        ("decoder copies Y", InnerCandidate(base.p_u, base.p_x, base.p_w_given_ux,
                                            base.channel, Kernel(pv_copy_y))),
        ("V = U", InnerCandidate(base.p_u, base.p_x, Kernel(ident), base.channel,
                                 Kernel(copy_w))),
        ("V = BSC(U)", InnerCandidate(base.p_u, base.p_x, Kernel(bsc), base.channel,
                                      Kernel(copy_w))),
    ]
    details = []
    worst = 0.0
    for name, cand in cases:
        target = assemble_inner(cand).marginal([0, 1, 3, 4, 5])
        i_chan = cond_mutual_info(target.marginal([1, 3, 2]))
        oracle = binary_grid_slack(target.pmf, i_chan, step=0.05)
        _, rep = optimize_auxiliary(target, w_size=2, budget=25, seed=0, starts=8)
        assert rep.marginal_gap <= 1e-6
        diff = abs(rep.slack - oracle)
        worst = max(worst, diff)
        details.append(f"{name}: |{rep.slack:.6f} - {oracle:.6f}| = {diff:.1e}")
    _report(6, "region oracle equivalence", worst <= 1e-3,
            f"assembly max dev {max(max_inner, max_outer):.1e}; " + "; ".join(details))


def test_criterion_07_covering_regime():
    cand = _blessed()
    n = 300
    rate = cand.i_auxiliary + 0.15
    u_thr = thresholds(cand.p_u.pmf)
    fails = total = 0
    for seed in range(20):
        cb = Codebook(cand, n, rate, seed=derive_key(707, seed))
        m_prev = 0
        for b in range(200):
            u = draw(uniform_grid(derive_key(708, seed, b), n)[0], u_thr)
            m = encode_block(u, m_prev, cb, BLESSED["eps_cover"])
            total += 1
            if m is None:
                fails += 1
                m = 0
            m_prev = m
    rate_fail = fails / total
    _report(7, "covering regime", rate_fail < 0.05,
            f"R = I(U;W|X)+0.15 = {rate:.4f} (|M| ~ 2^{n * rate:.0f}), "
            f"covering failures {fails}/{total} = {rate_fail:.3%}")


@pytest.mark.filterwarnings("ignore:rate")
def test_criterion_08_packing_regime():
    # R sits 0.15 below I(X;Y|Y'), which for this instance is also below
    # I(U;W|X); at n = 300 the nine-word codebook still covers reliably
    cand = _blessed()
    n = 300
    rate = cand.i_channel - 0.15
    wrong = blocks = 0
    for seed in range(20):
        cfg = SchemeConfig(candidate=cand, n=n, num_blocks=201, rate=rate,
                           eps=BLESSED["eps_decode"],
                           cover_eps=BLESSED["eps_cover"], seed=derive_key(808, seed))
        r = run_scheme(cfg)
        wrong += int(r.event_c.sum())
        blocks += r.num_blocks - 1
    rate_wrong = wrong / blocks

    freqs = {}
    for nn in (n, 2 * n):
        events = sum(
            joint_packing_event(cand, nn, rate, BLESSED["eps_decode"], 0,
                                derive_key(809, nn, t))["event"]
            for t in range(200))
        freqs[nn] = events / 200
    ok = rate_wrong < 0.05 and freqs[2 * n] <= freqs[n] + 0.02
    _report(8, "packing regime", ok,
            f"R = I(X;Y|Y')-0.15 = {rate:.4f} (|M| = {message_count(n, rate)}), "
            f"wrong-or-ambiguous {wrong}/{blocks} = {rate_wrong:.3%}; "
            f"probe freq {freqs[n]:.3f} (n={n}) -> {freqs[2 * n]:.3f} (n={2 * n})")


def test_criterion_09_end_to_end_coordination():
    cand = _blessed()
    slack = cand.i_channel - cand.i_auxiliary
    assert slack >= 0.1
    rate = BLESSED["rate_mid"]
    medians = {}
    identity_ok = True
    bound_ok = True
    for n in (100, 300):
        tvs = []
        for seed in range(50):
            cfg = SchemeConfig(candidate=cand, n=n, num_blocks=30, rate=rate,
                               eps=BLESSED["eps_decode"],
                               cover_eps=BLESSED["eps_cover"],
                               seed=derive_key(909, n, seed))
            r = run_scheme(cfg)
            tvs.append(r.tv_all)
            identity_ok &= r.mixing_identity_exact()
            bound_ok &= r.mixing_gap() <= r.mixing_bound()
        medians[n] = float(np.median(tvs))
    ok = (medians[300] <= 0.15 and medians[300] <= medians[100]
          and identity_ok and bound_ok)
    _report(9, "end-to-end coordination", ok,
            f"slack = {slack:.4f} bits; median |Q - target|_1 = "
            f"{medians[300]:.4f} (n=300) <= 0.15 and <= {medians[100]:.4f} (n=100); "
            f"B-block identity exact in all 100 runs")


def test_criterion_10_separation_consistency():
    rng = np.random.default_rng(1010)
    results = {True: 0, False: 0}
    for k in range(50):
        p0, p1 = sorted(rng.uniform(0.05, 0.45, size=2))
        side = make_flip_candidate(p0, p1, 0.1, 0.2, 0.1)
        p_xyy = assemble_inner(side).marginal([1, 3, 4])
        if k % 2:
            # diagonal source pair: V = U, witness takes W = U itself
            pu = rng.dirichlet(np.ones(2))
            p_uv = JointDist(np.diag(pu))
            cand = witness_w_equals_u(p_uv, p_xyy)
        else:
            alpha = rng.uniform(0.0, 0.5)
            p_uv = JointDist(0.5 * np.array([[1 - alpha, alpha],
                                             [alpha, 1 - alpha]]))
            cand = witness_w_copies_v(p_uv, p_xyy)
        slack = separation_slack(p_uv, p_xyy)
        rep = inner_feasibility(cand, product_target(p_uv, p_xyy))
        assert rep.marginal_gap <= 1e-9
        assert rep.feasible == (slack >= -1e-9)
        results[rep.feasible] += 1
    _report(10, "separation consistency", results[True] and results[False],
            f"50 product targets: witness feasibility matched the sign of "
            f"I(X;Y|Y') - I(U;V) on all ({results[True]} feasible, "
            f"{results[False]} infeasible)")


def test_criterion_11_determinism_and_causality(tmp_path):
    raw = default_config("simulate")
    raw["sweep"] = {"n": [120], "num_blocks": [8], "rate": [BLESSED["rate_mid"]],
                    "eps": [BLESSED["eps_decode"]]}
    raw["options"]["cover_eps"] = BLESSED["eps_cover"]
    raw["trials"] = 4
    raw["master_seed"] = 11
    cfg = config_from_dict(raw)
    paths1 = emit_report(run_experiment(cfg), str(tmp_path / "r1"))
    paths2 = emit_report(run_experiment(cfg), str(tmp_path / "r2"))
    records_same = (open(paths1["records"], "rb").read()
                    == open(paths2["records"], "rb").read())
    long_same = (open(paths1["long"], "rb").read()
                 == open(paths2["long"], "rb").read())
    s1 = json.load(open(paths1["summary"]))
    s2 = json.load(open(paths2["summary"]))
    s1["metadata"].pop("timestamp")
    s2["metadata"].pop("timestamp")
    summary_same = s1 == s2

    cand = _blessed()
    causal_ok = True
    rng = np.random.default_rng(0)
    for seed in range(4):
        scfg = SchemeConfig(candidate=cand, n=120, num_blocks=8,
                            rate=BLESSED["rate_mid"], eps=BLESSED["eps_decode"],
                            cover_eps=BLESSED["eps_cover"], seed=seed)
        blocks = [rng.integers(0, 2, scfg.n) for _ in range(scfg.num_blocks)]
        base = run_scheme(scfg, source_blocks=blocks)
        for b in (1, 4, 6):
            perturbed = [u.copy() for u in blocks]
            perturbed[b] = 1 - perturbed[b]
            r = run_scheme(scfg, source_blocks=perturbed)
            causal_ok &= bool(np.array_equal(r.true_indices[:b + 1],
                                             base.true_indices[:b + 1]))
    ok = records_same and long_same and summary_same and causal_ok
    _report(11, "determinism and strict causality", ok,
            f"reports byte-identical modulo timestamp: "
            f"{records_same and long_same and summary_same}; "
            f"causality perturbation clean on 12 cases: {causal_ok}")
