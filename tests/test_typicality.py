import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_channel_instance
from _oracles import sequence_log_prob, sequence_prob_direct, typical_set_scan

from markovcoord.probability import (
    Dist,
    Kernel,
    induced_transition,
    stationary_dist,
    triplet_law,
)
from markovcoord.rng import derive_key, derive_keys, draw, thresholds, uniform_grid
from markovcoord import kernels, typicality
from markovcoord.typicality import (
    AUDIT_CHUNK_SYMBOLS,
    EnumerationTooLarge,
    aep_audit,
    aep_constants,
    check_seq,
    full_type,
    prop1_gaps,
    sample_pairs,
    triplet_type,
)


def _sample_pair(px, w, n, y0, seed):
    s_x, s_chan = uniform_grid(derive_keys(seed, [0, 1]), n)
    x = draw(s_x, thresholds(px.pmf))
    y = kernels.markov_path(x, y0, w.thresholds, s_chan)
    return x, y


def test_sample_pairs_rows_are_the_per_key_streams():
    rng = np.random.default_rng(12)
    px, w = random_channel_instance(rng, 3, 2)
    n, y0 = 40, 1
    keys = derive_keys(derive_key(5, 5001), np.arange(6))
    x, y = sample_pairs(keys, n, px, w, y0)
    assert x.shape == y.shape == (6, n)
    for k, x_row, y_row in zip(keys, x, y):
        x_k = draw(uniform_grid(derive_key(int(k), 0), n)[0], thresholds(px.pmf))
        y_k = kernels.markov_path(x_k, y0, w.thresholds, uniform_grid(derive_key(int(k), 1), n)[0])
        assert np.array_equal(x_row, x_k) and np.array_equal(y_row, y_k)
    (x1,), (y1,) = sample_pairs(int(keys[3]), n, px, w, y0)  # a scalar key: one row
    assert np.array_equal(x1, x[3]) and np.array_equal(y1, y[3])


def test_triplet_type_examples():
    t = triplet_type([0, 1], [1, 0], 0, 2, 2)
    assert t.dtype == np.int64 and t.shape == (2, 2, 2)
    assert t[0, 0, 1] == 1 and t[1, 1, 0] == 1 and t.sum() == 2

    t = triplet_type([1] * 5, [0] * 5, 0, 2, 2)  # constant sequences
    assert t[0, 1, 0] == 5

    rng = np.random.default_rng(0)
    x = rng.integers(0, 3, 20)
    y = rng.integers(0, 2, 20)
    t = triplet_type(x, y, 1, 3, 2)
    assert t.shape == (2, 3, 2) and t.sum() == 20


def test_triplet_type_errors():
    with pytest.raises(ValueError, match="length"):
        triplet_type([0, 1], [0], 0, 2, 2)
    with pytest.raises(ValueError, match="symbols"):
        triplet_type([0, 5], [0, 1], 0, 2, 2)
    with pytest.raises(ValueError):
        triplet_type([], [], 0, 2, 2)


def test_full_type_examples():
    t = full_type([0], [1], [1], [0], 0, (2, 2, 2, 2))
    assert t.dtype == np.int64 and t.shape == (2, 2, 2, 2, 2)
    assert t[0, 1, 0, 1, 0] == 1 and t.sum() == 1

    t = full_type([1] * 4, [0] * 4, [1] * 4, [1] * 4, 1, (2, 2, 2, 2))
    assert t[1, 0, 1, 1, 1] == 4


def test_full_type_marginalizes_to_triplet():
    rng = np.random.default_rng(1)
    n = 50
    u, x = rng.integers(0, 2, n), rng.integers(0, 2, n)
    y, v = rng.integers(0, 3, n), rng.integers(0, 2, n)
    ft = full_type(u, x, y, v, 2, (2, 2, 3, 2))
    tt = triplet_type(x, y, 2, 2, 3)
    # summing out (u, v) leaves (x, y', y); the triplet type is (y', x, y)
    assert np.array_equal(ft.sum(axis=(0, 4)).transpose(1, 0, 2), tt)


def test_type_gap_examples():
    t = triplet_type([0, 1, 0, 1], [0, 1, 0, 1], 1, 2, 2).ravel()
    assert kernels.l1_gaps(t, 4, t / 4) == 0.0

    # point-mass type against uniform over k cells: 2 (k - 1) / k
    t = triplet_type([0] * 6, [0] * 6, 0, 2, 2).ravel()
    k = 8
    uniform = np.full((2, 2, 2), 1.0 / k)
    assert kernels.l1_gaps(t, 6, uniform) == pytest.approx(2 * (k - 1) / k, abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_type_gap_is_a_metric(seed):
    rng = np.random.default_rng(seed)
    n = 17
    types = [triplet_type(rng.integers(0, 2, n), rng.integers(0, 2, n), 0, 2, 2).ravel()
             for _ in range(3)]
    d01 = kernels.l1_gaps(types[0], n, types[1] / n)
    d10 = kernels.l1_gaps(types[1], n, types[0] / n)
    d02 = kernels.l1_gaps(types[0], n, types[2] / n)
    d12 = kernels.l1_gaps(types[1], n, types[2] / n)
    assert d01 == pytest.approx(d10, abs=1e-12)
    assert d02 <= d01 + d12 + 1e-12


def test_project_type_examples():
    # x = 1 and y = 0 throughout: the x and pair marginals are point masses
    px = Dist(np.array([0.5, 0.5]))
    w = Kernel(np.array([[[0.75, 0.25], [0.71, 0.29]],
                         [[0.25, 0.75], [0.29, 0.71]]]))
    chain = induced_transition(px, w)
    pi = stationary_dist(chain).pmf
    gaps = prop1_gaps([1] * 5, [0] * 5, 0, px, w)
    assert gaps["x"] == 1.0
    assert gaps["pair"] == pytest.approx(2 * (1 - pi[0] * chain.table[0, 0]), abs=1e-12)

    # the marginal gaps equal the gaps of the marginals of the counts
    rng = np.random.default_rng(2)
    px, w = random_channel_instance(rng, 2, 3)
    x, y = rng.integers(0, 2, 40), rng.integers(0, 3, 40)
    t = triplet_type(x, y, 0, 2, 3)
    chain = induced_transition(px, w)
    pair = stationary_dist(chain).pmf[:, None] * chain.table
    gaps = prop1_gaps(x, y, 0, px, w)
    assert gaps["x"] == float(np.abs(t.sum(axis=(0, 2)) / 40 - px.pmf).sum())
    assert gaps["pair"] == float(np.abs(t.sum(axis=1) / 40 - pair).sum())


def test_conditional_gap_zero_when_exact():
    # single state output chain: pi = (1.0,), w rows independent of y'
    px = Dist(np.array([0.5, 0.5]))
    w = Kernel(np.array([[[1.0]], [[1.0]]]))  # |Y| = 1
    pi = Dist(np.array([1.0]))
    gaps = prop1_gaps([0, 1, 0, 1], [0, 0, 0, 0], 0, px, w, pi)
    assert gaps["conditional"] == pytest.approx(0.0)


def test_sequence_log_prob_examples():
    # uniform everything: every factor 1/4, log2 P = -2n
    px = Dist(np.array([0.5, 0.5]))
    w = Kernel(np.full((2, 2, 2), 0.5))
    n = 9
    rng = np.random.default_rng(3)
    x, y = rng.integers(0, 2, n), rng.integers(0, 2, n)
    assert sequence_log_prob(x, y, 0, px, w) == pytest.approx(-2 * n, abs=1e-12)

    # zero-probability transition: -inf
    wz = np.array([[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]])
    assert sequence_log_prob([0, 0], [0, 1], 0, px, Kernel(wz)) == float("-inf")


def test_sequence_log_prob_matches_direct_product():
    rng = np.random.default_rng(4)
    px, w = random_channel_instance(rng, 2, 2)
    x, y = rng.integers(0, 2, 3), rng.integers(0, 2, 3)
    expect = sequence_prob_direct(x, y, 1, px.pmf, w.table)
    assert 2.0 ** sequence_log_prob(x, y, 1, px, w) == pytest.approx(expect, rel=1e-12)


# the aep-audit workload's input law and channel
_PX = Dist(np.array([0.5, 0.5]))
_W = Kernel(np.array([[[0.75, 0.25], [0.71, 0.29]],
                      [[0.25, 0.75], [0.29, 0.71]]]))


@pytest.mark.parametrize("call,match", [
    (lambda: triplet_type([0], [0, 1, 1, 0, 1], 0, 2, 2), "length mismatch"),
    (lambda: triplet_type([0, 1], [1, 0], -1, 2, 2), r"^y0=-1 outside \[0, 2\)"),
    (lambda: triplet_type([0, 1], [1, 0], 2, 2, 2), r"^y0=2 outside \[0, 2\)"),
    (lambda: aep_audit(6, 0.24, _PX, _W, y0=2), r"^y0=2 outside \[0, 2\)"),
    (lambda: aep_audit(6, 0.24, _PX, _W, y0=-1), r"^y0=-1 outside \[0, 2\)"),
    (lambda: aep_audit(16, 0.24, _PX, _W, y0=2, sample_size=10), r"^y0=2 outside \[0, 2\)"),
    (lambda: aep_audit(16, 0.24, _PX, _W, y0=-1, sample_size=10), r"^y0=-1 outside \[0, 2\)"),
    (lambda: aep_audit(0, 0.2, _PX, _W), "^n must be >= 1"),
    (lambda: aep_audit(6, -0.1, _PX, _W), "^eps must be > 0"),
    (lambda: aep_audit(16, 0.24, _PX, _W, mode="sample", sample_size=0),
     "^sample_size must be >= 1"),
    (lambda: aep_audit(8, math.inf, _PX, _W), "^eps must be > 0 and finite"),
    (lambda: aep_audit(8, math.nan, _PX, _W), "^eps must be > 0 and finite"),
    (lambda: aep_audit(8, 1.0, _PX, _W, delta=math.inf), "^delta must be finite"),
    (lambda: aep_audit(8, 1.0, _PX, _W, delta=math.nan), "^delta must be finite"),
    (lambda: check_seq([0.7, 1.2], 2, "x"), "^x has non-integer symbols"),
    (lambda: triplet_type([0.9, 1.5], [1, 0], 0, 2, 2), "^x_seq has non-integer symbols"),
    (lambda: check_seq([], 2, "x", n=2), "^x length 0 does not match n=2"),
    (lambda: triplet_type([0, 1], [1, 0], 0.5, 2, 2), r"^y0=0\.5 is not an integer"),
    (lambda: full_type([0], [0], [0], [0], 0.5, (2, 2, 2, 2)), r"^y0=0\.5 is not an integer"),
    (lambda: aep_audit(6, 0.24, _PX, _W, y0=0.5), r"^y0=0\.5 is not an integer"),
], ids=["triplet-short-x", "triplet-y0-neg", "triplet-y0-high", "exact-y0-high", "exact-y0-neg",
        "sampled-y0-high", "sampled-y0-neg", "audit-n-zero", "audit-eps-negative",
        "audit-sample-size-zero", "audit-eps-inf", "audit-eps-nan", "audit-delta-inf",
        "audit-delta-nan", "seq-float", "triplet-float-x", "seq-empty-length",
        "triplet-y0-float", "full-type-y0-float", "audit-y0-float"])
def test_bad_sequence_inputs_are_named_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_counting_conservation_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 60))
        x, y = rng.integers(0, 2, n), rng.integers(0, 3, n)
        assert triplet_type(x, y, 0, 2, 3).sum() == n


# ---------------------------------------------------------------------------
# projection properties (Proposition-1-style deterministic implications)
# ---------------------------------------------------------------------------


def test_projection_chain_on_generated_pairs():
    rng = np.random.default_rng(6)
    checked_typical = 0
    for trial in range(60):
        px, w = random_channel_instance(rng, 2, 2)
        pi = stationary_dist(induced_transition(px, w))
        n = int(rng.integers(30, 120))
        x, y = _sample_pair(px, w, n, 0, int(rng.integers(2 ** 60)))
        gaps = prop1_gaps(x, y, 0, px, w, pi)
        for eps in (0.05, 0.1, 0.2, 0.4):
            if gaps["joint"] <= eps:
                checked_typical += 1
                # 1e-9 absorbs rounding of the separately-summed gaps
                assert gaps["x"] <= eps + 1e-9
                assert gaps["pair"] <= eps + 1e-9
                assert gaps["conditional"] <= 2 * eps + 1e-9
                assert gaps["joint"] <= 2 * eps + 1e-9
    assert checked_typical > 30  # the hypothesis side fired often enough


def test_prop1_gaps_counts_the_type_once(monkeypatch):
    rng = np.random.default_rng(8)
    px, w = random_channel_instance(rng, 2, 3)
    pi = stationary_dist(induced_transition(px, w))
    x, y = _sample_pair(px, w, 90, 1, 44)
    calls = []
    triplet_counts = kernels.triplet_counts

    def counted(*args):
        calls.append(1)
        return triplet_counts(*args)

    monkeypatch.setattr(kernels, "triplet_counts", counted)
    gaps = prop1_gaps(x, y, 1, px, w, pi)
    assert len(calls) == 1
    # bit-equal to the gap of the normalized type against pi x (its x-marginal) x w
    t = triplet_type(x, y, 1, 2, 3)
    target = triplet_law(pi.pmf, t.sum(axis=(0, 2)) / 90, w)
    assert gaps["conditional"] == float(np.abs(t / 90 - target).sum())


def test_prop1_gaps_builds_the_induced_chain_once(monkeypatch):
    rng = np.random.default_rng(9)
    px, w = random_channel_instance(rng, 3, 2)
    x, y = _sample_pair(px, w, 60, 0, 45)
    calls = []
    induced = induced_transition

    def counted(*args):
        calls.append(1)
        return induced(*args)

    monkeypatch.setattr(typicality, "induced_transition", counted)
    gaps = prop1_gaps(x, y, 0, px, w)
    assert len(calls) == 1
    assert gaps == prop1_gaps(x, y, 0, px, w, stationary_dist(induced(px, w)))


def test_conditional_gap_triangle_composition():
    # x-gap <= eps and conditional <= delta force joint <= eps + delta
    rng = np.random.default_rng(7)
    for trial in range(40):
        px, w = random_channel_instance(rng, 2, 2)
        pi = stationary_dist(induced_transition(px, w))
        x, y = _sample_pair(px, w, 80, 0, int(rng.integers(2 ** 60)))
        gaps = prop1_gaps(x, y, 0, px, w, pi)
        assert gaps["joint"] <= gaps["x"] + gaps["conditional"] + 1e-12


# ---------------------------------------------------------------------------
# equipartition audits
# ---------------------------------------------------------------------------


def test_aep_constants():
    px = Dist(np.array([0.5, 0.5]))
    w = Kernel(np.full((2, 2, 2), 0.5))
    c = aep_constants(px, w, 8)
    assert c.l_x == pytest.approx(1.0) and c.l_w == pytest.approx(1.0)
    assert c.boundary == 0.0
    c = aep_constants(px, w, 8, y0_known=False)
    assert c.boundary == pytest.approx(2.0 / 8)


def test_aep_audit_uniform_symmetric():
    # uniform everything: H = 2, every pair has nll exactly 2
    px = Dist(np.array([0.5, 0.5]))
    w = Kernel(np.full((2, 2, 2), 0.5))
    r = aep_audit(8, 1.0, px, w, y0=0)
    assert r.mode == "exact" and r.h_rate == pytest.approx(2.0)
    assert r.typical_count > 0
    assert r.nll_min == pytest.approx(2.0, abs=1e-9)
    assert r.nll_max == pytest.approx(2.0, abs=1e-9)
    assert r.all_pass
    assert r.prob_mass_checked == pytest.approx(1.0, abs=1e-9)


def test_aep_audit_matches_pure_python_oracle():
    px = Dist(np.array([0.6, 0.4]))
    w = Kernel(np.array([[[0.7, 0.3], [0.8, 0.2]],
                         [[0.3, 0.7], [0.4, 0.6]]]))
    pi = stationary_dist(induced_transition(px, w))
    q = np.einsum("i,x,xij->ixj", pi.pmf, px.pmf, w.table)
    n, eps = 5, 0.8
    count, prob, nlls = typical_set_scan(n, eps, px.pmf, w.table, q, 0)
    r = aep_audit(n, eps, px, w, y0=0)
    assert r.typical_count == count
    assert r.typical_prob == pytest.approx(prob, rel=1e-10)
    assert r.nll_min == pytest.approx(min(nlls), abs=1e-10)
    assert r.nll_max == pytest.approx(max(nlls), abs=1e-10)


def test_aep_audit_asymmetric_exact_pass():
    px = Dist(np.array([0.6, 0.4]))
    w = Kernel(np.array([[[0.7, 0.3], [0.8, 0.2]],
                         [[0.3, 0.7], [0.4, 0.6]]]))
    r = aep_audit(8, 0.6, px, w, y0=0)
    assert r.mode == "exact" and r.typical_count > 0
    assert r.sandwich_ok and r.cardinality_ok and r.all_pass
    assert r.prob_mass_checked == pytest.approx(1.0, abs=1e-9)


def test_aep_audit_delta_below_bound_rejected():
    px = Dist(np.array([0.6, 0.4]))
    w = Kernel(np.full((2, 2, 2), 0.5))
    with pytest.raises(ValueError, match="delta"):
        aep_audit(6, 0.5, px, w, delta=1e-6)


def test_aep_audit_guard_and_statistical_fallback():
    px = Dist(np.array([0.6, 0.4]))
    w = Kernel(np.array([[[0.7, 0.3], [0.8, 0.2]],
                         [[0.3, 0.7], [0.4, 0.6]]]))
    with pytest.raises(EnumerationTooLarge):
        aep_audit(16, 0.3, px, w, mode="exact", max_pairs=10 ** 6)
    r = aep_audit(16, 0.3, px, w, mode="auto", max_pairs=10 ** 6,
                  sample_size=2000, seed=1)
    assert r.mode == "statistical"
    assert 0.0 <= r.typical_prob <= 1.0
    assert r.sandwich_ok  # deterministic bound holds on every sampled pair


def test_exact_audit_memory_is_bounded_by_cells():
    # 5 inputs, 2 states, n=6: 1.0M pairs with 20-cell count tables; passes
    # of a fixed 64 y sequences held over 500 MB of tables here
    rng = np.random.default_rng(0)
    px = Dist(np.full(5, 0.2))
    w = Kernel(rng.dirichlet(np.ones(2), size=(5, 2)))
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        r = aep_audit(6, 1.0, px, w, y0=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.mode == "exact" and r.typical_count > 0
    assert r.prob_mass_checked == pytest.approx(1.0, abs=1e-9)
    assert peak < 64 * 2 ** 20


def _sampled_audit_loop(n, eps, px, w, y0, sample_size, seed):
    """The per-trial sampled audit: one channel path, triplet type and
    log-probability per trial.  Returns (typical, nll_min, nll_max)."""
    nx, ny = px.size, w.output_size
    pi = stationary_dist(induced_transition(px, w))
    q = np.einsum("i,x,xij->ixj", pi.pmf, px.pmf, w.table)
    x_thr = thresholds(px.pmf)
    w_thr = thresholds(w.table.reshape(nx * ny, ny))
    typical = 0
    nll_min, nll_max = np.inf, -np.inf
    for trial in range(sample_size):
        key = derive_key(seed, 5001, trial)
        s_x, s_chan = uniform_grid(derive_keys(key, [0, 1]), n)
        x_seq = draw(s_x, x_thr)
        y_seq = kernels.markov_path(x_seq, y0, w_thr, s_chan)
        t = triplet_type(x_seq, y_seq, y0, nx, ny)
        if float(np.abs(t / n - q).sum()) <= eps:
            typical += 1
            nll = -sequence_log_prob(x_seq, y_seq, y0, px, w) / n
            nll_min = min(nll_min, nll)
            nll_max = max(nll_max, nll)
    return typical, nll_min, nll_max


@pytest.mark.parametrize("n,eps", [(5, 0.6), (16, 0.3)])
def test_batched_sampled_audit_equals_per_trial_loop(n, eps):
    px = Dist(np.array([0.6, 0.4]))
    w = Kernel(np.array([[[0.7, 0.3], [0.8, 0.2]],
                         [[0.3, 0.7], [0.4, 0.6]]]))
    chunk = AUDIT_CHUNK_SYMBOLS // n  # trials per batched pass
    for seed in (0, 1, 9):
        for size in (1, chunk - 1, chunk, chunk + 1):
            r = aep_audit(n, eps, px, w, y0=1, mode="sample", sample_size=size, seed=seed)
            typical, nll_min, nll_max = _sampled_audit_loop(n, eps, px, w, 1, size, seed)
            assert r.typical_prob == typical / size
            assert r.nll_min == nll_min and r.nll_max == nll_max
            assert size == 1 or typical > 0  # typical rows are compared too


def test_typical_probability_grows_with_blocklength():
    # fixed eps: exhaustive typical-set probability at n = 12 vs n = 6
    px = Dist(np.array([0.6, 0.4]))
    w = Kernel(np.array([[[0.7, 0.3], [0.8, 0.2]],
                         [[0.3, 0.7], [0.4, 0.6]]]))
    eps = 0.6
    r6 = aep_audit(6, eps, px, w, y0=0)
    r12 = aep_audit(12, eps, px, w, y0=0, max_pairs=2 ** 24)
    assert r6.mode == "exact" and r12.mode == "exact"
    assert r12.typical_prob >= r6.typical_prob


def test_sampled_typical_probability_trend():
    # fixed eps, doubling n: sampled typicality probability nondecreasing
    # up to Monte-Carlo tolerance 0.02
    px = Dist(np.array([0.6, 0.4]))
    w = Kernel(np.array([[[0.7, 0.3], [0.8, 0.2]],
                         [[0.3, 0.7], [0.4, 0.6]]]))
    pi = stationary_dist(induced_transition(px, w))
    q = np.einsum("i,x,xij->ixj", pi.pmf, px.pmf, w.table)
    eps = 0.2
    probs = []
    for n in (100, 200, 400):
        hits = 0
        trials = 800
        for s in range(trials):
            x, y = _sample_pair(px, w, n, 0, derive_key(71, n, s))
            t = triplet_type(x, y, 0, 2, 2)
            hits += float(np.abs(t / n - q).sum()) <= eps
        probs.append(hits / trials)
    assert probs[1] >= probs[0] - 0.02
    assert probs[2] >= probs[1] - 0.02
