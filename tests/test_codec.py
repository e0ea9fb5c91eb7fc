import numpy as np
import pytest

from conftest import BLESSED, make_flip_candidate

from markovcoord.probability import Dist, Kernel
from markovcoord.region import InnerCandidate
from markovcoord.rng import derive_key
from markovcoord.codec import (
    Codebook,
    DecodeStatus,
    MemoryGuard,
    SchemeConfig,
    channel_block,
    decode_block,
    encode_block,
    gen_codebook,
    joint_packing_event,
    message_count,
    run_scheme,
)


@pytest.fixture(scope="module")
def cand():
    return make_flip_candidate(BLESSED["p0"], BLESSED["p1"], BLESSED["a0"],
                               BLESSED["a1"], BLESSED["vmix"])


def test_message_count():
    assert message_count(100, 0.0) == 1
    assert message_count(100, 0.03) == int(np.ceil(2 ** 3.0))
    assert message_count(10, 0.5) == 32


def test_scheme_config_validation(cand):
    with pytest.raises(ValueError):
        SchemeConfig(candidate=cand, n=100, num_blocks=1, rate=0.01, eps=0.2)
    with pytest.raises(ValueError):
        SchemeConfig(candidate=cand, n=0, num_blocks=3, rate=0.01, eps=0.2)
    with pytest.warns(UserWarning, match="rate"):
        SchemeConfig(candidate=cand, n=100, num_blocks=3, rate=0.5, eps=0.2)


def test_codebook_determinism_and_lazy_equivalence(cand):
    cfg = SchemeConfig(candidate=cand, n=40, num_blocks=3, rate=0.1, eps=0.3,
                       seed=13)
    cb1 = gen_codebook(cfg)
    cb2 = gen_codebook(cfg)
    assert np.array_equal(cb1.x_words, cb2.x_words)
    assert np.array_equal(cb1.w_words, cb2.w_words)

    lazy = Codebook(cand, cfg.n, cfg.rate, cfg.seed)
    for m in (0, 1, cb1.m_count - 1):
        assert np.array_equal(lazy.x_word(m), cb1.x_words[m])
        for mh in (0, cb1.m_count // 2):
            assert np.array_equal(lazy.w_word(m, mh), cb1.w_words[m, mh])
    assert np.array_equal(lazy.w_rows(1, 0, cb1.m_count), cb1.w_words[1])


def test_codebook_zero_rate_single_word(cand):
    with pytest.warns(UserWarning, match="rate"):
        cfg = SchemeConfig(candidate=cand, n=20, num_blocks=3, rate=0.0, eps=0.3)
    cb = gen_codebook(cfg)
    assert cb.m_count == 1
    assert cb.x_words.shape == (1, 20)
    assert cb.w_words.shape == (1, 1, 20)


def test_codebook_memory_guard(cand):
    cb = Codebook(cand, 300, 0.1, seed=0)  # m_count ~ 2^30
    with pytest.raises(MemoryGuard):
        cb.materialize_w()
    with pytest.raises(MemoryGuard):
        cb.materialize_x()


def test_codeword_frequencies_follow_generation_law():
    # chi-square-style check on symbol frequencies at n = 1e4
    cand = make_flip_candidate(0.25, 0.29, 0.06, 0.14, 0.1,
                               x_pmf=(0.3, 0.7))
    cb = Codebook(cand, 10_000, 0.0, seed=3)
    x = cb.x_rows(0, 1)[0]
    freq1 = x.mean()
    assert abs(freq1 - 0.7) < 0.02
    # auxiliary words follow P(w | x) given the x word
    w = cb.w_rows(0, 0, 1)[0]
    p_w1_given_x = np.einsum("u,uxw->xw", cand.p_u.pmf,
                             cand.p_w_given_ux.table)[:, 1]
    for xv in (0, 1):
        sel = w[x == xv]
        assert abs(sel.mean() - p_w1_given_x[xv]) < 0.03


def test_encode_block_degenerate_w():
    # |W| = 1: typicality reduces to the (u, x) pair type
    cand1 = InnerCandidate(
        Dist(np.array([0.5, 0.5])), Dist(np.array([0.5, 0.5])),
        Kernel(np.ones((2, 2, 1))),
        make_flip_candidate(0.2, 0.3, 0.1, 0.2, 0.1).channel,
        Kernel(np.full((2, 2, 1, 2), 0.5)))
    cb = Codebook(cand1, 200, 0.02, seed=1)
    u = np.zeros(200, dtype=np.int64)
    u[::2] = 1  # balanced source, pair type near product
    assert encode_block(u, 0, cb, eps=0.5) == 0


def test_encode_block_vacuous_threshold(cand):
    cb = Codebook(cand, 60, 0.05, seed=2)
    ncells = 2 * 2 * 2
    u = np.random.default_rng(0).integers(0, 2, 60)
    assert encode_block(u, 0, cb, eps=2.0 * ncells) == 0  # gap can never exceed 2


def test_scan_limit_below_one_is_rejected(cand):
    with pytest.raises(ValueError, match="scan_limit"):
        SchemeConfig(candidate=cand, n=60, num_blocks=3, rate=0.05, eps=0.3,
                     scan_limit=0)
    cb = Codebook(cand, 60, 0.05, seed=2)
    u = np.zeros(60, dtype=np.int64)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="scan_limit"):
            encode_block(u, 0, cb, eps=100.0, scan_limit=bad)
    assert encode_block(u, 0, cb, eps=100.0, scan_limit=1) == 0


def test_encode_block_rejects_out_of_range_source(cand):
    cb = Codebook(cand, 60, 0.05, seed=2)
    for bad in (2, -1):  # |U| = 2
        u = np.zeros(60, dtype=np.int64)
        u[7] = bad
        with pytest.raises(ValueError, match="u_prev has symbols outside"):
            encode_block(u, 0, cb, eps=0.3)


@pytest.mark.parametrize("name", ["y_prev_block", "y_block", "y_boundary_states"])
def test_decode_block_rejects_out_of_range_states(cand, name):
    cb = Codebook(cand, 60, 0.05, seed=2)
    y = channel_block(cb.x_word(0), 0, cand.channel, derive_key(4, 0))
    good = {"y_prev_block": y, "y_block": y, "y_boundary_states": np.array([0, y[-1]])}
    for bad in (2, 5, -1):  # |Y| = 2
        args = dict(good, **{name: good[name].copy()})
        args[name][-1] = bad
        with pytest.raises(ValueError, match=f"{name} has symbols outside"):
            decode_block(args["y_prev_block"], args["y_block"], 0, cb, 0.4,
                         args["y_boundary_states"])


def test_encode_block_returns_smallest_index(cand):
    cb = Codebook(cand, 300, BLESSED["rate_mid"], seed=8)
    rng = np.random.default_rng(1)
    u = rng.integers(0, 2, 300)
    m = encode_block(u, 0, cb, eps=0.3)
    assert m is not None
    from markovcoord.codec import _cover_gaps
    gaps = _cover_gaps(cand, u, cb.x_word(0), cb.w_rows(0, 0, cb.m_count), 300)
    assert gaps[m] <= 0.3
    assert (gaps[:m] > 0.3).all()


def test_channel_block_deterministic_kernel():
    table = np.zeros((2, 2, 2))
    for x in range(2):
        for i in range(2):
            table[x, i, x ^ i] = 1.0
    chan = Kernel(table)
    x = np.array([0, 1, 1, 0, 1], dtype=np.int64)
    y = channel_block(x, 0, chan, key=99)
    expect = []
    prev = 0
    for xv in x:
        prev = xv ^ prev
        expect.append(prev)
    assert np.array_equal(y, expect)


def test_channel_block_memoryless_rows_match_pmf():
    rows = np.broadcast_to(np.array([0.3, 0.7]), (2, 2, 2)).copy()
    chan = Kernel(rows)
    x = np.zeros(20_000, dtype=np.int64)
    y = channel_block(x, 0, chan, key=5)
    assert abs(y.mean() - 0.7) < 0.02


def test_channel_block_first_symbol_depends_only_on_first_input(cand):
    x1 = np.array([1, 0, 0, 1, 1], dtype=np.int64)
    x2 = np.array([1, 1, 1, 0, 0], dtype=np.int64)  # same first symbol
    y1 = channel_block(x1, 1, cand.channel, key=77)
    y2 = channel_block(x2, 1, cand.channel, key=77)
    assert y1[0] == y2[0]


def test_decode_block_single_codeword(cand):
    with pytest.warns(UserWarning, match="rate"):
        cfg = SchemeConfig(candidate=cand, n=400, num_blocks=3, rate=0.0, eps=0.4)
    cb = gen_codebook(cfg)
    y_prev = channel_block(cb.x_word(0), 0, cand.channel, derive_key(4, 0))
    y_cur = channel_block(cb.x_word(0), int(y_prev[-1]), cand.channel,
                          derive_key(4, 1))
    res = decode_block(y_prev, y_cur, 0, cb, 0.4, (0, int(y_prev[-1])))
    assert res.status is DecodeStatus.OK and res.index == 0


def test_decode_block_forced_collision_is_ambiguous(cand):
    cfg = SchemeConfig(candidate=cand, n=400, num_blocks=3, rate=0.02, eps=0.4,
                       seed=6)
    cb = gen_codebook(cfg)
    # duplicate codeword 0 into slot 1: both satisfy both conditions
    cb.x_words[1] = cb.x_words[0]
    cb.w_words[0, 1] = cb.w_words[0, 0]
    y_prev = channel_block(cb.x_word(0), 0, cand.channel, derive_key(9, 0))
    y_cur = channel_block(cb.x_word(0), int(y_prev[-1]), cand.channel,
                          derive_key(9, 1))
    res = decode_block(y_prev, y_cur, 0, cb, 0.4, (0, int(y_prev[-1])))
    assert res.status is DecodeStatus.AMBIGUOUS
    assert res.n_candidates >= 2


def test_run_scheme_deterministic(cand):
    cfg = SchemeConfig(candidate=cand, n=150, num_blocks=8,
                       rate=BLESSED["rate_mid"], eps=BLESSED["eps_decode"],
                       cover_eps=BLESSED["eps_cover"], seed=21)
    r1 = run_scheme(cfg)
    r2 = run_scheme(cfg)
    assert np.array_equal(r1.true_indices, r2.true_indices)
    assert np.array_equal(r1.decoded_indices, r2.decoded_indices)
    assert np.array_equal(r1.type_all.counts, r2.type_all.counts)
    assert r1.tv_all == r2.tv_all


def test_run_scheme_two_blocks_boundary(cand):
    cfg = SchemeConfig(candidate=cand, n=200, num_blocks=2,
                       rate=BLESSED["rate_mid"], eps=BLESSED["eps_decode"],
                       cover_eps=BLESSED["eps_cover"], seed=3)
    r = run_scheme(cfg)
    assert r.type_coord.n == 200 and r.type_all.n == 400
    assert r.mixing_identity_exact()
    assert r.mixing_gap() <= r.mixing_bound() + 1e-12
    assert not r.event_a[-1]  # last block's source is never described


def test_run_scheme_mixing_identity_and_flag_consistency(cand):
    cfg = SchemeConfig(candidate=cand, n=150, num_blocks=10,
                       rate=BLESSED["rate_mid"], eps=BLESSED["eps_decode"],
                       cover_eps=BLESSED["eps_cover"], seed=17)
    r = run_scheme(cfg)
    assert r.mixing_identity_exact()
    assert r.mixing_gap() <= r.mixing_bound()
    for b in range(1, r.num_blocks):
        wrong = (r.decode_status[b] != "ok"
                 or r.decoded_indices[b] != r.true_indices[b])
        assert bool(r.event_c[b]) == wrong
    assert r.decode_status[0] == "ok" and not r.event_c[0]


def test_run_scheme_strict_causality(cand):
    # perturbing the source in block b leaves all indices (hence all
    # transmitted symbols) of blocks <= b unchanged
    cfg = SchemeConfig(candidate=cand, n=120, num_blocks=7,
                       rate=BLESSED["rate_mid"], eps=BLESSED["eps_decode"],
                       cover_eps=BLESSED["eps_cover"], seed=30)
    rng = np.random.default_rng(0)
    blocks = [rng.integers(0, 2, cfg.n) for _ in range(cfg.num_blocks)]
    base = run_scheme(cfg, source_blocks=blocks)
    for b in (2, 4, 6):
        perturbed = [u.copy() for u in blocks]
        perturbed[b] = 1 - perturbed[b]
        r = run_scheme(cfg, source_blocks=perturbed)
        assert np.array_equal(r.true_indices[:b + 1], base.true_indices[:b + 1])


def test_run_scheme_cross_block_memory(cand):
    # first output of block b is coupled through y_{b-1, n} alone: two runs
    # sharing randomness, boundary state, and first input symbol agree there
    n = 50
    x_a = np.array([1] + [0] * (n - 1), dtype=np.int64)
    x_b = np.array([1] + [1] * (n - 1), dtype=np.int64)
    for y_init in (0, 1):
        ya = channel_block(x_a, y_init, cand.channel, key=123)
        yb = channel_block(x_b, y_init, cand.channel, key=123)
        assert ya[0] == yb[0]


def test_joint_packing_event_single_codeword(cand):
    out = joint_packing_event(cand, 100, 0.0, 0.3, 0, seed=5)
    assert out["m_count"] == 1 and not out["event"]
    assert out["wrong_candidates"] == 0


@pytest.mark.filterwarnings("ignore:rate")
def test_decode_error_rate_decays_with_blocklength(cand):
    # event (c) at blocklength 2n stays within Monte-Carlo tolerance of its
    # rate at n when R sits below I(X;Y|Y')
    rate = 0.01
    rates = {}
    for n in (300, 600):
        wrong = blocks = 0
        for seed in range(6):
            cfg = SchemeConfig(candidate=cand, n=n, num_blocks=41, rate=rate,
                               eps=BLESSED["eps_decode"],
                               cover_eps=BLESSED["eps_cover"],
                               seed=derive_key(61, n, seed))
            r = run_scheme(cfg)
            wrong += int(r.event_c.sum())
            blocks += r.num_blocks - 1
        rates[n] = wrong / blocks
    assert rates[600] <= rates[300] + 0.02
