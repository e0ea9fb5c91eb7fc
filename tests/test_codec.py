import math
import tracemalloc

import numpy as np
import pytest

from _oracles import packing_decode_full_table
from conftest import (BLESSED, make_flip_candidate, random_channel_instance, random_dist,
                      random_kernel)

from markovcoord.probability import Dist, Kernel
from markovcoord.region import InnerCandidate
from markovcoord.rng import derive_key, derive_keys, draw, thresholds, uniform_grid
from markovcoord.typicality import aep_audit, full_type
from markovcoord import codec, kernels
from markovcoord.codec import (
    _TAG_CHAN,
    _TAG_U,
    _TAG_V,
    _cover_gaps,
    Codebook,
    DecodeStatus,
    MemoryGuard,
    SchemeConfig,
    decode_block,
    encode_block,
    joint_packing_event,
    message_count,
    run_scheme,
)


@pytest.fixture(scope="module")
def cand():
    return make_flip_candidate(BLESSED["p0"], BLESSED["p1"], BLESSED["a0"],
                               BLESSED["a1"], BLESSED["vmix"])


def _channel(x, y0, channel, keys):
    """Outputs of the input rows x, one row per key, as one channel path from
    y0: row b runs on the words of keys[b] from the last state of row b - 1."""
    x = np.atleast_2d(x)
    s = uniform_grid(keys, x.shape[-1])
    return kernels.markov_path(x.ravel(), y0, channel.thresholds, s.ravel()).reshape(x.shape)


def test_message_count():
    assert message_count(100, 0.0) == 1
    assert message_count(100, 0.03) == int(np.ceil(2 ** 3.0))
    assert message_count(10, 0.5) == 32
    # past the float range: an exact int, where 2.0 ** 1500 would overflow
    assert message_count(300, 5.0) == 2 ** 1500
    assert message_count(2, 512.25).bit_length() == 1025


@pytest.mark.filterwarnings("ignore:rate")
def test_run_scheme_past_the_float_range_hits_the_memory_guard(cand):
    cfg = SchemeConfig(candidate=cand, n=300, num_blocks=2, rate=5.0, eps=0.24)
    with pytest.raises(MemoryGuard):
        run_scheme(cfg)


def test_scheme_config_validation(cand):
    with pytest.raises(ValueError):
        SchemeConfig(candidate=cand, n=100, num_blocks=1, rate=0.01, eps=0.2)
    with pytest.raises(ValueError):
        SchemeConfig(candidate=cand, n=0, num_blocks=3, rate=0.01, eps=0.2)
    with pytest.warns(UserWarning, match="rate"):
        SchemeConfig(candidate=cand, n=100, num_blocks=3, rate=0.5, eps=0.2)


@pytest.mark.parametrize("field,value", [
    ("eps", 0.0), ("eps", -0.1), ("eps", math.nan), ("eps", math.inf),
    ("cover_eps", 0.0), ("cover_eps", -1.0), ("cover_eps", math.nan), ("cover_eps", math.inf),
    ("rate", -0.01), ("rate", math.nan), ("rate", math.inf),
])
def test_scheme_config_rejects_what_the_harness_rejects(cand, field, value):
    # a radius of 0, below 0 or nan fails every covering or every decode, and
    # an unbounded one or a non-finite rate describes no scheme
    args = dict(candidate=cand, n=100, num_blocks=3, rate=0.01, eps=0.2)
    args[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SchemeConfig(**args)


_ENTRY_CALLS = {
    "packing": lambda cand, **kw: joint_packing_event(
        cand, **{"n": 100, "rate": 0.03, "eps": 0.3, "y0": 0, "seed": 5, **kw}),
    "encode": lambda cand, eps: encode_block(
        np.zeros(60, dtype=np.int64), 0, Codebook(cand, 60, 0.05, seed=1), eps),
    "decode": lambda cand, eps: decode_block(
        np.zeros(60, dtype=np.int64), np.zeros(60, dtype=np.int64), 0,
        Codebook(cand, 60, 0.05, seed=1), eps, (0, 0)),
}


@pytest.mark.parametrize("entry,args,match", [
    ("packing", dict(rate=0.0, eps=math.nan, y0=-3), "^eps must be"),  # one codeword
    ("packing", dict(rate=0.0, y0=-3), r"^y0=-3 outside \[0, 2\)"),
    ("packing", dict(n=0), "^n must be >= 1"),
    ("packing", dict(eps=math.nan), "^eps must be"),
    ("packing", dict(eps=-1.0), "^eps must be"),
    ("packing", dict(eps=0.0), "^eps must be"),
    ("packing", dict(rate=math.nan), "^rate must be"),
    ("packing", dict(rate=math.inf), "^rate must be"),
    ("packing", dict(rate=-0.1), "^rate must be"),
    ("packing", dict(y0=0.5), r"^y0=0\.5 is not an integer state"),
    ("encode", dict(eps=math.nan), "^eps must be"),
    ("encode", dict(eps=-1.0), "^eps must be"),
    ("encode", dict(eps=math.inf), "^eps must be"),
    ("decode", dict(eps=math.nan), "^eps must be"),
    ("decode", dict(eps=0.0), "^eps must be"),
    ("decode", dict(eps=math.inf), "^eps must be"),
], ids=["packing-one-codeword-eps-nan", "packing-one-codeword-y0", "packing-n-zero",
        "packing-eps-nan", "packing-eps-negative", "packing-eps-zero", "packing-rate-nan",
        "packing-rate-inf", "packing-rate-negative", "packing-y0-float", "encode-eps-nan",
        "encode-eps-negative", "encode-eps-inf", "decode-eps-nan", "decode-eps-zero", "decode-eps-inf"])
def test_library_entry_points_check_what_scheme_config_checks(cand, entry, args, match):
    # without the checks a nan radius silently fails every covering or
    # decode, and a packing trial at one codeword returns before any check
    with pytest.raises(ValueError, match=match):
        _ENTRY_CALLS[entry](cand, **args)


def test_codebook_determinism_and_lazy_equivalence(cand):
    # any index subset, on any codebook built from the same seed, gives the
    # same rows as the full tables
    cb1 = Codebook(cand, 40, 0.1, seed=13)
    cb1.materialize_x()
    cb2 = Codebook(cand, 40, 0.1, seed=13)
    cb2.materialize_x()
    assert np.array_equal(cb1.x_planes, cb2.x_planes)
    x_all = cb1.x_rows(0, cb1.m_count)
    assert np.array_equal(cb1.x_planes, kernels.bit_planes(x_all, 2))

    lazy = Codebook(cand, 40, 0.1, seed=13)  # 16 codewords
    last = cb1.m_count - 1
    assert np.array_equal(lazy.x_rows(2, 7), x_all[2:7])
    rng = np.random.default_rng(0)
    for m in (0, 1, last):
        assert np.array_equal(lazy.x_word(m), x_all[m])
        assert np.array_equal(cb1.x_word(m), x_all[m])
        full = cb2.w_rows(m, np.arange(cb1.m_count), cb2.x_word(m))
        for size in (0, 1, 7, cb1.m_count):  # shuffled index subsets
            idx = rng.permutation(cb1.m_count)[:size]
            sub = lazy.w_rows(m, idx, lazy.x_word(m))
            assert sub.shape == (size, 40)
            assert np.array_equal(sub, full[idx])
            assert np.array_equal(cb1.w_rows(m, idx, x_all[m]), sub)  # X(m) passed in
        for mh in (0, last // 2):
            assert np.array_equal(lazy.w_rows(m, mh, lazy.x_word(m))[0], full[mh])
        assert np.array_equal(lazy.w_rows(m, np.arange(2, 7), lazy.x_word(m)), full[2:7])


def test_codebook_zero_rate_single_word(cand):
    cb = Codebook(cand, 20, 0.0, seed=0)
    cb.materialize_x()
    assert cb.m_count == 1
    assert cb.x_planes.shape == (1, 1, 1)
    assert cb.x_word(0).shape == (20,)
    assert cb.w_rows(0, np.arange(0, 1), cb.x_word(0)).shape == (1, 20)


def test_codebook_memory_guard(cand):
    # 2^30 codewords at n=300, and 2^25 at n=100: 0.5 GB of planes but
    # 1.9 GB with the per-index decode vectors
    for n, rate in ((300, 0.1), (100, 0.25)):
        cb = Codebook(cand, n, rate, seed=0)
        with pytest.raises(MemoryGuard, match="decode vectors"):
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
    w = cb.w_rows(0, np.arange(0, 1), x)[0]
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
    with pytest.raises(ValueError, match="u_prev length 59 does not match n=60"):
        encode_block(np.zeros(59, dtype=np.int64), 0, cb, eps=0.3)


@pytest.mark.parametrize("name", ["y_prev_block", "y_block", "y_boundary_states"])
def test_decode_block_rejects_out_of_range_states(cand, name):
    cb = Codebook(cand, 60, 0.05, seed=2)
    y = _channel(cb.x_word(0), 0, cand.channel, derive_key(4, 0))[0]
    good = {"y_prev_block": y, "y_block": y, "y_boundary_states": np.array([0, y[-1]])}
    for bad in (2, 5, -1):  # |Y| = 2
        args = dict(good, **{name: good[name].copy()})
        args[name][-1] = bad
        with pytest.raises(ValueError, match=f"{name} has symbols outside"):
            decode_block(args["y_prev_block"], args["y_block"], 0, cb, 0.4,
                         args["y_boundary_states"])
    if name == "y_boundary_states":  # one state for each of the two blocks
        for bad in ((0,), (0, 0, 0)):
            with pytest.raises(ValueError, match=rf"{name} length {len(bad)} does not match"):
                decode_block(y, y, 0, cb, 0.4, bad)


def test_encode_block_rejects_out_of_range_message_index(cand):
    cb = Codebook(cand, 60, 0.05, seed=2)  # 8 codewords
    u = np.zeros(60, dtype=np.int64)
    for bad in (-1, cb.m_count, 100):
        with pytest.raises(ValueError, match=r"m_prev outside \[0, m_count\)"):
            encode_block(u, bad, cb, eps=0.3)


def test_decode_block_rejects_out_of_range_message_index(cand):
    cb = Codebook(cand, 60, 0.05, seed=2)
    y = _channel(cb.x_word(0), 0, cand.channel, derive_key(4, 0))[0]
    for bad in (-1, cb.m_count, 100):
        with pytest.raises(ValueError,
                           match=r"m_tilde_prev outside \[0, m_count\)"):
            decode_block(y, y, bad, cb, 0.4, (0, int(y[-1])))


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("name", ["y_prev_block", "y_block"])
def test_decode_block_rejects_wrong_block_length(cand, name, delta):
    cb = Codebook(cand, 60, 0.05, seed=2)
    y = _channel(cb.x_word(0), 0, cand.channel, derive_key(4, 0))[0]
    blocks = {"y_prev_block": y, "y_block": y}
    blocks[name] = _channel(np.zeros(60 + delta, dtype=np.int64), 0,
                            cand.channel, derive_key(4, 1))[0]
    with pytest.raises(ValueError, match=f"{name} length {60 + delta} does not match n=60"):
        decode_block(blocks["y_prev_block"], blocks["y_block"], 0, cb, 0.4,
                     (0, int(y[-1])))


def test_encode_block_matches_full_table_smallest_hit(cand):
    # hit depths 0..3, 10, 30, 225, 376, 486 and none; the limits end inside
    # and on the edges of the first 8-row and the doubled 16-row chunk
    cb = Codebook(cand, 100, 0.1, seed=4)  # 1024 codewords
    depths = set()
    for m_prev in (0, 5):
        full = cb.w_rows(m_prev, np.arange(cb.m_count), cb.x_word(m_prev))
        for s in range(4):
            u = np.random.default_rng(s).integers(0, 2, 100)
            gaps = _cover_gaps(cand, u, cb.x_word(m_prev), full, 100)
            for eps in (0.08, 0.1, 0.12, 0.15, 0.2):
                hits = np.flatnonzero(gaps <= eps)
                depths.add(int(hits[0]) if hits.size else None)
                for limit in (1, 7, 8, 9, 24, 25, 1000, None):
                    cut = cb.m_count if limit is None else limit
                    inside = hits[hits < cut]
                    expect = int(inside[0]) if inside.size else None
                    assert encode_block(u, m_prev, cb, eps, limit) == expect
    assert {0, 10, 30, 486, None} <= depths


def test_encode_block_chunks_tile_the_scan(cand):
    # a scan without a hit reads 8 rows, then doubles up to 512 rows per
    # chunk, covering [0, limit) with no gap or overlap; an all-zero source
    # misses the u = 1 half of the covering target, so every gap is >= 1
    cb = Codebook(cand, 60, 0.2, seed=1)  # 4096 codewords
    spans = []
    w_rows = cb.w_rows

    def recorded(m, m_hat, x_row):
        spans.append((int(m_hat[0]), int(m_hat[-1]) + 1))
        assert np.array_equal(m_hat, np.arange(*spans[-1]))
        return w_rows(m, m_hat, x_row)

    cb.w_rows = recorded
    u = np.zeros(60, dtype=np.int64)
    for limit, ends in ((1, [1]), (24, [8, 24]),
                        (2000, [8, 24, 56, 120, 248, 504, 1016, 1528, 2000])):
        spans.clear()
        assert encode_block(u, 0, cb, 0.5, limit) is None
        assert spans == list(zip([0] + ends[:-1], ends))


def _two_blocks(cb, m_prev, m_true, y0, seed):
    x = np.stack([cb.x_word(m_prev), cb.x_word(m_true)])
    return _channel(x, y0, cb.candidate.channel,
                    derive_keys(derive_key(seed, _TAG_CHAN), [0, 1]))


def _assert_decode_matches_full_table(cb, y_prev, y_cur, m_prev, y0, eps):
    bounds = (y0, int(y_prev[-1]))
    passing = packing_decode_full_table(cb, y_prev, y_cur, m_prev, bounds, eps)
    res = decode_block(y_prev, y_cur, m_prev, cb, eps, bounds)
    if passing.size == 1:
        assert res.status is DecodeStatus.OK and res.index == int(passing[0])
    else:
        status = DecodeStatus.NONE if passing.size == 0 else DecodeStatus.AMBIGUOUS
        assert res.status is status and res.index is None
    assert res.n_candidates == passing.size
    return res


def test_packing_decode_matches_full_table_oracle(cand):
    statuses = set()
    for rate in (0.02, 0.05, 0.1):
        for seed in range(4):
            for eps in (0.24, 0.4, 0.8):
                cb = Codebook(cand, 100, rate, seed=seed)
                cb.materialize_x()
                m_prev = seed % cb.m_count
                m_true = (3 * seed + 1) % cb.m_count
                y_prev, y_cur = _two_blocks(cb, m_prev, m_true, 0, seed)
                res = _assert_decode_matches_full_table(cb, y_prev, y_cur,
                                                        m_prev, 0, eps)
                statuses.add(res.status)
                # the packing-probe event on the same codebook and seed
                y_prev, y_cur = _two_blocks(cb, 0, 1, 0, seed)
                passing = packing_decode_full_table(
                    cb, y_prev, y_cur, 0, (0, int(y_prev[-1])), eps)
                wrong = int((passing != 1).sum())
                assert joint_packing_event(cand, 100, rate, eps, 0, seed) == {
                    "event": wrong > 0, "m_count": cb.m_count,
                    "wrong_candidates": wrong}
    assert statuses == set(DecodeStatus)


@pytest.fixture(scope="module")
def cand3():
    # 3-symbol X and Y: two X planes per codeword and nine output classes
    rng = np.random.default_rng(3)
    p_x, chan = random_channel_instance(rng, 3, 3)
    return InnerCandidate(random_dist(rng, 2), p_x, random_kernel(rng, (2, 3), 2),
                          chan, random_kernel(rng, (3, 3, 2), 2))


def test_packing_decode_three_symbol_x_matches_full_table_oracle(cand3):
    statuses = set()
    for rate in (0.02, 0.05):
        for seed in range(4):
            for eps in (0.3, 0.5, 0.8):
                cb = Codebook(cand3, 100, rate, seed=seed)
                cb.materialize_x()
                assert cb.x_planes.shape == (cb.m_count, 2, 2)
                m_prev = seed % cb.m_count
                y_prev, y_cur = _two_blocks(cb, m_prev, (3 * seed + 1) % cb.m_count, 0, seed)
                res = _assert_decode_matches_full_table(cb, y_prev, y_cur, m_prev, 0, eps)
                statuses.add(res.status)
    assert statuses == set(DecodeStatus)


def test_decode_block_memory_stays_bounded(cand):
    # sim-codebook's shape: condition 1 counts the 1 MB plane table in bounded
    # passes, where one int64 count pass over the symbol table peaked at 127.5 MB
    cb = Codebook(cand, 800, BLESSED["rate_mid"], seed=1)
    assert cb.m_count == 9947
    cb.materialize_x()
    y_prev, y_cur = _two_blocks(cb, 0, 1, 0, 1)
    tracemalloc.start()
    try:
        decode_block(y_prev, y_cur, 0, cb, BLESSED["eps_decode"], (0, int(y_prev[-1])))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_decode_memory_stays_within_the_guard(cand, monkeypatch):
    # the guard counts the plane table and the per-index decode vectors, and
    # every other temporary lives in a bounded pass, even when every index
    # survives condition 1 (no l1 gap exceeds 2) and condition 2 counts them all
    monkeypatch.setattr(codec, "MEMORY_GUARD_BYTES", 2 * 10 ** 6)
    monkeypatch.setattr(codec, "_DECODE_PASS_BYTES", 1 << 17)
    monkeypatch.setattr(codec, "_X_CHUNK_CELLS", 1 << 14)
    monkeypatch.setattr(kernels, "PLANE_PASS_BYTES", 1 << 15)
    with pytest.raises(MemoryGuard):
        Codebook(cand, 100, 0.16, seed=0).materialize_x()  # 2^16 codewords
    cb = Codebook(cand, 100, 0.15, seed=0)  # 2^15 codewords, 1.8 MB
    y_prev, y_cur = _two_blocks(Codebook(cand, 100, 0.15, seed=0), 0, 1, 0, 0)
    tracemalloc.start()
    try:
        cb.materialize_x()
        res = decode_block(y_prev, y_cur, 0, cb, 2.0, (0, int(y_prev[-1])))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.n_candidates == cb.m_count
    assert peak < codec.MEMORY_GUARD_BYTES + 2 * codec._DECODE_PASS_BYTES
    # the passes give the same gaps, bit for bit, as one pass over every index
    y_prev, y_cur = _two_blocks(cb, 0, 1, 0, 1)
    args = (cb, y_prev, y_cur, 0, 0, int(y_prev[-1]), 0.5)
    passes = codec._decode_gaps(*args)
    assert 0 < (passes[0] <= 0.5).sum() < cb.m_count
    monkeypatch.setattr(codec, "_DECODE_PASS_BYTES", 1 << 40)
    monkeypatch.setattr(kernels, "PLANE_PASS_BYTES", 1 << 40)
    for got, one_pass in zip(passes, codec._decode_gaps(*args)):
        assert np.array_equal(got, one_pass)


def _collide_w(cb):
    # W(0, 1) becomes W(0, 0); every other auxiliary word is unchanged
    orig = cb.w_rows

    def collided(m, m_hat, x_row):
        m_hat = np.asarray(m_hat, dtype=np.int64)
        return orig(m, np.where((np.asarray(m) == 0) & (m_hat == 1), 0, m_hat), x_row)

    cb.w_rows = collided


def test_packing_decode_forced_collision_matches_full_table_oracle(cand):
    for seed in range(3):
        cb = Codebook(cand, 200, 0.04, seed=seed)
        cb.materialize_x()
        cb.x_planes[1] = cb.x_planes[0]
        _collide_w(cb)
        assert np.array_equal(cb.x_word(1), cb.x_word(0))
        assert np.array_equal(cb.w_rows(0, 1, cb.x_word(0)), cb.w_rows(0, 0, cb.x_word(0)))
        y_prev, y_cur = _two_blocks(cb, 0, 0, 0, 9 + seed)
        res = _assert_decode_matches_full_table(cb, y_prev, y_cur, 0, 0, 0.4)
        assert res.status is DecodeStatus.AMBIGUOUS


def test_run_scheme_generates_w_rows_only_for_survivors(cand, monkeypatch):
    # decoding plus the output stage generate at most (condition-1 survivors
    # + 1) auxiliary rows per decoded block; the covering scan is counted apart
    rows = {"all": 0, "cover": 0, "survivors": 0}
    w_rows = Codebook.w_rows

    def counted_w_rows(self, m, m_hat, x_row):
        out = w_rows(self, m, m_hat, x_row)
        rows["all"] += out.shape[0]
        return out

    encode = codec.encode_block

    def counted_encode(*args, **kwargs):
        before = rows["all"]
        out = encode(*args, **kwargs)
        rows["cover"] += rows["all"] - before
        return out

    decode_gaps = codec._decode_gaps

    def counted_decode_gaps(*args):
        gaps1, gaps2 = decode_gaps(*args)
        rows["survivors"] += int((gaps1 <= args[-1]).sum())
        return gaps1, gaps2

    monkeypatch.setattr(Codebook, "w_rows", counted_w_rows)
    monkeypatch.setattr(codec, "encode_block", counted_encode)
    monkeypatch.setattr(codec, "_decode_gaps", counted_decode_gaps)
    cfg = SchemeConfig(candidate=cand, n=300, num_blocks=8,
                       rate=BLESSED["rate_mid"], eps=BLESSED["eps_decode"],
                       cover_eps=BLESSED["eps_cover"], seed=21)
    r = run_scheme(cfg)
    decoded_blocks = cfg.num_blocks - 1
    assert rows["cover"] > 0
    assert rows["all"] - rows["cover"] <= rows["survivors"] + decoded_blocks
    assert rows["survivors"] < decoded_blocks * cfg.m_count
    assert r.decode_status.count("ok") >= 1


def test_encode_block_returns_smallest_index(cand):
    cb = Codebook(cand, 300, BLESSED["rate_mid"], seed=8)
    rng = np.random.default_rng(1)
    u = rng.integers(0, 2, 300)
    m = encode_block(u, 0, cb, eps=0.3)
    assert m is not None
    x0 = cb.x_word(0)
    gaps = _cover_gaps(cand, u, x0, cb.w_rows(0, np.arange(cb.m_count), x0), 300)
    assert gaps[m] <= 0.3
    assert (gaps[:m] > 0.3).all()


def test_markov_path_deterministic_kernel():
    table = np.zeros((2, 2, 2))
    for x in range(2):
        for i in range(2):
            table[x, i, x ^ i] = 1.0
    chan = Kernel(table)
    x = np.array([0, 1, 1, 0, 1], dtype=np.int64)
    y = kernels.markov_path(x, 0, chan.thresholds, uniform_grid(99, 5))
    expect = []
    prev = 0
    for xv in x:
        prev = xv ^ prev
        expect.append(prev)
    assert np.array_equal(y, expect)


def test_markov_path_memoryless_rows_match_pmf():
    rows = np.broadcast_to(np.array([0.3, 0.7]), (2, 2, 2)).copy()
    chan = Kernel(rows)
    x = np.zeros(20_000, dtype=np.int64)
    y = kernels.markov_path(x, 0, chan.thresholds, uniform_grid(5, x.size))
    assert abs(y.mean() - 0.7) < 0.02


def test_markov_path_first_symbol_depends_only_on_first_input(cand):
    x1 = np.array([1, 0, 0, 1, 1], dtype=np.int64)
    x2 = np.array([1, 1, 1, 0, 0], dtype=np.int64)  # same first symbol
    s = uniform_grid(77, 5)
    y1 = kernels.markov_path(x1, 1, cand.channel.thresholds, s)
    y2 = kernels.markov_path(x2, 1, cand.channel.thresholds, s)
    assert y1[0] == y2[0]


def test_decode_block_single_codeword(cand):
    cb = Codebook(cand, 400, 0.0, seed=0)
    cb.materialize_x()
    y_prev, y_cur = _channel(np.stack([cb.x_word(0)] * 2), 0, cand.channel,
                             derive_keys(4, [0, 1]))
    res = decode_block(y_prev, y_cur, 0, cb, 0.4, (0, int(y_prev[-1])))
    assert res.status is DecodeStatus.OK and res.index == 0


def test_decode_block_forced_collision_is_ambiguous(cand):
    cb = Codebook(cand, 400, 0.02, seed=6)
    cb.materialize_x()
    # duplicate codeword 0 into slot 1: both satisfy both conditions
    cb.x_planes[1] = cb.x_planes[0]
    _collide_w(cb)
    y_prev, y_cur = _channel(np.stack([cb.x_word(0)] * 2), 0, cand.channel,
                             derive_keys(9, [0, 1]))
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


def _per_block_types(cfg, r):
    """(coord, last, all) count tables of run r rebuilt block by block: each
    block's source, channel path and decoder output from its own keys, one
    markov_path per block from the state the previous block ended in, and
    one full_type per block from that boundary state."""
    cand, n, B = cfg.candidate, cfg.n, cfg.num_blocks
    nu, nx, nw, ny, nv = cand.sizes
    cb = Codebook(cand, n, cfg.rate, cfg.seed)
    y_state, tables = cfg.y0, []
    for b in range(B):
        u = draw(uniform_grid(derive_key(cfg.seed, _TAG_U, b), n)[0], thresholds(cand.p_u.pmf))
        x = cb.x_word(int(r.true_indices[b]))
        y = kernels.markov_path(x, y_state, cand.channel.thresholds,
                                uniform_grid(derive_key(cfg.seed, _TAG_CHAN, b), n))
        v = np.zeros(n, dtype=np.int64)
        if b < B - 1:
            m_hat, m_next = int(r.decoded_indices[b]), int(r.decoded_indices[b + 1])
            x_hat = cb.x_word(m_hat)
            w_hat = cb.w_rows(m_hat, m_next, x_hat)[0]
            v = draw(uniform_grid(derive_key(cfg.seed, _TAG_V, b), n)[0],
                     cand.p_v_given_yxw.thresholds[(y * nx + x_hat) * nw + w_hat])
        tables.append(full_type(u, x, y, v, y_state, (nu, nx, ny, nv)).counts)
        y_state = int(y[-1])
    coord = np.sum(tables[:-1], axis=0)
    return coord, tables[-1], coord + tables[-1]


@pytest.mark.filterwarnings("ignore:rate")
@pytest.mark.parametrize("which", ["blessed", "three_symbol_y"])
def test_run_scheme_types_equal_per_block_oracle(cand, cand3, which):
    # one count over the concatenated blocks equals the sum of per-block
    # counts, each block started from its own threaded channel state
    c, rate = (cand, BLESSED["rate_mid"]) if which == "blessed" else (cand3, 0.05)
    for seed in (3, 21):
        cfg = SchemeConfig(candidate=c, n=120, num_blocks=6, rate=rate,
                           eps=BLESSED["eps_decode"], cover_eps=BLESSED["eps_cover"],
                           seed=seed)
        r = run_scheme(cfg)
        coord, last, total = _per_block_types(cfg, r)
        assert np.array_equal(r.type_coord.counts, coord)
        assert np.array_equal(r.type_last.counts, last)
        assert np.array_equal(r.type_all.counts, total)
        assert r.mixing_identity_exact()


def test_run_scheme_counts_three_types_and_draws_no_per_block_stream(cand, monkeypatch):
    # the three types are three full_type calls and the channel of all blocks
    # is one markov_path call, whatever the block count
    calls = {"full_type": 0, "markov_path": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(codec, "full_type", counted("full_type", codec.full_type))
    monkeypatch.setattr(kernels, "markov_path", counted("markov_path", kernels.markov_path))
    for blocks in (2, 9):
        calls.update(full_type=0, markov_path=0)
        run_scheme(SchemeConfig(candidate=cand, n=100, num_blocks=blocks,
                                rate=BLESSED["rate_mid"], eps=BLESSED["eps_decode"],
                                cover_eps=BLESSED["eps_cover"], seed=5))
        assert calls == {"full_type": 3, "markov_path": 1}


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


@pytest.mark.parametrize("y0", [2, 5, -1])  # |Y| = 2
def test_channel_rejects_out_of_range_y0(cand, y0):
    with pytest.raises(ValueError, match=rf"y0={y0} outside \[0, 2\)"):
        kernels.markov_path(np.zeros(50, dtype=np.int64), y0, cand.channel.thresholds,
                            uniform_grid(0, 50))
    with pytest.raises(ValueError, match=rf"y0={y0} outside \[0, 2\)"):
        joint_packing_event(cand, 50, 0.05, 0.24, y0=y0, seed=0)
    with pytest.raises(ValueError, match=rf"y0={y0} outside \[0, 2\)"):
        aep_audit(16, 0.24, cand.p_x, cand.channel, y0=y0, mode="sample", sample_size=10)


@pytest.mark.parametrize("y0", [0.5, 1.0])
def test_channel_rejects_non_integer_y0(cand, y0):
    # unchecked, a float state runs the scheme from int(y0)
    match = rf"^y0={y0} is not an integer state"
    with pytest.raises(ValueError, match=match):
        SchemeConfig(candidate=cand, n=100, num_blocks=3, rate=0.01, eps=0.2, y0=y0)
    with pytest.raises(ValueError, match=match):
        kernels.markov_path(np.zeros(50, dtype=np.int64), y0, cand.channel.thresholds,
                            uniform_grid(0, 50))


@pytest.mark.parametrize("bad,match", [
    (lambda u: np.where(u == 1, 2, u), r"source_blocks\[5\] has symbols"),
    (lambda u: u[:-1], r"source_blocks\[5\] length"),
    (lambda u: u + 0.5, r"source_blocks\[5\] has non-integer symbols"),
], ids=["symbol", "length", "non-integer"])
def test_run_scheme_checks_source_blocks_at_entry(cand, monkeypatch, bad, match):
    calls = []
    channel = kernels.markov_path

    def counted(*args):
        calls.append(1)
        return channel(*args)

    monkeypatch.setattr(kernels, "markov_path", counted)
    cfg = SchemeConfig(candidate=cand, n=60, num_blocks=6,
                       rate=BLESSED["rate_mid"], eps=BLESSED["eps_decode"], seed=4)
    rng = np.random.default_rng(0)
    blocks = [rng.integers(0, 2, cfg.n) for _ in range(cfg.num_blocks)]
    blocks[-1] = bad(blocks[-1])
    with pytest.raises(ValueError, match=match):
        run_scheme(cfg, source_blocks=blocks)
    assert not calls


def test_run_scheme_cross_block_memory(cand):
    # first output of block b is coupled through y_{b-1, n} alone: two runs
    # sharing randomness, boundary state, and first input symbol agree there
    n = 50
    x_a = np.array([1] + [0] * (n - 1), dtype=np.int64)
    x_b = np.array([1] + [1] * (n - 1), dtype=np.int64)
    s = uniform_grid(123, n)
    for y_init in (0, 1):
        ya = kernels.markov_path(x_a, y_init, cand.channel.thresholds, s)
        yb = kernels.markov_path(x_b, y_init, cand.channel.thresholds, s)
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
