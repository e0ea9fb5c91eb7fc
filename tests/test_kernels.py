"""Kernels against scalar-loop oracles that share no code with them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    channel_path_loop,
    offset_counts_loop,
    splitmix_uniform,
    typical_set_scan,
    word_symbols_loop,
)

from markovcoord import kernels
from markovcoord.rng import derive_key, derive_keys, fold_keys, make_cdf, uniforms


def _cdf_with_zero_cells(rng, rows, ny):
    """Random row cdfs in which about a third of the cells have mass 0."""
    pmf = rng.random((rows, ny)) * (rng.random((rows, ny)) > 0.35)
    pmf[np.arange(rows), rng.integers(0, ny, rows)] += 0.05  # no empty row
    return make_cdf(pmf)


def test_markov_path_matches_loop():
    rng = np.random.default_rng(0)
    cdf = make_cdf(rng.dirichlet(np.ones(3), size=6))  # nx*ny = 6 rows, ny = 3
    n = 2 * kernels.PATH_SEGMENT_SYMBOLS + 123  # crosses two segment boundaries
    x = rng.integers(0, 2, n).astype(np.int64)
    y = kernels.markov_path(x, 1, cdf, 987)
    assert y.dtype == np.int64
    assert np.array_equal(y, channel_path_loop(x, 1, cdf, uniforms(987, n)))


@pytest.mark.parametrize("segment", [1, 5, 24, 97])
def test_markov_path_segments_carry_the_state(monkeypatch, segment):
    rng = np.random.default_rng(segment)
    cdf = _cdf_with_zero_cells(rng, 6, 3)
    x = rng.integers(0, 2, (4, 300)).astype(np.int64)
    keys = derive_keys(segment, np.arange(4))
    expected = np.stack([channel_path_loop(x[i], 1, cdf, uniforms(int(keys[i]), 300))
                         for i in range(4)])
    monkeypatch.setattr(kernels, "PATH_SEGMENT_SYMBOLS", segment)
    assert np.array_equal(kernels.markov_path(x, 1, cdf, keys), expected)
    assert np.array_equal(kernels.markov_path(x[0], 1, cdf, int(keys[0])), expected[0])


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 1000),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 64 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_markov_path_property(nx, ny, n, seed, key, data):
    y0 = data.draw(st.integers(0, ny - 1))
    rng = np.random.default_rng(seed)
    cdf = _cdf_with_zero_cells(rng, nx * ny, ny)
    x = rng.integers(0, nx, n).astype(np.int64)
    y = kernels.markov_path(x, y0, cdf, key)
    assert np.array_equal(y, channel_path_loop(x, y0, cdf, uniforms(key, n)))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 200),
       st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_batched_markov_path_equals_stacked_rows(nx, ny, n, rows, seed, data):
    y0 = data.draw(st.integers(0, ny - 1))
    rng = np.random.default_rng(seed)
    cdf = _cdf_with_zero_cells(rng, nx * ny, ny)
    x = rng.integers(0, nx, (rows, n)).astype(np.int64)
    keys = derive_keys(seed, np.arange(rows))
    stacked = np.stack([kernels.markov_path(x[i], y0, cdf, int(keys[i]))
                        for i in range(rows)])
    assert np.array_equal(kernels.markov_path(x, y0, cdf, keys), stacked)


def test_word_symbols_matches_int_oracle():
    rng = np.random.default_rng(1)
    cdf = _cdf_with_zero_cells(rng, 2, 4)
    keys = derive_keys(55, np.arange(40, dtype=np.int64))
    row_idx = rng.integers(0, 2, 64).astype(np.int64)
    assert np.array_equal(kernels.word_symbols(keys, row_idx, cdf),
                          word_symbols_loop(keys, row_idx, cdf))


def test_offset_counts_matches_loop():
    rng = np.random.default_rng(2)
    words = rng.integers(0, 2, size=(100, 50)).astype(np.int64)
    base = rng.integers(0, 4, size=50).astype(np.int64) * 2
    counts = kernels.offset_counts(words, base, 1, 8)
    assert np.array_equal(counts, offset_counts_loop(words, base, 1, 8))
    assert (counts.sum(axis=1) == 50).all()


def test_aep_enumerate_matches_pair_scan():
    rng = np.random.default_rng(3)
    n, nx, ny, eps = 5, 2, 2, 0.8
    px = np.array([0.6, 0.4])
    w = rng.dirichlet(np.ones(ny), size=(nx, ny))  # [x, y_prev, y]
    q = rng.dirichlet(np.ones(ny * nx * ny)).reshape(ny, nx, ny)
    typical, prob_t, prob_all, nll_min, nll_max = kernels.aep_enumerate(
        kernels.digit_rows(nx ** n, nx, n), kernels.digit_rows(ny ** n, ny, n), 0,
        np.log2(px), np.transpose(np.log2(w), (1, 0, 2)).ravel(),
        np.ones(ny * nx * ny, dtype=bool), q.ravel(), n, nx, ny, eps)
    count, prob, nlls = typical_set_scan(n, eps, px, w, q, 0)
    assert count > 0 and typical == count
    assert prob_t == pytest.approx(prob, rel=1e-12)
    assert prob_all == pytest.approx(1.0, rel=1e-12)
    assert nll_min == pytest.approx(min(nlls), abs=1e-12)
    assert nll_max == pytest.approx(max(nlls), abs=1e-12)


def test_digit_rows():
    rows = kernels.digit_rows(8, 2, 3)
    assert rows.shape == (8, 3)
    assert np.array_equal(rows[5], [1, 0, 1])  # most significant first
    rows3 = kernels.digit_rows(9, 3, 2)
    assert np.array_equal(rows3[7], [2, 1])


def test_scalar_and_vector_key_derivation_agree():
    idx = np.array([0, 3, 9, 2 ** 40], dtype=np.int64)
    vec = derive_keys(777, idx)
    for i, k in zip(idx, vec):
        assert int(k) == derive_key(777, int(i))
    for word in (0, 1, 5001):
        folded = fold_keys(vec, word)
        assert [int(k) for k in folded] == [derive_key(777, int(i), word) for i in idx]


def test_uniforms_are_in_unit_interval_and_reproducible():
    u1 = uniforms(42, 1000)
    u2 = uniforms(42, 1000)
    assert np.array_equal(u1, u2)
    assert u1.min() >= 0.0 and u1.max() < 1.0
    # counter offset slices the same stream
    assert np.array_equal(uniforms(42, 10, start=5), u1[5:15])
    key = 2 ** 64 - 3  # the counter sum wraps modulo 2^64
    assert list(uniforms(key, 50)) == [splitmix_uniform(key, t + 1) for t in range(50)]
