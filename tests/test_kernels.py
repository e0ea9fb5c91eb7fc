"""Kernels against scalar-loop oracles that share no code with them."""

import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    channel_path_loop,
    inverse_cdf_symbol,
    make_cdf,
    row_counts_loop,
    splitmix_uniform,
    triplet_counts_loop,
    typical_set_scan,
    word_symbols_loop,
)

from markovcoord import kernels
from markovcoord.rng import (
    derive_key,
    derive_keys,
    draw,
    thresholds,
    uniform_grid,
)

TWO_53 = 2 ** 53


def _pmf_with_zero_cells(rng, rows, ny):
    """Random pmf rows in which about a third of the cells have mass 0."""
    pmf = rng.random((rows, ny)) * (rng.random((rows, ny)) > 0.35)
    pmf[np.arange(rows), rng.integers(0, ny, rows)] += 0.05  # no empty row
    return pmf


def _float_uniforms(key, n):
    return [splitmix_uniform(key, t + 1) for t in range(n)]


@st.composite
def _pmfs_with_zeros(draw_):
    """1-6 symbols, about a third of them zero (leading and trailing too)."""
    cells = draw_(st.lists(st.tuples(st.integers(0, 2), st.floats(1e-300, 1.0)),
                           min_size=1, max_size=6))
    pmf = [0.0 if zero == 0 else p for zero, p in cells]
    if not any(pmf):
        pmf[draw_(st.integers(0, len(pmf) - 1))] = 1.0
    return np.array(pmf)


@given(_pmfs_with_zeros(), st.lists(st.integers(0, TWO_53 - 1), max_size=20))
@example(np.array([0.0, 0.3, 0.7]), [])
@example(np.array([0.5, 0.5, 0.0]), [])
@example(np.array([1.0, 0.0]), [])
@example(np.array([0.0, 1.0]), [])
@example(np.array([1e-300, 1 - 1e-300]), [])
@example(np.array([0.0, 0.0, 1.0]), [])
@example(np.array([0.1, 0.2, 0.3, 0.4, 0.0, 0.0]), [])
@settings(max_examples=300, deadline=None)
def test_draw_matches_float_rule(pmf, random_s):
    thr = thresholds(pmf)
    assert thr.dtype == np.uint64 and thr.shape == (pmf.size - 1,)
    near = [int(t) + d for t in thr for d in (-1, 0, 1)]
    s = np.array(sorted({v for v in near + [0, TWO_53 - 1] + random_s if 0 <= v < TWO_53}),
                 dtype=np.uint64)
    cdf = make_cdf(pmf)
    expected = [inverse_cdf_symbol(cdf, int(v) * 2.0 ** -53) for v in s]
    assert draw(s, thr).tolist() == expected


def test_markov_path_matches_loop():
    rng = np.random.default_rng(0)
    pmf = rng.dirichlet(np.ones(3), size=6)  # nx*ny = 6 rows, ny = 3
    n = 2 * kernels.PATH_SEGMENT_SYMBOLS + 123  # crosses two segment boundaries
    x = rng.integers(0, 2, n).astype(np.int64)
    y = kernels.markov_path(x, 1, thresholds(pmf), uniform_grid(987, n))
    assert y.dtype == np.int64
    assert np.array_equal(y, channel_path_loop(x, 1, make_cdf(pmf), _float_uniforms(987, n)))


@pytest.mark.parametrize("segment", [1, 5, 24, 97])
def test_markov_path_segments_carry_the_state(monkeypatch, segment):
    rng = np.random.default_rng(segment)
    pmf = _pmf_with_zero_cells(rng, 6, 3)
    x = rng.integers(0, 2, (4, 300)).astype(np.int64)
    keys = derive_keys(segment, np.arange(4))
    expected = np.stack([channel_path_loop(x[i], 1, make_cdf(pmf),
                                           _float_uniforms(int(keys[i]), 300))
                         for i in range(4)])
    monkeypatch.setattr(kernels, "PATH_SEGMENT_SYMBOLS", segment)
    thr = thresholds(pmf)
    s = uniform_grid(keys, 300)
    assert np.array_equal(kernels.markov_path(x, 1, thr, s), expected)
    assert np.array_equal(kernels.markov_path(x[0], 1, thr, s[0]), expected[0])


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 1000),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 64 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_markov_path_property(nx, ny, n, seed, key, data):
    y0 = data.draw(st.integers(0, ny - 1))
    rng = np.random.default_rng(seed)
    pmf = _pmf_with_zero_cells(rng, nx * ny, ny)
    x = rng.integers(0, nx, n).astype(np.int64)
    y = kernels.markov_path(x, y0, thresholds(pmf), uniform_grid(key, n))
    assert np.array_equal(y, channel_path_loop(x, y0, make_cdf(pmf), _float_uniforms(key, n)))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 200),
       st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_batched_markov_path_equals_stacked_rows(nx, ny, n, rows, seed, data):
    y0 = data.draw(st.integers(0, ny - 1))
    rng = np.random.default_rng(seed)
    thr = thresholds(_pmf_with_zero_cells(rng, nx * ny, ny))
    x = rng.integers(0, nx, (rows, n)).astype(np.int64)
    s = uniform_grid(derive_keys(seed, np.arange(rows)), n)
    stacked = np.stack([kernels.markov_path(x[i], y0, thr, s[i]) for i in range(rows)])
    assert np.array_equal(kernels.markov_path(x, y0, thr, s), stacked)
    # the rows raveled are one path: row i starts from the last state of row i - 1
    chained, state = [], y0
    for i in range(rows):
        chained.append(kernels.markov_path(x[i], state, thr, s[i]))
        state = int(chained[-1][-1])
    assert np.array_equal(kernels.markov_path(x.ravel(), y0, thr, s.ravel()),
                          np.concatenate(chained))


def test_word_symbols_matches_int_oracle():
    rng = np.random.default_rng(1)
    pmf = _pmf_with_zero_cells(rng, 2, 4)
    keys = derive_keys(55, np.arange(40, dtype=np.int64))
    row_idx = rng.integers(0, 2, 64).astype(np.int64)
    assert np.array_equal(kernels.word_symbols(keys, row_idx, thresholds(pmf)),
                          word_symbols_loop(keys, row_idx, make_cdf(pmf)))


# (x leading shape, y leading shape) pairs that broadcast to each count-table shape
_COUNT_SHAPES = [
    ((), ()),
    ((4,), (4,)), ((4,), ()), ((), (4,)),
    ((2, 3), (2, 3)), ((2, 3), (3,)), ((2, 1), (3,)), ((), (2, 3)),
]


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 25),
       st.sampled_from(_COUNT_SHAPES), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_count_tables_match_loop(nx, ny, n, shapes, per_row_y0, seed):
    x_lead, y_lead = shapes
    lead = np.broadcast_shapes(x_lead, y_lead)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, nx, x_lead + (n,))
    y = rng.integers(0, ny, y_lead + (n,))
    y0 = rng.integers(0, ny, y_lead) if per_row_y0 else int(rng.integers(0, ny))
    cells = rng.integers(0, nx * ny, lead + (n,))

    triplets = kernels.triplet_counts(x, y, y0, nx, ny)
    counts = kernels.row_counts(cells, nx * ny)
    assert triplets.shape == lead + (ny * nx * ny,) and counts.shape == lead + (nx * ny,)
    xb, yb = np.broadcast_to(x, lead + (n,)), np.broadcast_to(y, lead + (n,))
    y0b = np.broadcast_to(y0, lead)
    for idx in np.ndindex(*lead):
        assert np.array_equal(triplets[idx],
                              triplet_counts_loop(xb[idx], yb[idx], y0b[idx], nx, ny))
        assert np.array_equal(counts[idx], row_counts_loop(cells[idx], nx * ny))


@given(st.sampled_from([2, 3]), st.sampled_from([2, 3]), st.sampled_from([1, 63, 64, 65, 200]),
       st.sampled_from([(), (5,), (2, 3)]), st.sampled_from([1, 300, kernels.PLANE_PASS_BYTES]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_plane_counts_match_triplet_counts(nx, ny, n, lead, pass_bytes, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, nx, lead + (n,))
    y = rng.integers(0, ny, n)
    planes = kernels.bit_planes(x, nx)
    words = -(-n // 64)
    assert planes.dtype == np.uint64 and planes.shape == lead + (nx - 1, words)
    for idx in np.ndindex(*lead):  # bit t of plane k - 1 is set iff x[t] == k; the tail is 0
        for k in range(1, nx):
            packed = sum(int(w) << (64 * i) for i, w in enumerate(planes[idx][k - 1]))
            assert packed == sum(1 << t for t in range(n) if x[idx][t] == k)
    assert np.array_equal(kernels.plane_symbols(planes, n), x)
    with mock.patch.object(kernels, "PLANE_PASS_BYTES", pass_bytes):  # 1 and 300: row passes
        for y0 in range(ny):
            got = kernels.plane_triplet_counts(planes, y, y0, nx, ny)
            assert got.dtype == np.int64
            assert np.array_equal(got, kernels.triplet_counts(x, y, y0, nx, ny))


def _nodes_by_function(tree):
    """(enclosing function name, node) for every node of a module."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            found.append((fn, child))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else fn)

    visit(tree, None)
    return found


def _is_call(node, name):
    """A call of `name`, as an attribute (np.bincount) or a bare name."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (func.attr if isinstance(func, ast.Attribute)
            else getattr(func, "id", None)) == name


def _is_shift(node):
    """A y' shift: a concatenate of y[..., :-1], or y[..., :-1] stored at [..., 1:]."""
    if _is_call(node, "concatenate"):
        return ":-1]" in ast.unparse(node)
    return (isinstance(node, ast.Assign) and ":-1]" in ast.unparse(node.value)
            and any("1:]" in ast.unparse(t) for t in node.targets))


# call -> the (module, function) pairs allowed to make it: the count, bit-plane
# and word-generator layers
_ONE_LAYER_CALLS = {
    "bincount": {("kernels.py", "row_counts")},
    "bitwise_count": {("kernels.py", "plane_triplet_counts")},
    "packbits": {("kernels.py", "bit_planes")},
    "unpackbits": {("kernels.py", "plane_symbols")},
    "_finalize_u64": {("rng.py", "derive_keys"), ("rng.py", "uniform_grid")},
}


def test_count_tables_have_one_layer():
    # every count table is a kernels.row_counts bincount or a popcount in
    # kernels.plane_triplet_counts, every y' shift is kernels.prev_states, the
    # bit-plane format is packed and unpacked in kernels alone, and splitmix
    # words come from rng.derive_keys and rng.uniform_grid alone; a private
    # copy elsewhere in the package fails here
    stray = []
    for path in sorted(Path(kernels.__file__).parent.glob("*.py")):
        for fn, node in _nodes_by_function(ast.parse(path.read_text())):
            where = (path.name, fn)
            for call, owners in _ONE_LAYER_CALLS.items():
                if _is_call(node, call) and where not in owners:
                    stray.append(f"{path.name}:{node.lineno} {call} in {fn}")
            if _is_shift(node) and where != ("kernels.py", "prev_states"):
                stray.append(f"{path.name}:{node.lineno} y' shift in {fn}")
    assert not stray


def _einsum_form(spec):
    """An einsum subscript with its letters renamed a, b, ... in order of first appearance."""
    names = {}
    return "".join(names.setdefault(c, chr(ord("a") + len(names))) if c.isalpha() else c
                   for c in spec)


# einsum forms allowed at more than one site -> the (module, function) sites
_EINSUM_REPEATS = {
    # the kernel average sum_a p(a) k(c | a, b) of two different paper objects:
    # the output chain (input law over the channel) and P(w | x) (source law
    # over the auxiliary kernel)
    "a,abc->bc": {("probability.py", "induced_transition"), ("region.py", "p_w_given_x")},
}


def test_each_einsum_form_has_one_site():
    # a formula written as an einsum (the triplet law, the inner joint, ...)
    # has one definition in the package; a second copy fails here
    sites = {}
    for path in sorted(Path(kernels.__file__).parent.glob("*.py")):
        for fn, node in _nodes_by_function(ast.parse(path.read_text())):
            if _is_call(node, "einsum"):
                form = _einsum_form(ast.literal_eval(node.args[0]))
                sites.setdefault(form, []).append((path.name, fn, node.lineno))
    repeated = {form: where for form, where in sites.items() if len(where) > 1
                and {w[:2] for w in where} != _EINSUM_REPEATS.get(form)}
    assert not repeated


def test_aep_enumerate_matches_pair_scan(monkeypatch):
    rng = np.random.default_rng(3)
    n, nx, ny, eps = 5, 2, 2, 0.8
    px = np.array([0.6, 0.4])
    w = rng.dirichlet(np.ones(ny), size=(nx, ny))  # [x, y_prev, y]
    q = rng.dirichlet(np.ones(ny * nx * ny)).reshape(ny, nx, ny)
    count, prob, nlls = typical_set_scan(n, eps, px, w, q, 0)
    # one pass of all 32 y sequences, passes of 5 (the last one partial), and of 1
    for cells in (kernels.AEP_PASS_CELLS, 5 * nx ** n * ny * nx * ny, 1):
        monkeypatch.setattr(kernels, "AEP_PASS_CELLS", cells)
        typical, prob_t, prob_all, nll_min, nll_max = kernels.aep_enumerate(
            kernels.digit_rows(nx ** n, nx, n), kernels.digit_rows(ny ** n, ny, n), 0,
            np.log2(px), np.transpose(np.log2(w), (1, 0, 2)).ravel(),
            np.ones(ny * nx * ny, dtype=bool), q.ravel(), n, nx, ny, eps)
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
        folded = derive_keys(vec, word)
        assert [int(k) for k in folded] == [derive_key(777, int(i), word) for i in idx]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_derive_keys_broadcasts_like_the_int_oracle():
    # scalar x array, array x scalar and array x array, with keys near 2^64
    # and numpy-scalar arguments; uint64 wrap-around must not warn
    keys = [2 ** 64 - 1, 2 ** 64 - 2, 2 ** 63, 0, 777]
    words = [0, 1, 5001, 2 ** 40, 2 ** 63 - 1]
    key_arr = np.array(keys, dtype=np.uint64)
    word_arr = np.array(words, dtype=np.int64)
    for key in (keys[0], np.uint64(keys[1]), keys[4]):
        assert [int(k) for k in derive_keys(key, word_arr)] == [
            derive_key(int(key), w) for w in words]
    for word in (words[2], np.int64(words[3]), np.uint64(words[4])):
        assert [int(k) for k in derive_keys(key_arr, word)] == [
            derive_key(k, int(word)) for k in keys]
    assert [int(k) for k in derive_keys(key_arr, word_arr)] == [
        derive_key(k, w) for k, w in zip(keys, words)]
    out = derive_keys(np.uint64(keys[0]), np.int64(words[1]))  # scalar x scalar
    assert out.shape == (1,) and int(out[0]) == derive_key(keys[0], words[1])
    # nested folds give the multi-word key: derive_keys(k(s, T), b) = k(s, T, b)
    root = derive_key(9, 3)
    assert [int(k) for k in derive_keys(root, np.arange(6))] == [
        derive_key(9, 3, b) for b in range(6)]
    grid = derive_keys(derive_keys(root, key_arr[:2, None] % 7), word_arr[None, :])
    assert grid.shape == (2, 5)
    assert [[int(k) for k in row] for row in grid] == [
        [derive_key(9, 3, k % 7, w) for w in words] for k in keys[:2]]


def test_uniforms_are_in_unit_interval_and_reproducible():
    u1 = uniform_grid(42, 1000)
    u2 = uniform_grid(42, 1000)
    assert np.array_equal(u1, u2)
    assert u1.shape == (1, 1000)
    assert u1.dtype == np.uint64 and int(u1.max()) < TWO_53
    # a single key gives the row of that key in a key array
    grid = uniform_grid(np.array([42, 43], dtype=np.uint64), 1000)
    assert np.array_equal(grid[0], u1[0]) and np.array_equal(grid[1], uniform_grid(43, 1000)[0])
    key = 2 ** 64 - 3  # the counter sum wraps modulo 2^64
    assert [int(s) for s in uniform_grid(key, 50)[0]] == [
        int(splitmix_uniform(key, t + 1) * TWO_53) for t in range(50)]
