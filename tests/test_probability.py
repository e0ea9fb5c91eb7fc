import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_channel_instance, random_dist
from _oracles import chain_structure_direct, entropy_direct

from markovcoord.probability import (
    AssumptionViolated,
    Dist,
    JointDist,
    Kernel,
    chain_structure,
    cond_mutual_info,
    entropy,
    induced_transition,
    lifted_index,
    lifted_transition,
    mutual_info,
    stationary_dist,
    triplet_law,
    tv_distance,
)


def test_empty_axes_rejected():
    for shape in [(2, 0, 2), (0, 2), (0, 0)]:
        with pytest.raises(ValueError, match="empty conditioning axis"):
            Kernel(np.zeros(shape))


@pytest.mark.parametrize("table", [
    np.full((2, 2, 2), 0.5),                       # a channel kernel [x, y', y]
    np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]),  # a (2, 3) table
], ids=["channel-3d", "not-square"])
def test_chains_are_square_kernels(table):
    shape = rf"got shape \({', '.join(map(str, table.shape))}\)"
    with pytest.raises(ValueError, match=shape):
        chain_structure(Kernel(table))
    with pytest.raises(ValueError, match=shape):
        stationary_dist(Kernel(table))


def test_dist_validation():
    with pytest.raises(ValueError):
        Dist(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Dist(np.array([1.5, -0.5]))
    d = Dist(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        d.pmf[0] = 1.0  # frozen array


def test_kernel_row_validation():
    with pytest.raises(ValueError, match="row"):
        Kernel(np.array([[0.5, 0.5], [0.7, 0.8]]))


def test_entropy_examples():
    assert entropy(Dist(np.array([0.5, 0.5]))) == pytest.approx(1.0, abs=1e-12)
    assert entropy(Dist(np.array([1.0, 0.0]))) == 0.0
    assert entropy(Dist(np.array([0.25, 0.75]))) == pytest.approx(0.811278, abs=1e-6)


@given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_entropy_bounds_and_oracle(k, seed):
    rng = np.random.default_rng(seed)
    d = random_dist(rng, k)
    h = entropy(d)
    assert 0.0 <= h <= np.log2(k) + 1e-12
    assert h == pytest.approx(entropy_direct(d.pmf), abs=1e-12)


def test_entropy_max_at_uniform():
    for k in range(2, 6):
        assert entropy(Dist(np.full(k, 1.0 / k))) == pytest.approx(np.log2(k), abs=1e-12)


def test_cond_mutual_info_examples():
    # A = B, uniform binary, C independent constant-ish
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = p[0, 0, 1] = p[1, 1, 0] = p[1, 1, 1] = 0.25
    assert cond_mutual_info(JointDist(p)) == pytest.approx(1.0, abs=1e-12)

    # A independent of B given C
    rng = np.random.default_rng(3)
    pc = rng.dirichlet(np.ones(3))
    pa = rng.dirichlet(np.ones(2), size=3)
    pb = rng.dirichlet(np.ones(2), size=3)
    p = np.einsum("c,ca,cb->abc", pc, pa, pb)
    assert cond_mutual_info(JointDist(p)) == pytest.approx(0.0, abs=1e-12)

    # BSC(0.1): I = 1 - h2(0.1), C a constant coordinate
    p = np.zeros((2, 2, 1))
    for a in range(2):
        for b in range(2):
            p[a, b, 0] = 0.5 * (0.9 if a == b else 0.1)
    assert cond_mutual_info(JointDist(p)) == pytest.approx(0.531004, abs=1e-6)


def test_cond_mutual_info_arity_error():
    with pytest.raises(ValueError):
        cond_mutual_info(JointDist(np.array([0.5, 0.5])))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_cmi_symmetric_and_nonnegative(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(12)).reshape(2, 3, 2)
    j = JointDist(p)
    i_ab = cond_mutual_info(j)
    i_ba = cond_mutual_info(JointDist(np.transpose(p, (1, 0, 2))))
    assert i_ab >= 0.0
    assert i_ab == pytest.approx(i_ba, abs=1e-10)


def test_mutual_info_matches_cmi_with_constant_conditioning():
    rng = np.random.default_rng(11)
    p = rng.dirichlet(np.ones(6)).reshape(2, 3)
    assert mutual_info(JointDist(p)) == pytest.approx(
        cond_mutual_info(JointDist(p[:, :, None])), abs=1e-12)


def test_tv_distance_examples():
    p = JointDist(np.array([0.5, 0.5]))
    q = JointDist(np.array([0.25, 0.75]))
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) == pytest.approx(0.5, abs=1e-12)
    point0 = JointDist(np.array([1.0, 0.0]))
    point1 = JointDist(np.array([0.0, 1.0]))
    assert tv_distance(point0, point1) == 2.0
    with pytest.raises(ValueError):
        tv_distance(p, JointDist(np.array([0.2, 0.3, 0.5])))


def test_induced_transition_examples():
    ny = 2
    # channel ignoring x: T equals the channel rows
    rows = np.array([[0.3, 0.7], [0.6, 0.4]])
    w = Kernel(np.broadcast_to(rows[None, :, :], (2, ny, ny)).copy())
    t = induced_transition(Dist(np.array([0.4, 0.6])), w)
    assert np.allclose(t.table, rows, atol=1e-12)

    # deterministic y = x xor y', uniform x: every entry 0.5
    table = np.zeros((2, 2, 2))
    for x in range(2):
        for i in range(2):
            table[x, i, x ^ i] = 1.0
    t = induced_transition(Dist(np.array([0.5, 0.5])), Kernel(table))
    assert np.allclose(t.table, 0.5, atol=1e-12)

    # degenerate input px = (1, 0) picks the x = 0 slice
    w = Kernel(np.stack([np.array([[0.2, 0.8], [0.9, 0.1]]),
                         np.array([[0.5, 0.5], [0.5, 0.5]])]))
    t = induced_transition(Dist(np.array([1.0, 0.0])), w)
    assert np.allclose(t.table, w.table[0], atol=1e-12)


def test_chain_structure_examples():
    s = chain_structure(Kernel(np.eye(2)))
    assert len(s.recurrent_classes) == 2 and not s.is_unichain

    s = chain_structure(Kernel(np.full((3, 3), 1.0 / 3)))
    assert s.is_unichain and s.is_aperiodic
    assert s.recurrent_classes == (frozenset({0, 1, 2}),)

    swap = Kernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    s = chain_structure(swap)
    assert s.is_unichain and not s.is_aperiodic


def test_chain_structure_transient_states():
    # state 0 leaks into the closed class {1, 2}
    t = Kernel(np.array([
        [0.5, 0.5, 0.0],
        [0.0, 0.3, 0.7],
        [0.0, 0.6, 0.4],
    ]))
    s = chain_structure(t)
    assert s.is_unichain and s.is_aperiodic
    assert s.recurrent_classes == (frozenset({1, 2}),)


def _cycle(r):
    return np.roll(np.eye(r, dtype=bool), 1, axis=1)  # i -> i + 1 mod r


def _wielandt(r):
    """An r-cycle plus the chord r -> 2 (1-based): primitive with exponent
    exactly (r-1)^2 + 1, the largest any primitive r-state pattern has
    (Wielandt 1950), so its power (r-1)^2 still has a zero."""
    a = _cycle(r)
    a[r - 1, 1] = True
    return a


def _two_closed_classes():
    a = np.zeros((5, 5), dtype=bool)
    a[0, 3] = a[3, 0] = True               # {0, 3}: a 2-cycle
    a[2, 4] = a[4, 2] = a[4, 4] = True     # {2, 4}: aperiodic
    a[1, [0, 2]] = True                    # 1 leaks into both
    return a


def _leak_into_cycle(chord):
    a = np.zeros((5, 5), dtype=bool)
    a[0, [0, 1]] = a[1, 2] = True          # 0 -> 1 -> the class
    a[2, 3] = a[3, 4] = a[4, 2] = True     # {2, 3, 4}: a 3-cycle
    a[4, 3] = chord                        # a 2-cycle too: period gcd(2, 3) = 1
    return a


_CHAIN_CASES = (
    [(f"cycle-{r}", _cycle(r), ((frozenset(range(r)),), True, False)) for r in range(2, 12)]
    + [(f"wielandt-{r}", _wielandt(r), ((frozenset(range(r)),), True, True))
       for r in range(2, 12)]
    + [("two-closed-classes", _two_closed_classes(),
        ((frozenset({0, 3}), frozenset({2, 4})), False, False)),
       ("leak-into-periodic", _leak_into_cycle(False), ((frozenset({2, 3, 4}),), True, False)),
       ("leak-into-aperiodic", _leak_into_cycle(True), ((frozenset({2, 3, 4}),), True, True))]
)


@pytest.mark.parametrize("pattern,expected", [c[1:] for c in _CHAIN_CASES],
                         ids=[c[0] for c in _CHAIN_CASES])
def test_chain_structure_fixed_patterns(pattern, expected):
    s = chain_structure(Kernel(pattern / pattern.sum(axis=1, keepdims=True)))
    assert (s.recurrent_classes, s.is_unichain, s.is_aperiodic) == expected
    assert chain_structure_direct(pattern) == expected


@st.composite
def _support_patterns(draw):
    k = draw(st.integers(1, 8))
    a = np.array(draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k)))
    a = a.reshape(k, k)
    for i in np.flatnonzero(~a.any(axis=1)):
        a[i, draw(st.integers(0, k - 1))] = True  # every state has a successor
    return a


@given(_support_patterns())
@settings(max_examples=300, deadline=None)
def test_chain_structure_matches_definition(pattern):
    s = chain_structure(Kernel(pattern / pattern.sum(axis=1, keepdims=True)))
    assert (s.recurrent_classes, s.is_unichain, s.is_aperiodic) == \
        chain_structure_direct(pattern)


def test_stationary_examples():
    t = Kernel(np.array([[0.9, 0.1], [0.2, 0.8]]))
    pi = stationary_dist(t)
    assert np.allclose(pi.pmf, [2 / 3, 1 / 3], atol=1e-10)

    # doubly stochastic, strictly positive: uniform
    ds = np.array([[0.2, 0.5, 0.3], [0.5, 0.2, 0.3], [0.3, 0.3, 0.4]])
    assert np.allclose(stationary_dist(Kernel(ds)).pmf, 1 / 3, atol=1e-10)

    # rank one: every row p implies pi = p
    p = np.array([0.1, 0.6, 0.3])
    t = Kernel(np.tile(p, (3, 1)))
    assert np.allclose(stationary_dist(t).pmf, p, atol=1e-12)

    # valid but slowly mixing (spectral gap 3e-6): the equilibrium is exact
    a = 1e-6
    t = Kernel(np.array([[1 - a, a], [2 * a, 1 - 2 * a]]))
    assert np.allclose(stationary_dist(t).pmf, [2 / 3, 1 / 3], atol=1e-12)


def test_stationary_requires_assumption():
    with pytest.raises(AssumptionViolated):
        stationary_dist(Kernel(np.eye(2)))
    with pytest.raises(AssumptionViolated):
        stationary_dist(Kernel(np.array([[0.0, 1.0], [1.0, 0.0]])))


def test_stationary_supported_on_recurrent_class():
    t = Kernel(np.array([
        [0.5, 0.5, 0.0],
        [0.0, 0.3, 0.7],
        [0.0, 0.6, 0.4],
    ]))
    pi = stationary_dist(t)
    assert pi.pmf[0] == 0.0
    assert np.abs(pi.pmf @ t.table - pi.pmf).sum() <= 1e-12


def test_equilibrium_identity_random_instances():
    # pi(j) = sum_{x,i} pi(i) px(x) w(j|x,i), entrywise within 1e-10
    rng = np.random.default_rng(7)
    for _ in range(25):
        px, w = random_channel_instance(rng, rng.integers(2, 4), rng.integers(2, 4))
        t = induced_transition(px, w)
        pi = stationary_dist(t)
        rhs = np.einsum("i,x,xij->j", pi.pmf, px.pmf, w.table)
        assert np.abs(rhs - pi.pmf).max() <= 1e-10


def test_lifted_transition_structural_zeros():
    rng = np.random.default_rng(1)
    px, w = random_channel_instance(rng, 2, 3)
    lift = lifted_transition(px, w)
    nx, ny = 2, 3
    for i in range(ny):
        for x in range(nx):
            for j in range(ny):
                src = lifted_index(i, x, j, nx, ny)
                for jp in range(ny):
                    if jp == j:
                        continue
                    for xp in range(nx):
                        for k in range(ny):
                            assert lift.table[src, lifted_index(jp, xp, k, nx, ny)] == 0.0


def test_lifted_stationary_equals_product():
    rng = np.random.default_rng(2)
    for _ in range(10):
        nx, ny = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        px, w = random_channel_instance(rng, nx, ny)
        pi = stationary_dist(induced_transition(px, w))
        lifted_pi = stationary_dist(lifted_transition(px, w))
        product = np.einsum("i,x,xij->ixj", pi.pmf, px.pmf, w.table)
        assert np.array_equal(triplet_law(pi.pmf, px.pmf, w), product)
        assert np.abs(lifted_pi.pmf.reshape(ny, nx, ny) - product).sum() <= 1e-10


def test_lifted_unichain_agrees_with_base():
    # a periodic base chain lifts to a non-aperiodic triplet chain
    px = Dist(np.array([1.0]))
    swap = np.zeros((1, 2, 2))
    swap[0, 0, 1] = swap[0, 1, 0] = 1.0
    base = chain_structure(induced_transition(px, Kernel(swap)))
    lifted = chain_structure(lifted_transition(px, Kernel(swap)))
    assert base.is_unichain == lifted.is_unichain
    assert base.is_aperiodic == lifted.is_aperiodic


def test_marginal_order_and_consistency():
    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(24)).reshape(2, 3, 4)
    j = JointDist(p)
    m = j.marginal([2, 0])
    assert np.allclose(m.pmf, p.sum(axis=1).T, atol=1e-15)
    assert np.allclose(j.marginal([0, 1, 2]).pmf, p, atol=1e-15)
    for keep in ([3], [0, 0], [-1]):
        with pytest.raises(ValueError, match="distinct coordinates"):
            j.marginal(keep)
