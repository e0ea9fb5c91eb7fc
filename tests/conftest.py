"""Shared fixtures: the calibrated binary instance and random builders."""

import numpy as np
import pytest
from hypothesis import settings

from markovcoord.probability import Dist, Kernel
from markovcoord.region import InnerCandidate

# Derandomized, so every run checks the same examples (the package is deterministic too).
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def make_flip_candidate(p0, p1, a0, a1, vmix, u_pmf=(0.5, 0.5), x_pmf=(0.5, 0.5)):
    """Binary instance: channel flips X with state-dependent probability,
    auxiliary is a skewed noisy read of U, decoder output mixes W xor Y."""
    chan = Kernel(np.array([[[1 - p0, p0], [1 - p1, p1]],
                            [[p0, 1 - p0], [p1, 1 - p1]]]))
    pw = np.zeros((2, 2, 2))
    pw[0, :, 1] = a0
    pw[0, :, 0] = 1 - a0
    pw[1, :, 1] = a1
    pw[1, :, 0] = 1 - a1
    pv = np.zeros((2, 2, 2, 2))
    for y in range(2):
        for w in range(2):
            hot = w ^ y
            pv[y, :, w, hot] = 1 - vmix
            pv[y, :, w, 1 - hot] = vmix
    return InnerCandidate(
        p_u=Dist(np.asarray(u_pmf, dtype=float)),
        p_x=Dist(np.asarray(x_pmf, dtype=float)),
        p_w_given_ux=Kernel(pw), channel=Kernel(chan.table),
        p_v_given_yxw=Kernel(pv),
    )


# Calibrated instance used by the Monte-Carlo acceptance criteria:
# I(U;W|X) ~= 0.0131, I(X;Y|Y') ~= 0.1600, slack ~= 0.147 bits.
BLESSED = {
    "p0": 0.25, "p1": 0.29, "a0": 0.06, "a1": 0.14, "vmix": 0.10,
    "eps_decode": 0.24, "eps_cover": 0.17, "rate_mid": 0.0166, "y0": 0,
}


@pytest.fixture(scope="session")
def blessed_candidate():
    return make_flip_candidate(BLESSED["p0"], BLESSED["p1"], BLESSED["a0"],
                               BLESSED["a1"], BLESSED["vmix"])


def random_dist(rng, k, floor=0.0):
    p = rng.dirichlet(np.ones(k))
    if floor:
        p = np.maximum(p, floor)
        p = p / p.sum()
    return Dist(p)


def random_kernel(rng, in_sizes, out_size, floor=0.0):
    rows = rng.dirichlet(np.ones(out_size), size=in_sizes)
    if floor:
        rows = np.maximum(rows, floor)
        rows = rows / rows.sum(axis=-1, keepdims=True)
    return Kernel(rows)


def random_channel_instance(rng, nx, ny, floor=0.02):
    """Full-support (p_x, channel) pair; positive entries make the induced
    chain strictly positive, hence unichain and aperiodic."""
    return random_dist(rng, nx, floor), random_kernel(rng, (nx, ny), ny, floor)
