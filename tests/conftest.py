"""Shared test helpers: deterministic random instances of domain objects.

Every generator takes an explicit numpy Generator so suites stay
reproducible; the hypothesis profile is derandomized for the same reason.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from distp import (
    Coupling,
    FiniteDistribution,
    GroundMetric,
    PointRelation,
    StochasticKernel,
)

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")

SEED = 12345


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def labels(k, prefix="x"):
    return tuple(f"{prefix}{i}" for i in range(k))


def rand_dist(rng, ground, zeros=0):
    """Random distribution; optionally force some entries to exact zero."""
    k = len(ground)
    probs = rng.dirichlet(np.ones(k))
    if zeros:
        off = rng.choice(k, size=min(zeros, k - 1), replace=False)
        probs[off] = 0.0
        probs = probs / probs.sum()
    return FiniteDistribution(ground, probs)


def rand_kernel(rng, inputs, outputs):
    rows = rng.dirichlet(np.ones(len(outputs)), size=len(inputs))
    return StochasticKernel(inputs, outputs, rows)


def euclidean_metric(rng, ground, dim=2):
    """Random point-cloud metric; symmetric and triangle-clean."""
    pts = rng.random((len(ground), dim))
    cost = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    return GroundMetric(ground, cost)


def shuffled_line_metric(rng, ground):
    """Line distances with the labels assigned to shuffled positions.

    In ground order the cost table is generally not submodular, which is
    what the northwest-versus-optimal comparisons need.
    """
    pos = rng.permutation(len(ground)).astype(float)
    return GroundMetric(ground, np.abs(pos[:, None] - pos[None, :]))


def rand_relation(rng, ground, npairs, include_self=False):
    pool = [
        (a, b)
        for a in ground
        for b in ground
        if include_self or a != b
    ]
    idx = rng.choice(len(pool), size=min(npairs, len(pool)), replace=False)
    return PointRelation(pool[i] for i in sorted(idx))


def phi_member_pair(rng, phi, ground):
    """A pair (lam0, lam1) with a coupling supported inside ``phi``.

    Random positive mass on the related arcs; the marginals are then by
    construction a member pair of the lifted relation.
    """
    k = len(ground)
    idx = {x: i for i, x in enumerate(ground)}
    mass = np.zeros((k, k))
    for a, b in phi:
        mass[idx[a], idx[b]] = rng.random() + 0.05
    mass /= mass.sum()
    lam0 = FiniteDistribution(ground, mass.sum(axis=1))
    lam1 = FiniteDistribution(ground, mass.sum(axis=0))
    return lam0, lam1, Coupling(ground, ground, mass)


def staircase_arcs(rng, k):
    """A monotone staircase path from (0, 0) to (k-1, k-1)."""
    arcs = [(0, 0)]
    i = j = 0
    while (i, j) != (k - 1, k - 1):
        if i == k - 1:
            j += 1
        elif j == k - 1:
            i += 1
        elif rng.random() < 0.5:
            i += 1
        else:
            j += 1
        arcs.append((i, j))
    return arcs


def w1_member_pair(rng, ground, extra_phi=None):
    """(phi, lam0, lam1): a pair whose optimal line-metric coupling fits phi.

    Mass is placed on a monotone staircase path, which is cost-minimal for
    line metrics in ground order; phi is the path plus any extra arcs.
    """
    k = len(ground)
    arcs = staircase_arcs(rng, k)
    mass = np.zeros((k, k))
    for i, j in arcs:
        mass[i, j] = rng.random() + 0.05
    mass /= mass.sum()
    pairs = [(ground[i], ground[j]) for i, j in arcs]
    if extra_phi is not None:
        pairs.extend(extra_phi)
    phi = PointRelation(pairs)
    lam0 = FiniteDistribution(ground, mass.sum(axis=1))
    lam1 = FiniteDistribution(ground, mass.sum(axis=0))
    return phi, lam0, lam1


def tilted(rng, dist, scale=0.2):
    """Exponential tilt of a distribution; keeps the support identical."""
    u = rng.uniform(-scale, scale, size=len(dist.ground))
    w = dist.probs * np.exp(u)
    return FiniteDistribution(dist.ground, w / w.sum())


def subset_oracle(p, q, delta):
    """Brute-force maximum of ln((p[R] - delta) / q[R]) over events R inside
    supp(p): every subset is summed on its own, with no ordering argument."""
    support = [i for i, x in enumerate(p) if x > 1e-12]
    best = -math.inf
    for size in range(1, len(support) + 1):
        for combo in itertools.combinations(support, size):
            big_p = float(sum(p[i] for i in combo))
            big_q = float(sum(q[i] for i in combo))
            num = big_p - delta
            if big_p < delta or num <= 0.0:
                continue
            if big_q <= 1e-12:
                return math.inf
            best = max(best, math.log(num / big_q))
    return best
