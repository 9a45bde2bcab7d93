"""Shared test helpers: deterministic random instances of domain objects,
the fixtures several modules read, and one copy of each independent oracle
the bespoke solvers are checked against.

Every generator takes an explicit numpy Generator so suites stay
reproducible; the hypothesis profile is derandomized for the same reason.

Fixtures:

- ``GROUND3``, ``LAM``, ``MU``, ``LINE3``: the worked three-point example
  on the unit-spaced line. What do the solvers and auditors give on the
  instance whose every value is known by hand?
- ``DIVERGENCES``, ``PALETTE``, ``palette_kernel``: the standard kinds plus
  the max divergence with and without slack, and kernels built from four
  reused rows. Does a result survive exact ties between rows and the
  infinite values a zero entry makes?
- ``hexes``: floats as ``float.hex``. Are two results equal bit for bit?
- ``union_metric``: a metric holding a given m x n cost block. What does a
  solver do on rectangular grounds?

Oracles:

- ``lp_cost``: the optimal transport cost by HiGHS, optionally on the
  arcs of an ``allowed`` mask only. Is a simplex optimum optimal?
- ``lp_feasible``: a HiGHS feasibility LP. Does a coupling of the
  marginals exist with its support inside a mask?
- ``threshold_search``: a bisection over the distinct costs with a given
  feasibility test. What is the least bottleneck cost W-inf may report?
- ``full_range_bisection``: the bottleneck search as it was before the
  least-cost bracket and Hall's cuts, on the library's own phase 1. Do the
  bracket and the cuts ever skip the answer?
- ``bottleneck_instance``: rectangular bottleneck instances, with zero
  rows and a row near TAU_MASS. Where do tolerances decide a threshold?
- ``subset_oracle``: the slack max divergence by trying every event. Does
  the delta prefix rule find the worst event?
"""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import HealthCheck, settings

from distp import (
    STANDARD_KINDS,
    Coupling,
    FiniteDistribution,
    GroundMetric,
    MaxDivergence,
    PointRelation,
    StochasticKernel,
    divergences,
)
from distp.tolerances import TAU_MASS, TAU_ZERO
from distp.transport import _clamped, _feasible_on, _northwest

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")

SEED = 12345

# the worked example
GROUND3 = ("1", "2", "3")
LAM = FiniteDistribution(GROUND3, np.array([0.2, 0.5, 0.3]))
MU = FiniteDistribution(GROUND3, np.array([0.3, 0.2, 0.5]))
LINE3 = GroundMetric.line(GROUND3)

DIVERGENCES = STANDARD_KINDS + (MaxDivergence(), MaxDivergence(0.1))
# Rows reused across inputs, so that many pairs tie exactly; the zero in the
# third row makes the max divergence and KL +inf against the others, and the
# delta variant -inf at delta 1.
PALETTE = np.array([
    [0.5, 0.25, 0.25],
    [0.25, 0.5, 0.25],
    [0.6, 0.4, 0.0],
    [0.1, 0.2, 0.7],
])


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def one_way(divergence, table, left, right):
    """The divergence of row ``left[i]`` of ``table`` from row ``right[i]``,
    for every i: the first of the two orders the row kernel returns."""
    return divergences._divergence_pairs(divergence, table, left, right)[0]


def kernel_count(kind="pairs", name=None):
    """The row kernel's counter ``kind`` so far in this process: "pairs",
    the unordered row pairs evaluated, or "memo hits", the pairs read from
    a kernel's memo; for the divergence called ``name``, or summed over all
    of them."""
    return sum(count for (k, n), count in divergences.COUNTS.items()
               if k == kind and name in (None, n))


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


def palette_kernel(rows):
    """The kernel whose input i emits ``PALETTE[rows[i]]``."""
    return StochasticKernel(labels(len(rows)), labels(3, "y"), PALETTE[list(rows)])


def hexes(values):
    return [float(v).hex() for v in values]


def union_metric(rows, cols, cost):
    """The metric on ``rows + cols`` with ``cost`` from each row label to
    each column label and zero within each side."""
    m, n = cost.shape
    return GroundMetric(rows + cols, np.block([[np.zeros((m, m)), cost],
                                               [cost.T, np.zeros((n, n))]]))


def marginal_rows(m, n, cells):
    """The equality rows that fix the marginals of the flows on ``cells``
    (flat indices into an m x n plan)."""
    rows, cols = np.divmod(cells, n)
    arange = np.arange(cells.size)
    return scipy.sparse.vstack([
        scipy.sparse.csr_matrix((np.ones(cells.size), (rows, arange)),
                                shape=(m, cells.size)),
        scipy.sparse.csr_matrix((np.ones(cells.size), (cols, arange)),
                                shape=(n, cells.size)),
    ])


# At HiGHS's default feasibility tolerances (1e-7) its cost was more than
# 1e-12 off on 14 of 1,200 random 27-point Euclidean instances.
HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-10,
                    "dual_feasibility_tolerance": 1e-10}


def lp_cost(supply, demand, cost, allowed=None) -> float:
    """The optimal transport cost by scipy's HiGHS, with only the arcs of
    ``allowed`` (when given) free to carry mass."""
    cells = (np.arange(cost.size) if allowed is None
             else np.flatnonzero(allowed))
    res = scipy.optimize.linprog(
        cost.ravel()[cells], A_eq=marginal_rows(*cost.shape, cells),
        b_eq=np.concatenate([supply, demand]), bounds=(0.0, None),
        method="highs", options=HIGHS_TOLERANCES,
    )
    assert res.status == 0, res.message
    return float(res.fun)


def lp_feasible(supply, demand, allowed) -> bool:
    """Whether HiGHS finds a coupling of the marginals supported inside
    ``allowed``."""
    cells = np.flatnonzero(allowed)
    res = scipy.optimize.linprog(
        np.zeros(cells.size), A_eq=marginal_rows(*allowed.shape, cells),
        b_eq=np.concatenate([supply, demand]), bounds=(0.0, None),
        method="highs", options=HIGHS_TOLERANCES,
    )
    return res.status == 0


def threshold_search(supply, demand, cost, feasible) -> float:
    """The least distinct cost at which ``feasible`` accepts the arcs at or
    below it, by bisection."""
    values = np.unique(cost)
    lo, hi = 0, values.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(supply, demand, cost <= values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(values[hi])


def full_range_bisection(lam, mu, metric):
    """The bottleneck search before the least-cost bracket: a phase-1 solve
    at the largest cost, from the north-west corner, then bisection over
    every distinct cost, each test started from the last feasible plan."""
    cost = metric.submatrix(lam.ground, mu.ground)
    values = np.unique(cost)
    lo, hi = 0, values.size - 1
    ok, plan = _feasible_on(lam.probs, mu.probs, cost <= values[hi],
                            start=_northwest(lam.probs, mu.probs))
    assert ok
    while lo < hi:
        mid = (lo + hi) // 2
        ok_mid, trial = _feasible_on(lam.probs, mu.probs, cost <= values[mid],
                                     start=plan)
        if ok_mid:
            hi = mid
            plan = trial
        else:
            lo = mid + 1
    mass = _clamped(plan.mass, cost <= values[hi])
    support = mass > TAU_ZERO
    return float(cost[support].max()) if np.any(support) else 0.0


def bottleneck_instance(m, n, family, zeros, sliver, seed):
    """(lam, mu, metric) on an m-row, n-column cost block.

    Families: Euclidean points, tie-heavy integer costs, points on a line.
    ``zeros`` rows and columns carry no mass; ``sliver`` (a multiple of
    TAU_MASS, or None) moves that much mass from the largest row onto
    another, so Hall's tolerance decides whether that row needs an arc.
    """
    rng = np.random.default_rng(seed)
    if family == 0:
        cost = np.linalg.norm(rng.random((m, 1, 2)) - rng.random((1, n, 2)),
                              axis=2)
    elif family == 1:
        cost = rng.integers(0, 3, size=(m, n)).astype(float)
    else:
        cost = np.abs(rng.random((m, 1)) - rng.random((1, n)))

    def marginal(k):
        probs = rng.dirichlet(np.ones(k))
        if zeros and k > 1:
            probs[rng.choice(k, size=min(zeros, k - 1), replace=False)] = 0.0
        return probs / probs.sum()

    supply, demand = marginal(m), marginal(n)
    if sliver is not None and m > 1:
        big = int(supply.argmax())
        other = (big + 1 + int(rng.integers(m - 1))) % m
        supply[big] += supply[other] - sliver * TAU_MASS
        supply[other] = sliver * TAU_MASS
    lam = FiniteDistribution(labels(m, "a"), supply)
    mu = FiniteDistribution(labels(n, "b"), demand)
    return lam, mu, union_metric(lam.ground, mu.ground, cost)


def subset_oracle(p, q, delta):
    """Brute-force maximum of ln((p[R] - delta) / q[R]) over events R inside
    supp(p): every subset is a row of a 0/1 matrix and is summed on its own,
    with no ordering argument."""
    support = np.flatnonzero(p > TAU_ZERO)
    masks = np.arange(1, 2 ** support.size)
    bits = (masks[:, None] >> np.arange(support.size)) & 1
    mass = bits @ p[support]
    ref = bits @ q[support]
    slacked = mass - delta
    ok = (mass >= delta) & (slacked > 0.0)
    if not ok.any():
        return -math.inf
    if (ref[ok] <= TAU_ZERO).any():
        return math.inf
    return float(np.log(slacked[ok] / ref[ok]).max())
