"""The transport solvers against independent oracles at size.

Marked ``slow`` and left out of the default run (see ``pyproject.toml``);
run them with ``pytest -m slow``. The grounds are Euclidean, discrete and
line metrics.

For the bottleneck distance (n = 60 and 120), each oracle bisects over the
distinct costs with its own feasibility test: a ``networkx`` maximum flow,
which must carry all but TAU_MASS of the mass, and a HiGHS feasibility LP.

The bottleneck solver also runs on n x n instances of the three
``bottleneck_instance`` families (n = 80 and 200), each with two zero rows
and columns and one sliver row holding TAU_MASS times 1 - 1e-6, 1 or
1 + 1e-6, against ``full_range_bisection``: the search on the library's
own phase 1 before the least-cost bracket and Hall's cuts.

For W1 (n = 80, 120 and 200), ``emd`` matches the HiGHS optimum to a
relative 1e-9: HiGHS stops at its own feasibility tolerances, and has
missed a simplex optimum by 9.4e-12 on a 27-point instance, so the check is
relative, not an absolute 1e-12. The returned basis also certifies itself:
its ``dual_potentials`` leave no reduced cost below -1e-12 times the
largest cost, zero (to that much) on the basic cells, and a dual objective
equal to the primal cost. The Euclidean instances also run with their costs
scaled by 1e3 and 1e5, where the potentials' rounding grows with the scale
and an absolute 1e-12 would fail on rounding alone. ``networkx.network_simplex`` is a second W1
oracle, on integer costs and marginals in units of 2**-20: every flow,
marginal and cost sum is then exact in floating point, so the two optima
must be equal, and so must the plan's marginals and the inputs.

The solvers build their couplings without validating them again, so
hypothesis properties at size check what that skips: every returned
coupling is nonnegative with the inputs' marginals, and the orders are
ordered, W1 <= W2 <= W-inf <= ``diameter``.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from distp import (
    FiniteDistribution,
    GroundMetric,
    diameter,
    dual_potentials,
    emd,
    uniform_distribution,
    validate_coupling,
    wasserstein_inf,
    wasserstein_p,
)
from distp.tolerances import TAU_MASS
from conftest import (
    bottleneck_instance,
    euclidean_metric,
    full_range_bisection,
    labels,
    lp_cost,
    lp_feasible,
    rand_dist,
    shuffled_line_metric,
    threshold_search,
)

pytestmark = pytest.mark.slow


def flow_feasible(supply, demand, allowed) -> bool:
    graph = nx.DiGraph()
    for i, s in enumerate(supply):
        graph.add_edge("s", ("r", i), capacity=float(s))
    for j, d in enumerate(demand):
        graph.add_edge(("c", j), "t", capacity=float(d))
    for i, j in zip(*np.nonzero(allowed)):
        graph.add_edge(("r", int(i)), ("c", int(j)))
    return nx.maximum_flow_value(graph, "s", "t") >= 1.0 - TAU_MASS


def network_simplex_w1(supply, demand, cost) -> int:
    """The optimal cost of integer supplies and demands on integer costs,
    by ``networkx.network_simplex`` on the bipartite graph."""
    graph = nx.DiGraph()
    for i, s in enumerate(supply):
        graph.add_node(("r", i), demand=-int(s))
    for j, d in enumerate(demand):
        graph.add_node(("c", j), demand=int(d))
    for i, j in np.ndindex(cost.shape):
        graph.add_edge(("r", i), ("c", j), weight=int(cost[i, j]))
    return nx.network_simplex(graph)[0]


UNITS = 2**20  # the dyadic marginals' denominator


def integer_instance(n, family):
    """(supply, demand, metric): integer counts summing to UNITS, with
    zero-count labels on the line, and integer costs: Euclidean distances
    in thousandths, rounded; the line's positions; the discrete metric."""
    rng = np.random.default_rng(n)
    ground = labels(n)
    if family == "euclidean":
        metric = euclidean_metric(rng, ground)
        metric = GroundMetric(ground, np.rint(1000.0 * metric.cost))
    elif family == "line":
        metric = shuffled_line_metric(rng, ground)
    else:
        metric = GroundMetric.discrete(ground)
    weights = rng.dirichlet(np.ones(n), size=2)
    if family == "line":
        weights[0, rng.choice(n, size=n // 6, replace=False)] = 0.0
        weights[0] /= weights[0].sum()
    supply, demand = (rng.multinomial(UNITS, w) for w in weights)
    return supply, demand, metric


@pytest.mark.parametrize("family", ["euclidean", "discrete", "line"])
@pytest.mark.parametrize("n", [80, 120, 200])
def test_emd_matches_network_simplex_exactly(n, family):
    supply, demand, metric = integer_instance(n, family)
    lam = FiniteDistribution(metric.ground, supply / UNITS)
    mu = FiniteDistribution(metric.ground, demand / UNITS)
    got = emd(lam, mu, metric)
    assert got.cost == network_simplex_w1(supply, demand, metric.cost) / UNITS
    mass = got.coupling.mass
    assert mass.min() >= 0.0
    assert np.array_equal(mass.sum(axis=1) * UNITS, supply)
    assert np.array_equal(mass.sum(axis=0) * UNITS, demand)


def instance(n, family, seed=None):
    rng = np.random.default_rng(n if seed is None else seed)
    ground = labels(n)
    if family == "euclidean":
        return rand_dist(rng, ground), rand_dist(rng, ground), \
            euclidean_metric(rng, ground)
    if family == "line":
        return rand_dist(rng, ground, zeros=n // 6), rand_dist(rng, ground), \
            shuffled_line_metric(rng, ground)
    # discrete metric, uniform against a multinomial: ties everywhere
    mu = FiniteDistribution(ground, rng.multinomial(n, np.ones(n) / n) / n)
    return uniform_distribution(ground), mu, GroundMetric.discrete(ground)


@pytest.mark.parametrize("oracle", [flow_feasible, lp_feasible],
                         ids=["networkx", "highs"])
@pytest.mark.parametrize("family", ["euclidean", "discrete", "line"])
@pytest.mark.parametrize("n", [60, 120])
def test_wasserstein_inf_matches_oracle_threshold_search(n, family, oracle):
    lam, mu, metric = instance(n, family)
    got = wasserstein_inf(lam, mu, metric)
    assert got.cost == threshold_search(lam.probs, mu.probs, metric.cost, oracle)
    assert validate_coupling(got.coupling, lam, mu)
    assert got.coupling.mass[metric.cost > got.cost].max(initial=0.0) == 0.0


@pytest.mark.parametrize("sliver", [1.0 - 1e-6, 1.0, 1.0 + 1e-6])
@pytest.mark.parametrize("family", [0, 1, 2])
@pytest.mark.parametrize("n", [80, 200])
def test_wasserstein_inf_on_sliver_rows_at_size(n, family, sliver):
    lam, mu, metric = bottleneck_instance(n, n, family, 2, sliver, n)
    got = wasserstein_inf(lam, mu, metric)
    assert got.cost == full_range_bisection(lam, mu, metric)
    assert validate_coupling(got.coupling, lam, mu)


@pytest.mark.parametrize("family, scale", [
    ("euclidean", 1.0), ("discrete", 1.0), ("line", 1.0),
    ("euclidean", 1e3), ("euclidean", 1e5),
])
@pytest.mark.parametrize("n", [80, 120, 200])
def test_emd_matches_highs_with_a_dual_certificate(n, family, scale):
    lam, mu, metric = instance(n, family)
    metric = GroundMetric(metric.ground, scale * metric.cost)
    got = emd(lam, mu, metric)
    assert got.cost == pytest.approx(lp_cost(lam.probs, mu.probs, metric.cost),
                                     rel=1e-9, abs=0.0)
    assert validate_coupling(got.coupling, lam, mu)
    cost = metric.cost
    u, v = dual_potentials(got.basis, cost)
    reduced = cost - u[:, None] - v[None, :]
    tol = 1e-12 * cost.max()
    assert reduced.min() >= -tol
    assert np.abs(reduced[tuple(np.array(sorted(got.basis)).T)]).max() <= tol
    assert float(u @ lam.probs + v @ mu.probs) == pytest.approx(
        got.cost, rel=1e-12, abs=0.0)


@given(st.integers(80, 200), st.sampled_from(["euclidean", "discrete", "line"]),
       st.integers(0, 2**32 - 1))
def test_orders_and_couplings_at_size(n, family, seed):
    lam, mu, metric = instance(n, family, seed)
    w1 = emd(lam, mu, metric)
    w2 = wasserstein_p(lam, mu, metric, p=2)
    winf = wasserstein_inf(lam, mu, metric)
    slack = 1e-12 * metric.cost.max()
    assert w1.cost <= w2.cost + slack
    assert w2.cost <= winf.cost + slack
    assert winf.cost <= diameter(lam, mu, metric)
    for result in (w1, w2, winf):
        assert result.coupling.mass.min() >= 0.0
        assert validate_coupling(result.coupling, lam, mu)
