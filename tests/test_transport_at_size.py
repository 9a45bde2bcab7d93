"""The bottleneck distance against two independent oracles at size.

Marked ``slow`` and left out of the default run (see ``pyproject.toml``);
run them with ``pytest -m slow``. Each oracle bisects over the distinct
costs with its own feasibility test: a ``networkx`` maximum flow, which
must carry all but TAU_MASS of the mass, and a HiGHS feasibility LP. The
grounds have n = 60 and 120 points under a Euclidean, a discrete and a
line metric.
"""

import networkx as nx
import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

from distp import (
    FiniteDistribution,
    GroundMetric,
    uniform_distribution,
    validate_coupling,
    wasserstein_inf,
)
from distp.tolerances import TAU_MASS
from conftest import euclidean_metric, labels, rand_dist, shuffled_line_metric

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


def lp_feasible(supply, demand, allowed) -> bool:
    m, n = allowed.shape
    cells = np.flatnonzero(allowed)
    rows, cols = np.divmod(cells, n)
    arange = np.arange(cells.size)
    a_eq = scipy.sparse.vstack([
        scipy.sparse.csr_matrix((np.ones(cells.size), (rows, arange)),
                                shape=(m, cells.size)),
        scipy.sparse.csr_matrix((np.ones(cells.size), (cols, arange)),
                                shape=(n, cells.size)),
    ])
    res = scipy.optimize.linprog(
        np.zeros(cells.size), A_eq=a_eq,
        b_eq=np.concatenate([supply, demand]), bounds=(0.0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10},
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


def instance(n, family):
    rng = np.random.default_rng(n)
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
