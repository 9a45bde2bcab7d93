"""Pinned simplex solves: every plan, basis and counter, bit for bit.

Each pin is the sha256 of a solve's ``mass.tobytes()`` followed by its
sorted basis, with its pivot and degenerate-pivot counts. The pins were
recorded before the pivot loop was last reworked for speed; such a rework
must keep the pivot sequence, so it must keep every pin. A change that is
meant to move pivots regenerates them with ``solve_pins``.

The cases cover a cold ``emd``, the three solves of ``lifted_w1_member``
(phase 1, the restricted optimum, the free optimum) and a tie-heavy
assignment started from the north-west corner, where runs of degenerate
pivots hand over to Bland's rule.
"""

import hashlib

import numpy as np
import pytest

from distp import (
    GroundMetric,
    PointRelation,
    emd,
    lifted_w1_member,
    transport,
    uniform_distribution,
)
from distp.transport import _northwest, _simplex
from conftest import euclidean_metric, labels, phi_member_pair, rand_dist

RADIUS = 0.5


def digest(plan) -> tuple[str, int, int]:
    h = hashlib.sha256(plan.mass.tobytes())
    h.update(repr(sorted(plan.basis)).encode())
    return h.hexdigest()[:16], plan.pivots, plan.degenerate_pivots


def solve_pins(n: int, monkeypatch) -> dict[str, list[tuple[str, int, int]]]:
    """The digest of every ``_simplex`` solve in each case at size ``n``."""
    plans: list = []

    def spy(*args, **kwargs):
        plan = _simplex(*args, **kwargs)
        plans.append(plan)
        return plan

    monkeypatch.setattr(transport, "_simplex", spy)
    rng = np.random.default_rng(n)
    ground = labels(n)
    metric = euclidean_metric(rng, ground)
    pins = {}

    emd(rand_dist(rng, ground), rand_dist(rng, ground), metric)
    pins["emd"] = [digest(p) for p in plans]
    plans.clear()

    phi = PointRelation((ground[i], ground[j])
                        for i, j in zip(*np.nonzero(metric.cost <= RADIUS)))
    lam0, lam1, _ = phi_member_pair(rng, phi, ground)
    lifted_w1_member(phi, lam0, lam1, metric)
    pins["lifted_w1_member"] = [digest(p) for p in plans]
    plans.clear()

    lam = uniform_distribution(ground)
    mu = uniform_distribution(tuple(ground[i] for i in rng.permutation(n)))
    cost = GroundMetric.discrete(ground).submatrix(lam.ground, mu.ground)
    pins["bland"] = [digest(_simplex(lam.probs, mu.probs, cost,
                                     warm=_northwest(lam.probs, mu.probs)))]
    return pins


PINS = {
    12: {"emd": [("1c9940365a748685", 0, 0)],
         "lifted_w1_member": [("3fb5fabf4a19258c", 5, 0),
                              ("bc3fef2e4ec0f585", 6, 0),
                              ("48fd71215c90d6cf", 2, 0)],
         "bland": [("cb4945e4b6b2b665", 16, 13)]},
    16: {"emd": [("948ca467ff18656a", 7, 0)],
         "lifted_w1_member": [("ab571842498b0f7b", 6, 0),
                              ("fb8e7b9195e07529", 21, 0),
                              ("28dc7336e037fa70", 1, 0)],
         "bland": [("5dcf024b15a99e03", 44, 39)]},
    40: {"emd": [("4fb3e127b2109e4f", 25, 0)],
         "lifted_w1_member": [("c552f509b4f7050a", 10, 0),
                              ("2f0166dbed353861", 60, 0),
                              ("2f0166dbed353861", 0, 0)],
         "bland": [("e972c009d50e5e81", 192, 181)]},
}


@pytest.mark.parametrize("n", sorted(PINS))
def test_solves_match_their_pins(n, monkeypatch):
    assert solve_pins(n, monkeypatch) == PINS[n]
