"""Pinned simplex solves: every plan, basis and counter, bit for bit.

Each pin is the sha256 of a solve's ``mass.tobytes()`` followed by its
basic cells as sorted (i, j) pairs, with its pivot and degenerate-pivot
counts. ``digest`` alone turns the plan's flat cells i*n + j into pairs,
the form every pin was recorded in, so no pin moved when plans began to
keep flat cells. The pins were
recorded before the pivot loop was last reworked for speed; such a rework
must keep the pivot sequence, so it must keep every pin. A change that is
meant to move pivots regenerates them with ``solve_pins``.

The cases cover a cold ``emd``, the three solves of ``lifted_w1_member``
(phase 1 from the least-cost plan, the restricted optimum, the free
optimum), a tie-heavy assignment started from the north-west corner,
where runs of degenerate pivots hand over to Bland's rule, every solve of
a ``wasserstein_inf`` search (each phase-1 test starts from the
last plan), a rectangular ``emd`` whose rows include zero-mass labels, and a
restricted solve whose start plan holds forbidden cells at zero mass, so
that a blocked cell on the gaining side of a cycle leaves the basis.
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
    wasserstein_inf,
)
from distp.transport import _fill, _northwest, _pairs, _simplex
from conftest import euclidean_metric, labels, phi_member_pair, rand_dist

RADIUS = 0.5


def digest(plan) -> tuple[str, int, int]:
    h = hashlib.sha256(plan.mass.tobytes())
    h.update(repr(sorted(_pairs(plan))).encode())
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
                                     start=_northwest(lam.probs, mu.probs)))]
    plans.clear()

    wasserstein_inf(rand_dist(rng, ground), rand_dist(rng, ground), metric)
    pins["winf"] = [digest(p) for p in plans]
    plans.clear()

    rows, cols = ground[: n // 2], ground[n // 4:]
    emd(rand_dist(rng, rows, zeros=n // 8), rand_dist(rng, cols), metric)
    pins["rectangular"] = [digest(p) for p in plans]
    return pins


def blocked_leaves(seed: int):
    """A restricted solve from a least-cost plan whose zero-mass basic
    cells are forbidden. A forbidden basic cell on the gaining side of a
    cycle blocks the pivot (theta = 0); at seeds 2 and 12 such a blocked
    cell leaves, ahead of two zero-flow cells on the losing side."""
    rng = np.random.default_rng(seed)
    m, n = 6, 8
    supply = rng.multinomial(16, np.ones(m) / m) / 16
    demand = rng.multinomial(16, np.ones(n) / n) / 16
    cost = rng.random((m, n))
    plan = _fill(supply, demand, cost)
    allowed = rng.random((m, n)) < 0.7
    allowed[plan.mass > 0.0] = True
    for c in plan.cells:
        if plan.mass.flat[c] == 0.0:
            allowed.flat[c] = False
    return _simplex(supply, demand, cost, allowed=allowed, start=plan)


PINS = {
    12: {"emd": [("1c9940365a748685", 0, 0)],
         "lifted_w1_member": [("4529b9a31855bbfd", 5, 0),
                              ("4c927be73b158dbe", 2, 0),
                              ("b5a05dda6ba056d1", 2, 0)],
         "bland": [("cb4945e4b6b2b665", 16, 13)],
         "winf": [("ecec54b122617a35", 0, 0),
                  ("7552a9747a29f199", 13, 0),
                  ("2d3876f30ee7ab03", 10, 0),
                  ("e67472e9748e8ce9", 2, 0)],
         "rectangular": [("a5ec46e221af2e27", 2, 0)]},
    16: {"emd": [("948ca467ff18656a", 7, 0)],
         "lifted_w1_member": [("e8a16de12549381d", 2, 0),
                              ("cbaab56261f4ebe9", 4, 0),
                              ("15183816bf2b9e03", 1, 0)],
         "bland": [("5dcf024b15a99e03", 44, 39)],
         "winf": [("649567514a536d3b", 7, 0),
                  ("ca5c1cd5f088977b", 18, 0)],
         "rectangular": [("35f4ab77abcfaa5c", 5, 0)]},
    40: {"emd": [("4fb3e127b2109e4f", 25, 0)],
         "lifted_w1_member": [("6c00c2583ae89e56", 5, 0),
                              ("dbea9b500695a6aa", 21, 0),
                              ("dbea9b500695a6aa", 0, 0)],
         "bland": [("e972c009d50e5e81", 192, 181)],
         "winf": [("9de656d08735095f", 14, 0),
                  ("f744a378cf4eb049", 14, 0),
                  ("cabdbb4833dc2ea2", 9, 0),
                  ("1a1285b473d6eb61", 9, 0),
                  ("234b3d06d6d5a860", 4, 0)],
         "rectangular": [("9ac97f7f3737ef41", 32, 4)]},
}


@pytest.mark.parametrize("n", sorted(PINS))
def test_solves_match_their_pins(n, monkeypatch):
    assert solve_pins(n, monkeypatch) == PINS[n]


# seed -> pin of ``blocked_leaves(seed)``
RESTRICTED_PINS = {2: ("d445057e2617b882", 3, 1),
                   12: ("d8a4ae79882c08e8", 3, 2)}


@pytest.mark.parametrize("seed", sorted(RESTRICTED_PINS))
def test_blocked_leaving_matches_its_pin(seed):
    assert digest(blocked_leaves(seed)) == RESTRICTED_PINS[seed]
