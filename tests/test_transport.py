import math
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st

from distp import (
    MODE_NORTHWEST,
    MODE_OPTIMAL,
    Coupling,
    CouplingEntry,
    CouplingMechanismSpec,
    DimensionMismatchError,
    EmptyRelationError,
    FiniteDistribution,
    GroundMetric,
    GroundMismatchError,
    PointRelation,
    SolverNonconvergenceError,
    UnknownLabelError,
    ValidationError,
    build_coupling_mechanism,
    coupling_cost,
    diameter,
    dual_potentials,
    emd,
    is_submodular,
    lifted_member,
    lifted_w1_member,
    northwest_corner,
    point_distribution,
    transport,
    uniform_distribution,
    validate_coupling,
    wasserstein_inf,
    wasserstein_p,
)
from distp.tolerances import TAU_MASS, TAU_NUM, TAU_ZERO
from distp.transport import (
    _clamped,
    _cost_block,
    _cut,
    _feasible_on,
    _hall_index,
    _least_cost,
    _northwest,
    _pivot_budget,
    _relation_mask,
    _simplex,
    _tree,
)
from conftest import (
    euclidean_metric,
    labels,
    phi_member_pair,
    rand_dist,
    rand_relation,
    shuffled_line_metric,
    w1_member_pair,
)

GROUND3 = ("1", "2", "3")
LAM = FiniteDistribution(GROUND3, np.array([0.2, 0.5, 0.3]))
MU = FiniteDistribution(GROUND3, np.array([0.3, 0.2, 0.5]))
LINE3 = GroundMetric.line(GROUND3)
# Dual feasibility of a returned basis certifies its cost optimal to within
# this much (the marginals have unit mass), the precision of the LP oracles.
REDUCED_COST_TOL = 1e-12


def linprog_cost(supply, demand, cost, mask=None):
    """Independent optimal transport value via scipy's LP solver, with the
    arcs outside ``mask`` (when given) fixed at zero."""
    m, n = cost.shape
    rows = np.zeros((m, m * n))
    for i in range(m):
        rows[i, i * n: (i + 1) * n] = 1.0
    cols = np.zeros((n, m * n))
    for j in range(n):
        cols[j, j::n] = 1.0
    res = scipy.optimize.linprog(
        cost.ravel(),
        A_eq=np.vstack([rows, cols]),
        b_eq=np.concatenate([supply, demand]),
        bounds=(0.0, None) if mask is None else [
            (0.0, None) if ok else (0.0, 0.0) for ok in mask.ravel()
        ],
        method="highs",
        # at HiGHS's default feasibility tolerances (1e-7) its value was more
        # than 1e-12 off on 14 of 1,200 random 27-point Euclidean instances
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


def assert_dual_certificate(result, cost):
    """The potentials of ``result.basis`` price no arc below its cost.

    The bound is an absolute REDUCED_COST_TOL. The potentials carry
    rounding in proportion to the cost scale, but these instances have
    costs of order 1 to n, where a bound relative to the largest cost would
    be up to 20 times looser on line metrics. Costs scaled by 1e3 and 1e5
    are checked at a relative bound in ``test_transport_at_size.py``
    (``test_emd_matches_highs_with_a_dual_certificate``).
    """
    u, v = dual_potentials(result.basis, cost)
    assert (cost - u[:, None] - v[None, :]).min() >= -REDUCED_COST_TOL


def linprog_feasible(supply, demand, mask):
    """Independent check that a coupling exists with support inside mask."""
    m, n = mask.shape
    rows = np.zeros((m, m * n))
    for i in range(m):
        rows[i, i * n: (i + 1) * n] = 1.0
    cols = np.zeros((n, m * n))
    for j in range(n):
        cols[j, j::n] = 1.0
    bounds = [(0.0, None) if ok else (0.0, 0.0) for ok in mask.ravel()]
    res = scipy.optimize.linprog(
        np.zeros(m * n),
        A_eq=np.vstack([rows, cols]),
        b_eq=np.concatenate([supply, demand]),
        bounds=bounds,
        method="highs",
    )
    return res.status == 0


def two_by_two_emd(p, q, cost):
    """Closed form: the 2x2 transport polytope is a segment, the objective
    linear in the free cell, so the optimum sits at an endpoint."""
    lo = max(0.0, p + q - 1.0)
    hi = min(p, q)

    def value(a):
        return (
            a * cost[0, 0]
            + (p - a) * cost[0, 1]
            + (q - a) * cost[1, 0]
            + (1.0 - p - q + a) * cost[1, 1]
        )

    return min(value(lo), value(hi))


# ---------------------------------------------------------------------------
# northwest corner


def test_northwest_reference_table():
    got = northwest_corner(LAM, MU)
    expected = np.array([
        [0.2, 0.0, 0.0],
        [0.1, 0.2, 0.2],
        [0.0, 0.0, 0.3],
    ])
    np.testing.assert_allclose(got.mass, expected, atol=1e-12)
    assert np.count_nonzero(got.mass) == 5
    assert validate_coupling(got, LAM, MU)


def test_northwest_identical_marginals_is_diagonal(rng):
    lam = rand_dist(rng, labels(5))
    got = northwest_corner(lam, lam)
    np.testing.assert_allclose(got.mass, np.diag(lam.probs), atol=1e-12)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10**6))
def test_northwest_marginals_and_staircase(m, n, seed):
    rng = np.random.default_rng(seed)
    lam = rand_dist(rng, labels(m, "a"))
    mu = rand_dist(rng, labels(n, "b"))
    got = northwest_corner(lam, mu)
    np.testing.assert_allclose(got.row_marginal(), lam.probs, atol=1e-9)
    np.testing.assert_allclose(got.col_marginal(), mu.probs, atol=1e-9)
    cells = sorted((i, j) for i, j in zip(*np.nonzero(got.mass > 1e-12)))
    for (i0, j0), (i1, j1) in zip(cells, cells[1:]):
        assert i0 <= i1 and j0 <= j1, "support is not a monotone staircase"


@st.composite
def dyadic_marginal(draw, size):
    """Sixteenths summing to one: sums are exact, ties between running
    row and column totals are common, and labels may carry zero mass."""
    cuts = draw(st.lists(st.integers(0, 16), min_size=size - 1,
                         max_size=size - 1))
    return np.diff([0, *sorted(cuts), 16]) / 16


@given(st.data(), st.integers(1, 8), st.integers(1, 8))
def test_northwest_start_is_a_staircase(data, m, n):
    supply = data.draw(dyadic_marginal(m))
    demand = data.draw(dyadic_marginal(n))
    mass, basis = _northwest(supply, demand)
    assert len(basis) == m + n - 1
    assert basis[0] == (0, 0) and basis[-1] == (m - 1, n - 1)
    for (i, j), step in zip(basis, basis[1:]):
        row_spent = mass[i, : j + 1].sum() == supply[i]
        col_spent = mass[: i + 1, j].sum() == demand[j]
        # a spent row closes first, except the last one, which waits for
        # the last column
        down = (row_spent and i < m - 1) or j == n - 1
        assert step == ((i + 1, j) if down else (i, j + 1))
        if row_spent and col_spent:
            # the row and the column closed together: the next basic cell
            # carries zero mass
            assert mass[step] == 0.0
    off = np.ones((m, n), dtype=bool)
    off[tuple(np.array(basis).T)] = False
    assert np.all(mass[off] == 0.0)
    assert mass.sum(axis=1).tolist() == supply.tolist()
    assert mass.sum(axis=0).tolist() == demand.tolist()


def test_northwest_optimal_on_submodular_costs(rng):
    for _ in range(40):
        k = int(rng.integers(2, 7))
        ground = labels(k)
        lam = rand_dist(rng, ground)
        mu = rand_dist(rng, ground)
        metric = GroundMetric.line(ground, positions=np.sort(rng.random(k)))
        assert is_submodular(metric)
        nw_cost = coupling_cost(northwest_corner(lam, mu), metric)
        assert nw_cost == pytest.approx(emd(lam, mu, metric).cost, abs=1e-9)


# ---------------------------------------------------------------------------
# coupling validation


def test_validate_coupling_rejects_label_mismatch():
    got = northwest_corner(LAM, MU)
    other = FiniteDistribution(("3", "2", "1"), np.array([0.3, 0.2, 0.5]))
    with pytest.raises(DimensionMismatchError):
        validate_coupling(got, LAM, other)


def test_validate_coupling_detects_marginal_drift():
    mass = np.array([[0.5, 0.0], [0.25, 0.25]])
    cp = Coupling(("a", "b"), ("u", "v"), mass)
    lam = FiniteDistribution(("a", "b"), np.array([0.5, 0.5]))
    mu_good = FiniteDistribution(("u", "v"), np.array([0.75, 0.25]))
    mu_bad = FiniteDistribution(("u", "v"), np.array([0.5, 0.5]))
    assert validate_coupling(cp, lam, mu_good)
    assert not validate_coupling(cp, lam, mu_bad)


def test_coupling_rejects_off_mass():
    with pytest.raises(ValidationError, match="coupling"):
        Coupling(("a",), ("u", "v"), np.array([[0.4, 0.4]]))


def test_coupling_support():
    cp = northwest_corner(LAM, MU)
    assert ("1", "1") in cp.support()
    assert ("3", "1") not in cp.support()


# ---------------------------------------------------------------------------
# emd


def test_emd_reference_value():
    got = emd(LAM, MU, LINE3)
    assert got.cost == pytest.approx(0.3, abs=1e-9)
    assert validate_coupling(got.coupling, LAM, MU)


def test_emd_zero_between_equal(rng):
    lam = rand_dist(rng, labels(5))
    metric = euclidean_metric(rng, labels(5))
    assert emd(lam, lam, metric).cost == pytest.approx(0.0, abs=1e-12)


def test_emd_all_two_by_two_instances():
    # dense sweep over both marginals; must match the segment-endpoint
    # closed form to 1e-12
    ground = ("a", "b")
    cost = np.array([[0.0, 1.0], [2.5, 0.0]])
    metric = GroundMetric(ground, cost)
    grid = np.linspace(0.02, 0.98, 25)
    for p in grid:
        lam = FiniteDistribution(ground, np.array([p, 1.0 - p]))
        for q in grid:
            mu = FiniteDistribution(ground, np.array([q, 1.0 - q]))
            want = two_by_two_emd(p, q, cost)
            assert emd(lam, mu, metric).cost == pytest.approx(want, abs=1e-12)


def test_emd_matches_lp_solver(rng):
    for _ in range(60):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(2, 8))
        lam = rand_dist(rng, labels(m, "a"))
        mu = rand_dist(rng, labels(n, "b"))
        cost = rng.random((m, n)) * 3.0
        union = GroundMetric(
            labels(m, "a") + labels(n, "b"),
            np.block([
                [np.zeros((m, m)), cost],
                [cost.T, np.zeros((n, n))],
            ]),
        )
        got = emd(lam, mu, union)
        want = linprog_cost(lam.probs, mu.probs, cost)
        assert got.cost == pytest.approx(want, abs=1e-9)
        assert validate_coupling(got.coupling, lam, mu)


def test_emd_optimality_certificate(rng):
    # dual feasibility plus complementary slackness on the returned basis
    for _ in range(20):
        k = int(rng.integers(2, 7))
        lam = rand_dist(rng, labels(k))
        mu = rand_dist(rng, labels(k))
        metric = euclidean_metric(rng, labels(k))
        got = emd(lam, mu, metric)
        cost = metric.cost
        u, v = dual_potentials(got.basis, cost)
        reduced = cost - u[:, None] - v[None, :]
        assert reduced.min() >= -1e-9
        support = got.coupling.mass > 1e-12
        assert np.all(np.abs(reduced[support]) <= 1e-9)


def test_emd_requires_metric_covering_grounds():
    with pytest.raises(GroundMismatchError):
        emd(LAM, MU, GroundMetric.line(("1", "2")))


def test_emd_deterministic(rng):
    lam = rand_dist(rng, labels(6))
    mu = rand_dist(rng, labels(6))
    metric = euclidean_metric(rng, labels(6))
    first = emd(lam, mu, metric)
    second = emd(lam, mu, metric)
    np.testing.assert_array_equal(first.coupling.mass, second.coupling.mass)
    assert first.basis == second.basis


@pytest.mark.parametrize("shape, basis, message", [
    # too few cells for a spanning tree
    ((2, 2), {(0, 0)}, "not a spanning tree"),
    # five cells, but a 4-cycle on rows 1-2 and columns 0-1 leaves row 0
    # cut off from the rest
    ((3, 3), {(1, 0), (1, 1), (2, 0), (2, 1), (1, 2)}, "not a spanning tree"),
    # four cells that close a cycle through row 0
    ((2, 3), {(0, 0), (0, 1), (1, 0), (1, 1)}, "has a cycle"),
])
def test_dual_potentials_reject_a_basis_that_is_not_a_tree(shape, basis,
                                                          message):
    with pytest.raises(SolverNonconvergenceError, match=message):
        dual_potentials(basis, np.ones(shape))


# ---------------------------------------------------------------------------
# other orders


def test_wasserstein_p_rejects_bad_order():
    with pytest.raises(ValidationError):
        wasserstein_p(LAM, MU, LINE3, p=0.5)
    with pytest.raises(ValidationError):
        wasserstein_p(LAM, MU, LINE3, p=math.inf)


@pytest.mark.parametrize("p", ["inf", "abc", math.nan, "0.5"])
def test_wasserstein_p_refuses_malformed_orders_cleanly(p):
    with pytest.raises(ValidationError, match="order p must be finite"):
        wasserstein_p(LAM, MU, LINE3, p=p)


def test_wasserstein_p_matches_emd_at_one():
    assert wasserstein_p(LAM, MU, LINE3, p=1.0).cost == pytest.approx(
        emd(LAM, MU, LINE3).cost
    )


# lam = [.5, .3, .2] and mu = [.2, .3, .5] on a line of spacing h: the
# monotone coupling, optimal at every order p >= 1, ships 0.3 one step
# twice, so W_p = 0.6 ** (1 / p) * h.
def skewed_line_pair(positions):
    ground = labels(3)
    return (FiniteDistribution(ground, [0.5, 0.3, 0.2]),
            FiniteDistribution(ground, [0.2, 0.3, 0.5]),
            GroundMetric.line(ground, positions))


@pytest.mark.parametrize("p, h", [(2.0, 1e-7), (100.0, 1e-3)])
def test_wasserstein_p_pivots_on_costs_far_below_one(p, h):
    # every powered cost lies below 1e-12, the reduced-cost tolerance at
    # unit costs, so the start plan is optimal only to that absolute bound
    lam, mu, metric = skewed_line_pair([0.0, h, 2.0 * h])
    got = wasserstein_p(lam, mu, metric, p)
    assert got.pivots > 0
    assert got.cost == pytest.approx(0.6 ** (1.0 / p) * h, rel=1e-9)


@pytest.mark.parametrize("p, positions", [(800.0, [0.0, 1.5, 3.0]),
                                          (200.0, [0.0, 1e-3, 2e-3])])
def test_costs_that_power_past_the_float_range_are_refused(p, positions):
    # 3 ** 800 overflows and 1e-3 ** 200 underflows: the distance would
    # read NaN, or 0 between distinct distributions
    lam, mu, metric = skewed_line_pair(positions)
    ends = [point_distribution("x0", lam.ground),
            point_distribution("x2", lam.ground)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="float range"):
            wasserstein_p(lam, mu, metric, p)
        with pytest.raises(ValidationError, match="float range"):
            transport._pair_distances(ends, np.array([0]), np.array([1]),
                                      metric, p)


def test_wasserstein_monotone_in_order(rng):
    for _ in range(20):
        k = int(rng.integers(2, 6))
        lam = rand_dist(rng, labels(k))
        mu = rand_dist(rng, labels(k))
        metric = euclidean_metric(rng, labels(k))
        values = [wasserstein_p(lam, mu, metric, p).cost for p in (1.0, 2.0, 4.0)]
        winf = wasserstein_inf(lam, mu, metric).cost
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-9
        assert values[-1] <= winf + 1e-9
        assert winf <= diameter(lam, mu, metric) + 1e-12


def test_wasserstein_inf_reference():
    got = wasserstein_inf(LAM, MU, LINE3)
    assert got.cost == pytest.approx(1.0, abs=1e-12)
    assert validate_coupling(got.coupling, LAM, MU)
    support_costs = LINE3.cost[got.coupling.mass > 1e-12]
    assert support_costs.max() == pytest.approx(got.cost)


def test_wasserstein_inf_matches_threshold_oracle(rng):
    for _ in range(30):
        k = int(rng.integers(2, 6))
        lam = rand_dist(rng, labels(k))
        mu = rand_dist(rng, labels(k))
        metric = euclidean_metric(rng, labels(k))
        got = wasserstein_inf(lam, mu, metric).cost
        feasible = [
            t
            for t in np.unique(metric.cost)
            if linprog_feasible(lam.probs, mu.probs, metric.cost <= t + 1e-12)
        ]
        assert got == pytest.approx(min(feasible), abs=1e-9)


def test_diameter_point_masses():
    a = point_distribution("1", GROUND3)
    c = point_distribution("3", GROUND3)
    assert diameter(a, c, LINE3) == 2.0
    assert wasserstein_inf(a, c, LINE3).cost == 2.0


# ---------------------------------------------------------------------------
# submodularity


def test_line_metrics_are_submodular():
    assert is_submodular(GroundMetric.line(labels(6)))
    assert is_submodular(GroundMetric.line(labels(4), positions=[0, 0.1, 5, 9]))


def test_submodular_brute_force(rng):
    def brute(metric):
        c = metric.cost
        n = c.shape[0]
        for i0 in range(n):
            for i1 in range(i0 + 1, n):
                for j0 in range(n):
                    for j1 in range(j0 + 1, n):
                        if c[i0, j0] + c[i1, j1] > c[i1, j0] + c[i0, j1] + 1e-9:
                            return False
        return True

    hits = 0
    for _ in range(30):
        k = int(rng.integers(3, 6))
        metric = shuffled_line_metric(rng, labels(k))
        got = is_submodular(metric)
        assert got == brute(metric)
        hits += not got
    assert hits > 0, "shuffled metrics never exercised the negative branch"


# ---------------------------------------------------------------------------
# lifted relation membership


def test_lifted_member_against_lp_feasibility(rng):
    ground = labels(4)
    for _ in range(40):
        phi = rand_relation(rng, ground, int(rng.integers(2, 9)), include_self=True)
        lam0 = rand_dist(rng, ground)
        lam1 = rand_dist(rng, ground)
        mask = np.zeros((4, 4), dtype=bool)
        idx = {x: i for i, x in enumerate(ground)}
        for a, b in phi:
            mask[idx[a], idx[b]] = True
        assert lifted_member(phi, lam0, lam1) == linprog_feasible(
            lam0.probs, lam1.probs, mask
        )


def test_lifted_member_constructed_pairs(rng):
    ground = labels(5)
    for _ in range(20):
        phi = rand_relation(rng, ground, 7, include_self=True)
        lam0, lam1, witness = phi_member_pair(rng, phi, ground)
        assert lifted_member(phi, lam0, lam1)
        assert validate_coupling(witness, lam0, lam1)


def test_lifted_member_trivial_cases():
    full = PointRelation.full(GROUND3, include_self=True)
    assert lifted_member(full, LAM, MU)
    ident = PointRelation([(x, x) for x in GROUND3])
    assert lifted_member(ident, LAM, LAM)
    assert not lifted_member(ident, LAM, MU)
    only = PointRelation([("1", "2")])
    assert lifted_member(
        only, point_distribution("1", GROUND3), point_distribution("2", GROUND3)
    )


def test_lifted_w1_member(rng):
    ground = labels(5)
    metric = GroundMetric.line(ground)
    for _ in range(20):
        phi, lam0, lam1 = w1_member_pair(rng, ground)
        assert lifted_w1_member(phi, lam0, lam1, metric)


def test_lifted_w1_member_rejects_detours():
    ground = ("a", "b")
    metric = GroundMetric.line(ground)
    lam = uniform_distribution(ground)
    # only the swap arcs are allowed; the optimal coupling of (lam, lam)
    # is the diagonal, which phi excludes
    phi = PointRelation([("a", "b"), ("b", "a")])
    assert lifted_member(phi, lam, lam)
    assert not lifted_w1_member(phi, lam, lam, metric)


def test_lifted_member_rejects_a_relation_outside_the_grounds():
    with pytest.raises(EmptyRelationError, match="relation has no pairs"):
        lifted_member(PointRelation([]), LAM, MU)
    with pytest.raises(UnknownLabelError, match="'4' not in left ground"):
        lifted_member(PointRelation([("1", "2"), ("4", "1")]), LAM, MU)
    with pytest.raises(UnknownLabelError, match="'4' not in right ground"):
        lifted_member(PointRelation([("1", "2"), ("1", "4")]), LAM, MU)


# ---------------------------------------------------------------------------
# misc


def test_coupling_cost_matches_result():
    got = emd(LAM, MU, LINE3)
    assert coupling_cost(got.coupling, LINE3) == pytest.approx(got.cost)


def test_cost_block_of_the_metric_ground_is_the_metric_cost(rng):
    metric = euclidean_metric(rng, labels(5))
    block = _cost_block(metric, metric.ground, tuple(metric.ground))
    assert block is metric.cost
    assert not block.flags.writeable


def test_cost_block_of_other_grounds_is_a_gathered_copy(rng):
    metric = euclidean_metric(rng, labels(5))
    ground = metric.ground
    for rows, cols in [(ground[::-1], ground), (ground, ground[1:]),
                       (ground[:2], ground[3:])]:
        block = _cost_block(metric, rows, cols)
        assert block is not metric.cost
        assert not np.shares_memory(block, metric.cost)
        np.testing.assert_array_equal(
            block, [[metric.distance(a, b) for b in cols] for a in rows])


def test_cost_block_rejects_an_unknown_label(rng):
    metric = euclidean_metric(rng, labels(5))
    with pytest.raises(GroundMismatchError, match="does not cover"):
        _cost_block(metric, metric.ground, (*metric.ground[:4], "y"))


# ---------------------------------------------------------------------------
# solver counters


def test_counters_repeat_exactly(rng):
    ground = labels(12)
    lam = rand_dist(rng, ground)
    mu = rand_dist(rng, ground)
    metric = euclidean_metric(rng, ground)
    for solve in (emd, wasserstein_inf):
        first = solve(lam, mu, metric)
        second = solve(lam, mu, metric)
        counts = (first.pivots, first.degenerate_pivots, first.search_steps)
        assert counts == (second.pivots, second.degenerate_pivots,
                          second.search_steps)
        assert first.pivots > 0
    assert first.search_steps >= 1


def test_pivot_budget_arithmetic():
    assert _pivot_budget(1, 1) == 1000 + 50 * 4
    assert _pivot_budget(16, 16) == 52_200
    assert _pivot_budget(200, 200) == 8_001_000
    assert _pivot_budget(3, 5) == _pivot_budget(5, 3) == 4_200


def test_pivot_budget_exhausted_raises(monkeypatch):
    # this cold 16-point Euclidean solve takes 7 pivots (the "emd" case of
    # tests/test_solver_pins.py); with a budget of two the loop runs out
    # before it reaches the optimum
    rng = np.random.default_rng(16)
    ground = labels(16)
    metric = euclidean_metric(rng, ground)
    lam, mu = rand_dist(rng, ground), rand_dist(rng, ground)
    assert emd(lam, mu, metric).pivots == 7
    monkeypatch.setattr(transport, "_pivot_budget", lambda m, n: 2)
    with pytest.raises(SolverNonconvergenceError,
                       match=r"^pivot budget exhausted on a 16x16 instance$"):
        emd(lam, mu, metric)


def test_bland_fallback_on_tie_heavy_instance():
    # discrete metric, uniform marginals, the right ground shuffled: an
    # assignment problem whose pivots are almost all degenerate; on these
    # seeds a run of degenerate pivots exceeds m + n, so Bland's rule
    # takes over until mass moves again. The least-cost start is already
    # optimal here, so the solve starts from the north-west corner.
    n = 30
    ground = labels(n)
    metric = GroundMetric.discrete(ground)
    lam = uniform_distribution(ground)
    for seed in (0, 1):
        order = np.random.default_rng(seed).permutation(n)
        mu = uniform_distribution(tuple(ground[i] for i in order))
        cost = metric.submatrix(lam.ground, mu.ground)
        got = _simplex(lam.probs, mu.probs, cost,
                       warm=_northwest(lam.probs, mu.probs))
        assert got.degenerate_pivots > 0
        assert got.pivots > got.degenerate_pivots
        assert float(np.sum(cost * got.mass)) == pytest.approx(
            linprog_cost(lam.probs, mu.probs, cost), abs=1e-12
        )
        assert validate_coupling(Coupling(lam.ground, mu.ground, got.mass),
                                 lam, mu)


# ---------------------------------------------------------------------------
# least-cost start and the bottleneck bracket


def sliver_marginals():
    """Marginals with entries near TAU_MASS and totals off by almost it."""
    supply = np.array([1.0 - 3e-9, 1e-9, 2e-9])
    demand = np.array([0.5e-9, 0.5 - 0.5e-9, 0.5 - 0.9e-9])
    return supply, demand


def least_cost_cases():
    rng = np.random.default_rng(7)
    cases = []
    for m, n in ((5, 9), (9, 5), (1, 7), (7, 1), (1, 1), (12, 12)):
        cases.append((rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n)),
                      rng.random((m, n))))
    supply = rng.dirichlet(np.ones(8))
    supply[[1, 4]] = 0.0
    demand = rng.dirichlet(np.ones(6))
    demand[[0, 5]] = 0.0
    cases.append((supply / supply.sum(), demand / demand.sum(),
                  rng.random((8, 6))))
    cases.append((np.full(6, 1 / 6), rng.dirichlet(np.ones(4)), np.ones((6, 4))))
    cases.append((*sliver_marginals(), rng.random((3, 3))))
    cases.append((*sliver_marginals(), np.zeros((3, 3))))
    return cases


@pytest.mark.parametrize("supply, demand, cost", least_cost_cases())
def test_least_cost_start_is_a_basic_coupling(supply, demand, cost):
    m, n = cost.shape
    mass, basis = _least_cost(supply, demand, cost)
    # raises unless a spanning tree
    _tree([i * n + j for i, j in basis], cost.ravel().tolist(), m, n)
    assert len(set(basis)) == m + n - 1
    off = np.ones((m, n), dtype=bool)
    off[tuple(np.array(basis).T)] = False
    assert np.all(mass[off] == 0.0)
    assert np.all(mass >= 0.0)
    assert np.all(np.abs(mass.sum(axis=1) - supply) <= TAU_MASS)
    assert np.all(np.abs(mass.sum(axis=0) - demand) <= TAU_MASS)


def test_least_cost_start_fills_cheapest_cells_first():
    cost = np.array([[3.0, 1.0], [2.0, 4.0]])
    mass, basis = _least_cost(np.array([0.5, 0.5]), np.array([0.5, 0.5]), cost)
    assert mass.tolist() == [[0.0, 0.5], [0.5, 0.0]]
    # the tie at (0, 1) closes row 0 and leaves column 1 open; the last
    # open row and column meet on a zero-mass basic cell
    assert basis == [(0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("n", [16, 40, 60])
def test_least_cost_start_needs_no_more_pivots_than_northwest(n):
    rng = np.random.default_rng(n)
    ground = labels(n)
    lam = rand_dist(rng, ground)
    mu = rand_dist(rng, ground)
    cost = euclidean_metric(rng, ground).cost
    cold = _simplex(lam.probs, mu.probs, cost)
    staircase = _simplex(lam.probs, mu.probs, cost,
                         warm=_northwest(lam.probs, mu.probs))
    assert cold.pivots <= staircase.pivots
    assert abs(np.sum(cost * cold.mass) - np.sum(cost * staircase.mass)) <= 1e-12
    again = _simplex(lam.probs, mu.probs, cost)
    assert (again.pivots, again.degenerate_pivots) == (cold.pivots,
                                                        cold.degenerate_pivots)


def full_range_bisection(lam, mu, metric):
    """The bottleneck search before the least-cost bracket: a phase-1 solve
    at the largest cost, from the north-west corner, then bisection over
    every distinct cost, each test warm from the last feasible plan."""
    cost = metric.submatrix(lam.ground, mu.ground)
    values = np.unique(cost)
    lo, hi = 0, values.size - 1
    ok, plan = _feasible_on(lam.probs, mu.probs, cost <= values[hi],
                            warm=_northwest(lam.probs, mu.probs))
    assert ok
    while lo < hi:
        mid = (lo + hi) // 2
        ok_mid, trial = _feasible_on(
            lam.probs, mu.probs, cost <= values[mid], warm=(plan.mass, plan.basis)
        )
        if ok_mid:
            hi = mid
            plan = trial
        else:
            lo = mid + 1
    mass = _clamped(plan.mass, cost <= values[hi])
    support = mass > TAU_ZERO
    return float(cost[support].max()) if np.any(support) else 0.0


@given(st.integers(2, 14), st.integers(0, 2), st.integers(0, 4),
       st.integers(0, 10**6))
def test_wasserstein_inf_equals_full_range_bisection(n, family, zeros, seed):
    rng = np.random.default_rng(seed)
    ground = labels(n)
    if family == 0:
        metric = euclidean_metric(rng, ground)
    elif family == 1:
        metric = shuffled_line_metric(rng, ground)
    else:
        metric = GroundMetric.discrete(ground)
    if family == 2 and seed % 2:
        # uniform against a shuffled multinomial: ties everywhere
        lam = uniform_distribution(ground)
        mu = FiniteDistribution(ground, rng.multinomial(n, np.ones(n) / n) / n)
    else:
        lam = rand_dist(rng, ground, zeros=zeros)
        mu = rand_dist(rng, ground, zeros=zeros)
    got = wasserstein_inf(lam, mu, metric)
    assert got.cost == full_range_bisection(lam, mu, metric)
    assert validate_coupling(got.coupling, lam, mu)


def test_wasserstein_inf_needs_no_search_when_the_start_is_optimal():
    ground = labels(10)
    lam = rand_dist(np.random.default_rng(3), ground)
    got = wasserstein_inf(lam, lam, GroundMetric.discrete(ground))
    assert got.cost == 0.0
    assert (got.pivots, got.search_steps) == (0, 0)
    assert np.array_equal(got.coupling.mass, np.diag(lam.probs))


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
    union = GroundMetric(
        lam.ground + mu.ground,
        np.block([[np.zeros((m, m)), cost], [cost.T, np.zeros((n, n))]]),
    )
    return lam, mu, union


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2),
       st.integers(0, 3),
       st.sampled_from([None, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0]),
       st.integers(0, 10**6))
def test_hall_floor_and_cuts_stay_at_or_below_the_answer(m, n, family, zeros,
                                                         sliver, seed):
    lam, mu, metric = bottleneck_instance(m, n, family, zeros, sliver, seed)
    bounds = []

    def spy(*args):
        bounds.append(_hall_index(*args))
        return bounds[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "_hall_index", spy)
        got = wasserstein_inf(lam, mu, metric)
    answer = full_range_bisection(lam, mu, metric)
    values = np.unique(metric.submatrix(lam.ground, mu.ground))
    assert max(bounds) <= int(np.searchsorted(values, answer))
    assert got.cost == answer
    assert validate_coupling(got.coupling, lam, mu)


# Each has a row holding exactly TAU_MASS. The first twelve raised
# ValidationError from the Coupling check, or returned a coupling whose
# marginals missed by more than TAU_MASS, when a threshold that strands
# that row passed phase 1; the last three made the verdict at such a
# threshold depend on the warm start's rounding of the plan's total.
SLIVER_INSTANCES = [
    (4, 1, 0, 1, 1.0, 117), (12, 8, 0, 3, 1.0, 651418), (8, 1, 0, 0, 1.0, 288156),
    (8, 5, 0, 1, 1.0, 409939), (9, 4, 0, 2, 1.0, 433353), (10, 1, 0, 1, 1.0, 152577),
    (7, 2, 2, 0, 1.0, 617079), (5, 1, 2, 1, 1.0, 78262), (7, 3, 2, 2, 1.0, 802838),
    (6, 9, 2, 3, 1.0, 809789), (6, 6, 1, 3, 1.0, 830242), (4, 5, 0, 3, 1.0, 284331),
    (11, 5, 2, 2, 1.0, 6), (8, 5, 0, 3, 1.0, 436865), (3, 5, 2, 3, 1.0, 852109),
]


@pytest.mark.parametrize("instance", SLIVER_INSTANCES)
def test_wasserstein_inf_on_a_stranded_sliver_row(instance):
    lam, mu, metric = bottleneck_instance(*instance)
    got = wasserstein_inf(lam, mu, metric)
    assert got.cost == full_range_bisection(lam, mu, metric)
    assert validate_coupling(got.coupling, lam, mu)
    # the sliver row is served: no accepted threshold strands it
    sliver = int(np.flatnonzero(lam.probs == TAU_MASS)[0])
    assert got.coupling.mass[sliver].sum() > 0.0


def mass_hexes(spec) -> list[str]:
    """Every float of a spec, each as float.hex: the target, then per
    entry the estimate and the coupling."""
    values = spec.target.probs.tolist()
    for entry in spec.entries:
        values += entry.approx_input.probs.tolist()
        values += entry.coupling.mass.ravel().tolist()
    return [float.hex(x) for x in values]


@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2),
       st.integers(0, 3), st.integers(0, 10**6))
def test_solver_plans_pass_the_checks_they_skip(m, n, family, zeros, seed):
    """A solver's coupling is not validated again; each one passes what
    that would check. ``Coupling`` accepts the read-only plan and stores
    the same bytes, its marginals are the inputs', and a spec built from
    solver couplings equals one that ``CouplingMechanismSpec`` checks in
    full. Rectangular grounds, with zero-mass labels when ``zeros``."""
    lam, mu, metric = bottleneck_instance(m, n, family, zeros, None, seed)
    for plan in (emd(lam, mu, metric).coupling,
                 wasserstein_p(lam, mu, metric, p=2).coupling,
                 wasserstein_inf(lam, mu, metric).coupling,
                 northwest_corner(lam, mu)):
        assert not plan.mass.flags.writeable
        again = Coupling(plan.rows, plan.cols, plan.mass)
        assert again.mass.tobytes() == plan.mass.tobytes()
        assert validate_coupling(plan, lam, mu)
    other = rand_dist(np.random.default_rng(seed), lam.ground, zeros=zeros)
    for mode in (MODE_OPTIMAL, MODE_NORTHWEST):
        spec = build_coupling_mechanism(mu, {"s0": lam, "s1": other}, mode,
                                        metric=metric)
        checked = CouplingMechanismSpec(spec.target, tuple(
            CouplingEntry(e.s, e.approx_input,
                          Coupling(e.coupling.rows, e.coupling.cols,
                                   e.coupling.mass))
            for e in spec.entries), spec.fallback)
        assert mass_hexes(checked) == mass_hexes(spec)


def test_solver_plans_keep_an_off_mass_check():
    # marginals loaded at a looser tolerance than a coupling's: the plan
    # holds their mass, so building it still fails as a Coupling would
    ground = ("a", "b", "c")
    lam = FiniteDistribution(ground, [0.5, 0.3, 0.2 - 1e-7], tau_mass=1e-6)
    mu = FiniteDistribution(ground, [0.2, 0.3, 0.5], tau_mass=1e-6)
    metric = GroundMetric.line(ground)
    for solve in (emd, wasserstein_inf):
        with pytest.raises(ValidationError, match="outside tolerance"):
            solve(lam, mu, metric)
    with pytest.raises(ValidationError, match="outside tolerance"):
        northwest_corner(lam, mu)


def test_cut_without_forbidden_flow_moves_one_index():
    # every row ships on allowed arcs only, so the residual search starts
    # from no row and finds no Hall set
    cost = np.array([[0.0, 2.0, 3.0], [3.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    values = np.unique(cost)
    supply = np.array([0.3, 0.2, 0.5])
    demand = np.array([0.6, 0.2, 0.2])
    allowed = cost <= values[0]
    mass = np.diag([0.3, 0.2, 0.2])
    assert _cut(values, cost, supply, demand, allowed, mass, 0, TAU_MASS) == 1
    # with row 2's surplus on a forbidden arc, the Hall set {2} lifts the
    # bracket past cost 2, where it reaches only 0.4 of demand, to cost 3
    mass[2, 0] = 0.3
    assert _cut(values, cost, supply, demand, allowed, mass, 0, TAU_MASS) == 2


def test_wasserstein_inf_search_on_euclidean_workload_grounds():
    # 16-point Euclidean grounds drawn as the xdistp_euclid benchmark draws
    # them (seeds 11, 41, 7401; 24 grounds each; its W-inf pair is the
    # fifth and sixth distribution drawn). A bisection below the least-cost
    # bracket took 428 steps and 3,210 phase-1 pivots here.
    steps = pivots = 0
    ground = labels(16, "p")
    for seed in (11, 41, 7401):
        for g in range(24):
            rng = np.random.default_rng([seed, g])
            points = rng.random((16, 2))
            metric = GroundMetric(ground, np.sqrt(
                ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)))
            lam, mu = [FiniteDistribution(ground, rng.dirichlet(np.ones(16)))
                       for _ in range(6)][4:]
            got = wasserstein_inf(lam, mu, metric)
            assert got.cost == full_range_bisection(lam, mu, metric)
            steps += got.search_steps
            pivots += got.pivots
    assert steps <= 160
    assert pivots <= 1200


# ---------------------------------------------------------------------------
# oracle checks at realistic sizes


@pytest.mark.parametrize("n", [16, 40, 60])
def test_emd_matches_lp_euclidean_ladder(n):
    rng = np.random.default_rng(n)
    ground = labels(n)
    lam = rand_dist(rng, ground)
    mu = rand_dist(rng, ground)
    metric = euclidean_metric(rng, ground)
    got = emd(lam, mu, metric)
    assert abs(got.cost - linprog_cost(lam.probs, mu.probs, metric.cost)) <= 1e-12
    assert_dual_certificate(got, metric.cost)
    assert validate_coupling(got.coupling, lam, mu)


def test_emd_matches_lp_rectangular_and_zero_rows(rng):
    for m, n, zeros in ((25, 40, 0), (40, 25, 0), (30, 30, 8), (20, 35, 6)):
        probs = rng.dirichlet(np.ones(m))
        probs[rng.choice(m, size=zeros, replace=False)] = 0.0
        lam = FiniteDistribution(labels(m, "a"), probs / probs.sum())
        mu = rand_dist(rng, labels(n, "b"))
        cost = rng.random((m, n)) * 3.0
        union = GroundMetric(
            lam.ground + mu.ground,
            np.block([[np.zeros((m, m)), cost], [cost.T, np.zeros((n, n))]]),
        )
        got = emd(lam, mu, union)
        assert abs(got.cost - linprog_cost(lam.probs, mu.probs, cost)) <= 1e-12
        assert_dual_certificate(got, cost)
        assert validate_coupling(got.coupling, lam, mu)
        assert np.all(got.coupling.mass[lam.probs == 0.0] == 0.0)


def test_emd_matches_lp_discrete_metric_uniform_marginals(rng):
    for n in (20, 40):
        ground = labels(n)
        metric = GroundMetric.discrete(ground)
        lam = uniform_distribution(ground)
        mu = FiniteDistribution(ground, rng.multinomial(n, np.ones(n) / n) / n)
        got = emd(lam, mu, metric)
        want = linprog_cost(lam.probs, mu.probs, metric.cost)
        assert abs(got.cost - want) <= 1e-12
        assert_dual_certificate(got, metric.cost)
        assert got.cost == pytest.approx(0.5 * np.abs(lam.probs - mu.probs).sum())


def test_wasserstein_inf_matches_threshold_search_at_size(rng):
    for n in (15, 25):
        ground = labels(n)
        lam = rand_dist(rng, ground)
        mu = rand_dist(rng, ground)
        metric = euclidean_metric(rng, ground)
        got = wasserstein_inf(lam, mu, metric)
        values = np.unique(metric.cost)
        lo, hi = 0, values.size - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if linprog_feasible(lam.probs, mu.probs, metric.cost <= values[mid]):
                hi = mid
            else:
                lo = mid + 1
        assert got.cost == values[hi]
        # the least-cost start ships above the answer, so a search was needed
        start, _ = _least_cost(lam.probs, mu.probs, metric.cost)
        assert metric.cost[start > 0.0].max() > got.cost
        assert got.search_steps >= 1
        assert validate_coupling(got.coupling, lam, mu)


def test_lifted_w1_member_matches_lp_gap(rng):
    ground = labels(12)
    metric = euclidean_metric(rng, ground)
    verdicts = set()
    for _ in range(12):
        lam0 = rand_dist(rng, ground)
        lam1 = rand_dist(rng, ground)
        mask = metric.cost <= rng.uniform(0.3, 0.8)
        phi = PointRelation(
            (ground[i], ground[j]) for i, j in zip(*np.nonzero(mask))
        )
        got = lifted_w1_member(phi, lam0, lam1, metric)
        if not linprog_feasible(lam0.probs, lam1.probs, mask):
            assert not got
            continue
        restricted = linprog_cost(lam0.probs, lam1.probs, metric.cost, mask)
        free = linprog_cost(lam0.probs, lam1.probs, metric.cost)
        assert got == (restricted <= free + 1e-9)
        verdicts.add(got)
    assert verdicts == {True, False}


def cold_w1_member(phi, lam0, lam1, metric) -> bool:
    """The membership rule with a cold phase 1, as it was before phase 1
    started at the least-cost plan: phase 1 from its own least-cost fill
    of the 0/1 costs, then the restricted and free optima as now."""
    mask = _relation_mask(phi, lam0, lam1)
    ok, plan = _feasible_on(lam0.probs, lam1.probs, mask)
    if not ok:
        return False
    cost = _cost_block(metric, lam0.ground, lam1.ground)
    inside = _simplex(lam0.probs, lam1.probs, cost, allowed=mask,
                      warm=(_clamped(plan.mass, mask), plan.basis))
    free = _simplex(lam0.probs, lam1.probs, cost,
                    warm=(inside.mass, inside.basis))
    return (float(np.sum(cost * inside.mass))
            <= float(np.sum(cost * free.mass)) + TAU_NUM)


def membership_instance(rng, family):
    """(phi, lam0, lam1, metric) of 4 to 14 labels.

    ``euclidean``: random points and marginals. ``discrete``: the discrete
    metric, uniform against a multinomial, so optimal plans tie. ``zeros``:
    Euclidean with zero-mass labels on both sides, which phi leaves out.
    Half the relations hold an optimal plan's support plus random arcs,
    so that both verdicts occur; the rest are radius or random relations.
    """
    n = int(rng.integers(4, 15))
    ground = labels(n)
    zeros = n // 4 if family == "zeros" else 0
    if family == "discrete":
        metric = GroundMetric.discrete(ground)
        lam0 = uniform_distribution(ground)
        lam1 = FiniteDistribution(ground,
                                  rng.multinomial(n, np.ones(n) / n) / n)
    else:
        metric = euclidean_metric(rng, ground)
        lam0 = rand_dist(rng, ground, zeros=zeros)
        lam1 = rand_dist(rng, ground, zeros=zeros)
    if rng.random() < 0.5:
        mask = emd(lam0, lam1, metric).coupling.mass > 0.0
        mask |= rng.random((n, n)) < 0.3
    elif family == "discrete":
        mask = rng.random((n, n)) < 0.5
    else:
        mask = metric.cost <= rng.uniform(0.3, 0.8)
    if family == "zeros":
        mask &= (lam0.probs > 0.0)[:, None] & (lam1.probs > 0.0)[None, :]
    phi = PointRelation((ground[i], ground[j]) for i, j in zip(*np.nonzero(mask)))
    return phi, lam0, lam1, metric


@pytest.mark.parametrize("family", ["euclidean", "discrete", "zeros"])
def test_lifted_w1_member_matches_the_cold_phase_one_rule(family):
    rng = np.random.default_rng(["euclidean", "discrete", "zeros"].index(family))
    verdicts = []
    for _ in range(60):
        phi, lam0, lam1, metric = membership_instance(rng, family)
        got = lifted_w1_member(phi, lam0, lam1, metric)
        assert got == cold_w1_member(phi, lam0, lam1, metric)
        verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts)
