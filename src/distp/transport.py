"""Discrete optimal transport over finite grounds.

The solver is a transportation simplex in network form. A cold solve
starts from the least-cost (matrix-minimum) basis: cells are filled in
ascending cost order, ties in row-major order, and each filled cell closes
one row or column, so the start is a spanning tree over the row and column
nodes; degenerate basic cells carry an explicit zero mass. Potentials
(MODI) price the nonbasic cells, and the most negative reduced cost enters
(Dantzig). A run of more than m + n degenerate pivots switches to Bland's
rule until mass moves again, so degenerate instances cannot cycle. The
state is flat: flows, costs and priced costs are indexed by cell i*n + j,
and each tree node keeps the cell of the edge to its parent beside its
parent and depth, so the tree's edge cells are the basis. The pivot cycle
is the two paths up to a common ancestor, and only the subtree that a
pivot cuts off is hung again and re-priced. The north-west corner rule of
``northwest_corner`` (the ``"northwest"`` coupling-mechanism mode) is the
same fill on the staircase costs i + j. Plans are ``finite_prob.Coupling``
tables; this module runs only where one or a distance is solved.

A bounded-variable variant fixes a set of forbidden arcs at zero, which
gives feasibility tests and restricted optima for relation-constrained
couplings without big-M costs. Solves that differ only in costs or
forbidden arcs continue from an earlier basis: the bottleneck search
across thresholds, and a lifted-relation membership test, whose phase 1
starts at the least-cost plan of the real costs and whose restricted then
unrestricted optima follow it.

The bottleneck search brackets its answer before any solve. From above:
the least-cost start is an exact coupling, so the largest cost it ships on
is feasible. From below: Hall's condition (Gale's supply-demand theorem)
says each row must reach columns whose demand covers its supply, and each
column rows whose supply covers its demand. The search then tests its
lower bracket with phase 1. A failed test leaves a residual graph whose
rows reachable from the stranded mass form a Hall certificate, a set of
rows whose reachable demand falls short, and the bracket rises to the
least threshold at which that set fits. The first feasible test is the
answer: Garfinkel and Rao's threshold method for bottleneck transport,
with Hall cuts in place of bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyRelationError,
    GroundMismatchError,
    SolverNonconvergenceError,
    UnknownLabelError,
    ValidationError,
)
from .finite_prob import (
    Coupling,
    FiniteDistribution,
    GroundMetric,
    PointRelation,
)
from .tolerances import TAU_MASS, TAU_NUM, TAU_ZERO

# Reduced costs above -REDUCED_COST_TOL * (largest cost, or 1) are optimal.
REDUCED_COST_TOL = 1e-12


@dataclass(frozen=True)
class TransportResult:
    """An optimal plan: the coupling, its objective value, and the final
    simplex basis (cell indices, for diagnostics and dual certificates).

    The counters are deterministic: ``pivots`` and ``degenerate_pivots``
    (pivots that moved no mass) count simplex steps, summed over the
    ``search_steps`` phase-1 solves of a bottleneck search.
    """

    coupling: Coupling
    cost: float
    basis: frozenset[tuple[int, int]]
    pivots: int = 0
    degenerate_pivots: int = 0
    search_steps: int = 0


def _northwest(supply: np.ndarray, demand: np.ndarray):
    """The staircase start: the least-cost fill on the costs i + j.

    In that order the cheapest open cell is always the north-west corner of
    the open block, so the fill walks the staircase of the north-west
    corner rule, with its tie and last-line rules.
    """
    return _least_cost(supply, demand,
                       np.add.outer(np.arange(supply.size), np.arange(demand.size)))


def _least_cost(supply: np.ndarray, demand: np.ndarray, cost: np.ndarray):
    """The least-cost fill as a plan: (mass, basis) with m+n-1 basic cells."""
    m, n = cost.shape
    flow, cells = _fill(supply, demand, cost)
    return np.array(flow).reshape(m, n), [divmod(c, n) for c in cells]


def _fill(supply: np.ndarray, demand: np.ndarray, cost: np.ndarray):
    """Matrix-minimum fill as flat state: the flow of every cell i*n + j,
    and the m+n-1 basic cells in the order they were filled.

    Cells are taken in ascending cost order, ties in row-major order. Each
    taken cell ships as much as its row and column still hold and closes
    one of the two lines, so every line but the last row and column closes
    on exactly one basic cell and the cells form a spanning tree. A tie
    closes the row, leaving the column open for a zero-mass basic cell, and
    the last open row or column never closes before the other kind's last
    line. ``_northwest`` is this fill on staircase costs.
    """
    m, n = cost.shape
    flow = [0.0] * (m * n)
    cells: list[int] = []
    rr = supply.tolist()
    rc = demand.tolist()
    row_open = [True] * m
    col_open = [True] * n
    rows_left, cols_left = m, n
    for c in np.argsort(cost, axis=None, kind="stable").tolist():
        i = c // n
        j = c - i * n
        if not (row_open[i] and col_open[j]):
            continue
        t = rr[i] if rr[i] <= rc[j] else rc[j]
        flow[c] = t
        cells.append(c)
        rr[i] -= t
        rc[j] -= t
        if rows_left == 1 and cols_left == 1:
            break
        if (rr[i] == 0.0 and rows_left > 1) or cols_left == 1:
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
    _fold_defect(flow, cells, supply, demand)
    return flow, cells


def _fold_defect(flow: list, cells: list, supply: np.ndarray,
                 demand: np.ndarray) -> None:
    """Float drift can strand a sliver of mass; fold it into the largest cell.

    The total is numpy's sum over all m*n cells, nonbasic zeros included,
    so that it rounds as the sum of the plan's mass array does.
    """
    mass = np.zeros(len(flow))
    mass[cells] = [flow[c] for c in cells]
    defect = 0.5 * (float(supply.sum()) + float(demand.sum())) - float(mass.sum())
    if defect != 0.0:
        flow[int(np.argmax(mass))] += defect


def _tree(cells, cl, m: int, n: int):
    """Root the basis tree at row 0: adjacency, parents, depths, edge cells
    and the potentials u[i] + v[j] = cost[i, j] on basic cells, anchored at
    u[0] = 0.

    Nodes 0..m-1 are rows and m..m+n-1 columns; ``cells`` are the basic
    cells and ``cl`` the cost matrix as one flat list, cell (i, j) at
    i*n + j. ``adj[a]`` lists (neighbour, cell) pairs and ``edge[a]`` is
    the cell from node a to its parent. Potentials come back as one list,
    rows first.
    """
    if len(cells) != m + n - 1:
        raise SolverNonconvergenceError("simplex basis is not a spanning tree")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(m + n)]
    for c in cells:
        i, j = divmod(c, n)
        adj[i].append((m + j, c))
        adj[m + j].append((i, c))
    tree = adj, [-1] * (m + n), [0] * (m + n), [-1] * (m + n), [0.0] * (m + n)
    reached = 1
    for child, cell in adj[0]:
        reached += _hang(tree, cl, child, 0, cell)
    if reached != m + n:
        raise SolverNonconvergenceError("simplex basis is not a spanning tree")
    return tree


def _hang(tree, cl, top: int, above: int, cell: int) -> int:
    """Hang the subtree at ``top`` below ``above`` by edge ``cell``; return its size.

    Each node's potential is computed from its parent's along the tree
    edge, so an updated subtree carries the same values as a rebuild.
    More nodes than the tree holds means the edges close a cycle.
    """
    adj, parent, depth, edge, pot = tree
    parent[top], edge[top] = above, cell
    size, limit = 0, len(parent)
    stack = [top]
    while stack:
        a = stack.pop()
        size += 1
        if size > limit:
            raise SolverNonconvergenceError("simplex basis has a cycle")
        pa = parent[a]
        depth[a] = depth[pa] + 1
        pot[a] = cl[edge[a]] - pot[pa]
        for b, c in adj[a]:
            if b != pa:
                parent[b], edge[b] = a, c
                stack.append(b)
    return size


class _Plan(NamedTuple):
    """A basic optimal plan and the pivots that reached it."""

    mass: np.ndarray
    basis: set[tuple[int, int]]
    pivots: int
    degenerate_pivots: int


def _pivot_budget(m: int, n: int) -> int:
    """The most pivots one solve of an m x n instance may take."""
    return 1000 + 50 * (m + n) ** 2


def _simplex(supply, demand, cost, allowed=None, warm=None) -> _Plan:
    """Minimize sum(cost * mass) over couplings of (supply, demand).

    ``allowed`` (a boolean mask) fixes the complementary arcs at zero:
    they can never enter the basis and any basic one is capped at zero
    mass, so pivots treat it as a leaving candidate whenever it sits on
    the gaining side of the cycle. ``warm`` restarts from a previous
    (mass, basis) pair, its mass on the basis; any basis stays
    primal-feasible when only the costs or the mask change, so phase-2
    solves and W-inf thresholds continue from an earlier plan.

    The most negative reduced cost enters (Dantzig), the first minimum in
    row-major order. After more than m + n degenerate pivots in a row the
    first negative cell in row-major order enters instead (Bland) until a
    pivot moves mass again: every non-degenerate pivot lowers the
    objective and Bland's rule cannot cycle, so the loop terminates.

    The state is flat: flows, costs, the mask and the priced costs are
    indexed by cell i*n + j, and the basis is the set of tree edge cells
    (``_tree``), turned back into (i, j) pairs only for the returned plan.
    A cold solve takes its flows and basic cells from ``_fill`` as they are.
    """
    m, n = cost.shape
    if warm is None:
        flow, cells = _fill(supply, demand, cost)
    else:
        mass, basis = warm
        flow = mass.ravel().tolist()
        cells = [i * n + j for i, j in basis]
    cl = cost.ravel().tolist()
    tol = REDUCED_COST_TOL * (float(cost.max()) or 1.0)
    al = None if allowed is None else allowed.ravel().tolist()
    tree = adj, parent, depth, edge, pot = _tree(cells, cl, m, n)
    # the cost with +inf on the cells that may not enter: basic or forbidden
    priced = (cost if allowed is None else np.where(allowed, cost, np.inf)).flatten()
    priced[edge[1:]] = np.inf
    reduced = np.empty(m * n)
    uv = np.empty(m + n)
    u, v = uv[:m, None], uv[m:]
    priced2, reduced2 = priced.reshape(m, n), reduced.reshape(m, n)

    pivots = degenerate = run = 0
    max_pivots = _pivot_budget(m, n)
    while pivots < max_pivots:
        uv[:] = pot
        np.subtract(priced2, u, out=reduced2)
        np.subtract(reduced2, v, out=reduced2)
        if run > m + n:
            k = int(np.argmax(reduced < -tol))
        else:
            k = int(reduced.argmin())
        if not reduced.item(k) < -tol:
            cells = edge[1:]  # nonbasic cells carry no flow
            mass = np.zeros(m * n)
            mass[cells] = [flow[c] for c in cells]
            return _Plan(mass.reshape(m, n), {divmod(c, n) for c in cells},
                         pivots, degenerate)
        ei, ej = divmod(k, n)

        # The cycle closes through the tree paths from row ei and column ej
        # up to their common ancestor. A tree edge is named by its lower
        # node; edges at even steps from either end lose mass, odd ones gain.
        a, b = ei, m + ej
        side_a, side_b = [], []
        while depth[a] > depth[b]:
            side_a.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            side_b.append(b)
            b = parent[b]
        while a != b:
            side_a.append(a)
            a = parent[a]
            side_b.append(b)
            b = parent[b]
        minus = side_a[::2] + side_b[::2]
        plus = side_a[1::2] + side_b[1::2]

        blocked = [] if al is None else [x for x in plus if not al[edge[x]]]
        theta = 0.0 if blocked else min([flow[edge[x]] for x in minus])
        pool = [x for x in minus if flow[edge[x]] <= theta]
        pool.extend(blocked)
        # the least cell index among those that hit their bound leaves
        low = min(pool, key=edge.__getitem__)
        leave = edge[low]

        if theta != 0.0:
            flow[k] += theta
            for x in plus:
                flow[edge[x]] += theta
            for x in minus:
                c = edge[x]
                flow[c] = max(flow[c] - theta, 0.0)
            run = 0
        else:
            degenerate += 1
            run += 1
        flow[leave] = 0.0
        pivots += 1

        priced[leave] = cl[leave] if al is None or al[leave] else np.inf
        priced[k] = np.inf
        high = parent[low]
        adj[low].remove((high, leave))
        adj[high].remove((low, leave))
        adj[ei].append((m + ej, k))
        adj[m + ej].append((ei, k))
        # Removing the leaving edge cuts off the subtree below it; the
        # entering edge hangs it again from whichever end lies outside.
        top, above = (ei, m + ej) if low in side_a else (m + ej, ei)
        _hang(tree, cl, top, above, k)
    raise SolverNonconvergenceError(
        f"pivot budget exhausted on a {m}x{n} instance"
    )


def _feasible_on(supply, demand, allowed, warm=None):
    """Phase 1: minimal mass outside ``allowed`` under 0/1 costs.

    Feasible iff that stray mass is at most TAU_MASS and the plan that
    ``_clamped`` leaves holds a unit of mass to within TAU_MASS, as a
    ``Coupling`` must; both less the plan's rounding, so that no verdict
    hangs on last bits that differ with the warm start. Returns the
    verdict and the phase-1 plan.
    """
    plan = _simplex(supply, demand, np.where(allowed, 0.0, 1.0), warm=warm)
    stray = float(plan.mass[~allowed].sum())
    kept = float(_clamped(plan.mass, allowed).sum())
    room = TAU_MASS - _rounding(allowed.size)
    return stray <= room and abs(kept - 1.0) <= room, plan


def _rounding(cells: int) -> float:
    """How far a sum over a plan of ``cells`` cells can round: about one
    ulp of the unit mass per cell."""
    return cells * 2.0**-52


def _clamped(mass: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """The plan with the dust on forbidden arcs set to zero."""
    return np.where(allowed, mass, 0.0)


def _cost_block(metric: GroundMetric, rows, cols) -> np.ndarray:
    """The metric's own costs when rows and cols are its ground, else a copy."""
    if rows == metric.ground and cols == metric.ground:
        return metric.cost
    try:
        return metric.submatrix(rows, cols)
    except UnknownLabelError as exc:
        raise GroundMismatchError(
            f"metric does not cover the coupled grounds: {exc}"
        ) from None


def northwest_corner(lam: FiniteDistribution, mu: FiniteDistribution) -> Coupling:
    """The staircase coupling of two distributions, in ground order.

    Optimal for submodular costs when both grounds are listed in the
    cost-compatible order; the caller owns that ordering.
    """
    mass, _ = _northwest(lam.probs, mu.probs)
    return Coupling._solved(lam.ground, mu.ground, mass)


def is_submodular(metric: GroundMetric, tol: float = TAU_NUM) -> bool:
    """Check c[i0,j0] + c[i1,j1] <= c[i1,j0] + c[i0,j1] for all i0<i1, j0<j1."""
    c = metric.cost
    n = c.shape[0]
    for i0 in range(n - 1):
        for i1 in range(i0 + 1, n):
            # The quadruple condition reduces to delta[j0] <= delta[j1] + tol
            # for j0 < j1, where delta = c[i0] - c[i1]; scan with a running max.
            delta = c[i0] - c[i1]
            runmax = np.maximum.accumulate(delta[:-1])
            if np.any(runmax - delta[1:] > tol):
                return False
    return True


def emd(
    lam: FiniteDistribution, mu: FiniteDistribution, metric: GroundMetric
) -> TransportResult:
    """Minimal expected cost over couplings (1-Wasserstein distance)."""
    return wasserstein_p(lam, mu, metric, 1.0)


def wasserstein_p(
    lam: FiniteDistribution,
    mu: FiniteDistribution,
    metric: GroundMetric,
    p: float = 1.0,
) -> TransportResult:
    """p-Wasserstein distance: minimal (sum of cost^p)^(1/p) over couplings."""
    p = _order(p)
    if p == math.inf:
        raise ValidationError(f"order p must be finite and >= 1, got {p!r}")
    powered = _powered(_cost_block(metric, lam.ground, mu.ground), p)
    plan = _simplex(lam.probs, mu.probs, powered)
    return TransportResult(
        Coupling._solved(lam.ground, mu.ground, plan.mass),
        float(np.sum(powered * plan.mass)) ** (1.0 / p),
        frozenset(plan.basis), plan.pivots, plan.degenerate_pivots,
    )


def _powered(cost: np.ndarray, p: float) -> np.ndarray:
    """``cost ** p``, ``cost`` itself at p = 1 (``x ** 1.0`` is x); raises
    where a positive cost powers to 0 or to infinity."""
    if p == 1.0:
        return cost
    with np.errstate(over="ignore"):
        powered = cost**p
    if np.isinf(powered).any() or np.any((powered == 0.0) & (cost > 0.0)):
        raise ValidationError(f"costs to the power {p:g} leave the float range")
    return powered


def wasserstein_inf(
    lam: FiniteDistribution, mu: FiniteDistribution, metric: GroundMetric
) -> TransportResult:
    """Bottleneck distance: minimal worst cost on the support of a coupling.

    The least distinct cost at which a phase-1 test restricted to the arcs
    at or below it ships all but TAU_MASS of the mass. The search is the
    Hall-cut ascent of the module docstring: test the Hall floor, and after
    each failed test rise to the least threshold at which its Hall set
    fits. The least-cost start bounds it from above, and each test
    continues from the last phase-1 plan, feasible or not.
    """
    cost = _cost_block(metric, lam.ground, mu.ground)
    supply, demand = lam.probs, mu.probs
    values = _sorted_distinct(cost)
    mass, basis = _least_cost(supply, demand, cost)
    plan = best = _Plan(mass, set(basis), 0, 0)
    # Hall's sums round too; the slack keeps a bound from passing a
    # threshold whose shortfall lies within rounding of TAU_MASS.
    tol = TAU_MASS + _rounding(cost.size)
    lo = max(_hall_index(values, cost, supply - tol, demand),
             _hall_index(values, cost.T, demand - tol, supply))
    hi = int(np.searchsorted(values, cost[mass > 0.0].max()))
    pivots = degenerate = steps = 0
    while lo < hi:
        allowed = cost <= values[lo]
        ok, plan = _feasible_on(supply, demand, allowed,
                                warm=(plan.mass, plan.basis))
        pivots += plan.pivots
        degenerate += plan.degenerate_pivots
        steps += 1
        if ok:
            hi, best = lo, plan
        else:
            lo = _cut(values, cost, supply, demand, allowed, plan.mass, lo, tol)
    mass = _clamped(best.mass, cost <= values[hi])
    support = mass > TAU_ZERO
    value = float(cost[support].max()) if np.any(support) else 0.0
    return TransportResult(
        Coupling._solved(lam.ground, mu.ground, mass), value,
        frozenset(best.basis), pivots, degenerate, steps,
    )


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a nonempty array, ascending. Not np.unique,
    whose first plain call imports numpy.ma (about 15 ms, numpy 2.4)."""
    values = np.sort(values, axis=None)
    return values[np.append(True, values[1:] != values[:-1])]


def _hall_index(values, reach, need, demand) -> int:
    """Index in ``values`` of the least threshold at which every set with
    ``need > 0`` reaches that much ``demand``; 0 when none has a need.

    Row k of ``reach`` holds the cost at which set k reaches each column
    (its cheapest arc there). Below that index some set's reachable demand
    falls short of its need, so no coupling fits (Hall's condition).
    """
    live = need > 0.0
    if not live.all():
        if not live.any():
            return 0
        reach, need = reach[live], need[live]
    order = np.argsort(reach, axis=1, kind="stable")
    covered = np.cumsum(demand[order], axis=1) >= need[:, None]
    # a set that no threshold covers keeps its cheapest cost, still a bound
    sets = np.arange(need.size)
    least = reach[sets, order[sets, covered.argmax(axis=1)]]
    return int(np.searchsorted(values, least.max()))


def _cut(values, cost, supply, demand, allowed, mass, lo: int, tol: float) -> int:
    """The next lower bracket after an infeasible test at ``values[lo]``.

    S is the set of rows reachable in the residual graph of the phase-1
    plan on the allowed arcs: from the rows that still ship on forbidden
    arcs, along allowed arcs to columns and back along positive allowed
    flow to rows. Hall's condition on S at higher thresholds gives the
    bracket; an empty S gives no cut, and the bracket moves one index.
    """
    rows = ((mass > 0.0) & ~allowed).any(axis=1)
    carried = allowed & (mass > 0.0)
    while rows.any():
        grown = rows | carried[:, allowed[rows].any(axis=0)].any(axis=1)
        if np.array_equal(grown, rows):
            need = np.array([supply[rows].sum() - tol])
            cut = _hall_index(values, cost[rows].min(axis=0)[None], need, demand)
            return max(lo + 1, cut)
        rows = grown
    return lo + 1


def _atom(dist: FiniteDistribution) -> int | None:
    """The index of the one label carrying all of ``dist``'s mass (exactly
    1, every other entry exactly 0), or None."""
    nonzero = np.flatnonzero(dist.probs)
    if len(nonzero) == 1 and dist.probs[nonzero[0]] == 1.0:
        return int(nonzero[0])
    return None


def _wasserstein(
    lam: FiniteDistribution, mu: FiniteDistribution, metric: GroundMetric,
    order: float | str,
) -> TransportResult:
    """The optimal transport of ``lam`` to ``mu`` at ``order``: "1", "inf",
    math.inf or a number p >= 1. The one place that maps an order to its
    solver: ``wasserstein_inf`` at infinity, ``wasserstein_p`` at p."""
    p = _order(order)
    if p == math.inf:
        return wasserstein_inf(lam, mu, metric)
    return wasserstein_p(lam, mu, metric, p=p)


def _order(order: float | str) -> float:
    """The Wasserstein order ``order`` as a float: math.inf for "inf" or
    math.inf, else a number p >= 1 (a numeric string too)."""
    if order in ("inf", math.inf):
        return math.inf
    try:
        p = float(order)
    except (TypeError, ValueError):
        p = math.nan
    if not (math.isfinite(p) and p >= 1.0):
        raise ValidationError(f"order p must be finite and >= 1 (or 'inf'), "
                              f"got {order!r}")
    return p


def _pair_distances(dists, left, right, metric, order: float | str) -> np.ndarray:
    """Wasserstein distance from ``dists[left[i]]`` to ``dists[right[i]]``,
    for every i, at ``order``: "1", "inf", math.inf or a number p >= 1.

    This is the one place that turns an order into a distance, through
    ``_wasserstein``, or with no solve for two point masses. Each
    distinct ordered pair is computed once, in order of first use.
    W(mu, lam) is not reused for W(lam, mu): the simplex on the transposed
    problem can differ in the last bit. Two point masses delta_a and delta_b
    have one coupling, delta_a x delta_b, which every solve ships on with
    exact 0/1 flows; so their distance takes no solve and is read off the
    cost block with the float operations that end the solver path:
    cost[a, b] at order inf, (cost[a, b] ** p) ** (1 / p) at p.
    """
    p = _order(order)
    atoms = [_atom(dist) for dist in dists]
    pairs = list(zip(left.tolist(), right.tolist()))
    blocks: dict = {}
    known: dict = {}
    for i, j in dict.fromkeys(pairs):
        lam, mu = dists[i], dists[j]
        a, b = atoms[i], atoms[j]
        if a is not None and b is not None:
            grounds = (lam.ground, mu.ground)
            if grounds not in blocks:
                cost = _cost_block(metric, *grounds)
                blocks[grounds] = cost if p == math.inf else _powered(cost, p)
            value = float(blocks[grounds][a, b])
            known[i, j] = value if p == math.inf else value ** (1.0 / p)
        else:
            known[i, j] = _wasserstein(lam, mu, metric, p).cost
    return np.array([known[pair] for pair in pairs])


def diameter(
    lam: FiniteDistribution, mu: FiniteDistribution, metric: GroundMetric
) -> float:
    """Largest cost between the supports; an upper bound for every W order."""
    rows = lam.support()
    cols = mu.support()
    if not rows or not cols:
        return 0.0
    return float(_cost_block(metric, rows, cols).max())


def _relation_mask(
    phi: PointRelation, lam0: FiniteDistribution, lam1: FiniteDistribution
) -> np.ndarray:
    if len(phi) == 0:
        raise EmptyRelationError("relation has no pairs")
    row_idx = {x: i for i, x in enumerate(lam0.ground)}
    col_idx = {x: j for j, x in enumerate(lam1.ground)}
    mask = np.zeros((len(lam0.ground), len(lam1.ground)), dtype=bool)
    for a, b in phi:
        if a not in row_idx:
            raise UnknownLabelError(f"relation label {a!r} not in left ground")
        if b not in col_idx:
            raise UnknownLabelError(f"relation label {b!r} not in right ground")
        mask[row_idx[a], col_idx[b]] = True
    return mask


def lifted_member(
    phi: PointRelation, lam0: FiniteDistribution, lam1: FiniteDistribution
) -> bool:
    """True iff some coupling of the pair is supported inside ``phi``."""
    mask = _relation_mask(phi, lam0, lam1)
    return _feasible_on(lam0.probs, lam1.probs, mask)[0]


def lifted_w1_member(
    phi: PointRelation,
    lam0: FiniteDistribution,
    lam1: FiniteDistribution,
    metric: GroundMetric,
) -> bool:
    """True iff some cost-minimal coupling of the pair lives inside ``phi``.

    Equivalent test: the phi-restricted transport problem is feasible and
    its optimum matches the unrestricted one within TAU_NUM. Phase 1
    starts from the least-cost plan of the metric's costs, as the
    bottleneck search does, so the plan it ends on is already cheap; the
    restricted optimum continues from the phase-1 plan, and the
    unrestricted one from the restricted optimum. The metric must cover
    both grounds even when no coupling fits ``phi``.
    """
    mask = _relation_mask(phi, lam0, lam1)
    cost = _cost_block(metric, lam0.ground, lam1.ground)
    ok, plan = _feasible_on(lam0.probs, lam1.probs, mask,
                            warm=_least_cost(lam0.probs, lam1.probs, cost))
    if not ok:
        return False
    inside = _simplex(
        lam0.probs, lam1.probs, cost, allowed=mask,
        warm=(_clamped(plan.mass, mask), plan.basis),
    )
    free = _simplex(lam0.probs, lam1.probs, cost, warm=(inside.mass, inside.basis))
    return float(np.sum(cost * inside.mass)) <= float(np.sum(cost * free.mass)) + TAU_NUM


def dual_potentials(
    basis: frozenset[tuple[int, int]] | set, cost: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Recover the dual prices (u, v) from a basis, anchored at u[0] = 0.

    For an optimal basis these satisfy u[i] + v[j] <= cost[i, j] everywhere
    with equality on basic cells, the optimality certificate for emd.
    """
    m, n = cost.shape
    cells = [i * n + j for i, j in basis]
    pot = _tree(cells, cost.ravel().tolist(), m, n)[4]
    return np.array(pot[:m]), np.array(pot[m:])


def coupling_cost(coupling: Coupling, metric: GroundMetric) -> float:
    """Expected cost of a given coupling under a metric."""
    cost = _cost_block(metric, coupling.rows, coupling.cols)
    return float(np.sum(cost * coupling.mass))
