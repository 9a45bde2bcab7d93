"""Discrete optimal transport over finite grounds.

The solver is a transportation simplex in network form. A cold solve
starts from the least-cost (matrix-minimum) basis: cells are filled in
ascending cost order, ties in row-major order, and each filled cell closes
one row or column, so the start is a spanning tree over the row and column
nodes; degenerate basic cells carry an explicit zero mass. Potentials
(MODI) price the nonbasic cells, and the most negative reduced cost enters
(Dantzig). A run of more than m + n degenerate pivots switches to Bland's
rule until mass moves again, so degenerate instances cannot cycle. The
tree keeps parent and depth arrays: the pivot cycle is the two paths up to
a common ancestor, and only the subtree that a pivot cuts off is hung
again and re-priced. The north-west corner rule is kept only for
``northwest_corner``, which the ``"northwest"`` coupling-mechanism mode uses.

A bounded-variable variant fixes a set of forbidden arcs at zero, which
gives feasibility tests and restricted optima for relation-constrained
couplings without big-M costs. Solves that differ only in costs or
forbidden arcs continue from an earlier basis: the bottleneck search
across thresholds, and the restricted then unrestricted optimum of a
lifted-relation membership test.

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
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyRelationError,
    GroundMismatchError,
    SolverNonconvergenceError,
    UnknownLabelError,
    ValidationError,
)
from .finite_prob import (
    FiniteDistribution,
    GroundMetric,
    PointRelation,
    _checked_array,
    _clean_ground,
)
from .tolerances import TAU_MASS, TAU_NUM, TAU_ZERO

# Reduced costs above -REDUCED_COST_TOL are treated as optimal.
REDUCED_COST_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Coupling:
    """A joint distribution whose marginals couple two ground sets."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    mass: np.ndarray
    tau_mass: InitVar[float] = TAU_MASS

    def __post_init__(self, tau_mass: float) -> None:
        rows = _clean_ground(self.rows)
        cols = _clean_ground(self.cols)
        mass = _checked_array(self.mass, (len(rows), len(cols)), "coupling", tau_mass)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "mass", mass)

    def row_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    def support(self, tau_zero: float = TAU_ZERO) -> tuple[tuple[str, str], ...]:
        cells = np.argwhere(self.mass > tau_zero)
        return tuple((self.rows[i], self.cols[j]) for i, j in cells)

    def __repr__(self) -> str:
        return f"Coupling({len(self.rows)}x{len(self.cols)})"


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


def validate_coupling(
    coupling: Coupling,
    lam: FiniteDistribution,
    mu: FiniteDistribution,
    tau_mass: float = TAU_MASS,
) -> bool:
    """True iff the coupling's marginals match ``lam`` and ``mu`` entrywise.

    Label sequences must agree exactly (an ordering mismatch is a hard
    error, not a False, because it almost always signals a wiring bug).
    """
    if coupling.rows != lam.ground or coupling.cols != mu.ground:
        raise DimensionMismatchError(
            "coupling labels do not match the marginal grounds"
        )
    rows_ok = np.all(np.abs(coupling.row_marginal() - lam.probs) <= tau_mass)
    cols_ok = np.all(np.abs(coupling.col_marginal() - mu.probs) <= tau_mass)
    return bool(rows_ok and cols_ok)


def _northwest(supply: np.ndarray, demand: np.ndarray):
    """Greedy staircase fill; returns (mass, basis) with m+n-1 basic cells."""
    m, n = supply.size, demand.size
    mass = np.zeros((m, n))
    basis: list[tuple[int, int]] = []
    i = j = 0
    rr = float(supply[0])
    rc = float(demand[0])
    while True:
        t = rr if rr <= rc else rc
        mass[i, j] = t
        basis.append((i, j))
        rr -= t
        rc -= t
        if i == m - 1 and j == n - 1:
            break
        # Ties close the row first, leaving a zero-mass basic cell below;
        # at the last column the row must advance regardless.
        if (rr == 0.0 and i < m - 1) or j == n - 1:
            i += 1
            rr = float(supply[i])
        else:
            j += 1
            rc = float(demand[j])
    _fold_defect(mass, supply, demand)
    return mass, basis


def _least_cost(supply: np.ndarray, demand: np.ndarray, cost: np.ndarray):
    """Matrix-minimum fill; returns (mass, basis) with m+n-1 basic cells.

    Cells are taken in ascending cost order, ties in row-major order. Each
    taken cell ships as much as its row and column still hold and closes
    one of the two lines, so every line but the last row and column closes
    on exactly one basic cell and the cells form a spanning tree. As in
    ``_northwest``, a tie closes the row, leaving the column open for a
    zero-mass basic cell, and the last open row or column never closes
    before the other kind's last line.
    """
    m, n = cost.shape
    mass = np.zeros((m, n))
    basis: list[tuple[int, int]] = []
    rr = supply.tolist()
    rc = demand.tolist()
    row_open = [True] * m
    col_open = [True] * n
    rows_left, cols_left = m, n
    order = np.divmod(np.argsort(cost, axis=None, kind="stable"), n)
    for i, j in zip(order[0].tolist(), order[1].tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        t = rr[i] if rr[i] <= rc[j] else rc[j]
        mass[i, j] = t
        basis.append((i, j))
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
    _fold_defect(mass, supply, demand)
    return mass, basis


def _fold_defect(mass: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> None:
    """Float drift can strand a sliver of mass; fold it into the largest cell."""
    defect = 0.5 * (float(supply.sum()) + float(demand.sum())) - float(mass.sum())
    if defect != 0.0:
        k = np.unravel_index(int(np.argmax(mass)), mass.shape)
        mass[k] += defect


def _tree(basis, cl, m: int, n: int):
    """Root the basis tree at row 0: adjacency, parents, depths and the
    potentials u[i] + v[j] = cost[i, j] on basic cells, anchored at u[0] = 0.

    Nodes 0..m-1 are rows and m..m+n-1 columns; ``cl`` is the cost matrix
    as nested lists. Potentials come back as one list, rows first.
    """
    if len(basis) != m + n - 1:
        raise SolverNonconvergenceError("simplex basis is not a spanning tree")
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    pot = [0.0] * (m + n)
    reached = 1
    for child in adj[0]:
        reached += _hang(adj, parent, depth, pot, cl, m, child, 0)
    if reached != m + n:
        raise SolverNonconvergenceError("simplex basis is not a spanning tree")
    return adj, parent, depth, pot


def _hang(adj, parent, depth, pot, cl, m: int, top: int, above: int) -> int:
    """Hang the subtree at ``top`` below node ``above``; return its size.

    Each node's potential is computed from its parent's along the tree
    edge, so an updated subtree carries the same values as a rebuild.
    More nodes than the tree holds means the edges close a cycle.
    """
    size = 0
    stack = [(top, above)]
    while stack:
        a, pa = stack.pop()
        size += 1
        if size > len(parent):
            raise SolverNonconvergenceError("simplex basis has a cycle")
        parent[a] = pa
        depth[a] = depth[pa] + 1
        pot[a] = (cl[a][pa - m] if a < m else cl[pa][a - m]) - pot[pa]
        for b in adj[a]:
            if b != pa:
                stack.append((b, a))
    return size


class _Plan(NamedTuple):
    """A basic optimal plan and the pivots that reached it."""

    mass: np.ndarray
    basis: set[tuple[int, int]]
    pivots: int
    degenerate_pivots: int


def _simplex(supply, demand, cost, allowed=None, warm=None) -> _Plan:
    """Minimize sum(cost * mass) over couplings of (supply, demand).

    ``allowed`` (a boolean mask) fixes the complementary arcs at zero:
    they can never enter the basis and any basic one is capped at zero
    mass, so pivots treat it as a leaving candidate whenever it sits on
    the gaining side of the cycle. ``warm`` restarts from a previous
    (mass, basis) pair; any basis stays primal-feasible when only the
    costs or the mask change, so phase-2 solves and W-inf thresholds
    continue from an earlier plan.

    The most negative reduced cost enters (Dantzig), the first minimum in
    row-major order. After more than m + n degenerate pivots in a row the
    first negative cell in row-major order enters instead (Bland) until a
    pivot moves mass again: every non-degenerate pivot lowers the
    objective and Bland's rule cannot cycle, so the loop terminates.
    """
    m, n = cost.shape
    mass, basis = _least_cost(supply, demand, cost) if warm is None else warm
    flow = mass.tolist()
    basis = set(basis)
    cl = cost.tolist()
    al = None if allowed is None else allowed.tolist()
    adj, parent, depth, pot = _tree(basis, cl, m, n)
    # the cost with +inf on the cells that may not enter: basic or forbidden
    priced = cost.copy() if allowed is None else np.where(allowed, cost, np.inf)
    for c in basis:
        priced[c] = np.inf
    reduced = np.empty((m, n))

    pivots = degenerate = run = 0
    max_pivots = 1000 + 50 * (m + n) ** 2
    while pivots < max_pivots:
        uv = np.array(pot)
        np.subtract(priced, uv[:m, None], out=reduced)
        np.subtract(reduced, uv[m:], out=reduced)
        if run > m + n:
            k = int(np.argmax(reduced < -REDUCED_COST_TOL))
        else:
            k = int(reduced.argmin())
        if not reduced.item(k) < -REDUCED_COST_TOL:
            return _Plan(np.array(flow), basis, pivots, degenerate)
        ei, ej = divmod(k, n)

        # The cycle closes through the tree paths from row ei and column ej
        # up to their common ancestor. A tree edge is named by its lower
        # node; edges at even steps from either end lose mass. Each entry
        # is (cell, lower node, whether the node is on row ei's path).
        a, b = ei, m + ej
        side_a: list[int] = []
        side_b: list[int] = []
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
        minus = []
        plus = []
        for on_a, side in ((True, side_a), (False, side_b)):
            for t, x in enumerate(side):
                cell = (x, parent[x] - m) if x < m else (parent[x], x - m)
                (plus if t & 1 else minus).append((cell, x, on_a))

        blocked = []
        if al is not None:
            blocked = [e for e in plus if not al[e[0][0]][e[0][1]]]
        theta = 0.0 if blocked else min(flow[i][j] for (i, j), _, _ in minus)
        pool = [e for e in minus if flow[e[0][0]][e[0][1]] <= theta]
        pool.extend(blocked)
        # the least cell index among those that hit their bound leaves
        (li, lj), low, low_on_a = min(pool)

        if theta != 0.0:
            flow[ei][ej] += theta
            for (i, j), _, _ in plus:
                flow[i][j] += theta
            for (i, j), _, _ in minus:
                flow[i][j] = max(flow[i][j] - theta, 0.0)
            run = 0
        else:
            degenerate += 1
            run += 1
        flow[li][lj] = 0.0
        pivots += 1

        basis.discard((li, lj))
        basis.add((ei, ej))
        priced[li, lj] = cl[li][lj] if al is None or al[li][lj] else np.inf
        priced[ei, ej] = np.inf
        high = parent[low]
        adj[low].remove(high)
        adj[high].remove(low)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        # Removing the leaving edge cuts off the subtree below it; the
        # entering edge hangs it again from whichever end lies outside,
        # as _hang does.
        stack = [(ei, m + ej) if low_on_a else (m + ej, ei)]
        while stack:
            a, pa = stack.pop()
            parent[a] = pa
            depth[a] = depth[pa] + 1
            pot[a] = (cl[a][pa - m] if a < m else cl[pa][a - m]) - pot[pa]
            for b in adj[a]:
                if b != pa:
                    stack.append((b, a))
    raise SolverNonconvergenceError(
        f"pivot budget exhausted on a {m}x{n} instance"
    )


def _feasible_on(supply, demand, allowed, warm=None):
    """Phase 1: minimal mass outside ``allowed`` under 0/1 costs.

    Feasible iff that minimum is at most TAU_MASS (a full unit of flow
    fits inside the allowed arcs). Returns the verdict and the phase-1
    plan, whose stray dust on forbidden arcs ``_clamped`` removes.
    """
    plan = _simplex(supply, demand, np.where(allowed, 0.0, 1.0), warm=warm)
    return float(plan.mass[~allowed].sum()) <= TAU_MASS, plan


def _clamped(mass: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """The plan with the dust on forbidden arcs set to zero."""
    return np.where(allowed, mass, 0.0)


def _cost_block(metric: GroundMetric, rows, cols) -> np.ndarray:
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
    return Coupling(lam.ground, mu.ground, mass)


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
    cost = _cost_block(metric, lam.ground, mu.ground)
    plan = _simplex(lam.probs, mu.probs, cost)
    return _result(lam, mu, plan, float(np.sum(cost * plan.mass)))


def wasserstein_p(
    lam: FiniteDistribution,
    mu: FiniteDistribution,
    metric: GroundMetric,
    p: float = 1.0,
) -> TransportResult:
    """p-Wasserstein distance: minimal (sum of cost^p)^(1/p) over couplings."""
    _checked_order(p)
    cost = _cost_block(metric, lam.ground, mu.ground)
    powered = cost if p == 1.0 else cost**p
    plan = _simplex(lam.probs, mu.probs, powered)
    raw = float(np.sum(powered * plan.mass))
    return _result(lam, mu, plan, raw if p == 1.0 else raw ** (1.0 / p))


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
    values = np.unique(cost)
    mass, basis = _least_cost(supply, demand, cost)
    plan = best = _Plan(mass, set(basis), 0, 0)
    # Hall's sums and phase 1's sum of forbidden mass each round by up to
    # about one ulp of the unit mass per cell; the slack keeps a bound from
    # passing a threshold whose shortfall lies within rounding of TAU_MASS.
    tol = TAU_MASS + cost.size * 2.0**-52
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
        Coupling(lam.ground, mu.ground, mass), value, frozenset(best.basis),
        pivots, degenerate, steps,
    )


def _hall_index(values, reach, need, demand) -> int:
    """Index in ``values`` of the least threshold at which every set with
    ``need > 0`` reaches that much ``demand``; 0 when none has a need.

    Row k of ``reach`` holds the cost at which set k reaches each column
    (its cheapest arc there). Below that index some set's reachable demand
    falls short of its need, so no coupling fits (Hall's condition).
    """
    live = need > 0.0
    if not live.any():
        return 0
    reach, need = reach[live], need[live]
    order = np.argsort(reach, axis=1, kind="stable")
    covered = np.cumsum(demand[order], axis=1) >= need[:, None]
    # a set that no threshold covers keeps its cheapest cost, still a bound
    first = covered.argmax(axis=1)
    least = np.take_along_axis(reach, order, axis=1)[np.arange(first.size), first]
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


def _result(lam, mu, plan: _Plan, value: float) -> TransportResult:
    return TransportResult(
        Coupling(lam.ground, mu.ground, plan.mass), value, frozenset(plan.basis),
        plan.pivots, plan.degenerate_pivots,
    )


def _checked_order(p: float) -> float:
    if not (math.isfinite(p) and p >= 1.0):
        raise ValidationError(f"order p must be finite and >= 1, got {p!r}")
    return p


def _order(order: float | str) -> float:
    """The order "1", "inf", math.inf or a number p >= 1, as a float."""
    if order == "inf" or order == math.inf:
        return math.inf
    return _checked_order(float(order))


def _wasserstein_cost(lam, mu, metric, order: float | str) -> float:
    """Wasserstein distance at order "1", "inf", math.inf or a number p >= 1."""
    p = _order(order)
    if p == math.inf:
        return wasserstein_inf(lam, mu, metric).cost
    return wasserstein_p(lam, mu, metric, p=p).cost


def _atom(dist: FiniteDistribution) -> int | None:
    """The index of the one label carrying all of ``dist``'s mass (exactly
    1, every other entry exactly 0), or None."""
    nonzero = np.flatnonzero(dist.probs)
    if len(nonzero) == 1 and dist.probs[nonzero[0]] == 1.0:
        return int(nonzero[0])
    return None


def _pair_distances(dists, left, right, metric, order: float | str) -> np.ndarray:
    """Wasserstein distance at ``order`` (as ``_wasserstein_cost`` takes it)
    from ``dists[left[i]]`` to ``dists[right[i]]``, for every i.

    Each distinct ordered pair is computed once, in order of first use.
    W(mu, lam) is not reused for W(lam, mu): the simplex on the transposed
    problem can differ in the last bit. Two point masses delta_a and delta_b
    have one coupling, delta_a x delta_b, which every solve ships on with
    exact 0/1 flows; so their distance takes no solve and is read off the
    cost block with the float operations that end the solver path:
    cost[a, b] at orders 1 and inf, (cost[a, b] ** p) ** (1 / p) at p.
    """
    p = _order(order)
    plain = p in (1.0, math.inf)
    atoms = [_atom(dist) for dist in dists]
    pairs = list(zip(left.tolist(), right.tolist()))
    blocks: dict = {}
    known: dict = {}
    for i, j in dict.fromkeys(pairs):
        lam, mu = dists[i], dists[j]
        a, b = atoms[i], atoms[j]
        if a is None or b is None:
            known[i, j] = _wasserstein_cost(lam, mu, metric, p)
            continue
        grounds = (lam.ground, mu.ground)
        if grounds not in blocks:
            cost = _cost_block(metric, *grounds)
            blocks[grounds] = cost if plain else cost**p
        value = float(blocks[grounds][a, b])
        known[i, j] = value if plain else value ** (1.0 / p)
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
    its optimum matches the unrestricted one within TAU_NUM. The restricted
    optimum continues from the phase-1 plan, and the unrestricted one from
    the restricted optimum.
    """
    mask = _relation_mask(phi, lam0, lam1)
    ok, plan = _feasible_on(lam0.probs, lam1.probs, mask)
    if not ok:
        return False
    cost = _cost_block(metric, lam0.ground, lam1.ground)
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
    pot = _tree(basis, cost.tolist(), m, n)[3]
    return np.array(pot[:m]), np.array(pot[m:])


def coupling_cost(coupling: Coupling, metric: GroundMetric) -> float:
    """Expected cost of a given coupling under a metric."""
    cost = _cost_block(metric, coupling.rows, coupling.cols)
    return float(np.sum(cost * coupling.mass))
