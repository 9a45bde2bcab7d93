"""Discrete optimal transport over finite grounds.

The solver is a transportation simplex: the north-west corner rule builds
the initial basis, potentials (MODI) price the nonbasic cells, and Bland's
rule picks pivots so degenerate instances cannot cycle. Degenerate basic
cells carry an explicit zero mass. A bounded-variable variant fixes a set
of forbidden arcs at zero, which gives feasibility tests and restricted
optima for relation-constrained couplings without big-M costs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import InitVar, dataclass

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
        mass = np.array(self.mass, dtype=float)
        if mass.shape != (len(rows), len(cols)):
            raise DimensionMismatchError(
                f"coupling shape {mass.shape} does not match "
                f"({len(rows)}, {len(cols)})"
            )
        if not np.all(np.isfinite(mass)):
            raise ValidationError("coupling entries must be finite")
        if np.any(mass < -TAU_ZERO):
            raise ValidationError(f"coupling has negative entry {mass.min():g}")
        np.clip(mass, 0.0, None, out=mass)
        total = float(mass.sum())
        if abs(total - 1.0) > tau_mass:
            raise ValidationError(f"mass {total:g} outside tolerance (coupling)")
        mass.setflags(write=False)
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
    simplex basis (cell indices, for diagnostics and dual certificates)."""

    coupling: Coupling
    cost: float
    basis: frozenset[tuple[int, int]]


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
    # Float drift can strand a sliver of mass; fold it into the largest cell.
    defect = 0.5 * (float(supply.sum()) + float(demand.sum())) - float(mass.sum())
    if defect != 0.0:
        k = np.unravel_index(int(np.argmax(mass)), mass.shape)
        mass[k] += defect
    return mass, basis


def _adjacency(basis, m, n):
    rows_adj: list[list[int]] = [[] for _ in range(m)]
    cols_adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in basis:
        rows_adj[i].append(j)
        cols_adj[j].append(i)
    return rows_adj, cols_adj


def _potentials(rows_adj, cols_adj, cost):
    """Solve u[i] + v[j] = cost[i, j] on the basis tree, anchored at u[0]=0."""
    m, n = cost.shape
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    stack: list[tuple[bool, int]] = [(True, 0)]
    while stack:
        is_row, k = stack.pop()
        if is_row:
            for j in rows_adj[k]:
                if np.isnan(v[j]):
                    v[j] = cost[k, j] - u[k]
                    stack.append((False, j))
        else:
            for i in cols_adj[k]:
                if np.isnan(u[i]):
                    u[i] = cost[i, k] - v[k]
                    stack.append((True, i))
    if np.any(np.isnan(u)) or np.any(np.isnan(v)):
        raise SolverNonconvergenceError("simplex basis is not a spanning tree")
    return u, v


def _cycle_edges(rows_adj, cols_adj, ei: int, ej: int):
    """Path of basic cells from row node ``ei`` to column node ``ej``."""
    start = (True, ei)
    goal = (False, ej)
    parent: dict = {}
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        is_row, k = node
        if is_row:
            nxt_nodes = ((False, j) for j in rows_adj[k])
        else:
            nxt_nodes = ((True, i) for i in cols_adj[k])
        for nxt in nxt_nodes:
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = node
                queue.append(nxt)
    if goal not in parent:
        raise SolverNonconvergenceError("entering cell closes no basis cycle")
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    edges = []
    for a, b in zip(path, path[1:]):
        i = a[1] if a[0] else b[1]
        j = b[1] if a[0] else a[1]
        edges.append((i, j))
    return edges


def _simplex(supply, demand, cost, allowed=None, warm=None):
    """Minimize sum(cost * mass) over couplings of (supply, demand).

    ``allowed`` (a boolean mask) fixes the complementary arcs at zero:
    they can never enter the basis and any basic one is capped at zero
    mass, so pivots treat it as a leaving candidate whenever it sits on
    the gaining side of the cycle. ``warm`` restarts from a previous
    (mass, basis) pair, which phase-2 solves use.
    """
    m, n = cost.shape
    if warm is None:
        mass, basis_list = _northwest(supply, demand)
        basis = set(basis_list)
    else:
        mass, basis = warm
        basis = set(basis)
    basic = np.zeros((m, n), dtype=bool)
    for c in basis:
        basic[c] = True

    max_pivots = 1000 + 50 * (m + n) ** 2
    for _ in range(max_pivots):
        rows_adj, cols_adj = _adjacency(basis, m, n)
        u, v = _potentials(rows_adj, cols_adj, cost)
        reduced = cost - u[:, None] - v[None, :]
        candidates = (reduced < -REDUCED_COST_TOL) & ~basic
        if allowed is not None:
            candidates &= allowed
        spots = np.argwhere(candidates)
        if spots.size == 0:
            return mass, basis, u, v
        ei, ej = int(spots[0][0]), int(spots[0][1])  # Bland: first cell row-major

        edges = _cycle_edges(rows_adj, cols_adj, ei, ej)
        plus = [(ei, ej)] + [edges[t] for t in range(1, len(edges), 2)]
        minus = [edges[t] for t in range(0, len(edges), 2)]

        blocked = []
        if allowed is not None:
            blocked = [c for c in plus[1:] if not allowed[c]]
        theta = 0.0 if blocked else min(mass[c] for c in minus)
        pool = [c for c in minus if mass[c] <= theta]
        if blocked:
            pool.extend(blocked)
        leaving = min(pool)  # Bland: least index among bound-hitting cells

        if theta != 0.0:
            for c in plus:
                mass[c] += theta
            for c in minus:
                mass[c] = max(mass[c] - theta, 0.0)
        mass[leaving] = 0.0
        basis.discard(leaving)
        basic[leaving] = False
        basis.add((ei, ej))
        basic[ei, ej] = True
    raise SolverNonconvergenceError(
        f"pivot budget exhausted on a {m}x{n} instance"
    )


def _feasible_on(supply, demand, allowed):
    """Phase 1: minimal mass outside ``allowed`` under 0/1 costs.

    Feasible iff that minimum is at most TAU_MASS (full unit of flow fits
    inside the allowed arcs); the returned plan has the stray dust clamped
    off the forbidden arcs.
    """
    cost01 = np.where(allowed, 0.0, 1.0)
    mass, basis, _, _ = _simplex(supply, demand, cost01)
    violation = float(mass[~allowed].sum())
    if violation > TAU_MASS:
        return False, None, None
    if violation != 0.0:
        mass[~allowed] = 0.0
    return True, mass, basis


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
    mass, basis, _, _ = _simplex(lam.probs, mu.probs, cost)
    value = float(np.sum(cost * mass))
    return TransportResult(Coupling(lam.ground, mu.ground, mass), value, frozenset(basis))


def wasserstein_p(
    lam: FiniteDistribution,
    mu: FiniteDistribution,
    metric: GroundMetric,
    p: float = 1.0,
) -> TransportResult:
    """p-Wasserstein distance: minimal (sum of cost^p)^(1/p) over couplings."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ValidationError(f"order p must be finite and >= 1, got {p!r}")
    cost = _cost_block(metric, lam.ground, mu.ground)
    powered = cost if p == 1.0 else cost**p
    mass, basis, _, _ = _simplex(lam.probs, mu.probs, powered)
    raw = float(np.sum(powered * mass))
    value = raw if p == 1.0 else raw ** (1.0 / p)
    return TransportResult(Coupling(lam.ground, mu.ground, mass), value, frozenset(basis))


def wasserstein_inf(
    lam: FiniteDistribution, mu: FiniteDistribution, metric: GroundMetric
) -> TransportResult:
    """Bottleneck distance: minimal worst cost on the support of a coupling.

    Binary search over the distinct cost values, with a feasibility test
    restricted to arcs at or below the candidate threshold.
    """
    cost = _cost_block(metric, lam.ground, mu.ground)
    values = np.unique(cost)
    lo, hi = 0, values.size - 1
    ok, mass, basis = _feasible_on(lam.probs, mu.probs, cost <= values[hi])
    if not ok:
        raise SolverNonconvergenceError("transport polytope is empty")
    while lo < hi:
        mid = (lo + hi) // 2
        ok_mid, mass_mid, basis_mid = _feasible_on(
            lam.probs, mu.probs, cost <= values[mid]
        )
        if ok_mid:
            hi = mid
            mass, basis = mass_mid, basis_mid
        else:
            lo = mid + 1
    support = mass > TAU_ZERO
    value = float(cost[support].max()) if np.any(support) else 0.0
    return TransportResult(Coupling(lam.ground, mu.ground, mass), value, frozenset(basis))


def _wasserstein_cost(lam, mu, metric, order: float | str) -> float:
    """Wasserstein distance at order "1", "inf", math.inf or a number p >= 1."""
    if order == "inf" or order == math.inf:
        return wasserstein_inf(lam, mu, metric).cost
    return wasserstein_p(lam, mu, metric, p=float(order)).cost


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
    ok, _, _ = _feasible_on(lam0.probs, lam1.probs, mask)
    return ok


def lifted_w1_member(
    phi: PointRelation,
    lam0: FiniteDistribution,
    lam1: FiniteDistribution,
    metric: GroundMetric,
) -> bool:
    """True iff some cost-minimal coupling of the pair lives inside ``phi``.

    Equivalent test: the phi-restricted transport problem is feasible and
    its optimum matches the unrestricted one within TAU_NUM.
    """
    mask = _relation_mask(phi, lam0, lam1)
    ok, mass, basis = _feasible_on(lam0.probs, lam1.probs, mask)
    if not ok:
        return False
    cost = _cost_block(metric, lam0.ground, lam1.ground)
    mass2, _, _, _ = _simplex(
        lam0.probs, lam1.probs, cost, allowed=mask, warm=(mass, basis)
    )
    restricted = float(np.sum(cost * mass2))
    unrestricted = emd(lam0, lam1, metric).cost
    return restricted <= unrestricted + TAU_NUM


def dual_potentials(
    basis: frozenset[tuple[int, int]] | set, cost: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Recover the dual prices (u, v) from a basis, anchored at u[0] = 0.

    For an optimal basis these satisfy u[i] + v[j] <= cost[i, j] everywhere
    with equality on basic cells, the optimality certificate for emd.
    """
    m, n = cost.shape
    rows_adj, cols_adj = _adjacency(basis, m, n)
    return _potentials(rows_adj, cols_adj, cost)


def coupling_cost(coupling: Coupling, metric: GroundMetric) -> float:
    """Expected cost of a given coupling under a metric."""
    cost = _cost_block(metric, coupling.rows, coupling.cols)
    return float(np.sum(cost * coupling.mass))
