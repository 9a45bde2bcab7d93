"""Divergences between finite distributions.

Two families are provided:

* f-divergences ``sum over supp(nu) of nu[y] * f(mu[y] / nu[y])`` for a
  convex generator f with f(1) = 0, plus ``mu(Y outside supp(nu)) * f'(inf)``
  (Csiszar's convention, with the recession slope f'(inf) = lim f(t)/t), so
  mass of mu off supp(nu) gives +inf exactly when that slope is +inf;
* the max divergence ``max over y in supp(mu) of ln(mu[y] / nu[y])`` and
  its slack-delta variant, the largest ``ln((mu[R] - delta) / nu[R])``
  over events R inside supp(mu) with mu[R] >= delta.

Natural logarithms throughout. +inf is a legal value, never an exception.

Each divergence has one implementation: a row kernel that evaluates stacked
pairs of distributions block by block. The auditors call it on all their
pairs at once; the scalar functions here are its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GroundMismatchError, InvalidGeneratorError, ValidationError
from .finite_prob import (
    FiniteDistribution,
    PointRelation,
    StochasticKernel,
    _PairPlan,
    _point_plan,
)
from .tolerances import TAU_NUM, TAU_ZERO

INF = math.inf


@dataclass(frozen=True)
class FDivergenceKind:
    """A named f-divergence: a convex generator with f(1) = 0.

    ``generator`` must accept a numpy array of nonnegative ratios and
    return the elementwise values; +inf entries are allowed (for
    generators unbounded at 0). ``slope`` is the recession slope
    f'(inf) = lim f(t)/t, the cost per unit of mass that mu puts where nu
    has none; +inf (the default) makes any such mass give +inf.
    """

    name: str
    generator: Callable[[np.ndarray], np.ndarray]
    slope: float = INF

    def __call__(self, ratios: np.ndarray) -> np.ndarray:
        return self.generator(ratios)

    def __repr__(self) -> str:
        return f"FDivergenceKind({self.name})"


def _gen_kl(t: np.ndarray) -> np.ndarray:
    # t * ln(t), continuously extended with 0 at t = 0
    safe = np.where(t > 0.0, t, 1.0)
    return np.where(t > 0.0, t * np.log(safe), 0.0)


def _gen_rkl(t: np.ndarray) -> np.ndarray:
    # -ln(t), +inf at t = 0
    safe = np.where(t > 0.0, t, 1.0)
    return np.where(t > 0.0, -np.log(safe), INF)


def _gen_tv(t: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(t - 1.0)


def _gen_chi2(t: np.ndarray) -> np.ndarray:
    return (t - 1.0) ** 2


def _gen_hellinger(t: np.ndarray) -> np.ndarray:
    return 0.5 * (np.sqrt(t) - 1.0) ** 2


KL = FDivergenceKind("kl", _gen_kl)
REVERSE_KL = FDivergenceKind("rkl", _gen_rkl, 0.0)
TOTAL_VARIATION = FDivergenceKind("tv", _gen_tv, 0.5)
CHI_SQUARED = FDivergenceKind("chi2", _gen_chi2)
HELLINGER = FDivergenceKind("hellinger", _gen_hellinger, 0.5)

STANDARD_KINDS: tuple[FDivergenceKind, ...] = (
    KL,
    REVERSE_KL,
    TOTAL_VARIATION,
    CHI_SQUARED,
    HELLINGER,
)

KIND_BY_NAME = {kind.name: kind for kind in STANDARD_KINDS}

# Spot-check grid for custom generators: geometric, straddling 1.
_CHECK_GRID = 2.0 ** np.arange(-10, 11)


def custom_kind(name: str, generator: Callable) -> FDivergenceKind:
    """Wrap a user generator after convexity and normalization spot checks.

    The generator is probed at a fixed grid of ratios: f(1) must vanish and
    midpoint convexity must hold on every grid pair. Scalar-only callables
    are vectorized.
    """
    try:
        probe = np.asarray(generator(_CHECK_GRID), dtype=float)
        if probe.shape != _CHECK_GRID.shape:
            raise TypeError
        vec = generator
    except Exception:
        vec = np.vectorize(generator, otypes=[float])
        probe = vec(_CHECK_GRID)
    if not np.all(np.isfinite(probe)):
        raise InvalidGeneratorError(
            f"generator {name!r} is not finite on the check grid"
        )
    one = float(vec(np.array([1.0]))[0])
    if abs(one) > 1e-9:
        raise InvalidGeneratorError(f"generator {name!r} has f(1) = {one:g}, expected 0")
    a = _CHECK_GRID[:, None]
    b = _CHECK_GRID[None, :]
    mid = vec((a + b) / 2.0)
    if np.any(mid > (vec(a) + vec(b)) / 2.0 + 1e-9):
        raise InvalidGeneratorError(f"generator {name!r} fails midpoint convexity")
    return FDivergenceKind(name, vec)


@dataclass(frozen=True)
class MaxDivergence:
    """Descriptor for the max divergence with additive slack ``delta``."""

    delta: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.delta <= 1.0):
            raise ValidationError(f"delta {self.delta:g} outside [0, 1]")

    @property
    def name(self) -> str:
        return "max" if self.delta == 0.0 else f"max(delta={self.delta:g})"


Divergence = FDivergenceKind | MaxDivergence


# The row kernel works through (pairs x |Y|) inputs this many cells at a
# time, which bounds every temporary it allocates whatever the pair count.
# A float block is 32 KiB. glibc hands the top of the heap back to the
# system once more than 128 KiB of it is free (its default trim threshold,
# unless an earlier large allocation raised it); with larger blocks the
# freed temporaries of one block crossed that line, and the next block
# faulted the memory in again (about 12,000 minor faults per 60-point
# audit job at 8,192-cell blocks, about 1 at 4,096).
_BLOCK_CELLS = 1 << 12


def _row_blocks(rows: int, cols: int):
    """Row slices covering ``rows`` rows of ``cols`` cells, block by block."""
    step = max(1, _BLOCK_CELLS // cols)
    return (slice(start, start + step) for start in range(0, rows, step))


def _row_function(divergence: Divergence):
    """The function evaluating ``divergence`` on a block of row pairs."""
    if isinstance(divergence, FDivergenceKind):
        return lambda P, Q: _f_rows(divergence, P, Q)
    if isinstance(divergence, MaxDivergence):
        if divergence.delta == 0.0:
            return _max_rows
        return lambda P, Q: _prefix_rows(P, Q, divergence.delta)
    raise ValidationError(f"unknown divergence descriptor {divergence!r}")


def _blocked_rows(rows, table, left, right) -> np.ndarray:
    """``rows`` applied to rows ``left[i]`` and ``right[i]`` of ``table``, for
    every i. Rows are gathered block by block, so no temporary grows with the
    pair count."""
    out = np.empty(len(left))
    for block in _row_blocks(len(left), table.shape[1]):
        out[block] = rows(table[left[block]], table[right[block]])
    return out


def _both_directions(rows, table, plan: _PairPlan):
    """``rows`` on every pair of ``plan`` in both directions: ``(forward,
    backward)``, entry i evaluated on table rows ``(left[i], right[i])`` and
    ``(right[i], left[i])``. Each distinct ordered pair of table rows is
    evaluated once, so a symmetric relation costs one direction; row
    functions act on each row alone, so the values do not depend on which
    pairs are evaluated together."""
    values = _blocked_rows(rows, table, plan.first, plan.second)[plan.inverse]
    return values[: len(plan.left)], values[len(plan.left):]


def _divergence_rows(divergence, table, left, right) -> np.ndarray:
    """Divergence of row ``left[i]`` of ``table`` from row ``right[i]``, for
    every i, equal bit for bit to the one-row call on that pair."""
    return _blocked_rows(_row_function(divergence), table, left, right)


def _divergence_columns(divergence, table, plan: _PairPlan):
    """``_divergence_rows`` of every pair of ``plan`` forward and backward,
    each distinct ordered row pair evaluated once."""
    return _both_directions(_row_function(divergence), table, plan)


def _f_rows(kind: FDivergenceKind, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    on = Q > TAU_ZERO
    off = (P > TAU_ZERO) & ~on
    lost = np.any(off, axis=1)
    inf = lost & (kind.slope == INF)
    use = on & ~inf[:, None]
    values = np.asarray(kind(P[use] / Q[use]), dtype=float)
    if np.any(np.isnan(values)):
        raise InvalidGeneratorError(
            f"generator {kind.name!r} produced NaN on valid ratios"
        )
    # Pairwise summation groups terms by position: packing each row's terms
    # to the front and summing rows of equal count together groups every
    # sum as ``np.sum`` groups the 1-D array of that row's terms.
    counts = use.sum(axis=1)
    packed = np.zeros(P.shape)
    packed[np.arange(P.shape[1]) < counts[:, None]] = Q[use] * values
    totals = np.empty(len(P))
    for k in np.flatnonzero(np.bincount(counts)):
        rows = counts == k
        totals[rows] = packed[rows, :k].sum(axis=1)
    if np.any(np.isnan(totals)):
        raise InvalidGeneratorError(
            f"generator {kind.name!r} produced values summing to NaN"
        )
    totals[inf] = INF
    if kind.slope < INF and np.any(lost):
        # Mass off supp(Q) costs the recession slope per unit (Csiszar).
        totals[lost] += kind.slope * np.where(off[lost], P[lost], 0.0).sum(axis=1)
    return totals


def _max_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    on = P > TAU_ZERO
    use = on & (Q > TAU_ZERO)
    logs = np.full(P.shape, -INF)
    logs[use] = np.log(P[use] / Q[use])
    return np.where(np.any(on & ~use, axis=1), INF, logs.max(axis=1))


def _support_order(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices sorting each row of ``keys`` ascending, in the stable order
    on the row's first ``counts[i]`` sorted positions.

    Distinct keys have one sorting permutation, so the default sort already
    gives the stable order on them. Only the rows whose first ``counts[i]``
    sorted keys hold an exact tie (-inf ties included) are sorted again,
    stably, so that tied entries keep ground order.
    """
    order = np.argsort(keys, axis=1)
    ranked = np.take_along_axis(keys, order, axis=1)
    width = keys.shape[1]
    tied = (ranked[:, 1:] == ranked[:, :-1]) & (
        np.arange(2, width + 1) <= counts[:, None])
    again = np.flatnonzero(tied.any(axis=1))
    if again.size:
        order[again] = np.argsort(keys[again], axis=1, kind="stable")
    return order


def _prefix_rows(P, Q, delta: float) -> np.ndarray:
    """Slack-delta max divergence of each row pair, over prefixes only.

    Some prefix of supp(P) sorted by decreasing P/Q attains the largest
    ln((P[R] - delta) / Q[R]) (Dinkelbach's fractional-programming
    argument). Let R* be optimal with t* = (P[R*] - delta) / Q[R*] > 0.
    Adding a label with P[y] >= t* Q[y] cannot lower the ratio; dropping one
    with P[y] < t* Q[y] raises it and keeps P[R] > delta, since
    P[R*] - delta - P[y] > t* (Q[R*] - Q[y]) >= 0. So the labels of ratio at
    least t*, a prefix (ties are all in or all out), are optimal. Labels
    with Q = 0 head the order: +inf when their mass exceeds delta. With no
    event of mass above delta the value is -inf.

    A prefix of k labels counts as above delta only when its running sum
    exceeds delta by more than k * 2**-52 times that sum. Summing k terms
    rounds by up to about k * 2**-53 times the sum, and the entries of a
    row normalized by division carry about as much again, so a smaller
    slack is rounding, not mass: at delta = 1, or at a delta equal to the
    support mass, the value is exactly -inf.
    """
    on = P > TAU_ZERO
    counts = on.sum(axis=1)
    # Support entries sorted by decreasing likelihood ratio, ties in ground
    # order, then the entries outside the support.
    ratios = np.divide(P, Q, out=np.full(P.shape, INF), where=Q > TAU_ZERO)
    order = _support_order(np.where(on, -ratios, INF), counts)
    # The sorted entries, transposed (one column per row) through one flat
    # index, so that the running sums go down axis 0 for all rows at once;
    # each column is still summed in order, as ``np.cumsum`` sums a row.
    rows, width = P.shape
    flat = order.T + width * np.arange(rows)
    cp = np.add.accumulate(np.take(P, flat), axis=0)
    cq = np.add.accumulate(np.take(Q, flat), axis=0)
    terms = np.arange(1, width + 1)[:, None]
    valid = (terms <= counts) & (cp - delta > terms * 2.0**-52 * cp)
    best = np.zeros(cp.shape)
    np.divide(cp - delta, cq, out=best, where=valid & (cq > TAU_ZERO))
    # The log of the best ratio is the best log (log is monotone); math.log
    # because np.log can differ in the last bit and would move delta goldens.
    logs = [math.log(t) if t > 0.0 else -INF for t in best.max(axis=0)]
    return np.where(np.any(valid & (cq <= TAU_ZERO), axis=0), INF, logs)


def f_divergence(
    kind: FDivergenceKind, mu: FiniteDistribution, nu: FiniteDistribution
) -> float:
    """f-divergence of ``mu`` from ``nu`` (second argument is the reference).

    Sums ``nu[y] * f(mu[y]/nu[y])`` over the support of ``nu`` and adds
    ``kind.slope`` times the mass ``mu`` puts outside that support, which
    is +inf for an unbounded slope (KL, chi-squared, custom kinds). The
    convention 0 * f(0/0) = 0 is built in because y outside both supports
    contributes nothing.
    """
    return divergence_value(kind, mu, nu)


def max_divergence(mu: FiniteDistribution, nu: FiniteDistribution) -> float:
    """Largest log likelihood ratio ``ln(mu[y]/nu[y])`` over supp(mu)."""
    return divergence_value(MaxDivergence(), mu, nu)


def approx_max_divergence(
    mu: FiniteDistribution, nu: FiniteDistribution, delta: float
) -> float:
    """Max divergence with additive slack.

    Maximizes ``ln((mu[R] - delta) / nu[R])`` over events R inside supp(mu)
    with mu[R] >= delta, by the prefix rule of ``_prefix_rows``; -inf if no
    event has mu[R] > delta (a vacuous constraint, reported as a sentinel
    rather than an error).
    """
    return divergence_value(MaxDivergence(delta), mu, nu)


def _per_distance(values: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Divergences per unit distance; zero-distance pairs must have zero
    divergence and otherwise blow up to +inf."""
    zero = distances <= TAU_ZERO
    scaled = values / np.where(zero, 1.0, distances)
    return np.where(zero, np.where(values <= TAU_NUM, 0.0, INF), scaled)


def delta_required(
    kernel: StochasticKernel, phi: PointRelation, epsilon: float
) -> float:
    """Smallest additive slack making the kernel epsilon-close on ``phi``.

    For each related pair, in both directions, accumulates
    ``sum over y of max(0, P[y] - e^epsilon * Q[y])`` and returns the worst
    value. Zero means the multiplicative bound alone already holds.
    """
    plan = _point_plan(phi, kernel)
    if epsilon < 0.0:
        raise ValidationError(f"epsilon {epsilon:g} must be nonnegative")
    scale = math.exp(epsilon)
    forward, backward = _both_directions(
        lambda P, Q: np.maximum(0.0, P - scale * Q).sum(axis=1),
        kernel.matrix, plan,
    )
    return max(0.0, float(forward.max()), float(backward.max()))


def divergence_value(
    divergence: Divergence, mu: FiniteDistribution, nu: FiniteDistribution
) -> float:
    """Evaluate an f-divergence or (slack) max divergence descriptor."""
    rows = _row_function(divergence)
    if mu.ground != nu.ground:
        raise GroundMismatchError("divergence requires a shared ground set")
    return float(rows(mu.probs[None, :], nu.probs[None, :])[0])
