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
pairs at once; the scalar functions here are its one-pair case. The path is
chosen once per table: when every cell of the table is above TAU_ZERO, as
the geometric mechanism's rows are, every block is evaluated whole, with no
support masks, gathers or packing; otherwise every block takes the masked
path. Both paths give the same bits.
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
    _sorted_distinct,
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
    # t * ln(t), continuously extended with 0 at t = 0, where the log is of 1
    terms = np.where(t > 0.0, t, 1.0)
    np.log(terms, out=terms)
    terms *= t
    return terms


def _gen_rkl(t: np.ndarray) -> np.ndarray:
    # -ln(t), +inf at t = 0
    on = t > 0.0
    terms = np.where(on, t, 1.0)
    np.log(terms, out=terms)
    return np.where(on, np.negative(terms, out=terms), INF)


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
# time, which bounds every buffer it allocates whatever the pair count.
# Each blocked call allocates its buffers once, sized to its first block,
# and reuses them for every later block. Temporaries made afresh for each
# block faulted their memory in again whenever glibc had handed it back to
# the system (about 12,000 minor faults per 60-point audit job at 8,192
# cells). Measured with getrusage ru_minflt on the 60-point geometric
# audit job, in a loop of jobs: about 115 minor faults per job at 8,192
# cells, each call faulting its buffers in once (48 in the delta audit,
# 63 in KL), against about 4 at 4,096 cells with fresh temporaries. At
# 16,384 cells a 128 KiB temporary (a generator's, or the sort's) meets
# glibc's mmap threshold: 300 to 1,900 faults per job, depending on the
# heap's history, and no gain in time. Blocks of a full table need no masks
# and write their ratios, keys and sorted keys into these buffers too. With
# them the same job (seed 11) takes 0 minor faults in every job after the
# warm-up, over 12 runs of 20 or 40 jobs. With the masked path on every
# block, the median per job was 100 to 111 in 9 of 12 such runs, 0 in 3.
_BLOCK_CELLS = 1 << 13


def _buffer(work: dict, name: str, shape: tuple, dtype=float) -> np.ndarray:
    """The array ``name`` of ``work`` at ``shape``, C-contiguous: allocated on
    first use and reused after. A blocked call's first block is its largest,
    so later blocks view a prefix of the same memory."""
    size = math.prod(shape)
    flat = work.get(name)
    if flat is None or flat.size < size:
        flat = work[name] = np.empty(size, dtype)
    return flat[:size].reshape(shape)


def _row_function(divergence: Divergence):
    """The function evaluating ``divergence`` on a block of row pairs, with
    its own buffers, reused from block to block. Its third argument says
    that every cell of the table the rows come from is above TAU_ZERO,
    which selects the full path; the block is not tested again."""
    work: dict = {}
    if isinstance(divergence, FDivergenceKind):
        return lambda P, Q, full: _f_rows(divergence, P, Q, work, full)
    if isinstance(divergence, MaxDivergence):
        if divergence.delta == 0.0:
            return lambda P, Q, full: _max_rows(P, Q, work, full)
        return lambda P, Q, full: _prefix_rows(P, Q, divergence.delta, work,
                                               full)
    raise ValidationError(f"unknown divergence descriptor {divergence!r}")


def _blocked_rows(rows, table, left, right) -> np.ndarray:
    """``rows`` applied to rows ``left[i]`` and ``right[i]`` of ``table``, for
    every i. Rows are gathered block by block into two buffers of at most
    one block, so no temporary grows with the pair count; ``rows`` may
    overwrite both. Whether every cell of ``table`` is above TAU_ZERO, as a
    geometric mechanism's are, is tested once and given to ``rows`` with
    every block: the path is the same for all of them."""
    n, width = len(left), table.shape[1]
    full = bool(table.min() > TAU_ZERO)
    step = max(1, _BLOCK_CELLS // width)
    P, Q = np.empty((min(n, step), width)), np.empty((min(n, step), width))
    out = np.empty(n)
    for start in range(0, n, step):
        block = slice(start, start + step)
        k = len(out[block])
        # Row indices are in range, so "clip" never clips; unlike "raise",
        # it lets ``take`` gather straight into the buffer.
        table.take(left[block], axis=0, out=P[:k], mode="clip")
        table.take(right[block], axis=0, out=Q[:k], mode="clip")
        out[block] = rows(P[:k], Q[:k], full)
    return out


def _both_directions(values: np.ndarray, plan: _PairPlan):
    """``(forward, backward)`` of every pair of ``plan`` from ``values``, the
    results on its distinct ordered row pairs ``(first[k], second[k])``.
    Each distinct ordered pair is evaluated once, so a symmetric relation
    costs one direction; row functions act on each row alone, so the values
    do not depend on which pairs are evaluated together."""
    values = values[plan.inverse]
    return values[: len(plan.left)], values[len(plan.left):]


# A memo's entry before its first pair: no codes, no values.
_NOTHING = (np.empty(0, dtype=np.intp), np.empty(0))


def _divergence_rows(divergence, table, left, right, memo=None) -> np.ndarray:
    """Divergence of row ``left[i]`` of ``table`` from row ``right[i]``, for
    every i, equal bit for bit to the one-row call on that pair.

    ``memo``, a dict kept with ``table`` (a kernel's, which
    ``finite_prob._kept`` keeps on it as ``"row memo"``), holds per
    divergence the sorted codes ``left * len(table) + right`` of the pairs
    evaluated so far and their values, so each ordered row pair is
    evaluated once whatever the calls that ask for it. Its size grows with
    the distinct pairs evaluated, not with the square of the row count.
    """
    rows = _row_function(divergence)
    try:
        known = None if memo is None else memo.get(divergence, _NOTHING)
    except TypeError:  # a custom generator that cannot be hashed
        known = None
    if known is None:
        return _blocked_rows(rows, table, left, right)
    codes, values = known
    want = np.asarray(left, dtype=np.intp) * len(table) + right
    if not len(codes) and (want[1:] > want[:-1]).all():
        # A first batch of sorted, distinct pairs, as a pair plan lists
        # them, is the memo as it stands; the caller gets its own copy.
        found = _blocked_rows(rows, table, left, right)
        memo[divergence] = want, found
        return found.copy()
    at = np.searchsorted(codes, want)
    missing = np.ones(len(want), dtype=bool)
    inside = at < len(codes)
    missing[inside] = codes[at[inside]] != want[inside]
    if missing.any():
        fresh = _sorted_distinct(want[missing])  # each new pair once
        found = _blocked_rows(rows, table, fresh // len(table),
                              fresh % len(table))
        place = np.searchsorted(codes, fresh)
        codes = np.insert(codes, place, fresh)
        values = np.insert(values, place, found)
        memo[divergence] = codes, values
        at = np.searchsorted(codes, want)
    return values[at]


def _divergence_columns(divergence, table, plan: _PairPlan, memo=None):
    """``_divergence_rows`` of every pair of ``plan`` forward and backward,
    each distinct ordered row pair evaluated once (and through ``memo``)."""
    return _both_directions(
        _divergence_rows(divergence, table, plan.first, plan.second, memo), plan)


def _generated(kind: FDivergenceKind, ratios) -> np.ndarray:
    """The generator's values on ``ratios``, which must not be NaN."""
    values = np.asarray(kind(ratios), dtype=float)
    if np.isnan(values).any():
        raise InvalidGeneratorError(
            f"generator {kind.name!r} produced NaN on valid ratios"
        )
    return values


def _summed(kind: FDivergenceKind, totals: np.ndarray) -> np.ndarray:
    """``totals``, the row sums of the generator's terms, unless one is NaN."""
    if np.isnan(totals).any():
        raise InvalidGeneratorError(
            f"generator {kind.name!r} produced values summing to NaN"
        )
    return totals


def _f_rows(kind: FDivergenceKind, P, Q, work: dict, full: bool) -> np.ndarray:
    terms = _buffer(work, "terms", P.shape)
    if full:
        # Every label is on supp(Q): each row's terms are all its cells, in
        # ground order, and are summed as ``np.sum`` sums that row alone.
        flat = np.divide(P, Q, out=terms).reshape(-1)
        np.multiply(Q.reshape(-1), _generated(kind, flat), out=flat)
        return _summed(kind, terms.sum(axis=1))
    on = np.greater(Q, TAU_ZERO, out=_buffer(work, "on", P.shape, bool))
    off = np.greater(P, TAU_ZERO, out=_buffer(work, "off", P.shape, bool))
    off &= ~on
    lost = off.any(axis=1)
    inf = lost & (kind.slope == INF)
    use = np.logical_and(on, ~inf[:, None], out=on)  # on is not needed again
    weights = Q[use]
    values = _generated(kind, P[use] / weights)
    # Pairwise summation groups terms by position: packing each row's terms
    # to the front and summing rows of equal count together groups every
    # sum as ``np.sum`` groups the 1-D array of that row's terms.
    counts = use.sum(axis=1)
    terms.fill(0.0)
    front = np.less(np.arange(P.shape[1]), counts[:, None],
                    out=_buffer(work, "front", P.shape, bool))
    terms[front] = weights * values
    totals = np.empty(len(P))
    for k in np.flatnonzero(np.bincount(counts)):
        rows = counts == k
        totals[rows] = terms[rows, :k].sum(axis=1)
    _summed(kind, totals)
    totals[inf] = INF
    if kind.slope < INF and np.any(lost):
        # Mass off supp(Q) costs the recession slope per unit (Csiszar).
        totals[lost] += kind.slope * np.where(off[lost], P[lost], 0.0).sum(axis=1)
    return totals


def _max_rows(P, Q, work: dict, full: bool) -> np.ndarray:
    logs = _buffer(work, "logs", P.shape)
    if full:
        np.divide(P, Q, out=logs)
        return np.log(logs, out=logs).max(axis=1)
    # The same divide and log on every cell; then the cells off supp(P)
    # read -inf, and the support cells off supp(Q) +inf, whatever the
    # quotient or its log gave there (0/0, x/0, a huge x/tiny).
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.divide(P, Q, out=logs)
        np.log(logs, out=logs)
    on = np.greater(P, TAU_ZERO, out=_buffer(work, "on", P.shape, bool))
    off = np.less_equal(Q, TAU_ZERO, out=_buffer(work, "off", P.shape, bool))
    off &= on
    logs[~on] = -INF
    logs[off] = INF
    return logs.max(axis=1)


def _support_order(keys: np.ndarray, work: dict, full: bool) -> np.ndarray:
    """Flat indices into ``keys`` (C-contiguous) that gather each row sorted
    ascending, transposed: column i of the (width x rows) result sorts row
    i, in the stable order on the row's support keys.

    Support keys are below +inf and the keys off the support are +inf;
    with ``full`` there are none off the support. Distinct keys have one
    sorting permutation, so the default sort already gives the stable
    order on them. Only the rows whose sorted support keys hold an exact
    tie (-inf ties included) are sorted again, stably, so that tied entries
    keep ground order. One comparison of the keys gathered through the
    result finds the candidate rows; +inf ties off the support are dropped
    from those alone.
    """
    rows, width = keys.shape
    shape = (width, rows)
    base = width * np.arange(rows)
    flat = np.add(np.argsort(keys, axis=1).T, base,
                  out=_buffer(work, "flat", shape, np.intp))
    # the running sums of Q take this memory after the sort
    ranked = keys.take(flat, out=_buffer(work, "cq", shape), mode="clip")
    tied = ranked[1:] == ranked[:-1]
    again = np.flatnonzero(tied.any(axis=0))
    if again.size and not full:
        again = again[(tied[:, again] & (ranked[1:, again] < INF)).any(axis=0)]
    if again.size:
        stable = np.argsort(keys[again], axis=1, kind="stable")
        flat[:, again] = stable.T + base[again]
    return flat


def _prefix_rows(P, Q, delta: float, work: dict, full: bool) -> np.ndarray:
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
    rows, width = P.shape
    # Support entries sorted by decreasing likelihood ratio, ties in ground
    # order, then the entries outside the support: keys -P/Q on the support
    # (-inf where Q = 0) and +inf off it.
    keys = _buffer(work, "keys", P.shape)
    if full:
        np.negative(np.divide(P, Q, out=keys), out=keys)
    else:
        on = np.greater(P, TAU_ZERO, out=_buffer(work, "on", P.shape, bool))
        counts = np.count_nonzero(on, axis=1)
        finite = np.greater(Q, TAU_ZERO, out=_buffer(work, "mask", P.shape, bool))
        finite &= on
        keys.fill(INF)
        np.divide(P, Q, out=keys, where=finite)
        np.negative(keys, out=keys, where=on)
    # The sorted entries, transposed (one column per row) through one flat
    # index, so that the running sums go down axis 0 for all rows at once;
    # each column is still summed in order, as ``np.cumsum`` sums a row.
    # The keys' memory takes the gathered entries, then the slacks; the
    # running sums of P take the rounding bound, then the best ratios.
    shape = (width, rows)
    flat = _support_order(keys, work, full)
    gathered = _buffer(work, "keys", shape)
    cp = np.add.accumulate(P.take(flat, out=gathered, mode="clip"), axis=0,
                           out=_buffer(work, "cp", shape))
    cq = np.add.accumulate(Q.take(flat, out=gathered, mode="clip"), axis=0,
                           out=_buffer(work, "cq", shape))
    terms = np.arange(1, width + 1)[:, None]
    slack = np.subtract(cp, delta, out=gathered)
    valid = np.greater(slack, np.multiply(terms * 2.0**-52, cp, out=cp),
                       out=_buffer(work, "valid", shape, bool))
    if full:
        # every prefix lies in both supports, so each has Q mass
        ratio = valid
        best = np.divide(slack, cq, out=cp)
    else:
        valid &= terms <= counts
        ratio = np.greater(cq, TAU_ZERO, out=_buffer(work, "mask", shape, bool))
        ratio &= valid
        best = np.divide(slack, cq, out=cp, where=ratio)
    # The best ratio of a valid prefix, 0 if none (every such ratio is
    # positive). The log of the best ratio is the best log (log is
    # monotone); math.log because np.log can differ in the last bit and
    # would move delta goldens.
    top = best.max(axis=0, where=ratio, initial=0.0)
    logs = np.full(rows, -INF)
    some = top > 0.0
    logs[some] = list(map(math.log, top[some].tolist()))
    if not full:
        # a valid prefix with no Q mass (valid, not ratio) gives +inf
        logs[np.not_equal(valid, ratio, out=valid).any(axis=0)] = INF
    return logs


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
    if not epsilon >= 0.0:  # NaN too
        raise ValidationError(f"epsilon {epsilon:g} must be nonnegative")
    scale = math.exp(epsilon)

    def excess(P, Q, full):
        # max(0, P - scale * Q), written over the gathered rows of Q
        np.subtract(P, np.multiply(scale, Q, out=Q), out=Q)
        return np.maximum(0.0, Q, out=Q).sum(axis=1)

    forward, backward = _both_directions(_blocked_rows(
        excess, kernel.matrix, plan.first, plan.second), plan)
    return max(0.0, float(forward.max()), float(backward.max()))


def divergence_value(
    divergence: Divergence, mu: FiniteDistribution, nu: FiniteDistribution
) -> float:
    """Evaluate an f-divergence or (slack) max divergence descriptor."""
    rows = _row_function(divergence)
    if mu.ground != nu.ground:
        raise GroundMismatchError("divergence requires a shared ground set")
    table = np.stack([mu.probs, nu.probs])
    return float(_blocked_rows(rows, table, [0], [1])[0])
