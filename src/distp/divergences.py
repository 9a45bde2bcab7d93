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
unordered pairs of distributions {a, b} block by block and returns both
orders, D(a || b) and D(b || a), from one gather of the two rows. The
auditors call it on all their pairs at once, each unordered pair once; the
scalar functions here are the first order of its one-pair case. The path
is chosen once per table: when every cell of the table is above TAU_ZERO,
as the geometric mechanism's rows are, every block is evaluated whole,
with no support masks, gathers or packing; otherwise every block takes the
masked path. Both paths give the same bits.

The slack-delta rule sorts each unordered pair once, with one int64 sort of
packed keys (the ratio's bits above, the column below) and a stable re-sort
of any row that comes out unsorted. Decreasing A/B is increasing B/A, so
the first order, reversed, also serves the second wherever it sorts B/A
strictly. ``COUNTS`` records, per divergence, the row pairs evaluated and
the memo hits.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GroundMismatchError, InvalidGeneratorError, ValidationError
from .finite_prob import (
    FiniteDistribution,
    PointRelation,
    StochasticKernel,
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


# Deterministic counters of the row kernel, kept for the life of the
# process; the library never resets them. ``COUNTS["pairs", name]`` is the
# number of unordered row pairs evaluated for the divergence called
# ``name`` (``delta_required``'s rule counts as "delta_required"), each
# giving both of its orders, and ``COUNTS["memo hits", name]`` the
# requested pairs read from a kernel's memo instead. Each blocked call and
# each memo lookup adds to them once, whatever its size.
COUNTS: Counter = Counter()

# The row kernel works through its pairs this many cells of each order
# (pairs x |Y|) at a time, which bounds every buffer it allocates whatever
# the pair count; each blocked call allocates its buffers once, sized to
# its first block, and reuses them. Minor faults per 60-point geometric
# audit job (getrusage ru_minflt over a loop of jobs, both orders stacked):
# 0 to 95 at 8,192 cells, depending on the heap's history; at 16,384 cells
# a 128 KiB temporary meets glibc's mmap threshold, 300 to 1,900, with no
# gain in time; half as many pairs per block take 0 but made KL 8% slower.
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
    """The function evaluating ``divergence`` on a block of unordered row
    pairs, with its own buffers, reused from block to block. It takes the
    gathered rows stacked as X (2 x pairs x |Y|), rows A over rows B, and
    returns the (2 x pairs) values D(A || B) over D(B || A). Read as P = X
    and Q = X[::-1], the stack is both orders' numerators over both orders'
    denominators, so one elementwise numpy call serves both orders. Its
    second argument says that every cell of the table the rows come from is
    above TAU_ZERO, which selects the full path; the block is not tested
    again."""
    work: dict = {}
    if isinstance(divergence, FDivergenceKind):
        return lambda X, full: _f_rows(divergence, X, work, full)
    if isinstance(divergence, MaxDivergence):
        if divergence.delta == 0.0:
            return lambda X, full: _max_rows(X, work, full)
        return lambda X, full: _prefix_rows(X, divergence.delta, work, full)
    raise ValidationError(f"unknown divergence descriptor {divergence!r}")


def _blocked_rows(rows, table, left, right, name: str) -> np.ndarray:
    """``rows`` applied to rows ``left[i]`` and ``right[i]`` of ``table``,
    for every i: a (2 x pairs) array, the values of each pair in its given
    order over those in the other. Rows are gathered block by block, each
    once, into one buffer of at most one block, so no temporary grows with
    the pair count; ``rows`` may overwrite it. Whether every cell
    of ``table`` is above TAU_ZERO, as a geometric mechanism's are, is
    tested once and given to ``rows`` with every block: the path is the
    same for all of them. The pairs count once under ``name`` in
    ``COUNTS``."""
    n, width = len(left), table.shape[1]
    COUNTS["pairs", name] += n
    full = bool(table.min() > TAU_ZERO)
    step = max(1, _BLOCK_CELLS // width)
    gathered = np.empty(2 * min(n, step) * width)
    out = np.empty((2, n))
    for start in range(0, n, step):
        block = slice(start, start + step)
        k = len(out[0, block])
        X = gathered[: 2 * k * width].reshape(2, k, width)
        # Row indices are in range, so "clip" never clips; unlike "raise",
        # it lets ``take`` gather straight into the buffer.
        table.take(left[block], axis=0, out=X[0], mode="clip")
        table.take(right[block], axis=0, out=X[1], mode="clip")
        out[:, block] = rows(X, full)
    return out


def _divergence_pairs(divergence, table, left, right, memo=None) -> np.ndarray:
    """The divergence of row ``left[i]`` of ``table`` from row ``right[i]``,
    over that of ``right[i]`` from ``left[i]``, for every i (2 x pairs),
    each equal bit for bit to the one-pair call in that order.

    ``memo``, a dict kept with ``table`` (a kernel's ``"row memo"``, kept
    by ``finite_prob._kept``), holds per divergence an n x n array over
    the rows of ``table``, 8 n^2 bytes: [a, b] is D(row a || row b), NaN
    until evaluated (``_generated`` and ``_summed`` raise on a NaN value).
    A call evaluates, in both orders, only the pairs it names that the array
    lacks, so none it holds is evaluated again, in whatever order asked.
    """
    rows = _row_function(divergence)
    try:
        known = None if memo is None else memo.get(divergence)
    except TypeError:  # a custom generator that cannot be hashed
        known = memo = None
    if known is None:
        found = _blocked_rows(rows, table, left, right, divergence.name)
        if memo is not None:  # the caller gets the values, the memo a copy
            known = memo[divergence] = np.full((len(table),) * 2, np.nan)
            known[left, right], known[right, left] = found
        return found
    missing = np.isnan(known[left, right])
    COUNTS["memo hits", divergence.name] += len(missing) - int(missing.sum())
    if missing.any():
        a, b = left[missing], right[missing]
        known[a, b], known[b, a] = _blocked_rows(rows, table, a, b,
                                                 divergence.name)
    return np.stack([known[left, right], known[right, left]])


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


def _f_rows(kind: FDivergenceKind, X, work: dict, full: bool) -> np.ndarray:
    P, Q = X, X[::-1]
    terms = _buffer(work, "terms", X.shape)
    if full:
        # Every label is on supp(Q): each row's terms are all its cells, in
        # ground order, and are summed as ``np.sum`` sums that row alone.
        values = _generated(kind, np.divide(P, Q, out=terms).reshape(-1))
        np.multiply(Q, values.reshape(X.shape), out=terms)
        return _summed(kind, terms.sum(axis=2))
    on = np.greater(X, TAU_ZERO, out=_buffer(work, "on", X.shape, bool))
    # on supp(P) and off supp(Q), whose support is on[::-1]
    off = np.greater(on, on[::-1], out=_buffer(work, "off", X.shape, bool))
    lost = off.any(axis=2)
    inf = lost & (kind.slope == INF)
    use = np.logical_and(on[::-1], ~inf[..., None],
                         out=_buffer(work, "use", X.shape, bool))
    weights = Q[use]
    values = _generated(kind, P[use] / weights)
    # Pairwise summation groups terms by position: packing each row's terms
    # to the front and summing rows of equal count together groups every
    # sum as ``np.sum`` groups the 1-D array of that row's terms.
    counts = use.sum(axis=2)
    terms.fill(0.0)
    front = np.less(np.arange(X.shape[2]), counts[..., None],
                    out=_buffer(work, "front", X.shape, bool))
    terms[front] = weights * values
    totals = np.empty(counts.shape)
    for k in np.flatnonzero(np.bincount(counts.reshape(-1))):
        rows = counts == k
        totals[rows] = terms[rows, :k].sum(axis=1)
    _summed(kind, totals)
    totals[inf] = INF
    if kind.slope < INF and np.any(lost):
        # Mass off supp(Q) costs the recession slope per unit (Csiszar).
        totals[lost] += kind.slope * np.where(off[lost], P[lost], 0.0).sum(axis=1)
    return totals


def _max_rows(X, work: dict, full: bool) -> np.ndarray:
    P, Q = X, X[::-1]
    logs = _buffer(work, "logs", X.shape)
    if full:
        np.divide(P, Q, out=logs)
        return np.log(logs, out=logs).max(axis=2)
    # The log of P / Q on both supports; then the cells off supp(P) read
    # -inf, and the support cells off supp(Q) +inf. Every other cell holds 1
    # when the log is taken, so it meets no 0, infinity or NaN: numpy's log
    # takes several times longer on a block that holds them, and gives the
    # same bits on its other cells.
    on = np.greater(X, TAU_ZERO, out=_buffer(work, "on", X.shape, bool))
    logs.fill(1.0)
    np.divide(P, Q, out=logs,
              where=np.logical_and(on, on[::-1],
                                   out=_buffer(work, "both", X.shape, bool)))
    np.log(logs, out=logs)
    logs[~on] = -INF
    off = np.greater(on, on[::-1], out=_buffer(work, "off", X.shape, bool))
    logs[off] = INF
    return logs.max(axis=2)


def _support_order(ratios: np.ndarray, work: dict) -> np.ndarray:
    """Flat indices into ``ratios`` (C-contiguous, rows x width) that gather
    each row by decreasing ratio, ties in ground order, transposed: column
    i of the (width x rows) result orders row i. This is the stable order.
    Ratios are nonnegative, +inf included, or -inf, which marks an entry
    off the support and so comes last.

    The bits of such a float, read as an int64, are ordered as its value,
    and their complement the other way round. Each ratio's complement has
    its low ceil(log2 width) bits replaced by the entry's column, and each
    row of these ints is sorted. Exact ties then come out in column order.
    Ratios that differ only in the replaced bits come out in column order
    too, whatever their values: a row where that misorders them is found by
    its ratios gathered through the result, which then rise somewhere, and
    is sorted again stably. In every other row the gathered ratios never
    rise and equal ones are in column order, which is the stable order.
    """
    rows, width = ratios.shape
    low = (width - 1).bit_length()
    mask = (1 << low) - 1
    # (bits & ~mask) ^ (~mask ^ column): the complement above, the column below
    packed = _buffer(work, "packed", ratios.shape, np.int64)
    np.bitwise_and(ratios.view(np.int64), ~mask, out=packed)
    packed ^= np.arange(width, dtype=np.int64) ^ ~mask
    packed.sort(axis=1)
    shape = (width, rows)
    base = width * np.arange(rows)
    flat = np.bitwise_and(packed.T, mask,
                          out=_buffer(work, "flat", shape, np.intp))
    flat += base
    # the running sums of Q and the prefix mask take this memory later
    ranked = ratios.take(flat, out=_buffer(work, "cq", shape), mode="clip")
    rising = np.greater(ranked[1:], ranked[:-1],
                        out=_buffer(work, "valid", (width - 1, rows), bool))
    if rising.any():
        again = np.flatnonzero(rising.any(axis=0))
        stable = np.argsort(np.negative(ratios[again]), axis=1, kind="stable")
        flat[:, again] = stable.T + base[again]
    return flat


def _ratios(P, Q, out, on_p=None, on_both=None) -> np.ndarray:
    """P / Q per cell, into ``out``: on the full path the quotient; else the
    quotient on both supports, +inf on supp(P) off supp(Q), and -inf off
    supp(P)."""
    if on_p is None:
        return np.divide(P, Q, out=out)
    out.fill(INF)
    np.divide(P, Q, out=out, where=on_both)
    out[~on_p] = -INF
    return out


def _prefix_rows(X, delta: float, work: dict, full: bool) -> np.ndarray:
    """Slack-delta max divergence of each row pair of X = (A, B) both ways
    round, over prefixes only: D(A || B) over D(B || A).

    Some prefix of supp(P) sorted by decreasing P/Q attains the largest
    ln((P[R] - delta) / Q[R]) (Dinkelbach's fractional-programming
    argument). Let R* be optimal with t* = (P[R*] - delta) / Q[R*] > 0.
    Adding a label with P[y] >= t* Q[y] cannot lower the ratio; dropping one
    with P[y] < t* Q[y] raises it and keeps P[R] > delta, since
    P[R*] - delta - P[y] > t* (Q[R*] - Q[y]) >= 0. So the labels of ratio at
    least t*, a prefix (ties are all in or all out), are optimal. Labels
    with Q = 0 head the order: +inf when their mass exceeds delta. With no
    event of mass above delta the value is -inf.

    The support is sorted by decreasing ratio, ties in ground order (the
    stable order, which fixes the running sums' bits), once per unordered
    pair: decreasing A/B is increasing B/A, so the first order reversed
    sorts the ratios B/A too, except where those tie. The second order
    reads the first one's gathered entries backwards on every row where
    B/A, gathered in the first order, rises strictly (but for a head of
    -inf, off supp(B), whose order no prefix reads); the other rows are
    sorted on their own.
    """
    A, B = X
    rows, width = A.shape
    shape = (width, rows)
    ratios = _buffer(work, "ratios", A.shape)
    if full:
        on_a = on_b = both = counts_a = counts_b = None
    else:
        on_a, on_b = np.greater(X, TAU_ZERO,
                                out=_buffer(work, "on", X.shape, bool))
        both = np.logical_and(on_a, on_b,
                              out=_buffer(work, "both", A.shape, bool))
        counts_a = np.count_nonzero(on_a, axis=1)
        counts_b = np.count_nonzero(on_b, axis=1)
    order = _support_order(_ratios(A, B, ratios, on_a, both), work)
    gathered_a = A.take(order, out=_buffer(work, "a", shape), mode="clip")
    gathered_b = B.take(order, out=_buffer(work, "b", shape), mode="clip")
    there = _prefix_best(gathered_a, gathered_b, delta, counts_a, work)
    ranked = _ratios(B, A, ratios, on_b, both).take(
        order, out=_buffer(work, "cp", shape), mode="clip")
    rising = np.less(ranked[:-1], ranked[1:],
                     out=_buffer(work, "valid", (width - 1, rows), bool))
    if not full:
        rising |= ranked[:-1] == -INF
    sorted_b, sorted_a = gathered_b[::-1], gathered_a[::-1]
    if not rising.all():
        again = np.flatnonzero(~rising.all(axis=0))
        own = _support_order(ratios[again], work.setdefault("again", {}))
        sorted_b, sorted_a = sorted_b.copy(), sorted_a.copy()
        sorted_b[:, again] = B[again].take(own, mode="clip")
        sorted_a[:, again] = A[again].take(own, mode="clip")
    back = _prefix_best(sorted_b, sorted_a, delta, counts_b, work)
    # The log of the best ratio is the best log (log is monotone), -inf
    # where no prefix is valid; math.log because np.log can differ in the
    # last bit and would move delta goldens.
    return np.array([math.log(t) if t > 0.0 else -INF
                     for t in there.tolist() + back.tolist()]).reshape(2, rows)


def _prefix_best(P, Q, delta: float, counts, work: dict) -> np.ndarray:
    """The best ratio (P[R] - delta) / Q[R] over the valid prefixes R of
    each row, given the entries of P and of Q in the row's sorted order,
    transposed (width x rows, one column per row): 0 if none is valid
    (every valid ratio is positive), +inf if a valid one has no Q mass.
    ``counts``, the support sizes, is None on the full path."""
    # The running sums go down axis 0 for all rows at once; each column is
    # still summed in order, as ``np.cumsum`` sums a row. The ratios' memory
    # takes the slacks; the running sums of P take the rounding bound, then
    # the best ratios.
    width, shape = len(P), P.shape
    cp = np.add.accumulate(P, axis=0, out=_buffer(work, "cp", shape))
    cq = np.add.accumulate(Q, axis=0, out=_buffer(work, "cq", shape))
    terms = np.arange(1, width + 1)[:, None]
    slack = np.subtract(cp, delta, out=_buffer(work, "ratios", shape))
    valid = np.greater(slack, np.multiply(terms * 2.0**-52, cp, out=cp),
                       out=_buffer(work, "valid", shape, bool))
    if counts is None:
        # every prefix lies in both supports, so each has Q mass
        ratio = valid
        best = np.divide(slack, cq, out=cp)
    else:
        valid &= terms <= counts
        ratio = np.greater(cq, TAU_ZERO, out=_buffer(work, "mask", shape, bool))
        ratio &= valid
        best = np.divide(slack, cq, out=cp, where=ratio)
    top = best.max(axis=0, where=ratio, initial=0.0)
    if counts is not None:
        # a valid prefix with no Q mass (valid, not ratio) gives +inf
        top[np.not_equal(valid, ratio, out=valid).any(axis=0)] = INF
    return top


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
    try:
        scale = math.exp(epsilon)
    except OverflowError:
        scale = INF
    work: dict = {}

    def excess(X, full):
        P, Q = X, X[::-1]
        out = _buffer(work, "excess", X.shape)
        if scale == INF:
            # e^epsilon past the float range: e^epsilon * Q exceeds every
            # P <= 1 where Q > 0 (for every Q of at least 2**-1022), so the
            # excess is P's mass where Q = 0.
            return np.multiply(P, np.equal(Q, 0.0), out=out).sum(axis=2)
        # max(0, P - scale * Q)
        np.subtract(P, np.multiply(scale, Q, out=out), out=out)
        return np.maximum(0.0, out, out=out).sum(axis=2)

    values = _blocked_rows(excess, kernel.matrix, plan.first, plan.second,
                           "delta_required")
    return max(0.0, float(values.max()))


def divergence_value(
    divergence: Divergence, mu: FiniteDistribution, nu: FiniteDistribution
) -> float:
    """Evaluate an f-divergence or (slack) max divergence descriptor."""
    if mu.ground != nu.ground:
        raise GroundMismatchError("divergence requires a shared ground set")
    table = np.stack([mu.probs, nu.probs])
    return float(_divergence_pairs(divergence, table, [0], [1])[0, 0])
