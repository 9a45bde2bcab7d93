"""The blocked row kernel against the one-pair-at-a-time definitions.

The reference functions below are the scalar bodies the divergences had
before they were evaluated on stacked rows. The kernel must reproduce them
exactly (``==``, not approximately), over inputs long enough to span more
than one block. The slack-delta rows are also checked against
``subset_oracle``, which tries every event rather than the prefixes, to
within 1e-9.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from distp import (
    HELLINGER,
    REVERSE_KL,
    STANDARD_KINDS,
    TOTAL_VARIATION,
    FDivergenceKind,
    FiniteDistribution,
    GroundMetric,
    InvalidGeneratorError,
    MaxDivergence,
    PointRelation,
    StochasticKernel,
    delta_required,
    divergence_value,
    geometric_mechanism,
)
from distp import divergences
from distp.divergences import _BLOCK_CELLS, _divergence_pairs
from distp.tolerances import TAU_NUM, TAU_ZERO
from conftest import labels, one_way, subset_oracle

INF = math.inf


def ref_f(kind, p, q):
    on = q > TAU_ZERO
    off = (p > TAU_ZERO) & ~on
    if np.any(off) and kind.slope == INF:
        return INF
    values = np.asarray(kind(p[on] / q[on]), dtype=float)
    total = float(np.sum(q[on] * values))
    if np.any(off):
        # Csiszar's convention: mass off supp(q) costs the recession slope
        total += kind.slope * float(np.sum(np.where(off, p, 0.0)))
    return total


def ref_max(p, q):
    on = p > TAU_ZERO
    if np.any(q[on] <= TAU_ZERO):
        return INF
    return float(np.max(np.log(p[on] / q[on])))


def ref_prefix(p, q, delta):
    on = np.flatnonzero(p > TAU_ZERO)
    if on.size == 0:
        return -INF
    ps = p[on]
    qs = q[on]
    ratios = np.where(qs > TAU_ZERO, ps / np.where(qs > TAU_ZERO, qs, 1.0), INF)
    order = np.argsort(-ratios, kind="stable")
    cp = np.cumsum(ps[order])
    cq = np.cumsum(qs[order])
    best = -INF
    for k in range(on.size):
        num = cp[k] - delta
        # a slack within the running sum's rounding bound is no slack
        if num <= (k + 1) * 2.0**-52 * cp[k]:
            continue
        if cq[k] <= TAU_ZERO:
            return INF
        best = max(best, math.log(num / cq[k]))
    return best


def ref_value(divergence, p, q):
    if isinstance(divergence, MaxDivergence):
        if divergence.delta == 0.0:
            return ref_max(p, q)
        return ref_prefix(p, q, divergence.delta)
    return ref_f(divergence, p, q)


def random_row(rng, width):
    """A probability row with exact zeros and, often, tied entries."""
    row = rng.dirichlet(np.full(width, rng.choice([0.3, 1.0, 5.0])))
    row[rng.random(width) < rng.choice([0.0, 0.3, 0.6])] = 0.0
    if rng.random() < 0.5:
        row = np.round(row * 8.0)
    if row.sum() == 0.0:
        row[rng.integers(width)] = 1.0
    return row / row.sum()


DIVERGENCES = [
    *STANDARD_KINDS,
    MaxDivergence(),
    MaxDivergence(0.05),
    MaxDivergence(0.5),
    MaxDivergence(1.0),
]


@given(st.integers(1, 24), st.integers(0, 10**6))
def test_rows_equal_scalar_definitions_across_blocks(width, seed):
    rng = np.random.default_rng(seed)
    distinct = np.array([random_row(rng, width) for _ in range(8)])
    distinct[1] = distinct[0]  # identical pair: every divergence is 0
    # Pair i compares distinct[a[i]] with distinct[b[i]]; there are more
    # pairs than fit in one block.
    n = _BLOCK_CELLS // width + 37
    a = rng.integers(0, 8, n)
    b = rng.integers(0, 8, n)
    a[:2], b[:2] = (0, 2), (1, 2)
    for divergence in DIVERGENCES:
        want = {
            (i, j): ref_value(divergence, distinct[i], distinct[j])
            for i in range(8)
            for j in range(8)
        }
        got = one_way(divergence, distinct, a, b)
        assert got.tolist() == [want[i, j] for i, j in zip(a, b)]
    values = one_way(MaxDivergence(), distinct, a, b).tolist()
    assert values[0] == 0.0 and values[1] == 0.0


def full_row(rng, width):
    """A probability row with every entry well above TAU_ZERO, often tied."""
    row = rng.dirichlet(np.full(width, rng.choice([0.3, 1.0, 5.0]))) + 1e-3
    if rng.random() < 0.5:
        row = np.round(row * 8.0) + 1.0
    return row / row.sum()


def sparse_row(rng, width):
    """A probability row with at least one exact zero."""
    row = random_row(rng, width)
    k = rng.integers(width)
    row[k] = 0.0
    if row.sum() == 0.0:
        row[(k + 1) % width] = 1.0
    return row / row.sum()


@contextmanager
def recorded_paths():
    """The ``full`` flag that the row function receives with each block:
    whether the block takes the full-support path."""
    seen = []
    make = divergences._row_function

    def recording(divergence):
        rows = make(divergence)

        def recorded(X, full):
            seen.append(full)
            return rows(X, full)

        return recorded

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(divergences, "_row_function", recording)
        yield seen


@settings(max_examples=30)
@given(st.integers(2, 24), st.integers(0, 10**6))
def test_full_support_blocks_equal_scalar_definitions(width, seed):
    """The path is chosen per table. One call over four blocks of a mixed
    table: pairs of full-support rows, pairs of sparse rows, a mix of the
    two, and full-support rows against a row whose only entry off its
    support is 1e-13, at or below TAU_ZERO but not zero. The table has
    cells at or below TAU_ZERO, so every block takes the masked path, the
    first one too. A second call, on a table of the full-support rows
    alone, takes the full path in both of its blocks. Every block gives the
    bits of the scalar definitions."""
    rng = np.random.default_rng(seed)
    near = full_row(rng, width)
    near[1] += near[0] - 1e-13
    near[0] = 1e-13
    table = np.array([full_row(rng, width) for _ in range(4)]
                     + [sparse_row(rng, width) for _ in range(4)] + [near])
    step = _BLOCK_CELLS // width
    full, sparse, both = np.arange(4), np.arange(4, 8), np.arange(8)
    a = np.concatenate([rng.choice(full, step), rng.choice(sparse, step),
                        rng.choice(both, step), rng.choice(full, 37)])
    b = np.concatenate([rng.choice(full, step), rng.choice(sparse, step),
                        rng.choice(both, step), np.full(37, 8)])
    a[2 * step], b[2 * step] = 0, 4  # the mixed block holds a sparse row
    full_a, full_b = rng.choice(full, (2, step + 37))
    for divergence in [*STANDARD_KINDS, MaxDivergence(), MaxDivergence(0.3)]:
        want = {
            (i, j): ref_value(divergence, table[i], table[j])
            for i in range(len(table))
            for j in range(len(table))
        }
        with recorded_paths() as seen:
            got = one_way(divergence, table, a, b)
            only = one_way(divergence, table[full], full_a, full_b)
        assert seen == [False, False, False, False, True, True]
        assert got.tolist() == [want[i, j] for i, j in zip(a, b)]
        assert only.tolist() == [want[i, j] for i, j in zip(full_a, full_b)]


@pytest.mark.filterwarnings("error")
def test_cells_below_tau_zero_warn_nothing():
    """Cells in (0, TAU_ZERO] on either side of a pair, exact zeros on both
    sides (0/0) and quotients past the float range (1 over the least
    subnormal) take the masked path, give the scalar definitions' bits and
    raise no RuntimeWarning: the max divergence divides and takes logs on
    both supports only, then sets the cells off either support."""
    tiny = 5e-324
    table = np.array([
        [1.0 - 2e-13, 1e-13, 1e-13, 0.0],
        [1.0 - 1e-12 - tiny, tiny, 1e-12, 0.0],
        [0.5, 0.5 - tiny, tiny, 0.0],
        [tiny, 1e-12, 0.5, 0.5 - 1e-12 - tiny],
    ])
    a, b = np.divmod(np.arange(len(table) ** 2), len(table))
    for divergence in DIVERGENCES:
        with recorded_paths() as seen:
            got = one_way(divergence, table, a, b)
        assert seen == [False]
        assert got.tolist() == [ref_value(divergence, table[i], table[j])
                                for i, j in zip(a, b)]


def test_generator_nan_raises_on_full_support_blocks():
    table = np.array([[0.25, 0.75], [0.5, 0.5]])
    nan = FDivergenceKind("nan", lambda t: np.full_like(t, np.nan))
    # -inf and +inf terms in one row sum to NaN
    split = FDivergenceKind("split", lambda t: np.where(t > 1.0, INF, -INF))
    with recorded_paths() as seen, np.errstate(invalid="ignore"):
        with pytest.raises(InvalidGeneratorError, match="NaN on valid ratios"):
            one_way(nan, table, [0, 1], [1, 0])
        with pytest.raises(InvalidGeneratorError, match="summing to NaN"):
            one_way(split, table, [0, 1], [1, 0])
    assert seen == [True, True]


@given(st.integers(1, 24), st.integers(0, 10**6))
def test_bounded_f_divergences_match_closed_forms(width, seed):
    """TV, Hellinger and reverse KL against formulas that know nothing of
    generators or supports, on rows with zeros on either side, over more
    pairs than fit in one block."""
    rng = np.random.default_rng(seed)
    table = np.array([random_row(rng, width) for _ in range(8)])
    # the kernel reads entries up to TAU_ZERO as zeros; the formulas do not
    table[table <= TAU_ZERO] = 0.0
    table /= table.sum(axis=1, keepdims=True)
    n = _BLOCK_CELLS // width + 37
    a = rng.integers(0, 8, n)
    b = rng.integers(0, 8, n)
    P, Q = table[a], table[b]
    tv = one_way(TOTAL_VARIATION, table, a, b)
    assert np.allclose(tv, 0.5 * np.abs(P - Q).sum(axis=1), rtol=0, atol=1e-12)
    hellinger = one_way(HELLINGER, table, a, b)
    assert np.allclose(hellinger, 1.0 - np.sqrt(P * Q).sum(axis=1),
                       rtol=0, atol=1e-12)
    # RKL(mu || nu) = KL(nu || mu)
    rkl = one_way(REVERSE_KL, table, a, b)
    kl_back = scipy.special.rel_entr(Q, P).sum(axis=1)
    assert np.array_equal(np.isinf(rkl), np.isinf(kl_back))
    finite = ~np.isinf(rkl)
    assert np.allclose(rkl[finite], kl_back[finite], rtol=1e-12, atol=1e-12)


def assert_matches_oracle(got, want):
    """Equal within 1e-9, with infinities compared exactly."""
    for value, expected in zip(got, want):
        if math.isinf(expected):
            assert value == expected
        else:
            assert value == pytest.approx(expected, abs=1e-9)


@given(st.integers(1, 7), st.integers(0, 10**6))
def test_delta_rows_equal_subset_oracle(width, seed):
    """The prefix rule against every event, on tie-heavy rows with zeros,
    at fixed slacks and at slacks 1e-6 either side of an event's mass."""
    rng = np.random.default_rng(seed)
    table = np.array([random_row(rng, width) for _ in range(8)])
    a = rng.integers(0, 8, 12)
    b = rng.integers(0, 8, 12)
    row = table[rng.integers(8)]
    mass = float(row[rng.random(width) < 0.5].sum())
    # No event of these rows weighs 0.05 or 0.45, so the rule and the oracle,
    # which sum in different orders, cannot round to opposite sides of them;
    # the slack at the support mass is in the next test.
    deltas = [0.05, 0.45] + [d for d in (mass - 1e-6, mass + 1e-6) if 0 < d < 1]
    for delta in deltas:
        got = one_way(MaxDivergence(delta), table, a, b)
        assert_matches_oracle(got.tolist(), [
            subset_oracle(table[i], table[j], delta) for i, j in zip(a, b)
        ])


def test_delta_rows_at_the_edges_equal_subset_oracle():
    """+inf where the reference misses a support label, -inf where the slack
    reaches or passes the support mass, and slacks 1e-6 either side of an
    event's mass. The rows are dyadic, so every event mass is exact."""
    table = np.array([
        [0.5, 0.25, 0.25, 0.0],
        [0.25, 0.25, 0.5, 0.0],
        [0.5, 0.0, 0.25, 0.25],   # misses label 1 of row 0
        [0.0, 0.0, 0.0, 1.0],     # disjoint from rows 0 and 1
        [0.375, 0.125, 0.0, 0.0],  # a sub-probability row: support mass 1/2
    ])
    left = np.array([0, 1, 0, 2, 0, 3, 4, 4])
    right = np.array([1, 0, 2, 0, 3, 0, 0, 1])
    for delta in (0.125, 0.25, 0.5, 0.75, 1.0,
                  0.375 - 1e-6, 0.375 + 1e-6, 0.75 - 1e-6, 0.75 + 1e-6,
                  0.5 - 1e-6, 0.5 + 1e-6):
        got = one_way(MaxDivergence(delta), table, left, right)
        want = [subset_oracle(table[i], table[j], delta)
                for i, j in zip(left, right)]
        assert_matches_oracle(got.tolist(), want)
    # the cases the edges are there for
    assert one_way(MaxDivergence(0.125), table, [0], [2])[0] == INF
    assert one_way(MaxDivergence(0.5), table, [4], [0])[0] == -INF
    assert one_way(MaxDivergence(0.75), table, [4], [0])[0] == -INF
    assert one_way(MaxDivergence(1.0), table, [0], [1])[0] == -INF


def test_rows_cover_inf_and_sentinel_values():
    table = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
    left, right = np.array([0, 1, 0]), np.array([1, 0, 0])
    assert one_way(MaxDivergence(), table, left, right).tolist() == [
        INF, math.log(2.0), 0.0,
    ]
    assert one_way(MaxDivergence(1.0), table, left, right).tolist() == [
        -INF, -INF, -INF,
    ]


def tied_row(rng, width):
    """A row of small integer weights, so that likelihood ratios tie often
    and zeros on the reference side give tied infinite ratios."""
    weights = rng.integers(0, 4, width).astype(float)
    if weights.sum() == 0.0:
        weights[rng.integers(width)] = 1.0
    return weights / weights.sum()


@contextmanager
def recorded_orders():
    """Every (ratios, counts, order) that the delta rule sorts with, copied:
    the kernel reuses its buffers from block to block. Ratios off the
    support are -inf, so the support count of a row is its number of ratios
    above -inf, and its order is read back from the transposed flat index
    that the sort returns."""
    seen = []
    sort = divergences._support_order

    def recording(ratios, work):
        flat = sort(ratios, work)
        rows, width = ratios.shape
        order = (flat - width * np.arange(rows)).T
        counts = np.count_nonzero(ratios > -INF, axis=1)
        seen.append((ratios.copy(), counts, order.copy()))
        return flat

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(divergences, "_support_order", recording)
        yield seen


@given(st.integers(2, 12), st.integers(0, 10**6))
def test_support_order_is_the_stable_order_across_blocks(width, seed):
    """The packed-key sort, sorted again stably only where it leaves a row
    unsorted, orders every support exactly as a stable sort by decreasing
    ratio does, on tie-heavy rows over more pairs than fit in one block.
    The first three pairs make sure of each kind of tie: exact finite ties
    (uniform against uniform), +inf ties (support labels where Q = 0) and
    -inf ratios off the support."""
    rng = np.random.default_rng(seed)
    uniform = np.full(width, 1.0 / width)
    point = np.eye(width)[0]
    table = np.array([uniform, point] + [tied_row(rng, width) for _ in range(8)])
    n = _BLOCK_CELLS // width + 37
    a, b = rng.integers(0, len(table), n), rng.integers(0, len(table), n)
    a[:3], b[:3] = (0, 0, 1), (0, 1, 0)
    with recorded_orders() as seen:
        one_way(MaxDivergence(0.3), table, a, b)
    assert len(seen) > 1
    first = seen[0][0][:3]
    assert np.all(first[0] == 1.0)  # exact ties
    assert np.sum(first[1] == INF) == width - 1  # +inf ties on the support
    assert np.sum(first[2] == -INF) == width - 1  # -inf off the support
    for ratios, counts, order in seen:
        stable = np.argsort(-ratios, axis=1, kind="stable")
        for row, count in enumerate(counts.tolist()):
            assert order[row, :count].tolist() == stable[row, :count].tolist()


def collided_row(reference):
    """A row whose ratios to ``reference`` are about 1 + k * 2**-52, k
    rising with the column: distinct, and alike in every bit but the lowest
    few, which the packed sort replaces by the column. The packed order
    then lists them by rising ratio, not falling, and only the stable
    fallback orders them."""
    return reference * (1.0 + (4 + np.arange(len(reference))) * 2.0**-52)


@pytest.mark.parametrize("width", [2, 20, 64, 65, 70])
def test_packed_sort_falls_back_where_low_bits_collide(width):
    """Ratios that differ only in the replaced low bits come out of the
    packed sort in column order, here rising; the row is found and sorted
    again stably, so the order and both values are exact."""
    reference = np.full(width, 1.0 / width)
    table = np.array([collided_row(reference), reference])
    ratios = table[0] / table[1]
    high = ratios.view(np.int64) >> (width - 1).bit_length()
    # two neighbours that rise in value but agree above the low bits
    assert np.any((np.diff(ratios) > 0.0) & (np.diff(high) == 0))
    with recorded_orders() as seen:
        there, back = _divergence_pairs(MaxDivergence(0.05), table, [0], [1])
    (ratios_seen, counts, order), = seen
    stable = np.argsort(-ratios_seen, axis=1, kind="stable")
    assert order[0].tolist() == stable[0].tolist() == list(range(width))[::-1]
    assert there.tolist() == [ref_prefix(table[0], table[1], 0.05)]
    assert back.tolist() == [ref_prefix(table[1], table[0], 0.05)]


@settings(max_examples=40)
@given(st.integers(2, 70), st.sampled_from(["full", "sparse", "tied"]),
       st.integers(0, 10**6))
def test_both_orders_equal_the_one_pair_values(width, family, seed):
    """One evaluation of each unordered pair gives D(a || b) and D(b || a),
    each equal bit for bit (``float.hex``) to ``divergence_value`` of that
    order, for every divergence: on full, sparse and tie-heavy tables,
    widths from 2 to 70 (past the 64 columns that six low bits index), a
    row whose ratios to another collide in the low bits (against it both
    ways round first), an exact copy of a row, and pair lists that span
    three blocks."""
    rng = np.random.default_rng(seed)
    make = {"full": full_row, "sparse": sparse_row, "tied": tied_row}[family]
    rows = [make(rng, width) for _ in range(5)]
    table = np.array(rows + [rows[1], collided_row(rows[1]), rows[0]])
    n = 2 * (_BLOCK_CELLS // width) + 37
    a, b = rng.integers(0, len(table), (2, n))
    a[:2], b[:2] = (6, 5), (5, 6)
    dists = [FiniteDistribution(labels(width, "y"), row) for row in table]
    for divergence in DIVERGENCES:
        there, back = _divergence_pairs(divergence, table, a, b)
        value = {(i, j): divergence_value(divergence, dists[i], dists[j]).hex()
                 for i in range(len(table)) for j in range(len(table))}
        assert [v.hex() for v in there.tolist()] == [value[i, j]
                                                      for i, j in zip(a, b)]
        assert [v.hex() for v in back.tolist()] == [value[j, i]
                                                     for i, j in zip(a, b)]


@settings(max_examples=20)
@given(st.integers(1, 24), st.integers(1, 40), st.integers(0, 10**6))
def test_rows_do_not_depend_on_the_block_size(width, pairs, seed):
    """Every divergence gives the same bits at 64-cell blocks (a row or a
    few per block), at 4,096 cells and at the default, on tables of fewer
    rows than one block (as the lifted tables of distribution audits are)
    and on pair lists that span several 4,096-cell blocks."""
    rng = np.random.default_rng(seed)
    table = np.array([random_row(rng, width) for _ in range(3)])
    long = (1 << 12) // width + 37
    shapes = [rng.integers(0, 3, (2, pairs)), rng.integers(0, 3, (2, long))]
    for divergence in DIVERGENCES:
        got = {}
        for cells in (1 << 6, 1 << 12, _BLOCK_CELLS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(divergences, "_BLOCK_CELLS", cells)
                got[cells] = [
                    [v.hex() for v in
                     one_way(divergence, table, a, b).tolist()]
                    for a, b in shapes
                ]
        assert got[1 << 6] == got[1 << 12] == got[_BLOCK_CELLS]
        one = [ref_value(divergence, table[i], table[j]).hex()
               for i, j in zip(*shapes[0])]
        assert got[_BLOCK_CELLS][0] == one


@given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=40),
       st.integers(0, 10**6))
def test_slack_at_the_support_mass_is_minus_inf(weights, seed):
    """No event of P weighs more than 1, or more than the support mass, so
    those slacks give exactly -inf, whatever the running sums round to; on
    rows normalized by division, and on sub-probability rows."""
    rng = np.random.default_rng(seed)
    weights = np.array(weights)
    if not np.any(weights > 1e-3):
        weights[0] = 1.0
    rows = [weights / weights.sum()]
    for _ in range(3):
        row = rows[0].copy()
        row[rng.random(len(row)) < 0.4] = 0.0
        if np.any(row > TAU_ZERO):
            rows.append(row)
    others = [rng.dirichlet(np.ones(len(weights))) for _ in range(3)]
    table = np.array(rows + others + [rows[0] * 0.0 + 1.0 / len(weights)])
    right = np.arange(len(rows), len(table))
    for i, row in enumerate(rows):
        support = math.fsum(row[row > TAU_ZERO])
        for delta in {1.0, min(1.0, support), min(1.0, float(np.sum(row)))}:
            left = np.full(len(right), i)
            got = one_way(MaxDivergence(delta), table, left, right)
            assert got.tolist() == [-INF] * len(right)


def ref_effective_epsilon(matrix, cost):
    worst = 0.0
    n = len(matrix)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            level = ref_max(matrix[a], matrix[b])
            d = cost[a, b]
            if d <= TAU_ZERO:
                if level > TAU_NUM:
                    worst = math.inf
                continue
            worst = max(worst, level / d)
    return worst


def ref_delta_required(kernel, phi, epsilon):
    scale = math.exp(epsilon)
    worst = 0.0
    for a, b in phi:
        pa = kernel.matrix[kernel.input_index(a)]
        pb = kernel.matrix[kernel.input_index(b)]
        fwd = float(np.sum(np.maximum(0.0, pa - scale * pb)))
        bwd = float(np.sum(np.maximum(0.0, pb - scale * pa)))
        worst = max(worst, fwd, bwd)
    return worst


def test_geometric_and_delta_required_span_blocks(rng):
    n = 30
    ground = labels(n)
    assert n * (n - 1) * n > _BLOCK_CELLS
    points = rng.random((n, 2))
    points[7] = points[3]  # a zero-distance twin
    cost = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    metric = GroundMetric(ground, cost)
    for epsilon in (0.5, 3.0, 900.0):  # the last underflows rows to zeros
        mech = geometric_mechanism(ground, epsilon, metric)
        want = ref_effective_epsilon(mech.kernel.matrix, cost)
        assert mech.effective_epsilon == want
    phi = PointRelation.full(ground)
    kernel = StochasticKernel(ground, labels(n, "y"),
                              rng.dirichlet(np.ones(n), size=n))
    for epsilon in (0.0, 0.3, 2.0):
        assert delta_required(kernel, phi, epsilon) == ref_delta_required(
            kernel, phi, epsilon
        )
