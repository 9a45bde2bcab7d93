"""Each distinct ordered pair of rows is evaluated once per kernel.

The auditors and ``delta_required`` take every pair in both directions. On
a symmetric relation the backward direction of (a, b) is the forward
direction of (b, a), so the row kernel is asked for each ordered pair of
table rows once and the values are scattered into both columns. A kernel
keeps the divergences of the row pairs evaluated so far in a memo, per
divergence, so a later audit of the same kernel evaluates only the pairs
no earlier call has: the label audits and ``geometric_mechanism`` read
through it. The counters below wrap the row function and count the rows
it evaluates. The values are compared bit for bit (``float.hex``) with two
plain ``_divergence_rows`` calls, one per direction.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distp import (
    CHI_SQUARED,
    KL,
    STANDARD_KINDS,
    FDivergenceKind,
    GroundMetric,
    MaxDivergence,
    PointRelation,
    StochasticKernel,
    audit_div_dp,
    audit_div_xdp,
    build_coupling_mechanism,
    check_cp_theorem,
    delta_required,
    geometric_mechanism,
)
from distp import divergences
from distp.divergences import _BLOCK_CELLS, _divergence_columns, _divergence_rows
from distp.finite_prob import _point_plan, _sorted_distinct
from conftest import labels, rand_dist, rand_kernel, tilted

DIVERGENCES = STANDARD_KINDS + (MaxDivergence(), MaxDivergence(0.1))
# Repeated rows make exact ties; the zero in the last row makes the max
# divergence and KL +inf against the others, and the delta variant -inf at
# delta 1.
PALETTE = np.array([
    [0.5, 0.25, 0.25],
    [0.25, 0.5, 0.25],
    [0.6, 0.4, 0.0],
    [0.1, 0.2, 0.7],
])


@contextmanager
def counted():
    """Counts the rows every row function evaluates while the block is open."""
    seen = [0]
    blocked = divergences._blocked_rows

    def counting(rows, table, left, right):
        def wrapped(P, Q, full):
            seen[0] += len(P)
            return rows(P, Q, full)

        return blocked(wrapped, table, left, right)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(divergences, "_blocked_rows", counting)
        yield seen


def audited_rows(kernel, phi, divergence=KL, **options):
    with counted() as seen:
        audit_div_dp(kernel, phi, divergence, **options)
    return seen[0]


def twin(kernel):
    """A distinct kernel with an equal matrix: a memo of its own."""
    return StochasticKernel(kernel.inputs, kernel.outputs, kernel.matrix)


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("divergence", DIVERGENCES, ids=lambda d: d.name)
def test_full_relation_evaluates_each_ordered_pair_once(rng, divergence):
    n = 45
    kernel = rand_kernel(rng, labels(n), labels(12, "y"))
    phi = PointRelation.full(kernel.inputs)
    assert n * (n - 1) * 12 > _BLOCK_CELLS  # the distinct pairs span blocks
    assert audited_rows(kernel, phi, divergence) == n * (n - 1)
    assert audited_rows(kernel, phi, divergence) == 0
    with_self = PointRelation.full(kernel.inputs, include_self=True)
    # the same kernel evaluates only the self pairs it has not seen
    assert audited_rows(kernel, with_self, divergence) == n
    assert audited_rows(twin(kernel), with_self, divergence) == n * n


def test_small_relations_count_their_distinct_ordered_pairs(rng):
    kernel = rand_kernel(rng, labels(3), labels(4, "y"))
    relations = [
        PointRelation([("x0", "x1")]),
        PointRelation([("x1", "x1")]),
        PointRelation([("x0", "x1"), ("x1", "x0")]),
        PointRelation([("x0", "x1"), ("x1", "x0"), ("x0", "x0"), ("x2", "x1")]),
    ]
    # a fresh kernel each time evaluates every distinct ordered pair
    assert [audited_rows(twin(kernel), phi) for phi in relations] == [2, 1, 2, 5]
    # one kernel throughout evaluates only the pairs it has not seen:
    # (x0, x1) both ways, (x1, x1), nothing, then (x0, x0) and (x2, x1) both ways
    assert [audited_rows(kernel, phi) for phi in relations] == [2, 1, 0, 3]


def test_delta_required_evaluates_each_ordered_pair_once(rng):
    n = 20
    kernel = rand_kernel(rng, labels(n), labels(5, "y"))
    with counted() as seen:
        delta_required(kernel, PointRelation.full(kernel.inputs), 0.3)
    assert seen[0] == n * (n - 1)
    with counted() as seen:
        delta_required(kernel, PointRelation([("x3", "x3"), ("x1", "x2")]), 0.3)
    assert seen[0] == 3


def test_cp_theorem_evaluates_each_ordered_aux_pair_once(rng):
    ground = labels(4, "y")
    aux = ("s", "t", "u", "v")
    approx = {s: rand_dist(rng, ground) for s in aux}
    spec = build_coupling_mechanism(rand_dist(rng, ground), approx, "northwest")
    actual = {s: tilted(rng, lam, 0.05) for s, lam in approx.items()}
    with counted() as seen:
        report = check_cp_theorem(spec, actual)
    # the aux pairs i <= j, self pairs included: each divergence evaluates
    # the ordered pairs (i, j) and (j, i) of distinct values and each self
    # pair once, and the "kl" and "f:kl" checks share KL; the estimation
    # level takes each estimate against its true input both ways round
    divergences_checked = len({check.report.divergence for check in report.checks})
    assert len(report.checks) == divergences_checked + 1
    assert seen[0] == divergences_checked * len(aux) ** 2 + 2 * len(aux)


def palette_kernel(rows):
    return StochasticKernel(labels(len(rows)), labels(3, "y"), PALETTE[list(rows)])


def plain_columns(divergence, table, left, right):
    return (
        _divergence_rows(divergence, table, left, right),
        _divergence_rows(divergence, table, right, left),
    )


@given(
    st.lists(st.integers(0, 3), min_size=2, max_size=6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1,
             max_size=12),
)
def test_columns_equal_two_plain_calls(rows, pairs):
    kernel = palette_kernel(rows)
    ground = kernel.inputs
    phi = PointRelation(
        (ground[a % len(ground)], ground[b % len(ground)]) for a, b in pairs
    )
    plan = _point_plan(phi, kernel)
    for divergence in DIVERGENCES:
        want = plain_columns(divergence, kernel.matrix, plan.left, plan.right)
        got = _divergence_columns(divergence, kernel.matrix, plan)
        report = audit_div_dp(kernel, phi, divergence)
        for column, got_column, reported in zip(want, got, (report.forward,
                                                           report.backward)):
            assert hexes(got_column) == hexes(column)
            assert hexes(reported) == hexes(column)


def test_mirrored_pairs_keep_their_directions():
    # an asymmetric divergence on both orders of one pair, a one-sided pair
    # and a self pair; +inf only one way round
    kernel = palette_kernel([0, 2, 3])
    phi = PointRelation([("x0", "x1"), ("x1", "x0"), ("x2", "x0"), ("x2", "x2")])
    report = audit_div_dp(kernel, phi, MaxDivergence())
    forward, backward = report.forward.tolist(), report.backward.tolist()
    assert forward[0] == math.inf and math.isfinite(forward[1])
    assert backward[:2] == forward[1::-1]
    assert backward[3] == forward[3] == 0.0
    plan = _point_plan(phi, kernel)
    for divergence in DIVERGENCES:
        want = plain_columns(divergence, kernel.matrix, plan.left, plan.right)
        report = audit_div_dp(kernel, phi, divergence)
        assert hexes(report.forward) == hexes(want[0])
        assert hexes(report.backward) == hexes(want[1])


@given(st.integers(0, 10**6), st.sampled_from([0.0, 0.2, 1.5]))
def test_delta_required_equals_both_directions_computed_apart(seed, epsilon):
    rng = np.random.default_rng(seed)
    kernel = palette_kernel(rng.integers(0, 4, 5))
    ground = kernel.inputs
    phi = PointRelation(
        (ground[a], ground[b]) for a, b in rng.integers(0, 5, (rng.integers(1, 9), 2))
    )
    plan = _point_plan(phi, kernel)
    left, right = plan.left, plan.right
    m, scale = kernel.matrix, math.exp(epsilon)
    fwd = np.maximum(0.0, m[left] - scale * m[right]).sum(axis=1)
    bwd = np.maximum(0.0, m[right] - scale * m[left]).sum(axis=1)
    want = max(0.0, float(fwd.max()), float(bwd.max()))
    assert delta_required(kernel, phi, epsilon).hex() == want.hex()


def test_later_calls_on_one_kernel_evaluate_no_pair_again(rng):
    n = 12
    ground = labels(n)
    metric = GroundMetric.line(ground)
    phi = PointRelation.full(ground)
    kernel = rand_kernel(rng, ground, labels(5, "y"))
    for divergence in (KL, MaxDivergence(), MaxDivergence(0.1)):
        assert audited_rows(kernel, phi, divergence) == n * (n - 1)
        with counted() as seen:
            audit_div_dp(kernel, phi, divergence)
            audit_div_xdp(kernel, phi, metric, divergence)
        assert seen[0] == 0
    # geometric_mechanism evaluates the max divergence of every ordered pair
    # of distinct rows, so the full relation's max audits find them all
    with counted() as seen:
        mech = geometric_mechanism(ground, 1.5, metric)
    assert seen[0] == n * (n - 1)
    with counted() as seen:
        audit_div_dp(mech.kernel, phi, MaxDivergence())
        audit_div_xdp(mech.kernel, phi, metric, MaxDivergence())
    assert seen[0] == 0
    # a delta, a distinct kernel with an equal matrix: evaluated afresh
    assert audited_rows(mech.kernel, phi, MaxDivergence(0.2)) == n * (n - 1)
    assert audited_rows(twin(mech.kernel), phi, MaxDivergence()) == n * (n - 1)


@given(
    st.lists(st.integers(0, 3), min_size=2, max_size=6),
    st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      min_size=1, max_size=8), min_size=1, max_size=4),
)
def test_memo_hits_equal_plain_calls(rows, relations):
    """Audits of one kernel over several relations, each read partly from
    the memo, equal plain ``_divergence_rows`` calls bit for bit, +inf and
    -inf rows of PALETTE included."""
    kernel = palette_kernel(rows)
    ground = kernel.inputs
    for pairs in relations:
        phi = PointRelation(
            (ground[a % len(ground)], ground[b % len(ground)]) for a, b in pairs
        )
        plan = _point_plan(phi, kernel)
        for divergence in DIVERGENCES + (MaxDivergence(1.0),):
            want = plain_columns(divergence, kernel.matrix, plan.left, plan.right)
            report = audit_div_dp(kernel, phi, divergence)
            assert hexes(report.forward) == hexes(want[0])
            assert hexes(report.backward) == hexes(want[1])


class Unhashable:
    """A generator that cannot key a memo."""

    __hash__ = None

    def __call__(self, t):
        return (t - 1.0) ** 2


def test_a_kind_that_cannot_be_hashed_is_evaluated_without_the_memo(rng):
    kernel = rand_kernel(rng, labels(5), labels(4, "y"))
    phi = PointRelation.full(kernel.inputs)
    kind = FDivergenceKind("chi2-copy", Unhashable())
    assert audited_rows(kernel, phi, kind) == 20
    assert audited_rows(kernel, phi, kind) == 20
    want = audit_div_dp(twin(kernel), phi, CHI_SQUARED)
    got = audit_div_dp(kernel, phi, kind)
    assert hexes(got.forward) == hexes(want.forward)
    assert hexes(got.backward) == hexes(want.backward)


@settings(max_examples=60)
@given(
    st.integers(0, 10**6),
    st.booleans(),
    st.lists(st.tuples(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                                min_size=1, max_size=10), st.booleans()),
             min_size=1, max_size=4),
)
def test_memo_stays_sorted_distinct_and_exact(seed, full, batches):
    """Batches of ordered row pairs into one memo: fresh, disjoint,
    overlapping and repeated, each in the order drawn or in the sorted,
    distinct order a pair plan gives (which a first batch stores as it
    comes). After every call the memo's codes are sorted and distinct, every
    value it holds and every value returned equals a plain call bit for bit,
    +inf and -inf rows of PALETTE included, and overwriting a returned array
    leaves the memo as it was."""
    rng = np.random.default_rng(seed)
    if full:
        table = rng.dirichlet(np.ones(3), 6) + 1e-3
        table /= table.sum(axis=1, keepdims=True)
    else:
        table = PALETTE[rng.integers(0, 4, 6)]
    n = len(table)
    memo: dict = {}
    for pairs, plan_order in batches:
        left, right = np.array(pairs, dtype=np.intp).T
        if plan_order:
            codes = _sorted_distinct(left * n + right)
            left, right = codes // n, codes % n
        for divergence in DIVERGENCES + (MaxDivergence(1.0),):
            got = _divergence_rows(divergence, table, left, right, memo)
            assert hexes(got) == hexes(_divergence_rows(divergence, table,
                                                        left, right))
            got.fill(np.nan)
            codes, values = memo[divergence]
            assert np.all(codes[1:] > codes[:-1])
            assert hexes(values) == hexes(_divergence_rows(
                divergence, table, codes // n, codes % n))
