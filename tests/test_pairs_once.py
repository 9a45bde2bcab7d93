"""Each distinct ordered pair of rows is evaluated once per audit.

The auditors and ``delta_required`` take every pair in both directions. On
a symmetric relation the backward direction of (a, b) is the forward
direction of (b, a), so the row kernel is asked for each ordered pair of
table rows once and the values are scattered into both columns. The
counters below wrap the row function and count the rows it evaluates. The
values are compared bit for bit (``float.hex``) with two plain
``_divergence_rows`` calls, one per direction.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from distp import (
    KL,
    STANDARD_KINDS,
    MaxDivergence,
    PointRelation,
    StochasticKernel,
    audit_div_dp,
    build_coupling_mechanism,
    check_cp_theorem,
    delta_required,
)
from distp import divergences
from distp.divergences import _BLOCK_CELLS, _divergence_columns, _divergence_rows
from distp.finite_prob import _point_plan
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
        def wrapped(P, Q):
            seen[0] += len(P)
            return rows(P, Q)

        return blocked(wrapped, table, left, right)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(divergences, "_blocked_rows", counting)
        yield seen


def audited_rows(kernel, phi, divergence=KL, **options):
    with counted() as seen:
        audit_div_dp(kernel, phi, divergence, **options)
    return seen[0]


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("divergence", DIVERGENCES, ids=lambda d: d.name)
def test_full_relation_evaluates_each_ordered_pair_once(rng, divergence):
    n = 30
    kernel = rand_kernel(rng, labels(n), labels(12, "y"))
    phi = PointRelation.full(kernel.inputs)
    assert n * (n - 1) * 12 > _BLOCK_CELLS  # the distinct pairs span blocks
    assert audited_rows(kernel, phi, divergence) == n * (n - 1)
    with_self = PointRelation.full(kernel.inputs, include_self=True)
    assert audited_rows(kernel, with_self, divergence) == n * n


def test_small_relations_count_their_distinct_ordered_pairs(rng):
    kernel = rand_kernel(rng, labels(3), labels(4, "y"))
    assert audited_rows(kernel, PointRelation([("x0", "x1")])) == 2
    assert audited_rows(kernel, PointRelation([("x1", "x1")])) == 1
    assert audited_rows(kernel, PointRelation([("x0", "x1"), ("x1", "x0")])) == 2
    assert audited_rows(
        kernel, PointRelation([("x0", "x1"), ("x1", "x0"), ("x0", "x0"),
                               ("x2", "x1")])
    ) == 5


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
    # the aux pairs i <= j, self pairs included: each check evaluates the
    # ordered pairs (i, j) and (j, i) of distinct values and each self pair once
    assert seen[0] == len(report.checks) * len(aux) ** 2


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
