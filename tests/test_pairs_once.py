"""Each distinct unordered pair of rows is evaluated once per kernel.

The auditors and ``delta_required`` take every pair in both directions, and
the row kernel evaluates each unordered pair of table rows {a, b} once, in
both orders: the forward direction of (a, b) and of (b, a) read the same
evaluation. A kernel keeps the divergences of the row pairs evaluated so
far in a memo, per divergence, so a later audit of the same kernel
evaluates only the pairs no earlier call has: the label audits and
``geometric_mechanism`` read through it. The counts are read from the row
kernel's counter record, ``divergences.COUNTS``. The values are compared
bit for bit (``float.hex``) with two plain one-way calls, one per
direction.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distp import (
    CHI_SQUARED,
    KL,
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
from distp import audit, divergences
from distp.audit import NOTION_DP, _audit
from distp.divergences import _BLOCK_CELLS, _divergence_pairs
from distp.finite_prob import _point_plan
from conftest import (
    DIVERGENCES,
    PALETTE,
    hexes,
    kernel_count,
    labels,
    one_way,
    palette_kernel,
    rand_dist,
    rand_kernel,
    tilted,
)


def evaluated(*calls, kind="pairs"):
    """The row kernel's counter ``kind`` over ``calls``: the unordered row
    pairs they evaluate, or the ones they read from a memo."""
    before = kernel_count(kind)
    for call in calls:
        call()
    return kernel_count(kind) - before


def audited_rows(kernel, phi, divergence=KL):
    return evaluated(lambda: audit_div_dp(kernel, phi, divergence))


def twin(kernel):
    """A distinct kernel with an equal matrix: a memo of its own."""
    return StochasticKernel(kernel.inputs, kernel.outputs, kernel.matrix)


@pytest.mark.parametrize("divergence", DIVERGENCES, ids=lambda d: d.name)
def test_full_relation_evaluates_each_ordered_pair_once(rng, divergence):
    n = 45
    kernel = rand_kernel(rng, labels(n), labels(12, "y"))
    phi = PointRelation.full(kernel.inputs)
    pairs = n * (n - 1) // 2
    assert pairs * 12 > _BLOCK_CELLS  # the distinct pairs span blocks
    assert audited_rows(kernel, phi, divergence) == pairs
    hits = evaluated(lambda: audit_div_dp(kernel, phi, divergence),
                     kind="memo hits")
    assert hits == pairs
    assert audited_rows(kernel, phi, divergence) == 0
    with_self = PointRelation.full(kernel.inputs, include_self=True)
    # the same kernel evaluates only the self pairs it has not seen
    assert audited_rows(kernel, with_self, divergence) == n
    assert audited_rows(twin(kernel), with_self, divergence) == pairs + n


def test_counts_are_kept_per_divergence(rng):
    n = 7
    kernel = rand_kernel(rng, labels(n), labels(4, "y"))
    phi = PointRelation.full(kernel.inputs)
    names = ("kl", "max", "max(delta=0.1)", "delta_required")

    def counts():
        return {name: (kernel_count("pairs", name),
                       kernel_count("memo hits", name)) for name in names}

    before = counts()
    audit_div_dp(kernel, phi, KL)
    audit_div_dp(kernel, phi, KL)
    audit_div_dp(kernel, phi, MaxDivergence(0.1))
    delta_required(kernel, phi, 0.5)
    pairs = n * (n - 1) // 2
    after = counts()
    moved = {name: (after[name][0] - before[name][0],
                    after[name][1] - before[name][1]) for name in names}
    assert moved == {"kl": (pairs, pairs), "max": (0, 0),
                     "max(delta=0.1)": (pairs, 0),
                     "delta_required": (pairs, 0)}


def test_small_relations_count_their_distinct_ordered_pairs(rng):
    kernel = rand_kernel(rng, labels(3), labels(4, "y"))
    relations = [
        PointRelation([("x0", "x1")]),
        PointRelation([("x1", "x1")]),
        PointRelation([("x0", "x1"), ("x1", "x0")]),
        PointRelation([("x0", "x1"), ("x1", "x0"), ("x0", "x0"), ("x2", "x1")]),
    ]
    # a fresh kernel each time evaluates every distinct unordered pair
    fresh = [audited_rows(twin(kernel), phi) for phi in relations]
    assert fresh == [1, 1, 1, 3]
    # one kernel throughout evaluates only the pairs it has not seen:
    # {x0, x1}, {x1, x1}, nothing, then {x0, x0} and {x1, x2}
    assert [audited_rows(kernel, phi) for phi in relations] == [1, 1, 0, 2]


def test_delta_required_evaluates_each_ordered_pair_once(rng):
    n = 20
    kernel = rand_kernel(rng, labels(n), labels(5, "y"))
    assert evaluated(lambda: delta_required(
        kernel, PointRelation.full(kernel.inputs), 0.3)) == n * (n - 1) // 2
    assert evaluated(lambda: delta_required(
        kernel, PointRelation([("x3", "x3"), ("x1", "x2")]), 0.3)) == 2


def test_cp_theorem_evaluates_each_ordered_aux_pair_once(rng):
    ground = labels(4, "y")
    aux = ("s", "t", "u", "v")
    approx = {s: rand_dist(rng, ground) for s in aux}
    spec = build_coupling_mechanism(rand_dist(rng, ground), approx, "northwest")
    actual = {s: tilted(rng, lam, 0.05) for s, lam in approx.items()}
    reports = []
    seen = evaluated(lambda: reports.append(check_cp_theorem(spec, actual)))
    # the aux pairs i <= j, self pairs included: each divergence evaluates
    # each of them once, in both orders, and the "kl" and "f:kl" checks
    # share KL; the estimation level takes each estimate and its true input
    # as one pair, both ways round
    report, = reports
    divergences_checked = len({check.report.divergence for check in report.checks})
    assert len(report.checks) == divergences_checked + 1
    m = len(aux)
    assert seen == divergences_checked * m * (m + 1) // 2 + m


def plain_columns(divergence, table, left, right):
    return (
        one_way(divergence, table, left, right),
        one_way(divergence, table, right, left),
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
        plain = _audit(NOTION_DP, divergence, plan, kernel.matrix, None)
        got = plain.forward, plain.backward
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
    pairs = n * (n - 1) // 2
    for divergence in (KL, MaxDivergence(), MaxDivergence(0.1)):
        assert audited_rows(kernel, phi, divergence) == pairs
        assert evaluated(lambda: audit_div_dp(kernel, phi, divergence),
                         lambda: audit_div_xdp(kernel, phi, metric,
                                               divergence)) == 0
    # geometric_mechanism evaluates the max divergence of every unordered
    # pair of distinct rows, so the full relation's max audits find them all
    mechs = []
    assert evaluated(lambda: mechs.append(
        geometric_mechanism(ground, 1.5, metric))) == pairs
    mech, = mechs
    assert evaluated(lambda: audit_div_dp(mech.kernel, phi, MaxDivergence()),
                     lambda: audit_div_xdp(mech.kernel, phi, metric,
                                           MaxDivergence())) == 0
    # a delta, a distinct kernel with an equal matrix: evaluated afresh
    assert audited_rows(mech.kernel, phi, MaxDivergence(0.2)) == pairs
    assert audited_rows(twin(mech.kernel), phi, MaxDivergence()) == pairs


@given(
    st.lists(st.integers(0, 3), min_size=2, max_size=6),
    st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      min_size=1, max_size=8), min_size=1, max_size=4),
)
def test_memo_hits_equal_plain_calls(rows, relations):
    """Audits of one kernel over several relations, each read partly from
    the memo, equal plain one-way calls bit for bit, +inf and
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
    assert audited_rows(kernel, phi, kind) == 10
    assert audited_rows(kernel, phi, kind) == 10
    want = audit_div_dp(twin(kernel), phi, CHI_SQUARED)
    got = audit_div_dp(kernel, phi, kind)
    assert hexes(got.forward) == hexes(want.forward)
    assert hexes(got.backward) == hexes(want.backward)


@settings(max_examples=60)
@given(
    st.integers(0, 10**6),
    st.booleans(),
    st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      min_size=1, max_size=10), min_size=1, max_size=4),
)
def test_memo_table_holds_exactly_the_pairs_asked_for(seed, full, batches):
    """Batches of row pairs into one memo, each as drawn: unsorted,
    mirrored and repeated pairs, in fresh, disjoint, overlapping, repeated
    and subset batches. After every call the memo is one square array per
    divergence; every pair asked for so far holds, in both orders, a plain
    one-way call's value bit for bit, +inf and -inf rows of PALETTE
    included, and every other entry is NaN; every value returned equals
    the plain call; and overwriting the returned arrays leaves the memo as
    it was."""
    rng = np.random.default_rng(seed)
    if full:
        table = rng.dirichlet(np.ones(3), 6) + 1e-3
        table /= table.sum(axis=1, keepdims=True)
    else:
        table = PALETTE[rng.integers(0, 4, 6)]
    n = len(table)
    memo: dict = {}
    asked = np.zeros((n, n), dtype=bool)
    for pairs in batches:
        left, right = np.array(pairs, dtype=np.intp).T
        asked[left, right] = asked[right, left] = True
        low, high = np.nonzero(asked)
        for divergence in DIVERGENCES + (MaxDivergence(1.0),):
            there, back = _divergence_pairs(divergence, table, left, right,
                                            memo)
            assert hexes(there) == hexes(one_way(divergence, table, left,
                                                 right))
            assert hexes(back) == hexes(one_way(divergence, table, right,
                                                left))
            there.fill(np.nan)
            back.fill(np.nan)
            known = memo[divergence]
            assert known.shape == (n, n)
            assert np.isnan(known[~asked]).all()
            assert hexes(known[low, high]) == hexes(one_way(divergence, table,
                                                            low, high))


@pytest.mark.parametrize("divergence", DIVERGENCES, ids=lambda d: d.name)
def test_pairs_asked_for_in_any_order_are_evaluated_once(divergence):
    """A first batch out of canonical order, (3, 5), (4, 1), (0, 2), asked
    for again lower row first and sorted, is read from the memo whole."""
    table = PALETTE[[0, 1, 2, 3, 1, 2]]
    memo: dict = {}

    def ask(left, right):
        return _divergence_pairs(divergence, table, np.array(left),
                                 np.array(right), memo)

    assert evaluated(lambda: ask([3, 4, 0], [5, 1, 2])) == 3
    assert evaluated(lambda: ask([0, 1, 3], [2, 4, 5])) == 0
    assert evaluated(lambda: ask([2, 5, 5, 1], [0, 3, 3, 4])) == 0
    there, back = ask([2, 1], [0, 4])
    assert hexes(there) == hexes(one_way(divergence, table, [2, 1], [0, 4]))
    assert hexes(back) == hexes(one_way(divergence, table, [0, 4], [2, 1]))


def test_every_memo_call_passes_canonical_pairs(rng, monkeypatch):
    """Each call that passes a memo, from the label audits,
    ``geometric_mechanism`` and ``check_cp_theorem``, lists its row pairs
    lower row first, sorted and distinct, so that it evaluates each
    unordered pair once; the memo would take them in any order. The
    relation itself names pairs in both orders, repeats one and names a
    self pair."""
    seen = []

    def spy(divergence, table, left, right, memo=None):
        if memo is not None:
            seen.append((np.asarray(left), np.asarray(right), len(table)))
        return _divergence_pairs(divergence, table, left, right, memo)

    monkeypatch.setattr(audit, "_divergence_pairs", spy)
    monkeypatch.setattr(divergences, "_divergence_pairs", spy)
    ground = labels(6)
    metric = GroundMetric.line(ground)
    kernel = rand_kernel(rng, ground, labels(4, "y"))
    phi = PointRelation([("x4", "x1"), ("x1", "x4"), ("x0", "x5"),
                         ("x3", "x3"), ("x5", "x2"), ("x4", "x1")])
    aux = ("s", "t", "u")
    approx = {s: rand_dist(rng, labels(4, "y")) for s in aux}
    spec = build_coupling_mechanism(rand_dist(rng, labels(4, "y")), approx,
                                    "northwest")
    actual = {s: tilted(rng, lam, 0.05) for s, lam in approx.items()}
    calls = [
        lambda: audit_div_dp(kernel, phi, KL),
        lambda: audit_div_xdp(kernel, phi, metric, MaxDivergence(0.1)),
        lambda: geometric_mechanism(ground, 0.7, metric),
        lambda: check_cp_theorem(spec, actual),
    ]
    for call in calls:
        before = len(seen)
        call()
        assert len(seen) > before
    for left, right, n in seen:
        codes = left * n + right
        assert np.all(left <= right)
        assert np.all(codes[1:] > codes[:-1])
