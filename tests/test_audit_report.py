"""Columnar audit reports against the eager construction they replace.

``eager_report`` below builds a report the way the auditors did before
reports kept columns: one ``PairAudit`` per pair, made up front, with the
worst pair and the observed level read off those objects. Every auditor and
every check of ``check_cp_theorem`` is run with the shared core wrapped, so
each report is compared with the eager construction from the same inputs.
Floats are compared bit for bit (``float.hex``), never approximately.
"""

import math
import re
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from distp import (
    KL,
    DistributionPair,
    DistributionPairRelation,
    GroundMetric,
    MaxDivergence,
    PairAudit,
    PointRelation,
    UnknownLabelError,
    audit_distp,
    audit_div_dp,
    audit_div_xdp,
    audit_xdistp,
    build_coupling_mechanism,
    check_cp_theorem,
    pair_label,
)
from distp import audit as core
from distp.divergences import _per_distance
from distp.tolerances import TAU_NUM
from conftest import (
    DIVERGENCES,
    labels,
    one_way,
    palette_kernel,
    rand_dist,
    rand_kernel,
    tilted,
)


def eager_report(notion, divergence, plan, table, claimed, *, distances=None,
                 memo=None):
    """The report fields as the auditors built them with eager pairs. The
    row-pair ``memo`` is not consulted: every value is evaluated afresh."""
    labels, left, right = plan.labels, plan.left, plan.right
    forward = one_way(divergence, table, left, right)
    backward = one_way(divergence, table, right, left)
    if distances is not None:
        forward = _per_distance(forward, distances)
        backward = _per_distance(backward, distances)
    pairs = tuple(
        PairAudit(label, fwd, bwd, claimed)
        for label, fwd, bwd in zip(labels, forward.tolist(), backward.tolist())
    )
    worst = int(np.argmax(np.maximum(forward, backward)))
    return {
        "notion": notion,
        "divergence": divergence.name,
        "claimed_eps": claimed,
        "observed_eps": pairs[worst].value,
        "worst_pair": labels[worst],
        "pairs": pairs,
    }


def eager_dict(fields, tau_num):
    claimed = fields["claimed_eps"]
    passed = claimed is None or fields["observed_eps"] <= claimed + tau_num
    return {
        **fields,
        "verdict": "pass" if passed else "fail",
        "pairs": [p.to_dict(tau_num) for p in fields["pairs"]],
    }


def bits(value):
    """``value`` with every float replaced by its exact hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    if isinstance(value, PairAudit):
        return [type(value.forward), type(value.backward),
                bits([value.pair, value.forward, value.backward, value.bound])]
    return value


@contextmanager
def audited():
    """Collects every report the shared core returns, with its eager
    counterpart, and checks them all on exit."""
    seen = []
    shared = core._audit

    def recording(*args, **kwargs):
        report = shared(*args, **kwargs)
        seen.append((report, eager_report(*args, **kwargs)))
        return report

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_audit", recording)
        yield seen
    assert_same_as_eager(seen)


def assert_same_as_eager(seen):
    assert seen
    for report, want in seen:
        assert bits(report.observed_eps) == bits(want["observed_eps"])
        assert report.worst_pair == want["worst_pair"]
        assert bits(report.pairs) == bits(want["pairs"])
        for tau_num in (TAU_NUM, 0.5):
            assert bits(report.to_dict(tau_num)) == bits(eager_dict(want, tau_num))
        assert report.passed == (eager_dict(want, TAU_NUM)["verdict"] == "pass")


@given(st.lists(st.integers(0, 2), min_size=2, max_size=6),
       st.sampled_from(DIVERGENCES),
       st.sampled_from([None, 0.0, 0.7, math.inf]))
def test_point_audits_match_eager(rows, divergence, claimed):
    kernel = palette_kernel(rows)
    ground = kernel.inputs
    phi = PointRelation.full(ground, include_self=True)
    psi = DistributionPairRelation.from_point_relation(phi, ground)
    # two inputs at the same position: a zero distance between distinct rows
    metric = GroundMetric.line(ground, [0.0, 0.0, *range(1, len(ground) - 1)])
    with audited():
        audit_div_dp(kernel, phi, divergence, claimed)
        audit_div_xdp(kernel, phi, metric, divergence, claimed)
        audit_distp(kernel, psi, divergence, claimed)


def test_distribution_audits_match_eager(rng):
    ground = labels(4)
    metric = GroundMetric.line(ground)
    target = rand_dist(rng, ground)
    approx = {s: rand_dist(rng, ground) for s in ("s", "t", "u")}
    spec = build_coupling_mechanism(target, approx, "northwest")
    lam, other = rand_dist(rng, ground), rand_dist(rng, ground)
    psi = DistributionPairRelation([
        DistributionPair(lam, other),
        DistributionPair(other, lam, aux=("s", "t")),
        DistributionPair(lam, lam, aux=("u", "u")),
    ])
    kernel = palette_kernel([0, 1, 2, 2])
    with audited() as seen:
        for divergence in DIVERGENCES:
            for mechanism in (spec, kernel):
                audit_distp(mechanism, psi, divergence, 1.0)
                audit_xdistp(mechanism, psi, metric, divergence, 1.0)
                audit_xdistp(mechanism, psi, metric, divergence,
                             wasserstein="inf")
        assert len(seen) == 6 * len(DIVERGENCES)


@pytest.mark.parametrize("strength", [0.0, 0.05])
def test_cp_theorem_checks_match_eager(rng, strength):
    ground = labels(4, "y")
    approx = {s: rand_dist(rng, ground) for s in ("s", "t", "u")}
    spec = build_coupling_mechanism(rand_dist(rng, ground), approx, "northwest")
    actual = {s: tilted(rng, lam, strength) for s, lam in approx.items()}
    with audited() as seen:
        report = check_cp_theorem(spec, actual)
        assert [c.report for c in report.checks] == [r for r, _ in seen]
    # one label tuple serves every check
    assert len({id(c.report.labels) for c in report.checks}) == 1


def test_worst_pair_is_the_first_of_tied_pairs():
    # pairs 0-1 and 2-3 tie exactly, and so do the +inf pairs 0-4 and 3-4
    kernel = palette_kernel([0, 1, 0, 1, 2])
    with audited():
        phi = PointRelation([("x0", "x4"), ("x0", "x1"), ("x2", "x3"),
                             ("x3", "x4")])
        report = audit_div_dp(kernel, phi, MaxDivergence())
        assert report.observed_eps == math.inf
        assert report.worst_pair == pair_label("x0", "x4")
        phi = PointRelation([("x0", "x0"), ("x0", "x1"), ("x2", "x3")])
        report = audit_div_dp(kernel, phi, KL)
        assert report.worst_pair == pair_label("x0", "x1")
        assert report.pairs[1].value == report.pairs[2].value
        assert report.pairs[1].value == report.observed_eps


def test_report_columns_are_read_only(rng):
    kernel = rand_kernel(rng, labels(3), labels(3, "y"))
    report = audit_div_dp(kernel, PointRelation.full(labels(3)), KL)
    for column in (report.forward, report.backward):
        with pytest.raises(ValueError):
            column[0] = 1.0
    assert report.labels == tuple(pair_label(a, b) for a, b in
                                  PointRelation.full(labels(3)))
    assert report.pairs is report.pairs


# metric distances of the XDP audit


def test_xdp_distances_match_per_pair_lookups(rng):
    ground = labels(5)
    kernel = rand_kernel(rng, ground, labels(4, "y"))
    # an asymmetric cost table, so that a transposed lookup shows
    metric = GroundMetric(ground, (rng.random((5, 5)) + 0.1) * (1 - np.eye(5)))
    phi = PointRelation([("x3", "x1"), ("x0", "x4"), ("x4", "x0"), ("x1", "x3"),
                         ("x2", "x2")])
    report = audit_div_xdp(kernel, phi, metric, KL)
    dp = audit_div_dp(kernel, phi, KL)
    distances = np.array([metric.distance(a, b) for a, b in phi])
    assert bits(report.forward.tolist()) == bits(
        _per_distance(dp.forward, distances).tolist())
    assert bits(report.backward.tolist()) == bits(
        _per_distance(dp.backward, distances).tolist())


def test_xdp_needs_only_related_labels_in_the_metric(rng):
    kernel = rand_kernel(rng, labels(4), labels(3, "y"))
    phi = PointRelation([("x2", "x0"), ("x0", "x2")])
    # x1 and x3 are kernel inputs outside the relation and the metric
    metric = GroundMetric(("x0", "x2"), np.array([[0.0, 2.0], [2.0, 0.0]]))
    report = audit_div_xdp(kernel, phi, metric, KL)
    assert report.pairs[0].forward == audit_div_dp(kernel, phi, KL).forward[0] / 2.0


def test_xdp_missing_metric_label_names_the_first_in_relation_order(rng):
    kernel = rand_kernel(rng, labels(4), labels(3, "y"))
    metric = GroundMetric.line(("x0", "x1"))
    phi = PointRelation([("x0", "x1"), ("x3", "x2"), ("x2", "x0")])
    with pytest.raises(UnknownLabelError) as lookup:
        for a, b in phi:
            metric.distance(a, b)
    with pytest.raises(UnknownLabelError, match=re.escape(str(lookup.value))):
        audit_div_xdp(kernel, phi, metric, KL)
    assert str(lookup.value) == "label 'x3' not in metric ground"
