"""One pair plan per relation, and each distinct piece of work done once.

A label relation's plan (kernel rows, pair labels, the distinct unordered
row pairs that both directions read) is built on the first audit over a
kernel input ground and kept on the relation. A distribution relation
interns its distributions, lifts each distinct one once per kernel, and
measures each distinct ordered pair once; a pair of point masses takes no
solve. The counters below wrap the plan constructor, the lift and the
simplex, and read the row pairs evaluated from the row kernel's own
counter record. Values are compared bit for bit (``float.hex``) with
per-pair calls of the public functions.
"""

import re
from contextlib import contextmanager

import numpy as np
import pytest

from distp import (
    KL,
    DistributionPair,
    DistributionPairRelation,
    EmptyRelationError,
    FiniteDistribution,
    GroundMetric,
    GroundMismatchError,
    KernelFamily,
    MaxDivergence,
    PointRelation,
    StochasticKernel,
    UnknownLabelError,
    audit_distp,
    audit_div_dp,
    audit_div_xdp,
    audit_xdistp,
    build_coupling_mechanism,
    delta_required,
    lift,
    stability_check,
    wasserstein_inf,
    wasserstein_p,
)
from distp import audit, divergences, finite_prob, transport
from distp.tolerances import TAU_NUM
from conftest import (
    euclidean_metric,
    hexes,
    kernel_count,
    labels,
    one_way,
    rand_dist,
    rand_kernel,
)


@contextmanager
def counters():
    """Counts plans built, lifts and simplex solves while the block is
    open, and on leaving it the unordered row pairs the row kernel
    evaluated, read from its counter record."""
    seen = {"plans": 0, "rows": 0, "lifts": 0, "solves": 0}
    plan, lifted = finite_prob._PairPlan, audit._lifted_probs
    simplex = transport._simplex
    rows = kernel_count()

    class CountedPlan(plan):
        def __post_init__(self):
            seen["plans"] += 1
            super().__post_init__()

    def lifting(*args):
        seen["lifts"] += 1
        return lifted(*args)

    def solving(*args, **kwargs):
        seen["solves"] += 1
        return simplex(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(finite_prob, "_PairPlan", CountedPlan)
        patch.setattr(audit, "_PairPlan", CountedPlan)
        patch.setattr(audit, "_lifted_probs", lifting)
        patch.setattr(transport, "_simplex", solving)
        yield seen
    seen["rows"] = kernel_count() - rows


def test_label_plan_is_built_once_per_relation_and_ground(rng):
    ground = labels(6)
    kernel = rand_kernel(rng, ground, labels(4, "y"))
    metric = GroundMetric.line(ground)
    phi = PointRelation.full(ground)
    with counters() as seen:
        audit_div_dp(kernel, phi, MaxDivergence())
        audit_div_dp(kernel, phi, MaxDivergence(0.1))
        audit_div_dp(kernel, phi, KL)
        audit_div_xdp(kernel, phi, metric, MaxDivergence())
        delta_required(kernel, phi, 0.5)
        # another kernel over the same inputs reuses the plan
        audit_div_dp(rand_kernel(rng, ground, labels(2, "y")), phi, KL)
        assert seen["plans"] == 1
        # a reordered input ground is a new plan, with its own rows
        flipped = StochasticKernel(ground[::-1], kernel.outputs,
                                   kernel.matrix[::-1])
        report = audit_div_dp(flipped, phi, KL)
        assert seen["plans"] == 2
    assert hexes(report.forward) == hexes(audit_div_dp(kernel, phi, KL).forward)


def test_distribution_plan_is_built_once_per_relation_and_mechanism(rng):
    ground = labels(5)
    kernel = rand_kernel(rng, ground, labels(4, "y"))
    metric = GroundMetric.line(ground)
    psi = DistributionPairRelation.from_point_relation(
        PointRelation.full(ground), ground)
    spec = build_coupling_mechanism(
        rand_dist(rng, ground), {s: rand_dist(rng, ground) for s in "st"},
        "northwest")
    with counters() as seen:
        audit_distp(kernel, psi, KL)
        audit_xdistp(kernel, psi, metric, KL)
        audit_xdistp(kernel, psi, metric, MaxDivergence(), wasserstein="inf")
        assert seen["plans"] == 1
        audit_distp(spec, psi, KL)
        audit_xdistp(spec, psi, metric, KL)
        assert seen["plans"] == 2


def test_label_plan_errors_are_unchanged_and_not_cached(rng):
    kernel = rand_kernel(rng, labels(3), labels(2, "y"))
    with pytest.raises(EmptyRelationError, match="relation has no pairs"):
        audit_div_dp(kernel, PointRelation([]), KL)
    # every left member is looked up before any right member
    phi = PointRelation([("x0", "zz"), ("yy", "x1")])
    with pytest.raises(UnknownLabelError) as lookup:
        for a in [a for a, _ in phi] + [b for _, b in phi]:
            kernel.input_index(a)
    assert str(lookup.value) == "input label 'yy' not in kernel"
    for call in (lambda: audit_div_dp(kernel, phi, KL),
                 lambda: audit_div_xdp(kernel, phi, GroundMetric.line(labels(3)),
                                       KL),
                 lambda: delta_required(kernel, phi, 0.1)):
        with pytest.raises(UnknownLabelError,
                           match=re.escape(str(lookup.value))):
            call()
    assert phi._kept == {}
    # the same relation over a kernel that knows its labels
    wider = rand_kernel(rng, ("x0", "x1", "yy", "zz"), labels(2, "y"))
    assert len(audit_div_dp(wider, phi, KL).labels) == 2
    assert len(phi._kept) == 1


def test_distribution_plan_errors_are_unchanged_and_not_cached(rng):
    ground = labels(3)
    kernel = rand_kernel(rng, ground, labels(2, "y"))
    family = KernelFamily({"s": kernel, "t": kernel})
    lam, other = rand_dist(rng, ground), rand_dist(rng, labels(3, "z"))
    with pytest.raises(EmptyRelationError, match="relation has no pairs"):
        audit_distp(kernel, DistributionPairRelation([]), KL)
    # the unknown auxiliary value of pair 1 is met before the ground of pair 2
    psi = DistributionPairRelation([
        DistributionPair(lam, lam),
        DistributionPair(lam, lam, aux=("s", "u")),
        DistributionPair(other, other),
    ])
    with pytest.raises(UnknownLabelError,
                       match=re.escape("label 'u' not in kernel family")):
        audit_distp(family, psi, KL)
    with pytest.raises(GroundMismatchError,
                       match="distribution ground does not match kernel inputs"):
        audit_distp(kernel, psi, KL)
    assert psi._kept == {}


def test_nodes_are_interned_by_identity_then_by_value(rng):
    ground = labels(4)
    kernel = rand_kernel(rng, ground, labels(3, "y"))
    lam, nu = rand_dist(rng, ground), rand_dist(rng, ground)
    twin = FiniteDistribution(ground, lam.probs.copy())
    psi = DistributionPairRelation([(lam, nu), (nu, twin), (twin, lam),
                                    (lam, lam)])
    family = KernelFamily({"s": kernel, "t": rand_kernel(rng, ground, kernel.outputs)})
    with counters() as seen:
        report = audit_distp(family, psi, KL)
    # two distinct distributions, each lifted once per kernel of the family
    assert seen["lifts"] == 4
    # per kernel, the unordered pairs {lam, nu} and {lam, lam}, each in
    # both orders
    assert seen["rows"] == 2 * 2
    for i, pair in enumerate(psi):
        for j, s in enumerate(family.labels):
            k = family.kernels[s]
            a, b = lift(k, pair.left), lift(k, pair.right)
            want = divergences.f_divergence(KL, a, b)
            assert report.forward[2 * i + j].hex() == want.hex()
            back = divergences.f_divergence(KL, b, a)
            assert report.backward[2 * i + j].hex() == back.hex()


def probe(seed=5, n=16, aux=3):
    """A coupling mechanism with ``aux`` auxiliary values over ``n`` Euclidean
    points, and the point-mass embedding of the full label relation."""
    rng = np.random.default_rng(seed)
    ground = labels(n)
    metric = euclidean_metric(rng, ground)
    spec = build_coupling_mechanism(
        rand_dist(rng, ground), {f"s{k}": rand_dist(rng, ground)
                                 for k in range(aux)},
        "optimal", metric=metric)
    psi = DistributionPairRelation.from_point_relation(
        PointRelation.full(ground), ground)
    return spec, psi, metric


@pytest.mark.parametrize("order", ["1", "inf", 2.0])
def test_point_mass_pairs_take_no_solve(order):
    spec, psi, metric = probe()
    with counters() as seen:
        report = audit_xdistp(spec, psi, metric, KL, wasserstein=order)
    assert seen["solves"] == 0
    # 240 pairs, 3 auxiliary values: 720 report rows, whose two directions
    # are the 720 distinct ordered pairs of lifted point masses, 360
    # unordered ones
    assert len(report.labels) == 720
    assert seen["rows"] == 360
    distance = {"1": wasserstein_p, "inf": wasserstein_inf,
                2.0: lambda a, b, m: wasserstein_p(a, b, m, p=2.0)}[order]
    kernels = audit.aux_kernel(spec).kernels
    for i, pair in enumerate(psi):
        d = distance(pair.left, pair.right, metric).cost
        for j, s in enumerate(spec.aux):
            table = np.stack([lift(kernels[s], pair.left).probs,
                              lift(kernels[s], pair.right).probs])
            values = one_way(KL, table, np.array([0, 1]),
                                      np.array([1, 0]))
            want = divergences._per_distance(values, np.array([d, d]))
            assert report.forward[3 * i + j].hex() == want[0].hex()
            assert report.backward[3 * i + j].hex() == want[1].hex()


def test_general_pairs_are_solved_once_per_distinct_ordered_pair(rng):
    ground = labels(5)
    metric = euclidean_metric(rng, ground)
    kernel = rand_kernel(rng, ground, labels(3, "y"))
    lam, nu = rand_dist(rng, ground), rand_dist(rng, ground)
    point = finite_prob.point_distribution("x2", ground)
    psi = DistributionPairRelation([(lam, nu), (nu, lam), (lam, nu), (lam, point),
                                    (point, point)])
    for order, distance in (("1", wasserstein_p), ("inf", wasserstein_inf)):
        solved = []

        def counting(a, b, m, **options):
            solved.append((a, b))
            return distance(a, b, m, **options)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transport, distance.__name__, counting)
            report = audit_xdistp(kernel, psi, metric, MaxDivergence(),
                                  wasserstein=order)
        # (lam, nu), (nu, lam) and (lam, point); the point pair is read off
        assert solved == [(lam, nu), (nu, lam), (lam, point)]
        dp = audit_distp(kernel, psi, MaxDivergence())
        want = np.array([distance(p.left, p.right, metric).cost for p in psi])
        assert hexes(report.forward) == hexes(
            divergences._per_distance(dp.forward, want))
        assert hexes(report.backward) == hexes(
            divergences._per_distance(dp.backward, want))


@pytest.mark.parametrize("order", ["1", 2.0, "inf"])
def test_stability_check_measures_each_distinct_ordered_pair_once(rng, order):
    ground = labels(5)
    metric = euclidean_metric(rng, ground)
    # a relabelling kernel: the image of a point mass is a point mass
    kernel = StochasticKernel(ground, ground, np.eye(5)[rng.permutation(5)])
    lam, nu = rand_dist(rng, ground), rand_dist(rng, ground)
    twin = FiniteDistribution(ground, lam.probs.copy())
    a, b = (finite_prob.point_distribution(x, ground) for x in ("x0", "x3"))
    pairs = [(lam, nu), (nu, lam), (twin, nu), (a, b), DistributionPair(lam, a),
             (b, a), (lam, nu)]
    p = {"1": 1.0, 2.0: 2.0, "inf": None}[order]
    solved = []

    def counting(real):
        def solve(x, y, m, **options):
            solved.append((x.probs.tolist(), y.probs.tolist()))
            return real(x, y, m, **options)

        return solve

    def distance(x, y):
        if p is None:
            return wasserstein_inf(x, y, metric).cost
        return wasserstein_p(x, y, metric, p=p).cost

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "wasserstein_p", counting(wasserstein_p))
        patch.setattr(transport, "wasserstein_inf", counting(wasserstein_inf))
        verdicts = [stability_check(kernel, c, pairs=pairs, metric=metric,
                                    order=order) for c in (0.0, 1.0, 100.0)]
    # (lam, nu), (nu, lam) and (lam, a), then their images; the twin is lam
    # by value, and the point-mass pairs and their images are read off
    general = [(lam, nu), (nu, lam), (lam, a)]
    images = [(lift(kernel, x), lift(kernel, y)) for x, y in general]
    want = [(x.probs.tolist(), y.probs.tolist()) for x, y in general + images]
    assert solved == want * 3
    for c, verdict in zip((0.0, 1.0, 100.0), verdicts):
        assert verdict == all(
            distance(lift(kernel, x), lift(kernel, y))
            <= c * distance(x, y) + TAU_NUM
            for x, y in (pair if isinstance(pair, tuple) else
                         (pair.left, pair.right) for pair in pairs)
        )
    assert verdicts[0] is False and verdicts[2] is True
