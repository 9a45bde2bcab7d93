import math

import numpy as np
import pytest

from distp import (
    HELLINGER,
    KL,
    STANDARD_KINDS,
    TOTAL_VARIATION,
    DistributionPair,
    DistributionPairRelation,
    EmptyRelationError,
    FiniteDistribution,
    GroundMetric,
    GroundMismatchError,
    InfiniteEpsilonError,
    MaxDivergence,
    PointRelation,
    StochasticKernel,
    ValidationError,
    audit_distp,
    audit_div_dp,
    audit_div_xdp,
    audit_xdistp,
    build_coupling_mechanism,
    check_cp_theorem,
    cp_kernel,
    divergence_value,
    emd,
    expected_utility_loss,
    f_divergence,
    lift,
    lifted_member,
    max_divergence,
    pair_label,
    point_distribution,
    post_process,
    randomized_response,
    wasserstein_inf,
    wasserstein_p,
    worst_case_loss,
)
from distp import mechanisms
from conftest import (
    GROUND3,
    LAM,
    LINE3,
    MU,
    labels,
    phi_member_pair,
    rand_dist,
    rand_kernel,
    rand_relation,
    tilted,
    w1_member_pair,
)
from distp.finite_prob import split_pair_label


def rand_psi(rng, ground, npairs):
    return DistributionPairRelation([
        DistributionPair(rand_dist(rng, ground), rand_dist(rng, ground))
        for _ in range(npairs)
    ])


# ---------------------------------------------------------------------------
# label-level audits


def test_dp_randomized_response_exact():
    ground = labels(3)
    kernel = randomized_response(ground, math.log(3.0))
    report = audit_div_dp(kernel, PointRelation.full(ground), MaxDivergence())
    assert report.observed_eps == pytest.approx(math.log(3.0), abs=1e-12)
    assert report.notion == "dp"
    assert report.divergence == "max"


def test_dp_verdicts():
    ground = labels(3)
    kernel = randomized_response(ground, math.log(3.0))
    phi = PointRelation.full(ground)
    assert audit_div_dp(kernel, phi, MaxDivergence(), math.log(3.0)).passed
    assert not audit_div_dp(kernel, phi, MaxDivergence(), math.log(3.0) - 0.01).passed
    # no claim: report is informational and passes vacuously
    assert audit_div_dp(kernel, phi, MaxDivergence()).passed


def test_dp_disjoint_rows_blow_up():
    kernel = StochasticKernel.identity(("a", "b"))
    phi = PointRelation([("a", "b")])
    for kind in STANDARD_KINDS:
        report = audit_div_dp(kernel, phi, kind)
        # TV and Hellinger are bounded: disjoint rows attain their maximum 1
        bounded = kind in (TOTAL_VARIATION, HELLINGER)
        assert report.observed_eps == (1.0 if bounded else math.inf)
        assert report.worst_pair == pair_label("a", "b")
    report = audit_div_dp(kernel, phi, KL, claimed_eps=100.0)
    assert not report.passed


def test_dp_self_pairs_are_zero(rng):
    kernel = rand_kernel(rng, labels(4), labels(3, "y"))
    phi = PointRelation([(x, x) for x in labels(4)])
    for kind in STANDARD_KINDS:
        assert audit_div_dp(kernel, phi, kind).observed_eps == 0.0


def test_dp_empty_relation():
    kernel = randomized_response(labels(2), 1.0)
    with pytest.raises(EmptyRelationError):
        audit_div_dp(kernel, PointRelation([]), KL)


def test_dp_report_structure(rng):
    kernel = rand_kernel(rng, labels(3), labels(3, "y"))
    phi = PointRelation.full(labels(3))
    report = audit_div_dp(kernel, phi, KL, claimed_eps=5.0)
    assert len(report.pairs) == len(phi)
    assert report.observed_eps == max(p.value for p in report.pairs)
    worst = next(p for p in report.pairs if p.pair == report.worst_pair)
    assert worst.value == report.observed_eps
    for p in report.pairs:
        assert p.value == max(p.forward, p.backward)
        assert p.passed == (p.value <= 5.0 + 1e-9)
    payload = report.to_dict()
    assert payload["verdict"] in ("pass", "fail")
    assert payload["pairs"][0].keys() == {
        "pair", "forward", "backward", "value", "bound", "pass",
    }


def test_xdp_discrete_metric_equals_dp(rng):
    ground = labels(4)
    kernel = rand_kernel(rng, ground, labels(3, "y"))
    phi = PointRelation.full(ground)
    metric = GroundMetric.discrete(ground)
    plain = audit_div_dp(kernel, phi, KL)
    scaled = audit_div_xdp(kernel, phi, metric, KL)
    assert scaled.observed_eps == pytest.approx(plain.observed_eps, abs=1e-12)


def test_xdp_line_metric_rescales():
    ground = labels(3)
    kernel = randomized_response(ground, 1.0)
    report = audit_div_xdp(
        kernel, PointRelation([("x0", "x2")]), GroundMetric.line(ground),
        MaxDivergence(),
    )
    want = max_divergence(kernel.row("x0"), kernel.row("x2")) / 2.0
    assert report.observed_eps == pytest.approx(want, abs=1e-12)


def test_xdp_identity_relation_is_zero(rng):
    ground = labels(3)
    kernel = rand_kernel(rng, ground, labels(4, "y"))
    phi = PointRelation([(x, x) for x in ground])
    report = audit_div_xdp(kernel, phi, GroundMetric.line(ground), KL)
    assert report.observed_eps == 0.0


def test_xdp_zero_distance_pair_with_leakage_is_inf(rng):
    ground = ("a", "b")
    metric = GroundMetric.from_mapping(ground, {})  # all distances zero
    kernel = rand_kernel(rng, ground, labels(3, "y"))
    report = audit_div_xdp(kernel, PointRelation([("a", "b")]), metric, KL)
    assert report.observed_eps == math.inf


# ---------------------------------------------------------------------------
# distribution-level audits


def test_distp_point_masses_equal_dp_exactly(rng):
    ground = labels(4)
    for _ in range(10):
        kernel = rand_kernel(rng, ground, labels(3, "y"))
        phi = rand_relation(rng, ground, 6)
        psi = DistributionPairRelation.from_point_relation(phi, ground)
        for kind in (KL, TOTAL_VARIATION, MaxDivergence()):
            dp = audit_div_dp(kernel, phi, kind)
            distp = audit_distp(kernel, psi, kind)
            assert distp.observed_eps == dp.observed_eps
            for lifted, plain in zip(distp.pairs, dp.pairs):
                assert lifted.forward == plain.forward
                assert lifted.backward == plain.backward


def test_distp_constant_rows_leak_nothing(rng):
    ground = labels(3)
    nu = rand_dist(rng, labels(4, "y"))
    kernel = StochasticKernel.constant(ground, nu)
    psi = rand_psi(rng, ground, 5)
    for kind in STANDARD_KINDS:
        assert audit_distp(kernel, psi, kind).observed_eps == pytest.approx(
            0.0, abs=1e-12
        )


def test_distp_perfect_knowledge_cp_is_zero(rng):
    lam2 = FiniteDistribution(GROUND3, np.array([0.6, 0.2, 0.2]))
    spec = build_coupling_mechanism(MU, {"s": LAM, "t": lam2}, mode="northwest")
    psi = DistributionPairRelation([
        DistributionPair(LAM, lam2, aux=("s", "t")),
        DistributionPair(lam2, LAM, aux=("t", "s")),
    ])
    for kind in STANDARD_KINDS + (MaxDivergence(),):
        report = audit_distp(spec, psi, kind)
        assert report.observed_eps == pytest.approx(0.0, abs=1e-9)


def test_distp_untagged_pairs_fan_out_over_aux():
    lam2 = FiniteDistribution(GROUND3, np.array([0.6, 0.2, 0.2]))
    spec = build_coupling_mechanism(MU, {"s": LAM, "t": lam2}, mode="northwest")
    psi = DistributionPairRelation([DistributionPair(LAM, lam2)])
    report = audit_distp(spec, psi, KL)
    assert len(report.pairs) == 2
    assert {p.pair for p in report.pairs} == {
        f"0:{pair_label('s', 's')}", f"0:{pair_label('t', 't')}",
    }


def test_distp_ground_mismatch():
    kernel = StochasticKernel.identity(("a", "b"))
    psi = rand_psi(np.random.default_rng(0), labels(3), 2)
    with pytest.raises(GroundMismatchError):
        audit_distp(kernel, psi, KL)


def test_xdistp_identical_pairs_are_zero(rng):
    ground = labels(3)
    kernel = rand_kernel(rng, ground, labels(3, "y"))
    lam = rand_dist(rng, ground)
    psi = DistributionPairRelation([DistributionPair(lam, lam)])
    report = audit_xdistp(kernel, psi, GroundMetric.line(ground), KL)
    assert report.observed_eps == 0.0


def test_xdistp_winf_bound_below_w1(rng):
    # W_inf dominates W_1, so dividing by it can only shrink the level
    ground = labels(4)
    metric = GroundMetric.line(ground)
    for _ in range(10):
        kernel = rand_kernel(rng, ground, labels(3, "y"))
        psi = rand_psi(rng, ground, 4)
        w1 = audit_xdistp(kernel, psi, metric, KL, wasserstein="1")
        winf = audit_xdistp(kernel, psi, metric, KL, wasserstein="inf")
        assert winf.observed_eps <= w1.observed_eps + 1e-9


def test_xdistp_numeric_order_accepted(rng):
    ground = labels(3)
    kernel = rand_kernel(rng, ground, labels(3, "y"))
    psi = rand_psi(rng, ground, 3)
    metric = GroundMetric.line(ground)
    report = audit_xdistp(kernel, psi, metric, KL, wasserstein=2.0)
    pair = psi.pairs[0]
    d = wasserstein_p(pair.left, pair.right, metric, p=2.0).cost
    got = divergence_value(KL, lift(kernel, pair.left), lift(kernel, pair.right))
    assert report.pairs[0].forward == pytest.approx(got / d, abs=1e-12)


@pytest.mark.parametrize("order", ["abc", "0.5", math.nan, None])
def test_xdistp_malformed_order_is_refused_cleanly(rng, order):
    ground = labels(3)
    kernel = rand_kernel(rng, ground, labels(3, "y"))
    psi = rand_psi(rng, ground, 3)
    with pytest.raises(ValidationError, match="order p must be finite"):
        audit_xdistp(kernel, psi, GroundMetric.line(ground), KL,
                     wasserstein=order)


def test_audits_of_one_spec_build_its_kernels_once(rng, monkeypatch):
    # a coupling mechanism keeps its kernel family, so its W1 and W-inf
    # audits build each auxiliary kernel once between them, with the same
    # values, bit for bit, as audits of two freshly built specs
    ground = labels(5)
    metric = GroundMetric.line(ground)
    target = rand_dist(rng, ground)
    approx = {f"s{k}": rand_dist(rng, ground) for k in range(3)}
    psi = rand_psi(rng, ground, 3)
    built = []
    cp_kernel = mechanisms.cp_kernel

    def counted(spec, s):
        built.append(s)
        return cp_kernel(spec, s)

    def build():
        return build_coupling_mechanism(target, approx, "optimal", metric=metric)

    def audited(w1_spec, winf_spec):
        reports = (audit_xdistp(w1_spec, psi, metric, KL),
                   audit_xdistp(winf_spec, psi, metric, MaxDivergence(),
                                wasserstein="inf"))
        return [[x.hex() for x in column.tolist()] for report in reports
                for column in (report.forward, report.backward)]

    monkeypatch.setattr(mechanisms, "cp_kernel", counted)
    spec = build()
    shared = audited(spec, spec)
    assert built == ["s0", "s1", "s2"]
    assert audited(build(), build()) == shared
    assert len(built) == 9


def test_tv_audit_below_max_audit(rng):
    ground = labels(4)
    for _ in range(10):
        kernel = rand_kernel(rng, ground, labels(3, "y"))
        psi = rand_psi(rng, ground, 4)
        for pair in psi:
            out0 = lift(kernel, pair.left)
            out1 = lift(kernel, pair.right)
            tv = f_divergence(TOTAL_VARIATION, out0, out1)
            dmax = max(max_divergence(out0, out1), max_divergence(out1, out0))
            assert tv <= dmax + 1e-12
        tv_report = audit_distp(kernel, psi, TOTAL_VARIATION)
        max_report = audit_distp(kernel, psi, MaxDivergence())
        assert tv_report.observed_eps <= max_report.observed_eps + 1e-12


# ---------------------------------------------------------------------------
# theorem-shaped properties, small scale


def test_lifted_pairs_never_exceed_label_audit(rng):
    ground = labels(4)
    for _ in range(10):
        kernel = rand_kernel(rng, ground, labels(3, "y"))
        phi = rand_relation(rng, ground, 5, include_self=True)
        for kind in STANDARD_KINDS:
            eps = audit_div_dp(kernel, phi, kind).observed_eps
            for _ in range(5):
                lam0, lam1, _ = phi_member_pair(rng, phi, ground)
                assert lifted_member(phi, lam0, lam1)
                value = f_divergence(kind, lift(kernel, lam0), lift(kernel, lam1))
                assert value <= eps + 1e-7


def test_w1_lifted_pairs_respect_metric_scaled_audit(rng):
    ground = labels(4)
    metric = GroundMetric.line(ground)
    for _ in range(10):
        kernel = rand_kernel(rng, ground, labels(3, "y"))
        phi, lam0, lam1 = w1_member_pair(rng, ground)
        for kind in STANDARD_KINDS:
            eps = audit_div_xdp(kernel, phi, metric, kind).observed_eps
            value = f_divergence(kind, lift(kernel, lam0), lift(kernel, lam1))
            w1 = emd(lam0, lam1, metric).cost
            assert value <= eps * w1 + 1e-7


def test_post_processing_never_helps_the_adversary(rng):
    ground = labels(3)
    phi = PointRelation.full(ground)
    for _ in range(10):
        kernel = rand_kernel(rng, ground, labels(4, "y"))
        cleanup = rand_kernel(rng, labels(4, "y"), labels(3, "z"))
        processed = post_process(kernel, cleanup)
        for kind in STANDARD_KINDS:
            before = audit_div_dp(kernel, phi, kind).observed_eps
            after = audit_div_dp(processed, phi, kind).observed_eps
            assert after <= before + 1e-9


def test_stable_preprocessing_scales_the_audit(rng):
    ground = labels(4)
    metric = GroundMetric.line(ground)
    for _ in range(10):
        transform = rand_kernel(rng, ground, ground)
        kernel = rand_kernel(rng, ground, labels(3, "y"))
        pairs = [
            DistributionPair(rand_dist(rng, ground), rand_dist(rng, ground))
            for _ in range(4)
        ]
        images = DistributionPairRelation([
            DistributionPair(lift(transform, p.left), lift(transform, p.right))
            for p in pairs
        ])
        expansion = max(
            wasserstein_p(img.left, img.right, metric).cost
            / wasserstein_p(p.left, p.right, metric).cost
            for p, img in zip(pairs, images)
        )
        eps_inner = audit_xdistp(kernel, images, metric, KL).observed_eps
        composed = post_process(transform, kernel)
        got = audit_xdistp(
            composed, DistributionPairRelation(pairs), metric, KL
        ).observed_eps
        assert got <= expansion * eps_inner + 1e-9


# ---------------------------------------------------------------------------
# utility loss


def test_expected_loss_identity_is_zero(rng):
    ground = labels(4)
    kernel = StochasticKernel.identity(ground)
    lam = rand_dist(rng, ground)
    metric = GroundMetric.line(ground)
    assert expected_utility_loss(kernel, lam, metric) == 0.0
    assert worst_case_loss(kernel, lam, metric) == 0.0


def test_expected_loss_of_optimal_cp_is_emd():
    spec = build_coupling_mechanism(MU, {"s": LAM}, mode="optimal", metric=LINE3)
    loss = expected_utility_loss(cp_kernel(spec, "s"), LAM, LINE3)
    assert loss == pytest.approx(0.3, abs=1e-9)


def test_worst_case_loss_of_bottleneck_cp():
    coupling = wasserstein_inf(LAM, MU, LINE3)
    spec = build_coupling_mechanism(
        MU, {"s": LAM}, mode="given", couplings={"s": coupling.coupling}
    )
    loss = worst_case_loss(cp_kernel(spec, "s"), LAM, LINE3)
    assert loss == pytest.approx(coupling.cost, abs=1e-12)
    assert loss == pytest.approx(1.0, abs=1e-12)


def test_losses_of_constant_kernel(rng):
    inputs = labels(3, "a")
    outputs = labels(2, "b")
    union = inputs + outputs
    cost = np.abs(np.arange(5)[:, None] - np.arange(5)[None, :]).astype(float)
    metric = GroundMetric(union, cost)
    lam = rand_dist(rng, inputs)
    target = point_distribution("b1", outputs)
    kernel = StochasticKernel.constant(inputs, target)
    want = sum(lam[x] * metric.distance(x, "b1") for x in inputs)
    assert expected_utility_loss(kernel, lam, metric) == pytest.approx(want)
    worst = max(metric.distance(x, "b1") for x in lam.support())
    assert worst_case_loss(kernel, lam, metric) == pytest.approx(worst)


def test_loss_ground_mismatch(rng):
    kernel = StochasticKernel.identity(labels(3))
    lam = rand_dist(rng, labels(4))
    with pytest.raises(GroundMismatchError):
        expected_utility_loss(kernel, lam, GroundMetric.line(labels(4)))
    with pytest.raises(GroundMismatchError):
        worst_case_loss(kernel, lam, GroundMetric.line(labels(4)))


def test_expected_below_worst_case(rng):
    ground = labels(4)
    metric = GroundMetric.line(ground)
    for _ in range(10):
        kernel = rand_kernel(rng, ground, ground)
        lam = rand_dist(rng, ground)
        assert expected_utility_loss(kernel, lam, metric) <= worst_case_loss(
            kernel, lam, metric
        ) + 1e-12


# ---------------------------------------------------------------------------
# estimation-closeness guarantees of the coupling mechanism


SOUND_BOUNDS = ("max", "kl", "f:kl", "f:tv", "f:chi2", "f:hellinger")


def fig_spec2():
    lam2 = FiniteDistribution(GROUND3, np.array([0.6, 0.2, 0.2]))
    return build_coupling_mechanism(MU, {"s": LAM, "t": lam2}, mode="northwest")


def test_cp_theorem_perfect_estimates():
    spec = fig_spec2()
    report = check_cp_theorem(
        spec, {s: spec.entry_for(s).approx_input for s in spec.aux}
    )
    assert report.epsilon == 0.0
    assert report.passed
    for check in report.checks:
        assert check.report.observed_eps == pytest.approx(0.0, abs=1e-9)
        assert check.passed


def test_cp_theorem_tilted_estimates(rng):
    spec = fig_spec2()
    actual = {s: tilted(rng, spec.entry_for(s).approx_input, 0.05) for s in spec.aux}
    report = check_cp_theorem(spec, actual)
    assert 0.0 < report.epsilon <= 0.2
    for name in SOUND_BOUNDS:
        assert report.check(name).passed, name


def test_cp_theorem_labels_are_pair_labels(rng):
    """Aux names that JSON must escape or that hold its own punctuation
    label the cp-theorem pairs exactly as ``pair_label`` does."""
    ground = labels(4, "y")
    aux = ('say "hi"', "a,b", "back\\slash", "[0]", "\u00e9t\u00e9", "\U0001f600", "")
    approx = {s: rand_dist(rng, ground) for s in aux}
    spec = build_coupling_mechanism(rand_dist(rng, ground), approx, "northwest")
    assert sorted(spec.aux) == sorted(aux)
    report = check_cp_theorem(spec, {s: tilted(rng, lam, 0.05)
                                     for s, lam in approx.items()})
    pairs = [(a, b) for i, a in enumerate(spec.aux) for b in spec.aux[i:]]
    for check in report.checks:
        got = [p.pair for p in check.report.pairs]
        assert got == [pair_label(a, b) for a, b in pairs]
        assert [split_pair_label(label) for label in got] == pairs


def test_cp_theorem_epsilon_is_max_log_ratio(rng):
    spec = fig_spec2()
    actual = {s: tilted(rng, spec.entry_for(s).approx_input, 0.1) for s in spec.aux}
    report = check_cp_theorem(spec, actual)
    want = max(
        max(
            max_divergence(spec.entry_for(s).approx_input, actual[s]),
            max_divergence(actual[s], spec.entry_for(s).approx_input),
        )
        for s in spec.aux
    )
    assert report.epsilon == pytest.approx(want, abs=1e-12)


def test_cp_theorem_reverse_kl_bound_is_vacuous_above_zero(rng):
    # the stated bound e^eps * f(e^{2 eps}) is negative for the reverse KL
    # generator whenever eps > 0, so no mechanism can meet it; the auditor
    # reports that verbatim instead of papering over it
    spec = fig_spec2()
    actual = {s: tilted(rng, spec.entry_for(s).approx_input, 0.05) for s in spec.aux}
    report = check_cp_theorem(spec, actual)
    rkl = report.check("f:rkl")
    assert rkl.bound < 0.0
    assert not rkl.passed
    assert not report.passed


def test_cp_theorem_missing_aux():
    spec = fig_spec2()
    with pytest.raises(ValidationError, match="missing"):
        check_cp_theorem(spec, {"s": LAM})


def test_cp_theorem_disjoint_support():
    spec = build_coupling_mechanism(MU, {"s": LAM}, mode="northwest")
    with pytest.raises(InfiniteEpsilonError):
        check_cp_theorem(spec, {"s": point_distribution("1", GROUND3)})


def test_cp_theorem_report_shape():
    spec = fig_spec2()
    report = check_cp_theorem(
        spec, {s: spec.entry_for(s).approx_input for s in spec.aux}
    )
    assert [c.name for c in report.checks] == [
        "max", "kl", "f:kl", "f:rkl", "f:tv", "f:chi2", "f:hellinger",
    ]
    payload = report.to_dict()
    assert payload["verdict"] == "pass"
    assert len(payload["checks"]) == 7
    with pytest.raises(ValidationError):
        report.check("nope")
