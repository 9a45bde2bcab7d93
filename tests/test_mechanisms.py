import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from distp import (
    Coupling,
    CouplingEntry,
    CouplingMechanismSpec,
    FiniteDistribution,
    GroundMetric,
    GroundMismatchError,
    InvalidCouplingError,
    InvalidEpsilonError,
    KL,
    KernelFamily,
    MaxDivergence,
    PointRelation,
    StochasticKernel,
    UnknownLabelError,
    UnsupportedInputError,
    ValidationError,
    audit_distp,
    audit_div_dp,
    audit_div_xdp,
    aux_kernel,
    build_coupling_mechanism,
    cp_kernel,
    emd,
    geometric_mechanism,
    lift,
    liftseq_compose,
    max_divergence,
    northwest_corner,
    pair_label,
    point_distribution,
    post_process,
    product_distribution,
    randomized_response,
    sample_outputs,
    seq_compose,
    stability_check,
    uniform_distribution,
)
from distp.finite_prob import DistributionPair, DistributionPairRelation
from distp.mechanisms import _cp_rows
from conftest import labels, rand_dist, rand_kernel

GROUND3 = ("1", "2", "3")
LAM = FiniteDistribution(GROUND3, np.array([0.2, 0.5, 0.3]))
MU = FiniteDistribution(GROUND3, np.array([0.3, 0.2, 0.5]))
LINE3 = GroundMetric.line(GROUND3)


# ---------------------------------------------------------------------------
# randomized response


def test_randomized_response_binary():
    kernel = randomized_response(("a", "b"), math.log(3.0))
    np.testing.assert_allclose(
        kernel.matrix, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15
    )


def test_randomized_response_zero_eps_is_uniform():
    kernel = randomized_response(labels(4), 0.0)
    np.testing.assert_allclose(kernel.matrix, np.full((4, 4), 0.25), atol=1e-15)


def test_randomized_response_row_divergence():
    kernel = randomized_response(("a", "b"), math.log(3.0))
    value = max_divergence(kernel.row("a"), kernel.row("b"))
    assert value == pytest.approx(math.log(3.0), abs=1e-12)


def test_randomized_response_validation():
    with pytest.raises(ValidationError):
        randomized_response(("a",), 1.0)
    with pytest.raises(InvalidEpsilonError):
        randomized_response(("a", "b"), -0.1)
    with pytest.raises(InvalidEpsilonError):
        randomized_response(("a", "b"), math.inf)


@pytest.mark.filterwarnings("error")
def test_randomized_response_past_the_float_range_of_e_to_the_epsilon():
    # e^710 overflows a float; the kernel is the epsilon -> inf limit
    kernel = randomized_response(("a", "b", "c"), 710.0)
    assert np.array_equal(kernel.matrix, np.eye(3))
    # just below the overflow point the formula still runs, bit for bit
    below = randomized_response(("a", "b", "c"), 709.0)
    growth = math.exp(709.0)
    assert below.matrix[0, 0] == growth / (growth + 2)
    assert below.matrix[0, 1] == 1.0 / (growth + 2)


# ---------------------------------------------------------------------------
# geometric mechanism


def test_geometric_within_row_ratios():
    mech = geometric_mechanism(GROUND3, 1.0, LINE3)
    matrix = mech.kernel.matrix
    for i in range(3):
        for j in range(3):
            assert matrix[i, j] / matrix[i, i] == pytest.approx(
                math.exp(-abs(i - j)), abs=1e-12
            )


def test_geometric_on_discrete_metric_is_randomized_response():
    ground = labels(5)
    eps = 0.8
    mech = geometric_mechanism(ground, eps, GroundMetric.discrete(ground))
    want = randomized_response(ground, eps)
    np.testing.assert_allclose(mech.kernel.matrix, want.matrix, atol=1e-12)


def test_geometric_effective_epsilon_bounded(rng):
    for _ in range(10):
        k = int(rng.integers(3, 7))
        eps = float(rng.uniform(0.2, 2.0))
        positions = np.sort(rng.random(k) * 4.0)
        positions[1:] += 0.05 * np.arange(1, k)  # keep points distinct
        metric = GroundMetric.line(labels(k), positions=positions)
        mech = geometric_mechanism(labels(k), eps, metric)
        assert mech.effective_epsilon <= 2.0 * eps + 1e-9


def test_geometric_effective_epsilon_matches_audit():
    mech = geometric_mechanism(GROUND3, 1.3, LINE3)
    report = audit_div_xdp(
        mech.kernel, PointRelation.full(GROUND3), LINE3, MaxDivergence()
    )
    assert report.observed_eps == pytest.approx(mech.effective_epsilon, abs=1e-12)


def test_geometric_validation():
    with pytest.raises(InvalidEpsilonError):
        geometric_mechanism(GROUND3, 0.0, LINE3)


# ---------------------------------------------------------------------------
# coupling mechanism


def fig_spec(fallback="error"):
    return build_coupling_mechanism(
        MU,
        {"s": LAM},
        mode="given",
        couplings={"s": northwest_corner(LAM, MU)},
        fallback=fallback,
    )


def test_cp_reference_row():
    kernel = cp_kernel(fig_spec(), "s")
    np.testing.assert_allclose(kernel.row("2").probs, [0.2, 0.4, 0.4], atol=1e-9)


def test_cp_lifts_to_target():
    kernel = cp_kernel(fig_spec(), "s")
    np.testing.assert_allclose(lift(kernel, LAM).probs, MU.probs, atol=1e-9)


@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10**6))
def test_cp_target_invariance(ki, ko, seed):
    rng = np.random.default_rng(seed)
    lam_hat = rand_dist(rng, labels(ki))
    target = rand_dist(rng, labels(ko, "y"))
    spec = build_coupling_mechanism(target, {"s": lam_hat}, mode="northwest")
    out = lift(cp_kernel(spec, "s"), lam_hat)
    np.testing.assert_allclose(out.probs, target.probs, atol=1e-9)


@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10**6))
def test_cp_kernel_equals_the_validated_kernel_of_its_rows(ki, ko, seed):
    rng = np.random.default_rng(seed)
    lam_hat = rand_dist(rng, labels(ki))
    target = rand_dist(rng, labels(ko, "y"))
    metric = GroundMetric.line(lam_hat.ground + target.ground)
    for mode in ("northwest", "optimal"):
        spec = build_coupling_mechanism(target, {"s": lam_hat}, mode,
                                        metric=metric)
        kernel = cp_kernel(spec, "s")
        rows, _ = _cp_rows(target, spec.entry_for("s"))
        checked = StochasticKernel(lam_hat.ground, target.ground, rows)
        assert (kernel.inputs, kernel.outputs) == (checked.inputs, checked.outputs)
        assert kernel.matrix.tobytes() == checked.matrix.tobytes()
        assert not kernel.matrix.flags.writeable
        assert kernel.row("x1").probs.tolist() == checked.row("x1").probs.tolist()


def test_cp_kernel_checks_row_mass_as_a_validated_kernel_does():
    # The given coupling meets both marginals within TAU_MASS, but row "b",
    # conditioned on an estimate of 1e-6, misses a unit of mass by 5e-4.
    target = FiniteDistribution(("y0", "y1"), [0.5, 0.5])
    lam = FiniteDistribution(("a", "b"), [1.0 - 1e-6, 1e-6])
    mass = np.array([[0.5 - 1e-6, 0.5 - 5e-10], [1e-6, 5e-10]])
    coupling = Coupling(lam.ground, target.ground, mass)
    spec = build_coupling_mechanism(target, {"s": lam}, mode="given",
                                    couplings={"s": coupling})
    rows, _ = _cp_rows(target, spec.entry_for("s"))
    with pytest.raises(ValidationError) as checked:
        StochasticKernel(lam.ground, target.ground, rows)
    with pytest.raises(ValidationError) as built:
        cp_kernel(spec, "s")
    assert "kernel row 'b'" in str(checked.value)
    assert str(built.value) == str(checked.value)


def test_cp_point_mass_estimate_rows_are_target():
    lam_hat = point_distribution("1", GROUND3)
    spec = build_coupling_mechanism(
        MU, {"s": lam_hat}, mode="northwest", fallback="sample_target"
    )
    kernel = cp_kernel(spec, "s")
    for x in GROUND3:
        np.testing.assert_allclose(kernel.row(x).probs, MU.probs, atol=1e-12)


def test_cp_zero_mass_fallback_error():
    lam_hat = point_distribution("1", GROUND3)
    spec = build_coupling_mechanism(MU, {"s": lam_hat}, mode="northwest")
    with pytest.raises(UnsupportedInputError, match="zero estimated mass"):
        cp_kernel(spec, "s")


def test_cp_optimal_identity_when_estimate_is_target():
    spec = build_coupling_mechanism(MU, {"s": MU}, mode="optimal", metric=LINE3)
    kernel = cp_kernel(spec, "s")
    np.testing.assert_allclose(kernel.matrix, np.eye(3), atol=1e-9)


def test_cp_optimal_loss_is_emd(rng):
    spec = build_coupling_mechanism(MU, {"s": LAM}, mode="optimal", metric=LINE3)
    entry = spec.entry_for("s")
    cost = LINE3.cost
    loss = float(np.sum(entry.coupling.mass * cost))
    assert loss == pytest.approx(emd(LAM, MU, LINE3).cost, abs=1e-12)


def test_build_mode_validation():
    with pytest.raises(ValidationError, match="metric"):
        build_coupling_mechanism(MU, {"s": LAM}, mode="optimal")
    with pytest.raises(ValidationError, match="coupling for"):
        build_coupling_mechanism(MU, {"s": LAM}, mode="given", couplings={})
    with pytest.raises(ValidationError, match="mode"):
        build_coupling_mechanism(MU, {"s": LAM}, mode="best")
    with pytest.raises(ValidationError, match="nonempty"):
        build_coupling_mechanism(MU, {}, mode="northwest")
    with pytest.raises(ValidationError, match="fallback"):
        build_coupling_mechanism(MU, {"s": LAM}, mode="northwest", fallback="retry")


def test_given_mode_checks_marginals():
    wrong = northwest_corner(MU, MU)
    with pytest.raises(InvalidCouplingError):
        build_coupling_mechanism(MU, {"s": LAM}, mode="given", couplings={"s": wrong})


@pytest.mark.parametrize("mode", ["optimal", "northwest"])
def test_solver_modes_check_marginals_when_the_totals_disagree(mode):
    # each input holds a unit of mass to within TAU_MASS, but the totals
    # differ by 1.8 TAU_MASS, and a solver coupling misses a marginal by
    # that much
    ground = ("x0", "x1", "x2", "x3")
    target = FiniteDistribution(("y0", "y1", "y2"), [0.5, 0.25, 0.25 + 9e-10])
    metric = GroundMetric.line(ground + target.ground)
    lam = FiniteDistribution(ground, [0.25, 0.25, 0.25, 0.25 - 9e-10])
    with pytest.raises(InvalidCouplingError, match="declared marginals"):
        build_coupling_mechanism(target, {"s": lam}, mode, metric=metric)
    # within TAU_MASS / 2 the marginals are not summed; the full check of
    # the same entries agrees
    lam = FiniteDistribution(ground, [0.25, 0.25, 0.25, 0.25 + 6e-10])
    spec = build_coupling_mechanism(target, {"s": lam}, mode, metric=metric)
    assert CouplingMechanismSpec(spec.target, spec.entries).entries == spec.entries


def test_spec_rejects_duplicate_aux():
    entry = CouplingEntry("s", LAM, northwest_corner(LAM, MU))
    with pytest.raises(ValidationError, match="duplicate"):
        CouplingMechanismSpec(MU, (entry, entry))


def test_spec_rejects_mixed_grounds():
    other = uniform_distribution(("a", "b", "c"))
    entries = (
        CouplingEntry("s", LAM, northwest_corner(LAM, MU)),
        CouplingEntry("t", other, northwest_corner(other, MU)),
    )
    with pytest.raises(GroundMismatchError):
        CouplingMechanismSpec(MU, entries)


def test_aux_kernel_family():
    lam2 = FiniteDistribution(GROUND3, np.array([0.6, 0.2, 0.2]))
    spec = build_coupling_mechanism(MU, {"s": LAM, "t": lam2}, mode="northwest")
    family = aux_kernel(spec)
    assert family.labels == ("s", "t")
    np.testing.assert_allclose(
        family.kernel_for("s").matrix, cp_kernel(spec, "s").matrix
    )
    with pytest.raises(UnknownLabelError):
        family.kernel_for("u")


def test_aux_indexed_kernel_validation():
    with pytest.raises(ValidationError):
        KernelFamily({})
    with pytest.raises(GroundMismatchError):
        KernelFamily({
            "s": StochasticKernel.identity(("a", "b")),
            "t": StochasticKernel.identity(("a", "c")),
        })


# ---------------------------------------------------------------------------
# composition


def test_seq_constant_second_stage_is_product(rng):
    first = rand_kernel(rng, labels(3), labels(2, "y"))
    nu = rand_dist(rng, labels(4, "z"))
    second = StochasticKernel.constant(labels(3), nu)
    joint = seq_compose(first, second)
    for x in labels(3):
        want = product_distribution(lift(first, point_distribution(x, labels(3))), nu)
        np.testing.assert_allclose(joint.row(x).probs, want.probs, atol=1e-12)


def test_seq_joint_matches_nested_loops(rng):
    ground = labels(3)
    y0 = labels(2, "u")
    y1 = labels(3, "v")
    first = rand_kernel(rng, ground, y0)
    second = KernelFamily({u: rand_kernel(rng, ground, y1) for u in y0})
    joint = seq_compose(first, second)
    for xi, x in enumerate(ground):
        for ui, u in enumerate(y0):
            for vi, v in enumerate(y1):
                want = first.matrix[xi, ui] * second.kernel_for(u).matrix[xi, vi]
                got = joint.matrix[xi, joint.outputs.index(pair_label(u, v))]
                assert got == pytest.approx(want, abs=1e-15)


def test_seq_marginalize(rng):
    ground = labels(3)
    y0 = labels(2, "u")
    first = rand_kernel(rng, ground, y0)
    second = KernelFamily({u: rand_kernel(rng, ground, labels(3, "v")) for u in y0})
    joint = seq_compose(first, second)
    marg = seq_compose(first, second, marginalize=True)
    folded = joint.matrix.reshape(3, 2, 3).sum(axis=1)
    np.testing.assert_allclose(marg.matrix, folded, atol=1e-12)


def test_seq_identity_then_echo_is_diagonal():
    ground = ("a", "b")
    first = StochasticKernel.identity(ground)
    second = KernelFamily({
        y: StochasticKernel.constant(ground, point_distribution(y, ground))
        for y in ground
    })
    joint = seq_compose(first, second)
    for x in ground:
        assert joint.row(x)[pair_label(x, x)] == pytest.approx(1.0)


def test_seq_kl_budget_two_randomized_responses():
    ground = labels(3)
    eps = 0.7
    first = randomized_response(ground, eps)
    joint = seq_compose(first, randomized_response(ground, eps))
    phi = PointRelation.full(ground)
    eps0 = audit_div_dp(first, phi, KL).observed_eps
    report = audit_div_dp(joint, phi, KL)
    assert report.observed_eps <= 2.0 * eps0 + 1e-9


def test_seq_kl_budget_random_adaptive(rng):
    ground = labels(3)
    phi = PointRelation.full(ground)
    for _ in range(15):
        first = rand_kernel(rng, ground, labels(3, "u"))
        second = KernelFamily(
            {u: rand_kernel(rng, ground, labels(2, "v")) for u in labels(3, "u")}
        )
        eps0 = audit_div_dp(first, phi, KL).observed_eps
        eps1 = max(
            audit_div_dp(second.kernel_for(u), phi, KL).observed_eps
            for u in labels(3, "u")
        )
        got = audit_div_dp(seq_compose(first, second), phi, KL).observed_eps
        assert got <= eps0 + eps1 + 1e-9


def test_seq_ground_mismatch():
    first = StochasticKernel.identity(("a", "b"))
    second = KernelFamily.constant(("a",), StochasticKernel.identity(("a", "b")))
    with pytest.raises(GroundMismatchError, match="missing branches"):
        seq_compose(first, second)
    other = StochasticKernel.identity(("u", "v"))
    with pytest.raises(GroundMismatchError):
        seq_compose(first, other)


def test_liftseq_matches_double_sum(rng):
    ground = labels(3)
    y0 = labels(2, "u")
    y1 = labels(2, "v")
    first = rand_kernel(rng, ground, y0)
    second = KernelFamily({u: rand_kernel(rng, ground, y1) for u in y0})
    composed = liftseq_compose(first, second)
    lam0 = rand_dist(rng, ground)
    lam1 = rand_dist(rng, ground)
    out = lift(composed, product_distribution(lam0, lam1))
    a0 = lift(first, lam0)
    for ui, u in enumerate(y0):
        a1 = lift(second.kernel_for(u), lam1)
        for vi, v in enumerate(y1):
            want = a0.probs[ui] * a1.probs[vi]
            assert out[pair_label(u, v)] == pytest.approx(want, abs=1e-12)


def test_liftseq_constant_second_stage_leaks_only_first(rng):
    ground = labels(3)
    first = randomized_response(ground, 0.9)
    nu = rand_dist(rng, labels(2, "v"))
    composed = liftseq_compose(first, StochasticKernel.constant(ground, nu))
    psi = DistributionPairRelation([
        DistributionPair(
            product_distribution(point_distribution("x0", ground), rand_dist(rng, ground)),
            product_distribution(point_distribution("x1", ground), rand_dist(rng, ground)),
        )
    ])
    eps0 = audit_div_dp(first, PointRelation([("x0", "x1")]), KL).observed_eps
    got = audit_distp(composed, psi, KL).observed_eps
    assert got == pytest.approx(eps0, abs=1e-9)


def test_liftseq_marginalize_shapes(rng):
    ground = labels(2)
    first = rand_kernel(rng, ground, labels(2, "u"))
    second = rand_kernel(rng, ground, labels(3, "v"))
    marg = liftseq_compose(first, second, marginalize=True)
    assert marg.inputs == tuple(
        pair_label(a, b) for a in ground for b in ground
    )
    assert marg.outputs == labels(3, "v")


# ---------------------------------------------------------------------------
# post-processing


def test_post_process_identity_is_noop(rng):
    kernel = rand_kernel(rng, labels(3), labels(4, "y"))
    out = post_process(kernel, StochasticKernel.identity(labels(4, "y")))
    np.testing.assert_allclose(out.matrix, kernel.matrix, atol=1e-15)


def test_post_process_constant_erases_everything(rng):
    kernel = rand_kernel(rng, labels(3), labels(4, "y"))
    nu = rand_dist(rng, labels(2, "z"))
    out = post_process(kernel, StochasticKernel.constant(labels(4, "y"), nu))
    for x in labels(3):
        np.testing.assert_allclose(out.row(x).probs, nu.probs, atol=1e-12)
    report = audit_div_dp(out, PointRelation.full(labels(3)), KL)
    assert report.observed_eps == pytest.approx(0.0, abs=1e-12)


def test_post_process_ground_mismatch(rng):
    kernel = rand_kernel(rng, labels(3), labels(4, "y"))
    with pytest.raises(GroundMismatchError):
        post_process(kernel, StochasticKernel.identity(labels(3)))


# ---------------------------------------------------------------------------
# stability of pre-processing transformations


def test_stability_identity_metric_form(rng):
    ground = labels(4)
    pairs = [(rand_dist(rng, ground), rand_dist(rng, ground)) for _ in range(5)]
    kernel = StochasticKernel.identity(ground)
    assert stability_check(
        kernel, 1.0, pairs=pairs, metric=GroundMetric.line(ground)
    )


def test_stability_constant_collapses_distances(rng):
    ground = labels(4)
    nu = rand_dist(rng, ground)
    kernel = StochasticKernel.constant(ground, nu)
    pairs = [(rand_dist(rng, ground), rand_dist(rng, ground)) for _ in range(5)]
    assert stability_check(
        kernel, 0.0, pairs=pairs, metric=GroundMetric.line(ground)
    )


def test_stability_relabeling_matches_direct_computation(rng):
    ground = labels(4)
    metric = GroundMetric.line(ground)
    from distp import wasserstein_p

    for _ in range(10):
        perm = rng.permutation(4)
        matrix = np.eye(4)[perm]
        kernel = StochasticKernel(ground, ground, matrix)
        pairs = [(rand_dist(rng, ground), rand_dist(rng, ground)) for _ in range(4)]
        want = all(
            wasserstein_p(lift(kernel, a), lift(kernel, b), metric).cost
            <= wasserstein_p(a, b, metric).cost + 1e-9
            for a, b in pairs
        )
        assert stability_check(kernel, 1.0, pairs=pairs, metric=metric) == want


def test_stability_lipschitz_shift_on_line(rng):
    ground = labels(5)
    metric = GroundMetric.line(ground)
    # deterministic clamp x_i -> x_{min(i+1, 4)} moves mass 1-Lipschitz-ly
    matrix = np.zeros((5, 5))
    for i in range(5):
        matrix[i, min(i + 1, 4)] = 1.0
    kernel = StochasticKernel(ground, ground, matrix)
    pairs = [(rand_dist(rng, ground), rand_dist(rng, ground)) for _ in range(6)]
    assert stability_check(kernel, 1.0, pairs=pairs, metric=metric)
    assert stability_check(kernel, 1.0, pairs=pairs, metric=metric, order="inf")


def test_stability_relation_form_identity():
    ground = labels(3)
    psi = DistributionPairRelation([
        DistributionPair(
            uniform_distribution(ground), point_distribution("x0", ground)
        )
    ])
    assert stability_check(StochasticKernel.identity(ground), 1, relation=psi)


def test_stability_relation_form_two_steps():
    ground = labels(3)
    d0, d1, d2 = (point_distribution(x, ground) for x in ground)
    # x1 jumps to x2, both ends stay put: the image of (d0, d1) is (d0, d2),
    # two hops apart along the chain d0 - d1 - d2
    matrix = np.array([
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
    ])
    jump = StochasticKernel(ground, ground, matrix)
    psi = DistributionPairRelation([
        DistributionPair(d0, d1), DistributionPair(d1, d2)
    ])
    assert not stability_check(jump, 1, relation=psi)
    assert stability_check(jump, 2, relation=psi)


def test_stability_relation_form_unreachable_image():
    ground = labels(2)
    psi = DistributionPairRelation([
        DistributionPair(
            point_distribution("x0", ground), point_distribution("x1", ground)
        )
    ])
    nu = FiniteDistribution(ground, np.array([0.3, 0.7]))
    kernel = StochasticKernel.constant(ground, nu)
    # images collapse to nu, which is not a node of the relation graph,
    # but identical images short-circuit to success
    assert stability_check(kernel, 1, relation=psi)


def test_stability_relation_form_image_off_the_relation():
    ground = labels(2)
    psi = DistributionPairRelation([
        DistributionPair(
            point_distribution("x0", ground), point_distribution("x1", ground)
        )
    ])
    # the two images are distinct rows of randomized response, and neither
    # is a distribution of the relation
    kernel = randomized_response(ground, 1.0)
    assert not stability_check(kernel, 1, relation=psi)
    assert not stability_check(kernel, 5, relation=psi)


def test_stability_relation_form_zero_steps():
    ground = labels(3)
    d0, d1, d2 = (point_distribution(x, ground) for x in ground)
    psi = DistributionPairRelation([
        DistributionPair(d0, d1), DistributionPair(d1, d2)
    ])
    identity = StochasticKernel.identity(ground)
    # distinct images need at least one step, even when they are related
    assert not stability_check(identity, 0, relation=psi)
    assert stability_check(identity, 1, relation=psi)
    # equal images need none
    collapse = StochasticKernel.constant(ground, d2)
    assert stability_check(collapse, 0, relation=psi)


def test_stability_relation_form_stops_when_nothing_is_left_to_reach():
    """The walk ends once every node within reach of the start is seen, so
    a step count of 10**18 on an unreachable goal returns False at once; a
    walk that took all of its steps would not finish."""
    ground = labels(4)
    d0, d1, d2, d3 = (point_distribution(x, ground) for x in ground)
    # two components, d0 - d1 and d2 - d3; x1 jumps to x2, so the image of
    # (d0, d1) is (d0, d2), whose ends lie in different components
    jump = StochasticKernel(ground, ground, np.eye(4)[[0, 2, 2, 3]])
    psi = DistributionPairRelation([
        DistributionPair(d0, d1), DistributionPair(d2, d3)
    ])
    assert not stability_check(jump, 10**18, relation=psi)
    assert not stability_check(jump, 1, relation=psi)


def test_stability_argument_validation(rng):
    ground = labels(3)
    kernel = StochasticKernel.identity(ground)
    psi = DistributionPairRelation([
        DistributionPair(uniform_distribution(ground), uniform_distribution(ground))
    ])
    with pytest.raises(ValidationError):
        stability_check(kernel, 1.0)
    with pytest.raises(ValidationError):
        stability_check(
            kernel, 1.0, pairs=[], metric=GroundMetric.line(ground), relation=psi
        )
    with pytest.raises(ValidationError, match="integer"):
        stability_check(kernel, 1.5, relation=psi)
    with pytest.raises(ValidationError):
        stability_check(kernel, -1.0, pairs=[], metric=GroundMetric.line(ground))


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_stability_relation_form_rejects_non_integer_counts(c):
    ground = labels(3)
    psi = DistributionPairRelation([
        DistributionPair(uniform_distribution(ground), uniform_distribution(ground))
    ])
    with pytest.raises(ValidationError, match="integer"):
        stability_check(StochasticKernel.identity(ground), c, relation=psi)


def test_stability_metric_form_rejects_nan():
    """A NaN factor would pass every pair, since no comparison with NaN is
    true."""
    ground = labels(3)
    pairs = [(point_distribution("x0", ground), point_distribution("x1", ground))]
    collapse = StochasticKernel.constant(ground, uniform_distribution(ground))
    with pytest.raises(ValidationError, match="nonnegative"):
        stability_check(collapse, math.nan, pairs=pairs,
                        metric=GroundMetric.line(ground))


# ---------------------------------------------------------------------------
# sampling


def test_sample_outputs_deterministic():
    kernel = randomized_response(labels(3), 1.0)
    data = ["x0", "x2", "x1", "x0"] * 5
    first = sample_outputs(kernel, data, np.random.Generator(np.random.Philox(key=7)))
    second = sample_outputs(kernel, data, np.random.Generator(np.random.Philox(key=7)))
    assert first == second


def test_sample_outputs_identity_kernel_echoes():
    kernel = StochasticKernel.identity(labels(3))
    data = ["x1", "x0", "x2"]
    assert sample_outputs(kernel, data, np.random.default_rng(0)) == data


def test_sample_outputs_frequencies():
    kernel = randomized_response(("a", "b"), math.log(3.0))
    rng = np.random.default_rng(12345)
    out = sample_outputs(kernel, ["a"] * 4000, rng)
    keep = out.count("a") / 4000
    assert 0.7 < keep < 0.8


def test_sample_outputs_unknown_label():
    kernel = StochasticKernel.identity(labels(2))
    with pytest.raises(UnknownLabelError):
        sample_outputs(kernel, ["zzz"], np.random.default_rng(0))
