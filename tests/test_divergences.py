import math
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from distp import (
    CHI_SQUARED,
    HELLINGER,
    KL,
    REVERSE_KL,
    STANDARD_KINDS,
    TOTAL_VARIATION,
    CouplingMechanismSpec,
    DimensionMismatchError,
    DistributionPairRelation,
    FDivergenceKind,
    FiniteDistribution,
    GroundMetric,
    GroundMismatchError,
    InvalidGeneratorError,
    MaxDivergence,
    PointRelation,
    StochasticKernel,
    UnknownLabelError,
    ValidationError,
    approx_max_divergence,
    audit_distp,
    audit_div_dp,
    audit_div_xdp,
    audit_xdistp,
    build_coupling_mechanism,
    check_cp_theorem,
    cp_kernel,
    custom_kind,
    delta_required,
    divergence_value,
    f_divergence,
    lift,
    max_divergence,
    point_distribution,
    randomized_response,
    stability_check,
    uniform_distribution,
)
from distp.fileio import kernel_from_dict, load_json
from conftest import labels, rand_dist, rand_kernel, subset_oracle

INPUTS = Path(__file__).parent / "golden" / "inputs"


def dist(*probs):
    return FiniteDistribution(labels(len(probs)), np.array(probs, dtype=float))


# ---------------------------------------------------------------------------
# generators


GENERATOR_VALUES = [
    ("kl", 2.0, 2.0 * math.log(2.0)),
    ("kl", 0.5, 0.5 * math.log(0.5)),
    ("rkl", 2.0, -math.log(2.0)),
    ("rkl", 0.25, math.log(4.0)),
    ("tv", 3.0, 1.0),
    ("tv", 0.0, 0.5),
    ("chi2", 3.0, 4.0),
    ("chi2", 0.0, 1.0),
    ("hellinger", 4.0, 0.5),
    ("hellinger", 0.0, 0.5),
]


@pytest.mark.parametrize("name, t, expected", GENERATOR_VALUES)
def test_generator_values(name, t, expected):
    kind = next(k for k in STANDARD_KINDS if k.name == name)
    assert kind(np.array([t]))[0] == pytest.approx(expected, abs=1e-12)


def test_generators_vanish_at_one():
    for kind in STANDARD_KINDS:
        assert kind(np.array([1.0]))[0] == 0.0


def test_rkl_generator_blows_up_at_zero():
    assert REVERSE_KL(np.array([0.0]))[0] == math.inf


def test_custom_kind_accepts_scalar_callable():
    mine = custom_kind("mykl", lambda t: t * math.log(t) if t > 0 else 0.0)
    mu = dist(0.2, 0.8)
    nu = dist(0.5, 0.5)
    assert f_divergence(mine, mu, nu) == pytest.approx(f_divergence(KL, mu, nu))


def test_custom_kind_calls_a_generator_of_the_wrong_shape_per_scalar():
    # an array in gives one number out, so the generator is vectorized
    mine = custom_kind("sq", lambda t: float(np.sum((np.asarray(t) - 1.0) ** 2)))
    assert mine(np.array([0.5, 1.0, 3.0])).tolist() == [0.25, 0.0, 4.0]


def test_custom_kind_rejects_concave():
    # -t*log(t) is concave, so it cannot define an f-divergence
    with pytest.raises(InvalidGeneratorError, match="convexity"):
        custom_kind("negent", lambda t: -t * math.log(t) if t > 0 else 0.0)


def test_custom_kind_rejects_nonzero_at_one():
    with pytest.raises(InvalidGeneratorError, match="f\\(1\\)"):
        custom_kind("sq", lambda t: t * t)


def test_raw_kind_nan_guard():
    bad = FDivergenceKind("bad", lambda t: np.full_like(t, np.nan))
    with pytest.raises(InvalidGeneratorError, match="NaN"):
        f_divergence(bad, dist(0.5, 0.5), dist(0.4, 0.6))


# ---------------------------------------------------------------------------
# f-divergence values against closed forms


def test_kl_matches_rel_entr(rng):
    for _ in range(50):
        mu = rand_dist(rng, labels(6))
        nu = rand_dist(rng, labels(6))
        expected = float(scipy.special.rel_entr(mu.probs, nu.probs).sum())
        assert f_divergence(KL, mu, nu) == pytest.approx(expected, abs=1e-12)


def test_rkl_is_kl_with_arguments_swapped(rng):
    for _ in range(50):
        mu = rand_dist(rng, labels(5))
        nu = rand_dist(rng, labels(5))
        assert f_divergence(REVERSE_KL, mu, nu) == pytest.approx(
            f_divergence(KL, nu, mu), abs=1e-12
        )


def test_tv_matches_half_l1(rng):
    for _ in range(50):
        mu = rand_dist(rng, labels(7))
        nu = rand_dist(rng, labels(7))
        expected = 0.5 * float(np.abs(mu.probs - nu.probs).sum())
        assert f_divergence(TOTAL_VARIATION, mu, nu) == pytest.approx(
            expected, abs=1e-12
        )


def test_chi2_closed_form(rng):
    for _ in range(50):
        mu = rand_dist(rng, labels(5))
        nu = rand_dist(rng, labels(5))
        expected = float(((mu.probs - nu.probs) ** 2 / nu.probs).sum())
        assert f_divergence(CHI_SQUARED, mu, nu) == pytest.approx(expected, abs=1e-12)


def test_hellinger_closed_form(rng):
    for _ in range(50):
        mu = rand_dist(rng, labels(5))
        nu = rand_dist(rng, labels(5))
        expected = 0.5 * float(
            ((np.sqrt(mu.probs) - np.sqrt(nu.probs)) ** 2).sum()
        )
        assert f_divergence(HELLINGER, mu, nu) == pytest.approx(expected, abs=1e-12)


def test_absolute_continuity_violation_is_inf():
    # only for kinds whose generator grows faster than linearly
    mu = dist(0.5, 0.5)
    nu = dist(1.0, 0.0)
    for kind in (KL, CHI_SQUARED, custom_kind("sq", lambda t: (t - 1.0) ** 2)):
        assert kind.slope == math.inf
        assert f_divergence(kind, mu, nu) == math.inf


def test_mass_off_the_reference_support_costs_the_recession_slope():
    # Csiszar's convention: mu's mass where nu has none costs f'(inf) per
    # unit, 0 for reverse KL and 1/2 for TV and Hellinger
    mu = dist(0.5, 0.5)
    nu = dist(1.0, 0.0)
    assert f_divergence(REVERSE_KL, mu, nu) == pytest.approx(math.log(2.0))
    assert f_divergence(TOTAL_VARIATION, mu, nu) == pytest.approx(0.5)
    assert f_divergence(HELLINGER, mu, nu) == pytest.approx(1.0 - math.sqrt(0.5))
    # the symmetric kinds agree in both directions
    for kind in (TOTAL_VARIATION, HELLINGER):
        assert f_divergence(kind, mu, nu) == pytest.approx(f_divergence(kind, nu, mu))


def test_reference_support_gap_is_fine():
    # nu covers a label mu skips: finite for every standard kind except
    # reverse KL, whose generator diverges at ratio zero
    mu = dist(1.0, 0.0)
    nu = dist(0.5, 0.5)
    assert f_divergence(KL, mu, nu) == pytest.approx(math.log(2.0))
    assert f_divergence(TOTAL_VARIATION, mu, nu) == pytest.approx(0.5)
    assert f_divergence(REVERSE_KL, mu, nu) == math.inf


@given(st.integers(2, 8), st.integers(0, 10**6))
def test_f_divergences_nonnegative_and_zero_on_equal(k, seed):
    rng = np.random.default_rng(seed)
    mu = rand_dist(rng, labels(k))
    nu = rand_dist(rng, labels(k))
    for kind in STANDARD_KINDS:
        assert f_divergence(kind, mu, nu) >= -1e-12
        assert f_divergence(kind, mu, mu) == 0.0


@given(st.integers(0, 10**6))
def test_data_processing_inequality(seed):
    rng = np.random.default_rng(seed)
    mu = rand_dist(rng, labels(4))
    nu = rand_dist(rng, labels(4))
    kernel = rand_kernel(rng, labels(4), labels(3, "y"))
    for kind in (KL, TOTAL_VARIATION, CHI_SQUARED):
        before = f_divergence(kind, mu, nu)
        after = f_divergence(kind, lift(kernel, mu), lift(kernel, nu))
        assert after <= before + 1e-9


# ---------------------------------------------------------------------------
# max divergence


def test_max_divergence_values():
    mu = dist(0.75, 0.25)
    nu = dist(0.25, 0.75)
    assert max_divergence(mu, nu) == pytest.approx(math.log(3.0), abs=1e-12)
    assert max_divergence(mu, mu) == 0.0
    assert max_divergence(point_distribution("x0", labels(2)), nu) == pytest.approx(
        math.log(4.0)
    )


def test_max_divergence_inf_on_support_gap():
    assert max_divergence(dist(0.5, 0.5), dist(1.0, 0.0)) == math.inf


@given(st.integers(2, 8), st.integers(0, 10**6))
def test_max_divergence_nonnegative(k, seed):
    rng = np.random.default_rng(seed)
    mu = rand_dist(rng, labels(k))
    nu = rand_dist(rng, labels(k))
    assert max_divergence(mu, nu) >= 0.0


# ---------------------------------------------------------------------------
# slack variant, checked against exhaustive event enumeration


@pytest.mark.parametrize("delta", [0.0, 0.05, 0.1, 0.3])
def test_prefix_matches_subset_oracle(rng, delta):
    for trial in range(60):
        k = int(rng.integers(2, 9))
        zeros = int(rng.integers(0, 2))
        mu = rand_dist(rng, labels(k), zeros=zeros)
        nu = rand_dist(rng, labels(k), zeros=zeros if trial % 3 else 0)
        got = approx_max_divergence(mu, nu, delta)
        want = subset_oracle(mu.probs, nu.probs, delta)
        if math.isinf(want):
            assert got == want
        else:
            assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("delta", [0.0, 0.1, 0.3])
def test_exact_subsets_keyword_is_rejected(rng, delta):
    """The prefix rule is the only delta evaluation, so the library takes no
    ``exact_subsets`` keyword (and the CLI no ``--exact-subsets`` flag)."""
    ground = labels(4)
    mu, nu = rand_dist(rng, ground), rand_dist(rng, ground)
    kernel = rand_kernel(rng, ground, labels(3, "y"))
    phi = PointRelation.full(ground)
    psi = DistributionPairRelation([(mu, nu)])
    metric = GroundMetric.line(ground)
    divergence = MaxDivergence(delta)
    spec = build_coupling_mechanism(mu, {"s": nu, "t": mu}, "northwest")
    calls = [
        lambda **kw: approx_max_divergence(mu, nu, delta, **kw),
        lambda **kw: divergence_value(divergence, mu, nu, **kw),
        lambda **kw: audit_div_dp(kernel, phi, divergence, **kw),
        lambda **kw: audit_div_xdp(kernel, phi, metric, divergence, **kw),
        lambda **kw: audit_distp(kernel, psi, divergence, **kw),
        lambda **kw: audit_xdistp(kernel, psi, metric, divergence, **kw),
        lambda **kw: check_cp_theorem(spec, {"s": nu, "t": mu}, **kw),
    ]
    for call in calls:
        call()
        with pytest.raises(TypeError, match="exact_subsets"):
            call(exact_subsets=False)


def test_zero_slack_equals_max_divergence(rng):
    for _ in range(3000):
        ground = labels(int(rng.integers(2, 7)))
        mu = rand_dist(rng, ground)
        nu = rand_dist(rng, ground)
        assert approx_max_divergence(mu, nu, 0.0) == max_divergence(mu, nu)


def test_slack_monotone_in_delta(rng):
    deltas = [0.0, 0.02, 0.1, 0.25, 0.5, 0.9]
    for _ in range(20):
        mu = rand_dist(rng, labels(6))
        nu = rand_dist(rng, labels(6))
        values = [approx_max_divergence(mu, nu, d) for d in deltas]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi + 1e-12


def test_slack_can_go_negative():
    mu = uniform_distribution(labels(2))
    nu = uniform_distribution(labels(2))
    # only the full event clears delta = 0.6; value is ln(0.4)
    assert approx_max_divergence(mu, nu, 0.6) == pytest.approx(math.log(0.4))


def test_slack_sentinel_when_no_event_qualifies():
    mu = uniform_distribution(labels(2))
    assert approx_max_divergence(mu, mu, 1.0) == -math.inf


def test_slack_inf_on_null_reference_event():
    mu = uniform_distribution(labels(2))
    nu = point_distribution("x0", labels(2))
    assert approx_max_divergence(mu, nu, 0.3) == math.inf


def test_slack_rejects_bad_delta():
    mu = uniform_distribution(labels(2))
    with pytest.raises(ValidationError):
        approx_max_divergence(mu, mu, -0.1)
    with pytest.raises(ValidationError):
        approx_max_divergence(mu, mu, 1.5)
    with pytest.raises(ValidationError):
        MaxDivergence(1.0001)


# ---------------------------------------------------------------------------
# slack needed for a target epsilon


def test_delta_required_randomized_response():
    ground = labels(4)
    kernel = randomized_response(ground, math.log(3.0))
    phi = PointRelation.full(ground)
    assert delta_required(kernel, phi, math.log(3.0)) == pytest.approx(0.0, abs=1e-12)
    need = delta_required(kernel, phi, math.log(2.0))
    assert need > 0.0
    # brute check: rows are (1/2, 1/6, 1/6, 1/6); only the diagonal entry
    # can exceed twice its counterpart
    assert need == pytest.approx(0.5 - 2.0 / 6.0, abs=1e-12)


def test_delta_required_brute(rng):
    ground = labels(5)
    kernel = rand_kernel(rng, ground, labels(4, "y"))
    phi = PointRelation.full(ground)
    for epsilon in (0.0, 0.3, 1.0):
        scale = math.exp(epsilon)
        want = max(
            float(np.maximum(0.0, kernel.matrix[i] - scale * kernel.matrix[j]).sum())
            for i in range(5)
            for j in range(5)
            if i != j
        )
        assert delta_required(kernel, phi, epsilon) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("name", ["kernel.json", "kernel_full.json"])
@pytest.mark.parametrize("epsilon", [0.0, 1.0])
def test_delta_required_equals_each_pair_apart(name, epsilon):
    """Bit for bit against one ``np.maximum(0.0, p - scale * q).sum()`` per
    ordered pair, on a kernel with zero cells and on one with none."""
    kernel = kernel_from_dict(load_json(str(INPUTS / name)))
    m, scale = kernel.matrix, math.exp(epsilon)
    want = max(
        float(np.maximum(0.0, m[i] - scale * m[j]).sum())
        for i in range(len(m))
        for j in range(len(m))
        if i != j
    )
    got = delta_required(kernel, PointRelation.full(kernel.inputs), epsilon)
    assert got.hex() == max(0.0, want).hex()


def overflow_kernel():
    """Rows with zeros. The mass of row a where row b is 0 is 0.75 for row
    x2 against row x0, and at most 0.5 for every other ordered pair."""
    return StochasticKernel(labels(3), labels(3, "y"), np.array([
        [0.5, 0.5, 0.0],
        [0.2, 0.3, 0.5],
        [0.25, 0.0, 0.75],
    ]))


@pytest.mark.filterwarnings("error")
def test_delta_required_past_the_float_range_of_e_to_the_epsilon():
    """At epsilon = 800, e^epsilon overflows a float; the slack is still
    the definition's value, the largest mass of P where Q = 0, with no
    exception. A large finite scale gives the same."""
    kernel = overflow_kernel()
    phi = PointRelation.full(kernel.inputs)
    assert delta_required(kernel, phi, 800.0) == 0.75
    assert delta_required(kernel, phi, 700.0) == 0.75


@pytest.mark.filterwarnings("error")
def test_delta_required_at_infinite_epsilon_warns_nothing():
    """e^inf times a zero cell of Q would be NaN; the slack is P's mass
    where Q = 0, with no RuntimeWarning."""
    kernel = overflow_kernel()
    assert delta_required(kernel, PointRelation.full(kernel.inputs),
                          math.inf) == 0.75
    identity = StochasticKernel.identity(labels(2))
    assert delta_required(identity, PointRelation.full(labels(2)),
                          math.inf) == 1.0


def test_delta_required_validation():
    kernel = randomized_response(labels(2), 1.0)
    with pytest.raises(ValidationError):
        delta_required(kernel, PointRelation.full(labels(2)), -0.5)


def test_delta_required_rejects_nan():
    """NaN passes a sign test, and would report that no slack is needed."""
    kernel = randomized_response(labels(2), 1.0)
    with pytest.raises(ValidationError, match="nonnegative"):
        delta_required(kernel, PointRelation.full(labels(2)), math.nan)


# ---------------------------------------------------------------------------
# dispatch


def test_divergence_value_dispatch(rng):
    mu = rand_dist(rng, labels(4))
    nu = rand_dist(rng, labels(4))
    assert divergence_value(KL, mu, nu) == f_divergence(KL, mu, nu)
    assert divergence_value(MaxDivergence(), mu, nu) == max_divergence(mu, nu)
    assert divergence_value(MaxDivergence(0.1), mu, nu) == approx_max_divergence(
        mu, nu, 0.1
    )
    with pytest.raises(ValidationError):
        divergence_value("kl", mu, nu)


def test_max_divergence_descriptor_names():
    assert MaxDivergence().name == "max"
    assert MaxDivergence(0.05).name == "max(delta=0.05)"


# ---------------------------------------------------------------------------
# errors raised through the public API


ON_GROUND = FiniteDistribution(("a", "b"), np.array([0.25, 0.75]))
OFF_GROUND = FiniteDistribution(("p", "q"), np.array([0.25, 0.75]))


def _spec():
    target = FiniteDistribution(("y0", "y1"), np.array([0.5, 0.5]))
    return build_coupling_mechanism(target, {"s": ON_GROUND}, mode="northwest")


RAISES = {
    "cp_theorem_actual_on_another_ground": (
        lambda: check_cp_theorem(_spec(), {"s": OFF_GROUND}),
        GroundMismatchError, "shared ground"),
    "divergence_value_across_grounds": (
        lambda: divergence_value(KL, ON_GROUND, OFF_GROUND),
        GroundMismatchError, "shared ground"),
    "custom_kind_not_finite": (
        lambda: custom_kind("inf", lambda t: np.full_like(t, np.inf)),
        InvalidGeneratorError, "not finite on the check grid"),
    "line_positions_of_another_size": (
        lambda: GroundMetric.line(("a", "b"), [0.0]),
        DimensionMismatchError, "positions must match ground size"),
    "spec_without_entries": (
        lambda: CouplingMechanismSpec(_spec().target, ()),
        ValidationError, "at least one auxiliary value"),
    "cp_kernel_unknown_aux": (
        lambda: cp_kernel(_spec(), "zz"),
        UnknownLabelError, "'zz' not in mechanism"),
    "stability_pairs_without_metric": (
        lambda: stability_check(StochasticKernel.identity(("a", "b")), 1.0,
                                pairs=[(ON_GROUND, ON_GROUND)]),
        ValidationError, "metric form needs both pairs and metric"),
}


@pytest.mark.parametrize("case", sorted(RAISES))
def test_public_call_raises(case):
    call, error, match = RAISES[case]
    with pytest.raises(error, match=match):
        call()
