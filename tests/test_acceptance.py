"""Release acceptance checklist.

One test per numbered criterion; each prints a single PASS line on the way
out (run with ``pytest -s tests/test_acceptance.py`` to see them).  The
criteria pin the worked three-point example, the lifting guarantees at both
the label and the distribution level, the coupling-mechanism closeness and
utility statements, oracle equivalence for the two bespoke solvers, a set
of structural inequalities, and cross-run determinism.
"""

import hashlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (
    SEED,
    euclidean_metric,
    labels,
    phi_member_pair,
    rand_dist,
    rand_kernel,
    rand_relation,
    shuffled_line_metric,
    tilted,
    w1_member_pair,
)
from distp import (
    KL,
    STANDARD_KINDS,
    TAU_ZERO,
    DistributionPair,
    DistributionPairRelation,
    FiniteDistribution,
    GroundMetric,
    KernelFamily,
    MaxDivergence,
    StochasticKernel,
    approx_max_divergence,
    audit_distp,
    audit_div_dp,
    audit_div_xdp,
    build_coupling_mechanism,
    check_cp_theorem,
    coupling_cost,
    cp_kernel,
    diameter,
    emd,
    expected_utility_loss,
    f_divergence,
    is_submodular,
    lift,
    liftseq_compose,
    northwest_corner,
    post_process,
    product_distribution,
    randomized_response,
    seq_compose,
    wasserstein_inf,
    wasserstein_p,
)

GROUND3 = ("1", "2", "3")
LAM = FiniteDistribution(GROUND3, np.array([0.2, 0.5, 0.3]))
MU = FiniteDistribution(GROUND3, np.array([0.3, 0.2, 0.5]))

# the worked example's transport table on the unit-spaced line
NW_TABLE = np.array([
    [0.2, 0.0, 0.0],
    [0.1, 0.2, 0.2],
    [0.0, 0.0, 0.3],
])

SOUND_CP_BOUNDS = ("max", "kl", "f:kl", "f:tv", "f:chi2", "f:hellinger")


def report(n, detail):
    print(f"criterion {n}: PASS - {detail}")


def test_criterion_1_worked_example_transport():
    start = time.perf_counter()
    plan = northwest_corner(LAM, MU)
    np.testing.assert_allclose(plan.mass, NW_TABLE, atol=1e-12)
    assert np.count_nonzero(plan.mass) == 5

    cost = emd(LAM, MU, GroundMetric.line(GROUND3)).cost
    assert cost == pytest.approx(0.3, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"northwest table exact, emd 0.3, {elapsed:.3f}s")


def test_criterion_2_worked_example_mechanism():
    spec = build_coupling_mechanism(
        MU, {"s": LAM}, mode="given",
        couplings={"s": northwest_corner(LAM, MU)},
    )
    kernel = cp_kernel(spec, "s")
    row = kernel.row("2")
    assert row["1"] == pytest.approx(0.2, abs=1e-9)
    assert row["3"] == pytest.approx(0.4, abs=1e-9)
    pushed = lift(kernel, LAM)
    np.testing.assert_allclose(pushed.probs, MU.probs, atol=1e-9)
    report(2, "input 2 -> output 1 w.p. 0.2 and output 3 w.p. 0.4; "
              "lift reproduces the target")


def test_criterion_3_label_privacy_lifts_to_distributions(rng):
    start = time.perf_counter()
    checked = 0
    for _ in range(100):
        nx = int(rng.integers(2, 7))
        ny = int(rng.integers(2, 7))
        ground = labels(nx)
        kernel = rand_kernel(rng, ground, labels(ny, "y"))
        phi = rand_relation(rng, ground, int(rng.integers(1, 7)))
        budgets = {
            kind: audit_div_dp(kernel, phi, kind).observed_eps
            for kind in STANDARD_KINDS
        }
        for _ in range(20):
            lam0, lam1, _ = phi_member_pair(rng, phi, ground)
            out0 = lift(kernel, lam0)
            out1 = lift(kernel, lam1)
            for kind, eps in budgets.items():
                assert f_divergence(kind, out0, out1) <= eps + 1e-7
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, f"{checked} lifted-pair divergences within the label-level "
              f"budgets, {elapsed:.1f}s")


def test_criterion_4_metric_privacy_lifts_at_transport_cost(rng):
    checked = 0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        ground = labels(k)
        metric = GroundMetric.line(ground)
        kernel = rand_kernel(rng, ground, labels(int(rng.integers(2, 7)), "y"))
        for _ in range(20):
            phi, lam0, lam1 = w1_member_pair(rng, ground)
            w1 = emd(lam0, lam1, metric).cost
            out0 = lift(kernel, lam0)
            out1 = lift(kernel, lam1)
            for kind in STANDARD_KINDS:
                eps = audit_div_xdp(kernel, phi, metric, kind).observed_eps
                assert f_divergence(kind, out0, out1) <= eps * w1 + 1e-7
                checked += 1
    report(4, f"{checked} lifted-pair divergences within eps * W1")


def generator_at(name, t):
    return {
        "kl": t * math.log(t),
        "tv": 0.5 * abs(t - 1.0),
        "chi2": (t - 1.0) ** 2,
        "hellinger": 0.5 * (math.sqrt(t) - 1.0) ** 2,
    }[name]


def perturbed_cp_instance(rng):
    """A two-aux coupling mechanism built from tilted estimates."""
    k = int(rng.integers(2, 7))
    ground = labels(k)
    mu = rand_dist(rng, ground)
    actual = {"s": rand_dist(rng, ground), "t": rand_dist(rng, ground)}
    estimates = {s: tilted(rng, lam, scale=0.12) for s, lam in actual.items()}
    spec = build_coupling_mechanism(mu, estimates, mode="northwest")
    return spec, actual


def test_criterion_5_estimation_error_bounds_the_outputs(rng):
    for _ in range(100):
        spec, actual = perturbed_cp_instance(rng)
        rep = check_cp_theorem(spec, actual)
        assert 0.0 < rep.epsilon <= 0.5
        growth = math.exp(rep.epsilon)
        expected_bounds = {
            "max": 2.0 * rep.epsilon,
            "kl": 2.0 * rep.epsilon * growth,
        }
        for name in ("kl", "tv", "chi2", "hellinger"):
            expected_bounds[f"f:{name}"] = growth * generator_at(
                name, growth ** 2
            )
        for name in SOUND_CP_BOUNDS:
            chk = rep.check(name)
            assert chk.bound == pytest.approx(expected_bounds[name], rel=1e-12)
            assert chk.report.observed_eps <= chk.bound + 1e-7

    # exact estimates: every audited value collapses to zero
    ground = labels(4)
    actual = {"s": rand_dist(rng, ground), "t": rand_dist(rng, ground)}
    spec = build_coupling_mechanism(rand_dist(rng, ground), actual,
                                    mode="northwest")
    rep = check_cp_theorem(spec, actual)
    assert rep.epsilon == 0.0
    for chk in rep.checks:
        assert chk.report.observed_eps == pytest.approx(0.0, abs=1e-9)
        assert chk.passed
    report(5, "100 perturbed instances within the max/kl/f-divergence "
              "closeness bounds; exact estimates audit to zero")


@pytest.mark.xfail(
    strict=True,
    reason="the reverse-KL closeness bound e^eps * f(e^(2 eps)) is negative "
           "for every eps > 0, so no nonnegative divergence can satisfy it; "
           "the auditor reports the failure verbatim",
)
def test_criterion_5_reverse_kl_clause(rng):
    spec, actual = perturbed_cp_instance(rng)
    rep = check_cp_theorem(spec, actual)
    chk = rep.check("f:rkl")
    assert chk.bound < 0.0
    print("criterion 5 (reverse-KL clause): FAIL - bound "
          f"{chk.bound:.6f} < 0 cannot dominate a nonnegative divergence")
    assert chk.report.observed_eps <= chk.bound + 1e-7


def test_criterion_6_optimal_mode_matches_transport_cost(rng):
    non_submodular = 0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        ground = labels(k)
        metric = shuffled_line_metric(rng, ground)
        non_submodular += not is_submodular(metric)
        lam_hat = rand_dist(rng, ground)
        mu = rand_dist(rng, ground)

        best = build_coupling_mechanism(mu, {"s": lam_hat}, mode="optimal",
                                        metric=metric)
        loss = expected_utility_loss(cp_kernel(best, "s"), lam_hat, metric)
        assert loss == pytest.approx(emd(lam_hat, mu, metric).cost, abs=1e-9)

        greedy = build_coupling_mechanism(mu, {"s": lam_hat},
                                          mode="northwest")
        greedy_loss = expected_utility_loss(cp_kernel(greedy, "s"), lam_hat,
                                            metric)
        assert loss <= greedy_loss + 1e-9
    assert non_submodular >= 10
    report(6, "optimal-mode loss equals the transport cost and never "
              f"exceeds the greedy mode ({non_submodular} non-submodular "
              "metrics)")


def slack_event_oracle(mu, nu, delta):
    """Exhaustive maximum of ln((mu[R] - delta) / nu[R]) over events R."""
    support = np.flatnonzero(mu.probs > TAU_ZERO)
    masks = np.arange(1, 2 ** support.size)
    bits = (masks[:, None] >> np.arange(support.size)) & 1
    mass = bits @ mu.probs[support]
    ref = bits @ nu.probs[support]
    slacked = mass - delta
    ok = (mass >= delta) & (slacked > 0.0)
    if not ok.any():
        return -math.inf
    if (ref[ok] <= TAU_ZERO).any():
        return math.inf
    return float(np.log(slacked[ok] / ref[ok]).max())


def test_criterion_7_solver_oracle_equivalence(rng):
    for trial in range(500):
        k = int(rng.integers(2, 11))
        ground = labels(k)
        mu = rand_dist(rng, ground, zeros=int(rng.integers(0, 3)))
        nu = rand_dist(rng, ground,
                       zeros=int(rng.integers(0, 3)) if trial % 3 else 0)
        for delta in (0.0, 0.05, 0.1, 0.3):
            got = approx_max_divergence(mu, nu, delta)
            want = slack_event_oracle(mu, nu, delta)
            if math.isinf(want):
                assert got == want
            else:
                assert got == pytest.approx(want, abs=1e-9)

    ground2 = ("a", "b")
    metric = GroundMetric.from_mapping(
        ground2, {("a", "b"): 1.0, ("b", "a"): 2.5}
    )
    grid = np.linspace(0.0, 1.0, 21)
    for p in grid:
        for q in grid:
            lam = FiniteDistribution(ground2, np.array([p, 1.0 - p]))
            mu2 = FiniteDistribution(ground2, np.array([q, 1.0 - q]))
            lo, hi = max(0.0, p + q - 1.0), min(p, q)
            # the feasible diagonal mass is the segment [lo, hi]; scan it
            # densely as well as at its endpoints
            candidates = np.linspace(lo, hi, 101)
            costs = (p - candidates) * 1.0 + (q - candidates) * 2.5
            assert emd(lam, mu2, metric).cost == pytest.approx(
                costs.min(), abs=1e-12
            )
    report(7, "prefix rule matches the exhaustive event oracle on 2000 "
              "calls; transport cost matches brute force on the 2x2 grid")


def test_criterion_8_structural_properties(rng):
    # greedy staircase is optimal whenever the cost table is submodular
    for _ in range(100):
        k = int(rng.integers(2, 8))
        ground = labels(k)
        positions = np.sort(rng.random(k)) * float(rng.uniform(1.0, 5.0))
        metric = GroundMetric.line(ground, positions=positions)
        assert is_submodular(metric)
        lam = rand_dist(rng, ground)
        mu = rand_dist(rng, ground)
        greedy = coupling_cost(northwest_corner(lam, mu), metric)
        assert greedy == pytest.approx(emd(lam, mu, metric).cost, abs=1e-9)

    # order-1 transport <= bottleneck transport <= support diameter
    for _ in range(100):
        k = int(rng.integers(2, 8))
        ground = labels(k)
        metric = euclidean_metric(rng, ground)
        lam = rand_dist(rng, ground, zeros=int(rng.integers(0, 2)))
        mu = rand_dist(rng, ground, zeros=int(rng.integers(0, 2)))
        w1 = wasserstein_p(lam, mu, metric).cost
        winf = wasserstein_inf(lam, mu, metric).cost
        assert w1 <= winf + 1e-9
        assert winf <= diameter(lam, mu, metric) + 1e-9

    # auditing point-mass pairs is exactly the label-level audit
    descriptors = list(STANDARD_KINDS) + [MaxDivergence(), MaxDivergence(0.1)]
    for i in range(100):
        k = int(rng.integers(2, 6))
        ground = labels(k)
        kernel = rand_kernel(rng, ground, labels(int(rng.integers(2, 6)), "y"))
        phi = rand_relation(rng, ground, int(rng.integers(1, 7)))
        div = descriptors[i % len(descriptors)]
        label_rep = audit_div_dp(kernel, phi, div)
        dist_rep = audit_distp(
            kernel, DistributionPairRelation.from_point_relation(phi, ground),
            div,
        )
        assert dist_rep.observed_eps == label_rep.observed_eps
        for got, want in zip(dist_rep.pairs, label_rep.pairs):
            assert got.forward == want.forward
            assert got.backward == want.backward

    # post-processing never increases any audited divergence
    for i in range(100):
        k = int(rng.integers(2, 6))
        ground = labels(k)
        mid = labels(int(rng.integers(2, 6)), "y")
        kernel = rand_kernel(rng, ground, mid)
        downstream = rand_kernel(rng, mid, labels(int(rng.integers(2, 6)), "z"))
        psi = DistributionPairRelation([
            DistributionPair(rand_dist(rng, ground), rand_dist(rng, ground))
            for _ in range(3)
        ])
        div = descriptors[i % len(descriptors)]
        before = audit_distp(kernel, psi, div).observed_eps
        after = audit_distp(post_process(kernel, downstream), psi,
                            div).observed_eps
        assert after <= before + 1e-9

    # sequential budgets add up (adaptive second stage: the worst branch)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        ground = labels(k)
        first = rand_kernel(rng, ground, labels(int(rng.integers(2, 5)), "y"))
        phi = rand_relation(rng, ground, int(rng.integers(1, 5)))
        branches = {
            y: rand_kernel(rng, ground, labels(3, "z"))
            for y in first.outputs
        }
        eps0 = audit_div_dp(first, phi, KL).observed_eps
        eps1 = max(
            audit_div_dp(branch, phi, KL).observed_eps
            for branch in branches.values()
        )
        joint = seq_compose(first, KernelFamily(branches))
        assert audit_div_dp(joint, phi, KL).observed_eps <= eps0 + eps1 + 1e-9

    # independent-pair budgets add up for the parallel composition
    for _ in range(50):
        ground = labels(int(rng.integers(2, 4)))
        first = rand_kernel(rng, ground, labels(int(rng.integers(2, 4)), "y"))
        second = rand_kernel(rng, ground, labels(int(rng.integers(2, 4)), "z"))
        pairs0 = [
            DistributionPair(rand_dist(rng, ground), rand_dist(rng, ground))
            for _ in range(2)
        ]
        pairs1 = [
            DistributionPair(rand_dist(rng, ground), rand_dist(rng, ground))
            for _ in range(2)
        ]
        eps0 = audit_distp(first, DistributionPairRelation(pairs0),
                           KL).observed_eps
        eps1 = audit_distp(second, DistributionPairRelation(pairs1),
                           KL).observed_eps
        joint = liftseq_compose(first, second)
        combined = DistributionPairRelation([
            DistributionPair(
                product_distribution(p0.left, p1.left),
                product_distribution(p0.right, p1.right),
            )
            for p0 in pairs0
            for p1 in pairs1
        ])
        observed = audit_distp(joint, combined, KL).observed_eps
        assert observed <= eps0 + eps1 + 1e-9

    report(8, "greedy optimality, transport chain, point-mass audit "
              "equality, post-processing monotonicity, and both "
              "composition budgets hold")


# ---------------------------------------------------------------------------
# determinism


LIBRARY_BATTERY = """
import hashlib
import numpy as np
from distp import (FiniteDistribution, GroundMetric, KL, PointRelation,
                   StochasticKernel, audit_div_dp, emd, northwest_corner,
                   randomized_response, sample_outputs)

rng = np.random.default_rng(2026)
ground = tuple(f"x{i}" for i in range(5))
rows = rng.dirichlet(np.ones(4), size=5)
kernel = StochasticKernel(ground, ("y0", "y1", "y2", "y3"), rows)
lam = FiniteDistribution(ground, rng.dirichlet(np.ones(5)))
mu = FiniteDistribution(ground, rng.dirichlet(np.ones(5)))
metric = GroundMetric.line(ground)

digest = hashlib.sha256()
digest.update(emd(lam, mu, metric).coupling.mass.tobytes())
digest.update(northwest_corner(lam, mu).mass.tobytes())
rep = audit_div_dp(kernel, PointRelation([(ground[0], ground[3])]), KL)
digest.update(repr(rep.observed_eps).encode())
rr = randomized_response(("a", "b"), 1.0)
draws = sample_outputs(rr, ["a", "b"] * 50, np.random.default_rng(7))
digest.update("".join(draws).encode())
print(digest.hexdigest())
"""


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "distp.cli", *map(str, args)],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_9_determinism(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        content = payload if isinstance(payload, str) else json.dumps(payload)
        path.write_text(content)
        return str(path)

    lam = write("lam.json", {"ground": list(GROUND3),
                             "probs": [0.2, 0.5, 0.3]})
    mu = write("mu.json", {"ground": list(GROUND3),
                           "probs": [0.3, 0.2, 0.5]})
    cost = write("d.csv", "1,2,3\n0,1,2\n1,0,1\n2,1,0\n")
    rr = randomized_response(("a", "b"), math.log(3.0))
    mech = write("rr.json", {
        "inputs": list(rr.inputs),
        "outputs": list(rr.outputs),
        "rows": [[float(v) for v in row] for row in rr.matrix],
    })
    phi = write("phi.json", [["a", "b"]])
    data = write("data.csv", "x\n" + "\n".join(["a", "b"] * 15) + "\n")
    inputs = write("inputs.json",
                   {"s": {"ground": list(GROUND3), "probs": [0.2, 0.5, 0.3]}})
    branches = write("branches.json", {"branches": {
        "a": {"inputs": ["a", "b"], "outputs": ["u", "v"],
              "rows": [[0.9, 0.1], [0.2, 0.8]]},
        "b": {"inputs": ["a", "b"], "outputs": ["u", "v"],
              "rows": [[0.5, 0.5], [0.4, 0.6]]},
    }})

    commands = [
        ("divergence", "--lhs", lam, "--rhs", mu, "--divergence", "kl"),
        ("divergence", "--lhs", lam, "--rhs", mu, "--divergence",
         "max-delta", "--delta", "0.05"),
        ("emd", "--lhs", lam, "--rhs", mu, "--cost", cost),
        ("emd", "--lhs", lam, "--rhs", mu, "--cost", cost, "--inf"),
        ("couple", "--lhs", lam, "--rhs", mu, "--northwest"),
        ("couple", "--lhs", lam, "--rhs", mu, "--cost", cost),
        ("audit", "--mech", mech, "--relation", phi, "--divergence", "max",
         "--claimed-eps", "1.2"),
        ("audit", "--mech", mech, "--relation", phi, "--divergence", "kl",
         "--format", "csv"),
        ("couple-mech", "build", "--target", mu, "--inputs", inputs,
         "--mode", "optimal", "--cost", cost),
        ("obfuscate", "--mech", mech, "--data", data, "--seed", "7"),
        ("compose", "--op", "seq", "--first", mech, "--second", branches),
        ("compose", "--op", "liftseq", "--first", mech, "--second", mech),
        ("compose", "--op", "post", "--first", mech, "--second", mech),
    ]
    for args in commands:
        assert run_cli(args) == run_cli(args), f"unstable output: {args[0]}"

    battery = [sys.executable, "-c", LIBRARY_BATTERY]
    first = subprocess.run(battery, capture_output=True, check=True).stdout
    second = subprocess.run(battery, capture_output=True, check=True).stdout
    assert first == second
    assert len(first.strip()) == 64
    report(9, f"{len(commands)} CLI invocations and a fresh-interpreter "
              "library battery are byte-identical across runs")


def test_suite_seed_is_pinned():
    assert SEED == 12345
