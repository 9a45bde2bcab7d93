import json
import math
import subprocess
import sys

import numpy as np
import pytest

from distp import (
    KL,
    FiniteDistribution,
    GroundMetric,
    StochasticKernel,
    __version__,
    f_divergence,
    northwest_corner,
    post_process,
    randomized_response,
    wasserstein_p,
)

GROUND3 = ("1", "2", "3")
LAM = FiniteDistribution(GROUND3, np.array([0.2, 0.5, 0.3]))
MU = FiniteDistribution(GROUND3, np.array([0.3, 0.2, 0.5]))
LINE3_CSV = "1,2,3\n0,1,2\n1,0,1\n2,1,0\n"


def run(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "distp.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout}\n"
        f"stderr: {proc.stderr}"
    )
    return proc


def dist_obj(d):
    return {"ground": list(d.ground), "probs": [float(p) for p in d.probs]}


def kernel_obj(k):
    return {
        "inputs": list(k.inputs),
        "outputs": list(k.outputs),
        "rows": [[float(v) for v in row] for row in k.matrix],
    }


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        if isinstance(content, str):
            path.write_text(content)
        else:
            path.write_text(json.dumps(content))
        return str(path)

    return write


def test_version():
    proc = run("--version")
    assert __version__ in proc.stdout


def test_no_command_exits_one():
    run(expect=1)


def test_missing_action_prints_the_deepest_help():
    proc = run("couple-mech", expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: distp couple-mech")
    assert "build" in proc.stderr
    assert run(expect=1).stderr.startswith("usage: distp [-h] [--version]")


def test_unknown_flag_exits_one(files):
    proc = run("emd", "--bogus", "x", expect=1)
    assert "error" in proc.stderr.lower()


def test_emd_reference(files):
    lhs = files("lam.json", dist_obj(LAM))
    rhs = files("mu.json", dist_obj(MU))
    cost = files("d.csv", LINE3_CSV)
    proc = run("emd", "--lhs", lhs, "--rhs", rhs, "--cost", cost)
    payload = json.loads(proc.stdout)
    assert payload["cost"] == pytest.approx(0.3, abs=1e-9)
    assert payload["order"] == 1.0
    assert payload["config"]["seed"] == 12345
    assert payload["config"]["tool_version"] == __version__
    mass = np.array(payload["coupling"]["mass"])
    np.testing.assert_allclose(mass.sum(axis=1), LAM.probs, atol=1e-9)
    np.testing.assert_allclose(mass.sum(axis=0), MU.probs, atol=1e-9)


def test_emd_bottleneck(files):
    lhs = files("lam.json", dist_obj(LAM))
    rhs = files("mu.json", dist_obj(MU))
    cost = files("d.csv", LINE3_CSV)
    payload = json.loads(
        run("emd", "--lhs", lhs, "--rhs", rhs, "--cost", cost, "--inf").stdout
    )
    assert payload["order"] == "inf"
    assert payload["cost"] == pytest.approx(1.0, abs=1e-9)


def test_emd_higher_order(files):
    lhs = files("lam.json", dist_obj(LAM))
    rhs = files("mu.json", dist_obj(MU))
    cost = files("d.csv", LINE3_CSV)
    payload = json.loads(
        run("emd", "--lhs", lhs, "--rhs", rhs, "--cost", cost, "-p", 2).stdout
    )
    want = wasserstein_p(LAM, MU, GroundMetric.line(GROUND3), p=2.0).cost
    assert payload["cost"] == pytest.approx(want, abs=1e-9)


def test_emd_orders_share_the_library_dispatch(files):
    """-p inf is the bottleneck order, as --inf is, and an order below 1 is
    refused with the library's message."""
    lhs = files("lam.json", dist_obj(LAM))
    rhs = files("mu.json", dist_obj(MU))
    cost = files("d.csv", LINE3_CSV)
    args = ("emd", "--lhs", lhs, "--rhs", rhs, "--cost", cost)
    assert run(*args, "-p", "inf").stdout == run(*args, "--inf").stdout
    refused = run(*args, "-p", 0.5, expect=1)
    assert "order p must be finite and >= 1" in refused.stderr


def test_emd_order_flags_conflict(files):
    lhs = files("lam.json", dist_obj(LAM))
    rhs = files("mu.json", dist_obj(MU))
    cost = files("d.csv", LINE3_CSV)
    run("emd", "--lhs", lhs, "--rhs", rhs, "--cost", cost, "-p", 2, "--inf",
        expect=1)


def test_divergence_matches_library(files):
    lhs = files("a.json", dist_obj(LAM))
    rhs = files("b.json", dist_obj(MU))
    payload = json.loads(
        run("divergence", "--lhs", lhs, "--rhs", rhs, "--divergence", "kl").stdout
    )
    assert payload["kind"] == "kl"
    assert payload["value"] == pytest.approx(f_divergence(KL, LAM, MU), abs=1e-12)


def test_divergence_inf_token(files):
    lhs = files("a.json", {"ground": ["a", "b"], "probs": [0.5, 0.5]})
    rhs = files("b.json", {"ground": ["a", "b"], "probs": [1.0, 0.0]})
    proc = run("divergence", "--lhs", lhs, "--rhs", rhs, "--divergence", "max")
    payload = json.loads(proc.stdout)
    assert payload["value"] == "inf"


def test_divergence_slack_needs_delta(files):
    lhs = files("a.json", dist_obj(LAM))
    rhs = files("b.json", dist_obj(MU))
    proc = run(
        "divergence", "--lhs", lhs, "--rhs", rhs, "--divergence", "max-delta",
        expect=1,
    )
    assert "--delta" in proc.stderr
    payload = json.loads(
        run(
            "divergence", "--lhs", lhs, "--rhs", rhs,
            "--divergence", "max-delta", "--delta", "0.1",
        ).stdout
    )
    assert payload["kind"] == "max(delta=0.1)"


def test_malformed_mass_message(files):
    lhs = files("bad.json", {"ground": ["a", "b"], "probs": [0.5, 0.4]})
    rhs = files("b.json", {"ground": ["a", "b"], "probs": [0.5, 0.5]})
    proc = run(
        "divergence", "--lhs", lhs, "--rhs", rhs, "--divergence", "kl", expect=1
    )
    assert "mass 0.9 outside tolerance" in proc.stderr


def test_malformed_json_exits_one(files):
    lhs = files("broken.json", "{not json")
    rhs = files("b.json", dist_obj(MU))
    proc = run(
        "divergence", "--lhs", lhs, "--rhs", rhs, "--divergence", "kl", expect=1
    )
    assert proc.stderr.startswith("error:")


def test_kernel_row_that_is_not_an_array_exits_one(files):
    mech = files("k.json", {"inputs": ["a"], "outputs": ["y"], "rows": [1]})
    data = files("points.csv", "x\na\n")
    proc = run("obfuscate", "--mech", mech, "--data", data, expect=1)
    assert proc.stderr == "error: kernel 'rows' row must be a JSON array, got 1\n"


def test_distribution_probs_that_are_not_an_array_exit_one(files):
    lhs = files("bad.json", {"ground": ["a"], "probs": 1})
    rhs = files("b.json", {"ground": ["a"], "probs": [1.0]})
    proc = run(
        "divergence", "--lhs", lhs, "--rhs", rhs, "--divergence", "kl", expect=1
    )
    assert proc.stderr == (
        "error: distribution 'probs' must be a JSON array, got 1\n"
    )


def test_spec_aux_entry_that_is_not_an_object_exits_one(files):
    spec = files("spec.json", {
        "target": {"ground": ["y"], "probs": [1.0]},
        "aux": [["s", "approx_input", "coupling"]],
    })
    data = files("points.csv", "x\na\n")
    proc = run("obfuscate", "--mech", spec, "--aux", "s", "--data", data,
               expect=1)
    assert proc.stderr == (
        "error: each aux entry needs 's', 'approx_input', 'coupling'\n"
    )


def test_couple_northwest(files):
    lhs = files("lam.json", dist_obj(LAM))
    rhs = files("mu.json", dist_obj(MU))
    payload = json.loads(
        run("couple", "--lhs", lhs, "--rhs", rhs, "--northwest").stdout
    )
    want = northwest_corner(LAM, MU).mass
    np.testing.assert_allclose(np.array(payload["coupling"]["mass"]), want,
                               atol=1e-12)


def test_couple_needs_cost_without_northwest(files):
    lhs = files("lam.json", dist_obj(LAM))
    rhs = files("mu.json", dist_obj(MU))
    run("couple", "--lhs", lhs, "--rhs", rhs, expect=1)
    cost = files("d.csv", LINE3_CSV)
    payload = json.loads(
        run("couple", "--lhs", lhs, "--rhs", rhs, "--cost", cost).stdout
    )
    assert payload["cost"] == pytest.approx(0.3, abs=1e-9)


# ---------------------------------------------------------------------------
# audits


def rr_kernel_file(files, eps=math.log(3.0)):
    return files("rr.json", kernel_obj(randomized_response(("a", "b"), eps)))


def test_audit_pass_and_fail_exit_codes(files):
    mech = rr_kernel_file(files)
    rel = files("phi.json", [["a", "b"]])
    passing = run(
        "audit", "--mech", mech, "--relation", rel, "--divergence", "max",
        "--claimed-eps", 1.2,
    )
    payload = json.loads(passing.stdout)
    assert payload["verdict"] == "pass"
    assert payload["notion"] == "dp"
    assert payload["observed_eps"] == pytest.approx(math.log(3.0), abs=1e-9)

    failing = run(
        "audit", "--mech", mech, "--relation", rel, "--divergence", "max",
        "--claimed-eps", 1.0, expect=2,
    )
    assert json.loads(failing.stdout)["verdict"] == "fail"


def test_audit_without_claim_is_informational(files):
    mech = rr_kernel_file(files)
    rel = files("phi.json", [["a", "b"]])
    payload = json.loads(
        run("audit", "--mech", mech, "--relation", rel, "--divergence", "kl").stdout
    )
    assert payload["claimed_eps"] is None
    assert payload["verdict"] == "pass"


def test_audit_metric_scaled_labels(files):
    kernel = randomized_response(GROUND3, 1.0)
    mech = files("k.json", kernel_obj(kernel))
    rel = files("phi.json", [["1", "3"]])
    cost = files("d.csv", LINE3_CSV)
    payload = json.loads(
        run(
            "audit", "--mech", mech, "--relation", rel, "--divergence", "max",
            "--metric", cost,
        ).stdout
    )
    assert payload["notion"] == "xdp"


def test_audit_distribution_relation(files):
    kernel = randomized_response(GROUND3, 1.0)
    mech = files("k.json", kernel_obj(kernel))
    rel = files("psi.json", [[dist_obj(LAM), dist_obj(MU)]])
    payload = json.loads(
        run("audit", "--mech", mech, "--relation", rel, "--divergence", "kl").stdout
    )
    assert payload["notion"] == "distp"
    cost = files("d.csv", LINE3_CSV)
    scaled = json.loads(
        run(
            "audit", "--mech", mech, "--relation", rel, "--divergence", "kl",
            "--metric", cost, "--wasserstein", "inf",
        ).stdout
    )
    assert scaled["notion"] == "xdistp"
    assert scaled["observed_eps"] > 0.0


def test_audit_wasserstein_needs_distribution_pairs(files):
    mech = rr_kernel_file(files)
    rel = files("phi.json", [["a", "b"]])
    cost = files("d.csv", "a,b\n0,1\n1,0\n")
    proc = run(
        "audit", "--mech", mech, "--relation", rel, "--divergence", "kl",
        "--metric", cost, "--wasserstein", "inf", expect=1,
    )
    assert "wasserstein" in proc.stderr.lower()


def test_audit_mixed_relation_rejected(files):
    mech = rr_kernel_file(files)
    rel = files("bad.json", [["a", dist_obj(LAM)]])
    run("audit", "--mech", mech, "--relation", rel, "--divergence", "kl", expect=1)


def test_audit_csv_format(files):
    mech = rr_kernel_file(files)
    rel = files("phi.json", [["a", "b"], ["b", "a"]])
    proc = run(
        "audit", "--mech", mech, "--relation", rel, "--divergence", "max",
        "--claimed-eps", 1.2, "--format", "csv",
    )
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "pair,forward,backward,value,bound,pass"
    assert len(lines) == 3


def test_audit_tau_num_override_flips_verdict(files):
    mech = rr_kernel_file(files)
    rel = files("phi.json", [["a", "b"]])
    # claimed slightly below ln 3: fails at the default tolerance, passes
    # with a coarse one
    claimed = math.log(3.0) - 1e-6
    run(
        "audit", "--mech", mech, "--relation", rel, "--divergence", "max",
        "--claimed-eps", claimed, expect=2,
    )
    relaxed = run(
        "audit", "--mech", mech, "--relation", rel, "--divergence", "max",
        "--claimed-eps", claimed, "--tau-num", "1e-3",
    )
    payload = json.loads(relaxed.stdout)
    assert payload["verdict"] == "pass"
    assert payload["config"]["tau_num"] == 1e-3


def test_audit_spec_mechanism_with_point_relation(files, tmp_path):
    target = files("mu.json", dist_obj(MU))
    inputs = files("lams.json", {"s": dist_obj(LAM)})
    spec_path = str(tmp_path / "spec.json")
    run(
        "couple-mech", "build", "--target", target, "--inputs", inputs,
        "--mode", "northwest", "--out", spec_path,
    )
    rel = files("phi.json", [["1", "2"]])
    payload = json.loads(
        run(
            "audit", "--mech", spec_path, "--relation", rel,
            "--divergence", "max",
        ).stdout
    )
    assert payload["notion"] == "distp"
    # the point pair (1, 2) maps rows with disjoint support, so the max
    # divergence is infinite and serializes as the "inf" token
    assert payload["observed_eps"] == "inf"


def test_audit_spec_mechanism_with_point_relation_and_metric(files, tmp_path):
    # with --metric the point-mass pairs are audited as XDistP: W1 between
    # the point masses of a and b is d(a, b), so each value is the DistP
    # divergence divided by the label distance
    target = files("mu.json", dist_obj(MU))
    inputs = files("lams.json", {"s": dist_obj(LAM)})
    spec_path = str(tmp_path / "spec.json")
    run(
        "couple-mech", "build", "--target", target, "--inputs", inputs,
        "--mode", "northwest", "--out", spec_path,
    )
    rel = files("phi.json", [["1", "2"], ["1", "3"], ["3", "2"]])
    metric = files("line.csv", LINE3_CSV)
    common = ("audit", "--mech", spec_path, "--relation", rel,
              "--divergence", "tv")
    plain = json.loads(run(*common).stdout)
    scaled = json.loads(run(*common, "--metric", metric).stdout)
    assert plain["notion"] == "distp"
    assert scaled["notion"] == "xdistp"
    distances = (1.0, 2.0, 1.0)
    finite = 0
    for before, after, d in zip(plain["pairs"], scaled["pairs"], distances,
                                strict=True):
        for key in ("forward", "backward", "value"):
            if before[key] == "inf":
                assert after[key] == "inf"
            else:
                assert after[key] == before[key] / d
                finite += before[key] > 0.0
    assert finite >= 2


# ---------------------------------------------------------------------------
# mechanism building and sampling


def test_couple_mech_build_then_obfuscate_round_trip(files, tmp_path):
    target = files("mu.json", dist_obj(MU))
    inputs = files("lams.json", {"s": dist_obj(LAM)})
    cost = files("d.csv", LINE3_CSV)
    spec_path = str(tmp_path / "spec.json")
    built = run(
        "couple-mech", "build", "--target", target, "--inputs", inputs,
        "--mode", "optimal", "--cost", cost, "--out", spec_path,
    )
    on_disk = json.loads(open(spec_path).read())
    assert json.loads(built.stdout)["target"] == on_disk["target"]
    assert on_disk["aux"][0]["s"] == "s"

    data = files("points.csv", "x\n1\n2\n3\n2\n")
    out = run(
        "obfuscate", "--mech", spec_path, "--aux", "s", "--data", data,
        "--seed", 7,
    )
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "y"
    assert len(lines) == 5
    assert set(lines[1:]) <= set(GROUND3)


def test_obfuscate_deterministic(files):
    mech = rr_kernel_file(files)
    data = files("points.csv", "x\n" + "\n".join(["a", "b"] * 10) + "\n")
    first = run("obfuscate", "--mech", mech, "--data", data, "--seed", 7)
    second = run("obfuscate", "--mech", mech, "--data", data, "--seed", 7)
    assert first.stdout == second.stdout
    third = run("obfuscate", "--mech", mech, "--data", data, "--seed", 8)
    assert third.stdout != first.stdout


def test_obfuscate_out_file_matches_stdout(files, tmp_path):
    mech = rr_kernel_file(files)
    data = files("points.csv", "x\na\nb\n")
    out_path = tmp_path / "y.csv"
    proc = run(
        "obfuscate", "--mech", mech, "--data", data, "--out", str(out_path)
    )
    assert out_path.read_text() == proc.stdout


def test_obfuscate_rejects_two_labels_on_a_line(files):
    mech = rr_kernel_file(files)
    data = files("points.csv", "x\na\na,b\n")
    proc = run("obfuscate", "--mech", mech, "--data", data, expect=1)
    assert proc.stderr == f"error: {data}: expected one label per line\n"


def test_obfuscate_aux_wiring(files, tmp_path):
    mech = rr_kernel_file(files)
    data = files("points.csv", "x\na\n")
    proc = run(
        "obfuscate", "--mech", mech, "--aux", "s", "--data", data, expect=1
    )
    assert "aux" in proc.stderr

    target = files("mu.json", dist_obj(MU))
    inputs = files("lams.json", {"s": dist_obj(LAM)})
    spec_path = str(tmp_path / "spec.json")
    run(
        "couple-mech", "build", "--target", target, "--inputs", inputs,
        "--mode", "northwest", "--out", spec_path,
    )
    data3 = files("p3.csv", "x\n1\n")
    proc = run("obfuscate", "--mech", spec_path, "--data", data3, expect=1)
    assert "aux" in proc.stderr


# ---------------------------------------------------------------------------
# composition


def test_compose_post_matches_library(files):
    first = randomized_response(("a", "b"), 1.0)
    second = StochasticKernel(
        ("a", "b"), ("u", "v"), np.array([[0.9, 0.1], [0.2, 0.8]])
    )
    f = files("first.json", kernel_obj(first))
    s = files("second.json", kernel_obj(second))
    payload = json.loads(
        run("compose", "--op", "post", "--first", f, "--second", s).stdout
    )
    want = post_process(first, second)
    np.testing.assert_allclose(np.array(payload["rows"]), want.matrix,
                               atol=1e-12)
    assert tuple(payload["outputs"]) == ("u", "v")


def test_compose_seq_with_branches(files):
    ground = ("a", "b")
    first = randomized_response(ground, 1.0)
    branches = {
        "a": kernel_obj(randomized_response(ground, 0.5)),
        "b": kernel_obj(StochasticKernel.identity(ground)),
    }
    f = files("first.json", kernel_obj(first))
    s = files("branches.json", {"branches": branches})
    payload = json.loads(
        run("compose", "--op", "seq", "--first", f, "--second", s).stdout
    )
    assert len(payload["outputs"]) == 4
    marg = json.loads(
        run(
            "compose", "--op", "seq", "--first", f, "--second", s,
            "--marginalize",
        ).stdout
    )
    assert tuple(marg["outputs"]) == ground


def test_compose_rejects_branches_that_are_not_an_object(files):
    f = files("first.json", kernel_obj(randomized_response(("a", "b"), 1.0)))
    s = files("branches.json", {"branches": [kernel_obj(
        StochasticKernel.identity(("a", "b")))]})
    proc = run("compose", "--op", "seq", "--first", f, "--second", s, expect=1)
    assert proc.stderr == (
        "error: 'branches' must map first-stage outputs to kernel objects\n"
    )


def test_compose_liftseq_input_grid(files):
    ground = ("a", "b")
    f = files("first.json", kernel_obj(randomized_response(ground, 1.0)))
    payload = json.loads(
        run("compose", "--op", "liftseq", "--first", f, "--second", f).stdout
    )
    assert len(payload["inputs"]) == 4


# ---------------------------------------------------------------------------
# reproducibility


def test_reports_are_byte_stable(files):
    lhs = files("lam.json", dist_obj(LAM))
    rhs = files("mu.json", dist_obj(MU))
    cost = files("d.csv", LINE3_CSV)
    for args in (
        ("emd", "--lhs", lhs, "--rhs", rhs, "--cost", cost),
        ("divergence", "--lhs", lhs, "--rhs", rhs, "--divergence", "chi2"),
        ("couple", "--lhs", lhs, "--rhs", rhs, "--northwest"),
    ):
        assert run(*args).stdout == run(*args).stdout
