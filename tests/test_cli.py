import io
import json
import math
import subprocess
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from distp import (
    KL,
    GroundMetric,
    StochasticKernel,
    __version__,
    build_coupling_mechanism,
    f_divergence,
    northwest_corner,
    post_process,
    randomized_response,
    wasserstein_p,
)
from distp.cli import main
from distp.fileio import coupling_to_dict, cp_spec_to_dict
from conftest import GROUND3, LAM, MU

LINE3_CSV = "1,2,3\n0,1,2\n1,0,1\n2,1,0\n"


def run(*args, expect=0):
    """``distp`` on ``args``, in-process, with its output captured. Argparse
    ends ``--version`` and ``--help`` with SystemExit, whose code is taken as
    the exit code."""
    args = list(map(str, args))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    proc = subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())
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


def test_delta_without_the_max_delta_divergence_is_refused(files):
    lhs = files("a.json", dist_obj(LAM))
    rhs = files("b.json", dist_obj(MU))
    proc = run("divergence", "--lhs", lhs, "--rhs", rhs, "--divergence",
               "max", "--delta", "0.1", expect=1)
    assert proc.stderr == ("error: divergence 'max-delta' needs --delta, and "
                           "no other divergence takes it\n")


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
    assert sorted(payload["config"]) == ["format", "seed", "tau_mass",
                                         "tau_num", "tool_version"]


def test_exact_subsets_flag_is_rejected(files):
    """The prefix rule is the only delta evaluation, so there is no flag to
    choose another."""
    lhs = files("a.json", dist_obj(LAM))
    rhs = files("b.json", dist_obj(MU))
    proc = run("divergence", "--lhs", lhs, "--rhs", rhs, "--divergence",
               "max-delta", "--delta", "0.05", "--exact-subsets", expect=1)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: unrecognized arguments: --exact-subsets")


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
    assert proc.stderr == (
        f"error: {mech}: kernel 'rows' row must be a JSON array, got 1\n")


def test_kernel_rows_of_different_lengths_exit_one(files):
    mech = files("k.json", {"inputs": ["a", "b"], "outputs": ["y", "z"],
                            "rows": [[0.5, 0.5], [1.0]]})
    data = files("points.csv", "x\na\n")
    proc = run("obfuscate", "--mech", mech, "--data", data, expect=1)
    assert proc.stderr == f"error: {mech}: kernel 'rows' rows differ in length\n"


def test_distribution_probs_that_are_not_an_array_exit_one(files):
    lhs = files("bad.json", {"ground": ["a"], "probs": 1})
    rhs = files("b.json", {"ground": ["a"], "probs": [1.0]})
    proc = run(
        "divergence", "--lhs", lhs, "--rhs", rhs, "--divergence", "kl", expect=1
    )
    assert proc.stderr == (
        f"error: {lhs}: distribution 'probs' must be a JSON array, got 1\n"
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
        f"error: {spec}: each aux entry needs 's', 'approx_input', 'coupling'\n"
    )


def test_a_truncated_file_is_named_beside_a_good_one(files):
    lhs = files("bad.json", '{"ground": ["a"], "probs": [1')
    rhs = files("b.json", {"ground": ["a"], "probs": [1.0]})
    proc = run(
        "divergence", "--lhs", lhs, "--rhs", rhs, "--divergence", "kl", expect=1
    )
    assert proc.stderr == (f"error: {lhs}: Expecting ',' delimiter: "
                           "line 1 column 30 (char 29)\n")


def test_a_negative_cost_names_its_file(files):
    lhs = files("lam.json", dist_obj(LAM))
    rhs = files("mu.json", dist_obj(MU))
    cost = files("neg.csv", "1,2,3\n0,1,2\n-1,0,1\n2,1,0\n")
    proc = run("emd", "--lhs", lhs, "--rhs", rhs, "--cost", cost, expect=1)
    assert proc.stderr == f"error: {cost}: cost: negative entry -1\n"


@pytest.mark.parametrize("name, content, message", [
    ("phi.json", [], "relation has no pairs"),
    ("lams.json", {}, "--inputs file must map auxiliary values to "
                      "distributions"),
    ("couplings.json", {}, "--couplings file must map auxiliary values to "
                           "couplings"),
])
def test_an_empty_relation_or_map_is_refused_as_it_is_read(files, name,
                                                           content, message):
    mech = rr_kernel_file(files)
    target = files("mu.json", dist_obj(MU))
    inputs = files("lams.json", {"s": dist_obj(LAM)})
    couplings = files("couplings.json",
                      {"s": coupling_to_dict(northwest_corner(LAM, MU))})
    bad = files(name, content)
    if name == "phi.json":
        args = ("audit", "--mech", mech, "--relation", bad, "--divergence",
                "kl")
    else:
        args = ("couple-mech", "build", "--target", target, "--inputs",
                inputs, "--mode", "given", "--couplings", couplings)
    assert run(*args, expect=1).stderr == f"error: {bad}: {message}\n"


def spec_file(files, s):
    """A one-entry coupling-mechanism spec whose auxiliary value is ``s``."""
    spec = build_coupling_mechanism(MU, {"s": LAM}, mode="northwest")
    data = cp_spec_to_dict(spec)
    data["aux"][0]["s"] = s
    return files("spec.json", data)


@pytest.mark.parametrize("s", [None, {"k": 1}, True])
def test_a_spec_aux_value_is_a_label(files, s):
    spec = spec_file(files, s)
    data = files("points.csv", "x\n1\n")
    proc = run("obfuscate", "--mech", spec, "--aux", str(s), "--data", data,
               expect=1)
    assert proc.stderr == (f"error: {spec}: aux entry 's': expected a string "
                           f"or a number, got {s!r}\n")


def test_a_spec_aux_value_may_be_a_number(files):
    spec = spec_file(files, 7)
    data = files("points.csv", "x\n1\n2\n")
    assert run("obfuscate", "--mech", spec, "--aux", "7", "--data", data
               ).stdout.startswith("y\n")


def test_a_relation_aux_value_is_a_label(files):
    spec = spec_file(files, "s")
    rel = files("psi.json", [[{"aux": None, "dist": dist_obj(LAM)},
                              {"aux": "s", "dist": dist_obj(MU)}]])
    proc = run("audit", "--mech", spec, "--relation", rel, "--divergence",
               "max", expect=1)
    assert proc.stderr == (f"error: {rel}: relation 'aux': expected a string "
                           "or a number, got None\n")


def test_bare_relation_labels_may_be_numbers(files):
    mech = files("rr.json", kernel_obj(randomized_response(GROUND3, 1.0)))
    numbers = files("numbers.json", [[1, 2], [3, 1]])
    strings = files("strings.json", [["1", "2"], ["3", "1"]])
    audit = ("audit", "--mech", mech, "--divergence", "max", "--relation")
    assert run(*audit, numbers).stdout == run(*audit, strings).stdout
    proc = run(*audit, files("bad.json", [[1, None]]), expect=1)
    assert proc.stderr.endswith("relation entry: expected a label or a "
                                "distribution object, got None\n")


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


def test_audit_wasserstein_needs_a_metric(files):
    mech = rr_kernel_file(files)
    lam = {"ground": ["a", "b"], "probs": [0.25, 0.75]}
    rel = files("psi.json", [[lam, {"ground": ["a", "b"], "probs": [1, 0]}]])
    proc = run("audit", "--mech", mech, "--relation", rel, "--divergence",
               "max", "--wasserstein", "inf", expect=1)
    assert proc.stderr == ("error: --wasserstein needs --metric and a "
                           "relation over distributions\n")


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


@pytest.mark.parametrize("seed, code", [(-1, 1), (0, 0), (2**128 - 1, 0),
                                        (2**128, 1)])
def test_obfuscate_takes_a_seed_in_the_generator_key_range(files, seed, code):
    """The Philox key is a 128-bit unsigned integer."""
    mech = rr_kernel_file(files)
    data = files("points.csv", "x\na\n")
    proc = run("obfuscate", "--mech", mech, "--data", data, "--seed", seed,
               expect=code)
    if code:
        assert proc.stderr == (f"error: --seed must be in [0, 2**128), "
                               f"got {seed}\n")


OFF_MASS_KERNEL = {"inputs": ["a", "b"], "outputs": ["u", "v"],
                   "rows": [[0.1, 0.1], [0.5, 0.5]]}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("flag", ["--tau-mass", "--tau-num"])
def test_a_tolerance_is_finite_and_at_least_zero(files, flag, value):
    """NaN would pass a kernel row holding mass 0.2 (--tau-mass) and fail
    every audited pair (--tau-num), so each bad value is a usage error."""
    if flag == "--tau-mass":
        args = ("obfuscate", "--mech", files("k.json", OFF_MASS_KERNEL),
                "--data", files("points.csv", "x\na\n"))
    else:
        args = ("audit", "--mech", rr_kernel_file(files), "--relation",
                files("phi.json", [["a", "b"]]), "--divergence", "max",
                "--claimed-eps", 10, "--format", "csv")
    proc = run(*args, f"{flag}={value}", expect=1)
    assert proc.stdout == ""
    assert proc.stderr == (f"error: argument {flag}: must be a finite number "
                           f">= 0, got {value!r}\n")


@pytest.mark.parametrize("command", ["obfuscate", "emd", "couple",
                                     "couple-mech", "audit"])
def test_two_files_that_disagree_name_the_one_read_second(files, command):
    """A data label the kernel lacks names the data file; a metric whose
    ground misses a label it must price names the metric file."""
    mech = rr_kernel_file(files)
    lhs = files("lam.json", dist_obj(LAM))
    rhs = files("mu.json", dist_obj(MU))
    other = files("other.csv", "p,q\n0,1\n1,0\n")
    uncovered = (f"error: {other}: metric does not cover the coupled grounds: "
                 "label '1' not in metric ground\n")
    if command == "obfuscate":
        data = files("points.csv", "x\na\nnot_a_label\n")
        args = ("obfuscate", "--mech", mech, "--data", data)
        message = f"error: {data}: input label 'not_a_label' not in kernel\n"
    elif command == "couple-mech":
        inputs = files("lams.json", {"s": dist_obj(LAM)})
        args = ("couple-mech", "build", "--target", rhs, "--inputs", inputs,
                "--cost", other)
        message = uncovered
    elif command == "audit":
        args = ("audit", "--mech", mech, "--relation",
                files("phi.json", [["a", "b"]]), "--metric", other,
                "--divergence", "max")
        message = f"error: {other}: label 'a' not in metric ground\n"
    else:
        args = (command, "--lhs", lhs, "--rhs", rhs, "--cost", other)
        message = uncovered
    assert run(*args, expect=1).stderr == message


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
        f"error: {s}: 'branches' must map first-stage outputs to kernel objects\n"
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
