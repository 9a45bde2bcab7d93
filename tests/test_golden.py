"""Byte-for-byte CLI reports against recorded golden files.

Each case runs ``distp`` in-process on the fixed inputs under
``tests/golden/inputs`` and compares standard output and the exit code with
``tests/golden/<case>.out``. Any change in a report, down to the last digit
of a float, fails here; regenerate a golden file only for a change that is
meant to alter that report. Every case runs with a RuntimeWarning as an
error, so no report rests on a divide or log that numpy warned about.

``CASES`` is the one list of golden commands. The malformed-input checks
run each command again with one of its input files replaced, so a new
golden is checked there with no further edit.
"""

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distp.cli import main

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

KERNEL = ("--mech", "kernel.json")
FULL = ("--mech", "kernel_full.json")
PHI = ("--relation", "phi.json")
PSI = ("--relation", "psi.json")
METRIC = ("--metric", "metric.csv")
SPEC = ("--mech", "spec.json")
FIRST = ("--first", "first.json")
CM_INPUTS = ("--target", "cm_target.json", "--inputs", "cm_inputs.json")
DATA = ("--data", "data.csv")
QUOTED = ("--mech", "quoted_kernel.json", "--relation", "quoted_phi.json")

# case name -> (arguments, with input files named relative to INPUTS; exit code)
CASES = {
    "audit_dp_max": (("audit", *KERNEL, *PHI, "--divergence", "max",
                      "--claimed-eps", "2.0"), 2),
    "audit_dp_max_delta": (("audit", *KERNEL, *PHI, "--divergence",
                            "max-delta", "--delta", "0.1"), 0),
    "audit_dp_kl": (("audit", *KERNEL, *PHI, "--divergence", "kl"), 0),
    # Every cell of this kernel is above 0, so every row pair of these
    # audits is on both supports.
    "audit_full_max": (("audit", *FULL, *PHI, "--divergence", "max"), 0),
    "audit_full_max_delta": (("audit", *FULL, *PHI, "--divergence",
                              "max-delta", "--delta", "0.1"), 0),
    "audit_full_kl": (("audit", *FULL, *PHI, "--divergence", "kl"), 0),
    "audit_dp_max_csv": (("audit", *KERNEL, *PHI, "--divergence", "max",
                          "--claimed-eps", "2.0", "--format", "csv"), 2),
    "audit_dp_max_delta_csv": (("audit", *KERNEL, *PHI, "--divergence",
                                "max-delta", "--delta", "0.1", "--format",
                                "csv"), 0),
    "audit_dp_kl_csv": (("audit", *KERNEL, *PHI, "--divergence", "kl",
                         "--format", "csv"), 0),
    "audit_xdp_max": (("audit", *KERNEL, *PHI, *METRIC, "--divergence",
                       "max", "--claimed-eps", "1.0"), 2),
    "audit_xdp_hellinger_csv": (("audit", *KERNEL, *PHI, *METRIC,
                                 "--divergence", "hellinger", "--format",
                                 "csv"), 0),
    "audit_distp_tv": (("audit", *KERNEL, *PSI, "--divergence", "tv"), 0),
    "audit_xdistp_w1_kl": (("audit", *KERNEL, *PSI, *METRIC, "--divergence",
                            "kl", "--wasserstein", "1"), 0),
    "audit_xdistp_winf_max": (("audit", *KERNEL, *PSI, *METRIC,
                               "--divergence", "max", "--wasserstein", "inf",
                               "--claimed-eps", "0.6"), 2),
    "audit_xdistp_w1_chi2_csv": (("audit", *KERNEL, *PSI, *METRIC,
                                  "--divergence", "chi2", "--format", "csv"),
                                 0),
    "audit_spec_point_max": (("audit", *SPEC, "--relation", "spec_phi.json",
                              "--divergence", "max"), 0),
    "audit_spec_point_rkl_csv": (("audit", *SPEC, "--relation",
                                  "spec_phi.json", "--divergence", "rkl",
                                  "--format", "csv"), 0),
    # A label relation with a spec is audited as pairs of point masses,
    # whose W1 distances take no transport solve.
    "audit_spec_point_xdistp_max": (("audit", *SPEC, "--relation",
                                     "spec_phi.json", "--metric",
                                     "spec_metric.csv", "--divergence",
                                     "max"), 0),
    "audit_spec_psi_xdistp_kl": (("audit", *SPEC, "--relation",
                                  "spec_psi.json", "--metric",
                                  "spec_metric.csv", "--divergence", "kl"), 0),
    "audit_spec_psi_xdistp_winf_max": (("audit", *SPEC, "--relation",
                                        "spec_psi.json", "--metric",
                                        "spec_metric.csv", "--divergence",
                                        "max", "--wasserstein", "inf"), 0),
    "audit_tau_num_default": (("audit", *KERNEL, *PSI, "--divergence", "tv",
                               "--claimed-eps", "0.417"), 2),
    "audit_tau_num_override": (("audit", *KERNEL, *PSI, "--divergence", "tv",
                                "--claimed-eps", "0.417", "--tau-num", "0.01"),
                               0),
    "audit_tau_num_override_csv": (("audit", *KERNEL, *PSI, "--divergence",
                                    "tv", "--claimed-eps", "0.417",
                                    "--tau-num", "0.01", "--format", "csv"),
                                   0),
    **{
        f"divergence_{kind}": (("divergence", "--lhs", "mu.json", "--rhs",
                                "full.json", "--divergence", kind), 0)
        for kind in ("kl", "rkl", "tv", "chi2", "hellinger", "max")
    },
    **{
        f"divergence_{kind}_noncontinuous": (("divergence", "--lhs",
                                              "mu.json", "--rhs", "nu.json",
                                              "--divergence", kind), 0)
        for kind in ("kl", "rkl", "tv", "chi2", "hellinger", "max")
    },
    "divergence_max_delta": (("divergence", "--lhs", "mu.json", "--rhs",
                              "full.json", "--divergence", "max-delta",
                              "--delta", "0.2"), 0),
    "divergence_max_delta_noncontinuous": (("divergence", "--lhs", "mu.json",
                                            "--rhs", "nu.json", "--divergence",
                                            "max-delta", "--delta", "0.2"), 0),
    "divergence_max_delta_005": (("divergence", "--lhs", "mu.json", "--rhs",
                                  "full.json", "--divergence", "max-delta",
                                  "--delta", "0.05"), 0),
    "compose_seq_branches": (("compose", "--op", "seq", *FIRST,
                              "--second", "branches.json"), 0),
    "compose_seq_branches_marginalize": (("compose", "--op", "seq", *FIRST,
                                          "--second", "branches.json",
                                          "--marginalize"), 0),
    "compose_liftseq_branches": (("compose", "--op", "liftseq", *FIRST,
                                  "--second", "branches.json"), 0),
    "compose_liftseq_kernel_marginalize": (("compose", "--op", "liftseq",
                                            *FIRST, "--second", "second.json",
                                            "--marginalize"), 0),
    "compose_post": (("compose", "--op", "post", *FIRST, "--second",
                      "post.json"), 0),
    "couple_mech_northwest": (("couple-mech", "build", *CM_INPUTS, "--mode",
                               "northwest"), 0),
    "couple_mech_given": (("couple-mech", "build", *CM_INPUTS, "--mode",
                           "given", "--couplings", "cm_couplings.json"), 0),
    "couple_northwest": (("couple", "--lhs", "mu.json", "--rhs", "full.json",
                          "--northwest"), 0),
    # Solver-made couplings: the W1 plan of a pair, and a mechanism whose
    # couplings are the W1 plans of each estimate to the target.
    "couple_optimal": (("couple", "--lhs", "mu.json", "--rhs", "nu.json",
                        "--cost", "y_metric.csv"), 0),
    "couple_mech_optimal": (("couple-mech", "build", *CM_INPUTS, "--mode",
                             "optimal", "--cost", "cm_metric.csv"), 0),
    # The coupling printed here is the one the bottleneck search ends on,
    # so it depends on the search path; the cost does not.
    # The optimal couplings at W1 and W2, each the plan the simplex pivots to.
    "emd_w1": (("emd", "--lhs", "mu.json", "--rhs", "nu.json", "--cost",
                "y_metric.csv"), 0),
    "emd_p2": (("emd", "--lhs", "mu.json", "--rhs", "nu.json", "--cost",
                "y_metric.csv", "-p", "2"), 0),
    "emd_inf": (("emd", "--lhs", "mu.json", "--rhs", "nu.json", "--cost",
                 "y_metric.csv", "--inf"), 0),
    "obfuscate_kernel": (("obfuscate", *KERNEL, *DATA), 0),
    "obfuscate_spec_aux": (("obfuscate", *SPEC, "--aux", "s2", *DATA,
                            "--seed", "7"), 0),
    # Input and output labels with a comma, a double quote, a space, a
    # leading space and the empty label; the data file has a blank line.
    "obfuscate_quoted": (("obfuscate", "--mech", "quoted_kernel.json",
                          "--data", "quoted_data.csv", "--seed", "3"), 0),
    # Pair labels whose inputs carry a comma, double quotes and spaces, so
    # that every pair label holds JSON escapes.
    "audit_quoted_max": (("audit", *QUOTED, "--divergence", "max"), 0),
    "audit_quoted_kl_csv": (("audit", *QUOTED, "--divergence", "kl",
                             "--format", "csv"), 0),
}


def run_case(name: str, monkeypatch, capsys) -> tuple[int, str]:
    args, _ = CASES[name]
    monkeypatch.chdir(INPUTS)
    code = main(list(args))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name, monkeypatch, capsys):
    code, out = run_case(name, monkeypatch, capsys)
    assert code == CASES[name][1]
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", ["obfuscate_quoted", "couple_mech_northwest"])
def test_out_file_matches_golden(name, monkeypatch, capsys, tmp_path):
    out = tmp_path / "out"
    monkeypatch.chdir(INPUTS)
    assert main([*CASES[name][0], "--out", str(out)]) == 0
    expected = (GOLDEN / f"{name}.out").read_bytes()
    assert out.read_bytes() == expected
    assert capsys.readouterr().out.encode("utf-8") == expected


def input_files(args) -> list[str]:
    return [arg for arg in args if (INPUTS / arg).is_file()]


def run_with(workdir: Path, file: str, text: str, args) -> tuple[int, str]:
    """Run ``args`` in ``workdir``, which holds a copy of the inputs, with
    ``file`` holding ``text``, then restore the file. Returns the exit code
    and standard error."""
    (workdir / file).write_text(text, encoding="utf-8")
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, \
            redirect_stdout(io.StringIO()), redirect_stderr(err):
        patch.chdir(workdir)
        code = main(list(args))
    shutil.copy(INPUTS / file, workdir / file)
    return code, err.getvalue()


def assert_fails_cleanly(code: int, err: str, must_fail: bool, what: str):
    """Exit 1 with a last stderr line ``error: ...``; where the file may
    still hold valid data (a label CSV cut short), exit 0 or 2 as well."""
    assert code == 1 or (not must_fail and code in (0, 2)), (what, code)
    if code == 1:
        assert err.splitlines()[-1].startswith("error:"), (what, err)


@pytest.mark.parametrize("name", sorted(CASES))
def test_malformed_input_fails_cleanly(name, tmp_path):
    args, _ = CASES[name]
    shutil.copytree(INPUTS, tmp_path, dirs_exist_ok=True)
    for file in input_files(args):
        text = (INPUTS / file).read_text(encoding="utf-8")
        for bad in ("", text[: len(text) // 2], "null", "[]", "{}", '"x"', "1"):
            code, err = run_with(tmp_path, file, bad, args)
            assert_fails_cleanly(code, err, file.endswith(".json"),
                                 f"{file} holding {bad[:20]!r}")


def json_paths(node, at=()):
    """The path of every number and every array inside parsed JSON."""
    if isinstance(node, list):
        yield at
        for i, child in enumerate(node):
            yield from json_paths(child, (*at, i))
    elif isinstance(node, dict):
        for key, child in node.items():
            yield from json_paths(child, (*at, key))
    elif isinstance(node, (int, float)):
        yield at


@pytest.mark.slow
@settings(max_examples=300)
@given(data=st.data())
def test_poisoned_json_input_fails_cleanly(data, tmp_path_factory):
    """One number becomes a string, its own value as a string, true or null,
    which must fail, or one array loses an element, which may leave valid
    data (a relation with one pair fewer)."""
    args, _ = CASES[data.draw(st.sampled_from(sorted(CASES)))]
    files = [file for file in input_files(args) if file.endswith(".json")]
    file = data.draw(st.sampled_from(files))
    root = json.loads((INPUTS / file).read_text(encoding="utf-8"))
    *path, last = data.draw(st.sampled_from([p for p in json_paths(root) if p]))
    holder = root
    for key in path:
        holder = holder[key]
    must_fail = not isinstance(holder[last], list)
    if must_fail:
        holder[last] = data.draw(st.sampled_from(
            ["x", json.dumps(holder[last]), True, None]))
    elif holder[last]:
        del holder[last][data.draw(st.integers(0, len(holder[last]) - 1))]
    workdir = tmp_path_factory.mktemp("poisoned")
    shutil.copytree(INPUTS, workdir, dirs_exist_ok=True)
    code, err = run_with(workdir, file, json.dumps(root), args)
    assert_fails_cleanly(code, err, must_fail, f"{file} at {(*path, last)}")
