"""Byte-for-byte CLI reports against recorded golden files.

Each case runs ``distp`` in-process on the fixed inputs under
``tests/golden/inputs`` and compares standard output and the exit code with
``tests/golden/<case>.out``. Any change in a report, down to the last digit
of a float, fails here; regenerate a golden file only for a change that is
meant to alter that report.
"""

from pathlib import Path

import pytest

from distp.cli import main

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


def test_obfuscate_out_file_matches_golden(monkeypatch, capsys, tmp_path):
    out = tmp_path / "y.csv"
    monkeypatch.chdir(INPUTS)
    assert main([*CASES["obfuscate_quoted"][0], "--out", str(out)]) == 0
    expected = (GOLDEN / "obfuscate_quoted.out").read_bytes()
    assert out.read_bytes() == expected
    assert capsys.readouterr().out.encode("utf-8") == expected
