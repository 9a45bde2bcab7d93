"""The package loads each numpy module on first use.

``import distp`` and a CLI process that only parses its arguments import no
numpy; every exported name still resolves to the object its home module
defines.
"""

import json
import os
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import distp
from distp import cli
from distp.divergences import KIND_BY_NAME
from test_golden import CASES

HELP = Path(__file__).parent / "golden" / "help.out"
INPUTS = Path(__file__).parent / "golden" / "inputs"


def _python(*args, env=None):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def _modules(importtime_log: str) -> set[str]:
    """Every module that ``-X importtime`` logged."""
    return {line.rsplit("|", 1)[-1].strip()
            for line in importtime_log.splitlines()
            if line.startswith("import time:")}


def _imported(importtime_log: str) -> set[str]:
    """Top-level package of every module that ``-X importtime`` logged."""
    return {name.split(".")[0] for name in _modules(importtime_log)}


@pytest.mark.parametrize("args, code", [
    (("--version",), 0),
    (("--help",), 0),
    ((), 1),
    (("bogus",), 1),
])
def test_cli_parses_arguments_without_numpy(args, code):
    proc = _python("-X", "importtime", "-m", "distp.cli", *args)
    assert proc.returncode == code, proc.stderr
    imported = _imported(proc.stderr)
    assert "distp" in imported
    assert "numpy" not in imported
    if args == ("bogus",):
        assert "error:" in proc.stderr


def test_import_distp_leaves_numpy_unloaded():
    proc = _python("-c", "import sys, distp; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("args", [
    ("-c", """
import numpy as np
from distp import FiniteDistribution, GroundMetric, wasserstein_inf
ground = tuple("abcd")
lam = FiniteDistribution(ground, np.array([0.5, 0.5, 0.0, 0.0]))
mu = FiniteDistribution(ground, np.array([0.0, 0.0, 0.5, 0.5]))
metric = GroundMetric.line(ground, [0.0, 0.5, 2.0, 2.5])
assert wasserstein_inf(lam, mu, metric).cost == 2.0
"""),
    ("-m", "distp.cli", "emd", "--lhs", str(INPUTS / "mu.json"), "--rhs",
     str(INPUTS / "nu.json"), "--cost", str(INPUTS / "y_metric.csv"), "--inf"),
], ids=["library", "cli"])
def test_w_inf_solve_leaves_numpy_ma_unloaded(args):
    """The bottleneck search lists the distinct costs without np.unique,
    whose first plain call in a process imports numpy.ma."""
    proc = _python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    modules = _modules(proc.stderr)
    assert "numpy" in modules
    assert "numpy.ma" not in modules


def test_exports_are_their_home_modules_objects():
    for name in distp.__all__:
        home = sys.modules[f"distp.{distp._HOME[name]}"]
        assert getattr(distp, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from distp import *", namespace)
    assert set(distp.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(distp, name) for name in distp.__all__)


def test_submodule_import_gives_the_module():
    from distp import audit

    assert isinstance(audit, types.ModuleType)
    assert audit is sys.modules["distp.audit"]
    assert audit.audit_distp is distp.audit_distp


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        distp.no_such_name
    assert not hasattr(distp, "no_such_name")
    assert set(distp.__all__) <= set(dir(distp))


def test_divergence_choices_follow_the_kind_table():
    assert cli.DIVERGENCE_CHOICES == tuple(KIND_BY_NAME) + ("max", "max-delta")


def test_help_text_is_unchanged():
    proc = _python("-m", "distp.cli", "--help",
                   env={**os.environ, "COLUMNS": "80"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.encode("utf-8") == HELP.read_bytes()


# The library modules each CLI handler executes, as ``distp.cli`` lists them,
# when it solves nothing; ``transport`` executes only where a coupling or a
# Wasserstein distance is solved (``solves``).
RELEASE = {"finite_prob", "mechanisms", "fileio"}
EXECUTED = {
    "obfuscate": RELEASE,
    "compose": RELEASE,
    "couple-mech": RELEASE,
    "emd": {"finite_prob", "transport", "fileio"},
    "couple": {"finite_prob", "transport", "fileio"},
    "divergence": {"finite_prob", "divergences", "fileio"},
    "audit": set(distp._LAZY) - {"transport"},
}


def solves(args) -> bool:
    """Whether the command solves a coupling or a Wasserstein distance that
    its subcommand does not always solve: ``couple-mech`` in optimal or
    northwest mode, and an xDistP audit, a ``--metric`` with a distribution
    relation or with a spec."""
    def loaded(flag):
        return json.loads((INPUTS / args[args.index(flag) + 1]).read_text("utf-8"))

    if args[0] == "couple-mech":
        return "given" not in args
    return args[0] == "audit" and "--metric" in args and (
        "target" in loaded("--mech")
        or not isinstance(loaded("--relation")[0][0], str))


# Runs ``distp.cli.main`` on its arguments, then prints the lazy modules that
# executed: ``LazyLoader`` swaps a module's class for ModuleType on first use.
EXECUTED_PROBE = """
import contextlib, io, sys, types
import distp
from distp.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(*(name for name in distp._LAZY
        if type(sys.modules[f"distp.{name}"]) is types.ModuleType))
"""


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run on ``args`` in a fresh process, in the inputs directory,
    with this checkout's ``distp``."""
    path = os.pathsep.join([str(Path(distp.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code, *args], cwd=INPUTS,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.fixture(scope="module")
def executed() -> dict:
    """Each golden case's executed modules, from a fresh process per case."""

    def run(name):
        proc = _fresh(EXECUTED_PROBE, *CASES[name][0])
        return set(proc.stdout.split()), proc.stderr

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(sorted(CASES), pool.map(run, sorted(CASES))))


@pytest.mark.parametrize("name", sorted(CASES))
def test_subcommand_executes_only_the_modules_it_calls(name, executed):
    args = CASES[name][0]
    expected = EXECUTED[args[0]] | ({"transport"} if solves(args) else set())
    modules, stderr = executed[name]
    assert modules == expected, stderr


# Reads, checks, samples and audits a coupling-mechanism spec, then prints
# whether ``transport`` executed.
SPEC_PROBE = """
import sys, types
import numpy as np
import distp
from distp import audit, fileio, mechanisms
spec = fileio.load_mechanism("spec.json")
kernels = [mechanisms.cp_kernel(spec, s) for s in spec.aux]
for kernel in kernels:
    mechanisms.sample_outputs(kernel, kernel.inputs, np.random.default_rng(0))
phi = fileio.relation_from_obj(fileio.load_json("spec_phi.json"))
audit.audit_div_dp(kernels[0], phi, distp.KL)
psi = fileio.relation_from_obj(fileio.load_json("spec_psi.json"))
audit.audit_distp(spec, psi, distp.KL)
print(type(sys.modules["distp.transport"]) is types.ModuleType)
"""


def test_a_spec_is_read_checked_sampled_and_audited_without_the_solver():
    proc = _fresh(SPEC_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
