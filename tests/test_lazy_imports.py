"""The package loads each numpy module on first use.

``import distp`` and a CLI process that only parses its arguments import no
numpy; every exported name still resolves to the object its home module
defines.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import distp
from distp import cli
from distp.divergences import KIND_BY_NAME

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
