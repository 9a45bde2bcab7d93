"""The benchmark's per-layer tracer still finds every name it wraps.

``bench/tracing.py`` wraps library functions and methods by name from
outside the package, so renaming or moving one of them breaks traced
benchmark runs. This installs the tracer on the package, makes a few
traced calls, and uninstalls it again. The benchmark code is only read.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import distp
import distp.cli
import distp.fileio
from distp import (
    FiniteDistribution,
    GroundMetric,
    StochasticKernel,
    aux_kernel,
    build_coupling_mechanism,
    lift,
)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "distp" or k.startswith("distp.")]
    classes = (FiniteDistribution, StochasticKernel, GroundMetric)
    return ({id(m): dict(vars(m)) for m in modules},
            {cls: dict(vars(cls)) for cls in classes})


def test_tracer_installs_and_uninstalls(tracing):
    before = _snapshot()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        for layer, names in tracing.FUNCTIONS.items():
            home = sys.modules[f"distp.{layer}"]
            for name in names:
                assert getattr(home, name).__wrapped__ is not None
        ground = ("a", "b")
        lam = FiniteDistribution(ground, np.array([0.25, 0.75]))
        mu = FiniteDistribution(("u", "v"), np.array([0.5, 0.5]))
        spec = distp.mechanisms.build_coupling_mechanism(
            mu, {"s": lam}, mode="northwest"
        )
        family = distp.mechanisms.aux_kernel(spec)
        kernel = family.kernel_for("s")
        distp.finite_prob.lift(kernel, lam)
        kernel.row("a")
        metric = GroundMetric.line(ground)
        assert metric.is_symmetric() and metric.satisfies_triangle()
    finally:
        tracing.uninstall(undo)
    names = [span[0] for span in tracer.spans]
    for name in ("mechanisms.build_coupling_mechanism", "mechanisms.aux_kernel",
                 "mechanisms.cp_kernel", "finite_prob.lift", "finite_prob.row",
                 "finite_prob.row_by_index", "finite_prob.is_symmetric",
                 "finite_prob.satisfies_triangle"):
        assert name in names
    assert tracer.counts["finite_prob.dists_built"] > 0
    assert _snapshot() == before
    assert distp.aux_kernel is aux_kernel
    assert distp.build_coupling_mechanism is build_coupling_mechanism
    assert distp.lift is lift
