"""distp: distribution privacy over finite domains.

Finite distributions and stochastic kernels, f- and max divergences,
exact discrete optimal transport, coupling-based obfuscation mechanisms
with composition operators, and numerical auditors for the privacy and
utility guarantees they come with.

Importing the package loads only ``errors`` and ``tolerances``; neither
imports numpy. The numpy modules (``finite_prob``, ``divergences``,
``transport``, ``mechanisms``, ``audit``, ``fileio``) are registered in
``sys.modules`` as lazy modules (``importlib.util.LazyLoader``) and
execute on first attribute access, so a CLI process that only parses its
arguments never imports numpy. They are real ``sys.modules`` entries, not
imports deferred into functions, because tools outside the package look
them up by name: the benchmark tracer, for one, wraps functions in
``sys.modules["distp.<module>"]``. Inside the package, a numpy module
that uses a sibling only within functions reaches it through the module
(``from . import transport``, then ``transport.emd``), so the sibling
executes only when a call needs it. A name exported here, such as
``distp.emd``, is resolved from its home module on first access (PEP 562)
and cached in the package namespace.
"""

import importlib.util
import sys

from . import errors, tolerances

__version__ = "0.1.0"

_LAZY = ("finite_prob", "divergences", "transport", "mechanisms", "audit",
         "fileio")

# home module -> the names the package exports from it
_EXPORTS = {
    "audit": (
        "AuditReport", "BoundCheck", "CPTheoremReport", "PairAudit",
        "audit_distp", "audit_div_dp", "audit_div_xdp", "audit_xdistp",
        "check_cp_theorem", "expected_utility_loss", "worst_case_loss",
    ),
    "divergences": (
        "CHI_SQUARED", "HELLINGER", "KIND_BY_NAME", "KL", "REVERSE_KL",
        "STANDARD_KINDS", "TOTAL_VARIATION", "Divergence",
        "FDivergenceKind", "MaxDivergence", "approx_max_divergence",
        "custom_kind", "delta_required", "divergence_value", "f_divergence",
        "max_divergence",
    ),
    "errors": (
        "DimensionMismatchError", "DistpError", "EmptyRelationError",
        "GroundMismatchError", "InfiniteEpsilonError", "InvalidCouplingError",
        "InvalidEpsilonError", "InvalidGeneratorError",
        "SolverNonconvergenceError", "UnknownLabelError",
        "UnsupportedInputError", "ValidationError",
    ),
    "finite_prob": (
        "Coupling", "DistributionPair", "DistributionPairRelation",
        "FiniteDistribution", "GroundMetric", "PointRelation",
        "StochasticKernel", "event_probability", "lift", "pair_label",
        "point_distribution", "product_distribution", "split_pair_label",
        "uniform_distribution", "validate_coupling",
    ),
    "mechanisms": (
        "FALLBACK_ERROR", "FALLBACK_SAMPLE_TARGET", "MODE_GIVEN",
        "MODE_NORTHWEST", "MODE_OPTIMAL", "CouplingEntry",
        "CouplingMechanismSpec", "GeometricMechanism", "KernelFamily",
        "aux_kernel", "build_coupling_mechanism", "cp_kernel",
        "geometric_mechanism", "liftseq_compose", "post_process",
        "randomized_response", "sample_outputs", "seq_compose",
        "stability_check",
    ),
    "tolerances": ("DEFAULT_SEED", "TAU_MASS", "TAU_NUM", "TAU_ZERO"),
    "transport": (
        "TransportResult", "coupling_cost", "diameter", "dual_potentials",
        "emd", "is_submodular", "lifted_member", "lifted_w1_member",
        "northwest_corner", "wasserstein_inf", "wasserstein_p",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _lazy_module(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update((name, _lazy_module(name)) for name in _LAZY)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
