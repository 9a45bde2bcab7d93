"""distp: distribution privacy over finite domains.

Finite distributions and stochastic kernels, f- and max divergences,
exact discrete optimal transport, coupling-based obfuscation mechanisms
with composition operators, and numerical auditors for the privacy and
utility guarantees they come with.
"""

__version__ = "0.1.0"

from .audit import (
    AuditReport,
    BoundCheck,
    CPTheoremReport,
    PairAudit,
    audit_distp,
    audit_div_dp,
    audit_div_xdp,
    audit_xdistp,
    check_cp_theorem,
    expected_utility_loss,
    worst_case_loss,
)
from .divergences import (
    CHI_SQUARED,
    HELLINGER,
    KIND_BY_NAME,
    KL,
    MAX_EXACT_SUPPORT,
    REVERSE_KL,
    STANDARD_KINDS,
    TOTAL_VARIATION,
    Divergence,
    FDivergenceKind,
    MaxDivergence,
    approx_max_divergence,
    custom_kind,
    delta_required,
    divergence_value,
    f_divergence,
    max_divergence,
)
from .errors import (
    DimensionMismatchError,
    DistpError,
    EmptyRelationError,
    GroundMismatchError,
    InfiniteEpsilonError,
    InvalidCouplingError,
    InvalidEpsilonError,
    InvalidGeneratorError,
    SolverNonconvergenceError,
    UnknownLabelError,
    UnsupportedInputError,
    ValidationError,
)
from .finite_prob import (
    DistributionPair,
    DistributionPairRelation,
    FiniteDistribution,
    GroundMetric,
    PointRelation,
    StochasticKernel,
    event_probability,
    lift,
    pair_label,
    point_distribution,
    product_distribution,
    split_pair_label,
    uniform_distribution,
)
from .mechanisms import (
    FALLBACK_ERROR,
    FALLBACK_SAMPLE_TARGET,
    MODE_GIVEN,
    MODE_NORTHWEST,
    MODE_OPTIMAL,
    CouplingEntry,
    CouplingMechanismSpec,
    GeometricMechanism,
    KernelFamily,
    aux_kernel,
    build_coupling_mechanism,
    cp_kernel,
    geometric_mechanism,
    liftseq_compose,
    post_process,
    randomized_response,
    sample_outputs,
    seq_compose,
    stability_check,
)
from .tolerances import DEFAULT_SEED, TAU_MASS, TAU_NUM, TAU_ZERO
from .transport import (
    Coupling,
    TransportResult,
    coupling_cost,
    diameter,
    dual_potentials,
    emd,
    is_submodular,
    lifted_member,
    lifted_w1_member,
    northwest_corner,
    validate_coupling,
    wasserstein_inf,
    wasserstein_p,
)
