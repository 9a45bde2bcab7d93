"""Numerical auditors for privacy definitions and utility loss.

Each auditor evaluates a divergence (or a metric-scaled divergence) over
every supplied pair, in both directions, and reports the supremum. An
infinite observed level is a legal outcome and is reported, never raised;
exceptions are reserved for malformed inputs.

All auditors and the coupling-mechanism theorem check share one core,
``_audit``, which takes a pair plan (``finite_prob._PairPlan``): the
table rows and label of every pair, and the distinct unordered row pairs
that its two directions read, lower row first and sorted. Listing each
unordered pair once is how an audit evaluates it once; a kernel's memo
takes pairs in any order. The blocked row kernel of ``divergences``
evaluates each of them once, in both orders, from one gather of its two
rows, and the plan's ``inverse`` scatters those values onto the forward
and backward directions of (a, b), and of (b, a).
``finite_prob._kept`` keeps work on the frozen object it belongs to: a
relation's plan, built on its first audit per input ground (label
relation) or kind of mechanism (distribution relation); a coupling
mechanism's kernel family, which all audits of one spec share; and a
kernel's memo of evaluated row pairs per divergence, which the label
audits and ``geometric_mechanism`` read through, so each unordered pair
of kernel rows is evaluated once per kernel and divergence, whatever the
relation or notion asks for it. A distribution relation interns its
distributions (by exact ground and probabilities), lifts each distinct
one once per kernel and measures each distinct ordered pair once; two
point masses need no transport solve, since their one coupling makes the
distance the ground cost between the two labels. The report keeps the
results as columns and builds one object per pair only when asked. DP
and XDP are the point-mass cases of DistP and XDistP.

Every verdict is taken by ``_verdict``: a value passes iff it is at most
its bound plus ``tau_num``. ``PairAudit``, ``AuditReport`` and the plain
rows of ``AuditReport._rows``, which the JSON and the CLI's CSV report
print, all read it, so a ``tau_num`` override moves them together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from . import transport
from .divergences import (
    KL,
    STANDARD_KINDS,
    Divergence,
    MaxDivergence,
    _divergence_pairs,
    _per_distance,
)
from .errors import (
    EmptyRelationError,
    GroundMismatchError,
    InfiniteEpsilonError,
    ValidationError,
)
from .finite_prob import (
    DistributionPairRelation,
    FiniteDistribution,
    GroundMetric,
    PointRelation,
    StochasticKernel,
    _interned,
    _kept,
    _lifted_probs,
    _pair_labels,
    _PairPlan,
    _point_plan,
    pair_label,
)
from .mechanisms import CouplingMechanismSpec, KernelFamily, _cp_rows, aux_kernel
from .tolerances import TAU_NUM, TAU_ZERO

NOTION_DP = "dp"
NOTION_XDP = "xdp"
NOTION_DISTP = "distp"
NOTION_XDISTP = "xdistp"

# The fields of one audited pair, in report order (JSON keys, CSV header).
_PAIR_FIELDS = ("pair", "forward", "backward", "value", "bound", "pass")


def _verdict(value: float, bound: float | None, tau_num: float) -> bool | None:
    """The verdict rule of every audit: ``value`` passes iff it is at most
    ``bound + tau_num``; None when there is no bound."""
    if bound is None:
        return None
    return value <= bound + tau_num


@dataclass(frozen=True)
class PairAudit:
    """One audited pair: the two directional values and the verdict."""

    pair: str
    forward: float
    backward: float
    bound: float | None

    @property
    def value(self) -> float:
        return max(self.forward, self.backward)

    @property
    def passed(self) -> bool | None:
        return self._passed(TAU_NUM)

    def _passed(self, tau_num: float) -> bool | None:
        return _verdict(self.value, self.bound, tau_num)

    def to_dict(self, tau_num: float = TAU_NUM) -> dict:
        """Plain form, with the verdict taken at tolerance ``tau_num``."""
        return dict(zip(_PAIR_FIELDS, (self.pair, self.forward, self.backward,
                                      self.value, self.bound,
                                      self._passed(tau_num))))


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Aggregated audit outcome, kept as columns.

    Entry i of the read-only float arrays ``forward`` and ``backward`` is
    the pair ``labels[i]`` audited in each direction. ``observed_eps`` is
    the maximum per-pair value and ``worst_pair`` the first pair attaining
    it; the verdict compares it with ``claimed_eps`` (a missing claim
    passes vacuously).
    """

    notion: str
    divergence: str
    claimed_eps: float | None
    labels: tuple[str, ...]
    forward: np.ndarray
    backward: np.ndarray
    observed_eps: float = field(init=False)
    worst_pair: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        for name in ("forward", "backward"):
            column = np.array(getattr(self, name), dtype=float)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        worst = int(np.argmax(np.maximum(self.forward, self.backward)))
        value = max(float(self.forward[worst]), float(self.backward[worst]))
        object.__setattr__(self, "observed_eps", value)
        object.__setattr__(self, "worst_pair", self.labels[worst])

    @cached_property
    def pairs(self) -> tuple[PairAudit, ...]:
        """One :class:`PairAudit` per pair, in order; built on first access."""
        return tuple(
            PairAudit(label, fwd, bwd, self.claimed_eps)
            for label, fwd, bwd in zip(
                self.labels, self.forward.tolist(), self.backward.tolist()
            )
        )

    @property
    def passed(self) -> bool:
        return self._passed(TAU_NUM)

    def _passed(self, tau_num: float) -> bool:
        return _verdict(self.observed_eps, self.claimed_eps, tau_num) is not False

    def _rows(self, tau_num: float):
        """Each pair's ``_PAIR_FIELDS`` as a tuple, read from the columns,
        with its verdict taken at tolerance ``tau_num``."""
        bound = self.claimed_eps
        for label, fwd, bwd in zip(self.labels, self.forward.tolist(),
                                   self.backward.tolist()):
            value = max(fwd, bwd)
            yield label, fwd, bwd, value, bound, _verdict(value, bound, tau_num)

    def to_dict(self, tau_num: float = TAU_NUM) -> dict:
        """Plain form, with every verdict taken at tolerance ``tau_num``."""
        return {
            "notion": self.notion,
            "divergence": self.divergence,
            "claimed_eps": self.claimed_eps,
            "observed_eps": self.observed_eps,
            "worst_pair": self.worst_pair,
            "verdict": "pass" if self._passed(tau_num) else "fail",
            "pairs": [dict(zip(_PAIR_FIELDS, row)) for row in self._rows(tau_num)],
        }


def _audit(
    notion: str,
    divergence: Divergence,
    plan: _PairPlan,
    table: np.ndarray,
    claimed: float | None,
    *,
    distances: np.ndarray | None = None,
    memo: dict | None = None,
) -> AuditReport:
    """Audit every pair of ``plan`` over the rows of ``table``, in both
    directions, per unit of ``distances[i]`` if given; with ``memo``, the
    row-pair memo kept with ``table``, each pair of rows that an earlier
    call evaluated is read from it. Each distinct unordered row pair of
    the plan is evaluated once, in both orders, and ``plan.inverse``
    scatters those values onto the pairs' two directions."""
    values = _divergence_pairs(divergence, table, plan.first, plan.second,
                               memo).reshape(-1)[plan.inverse]
    forward, backward = values[: len(plan.left)], values[len(plan.left):]
    if distances is not None:
        forward = _per_distance(forward, distances)
        backward = _per_distance(backward, distances)
    return AuditReport(notion, divergence.name, claimed, plan.labels, forward,
                       backward)


def audit_div_dp(
    kernel: StochasticKernel,
    phi: PointRelation,
    divergence: Divergence,
    claimed_eps: float | None = None,
) -> AuditReport:
    """Worst divergence between output rows over all related input pairs."""
    plan = _point_plan(phi, kernel)
    return _audit(NOTION_DP, divergence, plan, kernel.matrix, claimed_eps,
                  memo=_kept(kernel, "row memo", dict))


def audit_div_xdp(
    kernel: StochasticKernel,
    phi: PointRelation,
    metric: GroundMetric,
    divergence: Divergence,
    claimed_eps: float | None = None,
) -> AuditReport:
    """Worst divergence per unit input distance over all related pairs."""
    plan = _point_plan(phi, kernel)
    left, right = plan.left, plan.right
    # Look up each kernel row that the relation uses in the metric once, in
    # the order the relation first names it, so that a missing label is
    # reported as a per-pair lookup would report it.
    used, first = np.unique(np.column_stack([left, right]), return_index=True)
    rows = np.zeros(len(kernel.inputs), dtype=np.intp)
    for i in used[np.argsort(first)].tolist():
        rows[i] = metric.index(kernel.inputs[i])
    distances = metric.cost[rows[left], rows[right]]
    return _audit(NOTION_XDP, divergence, plan, kernel.matrix, claimed_eps,
                  distances=distances, memo=_kept(kernel, "row memo", dict))


Mechanism = StochasticKernel | KernelFamily | CouplingMechanismSpec


@dataclass(frozen=True, eq=False)
class _LiftPlan:
    """A distribution relation's audited instances over one kind of
    mechanism: a single kernel, or a family with given labels.

    ``nodes`` are the relation's distinct distributions, interned by exact
    ground and probabilities. Table row r is ``lifts[r] = (slot, node)``,
    the node pushed through kernel ``slot`` of the mechanism, listed once
    however many instances use it. ``pairs`` gives each instance's two
    table rows and label, in relation order. Aux-tagged pairs select the
    named kernels; untagged pairs against a family are audited once per
    auxiliary value.
    """

    nodes: tuple[FiniteDistribution, ...]
    lifts: tuple[tuple[int, int], ...]
    pairs: _PairPlan


def _new_lift_plan(psi: DistributionPairRelation, inputs, family) -> _LiftPlan:
    """The plan of ``psi`` over kernels with input ground ``inputs``: one
    kernel if ``family`` is None, else the kernels of ``family``."""
    slots = {} if family is None else {s: k for k, s in enumerate(family.kernels)}

    def slot(label: str) -> int:
        if label not in slots:
            family.kernel_for(label)  # raises the family's UnknownLabelError
        return slots[label]

    nodes, ids = _interned(d for pair in psi for d in (pair.left, pair.right))
    rows: dict[tuple[int, int], int] = {}
    labels, left, right = [], [], []
    for i, pair in enumerate(psi):
        if family is None:
            sides = [(pair.aux, 0, 0)]
        elif pair.aux is not None:
            sides = [(pair.aux, *map(slot, pair.aux))]
        else:
            sides = [((s, s), k, k) for s, k in slots.items()]
        if pair.left.ground != inputs:
            raise GroundMismatchError(
                "distribution ground does not match kernel inputs"
            )
        a, b = ids[2 * i], ids[2 * i + 1]
        for aux, k0, k1 in sides:
            labels.append(f"{i}:{pair_label(*aux)}" if aux else str(i))
            left.append(rows.setdefault((k0, a), len(rows)))
            right.append(rows.setdefault((k1, b), len(rows)))
    return _LiftPlan(tuple(nodes), tuple(rows), _PairPlan(labels, left, right))


def _lifted_pairs(mechanism: Mechanism, psi: DistributionPairRelation):
    """The relation's plan over ``mechanism`` (built once per kind of
    mechanism and kept on the relation) and its table of lifted outputs."""
    if len(psi) == 0:
        raise EmptyRelationError("relation has no pairs")
    if isinstance(mechanism, CouplingMechanismSpec):
        mechanism = _kept(mechanism, "aux kernels", lambda: aux_kernel(mechanism))
    if isinstance(mechanism, StochasticKernel):
        family, kernels = None, (mechanism,)
    else:
        family, kernels = mechanism, tuple(mechanism.kernels.values())
    inputs = kernels[0].inputs
    key = (inputs, None if family is None else family.labels)
    plan = _kept(psi, key, lambda: _new_lift_plan(psi, inputs, family))
    table = np.stack([_lifted_probs(kernels[k], plan.nodes[j])
                      for k, j in plan.lifts])
    return plan, table


def audit_distp(
    mechanism: Mechanism,
    psi: DistributionPairRelation,
    divergence: Divergence,
    claimed_eps: float | None = None,
) -> AuditReport:
    """Worst divergence between lifted outputs over related distribution
    pairs. Accepts a single kernel, a family indexed by auxiliary values,
    or a coupling mechanism."""
    plan, table = _lifted_pairs(mechanism, psi)
    return _audit(NOTION_DISTP, divergence, plan.pairs, table, claimed_eps)


WASSERSTEIN_ONE = "1"


def audit_xdistp(
    mechanism: Mechanism,
    psi: DistributionPairRelation,
    metric: GroundMetric,
    divergence: Divergence,
    claimed_eps: float | None = None,
    *,
    wasserstein: float | str = WASSERSTEIN_ONE,
) -> AuditReport:
    """Worst lifted divergence per unit of input Wasserstein distance.

    ``wasserstein`` picks the denominator: "1" (default), "inf", or a
    numeric order p >= 1. Each distinct ordered pair of input distributions
    is measured once, and a pair of point masses takes no solve.
    """
    plan, table = _lifted_pairs(mechanism, psi)
    nodes = np.array([node for _, node in plan.lifts])
    left, right = nodes[plan.pairs.left], nodes[plan.pairs.right]
    distances = transport._pair_distances(plan.nodes, left, right, metric, wasserstein)
    return _audit(NOTION_XDISTP, divergence, plan.pairs, table, claimed_eps,
                  distances=distances)


def expected_utility_loss(
    kernel: StochasticKernel, lam: FiniteDistribution, metric: GroundMetric
) -> float:
    """Mean distance between input and emitted output.

    ``metric`` must cover both the input and the output labels.
    """
    if lam.ground != kernel.inputs:
        raise GroundMismatchError("distribution ground does not match kernel inputs")
    cost = transport._cost_block(metric, kernel.inputs, kernel.outputs)
    return float(lam.probs @ (kernel.matrix * cost).sum(axis=1))


def worst_case_loss(
    kernel: StochasticKernel, lam: FiniteDistribution, metric: GroundMetric
) -> float:
    """Largest distance between input and output that can actually occur."""
    if lam.ground != kernel.inputs:
        raise GroundMismatchError("distribution ground does not match kernel inputs")
    cost = transport._cost_block(metric, kernel.inputs, kernel.outputs)
    active = (lam.probs[:, None] * kernel.matrix) > TAU_ZERO
    if not np.any(active):
        return 0.0
    return float(np.max(cost[active]))


@dataclass(frozen=True)
class BoundCheck:
    """One theoretical bound audited against the mechanism."""

    name: str
    bound: float
    report: AuditReport

    @property
    def passed(self) -> bool:
        return self.report.passed

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "bound": self.bound,
            "report": self.report.to_dict(),
        }


@dataclass(frozen=True)
class CPTheoremReport:
    """Estimation level and the full slate of audited output bounds."""

    epsilon: float
    checks: tuple[BoundCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def check(self, name: str) -> BoundCheck:
        for check in self.checks:
            if check.name == name:
                return check
        raise ValidationError(f"no bound named {name!r}")

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "verdict": "pass" if self.passed else "fail",
            "checks": [check.to_dict() for check in self.checks],
        }


def check_cp_theorem(
    spec: CouplingMechanismSpec,
    actual_inputs: Mapping[str, FiniteDistribution],
) -> CPTheoremReport:
    """Audit the coupling mechanism's output-closeness guarantees.

    The estimation level is the worst two-sided max divergence between each
    true input and its estimate; it must be finite (matching supports). The
    audited bounds, over all pairs of auxiliary values: max divergence at
    most twice the level; KL at most 2 * eps * e^eps; and for each built-in
    f-divergence kind, at most e^eps * f(e^(2*eps)).
    """
    missing = [s for s in spec.aux if s not in actual_inputs]
    if missing:
        raise ValidationError(f"actual inputs missing auxiliary values {missing}")

    # The level of each estimate, both ways round, in one blocked call:
    # table rows 0..m-1 are the estimates, rows m..2m-1 the true inputs.
    actual = [actual_inputs[entry.s] for entry in spec.entries]
    for entry, lam in zip(spec.entries, actual):
        if lam.ground != entry.approx_input.ground:
            raise GroundMismatchError("divergence requires a shared ground set")
    m = len(actual)
    given = np.stack([entry.approx_input.probs for entry in spec.entries]
                     + [lam.probs for lam in actual])
    levels = np.maximum(*_divergence_pairs(MaxDivergence(), given,
                                           np.arange(m), m + np.arange(m)))
    for entry, level in zip(spec.entries, levels.tolist()):
        if not math.isfinite(level):
            raise InfiniteEpsilonError(
                f"estimate for {entry.s!r} has a different support than the "
                "true input"
            )
    eps = max(0.0, *levels.tolist())
    # Inputs the estimate rules out carry no true mass once the level is
    # finite, so their rows never consult the fallback policy.
    outputs = [lam.probs @ _cp_rows(spec.target, entry)[0]
               for entry, lam in zip(spec.entries, actual)]

    aux = spec.aux
    first, second = np.triu_indices(len(aux))
    plan = _PairPlan(_pair_labels(aux, first.tolist(), second.tolist()),
                     first, second)
    table = np.stack(outputs)
    memo: dict = {}  # the "kl" and "f:kl" checks evaluate KL once

    growth = math.exp(eps)
    bounds = [("max", MaxDivergence(), 2.0 * eps), ("kl", KL, 2.0 * eps * growth)]
    for kind in STANDARD_KINDS:
        bound = growth * float(kind(math.exp(2.0 * eps)))
        bounds.append((f"f:{kind.name}", kind, bound))
    checks = tuple(
        BoundCheck(name, bound, _audit(NOTION_DISTP, divergence, plan, table,
                                       bound, memo=memo))
        for name, divergence, bound in bounds
    )
    return CPTheoremReport(eps, checks)
