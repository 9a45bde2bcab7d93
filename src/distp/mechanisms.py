"""Obfuscation mechanisms and mechanism combinators.

Baselines (randomized response, the exponential-decay geometric kernel)
live next to the coupling mechanism, which routes an estimated input
distribution to a prescribed output distribution through a coupling and
therefore ships the output distribution exactly when the estimate is
exact. Compositions (sequential, pairwise-lifted sequential, output
post-processing) and stability checks for pre-processing round it out.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Iterable, Mapping

import numpy as np

from . import divergences, transport
from .errors import (
    GroundMismatchError,
    InvalidCouplingError,
    InvalidEpsilonError,
    UnknownLabelError,
    UnsupportedInputError,
    ValidationError,
)
from .finite_prob import (
    Coupling,
    DistributionPairRelation,
    FiniteDistribution,
    GroundMetric,
    StochasticKernel,
    _clean_ground,
    _interned,
    _kept,
    lift,
    pair_label,
    validate_coupling,
)
from .tolerances import TAU_MASS, TAU_NUM, TAU_ZERO

FALLBACK_ERROR = "error"
FALLBACK_SAMPLE_TARGET = "sample_target"
_FALLBACKS = (FALLBACK_ERROR, FALLBACK_SAMPLE_TARGET)

MODE_OPTIMAL = "optimal"
MODE_NORTHWEST = "northwest"
MODE_GIVEN = "given"
_MODES = (MODE_OPTIMAL, MODE_NORTHWEST, MODE_GIVEN)


def randomized_response(ground: Iterable[str], epsilon: float) -> StochasticKernel:
    """k-ary randomized response at privacy level ``epsilon``.

    Keeps the true label with probability e^eps / (e^eps + k - 1) and
    spreads the rest uniformly over the other labels.
    """
    ground = _clean_ground(ground)
    k = len(ground)
    if k < 2:
        raise ValidationError("randomized response needs at least two labels")
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise InvalidEpsilonError(f"epsilon {epsilon!r} must be finite and >= 0")
    try:
        growth = math.exp(epsilon)
    except OverflowError:  # past the float range: the limit, the identity
        return StochasticKernel(ground, ground, np.eye(k))
    denom = growth + k - 1
    matrix = np.full((k, k), 1.0 / denom)
    np.fill_diagonal(matrix, growth / denom)
    return StochasticKernel(ground, ground, matrix)


@dataclass(frozen=True)
class GeometricMechanism:
    """A geometric kernel together with its audited worst-case level.

    ``effective_epsilon`` is the tightest metric-scaled max-divergence
    level the rows actually attain; row normalization can push it above
    the nominal decay rate, so the audited value is reported rather than
    assumed.
    """

    kernel: StochasticKernel
    effective_epsilon: float


def geometric_mechanism(
    ground: Iterable[str], epsilon: float, metric: GroundMetric
) -> GeometricMechanism:
    """Rows proportional to exp(-epsilon * d(x, y)), normalized per row."""
    ground = _clean_ground(ground)
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise InvalidEpsilonError(f"epsilon {epsilon!r} must be finite and > 0")
    cost = metric.submatrix(ground, ground)
    weights = np.exp(-epsilon * cost)
    matrix = weights / weights.sum(axis=1, keepdims=True)
    kernel = StochasticKernel(ground, ground, matrix)

    first, second = np.triu_indices(len(ground), 1)
    levels = divergences._divergence_pairs(
        divergences.MaxDivergence(), kernel.matrix, first, second,
        _kept(kernel, "row memo", dict))
    scaled = divergences._per_distance(
        levels, np.stack([cost[first, second], cost[second, first]]))
    worst = float(np.max(scaled, initial=0.0))
    return GeometricMechanism(kernel, worst)


@dataclass(frozen=True)
class CouplingEntry:
    """Per-auxiliary-value data: the estimated input distribution and the
    coupling that routes it to the shared target."""

    s: str
    approx_input: FiniteDistribution
    coupling: Coupling


@dataclass(frozen=True)
class CouplingMechanismSpec:
    """A coupling mechanism: a target output distribution plus, for each
    auxiliary value, an estimated input distribution and a coupling of the
    estimate with the target.

    ``fallback`` decides what an input with (estimated) zero mass gets:
    ``"error"`` refuses, ``"sample_target"`` emits the target directly.
    """

    target: FiniteDistribution
    entries: tuple[CouplingEntry, ...]
    fallback: str = FALLBACK_ERROR
    tau_mass: InitVar[float] = TAU_MASS

    def __post_init__(self, tau_mass: float) -> None:
        if self.fallback not in _FALLBACKS:
            raise ValidationError(
                f"fallback must be one of {_FALLBACKS}, got {self.fallback!r}"
            )
        entries = tuple(self.entries)
        if not entries:
            raise ValidationError("coupling mechanism needs at least one auxiliary value")
        seen = set()
        for entry in entries:
            if entry.s in seen:
                raise ValidationError(f"duplicate auxiliary value {entry.s!r}")
            seen.add(entry.s)
            if entry.approx_input.ground != entries[0].approx_input.ground:
                raise GroundMismatchError(
                    "all estimated inputs must share one ground set"
                )
            if not validate_coupling(entry.coupling, entry.approx_input, self.target,
                                     tau_mass):
                raise InvalidCouplingError(
                    f"coupling for auxiliary value {entry.s!r} does not have the "
                    "declared marginals"
                )
        object.__setattr__(self, "entries", entries)

    @property
    def aux(self) -> tuple[str, ...]:
        return tuple(entry.s for entry in self.entries)

    def entry_for(self, s: str) -> CouplingEntry:
        for entry in self.entries:
            if entry.s == s:
                return entry
        raise UnknownLabelError(f"auxiliary value {s!r} not in mechanism")


def build_coupling_mechanism(
    target: FiniteDistribution,
    approx_inputs: Mapping[str, FiniteDistribution],
    mode: str = MODE_OPTIMAL,
    *,
    metric: GroundMetric | None = None,
    couplings: Mapping[str, Coupling] | None = None,
    fallback: str = FALLBACK_ERROR,
) -> CouplingMechanismSpec:
    """Assemble a coupling mechanism for the given estimates.

    Modes: ``"optimal"`` picks the cost-minimal coupling under ``metric``
    (the utility-optimal choice), ``"northwest"`` the staircase coupling,
    ``"given"`` takes caller-supplied couplings. Every mode builds the
    spec through its one constructor, which checks each coupling's
    marginals; only the first two modes run the solver.
    """
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
    if not approx_inputs:
        raise ValidationError("approx_inputs must be nonempty")
    entries = []
    for s, lam_hat in approx_inputs.items():
        s = str(s)
        if mode == MODE_OPTIMAL:
            if metric is None:
                raise ValidationError("optimal mode needs a metric")
            coupling = transport.emd(lam_hat, target, metric).coupling
        elif mode == MODE_NORTHWEST:
            coupling = transport.northwest_corner(lam_hat, target)
        else:
            if couplings is None or s not in couplings:
                raise ValidationError(f"given mode needs a coupling for {s!r}")
            coupling = couplings[s]
        entries.append(CouplingEntry(s, lam_hat, coupling))
    return CouplingMechanismSpec(target, tuple(entries), fallback)


def _cp_rows(target: FiniteDistribution, entry: CouplingEntry):
    """Each input's coupling row conditioned on that input, or the target
    row where the estimate rules the input out; also the ruled-out mask."""
    hat = entry.approx_input.probs
    ruled_out = hat <= TAU_ZERO
    denom = np.where(ruled_out, 1.0, hat)
    rows = np.where(
        ruled_out[:, None], target.probs, entry.coupling.mass / denom[:, None]
    )
    return rows, ruled_out


def cp_kernel(spec: CouplingMechanismSpec, s: str) -> StochasticKernel:
    """The mechanism's kernel for auxiliary value ``s``.

    Row x is the coupling row conditioned on x. Inputs the estimate
    declares impossible are served by the fallback policy. The rows are
    quotients of validated arrays, so only their mass is checked.
    """
    entry = spec.entry_for(s)
    ground = entry.approx_input.ground
    rows, ruled_out = _cp_rows(spec.target, entry)
    if spec.fallback == FALLBACK_ERROR and ruled_out.any():
        raise UnsupportedInputError(
            f"input {ground[int(np.argmax(ruled_out))]!r} has zero estimated "
            "mass and fallback is 'error'"
        )
    return StochasticKernel._trusted(ground, spec.target.ground, rows)


@dataclass(frozen=True)
class KernelFamily:
    """Kernels indexed by labels, all sharing input and output grounds.

    A coupling mechanism indexes its kernels by auxiliary values; the second
    stage of a sequential composition indexes them by the first stage's
    outputs.
    """

    kernels: Mapping[str, StochasticKernel]

    def __post_init__(self) -> None:
        kernels = dict(self.kernels)
        if not kernels:
            raise ValidationError("kernel family must be nonempty")
        first = next(iter(kernels.values()))
        for kernel in kernels.values():
            if kernel.inputs != first.inputs or kernel.outputs != first.outputs:
                raise GroundMismatchError(
                    "all kernels in a family must share input and output grounds"
                )
        object.__setattr__(self, "kernels", kernels)

    @classmethod
    def constant(
        cls, labels: Iterable[str], kernel: StochasticKernel
    ) -> "KernelFamily":
        return cls({str(label): kernel for label in labels})

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.kernels)

    def kernel_for(self, label: str) -> StochasticKernel:
        try:
            return self.kernels[label]
        except KeyError:
            raise UnknownLabelError(f"label {label!r} not in kernel family") from None


def aux_kernel(spec: CouplingMechanismSpec) -> KernelFamily:
    """All per-auxiliary kernels of a coupling mechanism."""
    return KernelFamily({s: cp_kernel(spec, s) for s in spec.aux})


def _second_stage(
    first: StochasticKernel, second: KernelFamily | StochasticKernel
) -> tuple[np.ndarray, tuple[str, ...]]:
    """The second-stage kernel picked by each output of ``first``, stacked
    as (|Y0|, |X|, |Y1|), and the second stage's output ground."""
    if isinstance(second, StochasticKernel):
        second = KernelFamily.constant(first.outputs, second)
    missing = [y for y in first.outputs if y not in second.kernels]
    if missing:
        raise GroundMismatchError(f"missing branches for selectors {missing}")
    stage = [second.kernels[y] for y in first.outputs]
    if stage[0].inputs != first.inputs:
        raise GroundMismatchError(
            "second-stage inputs must match the first stage's inputs"
        )
    return np.stack([k.matrix for k in stage]), stage[0].outputs


def seq_compose(
    first: StochasticKernel,
    second: KernelFamily | StochasticKernel,
    marginalize: bool = False,
) -> StochasticKernel:
    """Run ``first``, then the kernel of ``second`` picked by its output.

    Emits the joint pair (y0, y1) by default; ``marginalize`` keeps only
    the second coordinate.
    """
    stack, y1 = _second_stage(first, second)
    if marginalize:
        matrix = np.einsum("xj,jxk->xk", first.matrix, stack)
        return StochasticKernel(first.inputs, y1, matrix)
    joint = np.einsum("xj,jxk->xjk", first.matrix, stack)
    outputs = tuple(pair_label(a, b) for a in first.outputs for b in y1)
    return StochasticKernel(
        first.inputs, outputs, joint.reshape(len(first.inputs), -1)
    )


def liftseq_compose(
    first: StochasticKernel,
    second: KernelFamily | StochasticKernel,
    marginalize: bool = False,
) -> StochasticKernel:
    """Pairwise-lifted sequential composition.

    Input pairs (x0, x1): ``first`` consumes x0, the selected kernel of
    ``second`` consumes x1. Emits the joint (y0, y1) unless marginalized.
    """
    stack, y1 = _second_stage(first, second)
    inputs = tuple(
        pair_label(a, b) for a in first.inputs for b in first.inputs
    )
    if marginalize:
        matrix = np.einsum("aj,jbk->abk", first.matrix, stack)
        return StochasticKernel(inputs, y1, matrix.reshape(len(inputs), -1))
    joint = np.einsum("aj,jbk->abjk", first.matrix, stack)
    outputs = tuple(pair_label(a, b) for a in first.outputs for b in y1)
    return StochasticKernel(inputs, outputs, joint.reshape(len(inputs), -1))


def post_process(
    first: StochasticKernel, second: StochasticKernel
) -> StochasticKernel:
    """Feed every output of ``first`` through ``second`` (matrix product)."""
    if first.outputs != second.inputs:
        raise GroundMismatchError(
            "post-processing inputs must match the first kernel's outputs"
        )
    return StochasticKernel(first.inputs, second.outputs, first.matrix @ second.matrix)


def stability_check(
    kernel: StochasticKernel,
    c: float,
    *,
    pairs: Iterable | None = None,
    metric: GroundMetric | None = None,
    order: float | str = 1.0,
    relation: DistributionPairRelation | None = None,
) -> bool:
    """Check a pre-processing kernel's expansion bound on supplied pairs.

    Metric form (``pairs`` + ``metric``): every pair must satisfy
    W(T#a, T#b) <= c * W(a, b) + TAU_NUM for the chosen Wasserstein order.
    The pairs and their images are interned, so each distinct ordered pair
    is measured once, and a pair of point masses takes no solve. Images
    off unit mass by more than TAU_MASS raise at a solve's mass check.

    Relation form (``relation``): for every related pair, the image of the
    right member must reach the image of the left member in at most ``c``
    steps along the relation, where a step crosses one related pair in
    either orientation and distributions are matched within TAU_NUM.
    """
    if (relation is None) == (pairs is None and metric is None):
        raise ValidationError("provide either pairs+metric or relation")
    if relation is None:
        if pairs is None or metric is None:
            raise ValidationError("metric form needs both pairs and metric")
        if not c >= 0.0:  # NaN too
            raise ValidationError("expansion factor c must be nonnegative")
        sides = [(p.left, p.right) if hasattr(p, "left") else p for p in pairs]
        nodes, ids = _interned(d for a, b in sides for d in (a, b))
        images, image_ids = _interned([lift(kernel, d) for d in nodes])
        left, right = np.array(ids, dtype=np.intp).reshape(-1, 2).T
        image = np.array(image_ids, dtype=np.intp)
        before = transport._pair_distances(nodes, left, right, metric, order)
        after = transport._pair_distances(images, image[left], image[right],
                                          metric, order)
        return not np.any(after > c * before + TAU_NUM)

    if not (math.isfinite(c) and c >= 0 and c == int(c)):
        raise ValidationError("relation form needs a nonnegative integer step count")
    steps = int(c)
    nodes: list[FiniteDistribution] = []

    def node_id(dist: FiniteDistribution, add: bool = False) -> int | None:
        for i, known in enumerate(nodes):
            if known.is_close(dist, TAU_NUM):
                return i
        if not add:
            return None
        nodes.append(dist)
        return len(nodes) - 1

    neighbors: dict[int, set[int]] = {}
    for pair in relation:
        a, b = node_id(pair.left, add=True), node_id(pair.right, add=True)
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)

    for pair in relation:
        goal_dist = lift(kernel, pair.left)
        start_dist = lift(kernel, pair.right)
        if goal_dist.is_close(start_dist, TAU_NUM):
            continue
        start, goal = node_id(start_dist), node_id(goal_dist)
        if start is None or goal is None:
            return False
        frontier, seen = {start}, {start}
        for _ in range(steps):
            frontier = {nxt for node in frontier for nxt in neighbors[node]
                        if nxt not in seen}
            seen |= frontier
            if goal in seen:
                break
            if not frontier:  # every node within reach is seen
                return False
        else:
            return False
    return True


def sample_outputs(
    kernel: StochasticKernel, labels: Iterable[str], rng: np.random.Generator
) -> list[str]:
    """Sample one output per input label by inverse-CDF over the row.

    One uniform draw is consumed per input, in order: ``rng.random(n)``
    reads the same stream as n scalar draws, so a seeded counter-based
    generator reproduces it exactly. A record gets the first output whose
    cumulative row mass exceeds its draw, or the last output if none does.
    """
    index = kernel._in_index  # type: ignore[attr-defined]
    try:
        rows = np.array([index[str(label)] for label in labels], dtype=np.intp)
    except KeyError as unknown:
        kernel.input_index(*unknown.args)  # raises UnknownLabelError
    u = rng.random(rows.size)
    # Each row's cumulative sum, added left to right as np.cumsum(row) does.
    cum = np.cumsum(kernel.matrix, axis=1)
    # Records grouped by input row, one searchsorted per row that occurs.
    order = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=len(kernel.inputs))
    ends = np.cumsum(counts)
    picks = np.empty(rows.size, dtype=np.intp)
    for i in np.flatnonzero(counts).tolist():
        take = order[ends[i] - counts[i] : ends[i]]
        picks[take] = np.searchsorted(cum[i], u[take], side="right")
    np.minimum(picks, len(kernel.outputs) - 1, out=picks)
    return [kernel.outputs[j] for j in picks.tolist()]
