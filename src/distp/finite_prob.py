"""Finite probability: distributions, kernels, couplings, relations, metrics.

Grounds are ordered tuples of string labels; probabilities live in numpy
arrays aligned with the ground order. Objects are immutable after
construction and validate themselves exactly once, at construction time.

The array-backed types (distribution, kernel, coupling, cost table) share
one validation rule, ``_checked_array``: the shape matches the grounds,
entries are finite, entries below -TAU_ZERO are rejected and the rest
clipped to 0, and the mass (in total, or per kernel row) is within
``tau_mass`` of 1, never renormalized. The stored copy is read-only. A cost
table also rejects any entry below 0 and a diagonal entry above TAU_NUM.
Parts valid by construction go through ``_trusted``, which copies, scans
and clips nothing; only solver plans and ``cp_kernel`` rows keep a mass check.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyRelationError,
    GroundMismatchError,
    MetricCoverageError,
    UnknownLabelError,
    ValidationError,
)
from .tolerances import TAU_MASS, TAU_NUM, TAU_ZERO


def pair_label(a: str, b: str) -> str:
    """Canonical label for an ordered pair of labels.

    Rendered as a compact JSON array so arbitrary label strings stay
    unambiguous and recoverable: the text of ``json.dumps([a, b],
    separators=(",", ":"))``, formatted with the same string encoder
    without going through ``json.dumps``.
    """
    return "[" + encode_basestring_ascii(a) + "," + encode_basestring_ascii(b) + "]"


def _pair_labels(names, first, second) -> tuple[str, ...]:
    """``pair_label(names[i], names[j])`` for each i of ``first`` and j of
    ``second``, each name encoded once."""
    quoted = [encode_basestring_ascii(x) for x in names]
    return tuple("[" + quoted[i] + "," + quoted[j] + "]"
                 for i, j in zip(first, second))


def split_pair_label(label: str) -> tuple[str, str]:
    """Inverse of :func:`pair_label`."""
    try:
        parts = json.loads(label)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not a pair label: {label!r}") from exc
    if not isinstance(parts, list) or len(parts) != 2:
        raise ValidationError(f"not a pair label: {label!r}")
    return str(parts[0]), str(parts[1])


def _clean_ground(labels: Iterable[str]) -> tuple[str, ...]:
    ground = tuple(str(x) for x in labels)
    if not ground:
        raise ValidationError("ground set must be nonempty")
    if len(set(ground)) != len(ground):
        raise ValidationError("ground set contains duplicate labels")
    return ground


def _checked_array(
    values, shape: tuple[int, ...], what: str, tau_mass: float | None = None,
    rows: tuple[str, ...] | None = None,
) -> np.ndarray:
    """A read-only float copy of ``values`` under the validation rule; with
    ``rows``, the labels of the first axis, each row's mass is checked."""
    arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise DimensionMismatchError(f"{what}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what}: entries must be finite")
    if np.any(arr < -TAU_ZERO):
        raise ValidationError(f"{what}: negative entry {arr.min():g}")
    np.clip(arr, 0.0, None, out=arr)
    if tau_mass is not None:
        _check_mass(arr, what, tau_mass, rows)
    arr.setflags(write=False)
    return arr


def _check_mass(arr: np.ndarray, what: str, tau_mass: float,
                rows: tuple[str, ...] | None = None) -> None:
    """Raise unless ``arr`` sums to 1 within ``tau_mass``; with ``rows``,
    the labels of the first axis, each row must."""
    sums = arr.sum(axis=1).tolist() if rows is not None else [float(arr.sum())]
    for i, total in enumerate(sums):
        if abs(total - 1.0) > tau_mass:
            where = what if rows is None else f"{what} row {rows[i]!r}"
            raise ValidationError(f"mass {total:g} outside tolerance ({where})")


def _trusted(cls, fields: dict, array: str | None = None, what: str = "",
             rows: tuple[str, ...] | None = None):
    """An instance of the frozen class ``cls`` holding ``fields`` as given.

    For parts that are valid by construction: clean grounds, and arrays
    that are fresh (or views of read-only ones), of the grounds' shape,
    finite and nonnegative, so nothing is copied, scanned or clipped. With
    ``array``, the name of such a field, that array's mass is still checked
    at TAU_MASS (each row's, with ``rows``) and the array made read-only.
    """
    if array is not None:
        _check_mass(fields[array], what, TAU_MASS, rows)
        fields[array].setflags(write=False)
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class FiniteDistribution:
    """A probability distribution over an ordered finite ground set.

    Parameters
    ----------
    ground:
        Ordered labels. Must be nonempty and duplicate free.
    probs:
        Probabilities aligned with ``ground``. Entries must be nonnegative
        and sum to 1 within ``tau_mass``; off-mass inputs are rejected,
        never renormalized.
    """

    ground: tuple[str, ...]
    probs: np.ndarray
    tau_mass: InitVar[float] = TAU_MASS

    def __post_init__(self, tau_mass: float) -> None:
        ground = _clean_ground(self.ground)
        probs = _checked_array(self.probs, (len(ground),), "distribution", tau_mass)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(ground)})

    def index(self, label: str) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownLabelError(f"label {label!r} not in ground set") from None

    def __getitem__(self, label: str) -> float:
        return float(self.probs[self.index(label)])

    def __len__(self) -> int:
        return len(self.ground)

    def support(self) -> tuple[str, ...]:
        return tuple(x for x, p in zip(self.ground, self.probs) if p > TAU_ZERO)

    def support_indices(self) -> np.ndarray:
        return np.flatnonzero(self.probs > TAU_ZERO)

    def is_close(self, other: "FiniteDistribution", tol: float = TAU_NUM) -> bool:
        return self.ground == other.ground and bool(
            np.allclose(self.probs, other.probs, rtol=0.0, atol=tol)
        )

    def __repr__(self) -> str:
        pairs = ", ".join(f"{x}: {p:g}" for x, p in zip(self.ground, self.probs))
        return f"FiniteDistribution({pairs})"


def point_distribution(label: str, ground: Iterable[str]) -> FiniteDistribution:
    """The distribution placing all mass on ``label``."""
    ground = _clean_ground(ground)
    if label not in ground:
        raise UnknownLabelError(f"label {label!r} not in ground set")
    probs = np.zeros(len(ground))
    probs[ground.index(label)] = 1.0
    return FiniteDistribution(ground, probs)


def uniform_distribution(ground: Iterable[str]) -> FiniteDistribution:
    ground = _clean_ground(ground)
    return FiniteDistribution(ground, np.full(len(ground), 1.0 / len(ground)))


def event_probability(mu: FiniteDistribution, event: Iterable[str]) -> float:
    """Total mass of a set of labels. Duplicates in ``event`` are ignored."""
    seen = set()
    total = 0.0
    for label in event:
        label = str(label)
        if label in seen:
            continue
        seen.add(label)
        total += mu[label]
    return total


def product_distribution(
    left: FiniteDistribution, right: FiniteDistribution
) -> FiniteDistribution:
    """Independent product over the pair ground, row-major in ``left``."""
    ground = tuple(
        pair_label(a, b) for a in left.ground for b in right.ground
    )
    probs = np.outer(left.probs, right.probs).reshape(-1)
    return FiniteDistribution(ground, probs)


@dataclass(frozen=True, eq=False)
class StochasticKernel:
    """A row-stochastic map from an input ground to an output ground.

    ``matrix[i, j]`` is the probability of emitting ``outputs[j]`` on input
    ``inputs[i]``. Every row must sum to 1 within ``tau_mass``.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    matrix: np.ndarray
    tau_mass: InitVar[float] = TAU_MASS

    def __post_init__(self, tau_mass: float) -> None:
        inputs = _clean_ground(self.inputs)
        outputs = _clean_ground(self.outputs)
        matrix = _checked_array(
            self.matrix, (len(inputs), len(outputs)), "kernel", tau_mass, inputs
        )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_in_index", {x: i for i, x in enumerate(inputs)})

    @classmethod
    def _trusted(cls, inputs: tuple[str, ...], outputs: tuple[str, ...],
                 matrix: np.ndarray) -> "StochasticKernel":
        """A kernel built from validated parts; each row's mass is still
        checked (see ``_trusted``)."""
        return _trusted(cls, {"inputs": inputs, "outputs": outputs,
                              "matrix": matrix,
                              "_in_index": {x: i for i, x in enumerate(inputs)}},
                        "matrix", "kernel", inputs)

    def input_index(self, label: str) -> int:
        try:
            return self._in_index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownLabelError(f"input label {label!r} not in kernel") from None

    def row(self, label: str) -> FiniteDistribution:
        return self.row_by_index(self.input_index(label))

    def row_by_index(self, i: int) -> FiniteDistribution:
        return _distribution(self.outputs, self.matrix[i])

    @classmethod
    def identity(cls, ground: Iterable[str]) -> "StochasticKernel":
        ground = _clean_ground(ground)
        return cls(ground, ground, np.eye(len(ground)))

    @classmethod
    def constant(
        cls, inputs: Iterable[str], target: FiniteDistribution
    ) -> "StochasticKernel":
        inputs = _clean_ground(inputs)
        matrix = np.tile(target.probs, (len(inputs), 1))
        return cls(inputs, target.ground, matrix)

    def __repr__(self) -> str:
        return (
            f"StochasticKernel({len(self.inputs)} inputs -> "
            f"{len(self.outputs)} outputs)"
        )


@dataclass(frozen=True, eq=False)
class Coupling:
    """A joint distribution whose marginals couple two ground sets."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    mass: np.ndarray
    tau_mass: InitVar[float] = TAU_MASS

    def __post_init__(self, tau_mass: float) -> None:
        rows = _clean_ground(self.rows)
        cols = _clean_ground(self.cols)
        mass = _checked_array(self.mass, (len(rows), len(cols)), "coupling", tau_mass)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "mass", mass)

    @classmethod
    def _solved(cls, rows: tuple[str, ...], cols: tuple[str, ...],
                mass: np.ndarray) -> "Coupling":
        """A plan the solver built on two validated grounds (see ``_trusted``).
        Its total is still checked: the marginals may hold their mass to a
        looser tolerance than a coupling does."""
        return _trusted(cls, {"rows": rows, "cols": cols, "mass": mass},
                        "mass", "coupling")

    def row_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    def support(self) -> tuple[tuple[str, str], ...]:
        cells = np.argwhere(self.mass > TAU_ZERO)
        return tuple((self.rows[i], self.cols[j]) for i, j in cells)

    def __repr__(self) -> str:
        return f"Coupling({len(self.rows)}x{len(self.cols)})"


def validate_coupling(
    coupling: Coupling,
    lam: FiniteDistribution,
    mu: FiniteDistribution,
    tau_mass: float = TAU_MASS,
) -> bool:
    """True iff the coupling's marginals match ``lam`` and ``mu`` entrywise.

    Label sequences must agree exactly (an ordering mismatch is a hard
    error, not a False, because it almost always signals a wiring bug).
    """
    if coupling.rows != lam.ground or coupling.cols != mu.ground:
        raise DimensionMismatchError(
            "coupling labels do not match the marginal grounds"
        )
    rows_ok = np.all(np.abs(coupling.row_marginal() - lam.probs) <= tau_mass)
    cols_ok = np.all(np.abs(coupling.col_marginal() - mu.probs) <= tau_mass)
    return bool(rows_ok and cols_ok)


def lift(kernel: StochasticKernel, lam: FiniteDistribution) -> FiniteDistribution:
    """Push a distribution over inputs through a kernel.

    Returns the output distribution y -> sum_x lam[x] * kernel(x)[y]. The
    input ground must match the kernel's input ground exactly (same order).
    """
    return _distribution(kernel.outputs, _lifted_probs(kernel, lam))


def _distribution(ground: tuple[str, ...], probs: np.ndarray) -> FiniteDistribution:
    """A distribution of probabilities valid by construction, a kernel row
    or a lift, over a clean ground: read-only, its mass not checked again."""
    probs.setflags(write=False)
    return _trusted(FiniteDistribution, {
        "ground": ground, "probs": probs,
        "_index": {x: i for i, x in enumerate(ground)}})


def _lifted_probs(kernel: StochasticKernel, lam: FiniteDistribution) -> np.ndarray:
    """The probabilities of ``lift(kernel, lam)``, which are valid by
    construction and so are not checked again."""
    if lam.ground != kernel.inputs:
        raise GroundMismatchError(
            "distribution ground does not match kernel inputs"
        )
    return lam.probs @ kernel.matrix


@dataclass(frozen=True)
class PointRelation:
    """An adjacency relation between input labels: a set of ordered pairs.

    Pairs are kept in first-seen order with duplicates dropped, so audits
    that iterate the relation are deterministic.
    """

    pairs: tuple[tuple[str, str], ...]

    def __init__(self, pairs: Iterable[tuple[str, str]]):
        seen = set()
        cleaned = []
        for pair in pairs:
            a, b = pair
            key = (str(a), str(b))
            if key not in seen:
                seen.add(key)
                cleaned.append(key)
        object.__setattr__(self, "pairs", tuple(cleaned))
        object.__setattr__(self, "_members", frozenset(seen))

    @classmethod
    def full(cls, ground: Iterable[str], include_self: bool = False) -> "PointRelation":
        ground = _clean_ground(ground)
        return cls(
            (a, b)
            for a in ground
            for b in ground
            if include_self or a != b
        )

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair) -> bool:
        a, b = pair
        return (str(a), str(b)) in self._members  # type: ignore[attr-defined]


@dataclass(frozen=True, eq=False)
class _PairPlan:
    """Pairs of table rows to audit in both directions, and what every
    audit of them shares.

    Pair i, named ``labels[i]``, compares row ``left[i]`` of a table with
    row ``right[i]``. ``first[k] <= second[k]`` list every unordered row
    pair that the pairs name, each once, sorted, so that an audit
    evaluates each of them once; a kernel's memo would take them in any
    order. The row kernel evaluates each in both orders, ``first`` from
    ``second`` and back, and ``inverse`` maps the forward directions, then
    the backward ones, onto those values: the first orders of all the
    unordered pairs, then the second orders.
    """

    labels: tuple[str, ...]
    left: np.ndarray
    right: np.ndarray
    first: np.ndarray = field(init=False)
    second: np.ndarray = field(init=False)
    inverse: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        left = np.array(self.left, dtype=np.intp)
        right = np.array(self.right, dtype=np.intp)
        low, high = np.minimum(left, right), np.maximum(left, right)
        width = int(high.max()) + 1
        distinct, place = np.unique(low * width + high, return_inverse=True)
        swapped = (left > right) * len(distinct)
        inverse = np.concatenate([place + swapped,
                                  place + len(distinct) - swapped])
        columns = {"left": left, "right": right, "first": distinct // width,
                   "second": distinct % width, "inverse": inverse}
        for name, column in columns.items():
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "labels", tuple(self.labels))


def _kept(obj, key, build: Callable[[], object]):
    """What ``build()`` makes, kept on the frozen ``obj`` under ``key`` so
    that later calls reuse it: a relation's pair plans, a kernel's memo of
    row-pair divergences, a coupling mechanism's kernel family. A build
    that raises keeps nothing."""
    kept = obj.__dict__.setdefault("_kept", {})
    if key not in kept:
        kept[key] = build()
    return kept[key]


def _interned(dists: Iterable[FiniteDistribution]):
    """The distinct distributions of ``dists`` in order of first use, and
    the index of each entry among them. Two entries are one distribution
    when they have the same ground and bit-identical probabilities."""
    nodes: list[FiniteDistribution] = []
    ids: list[int] = []
    index: dict[tuple, int] = {}
    for dist in dists:
        key = (dist.ground, dist.probs.tobytes())
        if key not in index:
            index[key] = len(nodes)
            nodes.append(dist)
        ids.append(index[key])
    return nodes, ids


def _point_plan(phi: PointRelation, kernel: StochasticKernel) -> _PairPlan:
    """The pairs of ``phi`` as pairs of ``kernel`` rows, built once per
    input ground.

    Each distinct label is looked up once, the left members before the
    right ones, so a missing label is reported as looking up every left
    member and then every right member reports it.
    """
    if len(phi) == 0:
        raise EmptyRelationError("relation has no pairs")

    def build() -> _PairPlan:
        lefts = [a for a, _ in phi.pairs]
        rights = [b for _, b in phi.pairs]
        row = {x: kernel.input_index(x) for x in dict.fromkeys(lefts + rights)}
        return _PairPlan(tuple(map(pair_label, lefts, rights)),
                         [row[a] for a in lefts], [row[b] for b in rights])

    return _kept(phi, kernel.inputs, build)


@dataclass(frozen=True)
class DistributionPair:
    """One audited pair of input distributions, optionally tagged with
    auxiliary values naming which kernel serves each side."""

    left: FiniteDistribution
    right: FiniteDistribution
    aux: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        if self.left.ground != self.right.ground:
            raise GroundMismatchError("pair members must share a ground set")
        if self.aux is not None:
            object.__setattr__(self, "aux", (str(self.aux[0]), str(self.aux[1])))


@dataclass(frozen=True)
class DistributionPairRelation:
    """An adjacency relation between input distributions."""

    pairs: tuple[DistributionPair, ...]

    def __init__(self, pairs: Iterable):
        cleaned = []
        for pair in pairs:
            if isinstance(pair, DistributionPair):
                cleaned.append(pair)
            else:
                left, right = pair
                cleaned.append(DistributionPair(left, right))
        object.__setattr__(self, "pairs", tuple(cleaned))

    @classmethod
    def from_point_relation(
        cls, phi: PointRelation, ground: Iterable[str]
    ) -> "DistributionPairRelation":
        """Point-mass pairs (one per arc), the embedding of a label relation."""
        ground = _clean_ground(ground)
        return cls(
            DistributionPair(
                point_distribution(a, ground), point_distribution(b, ground)
            )
            for a, b in phi
        )

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


# The triangle check's buffers hold this many cells: below the 128 KiB at
# which glibc maps an allocation afresh, so a check faults in no memory once
# the heap has grown to hold them.
_TRIANGLE_CELLS = 1 << 13


@dataclass(frozen=True, eq=False)
class GroundMetric:
    """A nonnegative cost table over a ground set with zero diagonal.

    Symmetry and the triangle inequality are not enforced; they are
    checkable via :meth:`is_symmetric` and :meth:`satisfies_triangle`.
    """

    ground: tuple[str, ...]
    cost: np.ndarray

    def __post_init__(self) -> None:
        ground = _clean_ground(self.ground)
        given = np.asarray(self.cost, dtype=float)
        cost = _checked_array(given, (len(ground), len(ground)), "cost")
        if np.any(given < 0.0):
            raise ValidationError(f"cost: negative entry {given.min():g}")
        if np.any(np.diagonal(cost) > TAU_NUM):
            raise ValidationError("cost diagonal must be zero")
        cost.setflags(write=True)
        np.fill_diagonal(cost, 0.0)
        cost.setflags(write=False)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(ground)})

    def index(self, label: str) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise MetricCoverageError(f"label {label!r} not in metric ground") from None

    def distance(self, a: str, b: str) -> float:
        return float(self.cost[self.index(a), self.index(b)])

    def submatrix(self, rows: Iterable[str], cols: Iterable[str]) -> np.ndarray:
        """Cost block for the given row/column labels (must all be present)."""
        r = [self.index(x) for x in rows]
        c = [self.index(x) for x in cols]
        return self.cost[np.ix_(r, c)]

    def is_symmetric(self, tol: float = TAU_NUM) -> bool:
        return bool(np.all(np.abs(self.cost - self.cost.T) <= tol))

    def satisfies_triangle(self, tol: float = TAU_NUM) -> bool:
        c = self.cost
        n = len(c)
        # require c[i, k] <= c[i, j] + c[j, k] + tol, for a block of middles
        # j per pass: slab jj of ``via`` holds the sums through middle
        # j + jj. A block fills _TRIANGLE_CELLS cells, or is one middle (n^2
        # cells) where that is more.
        step = min(n, max(1, _TRIANGLE_CELLS // (n * n)))
        into = c.T.copy()  # into[j, i] = c[i, j]
        via = np.empty((step, n, n))
        within = np.empty((step, n, n), dtype=bool)
        for j in range(0, n, step):
            k = min(step, n - j)
            sums = np.add(into[j:j + k, :, None], c[j:j + k, None, :],
                          out=via[:k])
            sums += tol
            if not np.less_equal(c, sums, out=within[:k]).all():
                return False
        return True

    @classmethod
    def line(
        cls, ground: Iterable[str], positions: Iterable[float] | None = None
    ) -> "GroundMetric":
        """Absolute-difference costs for labels placed on a line.

        Defaults to unit spacing in ground order.
        """
        ground = _clean_ground(ground)
        if positions is None:
            pos = np.arange(len(ground), dtype=float)
        else:
            pos = np.array(list(positions), dtype=float)
            if pos.shape != (len(ground),):
                raise DimensionMismatchError(
                    "positions must match ground size"
                )
        cost = np.abs(pos[:, None] - pos[None, :])
        return cls(ground, cost)

    @classmethod
    def discrete(cls, ground: Iterable[str]) -> "GroundMetric":
        """0/1 costs: zero on the diagonal, one elsewhere."""
        ground = _clean_ground(ground)
        n = len(ground)
        return cls(ground, np.ones((n, n)) - np.eye(n))

    @classmethod
    def from_mapping(
        cls, ground: Iterable[str], entries: Mapping[tuple[str, str], float]
    ) -> "GroundMetric":
        ground = _clean_ground(ground)
        n = len(ground)
        cost = np.zeros((n, n))
        idx = {x: i for i, x in enumerate(ground)}
        try:
            for (a, b), value in entries.items():
                cost[idx[str(a)], idx[str(b)]] = value
        except KeyError as exc:
            raise UnknownLabelError(
                f"label {exc.args[0]!r} not in metric ground") from None
        return cls(ground, cost)
