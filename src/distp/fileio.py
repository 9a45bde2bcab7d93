"""File formats: JSON objects for domain types, CSV for costs and labels.

JSON layouts:
    distribution  {"ground": [...], "probs": [...]}
    kernel        {"inputs": [...], "outputs": [...], "rows": [[...], ...]}
    coupling      {"rows": [...], "cols": [...], "mass": [[...], ...]}
    mechanism spec
                  {"target": dist, "aux": [{"s", "approx_input", "coupling"}],
                   "fallback": "error" | "sample_target"}
    relation      [[a, b], ...] where each element is a label, a
                  distribution object, or {"aux": s, "dist": dist}

Cost matrices are CSV: a header row of labels, then a square numeric
matrix. Data points are CSV with header "x", one label per line.

Loaders ignore unknown keys so reports that embed extra context stay
loadable. Serialized floats that are infinite become the strings "inf" /
"-inf"; the cost-matrix loader reverses that.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from types import SimpleNamespace
from typing import Any

import numpy as np

from . import mechanisms
from .errors import ValidationError
from .tolerances import TAU_MASS
from .finite_prob import (
    Coupling,
    DistributionPair,
    DistributionPairRelation,
    FiniteDistribution,
    GroundMetric,
    PointRelation,
    StochasticKernel,
)


def jsonable(value: Any) -> Any:
    """Recursively convert to plain JSON values; infinities become tokens."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            raise ValidationError("cannot serialize NaN")
        return value
    return value


def _as_float(value: Any, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what}: expected a number, got {value!r}") from None


def dumps_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, newline."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


def load_json(path: str) -> Any:
    """The parsed JSON in ``path``. Bytes that are not UTF-8, an integer past
    the digit limit and nesting past the recursion limit fail naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        except ValueError:  # an integer past the limit on its digits
            raise ValidationError(f"{path}: an integer has too many digits") from None
        except RecursionError:
            raise ValidationError(f"{path}: JSON nested too deeply") from None


def _array(value: Any, what: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a JSON array, got {value!r}")
    return value


def _typed(values: list | tuple, types: set, what: str, expected: str):
    """``values``, if each one's type is in ``types`` (``bool`` is not ``int``)."""
    if not types.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in types)
        raise ValidationError(f"{what}: expected {expected}, got {bad!r}")
    return values


def _parsed(data: Any, what: str, keys: tuple[str, ...]) -> list:
    """The loaders' shared step: check that ``data`` is an object with every
    key in ``keys``, each holding an array. Returns the label lists, whose
    labels are JSON strings or numbers, as string tuples, then the last key's
    JSON numbers as an array (a list for one label list, rows for two)."""
    if not isinstance(data, dict) or not set(keys).issubset(data):
        raise ValidationError(f"{what} object needs {', '.join(map(repr, keys))}")
    *grounds, values = keys
    numbers = _array(data[values], f"{what} {values!r}")
    rows = ([_array(row, f"{what} {values!r} row") for row in numbers]
            if len(grounds) > 1 else [numbers])
    for row in rows:
        _typed(row, {int, float}, values, "a number")
    if len(set(map(len, rows))) > 1:
        raise ValidationError(f"{what} {values!r} rows differ in length")
    labels = [tuple(map(str, _typed(_array(data[key], f"{what} {key!r}"),
                                    {str, int, float}, f"{what} {key!r}",
                                    "a string or a number")))
              for key in grounds]
    try:
        return labels + [np.array(numbers, dtype=float)]
    except OverflowError:  # a JSON integer too large for a float
        raise ValidationError(
            f"{what} {values!r}: entries must be finite, got an integer too "
            "large for a float") from None


def distribution_to_dict(dist: FiniteDistribution) -> dict:
    return {"ground": list(dist.ground), "probs": dist.probs.tolist()}


def distribution_from_dict(
    data: Any, tau_mass: float = TAU_MASS
) -> FiniteDistribution:
    ground, probs = _parsed(data, "distribution", ("ground", "probs"))
    return FiniteDistribution(ground, probs, tau_mass)


def kernel_to_dict(kernel: StochasticKernel) -> dict:
    return {
        "inputs": list(kernel.inputs),
        "outputs": list(kernel.outputs),
        "rows": kernel.matrix.tolist(),
    }


def kernel_from_dict(data: Any, tau_mass: float = TAU_MASS) -> StochasticKernel:
    inputs, outputs, rows = _parsed(data, "kernel", ("inputs", "outputs", "rows"))
    return StochasticKernel(inputs, outputs, rows, tau_mass)


def coupling_to_dict(coupling: Coupling) -> dict:
    return {
        "rows": list(coupling.rows),
        "cols": list(coupling.cols),
        "mass": coupling.mass.tolist(),
    }


def coupling_from_dict(data: Any, tau_mass: float = TAU_MASS) -> Coupling:
    rows, cols, mass = _parsed(data, "coupling", ("rows", "cols", "mass"))
    return Coupling(rows, cols, mass, tau_mass)


def cp_spec_to_dict(spec: mechanisms.CouplingMechanismSpec) -> dict:
    return {
        "target": distribution_to_dict(spec.target),
        "aux": [
            {
                "s": entry.s,
                "approx_input": distribution_to_dict(entry.approx_input),
                "coupling": coupling_to_dict(entry.coupling),
            }
            for entry in spec.entries
        ],
        "fallback": spec.fallback,
    }


def cp_spec_from_dict(
    data: Any, tau_mass: float = TAU_MASS
) -> mechanisms.CouplingMechanismSpec:
    if not isinstance(data, dict) or "target" not in data or "aux" not in data:
        raise ValidationError("mechanism spec needs 'target' and 'aux'")
    entries = []
    for item in _array(data["aux"], "mechanism spec 'aux'"):
        if not (isinstance(item, dict)
                and {"s", "approx_input", "coupling"}.issubset(item)):
            raise ValidationError(
                "each aux entry needs 's', 'approx_input', 'coupling'"
            )
        entries.append(
            mechanisms.CouplingEntry(
                str(item["s"]),
                distribution_from_dict(item["approx_input"], tau_mass),
                coupling_from_dict(item["coupling"], tau_mass),
            )
        )
    return mechanisms.CouplingMechanismSpec(
        distribution_from_dict(data["target"], tau_mass),
        tuple(entries),
        str(data.get("fallback", "error")),
        tau_mass,
    )


def load_mechanism(
    path: str, tau_mass: float = TAU_MASS
) -> StochasticKernel | mechanisms.CouplingMechanismSpec:
    """Read a mechanism file, accepting either layout."""
    data = load_json(path)
    if isinstance(data, dict) and "rows" in data and "inputs" in data:
        return kernel_from_dict(data, tau_mass)
    if isinstance(data, dict) and "target" in data and "aux" in data:
        return cp_spec_from_dict(data, tau_mass)
    raise ValidationError(
        f"{path}: not a kernel (inputs/outputs/rows) or a mechanism spec "
        "(target/aux)"
    )


def _pair_side(item: Any, tau_mass: float):
    """One relation entry side: label, distribution, or aux-tagged dist."""
    if isinstance(item, str):
        return item, None, None
    if isinstance(item, dict) and "dist" in item:
        aux = str(item["aux"]) if "aux" in item else None
        return None, distribution_from_dict(item["dist"], tau_mass), aux
    if isinstance(item, dict):
        return None, distribution_from_dict(item, tau_mass), None
    raise ValidationError(f"relation entry {item!r} is not a label or distribution")


def relation_from_obj(
    data: Any, tau_mass: float = TAU_MASS
) -> PointRelation | DistributionPairRelation:
    """Parse a relation file body.

    A list whose pairs are all plain labels parses as a point relation;
    anything with distribution objects parses as a distribution relation
    (labels are not mixed with distributions inside one file).
    """
    if not isinstance(data, list):
        raise ValidationError("relation file must be a JSON list of pairs")
    sides = []
    for pair in data:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValidationError("each relation entry must be a 2-element array")
        sides.append((_pair_side(pair[0], tau_mass), _pair_side(pair[1], tau_mass)))
    if all(a[0] is not None and b[0] is not None for a, b in sides):
        return PointRelation((a[0], b[0]) for a, b in sides)
    pairs = []
    for (la, da, sa), (lb, db, sb) in sides:
        if da is None or db is None:
            raise ValidationError(
                "relation mixes labels and distributions; use one form per file"
            )
        aux = (sa, sb) if sa is not None and sb is not None else None
        pairs.append(DistributionPair(da, db, aux))
    return DistributionPairRelation(pairs)


def metric_from_csv(path: str) -> GroundMetric:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = [row for row in csv.reader(fh) if any(map(str.strip, row))]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"{path}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: empty cost matrix file")
    labels = tuple(cell.strip() for cell in rows[0])
    body = rows[1:]
    if len(body) != len(labels):
        raise ValidationError(
            f"{path}: expected {len(labels)} matrix rows, found {len(body)}"
        )
    cost = []
    for row in body:
        if len(row) != len(labels):
            raise ValidationError(f"{path}: ragged cost matrix row {row!r}")
        cost.append([_as_float(cell.strip(), "cost") for cell in row])
    return GroundMetric(labels, np.array(cost))


def load_labels_csv(path: str, header: str = "x") -> list[str]:
    """Read a one-column CSV of labels with the given header.

    Blank lines are skipped; every other line after the header must hold
    exactly one label."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = [row for row in csv.reader(fh) if row]
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"{path}: {exc}") from None
    if not rows or rows[0][0].strip() != header:
        raise ValidationError(f"{path}: expected a CSV with header {header!r}")
    try:
        return [label for (label,) in itertools.islice(rows, 1, None)]
    except ValueError:
        raise ValidationError(f"{path}: expected one label per line") from None


def labels_to_csv(labels: list[str], header: str = "y") -> str:
    """One-column CSV under ``header``. ``writerow`` returns what the file's
    ``write`` returns, here the line itself, so each label is formatted once."""
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    line = {label: writer.writerow([label]) for label in {header, *labels}}
    return line[header] + "".join(map(line.__getitem__, labels))
