"""File formats: JSON objects for domain types, CSV for costs and labels.

JSON layouts:
    distribution  {"ground": [...], "probs": [...]}
    kernel        {"inputs": [...], "outputs": [...], "rows": [[...], ...]}
    coupling      {"rows": [...], "cols": [...], "mass": [[...], ...]}
    mechanism spec
                  {"target": dist, "aux": [{"s", "approx_input", "coupling"}],
                   "fallback": "error" | "sample_target"}
    relation      [[a, b], ...], one pair or more, where each element is a
                  label, a distribution object, or {"aux": s, "dist": dist}
    inputs map    {s: dist, ...}, an estimated input per auxiliary value s
    couplings map {s: coupling, ...}
    second stage  a kernel, or {"branches": {y: kernel, ...}}, a kernel per
                  first-stage output y

Labels (grounds, s, aux, bare relation labels) are JSON strings or numbers,
a number read as its text. Cost matrices are CSV: a header row of labels,
then a square numeric matrix. Data points are CSV with header "x", one
label per line. Each input file is read, parsed and checked by one loader
here; any failure of the file raises a ``DistpError`` naming it first.

Loaders ignore unknown keys so reports that embed extra context stay
loadable. Serialized floats that are infinite become the strings "inf" /
"-inf"; the cost-matrix loader reverses that.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
from types import SimpleNamespace
from typing import Any

import numpy as np

from . import audit, mechanisms
from .errors import DistpError, EmptyRelationError, ValidationError
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


@contextlib.contextmanager
def _naming(path: str):
    """Run the read, parse or checks of the file ``path``, re-raising any
    failure of it with a message that starts ``<path>: ``."""
    try:
        yield
    except DistpError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: {exc}") from None
    except ValueError:  # an integer past the limit on its digits
        raise ValidationError(f"{path}: an integer has too many digits") from None
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply") from None


def load_json(path: str) -> Any:
    """The parsed JSON in ``path``."""
    with open(path, "r", encoding="utf-8") as fh, _naming(path):
        return json.load(fh)


def _load(path: str, parse, *args):
    """``parse(data, *args)`` of the JSON ``data`` in ``path``."""
    data = load_json(path)
    with _naming(path):
        return parse(data, *args)


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


def _labels(values: list | tuple, what: str,
            expected: str = "a string or a number") -> tuple[str, ...]:
    """``values``, each a JSON string or number, as label strings."""
    return tuple(map(str, _typed(values, {str, int, float}, what, expected)))


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
    labels = [_labels(_array(data[key], f"{what} {key!r}"), f"{what} {key!r}")
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


def load_distribution(path: str, tau_mass: float = TAU_MASS) -> FiniteDistribution:
    return _load(path, distribution_from_dict, tau_mass)


def kernel_to_dict(kernel: StochasticKernel) -> dict:
    return {
        "inputs": list(kernel.inputs),
        "outputs": list(kernel.outputs),
        "rows": kernel.matrix.tolist(),
    }


def kernel_from_dict(data: Any, tau_mass: float = TAU_MASS) -> StochasticKernel:
    inputs, outputs, rows = _parsed(data, "kernel", ("inputs", "outputs", "rows"))
    return StochasticKernel(inputs, outputs, rows, tau_mass)


def load_kernel(path: str, tau_mass: float = TAU_MASS) -> StochasticKernel:
    return _load(path, kernel_from_dict, tau_mass)


def _object_map(data: Any, parse, tau_mass: float, message: str) -> dict:
    """``parse`` applied to every value of a nonempty JSON object."""
    if not isinstance(data, dict) or not data:
        raise ValidationError(message)
    return {key: parse(obj, tau_mass) for key, obj in data.items()}


def load_second_stage(path: str, tau_mass: float = TAU_MASS):
    """A kernel, or a ``KernelFamily`` from a ``branches`` object."""
    data = load_json(path)
    with _naming(path):
        if isinstance(data, dict) and "branches" in data:
            return mechanisms.KernelFamily(_object_map(
                data["branches"], kernel_from_dict, tau_mass,
                "'branches' must map first-stage outputs to kernel objects"))
        return kernel_from_dict(data, tau_mass)


def coupling_to_dict(coupling: Coupling) -> dict:
    return {
        "rows": list(coupling.rows),
        "cols": list(coupling.cols),
        "mass": coupling.mass.tolist(),
    }


def coupling_from_dict(data: Any, tau_mass: float = TAU_MASS) -> Coupling:
    rows, cols, mass = _parsed(data, "coupling", ("rows", "cols", "mass"))
    return Coupling(rows, cols, mass, tau_mass)


def load_inputs(path: str, tau_mass: float = TAU_MASS) -> dict:
    """An estimated input distribution per auxiliary value."""
    return _load(path, _object_map, distribution_from_dict, tau_mass,
                 "--inputs file must map auxiliary values to distributions")


def load_couplings(path: str, tau_mass: float = TAU_MASS) -> dict:
    """A coupling per auxiliary value."""
    return _load(path, _object_map, coupling_from_dict, tau_mass,
                 "--couplings file must map auxiliary values to couplings")


def cp_spec_to_dict(spec: mechanisms.CouplingMechanismSpec) -> dict:
    aux = [{"s": entry.s,
            "approx_input": distribution_to_dict(entry.approx_input),
            "coupling": coupling_to_dict(entry.coupling)}
           for entry in spec.entries]
    return {"target": distribution_to_dict(spec.target), "aux": aux,
            "fallback": spec.fallback}


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
                "each aux entry needs 's', 'approx_input', 'coupling'")
        (s,) = _labels([item["s"]], "aux entry 's'")
        entries.append(mechanisms.CouplingEntry(
            s, distribution_from_dict(item["approx_input"], tau_mass),
            coupling_from_dict(item["coupling"], tau_mass)))
    return mechanisms.CouplingMechanismSpec(
        distribution_from_dict(data["target"], tau_mass), tuple(entries),
        str(data.get("fallback", "error")), tau_mass)


def load_mechanism(
    path: str, tau_mass: float = TAU_MASS
) -> StochasticKernel | mechanisms.CouplingMechanismSpec:
    """Read a mechanism file, accepting either layout."""
    data = load_json(path)
    with _naming(path):
        if isinstance(data, dict) and "rows" in data and "inputs" in data:
            return kernel_from_dict(data, tau_mass)
        if isinstance(data, dict) and "target" in data and "aux" in data:
            return cp_spec_from_dict(data, tau_mass)
        raise ValidationError("not a kernel (inputs/outputs/rows) or a "
                              "mechanism spec (target/aux)")


def _pair_side(item: Any, tau_mass: float):
    """A distribution relation's entry side: a distribution object, or
    ``{"aux": s, "dist": dist}``; returns the distribution and ``s``."""
    if not isinstance(item, dict):
        _labels([item], "relation entry", "a label or a distribution object")
        raise ValidationError(
            "relation mixes labels and distributions; use one form per file")
    if "dist" not in item:
        return distribution_from_dict(item, tau_mass), None
    aux = _labels([item["aux"]], "relation 'aux'")[0] if "aux" in item else None
    return distribution_from_dict(item["dist"], tau_mass), aux


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
    if not data:
        raise EmptyRelationError("relation has no pairs")
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in data):
        raise ValidationError("each relation entry must be a 2-element array")
    if not any(isinstance(item, dict) for pair in data for item in pair):
        return PointRelation(_labels(pair, "relation entry", "a label or a "
                                     "distribution object") for pair in data)
    pairs = []
    for a, b in data:
        (da, sa), (db, sb) = _pair_side(a, tau_mass), _pair_side(b, tau_mass)
        aux = (sa, sb) if sa is not None and sb is not None else None
        pairs.append(DistributionPair(da, db, aux))
    return DistributionPairRelation(pairs)


def load_relation(path: str, tau_mass: float = TAU_MASS):
    return _load(path, relation_from_obj, tau_mass)


def metric_from_csv(path: str) -> GroundMetric:
    with open(path, "r", encoding="utf-8", newline="") as fh, _naming(path):
        rows = [row for row in csv.reader(fh) if any(map(str.strip, row))]
        if not rows:
            raise ValidationError("empty cost matrix file")
        labels = tuple(cell.strip() for cell in rows[0])
        body = rows[1:]
        if len(body) != len(labels):
            raise ValidationError(
                f"expected {len(labels)} matrix rows, found {len(body)}")
        cost = []
        for row in body:
            if len(row) != len(labels):
                raise ValidationError(f"ragged cost matrix row {row!r}")
            cost.append([_as_float(cell.strip(), "cost") for cell in row])
        return GroundMetric(labels, np.array(cost))


def load_labels_csv(path: str, header: str = "x") -> list[str]:
    """Read a one-column CSV of labels with the given header.

    Blank lines are skipped; every other line after the header must hold
    exactly one label."""
    with open(path, "r", encoding="utf-8", newline="") as fh, _naming(path):
        rows = [row for row in csv.reader(fh) if row]
        if not rows or rows[0][0].strip() != header:
            raise ValidationError(f"expected a CSV with header {header!r}")
        try:
            return [label for (label,) in itertools.islice(rows, 1, None)]
        except ValueError:
            raise ValidationError("expected one label per line") from None


def audit_to_csv(report: audit.AuditReport, tau_num: float) -> str:
    """One row per pair, as the report's JSON lists it. A float cell reads
    as its JSON token does (``str`` of an infinity is ``inf``); a missing
    bound and verdict are empty."""
    bound = "" if report.claimed_eps is None else jsonable(report.claimed_eps)
    verdict = {True: "true", False: "false", None: ""}
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    return writer.writerow(audit._PAIR_FIELDS) + "".join(
        writer.writerow((*row[:4], bound, verdict[row[5]]))
        for row in report._rows(tau_num))


def labels_to_csv(labels: list[str], header: str = "y") -> str:
    """One-column CSV under ``header``. ``writerow`` returns what the file's
    ``write`` returns, here the line itself, so each label is formatted once."""
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    line = {label: writer.writerow([label]) for label in {header, *labels}}
    return line[header] + "".join(map(line.__getitem__, labels))
