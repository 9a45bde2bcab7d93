"""Command-line interface.

Subcommands: divergence, emd, couple, couple-mech, obfuscate, audit,
compose. JSON reports go to stdout with a "config" block echoing the seed,
tolerance overrides, and tool version, so runs are self-describing and
reproducible. Exit codes: 0 success (audit verdict pass), 2 audit verdict
fail, 1 error.

Arguments are parsed before numpy or any numpy module of distp loads:
this module imports only the standard library, ``errors``, ``tolerances``
and the package's lazy submodules, and each handler reaches the library
through a module attribute (``fileio.load_json``, ``transport.emd``), so
a module executes when a handler first touches it. ``--version``,
``--help`` and usage errors therefore cost an interpreter start and
argparse. The library modules each handler executes:

    obfuscate on a kernel, compose     finite_prob, mechanisms, fileio
    obfuscate on a spec, couple-mech   those three and transport
    emd, couple                        finite_prob, transport, fileio
    divergence                         finite_prob, divergences, fileio
    audit                              all six
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import namedtuple

from . import (
    __version__,
    audit,
    divergences,
    fileio,
    finite_prob,
    mechanisms,
    transport,
)
from .errors import DistpError, ValidationError
from .tolerances import DEFAULT_SEED, TAU_MASS, TAU_NUM

# divergences.KIND_BY_NAME, spelled out so that parsing loads no numpy
DIVERGENCE_CHOICES = ("kl", "rkl", "tv", "chi2", "hellinger", "max",
                      "max-delta")


class RunConfig(namedtuple("RunConfig",
                           ("seed", "tau_mass", "tau_num", "format"))):
    """Settings echoed into every JSON report."""

    def to_dict(self) -> dict:
        return {**self._asdict(), "tool_version": __version__}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(message)


def _write(text: str, out: str | None = None) -> None:
    """Write ``text`` to stdout, and first to the file ``out`` if given."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _emit(payload: dict, config: RunConfig, out: str | None = None) -> None:
    _write(fileio.dumps_json({"config": config.to_dict(), **payload}), out)


def _load_distribution(path: str, tau_mass: float):
    return fileio.distribution_from_dict(fileio.load_json(path), tau_mass)


def _resolve_divergence(args):
    if args.divergence == "max":
        return divergences.MaxDivergence(0.0)
    if args.divergence == "max-delta":
        if args.delta is None:
            raise ValidationError("divergence 'max-delta' needs --delta")
        return divergences.MaxDivergence(args.delta)
    return divergences.KIND_BY_NAME[args.divergence]


def cmd_divergence(args, cfg: RunConfig) -> int:
    lhs = _load_distribution(args.lhs, cfg.tau_mass)
    rhs = _load_distribution(args.rhs, cfg.tau_mass)
    divergence = _resolve_divergence(args)
    value = divergences.divergence_value(divergence, lhs, rhs)
    _emit({"kind": divergence.name, "value": value}, cfg)
    return 0


def cmd_emd(args, cfg: RunConfig) -> int:
    lhs = _load_distribution(args.lhs, cfg.tau_mass)
    rhs = _load_distribution(args.rhs, cfg.tau_mass)
    metric = fileio.metric_from_csv(args.cost)
    order = "inf" if args.inf else 1.0 if args.p is None else args.p
    result = transport._wasserstein(lhs, rhs, metric, order)
    payload = {
        "order": order,
        "cost": result.cost,
        "coupling": fileio.coupling_to_dict(result.coupling),
    }
    _emit(payload, cfg)
    return 0


def cmd_couple(args, cfg: RunConfig) -> int:
    lhs = _load_distribution(args.lhs, cfg.tau_mass)
    rhs = _load_distribution(args.rhs, cfg.tau_mass)
    metric = fileio.metric_from_csv(args.cost) if args.cost else None
    if args.northwest:
        coupling = transport.northwest_corner(lhs, rhs)
        cost = transport.coupling_cost(coupling, metric) if metric else None
    else:
        if metric is None:
            raise ValidationError("provide --cost for an optimal coupling "
                                  "or pass --northwest")
        result = transport.emd(lhs, rhs, metric)
        coupling, cost = result.coupling, result.cost
    _emit({"cost": cost, "coupling": fileio.coupling_to_dict(coupling)}, cfg)
    return 0


def _object_map(data, load, tau_mass: float, message: str) -> dict:
    """``load`` applied to every value of a JSON object, keyed by string."""
    if not isinstance(data, dict):
        raise ValidationError(message)
    return {str(key): load(obj, tau_mass) for key, obj in data.items()}


def cmd_couple_mech(args, cfg: RunConfig) -> int:
    target = _load_distribution(args.target, cfg.tau_mass)
    approx = _object_map(fileio.load_json(args.inputs),
                         fileio.distribution_from_dict, cfg.tau_mass,
                         "--inputs file must map auxiliary values "
                         "to distribution objects")
    metric = fileio.metric_from_csv(args.cost) if args.cost else None
    couplings = None
    if args.couplings:
        couplings = _object_map(fileio.load_json(args.couplings),
                                fileio.coupling_from_dict, cfg.tau_mass,
                                "--couplings file must map "
                                "auxiliary values to coupling objects")
    spec = mechanisms.build_coupling_mechanism(
        target,
        approx,
        args.mode,
        metric=metric,
        couplings=couplings,
        fallback=args.fallback,
    )
    _emit(fileio.cp_spec_to_dict(spec), cfg, args.out)
    return 0


def cmd_obfuscate(args, cfg: RunConfig) -> int:
    import numpy as np

    mechanism = fileio.load_mechanism(args.mech, cfg.tau_mass)
    if isinstance(mechanism, mechanisms.CouplingMechanismSpec):
        if args.aux is None:
            raise ValidationError("mechanism spec needs --aux to pick a kernel")
        kernel = mechanisms.cp_kernel(mechanism, args.aux)
    else:
        if args.aux is not None:
            raise ValidationError("--aux only applies to mechanism spec files")
        kernel = mechanism
    labels = fileio.load_labels_csv(args.data, header="x")
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    outputs = mechanisms.sample_outputs(kernel, labels, rng)
    _write(fileio.labels_to_csv(outputs, header="y"), args.out)
    return 0


def _audit_csv(report: audit.AuditReport, tau_num: float) -> str:
    """One row per pair, as the report's JSON lists it. A float cell reads
    as its JSON token does (``str`` of an infinity is ``inf``); a missing
    bound and verdict are empty."""
    bound = "" if report.claimed_eps is None else fileio.jsonable(report.claimed_eps)
    verdict = {True: "true", False: "false", None: ""}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(audit._PAIR_FIELDS)
    writer.writerows((*row[:4], bound, verdict[row[5]])
                     for row in report._rows(tau_num))
    return buf.getvalue()


def cmd_audit(args, cfg: RunConfig) -> int:
    mechanism = fileio.load_mechanism(args.mech, cfg.tau_mass)
    relation = fileio.relation_from_obj(fileio.load_json(args.relation),
                                        cfg.tau_mass)
    divergence = _resolve_divergence(args)
    metric = fileio.metric_from_csv(args.metric) if args.metric else None

    if isinstance(relation, finite_prob.PointRelation):
        if args.wasserstein is not None:
            raise ValidationError(
                "--wasserstein needs a relation over distributions"
            )
        if isinstance(mechanism, mechanisms.CouplingMechanismSpec):
            # a spec picks its kernel per auxiliary value, so its label
            # pairs are audited as pairs of point masses, whose W1 under
            # a metric is the label distance
            ground = mechanism.entries[0].approx_input.ground
            relation = finite_prob.DistributionPairRelation.from_point_relation(
                relation, ground)
    options = {"claimed_eps": args.claimed_eps}
    if metric is not None:
        options["metric"] = metric
    if isinstance(relation, finite_prob.PointRelation):
        auditor = audit.audit_div_dp if metric is None else audit.audit_div_xdp
    elif metric is None:
        auditor = audit.audit_distp
    else:
        auditor = audit.audit_xdistp
        options["wasserstein"] = args.wasserstein or "1"
    report = auditor(mechanism, relation, divergence=divergence, **options)

    if cfg.format == "csv":
        _write(_audit_csv(report, cfg.tau_num))
    else:
        _emit(report.to_dict(tau_num=cfg.tau_num), cfg)
    return 0 if report._passed(cfg.tau_num) else 2


def _load_second_stage(path: str, tau_mass: float):
    data = fileio.load_json(path)
    if isinstance(data, dict) and "branches" in data:
        return mechanisms.KernelFamily(_object_map(
            data["branches"], fileio.kernel_from_dict, tau_mass,
            "'branches' must map first-stage outputs to kernel objects",
        ))
    return fileio.kernel_from_dict(data, tau_mass)


def cmd_compose(args, cfg: RunConfig) -> int:
    first = fileio.kernel_from_dict(fileio.load_json(args.first), cfg.tau_mass)
    if args.op == "post":
        second = fileio.kernel_from_dict(fileio.load_json(args.second),
                                         cfg.tau_mass)
        composed = mechanisms.post_process(first, second)
    else:
        second = _load_second_stage(args.second, cfg.tau_mass)
        combine = (mechanisms.seq_compose if args.op == "seq"
                   else mechanisms.liftseq_compose)
        composed = combine(first, second, marginalize=args.marginalize)
    _emit(fileio.kernel_to_dict(composed), cfg)
    return 0


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="random seed echoed in reports (default %(default)s)")
    sub.add_argument("--tau-mass", type=float, default=TAU_MASS,
                     help="probability mass tolerance for loaded objects")
    sub.add_argument("--tau-num", type=float, default=TAU_NUM,
                     help="numeric comparison tolerance for verdicts")


def _divergence_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--divergence", required=True, choices=DIVERGENCE_CHOICES,
                     help="divergence kind")
    sub.add_argument("--delta", type=float, default=None,
                     help="slack for the max-delta divergence")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="distp",
                     description="Distribution privacy toolkit: divergences, "
                                 "optimal transport, mechanisms, audits.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", metavar="command")

    p = subs.add_parser("divergence", help="divergence between two distributions")
    p.add_argument("--lhs", required=True, help="left distribution JSON file")
    p.add_argument("--rhs", required=True, help="right distribution JSON file")
    _divergence_flags(p)
    _common_flags(p)
    p.set_defaults(func=cmd_divergence)

    p = subs.add_parser("emd", help="Wasserstein distance and optimal coupling")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--cost", required=True, help="cost matrix CSV file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("-p", type=float, default=None,
                       help="Wasserstein order (default 1)")
    group.add_argument("--inf", action="store_true",
                       help="infinity-order (bottleneck) distance")
    _common_flags(p)
    p.set_defaults(func=cmd_emd)

    p = subs.add_parser("couple", help="build a coupling of two distributions")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--cost", default=None, help="cost matrix CSV file")
    p.add_argument("--northwest", action="store_true",
                   help="staircase coupling instead of a cost-optimal one")
    _common_flags(p)
    p.set_defaults(func=cmd_couple)

    p = subs.add_parser("couple-mech", help="coupling mechanism operations")
    p.set_defaults(help_parser=p)  # shown when no action is given
    actions = p.add_subparsers(dest="action", metavar="action")
    b = actions.add_parser("build", help="assemble a coupling mechanism spec")
    b.add_argument("--target", required=True, help="target distribution JSON")
    b.add_argument("--inputs", required=True,
                   help="JSON file mapping auxiliary values to distributions")
    b.add_argument("--mode", default="optimal",
                   choices=("optimal", "northwest", "given"))
    b.add_argument("--cost", default=None, help="cost matrix CSV (optimal mode)")
    b.add_argument("--couplings", default=None,
                   help="JSON map of couplings (given mode)")
    b.add_argument("--fallback", default="error",
                   choices=("error", "sample_target"))
    b.add_argument("--out", default=None, help="also write the spec here")
    _common_flags(b)
    b.set_defaults(func=cmd_couple_mech)

    p = subs.add_parser("obfuscate", help="sample outputs for a data file")
    p.add_argument("--mech", required=True, help="kernel or mechanism spec JSON")
    p.add_argument("--aux", default=None, help="auxiliary value (spec files)")
    p.add_argument("--data", required=True, help="CSV of input labels, header x")
    p.add_argument("--out", default=None, help="also write the CSV here")
    _common_flags(p)
    p.set_defaults(func=cmd_obfuscate)

    p = subs.add_parser("audit", help="audit a mechanism against a relation")
    p.add_argument("--mech", required=True)
    p.add_argument("--relation", required=True, help="relation JSON file")
    _divergence_flags(p)
    p.add_argument("--claimed-eps", type=float, default=None, dest="claimed_eps")
    p.add_argument("--metric", default=None, help="cost matrix CSV file")
    p.add_argument("--wasserstein", default=None, choices=("1", "inf"),
                   help="input distance for distribution relations")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    _common_flags(p)
    p.set_defaults(func=cmd_audit)

    p = subs.add_parser("compose", help="compose two mechanisms")
    p.add_argument("--op", required=True, choices=("seq", "liftseq", "post"))
    p.add_argument("--first", required=True, help="first-stage kernel JSON")
    p.add_argument("--second", required=True,
                   help="second-stage kernel JSON (or branches object)")
    p.add_argument("--marginalize", action="store_true",
                   help="keep only the second stage's output")
    _common_flags(p)
    p.set_defaults(func=cmd_compose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not hasattr(args, "func"):
        getattr(args, "help_parser", parser).print_help(sys.stderr)
        return 1
    cfg = RunConfig(args.seed, args.tau_mass, args.tau_num,
                    getattr(args, "format", "json"))
    try:
        return args.func(args, cfg)
    except (DistpError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
