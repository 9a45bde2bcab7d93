"""Per-layer tracing, installed from outside the library.

``install`` replaces each layer's public functions with timing wrappers at
every ``distp`` module attribute that holds them (``distp.audit.wasserstein_p``,
``distp.mechanisms.emd``, ``distp.cli.sample_outputs``, ...), so a call
reaches the wrapper through whichever module its caller imported it from.
Nothing under ``src/`` changes, and ``uninstall`` puts the originals back.

Spans stay in memory as ``[name, parent, start, end]`` lists, with
``time.perf_counter`` stamps. On Linux that clock is CLOCK_MONOTONIC, which
is shared by every process on the host, so spans written by a traced CLI
child nest inside the parent's span around that child. A span's layer is
the part of its name before the first dot.

This module imports nothing heavy at import time: the CLI launcher imports
it before it times the numpy and distp imports.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# Public functions traced per layer, by the name of the module defining them.
FUNCTIONS = {
    "transport": ("emd", "wasserstein_p", "wasserstein_inf", "lifted_member",
                  "lifted_w1_member", "northwest_corner", "coupling_cost"),
    "divergences": ("divergence_value", "f_divergence", "max_divergence",
                    "approx_max_divergence", "delta_required"),
    "finite_prob": ("lift",),
    "audit": ("audit_div_dp", "audit_div_xdp", "audit_distp", "audit_xdistp",
              "check_cp_theorem"),
    "mechanisms": ("build_coupling_mechanism", "geometric_mechanism",
                   "sample_outputs", "cp_kernel", "aux_kernel", "seq_compose",
                   "liftseq_compose", "post_process"),
    "fileio": ("load_json", "dumps_json", "load_mechanism", "load_labels_csv",
               "labels_to_csv", "metric_from_csv", "relation_from_obj",
               "distribution_from_dict", "kernel_from_dict",
               "coupling_from_dict", "cp_spec_from_dict", "cp_spec_to_dict",
               "kernel_to_dict", "coupling_to_dict"),
}
METHODS = {
    "finite_prob": (("StochasticKernel", "row"),
                    ("StochasticKernel", "row_by_index"),
                    ("GroundMetric", "is_symmetric"),
                    ("GroundMetric", "satisfies_triangle")),
}
SOLVES = frozenset({"emd", "wasserstein_p", "wasserstein_inf", "lifted_member",
                    "lifted_w1_member"})


class Tracer:
    """Spans and exact counters of one traced job."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open = [-1]

    def begin(self, name: str, start: float | None = None) -> int:
        sid = len(self.spans)
        now = time.perf_counter() if start is None else start
        self.spans.append([name, self._open[-1], now, now])
        self._open.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._open.pop()

    def adopt(self, spans: list[list], counts: dict, parent: int) -> None:
        """Append a child process's spans under span ``parent``."""
        base = len(self.spans)
        for name, par, start, end in spans:
            self.spans.append([name, parent if par < 0 else par + base,
                               start, end])
        self.counts.update(counts)


def _cells(counts, args, result):
    dists = [a for a in args if hasattr(a, "probs") and hasattr(a, "ground")]
    counts["transport.cells"] += len(dists[0].ground) * len(dists[1].ground)


def _pair_dirs(counts, args, result):
    reports = [c.report for c in result.checks] if hasattr(result, "checks") \
        else [result]
    counts["audit.pair_dirs"] += sum(2 * len(r.pairs) for r in reports)


def _records(counts, args, result):
    counts["mechanisms.records"] += len(result)


def _bytes_in(counts, args, result):
    counts["fileio.bytes_in"] += os.path.getsize(args[0])


def _bytes_out(counts, args, result):
    counts["fileio.bytes_out"] += len(result.encode("utf-8"))


COUNTERS = {
    **{name: _cells for name in SOLVES},
    **{name: _pair_dirs for name in FUNCTIONS["audit"]},
    "sample_outputs": _records,
    "load_json": _bytes_in,
    "metric_from_csv": _bytes_in,
    "load_labels_csv": _bytes_in,
    "dumps_json": _bytes_out,
    "labels_to_csv": _bytes_out,
}


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(sid)
        if count is not None:
            count(tracer.counts, args, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every traced function where callers reach it; returns the
    list of replacements that ``uninstall`` reverts."""
    import distp.finite_prob

    modules = [m for k, m in list(sys.modules.items())
               if (k == "distp" or k.startswith("distp.")) and m is not None]
    undo = []
    for layer, names in FUNCTIONS.items():
        home = sys.modules[f"distp.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapped = _wrap(tracer, f"{layer}.{fname}", original,
                            COUNTERS.get(fname))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapped)
    for layer, methods in METHODS.items():
        home = sys.modules[f"distp.{layer}"]
        for cls_name, meth in methods:
            cls = getattr(home, cls_name)
            original = vars(cls)[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, _wrap(tracer, f"{layer}.{meth}", original, None))

    built = distp.finite_prob.FiniteDistribution
    post_init = vars(built)["__post_init__"]

    def counted(self, tau_mass):
        tracer.counts["finite_prob.dists_built"] += 1
        post_init(self, tau_mass)

    undo.append((built, "__post_init__", post_init))
    built.__post_init__ = counted
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nesting_errors(spans: list[list], slack: float = 1e-6) -> int:
    """Spans that start before or end after their parent."""
    bad = 0
    for _, parent, start, end in spans:
        if parent >= 0:
            _, _, pstart, pend = spans[parent]
            bad += start < pstart - slack or end > pend + slack
    return bad


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _layer(name: str) -> str:
    return name.partition(".")[0]


def job_metrics(spans: list[list], counts: Counter) -> dict:
    """Per-layer metrics of one traced job and its release probe, whose
    root spans are ``bench.job`` and ``bench.release``.

    A boundary span is one not nested directly in a span of its own layer;
    transport's w1, solve and percentile figures count boundary calls only,
    so that a solve made inside ``lifted_w1_member`` is not counted twice.
    """
    own = self_times(spans)
    layer_self = Counter()
    total = Counter()
    calls = Counter()
    boundary = Counter()
    solves = []
    for (name, parent, start, end), s in zip(spans, own):
        layer, fname = _layer(name), name.partition(".")[2]
        layer_self[layer] += s
        total[name] += end - start
        calls[layer] += 1
        calls[name] += 1
        if parent >= 0 and _layer(spans[parent][0]) == layer:
            continue
        boundary[layer] += 1
        if layer == "transport" and fname in SOLVES:
            solves.append(end - start)
        if name in ("transport.emd", "transport.wasserstein_p"):
            boundary["transport.w1_s"] += end - start
    procs = [i for i, sp in enumerate(spans) if sp[0] == "cli.proc"]
    return {
        "transport.calls": calls["transport"],
        "transport.cells": counts["transport.cells"],
        "transport.self_s": layer_self["transport"],
        "transport.w1_s": boundary["transport.w1_s"],
        "transport.winf_s": total["transport.wasserstein_inf"],
        "transport.member_s": total["transport.lifted_w1_member"]
        + total["transport.lifted_member"],
        "transport.solves": len(solves),
        "transport.solve_p50_s": _pct(solves, 0.5),
        "transport.solve_p90_s": _pct(solves, 0.9),
        "divergences.calls": boundary["divergences"],
        "divergences.self_s": layer_self["divergences"],
        "divergences.max_s": total["divergences.max_divergence"],
        "divergences.approx_max_s": total["divergences.approx_max_divergence"],
        "divergences.f_s": total["divergences.f_divergence"],
        "finite_prob.dists_built": counts["finite_prob.dists_built"],
        "finite_prob.lifts": calls["finite_prob.lift"],
        "finite_prob.rows": calls["finite_prob.row_by_index"],
        "finite_prob.self_s": layer_self["finite_prob"],
        "audit.calls": calls["audit"],
        "audit.pair_dirs": counts["audit.pair_dirs"],
        "audit.self_s": layer_self["audit"],
        "mechanisms.build_s": total["mechanisms.build_coupling_mechanism"],
        "mechanisms.geometric_s": total["mechanisms.geometric_mechanism"],
        "mechanisms.sample_s": total["mechanisms.sample_outputs"],
        "mechanisms.records": counts["mechanisms.records"],
        "mechanisms.self_s": layer_self["mechanisms"],
        "fileio.self_s": layer_self["fileio"],
        "fileio.bytes_in": counts["fileio.bytes_in"],
        "fileio.bytes_out": counts["fileio.bytes_out"],
        "cli.procs": len(procs),
        "cli.interp_s": sum(own[i] for i in procs),
        "cli.import_numpy_s": total["cli.import_numpy"],
        "cli.import_distp_s": total["cli.import_distp"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": _own(spans, own, "cli.main"),
        "cli.launcher_self_s": _own(spans, own, "cli.launcher"),
        "bench.self_s": _own(spans, own, "bench.job") + _own(spans, own, "bench.release"),
        "trace.spans": len(spans),
        "trace.run_s": total["bench.job"],
        "trace.release_s": total["bench.release"],
    }


def _own(spans, own, name: str) -> float:
    return sum(s for sp, s in zip(spans, own) if sp[0] == name)


# Metrics that are exact counts: they must repeat exactly at a fixed seed.
EXACT = ("transport.calls", "transport.cells", "transport.solves",
         "divergences.calls", "finite_prob.dists_built", "finite_prob.lifts",
         "finite_prob.rows", "audit.calls", "audit.pair_dirs",
         "mechanisms.records", "fileio.bytes_in", "fileio.bytes_out",
         "cli.procs", "trace.spans")
