"""The benchmark's workloads: seeded inputs, the timed job, and what the
reference checks need.

Each workload generates all of its inputs from the seed in ``__init__``
(set-up), so the library only ever receives generated inputs. ``job`` is
the timed unit of work: a closed loop, one library call at a time. The
release probe after each job runs fresh CLI processes, one at a time.
The library is always reached through module attributes
(``audit.audit_xdistp``, ...) so that tracing wrappers installed on those
attributes see the calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from distp import audit, divergences, fileio, finite_prob, mechanisms, transport

import tracing

RELEASE_RECORDS = 20000  # records per release-probe obfuscate call
CLI_TIMEOUT_S = 120


class Failure:
    """An operation that raised; kept in place of its result."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


class Cli:
    """Runs distp CLI processes one after another.

    Untraced calls run plain ``python -m distp.cli``; with a tracer set,
    calls go through ``traced_cli.py`` and their spans join the tracer.
    """

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.tracer: tracing.Tracer | None = None

    def run(self, args: list[str]) -> CliResult:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "distp.cli", *args]
        else:
            spans_path = self.workdir / "cli_spans.json"
            cmd = [sys.executable, str(self.root / "bench" / "traced_cli.py"),
                   str(spans_path), *args]
            sid = self.tracer.begin("cli.proc")
        proc = subprocess.run(cmd, capture_output=True, env=self.env,
                              cwd=self.workdir, timeout=CLI_TIMEOUT_S)
        if self.tracer is not None:
            self.tracer.end(sid)
            with open(spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
            self.tracer.adopt(child["spans"], child["counts"], sid)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)


@dataclass
class Session:
    """The operations of one job: raw results and wall times, by op id."""

    results: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)

    def call(self, op: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an operation that fails is counted, not fatal
            result = Failure(exc)
        self.seconds[op] = time.perf_counter() - start
        self.results[op] = result
        return result


def _dist(ground, probs) -> finite_prob.FiniteDistribution:
    return finite_prob.FiniteDistribution(ground, probs)


def _report(report) -> dict:
    return {
        "observed": report.observed_eps,
        "forward": [p.forward for p in report.pairs],
        "backward": [p.backward for p in report.pairs],
        "labels": [p.pair for p in report.pairs],
    }


def _records_csv(path: Path, labels) -> None:
    path.write_text("x\n" + "\n".join(labels) + "\n", encoding="utf-8")


class Workload:
    """Shared plumbing: the CLI runner, output digests and release probes."""

    name = ""
    auditor_ops: tuple[str, ...] = ()

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.cli = Cli(root, workdir)

    def summary(self, op: str, result):
        """JSON-able form of an operation's output, for digests and checks."""
        if isinstance(result, CliResult):
            return {"code": result.code,
                    "stdout": result.stdout.decode("utf-8", "replace")}
        if isinstance(result, (bool, np.bool_)):
            return bool(result)
        if isinstance(result, float):
            return result
        if hasattr(result, "observed_eps"):
            return _report(result)
        if hasattr(result, "checks"):
            return {"epsilon": result.epsilon,
                    "checks": {c.name: {"bound": c.bound, **_report(c.report)}
                               for c in result.checks}}
        raise TypeError(f"no summary for {op}: {type(result).__name__}")

    def outputs(self, session: Session) -> dict:
        """Summaries of the session's outputs, leaving out failed ops."""
        return {op: self.summary(op, r) for op, r in session.results.items()
                if not isinstance(r, Failure)}

    def op_record(self, session: Session) -> dict:
        """Digest of every op's output, and the ops that raised or exited
        with a non-zero code."""
        record = {"digests": {}, "errors": {}}
        for op, result in session.results.items():
            if isinstance(result, Failure):
                record["errors"][op] = result.message
                continue
            text = json.dumps(self.summary(op, result), sort_keys=True)
            record["digests"][op] = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if getattr(result, "code", 0) != 0:
                tail = result.stderr.decode("utf-8", "replace")[-300:]
                record["errors"][op] = f"exit code {result.code}: {tail}"
        return record

    def pairs_audited(self, session: Session) -> tuple[int, float]:
        entries = seconds = 0
        for op in self.auditor_ops:
            result = session.results[op]
            if hasattr(result, "checks"):
                entries += sum(len(c.report.pairs) for c in result.checks)
            elif not isinstance(result, Failure):
                entries += len(result.pairs)
            seconds += session.seconds[op]
        return entries, seconds

    # -- release probes: what the curator does with the audited mechanism --

    def release_mechanism(self) -> tuple[dict, str | None, list[str]]:
        """(mechanism JSON object, aux value or None, input label pool)."""
        raise NotImplementedError

    def prepare_release(self) -> None:
        """Write the audited mechanism and a records file for the release
        probes. Part of set-up."""
        mech, aux, ground = self.release_mechanism()
        mech_path = self.workdir / "release_mech.json"
        mech_path.write_text(json.dumps(mech), encoding="utf-8")
        rng = np.random.default_rng([self.seed, 7])
        data_path = self.workdir / "release_records.csv"
        _records_csv(data_path, rng.choice(ground, size=RELEASE_RECORDS))
        self.release_args = ["obfuscate", "--mech", mech_path.name, "--data",
                             data_path.name, "--seed", str(self.seed)]
        if aux is not None:
            self.release_args += ["--aux", aux]
        self.release_inputs = {"mech": mech_path.name, "aux": aux,
                               "data": data_path.name, "seed": self.seed}

    def release_probe(self, session: Session, k: int) -> None:
        """One fresh `--version` and one `obfuscate` process on the audited
        mechanism. Runs after each job, outside run_s, so that the samples
        of cli_startup_s and records_per_s spread over the whole run."""
        session.call(f"release.version.{k}", self.cli.run, ["--version"])
        session.call(f"release.obfuscate.{k}", self.cli.run, self.release_args)


def euclidean_metric(rng, n: int):
    points = rng.random((n, 2))
    cost = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    ground = tuple(f"p{i}" for i in range(n))
    return ground, cost, finite_prob.GroundMetric(ground, cost)


@dataclass
class Dataset:
    ground: tuple
    cost: np.ndarray
    metric: object
    target: object
    approx: dict
    pairs: list
    relation: object
    phi: object


class XdistpEuclid(Workload):
    """Transport-bound: optimal coupling mechanisms and xDistP audits.

    One job audits GROUNDS independent datasets. The simplex pivot count
    of a single random ground varies widely from seed to seed, so the job
    time does too; summing over many grounds evens it out.
    """

    name = "xdistp_euclid"
    GROUNDS = 24
    POINTS = 16
    AUX = 3
    PAIRS = 1
    RADIUS = 0.5

    def __init__(self, seed, root, workdir, small=False):
        super().__init__(seed, root, workdir)
        grounds, points = (1, 5) if small else (self.GROUNDS, self.POINTS)
        self.datasets = [self._dataset(np.random.default_rng([seed, g]), points)
                         for g in range(grounds)]
        self.auditor_ops = tuple(f"{g}.audit_{w}" for g in range(grounds)
                                 for w in ("w1", "winf"))

    def _dataset(self, rng, n) -> Dataset:
        ground, cost, metric = euclidean_metric(rng, n)

        def draw():
            return _dist(ground, rng.dirichlet(np.ones(n)))

        target = draw()
        approx = {f"s{k}": draw() for k in range(self.AUX)}
        pairs = [(draw(), draw()) for _ in range(self.PAIRS)]
        phi = finite_prob.PointRelation(
            (a, b) for i, a in enumerate(ground) for j, b in enumerate(ground)
            if cost[i, j] <= self.RADIUS)
        return Dataset(ground, cost, metric, target, approx, pairs,
                       finite_prob.DistributionPairRelation(pairs), phi)

    def warmup(self) -> None:
        XdistpEuclid(self.seed, self.root, self.workdir, small=True).job(Session())

    def job(self, s: Session) -> None:
        for g, d in enumerate(self.datasets):
            spec = s.call(f"{g}.build", mechanisms.build_coupling_mechanism,
                          d.target, d.approx, "optimal", metric=d.metric)
            for k, (a, b) in enumerate(d.pairs):
                s.call(f"{g}.member.{k}", transport.lifted_w1_member,
                       d.phi, a, b, d.metric)
            s.call(f"{g}.audit_w1", audit.audit_xdistp, spec, d.relation,
                   d.metric, divergences.KL)
            s.call(f"{g}.audit_winf", audit.audit_xdistp, spec, d.relation,
                   d.metric, divergences.MaxDivergence(), wasserstein="inf")

    def summary(self, op, result):
        if op.endswith(".build"):
            return {e.s: e.coupling.mass.tolist() for e in result.entries}
        return super().summary(op, result)

    def check_data(self) -> dict:
        return {"datasets": [{
            "cost": d.cost.tolist(),
            "target": d.target.probs.tolist(),
            "approx": {s: v.probs.tolist() for s, v in d.approx.items()},
            "pairs": [[a.probs.tolist(), b.probs.tolist()] for a, b in d.pairs],
            "radius": self.RADIUS,
        } for d in self.datasets]}

    def release_mechanism(self):
        spec = mechanisms.build_coupling_mechanism(
            self.datasets[0].target, self.datasets[0].approx, "optimal",
            metric=self.datasets[0].metric)
        return fileio.cp_spec_to_dict(spec), "s0", list(self.datasets[0].ground)


class DpGeometric(Workload):
    """Divergence- and audit-bound: the geometric mechanism audited over
    the full label relation, plus the coupling-mechanism closeness theorem
    on a north-west mechanism. Makes no transport solve."""

    name = "dp_geometric"
    POINTS = 60
    EPSILON = 2.0
    DELTA = 0.05
    CLAIMED = 1.0
    CP_AUX = 30
    CP_LABELS = 12
    auditor_ops = ("dp_max", "dp_max_delta", "dp_kl", "xdp_max", "cp_theorem")

    def __init__(self, seed, root, workdir, small=False):
        super().__init__(seed, root, workdir)
        rng = np.random.default_rng([seed, 0])
        n, n_aux = (6, 3) if small else (self.POINTS, self.CP_AUX)
        self.ground, self.cost, self.metric = euclidean_metric(rng, n)
        self.relation = finite_prob.PointRelation.full(self.ground)
        labels = tuple(f"y{i}" for i in range(self.CP_LABELS))
        alpha = np.full(self.CP_LABELS, 2.0)
        self.cp_target = _dist(labels, rng.dirichlet(alpha))
        self.cp_approx = {f"s{k}": _dist(labels, rng.dirichlet(alpha))
                          for k in range(n_aux)}
        self.cp_actual = {}
        for s, lam in self.cp_approx.items():
            tilted = lam.probs * np.exp(rng.uniform(-0.1, 0.1, self.CP_LABELS))
            self.cp_actual[s] = _dist(labels, tilted / tilted.sum())
        # The north-west mechanism is an input the analyst brings, so it is
        # built here, outside the job: the job itself makes no transport call.
        self.cp_spec = mechanisms.build_coupling_mechanism(
            self.cp_target, self.cp_approx, "northwest")

    def warmup(self) -> None:
        DpGeometric(self.seed, self.root, self.workdir, small=True).job(Session())

    def job(self, s: Session) -> None:
        mech = s.call("geometric", mechanisms.geometric_mechanism,
                      self.ground, self.EPSILON, self.metric)
        s.call("symmetric", lambda: self.metric.is_symmetric())
        s.call("triangle", lambda: self.metric.satisfies_triangle())
        kernel = mech.kernel
        rel = self.relation
        s.call("dp_max", audit.audit_div_dp, kernel, rel,
               divergences.MaxDivergence())
        s.call("dp_max_delta", audit.audit_div_dp, kernel, rel,
               divergences.MaxDivergence(self.DELTA))
        s.call("dp_kl", audit.audit_div_dp, kernel, rel, divergences.KL)
        s.call("xdp_max", audit.audit_div_xdp, kernel, rel, self.metric,
               divergences.MaxDivergence(), self.CLAIMED)
        s.call("delta_required", divergences.delta_required, kernel, rel,
               self.CLAIMED)
        s.call("cp_theorem", audit.check_cp_theorem, self.cp_spec,
               self.cp_actual)

    def summary(self, op, result):
        if op == "geometric":
            return {"matrix": result.kernel.matrix.tolist(),
                    "effective_epsilon": result.effective_epsilon}
        return super().summary(op, result)

    def check_data(self) -> dict:
        return {
            "cost": self.cost.tolist(),
            "epsilon": self.EPSILON,
            "delta": self.DELTA,
            "claimed": self.CLAIMED,
            "cp_target": self.cp_target.probs.tolist(),
            "cp_approx": {s: v.probs.tolist() for s, v in self.cp_approx.items()},
            "cp_actual": {s: v.probs.tolist() for s, v in self.cp_actual.items()},
            "cp_couplings": {e.s: e.coupling.mass.tolist()
                             for e in self.cp_spec.entries},
        }

    def release_mechanism(self):
        mech = mechanisms.geometric_mechanism(self.ground, self.EPSILON,
                                              self.metric)
        return fileio.kernel_to_dict(mech.kernel), None, list(self.ground)


WORKLOADS = {w.name: w for w in (XdistpEuclid, DpGeometric)}
