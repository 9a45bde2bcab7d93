"""distp benchmark: one run of one workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

* ``xdistp_euclid``: optimal coupling mechanisms, lifted W1 membership and
  xDistP audits (W1 and W-inf) on random Euclidean grounds;
* ``dp_geometric``: the geometric mechanism audited over a full label
  relation (max, max-delta, KL, metric DP, delta_required) and the
  coupling-mechanism closeness theorem.

After each job, a release probe runs fresh ``python -m distp.cli``
processes (``--version`` and ``obfuscate``) on the mechanism the job audits.

A run takes SETUP_PROBES extra set-up-only passes, then one measured
worker process (bench/worker.py), then the reference checks
(bench/reference.py) in this process, so that the worker never imports
scipy or networkx. The last line of standard output is the result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The
line before it carries the host context, the raw wall times, sample counts
and exact counts.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("xdistp_euclid", "dp_geometric")
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 120
# One closed-loop client runs the job; BLAS and OpenMP get one thread so a
# run never uses more threads than the host has cores.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = 1

# Self times that partition a traced job: every layer, the CLI process
# overheads, and the benchmark's own code around the calls.
SELF_TIMES = ("transport.self_s", "divergences.self_s", "finite_prob.self_s",
              "audit.self_s", "mechanisms.self_s", "fileio.self_s",
              "cli.interp_s", "cli.import_numpy_s", "cli.import_distp_s",
              "cli.self_s", "cli.launcher_self_s", "bench.self_s")

END_TO_END_UNITS = {"setup_s": "s", "run_ref": "ref", "pairs_per_ref": "1/ref",
                    "records_per_ref": "1/ref", "cli_startup_ref": "ref",
                    "peak_rss_mb": "MB"}


def _per_layer_units() -> dict:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _worker(root: Path, workdir: Path, args, setup_only: bool) -> dict:
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(root), str(workdir),
           args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    # A session of its own, so a timeout also stops the worker's CLI children.
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err.decode("utf-8", "replace"))
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads((workdir / "worker.json").read_text())


def _ops_failed(jobs: list[dict], release: dict, reference: dict) -> tuple[int, int, list]:
    """(attempted, failed, first messages) over every job and release op."""
    baseline = jobs[0]["digests"]
    attempted = failed = 0
    messages = []
    records = [(k, job) for k, job in enumerate(jobs)] + [("release", release)]
    for k, job in records:
        for op in sorted(set(job["digests"]) | set(job["errors"])):
            attempted += 1
            why = job["errors"].get(op) or reference.get(op)
            if why is None and k != "release" and job["digests"].get(op) != baseline.get(op):
                why = "output differs from the first job's"
            if why is not None:
                failed += 1
                if len(messages) < 10:
                    messages.append(f"job {k} {op}: {why}")
    return attempted, failed, messages


def _end_to_end(out: dict, setup: list[float]) -> tuple[dict, dict, dict]:
    """End-to-end metrics, the raw wall-time figures behind them, and the
    count, median and p90 of each kind of timed sample.

    On a shared VM the host's speed drifts by a third within minutes, so
    raw wall times of the same code differ more from run to run than any
    useful bound. Each job is therefore timed in units of the reference
    kernel timed just before it, and each CLI process in units of the
    reference interpreter start timed just before its probe. Both sums run
    over the whole run, so each ratio weighs the host's fast and slow
    spells as long as they lasted.
    """
    jobs = [j for j in out["jobs"] if not j["traced"]]
    rel = out["release"]["seconds"]
    startup = [s for op, s in rel.items() if op.startswith("release.version.")]
    obfuscate = [s for op, s in rel.items() if op.startswith("release.obfuscate.")]
    job_s = [j["run_s"] for j in jobs]
    audit_s = [j["pairs"][1] for j in jobs]
    kernel = [j["kernel_s"] for j in jobs]
    process = [s for j in jobs for s in j["process_s"]]
    pairs = sum(j["pairs"][0] for j in jobs)
    records = out["release"]["records_per_call"] * len(obfuscate)
    kernel_mean, process_mean = statistics.fmean(kernel), statistics.fmean(process)
    raw = {
        "run_s": statistics.fmean(job_s),
        "pairs_per_s": pairs / sum(audit_s),
        "records_per_s": records / sum(obfuscate),
        "cli_startup_s": statistics.fmean(startup),
        "kernel_s": kernel_mean,
        "process_s": process_mean,
    }
    metrics = {
        "setup_s": statistics.median(setup),
        "run_ref": raw["run_s"] / kernel_mean,
        "pairs_per_ref": raw["pairs_per_s"] * kernel_mean,
        "records_per_ref": raw["records_per_s"] * process_mean,
        "cli_startup_ref": raw["cli_startup_s"] / process_mean,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    samples = {name: {"n": len(v), "median": statistics.median(v), "p90": _p90(v)}
               for name, v in (("setup_s", setup), ("job_s", job_s),
                               ("audit_s", audit_s), ("obfuscate_s", obfuscate),
                               ("cli_startup_s", startup), ("kernel_s", kernel),
                               ("process_s", process))}
    return metrics, raw, samples


def _p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))]


def _per_layer(out: dict) -> tuple[dict, list]:
    """Median per-layer metrics over traced jobs, plus self-check problems."""
    traced = [j for j in out["jobs"] if j["traced"]]
    plain = [j for j in out["jobs"] if not j["traced"]]
    per_job = [j["metrics"] for j in traced]
    problems = []
    import tracing

    for key in tracing.EXACT:
        values = {m[key] for m in per_job}
        if len(values) != 1:
            problems.append(f"exact count {key} differs between jobs: {sorted(values)}")
    for j in traced:
        if j["nesting_errors"]:
            problems.append(f"{j['nesting_errors']} spans lie outside their parent")
        m = j["metrics"]
        accounted = sum(m[k] for k in SELF_TIMES)
        traced_s = m["trace.run_s"] + m["trace.release_s"]
        if abs(accounted - traced_s) > 1e-6 * traced_s:
            problems.append(f"self times sum to {accounted}, the traced job and "
                            f"release probe took {traced_s}")
    metrics = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(
        j["run_s"] for j in plain)
    return metrics, problems


def _host(args) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "networkx": version("networkx"), "blas_threads": BLAS_THREADS,
            "machine": platform.machine(), "seed": args.seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "distp" / "__init__.py").is_file():
        print("error: run from the root of a distp checkout (src/distp missing)",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    for var in THREAD_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(BENCH))

    runs = root / ".bench_build" / "runs"
    workdir = runs / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        setup = [_worker(root, workdir / f"setup{k}", args, True)["setup_s"]
                 for k in range(SETUP_PROBES)]
        out = _worker(root, workdir / "main", args, False)
        setup.append(out["setup_s"])
        import reference

        started = time.perf_counter()
        failures = reference.check(root, workdir / "main")
        reference_s = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, messages = _ops_failed(out["jobs"], out["release"], failures)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": _host(args), "jobs": len(out["jobs"]),
              "reference_s": reference_s, "failures": messages,
              "job_run_s": [j["run_s"] for j in out["jobs"]],
              "setup_samples": setup}
    if args.trace:
        values, problems = _per_layer(out)
        units = _per_layer_units()
        attempted += 1  # the trace self-check is one more operation
        failed += bool(problems)
        detail["self_check"] = problems
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        values, raw, samples = _end_to_end(out, setup)
        detail["raw"] = raw
        detail["samples"] = samples
        detail["counts"] = {
            "pairs_audited_per_job": out["jobs"][0]["pairs"][0],
            "records_per_obfuscate": out["release"]["records_per_call"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    results = root / ".bench_build" / "results"
    results.mkdir(parents=True, exist_ok=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
