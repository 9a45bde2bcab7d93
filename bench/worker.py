"""The measured process of one benchmark run.

Usage: python bench/worker.py ROOT WORKDIR WORKLOAD SEED SECONDS TRACE [--setup-only]

Set-up (imports, input generation from the seed and a warm-up call) is
timed from the first line of this file. The timed loop then repeats the
workload's job, one job after another, until SECONDS have passed, with at
least MIN_JOBS jobs of each kind. With TRACE=1, untraced and traced jobs
alternate. A release probe (fresh CLI processes on the audited mechanism)
follows each job, outside the job's timing; after a traced job it is
traced too, under a root span of its own.

Before each job the worker times a reference kernel (fixed numpy and
Python work that does not touch distp), and before each release probe
PROCESS_STARTS fresh ``python -c "import numpy"`` processes. Their times
track the host's speed, which wanders too much on a shared VM for raw wall
times to compare across runs; run.py reports the job and probe times in
their units.

Writes WORKDIR/worker.json for run.py and WORKDIR/check.json for the
reference checks. This process never imports scipy or networkx, so its
peak resident memory is the library's alone.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_JOBS = 2
KERNEL_STEPS = 30000  # about 1 s on a 2 GHz Xeon core
PROCESS_STARTS = 2  # reference starts per release probe


def kernel_s() -> float:
    """Wall time of the in-process reference kernel: small-array numpy
    arithmetic, argwhere and dict updates, like the library's inner loops."""
    import numpy as np

    start = time.perf_counter()
    cost = np.random.default_rng(0).random((16, 16))
    mask = cost < 0.7
    acc, seen = 0.0, {}
    for i in range(KERNEL_STEPS):
        k = i % 16
        u, v = cost[k], cost[:, (k * 7) % 16]
        reduced = cost - u[:, None] - v[None, :]
        spots = np.argwhere((reduced < -0.5) & mask)
        acc += float(reduced.min()) + len(spots)
        seen[(i % 101, len(spots))] = acc
        acc += float(np.log((u / u.sum()) / (v / v.sum())).max())
    return time.perf_counter() - start


def process_s(env: dict, cwd: Path) -> float:
    """Wall time of a fresh interpreter that imports numpy: the reference
    for the release probe's CLI processes."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd,
                   check=True, timeout=60)
    return time.perf_counter() - start


def main(argv) -> int:
    root, workdir = Path(argv[0]), Path(argv[1])
    name, seed, seconds, trace = argv[2], int(argv[3]), float(argv[4]), argv[5] == "1"
    sys.path.insert(1, str(root / "src"))
    import numpy  # noqa: F401
    import distp
    if not Path(distp.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"distp imported from {distp.__file__}, not the checkout")
    import tracing
    from workloads import RELEASE_RECORDS, WORKLOADS, Session

    wl = WORKLOADS[name](seed, root, workdir)
    wl.prepare_release()
    wl.warmup()
    out = {"setup_s": time.perf_counter() - START}
    if "--setup-only" in argv:
        (workdir / "worker.json").write_text(json.dumps(out))
        return 0

    jobs, first, release = [], None, Session()
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(jobs) % 2 == 1
        session = Session()
        begin = time.perf_counter()
        kernel = kernel_s()
        if traced:
            tracer = wl.cli.tracer = tracing.Tracer()
            undo = tracing.install(tracer)
            root_span = tracer.begin("bench.job")
        start = time.perf_counter()
        wl.job(session)
        run_s = time.perf_counter() - start
        if traced:
            tracer.end(root_span)
        process = [process_s(wl.cli.env, workdir) for _ in range(PROCESS_STARTS)]
        if traced:
            root_span = tracer.begin("bench.release")
        wl.release_probe(release, len(jobs))
        if traced:
            tracer.end(root_span)
            tracing.uninstall(undo)
            wl.cli.tracer = None
        record = {"traced": traced, "run_s": run_s, "kernel_s": kernel,
                  "process_s": process, **wl.op_record(session),
                  "pairs": wl.pairs_audited(session)}
        if traced:
            record["metrics"] = tracing.job_metrics(tracer.spans, tracer.counts)
            record["nesting_errors"] = tracing.nesting_errors(tracer.spans)
        first = first or session
        jobs.append(record)
        per_kind = min(sum(j["traced"] == t for j in jobs) for t in {False, trace})
        elapsed = time.perf_counter() - loop_start
        last = time.perf_counter() - begin  # this job, its probe and references
        if per_kind >= MIN_JOBS and elapsed + last > seconds and traced == trace:
            break
    out["jobs"] = jobs
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["release"] = {**wl.op_record(release), "seconds": release.seconds,
                      "records_per_call": RELEASE_RECORDS}
    check = {"workload": name, "inputs": wl.check_data(),
             "outputs": wl.outputs(first),
             "release": {"inputs": wl.release_inputs,
                         "outputs": wl.outputs(release)}}
    (workdir / "check.json").write_text(json.dumps(check))
    if "scipy" in sys.modules or "networkx" in sys.modules:
        raise RuntimeError("the measured process imported scipy or networkx")
    (workdir / "worker.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
