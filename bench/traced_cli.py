"""Run ``distp.cli.main`` with the benchmark's tracing wrappers installed.

Usage: python bench/traced_cli.py SPANS_JSON [distp CLI arguments...]

Times the numpy import, the rest of the distp import and ``main`` itself,
then writes the spans and counters to SPANS_JSON. The exit code and the
standard output are those of the plain ``python -m distp.cli`` call.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    root = tracer.begin("cli.launcher", start=START)
    sid = tracer.begin("cli.import_numpy")
    import numpy  # noqa: F401
    tracer.end(sid)
    sid = tracer.begin("cli.import_distp")
    import distp.cli
    tracer.end(sid)
    undo = tracing.install(tracer)
    sid = tracer.begin("cli.main")
    try:
        code = distp.cli.main(argv)
    except SystemExit as exc:  # argparse's --version exits from inside main
        code = exc.code or 0
    tracer.end(sid)
    tracing.uninstall(undo)
    sys.stdout.flush()
    tracer.end(root)
    if "scipy" in sys.modules or "networkx" in sys.modules:
        raise RuntimeError("the traced CLI process imported scipy or networkx")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
