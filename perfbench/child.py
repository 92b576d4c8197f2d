"""The op process: runs one round of CLI calls and reports each one.

Reads {"warmup": argv, "ops": [argv, ...], "trace": bool} as JSON on
stdin, imports ``polylandau.cli``, runs the warm-up call untimed, then
times each op's ``main(argv)`` call with stdout and stderr captured.
Writes one JSON line per op as it finishes, then a summary line with the
peak resident set and, when traced, the layer tallies.  Imports only the
standard library, polylandau and the benchmark's own standard-library
modules.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    raised = None
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:  # an op that raises is a failed op, not a harness error
            raised = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue(), raised


def peak_rss_kb() -> int:
    """Peak resident set of this process since its exec.

    VmHWM starts afresh at exec; ru_maxrss would also count the pages
    this process shared with its parent before the exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(request: dict, emit) -> None:
    import polylandau.cli as cli

    tracer = None
    if request["trace"]:
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()
    _call(cli.main, request["warmup"])
    if tracer is not None:
        tracer.reset()
    for index, argv in enumerate(request["ops"]):
        rc, elapsed, out, err, raised = _call(cli.main, argv)
        emit({"i": index, "rc": rc, "s": elapsed, "out": out, "err": err, "raised": raised})
    summary = {
        "maxrss_kb": peak_rss_kb(),
        "trace": tracer.totals() if tracer is not None else None,
    }
    emit(summary)


def main() -> int:
    request = json.loads(sys.stdin.read())
    channel = sys.stdout

    def emit(record: dict) -> None:
        channel.write(json.dumps(record) + "\n")
        channel.flush()

    run(request, emit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
