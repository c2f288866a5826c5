"""Run one fragchain command with its layers traced.

    python cli_shim.py TRACE_FILE SPAWNED_AT -- COMMAND ARGS...

The traced run of the cli workload starts this in place of
`python -m fragchain.cli`. SPAWNED_AT is the parent's time.monotonic()
just before the process was started (the clock is shared between
processes), so interpreter start-up is a span of its own. The spans and
counts are written to TRACE_FILE as JSON with the time the command ended,
from which the parent times the process's exit; the exit code is the
command's.
"""

import time

_STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def main():
    trace_file, spawned_at, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_shim.py TRACE_FILE SPAWNED_AT -- ARGS...")
    tracer = Tracer()
    tracer.record("process.start", _STARTED - float(spawned_at))
    tracer.record("bench.shim", time.monotonic() - _STARTED)
    with tracer.span("process.import"):
        import fragchain.cli
    tracer.install()
    code = fragchain.cli.run(argv)
    sys.stdout.flush()
    dumped = tracer.dump()
    dumped["finished_at"] = time.monotonic()
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(dumped, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
