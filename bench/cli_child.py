"""Run one ``longmap`` command under the benchmark's tracer.

Usage: python3 bench/cli_child.py STATS_PATH TRACE_PATH OP_ID -- ARGS...

Imports ``longmap.cli`` (the import is a span of its own), installs the
tracer, runs ``main(ARGS)``, appends its first KEEP spans to TRACE_PATH and
writes the tracer's aggregates to STATS_PATH as JSON, whether the command
returns, exits or raises.  The exit status and any traceback are the
command's own.
"""

import json
import sys

from tracing import Tracer, install, uninstall

KEEP = 5_000   # spans written per command


def run(stats_path, trace_path, op_id, argv):
    tracer = Tracer(trace_path, KEEP)
    tracer.op = op_id
    tracer.enter("cli.import")
    try:
        import longmap.cli
    finally:
        tracer.exit()
    undo = install(tracer)
    try:
        return longmap.cli.main(argv)
    finally:
        uninstall(undo)
        tracer.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.stats(), fh)


if __name__ == "__main__":
    if len(sys.argv) < 5 or sys.argv[4] != "--":
        sys.exit("usage: cli_child.py STATS_PATH TRACE_PATH OP_ID -- ARGS...")
    sys.exit(run(sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[5:]))
