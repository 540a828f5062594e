"""Run one bottnull CLI command in this fresh interpreter, traced.

    python3 perfbench/clitrace.py STATS SPANS OP_ID -- <bottnull arguments>

Installs the span wrappers before calling ``bottnull.cli.main``, then writes
the per-function stats (JSON) to STATS and the spans to SPANS.  Exits with
the command's exit code; stdout and stderr are the command's own.
"""

from __future__ import annotations

import json
import sys

import tracer


def main() -> int:
    stats_path, spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: clitrace.py STATS SPANS OP_ID -- ARGS...")
    from bottnull import cli

    tr = tracer.Tracer()
    tracer.install(tr)
    tr.op = int(op_id)
    tr.active = True
    try:
        return cli.main(argv)
    finally:
        tr.active = False
        sys.stdout.flush()
        tr.write_spans(spans_path)
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tr.stats, fh)


if __name__ == "__main__":
    raise SystemExit(main())
