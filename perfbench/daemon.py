"""Launch the ``repro-nd serve`` daemon, optionally traced.

    python3 perfbench/daemon.py --report FILE [--trace 1] [--cpu N] -- serve ARGS...

With ``--trace 1`` the layer wrappers and the per-request server spans
are installed before the CLI starts.  When the daemon stops (SIGTERM)
the launcher writes its peak RSS, and the spans, to ``--report``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import common
import spans


def main() -> int:
    common.use_source_tree()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin the daemon to this CPU")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install_layers(tracer)
        spans.install_server(tracer)
    from repro.cli import main as repro_main

    code = repro_main(cli)
    report = {"maxrss_mb": common.maxrss_mb()}
    if tracer is not None:
        tracer.enabled = False
        report["span_cost_s"] = spans.calibrate()
        report["spans"] = tracer.spans
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
