"""Run one gptw CLI command with the benchmark's layer wrappers installed.

    BENCH_OP=<op id> PYTHONPATH=src python3 bench/cli_child.py <gptw arguments>

Only the traced run starts it.  Exit code and stdout are the CLI's own; the
recorded spans follow on stderr as one line that starts with SPANS_MARKER.
"""
from __future__ import annotations

import json
import os
import sys

SPANS_MARKER = "BENCH_SPANS "


def main(argv: list[str]) -> int:
    import layers
    import tracer

    import gptw.cli

    recorder = tracer.Recorder()
    recorder.op = int(os.environ["BENCH_OP"])
    recorder.install(layers.targets(), "gptw")
    try:
        code = gptw.cli.main(argv)
    finally:
        recorder.uninstall()
    spans = [list(span) for span in recorder.finished()]
    print(SPANS_MARKER + json.dumps(spans), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
