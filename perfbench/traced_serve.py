"""Run a `refdoc` command with the benchmark's tracer installed.

Usage: python3 perfbench/traced_serve.py SPANS.json serve --model M ...
SIGTERM ends the command as Ctrl-C would; the spans are written on exit.
"""

import signal
import sys

import inputs
import tracer as tracing


def _interrupt(signum, frame):
    raise KeyboardInterrupt


if __name__ == "__main__":
    inputs.add_src_path()
    from refdoc import cli
    recorder = tracing.Tracer()
    recorder.install()
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        code = cli.main(sys.argv[2:])
    finally:
        recorder.dump(sys.argv[1])
    sys.exit(code)
