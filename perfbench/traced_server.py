"""Runs the ``mdpcompose`` command line with the span recorder active and
writes the recorded spans to a JSON file when the process is stopped with
SIGTERM or exits.

    PYTHONPATH=src python3 perfbench/traced_server.py SPANS.json serve --store ... --embeddings ...
"""

import signal
import sys

from mdpcompose import cli

from tracing import Recorder


def _stop(_signum, _frame):
    raise SystemExit(0)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    signal.signal(signal.SIGTERM, _stop)
    try:
        with recorder.active():
            return cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
