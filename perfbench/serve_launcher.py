"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage::

    python perfbench/serve_launcher.py SPANS.json -- serve --store DIR --port 0 ...

Everything after ``--`` is handed to ``repro.cli``.  ``SIGUSR1`` drops the
spans recorded so far (the client sends it once set-up is done); ``SIGTERM``
or ``SIGINT`` stops the server as Ctrl-C stops ``repro serve``, after which
the spans are written to ``SPANS.json``.
"""

import signal
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer().install()
    signal.signal(signal.SIGUSR1, lambda *_: tracer.reset())
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
