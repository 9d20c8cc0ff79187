"""Start ``python -m repro serve`` with the benchmark's spans installed.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/serve_launcher.py [--trace-out FILE] -- SERVE_ARGS...

Without ``--trace-out`` this is exactly ``python -m repro serve
SERVE_ARGS``.  With it, the layer wrappers of :mod:`tracing` are
installed before the server starts, and once the server has drained
(SIGTERM) every span is written to FILE as a JSON list.
"""

from __future__ import annotations

import argparse
import json
import sys

import tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", default=None, metavar="FILE")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.__main__ import main as repro_main

    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    rc = repro_main(["serve", *serve_args])
    if tracer is not None:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
