"""Traced stand-in for ``python -m chbez.cli`` used by the cli_oneshot workload.

Usage: ``python cli_child.py SPANS_JSON ARGS...`` with ``src`` on
``PYTHONPATH``.  It times ``import chbez.cli`` (numpy included, as in a
fresh CLI process), installs span wrappers on the public functions that
``chbez.cli`` and ``chbez.gallery`` imported, runs ``chbez.cli.main`` on
``ARGS`` and writes the spans to ``SPANS_JSON``.  The exit code is the
CLI's.
"""

import sys
import time

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    start = time.perf_counter()
    import chbez.cli
    import chbez.gallery

    tracer.record(spans.CLI_IMPORT, start, time.perf_counter())
    spans.install(tracer, (chbez.cli, chbez.gallery))
    index = tracer.open(spans.CLI_MAIN)
    try:
        code = chbez.cli.main(argv)
    finally:
        tracer.close(index)
        spans.write(out_path, tracer.dump())
    return code


if __name__ == "__main__":
    sys.exit(main())
