"""Traced one-shot qest command, for traced runs of the cli workload.

Usage: python3 perfbench/cli_child.py TRACE_OUT QEST_ARGS...

Behaves like ``python -m qest.cli QEST_ARGS...`` and writes the import time
of ``qest.cli`` and the layer aggregates to TRACE_OUT as JSON.
"""

import json
import sys
import time


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import qest.cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        rc = qest.cli.run(argv)
    finally:
        with open(trace_out, "w") as fh:
            json.dump({"import_s": import_s, "layers": tracer.summary()}, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
