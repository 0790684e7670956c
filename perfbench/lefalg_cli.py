"""Run lefalg's command line from the source tree, as the installed entry point does.

    python3 perfbench/lefalg_cli.py report example1

With PERFBENCH_TRACE_OUT set to a file name, the run is traced and its
per-layer values are written there as JSON; PERFBENCH_TRACE_MEMORY=1 also
records peak memory.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

if __name__ == "__main__":
    from lefalg.cli import main

    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not trace_out:
        main()
    from tracing import Tracer

    tracer = Tracer(memory=os.environ.get("PERFBENCH_TRACE_MEMORY") == "1")
    tracer.install()
    try:
        main()
    finally:
        tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.take(), fh)
