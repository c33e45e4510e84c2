"""Run the command line with the timing wrappers installed.

Usage: python3 perfbench/cli_launcher.py <schubert-kit arguments>

The traced cli workload starts each child through this file instead of
``python -m schubert_kit``.  It imports ``schubert_kit.cli`` from this
checkout, records the start-up time since the parent's
PERFBENCH_SPAWNED_AT, installs the wrappers, calls ``cli.main`` and writes
the reduced spans to PERFBENCH_TRACE_OUT once, on the way out, whether the
command returned, exited or raised.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[0:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import schubert_kit.cli as cli  # noqa: E402
from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.count("cli.startup_s", time.monotonic() - float(os.environ["PERFBENCH_SPAWNED_AT"]))
tracer.count("cli.invocations")
tracer.install()
try:
    code = cli.main(sys.argv[1:])
finally:
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump(tracer.primitives(), fh)
sys.exit(code)
