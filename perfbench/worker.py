"""One round of an in-process workload, in a fresh interpreter with cold memos.

Usage: python3 perfbench/worker.py WORKLOAD SEED SPAWNED_AT TRACE

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start, ``import schubert_kit`` and building the inputs.  With
TRACE = 1 the timing wrappers are installed before the inputs are built,
so set-up calls are traced too.  Prints one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import schubert_kit from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import schubert_kit
    import schubert_kit.gcm
    import schubert_kit.polyring
    import schubert_kit.ranktwo
    import schubert_kit.rings
    import schubert_kit.schubert
    import schubert_kit.weyl

    where = os.path.realpath(schubert_kit.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"schubert_kit was imported from {where}, not from {SRC}")
    return schubert_kit


def main(argv):
    workload, seed, spawned_at, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, Round, make_rng

    sk = import_program()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    spec = WORKLOADS[workload]()
    inputs = spec.setup(sk, make_rng(workload, seed))
    rnd = Round()
    setup_s = time.monotonic() - spawned_at
    out = spec.run(sk, inputs, rnd)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    prim = tracer.primitives() if tracer else None
    spec.check(inputs, out, rnd)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_probe_s": rnd.first_probe_s,
        "peak_rss_mib": peak_kib / 1024,
        "segments": rnd.segments,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "failures": rnd.failures[:20],
        "errors": rnd.errors[:20],
        "prim": prim,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
