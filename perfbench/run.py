"""Benchmark entry point: one workload, whole rounds for a fixed time, one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is invariants, coxeter, rank2, cli, or all (each in turn, one JSON
line per workload with an extra "workload" key).

A round is the workload's fixed set of operations, drawn from the seed, run
in fresh interpreters so that every memo starts cold: one worker process
for ``invariants``, ``coxeter`` and ``rank2``, one child per command for
``cli``.  Rounds repeat until S seconds have passed; every round runs to its
end and is checked.  With ``--trace 0`` the end-to-end metrics are medians
over rounds; wall and CPU time are summed over the timed segments (a named
group of operations, or one command) from each segment's median.  Times
are rescaled to the reference speed of ``speed.probe`` (see speed.py),
because other tenants of the shared machine change its speed by up to 2x.  With ``--trace 1``
untraced and traced rounds alternate; the per-layer metrics are medians
over the traced rounds, and the tracing overhead is their wall time against
the untraced rounds'.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
Without src/schubert_kit in the checkout the command exits 2 at once.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import REFERENCE_S  # noqa: E402

WORKLOADS = ("invariants", "coxeter", "rank2", "cli")
ROUND_LIMIT_S = 120

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
TRACE_EXTRA = {"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_ratio": "ratio",
               "machine.probe_s": "s"}


def worker_round(workload, seed, traced):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed)]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + [repr(spawned_at), "1" if traced else "0"], cwd=ROOT,
                          capture_output=True, text=True, timeout=ROUND_LIMIT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} worker exited with {proc.returncode}")
    res = json.loads(proc.stdout.splitlines()[-1])
    res["prims"] = [res.pop("prim")] if traced else []
    return res


def run_rounds(workload, args, tmpdir):
    from cli_workload import commands, run_round
    from workloads import make_rng

    cmds = commands(make_rng("cli", args.seed)) if workload == "cli" else None
    rounds = []
    start = time.monotonic()
    while True:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        if cmds is not None:
            res = run_round(ROOT, cmds, traced, tmpdir)
        else:
            res = worker_round(workload, args.seed, traced)
        rounds.append((traced, res))
        enough = args.trace == 0 or len(rounds) >= 2
        if enough and time.monotonic() - start >= args.seconds:
            return rounds


def median_of(rounds, key):
    return statistics.median(res[key] for res in rounds)


def scaled_setup(rounds):
    """Median set-up time, each rescaled to the probe's reference speed."""
    return statistics.median(res["setup_s"] * REFERENCE_S / res["setup_probe_s"] for res in rounds)


def scaled_segments(rounds, index):
    """Sum over timed segments of each segment's median rescaled time.

    index 0 is wall time, 1 is CPU time.  Each segment's time is rescaled by
    REFERENCE_S over the mean speed probe taken around it, then its median
    over rounds is taken; the rounds are identical, so the sum estimates one
    round at the reference speed.
    """
    names = rounds[0]["segments"]
    return sum(
        statistics.median(res["segments"][name][index] * REFERENCE_S / res["segments"][name][2]
                          for res in rounds)
        for name in names
    )


def probe_median(rounds):
    """Median probe time: how slow the machine ran during the run."""
    return statistics.median(seg[2] for res in rounds for seg in res["segments"].values())


def summarize(workload, args, rounds):
    from tracing import METRICS, layer_metrics, merge

    plain = [res for traced, res in rounds if not traced]
    traced = [res for traced_, res in rounds if traced_]
    if args.trace == 0:
        values = {"setup_s": scaled_setup(plain), "wall_s": scaled_segments(plain, 0),
                  "cpu_s": scaled_segments(plain, 1), "peak_rss_mib": median_of(plain, "peak_rss_mib")}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        per_round = [layer_metrics(merge(res["prims"])) for res in traced]
        metrics = {name: {"value": statistics.median_low(m[name] for m in per_round), "unit": unit}
                   for name, (_fn, unit, _better) in METRICS.items()}
        wall_t, wall_u = scaled_segments(traced, 0), scaled_segments(plain, 0)
        values = {"trace.wall_s": wall_t, "trace.untraced_wall_s": wall_u,
                  "trace.overhead_ratio": wall_t / wall_u, "machine.probe_s": probe_median(plain)}
        metrics.update({name: {"value": values[name], "unit": unit} for name, unit in TRACE_EXTRA.items()})
    errors = [e for _t, res in rounds for e in res["errors"]]
    failures = sorted({f for _t, res in rounds for f in res["failures"]})
    for line in errors[:20]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for line in failures[:20]:
        print(f"operation failed: {line}", file=sys.stderr)
    print(f"{workload}: {len(rounds)} rounds ({len(traced)} traced)", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(res["attempted"] for _t, res in rounds),
        "failed": sum(res["failed"] for _t, res in rounds),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="one workload, or all four in turn (one JSON line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "schubert_kit", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/schubert_kit is missing", file=sys.stderr)
        return 2
    tmp_parent = os.path.join(ROOT, ".perfbench_tmp")
    tmpdir = os.path.join(tmp_parent, str(os.getpid()))
    os.makedirs(tmpdir, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            result = summarize(name, args, run_rounds(name, args, tmpdir))
            print(json.dumps(result if len(names) == 1 else {"workload": name, **result}), flush=True)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
