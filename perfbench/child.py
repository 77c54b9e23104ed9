"""One repetition of a workload, run by `run.py` in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE SPAWNED_AT [SPANS_OUT]

SPAWNED_AT is the parent's `time.monotonic()` just before it started this
process, so that set-up time counts interpreter start-up, `import blobalg`
and input generation.  Prints one JSON object: the set-up time, each job's
latency, the wall time from the first job to the last verdict (all in
reference seconds, see `speed.py`, and the raw set-up and wall times), the
peak resident memory, the failed jobs and, when traced, the per-layer
metrics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def run_jobs(jobs, tracer=None):
    """Run the jobs back to back; returns (times, failures) where times
    holds each job's raw (start, end) on the monotonic clock."""
    times = []
    failures = []
    for job in jobs:
        t0 = time.monotonic()
        span = tracer.enter("bench.job") if tracer else None
        try:
            outcome = job.run()
            error = None
        except Exception as exc:  # a raising job is a failed verdict
            outcome, error = None, "%s: %s" % (type(exc).__name__, exc)
        finally:
            if tracer:
                tracer.leave(span)
        times.append((t0, time.monotonic()))
        if error is None:
            try:
                problems = job.gate(outcome)
            except Exception as exc:
                problems = ["malformed outcome: %s: %s" % (type(exc).__name__, exc)]
        else:
            problems = [error]
        if problems:
            failures.append({"job": job.name, "problems": problems})
    return times, failures


def main(argv) -> int:
    workload, seed, trace, spawned_at = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    from speed import SpeedClock
    clock = SpeedClock()
    clock.start()
    import workloads

    import blobalg  # noqa: F401  (set-up includes the import)
    jobs = workloads.build(workload, seed)
    tracer = None
    if trace:
        from blobalg import calib, cli, diagrams, regions, scalars, schurweyl, verify, words
        from tracer import Tracer
        tracer = Tracer()
        tracer.install({"scalars": scalars, "diagrams": diagrams, "words": words,
                        "regions": regions, "calib": calib, "schurweyl": schurweyl,
                        "verify": verify, "cli": cli})
    t_first = time.monotonic()
    times, failures = run_jobs(jobs, tracer)
    t_last = time.monotonic()
    clock.stop()
    ref = clock.converter()
    out = {"setup_s": ref(spawned_at, t_first), "wall_s": ref(t_first, t_last),
           "latencies": [ref(a, b) for a, b in times],
           "raw_setup_s": t_first - spawned_at, "raw_wall_s": t_last - t_first,
           "reference_median_s": clock.median_reference(), "speed_samples": len(clock.at),
           "jobs": len(jobs), "failures": failures,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        if len(argv) > 4:
            tracer.write_spans(argv[4])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
