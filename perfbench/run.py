"""The blobalg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each repetition runs the
workload's jobs back to back (closed loop, one process, one thread) in a
fresh interpreter with `BLOBALG_CACHE_DIR` removed and `PYTHONHASHSEED`
pinned, so every cache starts cold as it does for a command-line user.
Repetitions are started until the next one would end after S seconds; at
least one runs.

With `--trace 0` the end-to-end metrics are reported: set-up time from
process start to the first job (median over repetitions), wall time from
the first job to the last verdict (median), job latency p50/p90 pooled over
repetitions, and peak resident memory (median).  Times are in reference
seconds (`speed.py`): raw time corrected for the machine's drifting speed;
the raw times are kept in the record.  With `--trace 1` untraced and
traced repetitions alternate; the traced ones give the per-layer metrics
(`tracer.py`, raw seconds) and `trace.overhead_frac`, the traced over the
untraced wall time, minus 1.

Every job's outcome is checked against `expected.json`; a job whose
verdict or check count differs, or that raised, is counted as failed.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A record of the run (environment,
every repetition, failures) is written under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "blobalg")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 150.0  # stop starting repetitions after this, whatever --seconds says
HASH_SEED = "0"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BLOBALG_CACHE_DIR", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_child(workload: str, seed: int, trace: bool, deadline: float,
              spans_out: str = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
           "1" if trace else "0"]
    spawned_at = time.monotonic()
    cmd.append(repr(spawned_at))
    if spans_out:
        cmd.append(spans_out)
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=max(5.0, deadline - time.monotonic()),
                          universal_newlines=True)
    if proc.returncode != 0:
        raise RuntimeError("repetition exited with code %d" % proc.returncode)
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["elapsed_s"] = time.monotonic() - spawned_at
    return rep


def source_id() -> dict:
    """The commit when the checkout is a git repository, and a digest of the
    program's sources either way."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              universal_newlines=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def end_to_end(reps) -> dict:
    pooled = [x for rep in reps for x in rep["latencies"]]
    deciles = statistics.quantiles(pooled, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "job_p50_ms": (1000 * deciles[4], "ms"),
        "job_p90_ms": (1000 * deciles[8], "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def load_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def per_layer(untraced, traced, units) -> dict:
    """Counts from the first traced repetition (they repeat exactly), times
    as medians over the traced repetitions."""
    first = traced[0]["layers"]
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead_frac":
            value = (statistics.median(r["wall_s"] for r in traced)
                     / statistics.median(r["wall_s"] for r in untraced) - 1)
        elif unit == "s":
            value = statistics.median(r["layers"][name] for r in traced)
        else:
            value = first[name]
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print("error: no blobalg sources under %s" % os.path.relpath(SRC, ROOT),
              file=sys.stderr)
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    predictions = load_json(os.path.join(HERE, "predictions.json"))
    # the build: byte-compile the sources once, outside every timed region
    compileall.compile_dir(SRC, quiet=1)
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans_out = os.path.join(OUT, tag + ".spans.csv.gz")

    deadline = started + 170.0
    untraced, traced, durations = [], [], []
    t_measure = time.monotonic()
    while True:
        t0 = time.monotonic()
        try:
            untraced.append(run_child(args.workload, args.seed, False, deadline))
            if args.trace:
                traced.append(run_child(args.workload, args.seed, True, deadline,
                                        spans_out))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
            return 1
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - t_measure
        step = statistics.median(durations)
        if elapsed + step > min(args.seconds, RUN_LIMIT_S):
            break

    reps = untraced + traced
    attempted = sum(r["jobs"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    problems = []
    if args.trace:
        metrics = per_layer(untraced, traced,
                            {m["name"]: m["unit"] for m in bench["per_layer"]})
        # a wrapped name that silently stopped recording would read as a
        # speed-up; every count predicted nonzero on this workload must be
        for name in predictions["nonzero"][args.workload]:
            if not metrics[name][0]:
                problems.append("per-layer %s is 0, predicted nonzero" % name)
        counts = [{k: v for k, v in r["layers"].items() if not k.endswith("_s")}
                  for r in traced]
        if any(c != counts[0] for c in counts):
            problems.append("per-layer counts differ between traced repetitions")
    else:
        metrics = end_to_end(untraced)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "python": platform.python_version(),
              "nproc": os.cpu_count(), "hash_seed": HASH_SEED, **source_id(),
              "repetitions": len(untraced), "traced_repetitions": len(traced),
              "jobs_per_repetition": untraced[0]["jobs"],
              "latency_samples": sum(len(r["latencies"]) for r in untraced),
              "attempted": attempted, "failed": len(failures),
              "failed_frac": len(failures) / attempted,
              "failures": failures[:20], "problems": problems,
              "metrics": {k: v for k, (v, _u) in metrics.items()},
              "reps": [{k: v for k, v in r.items() if k != "latencies"}
                       for r in reps]}
    with open(os.path.join(OUT, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    print("# %s" % json.dumps({k: record[k] for k in (
        "workload", "seed", "trace", "commit", "src_sha256", "python", "nproc",
        "hash_seed", "repetitions", "traced_repetitions", "jobs_per_repetition",
        "latency_samples", "failed_frac")}))
    for failure in failures[:5]:
        print("# FAILED %s: %s" % (failure["job"], "; ".join(failure["problems"])))
    for problem in problems:
        print("# PROBLEM %s" % problem)
    for name, (value, unit) in metrics.items():
        print("# %-28s %14.6g %s" % (name, value, unit))
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
