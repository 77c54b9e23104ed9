"""Self-test of the benchmark's own machinery; takes a few seconds.

    python3 perfbench/selftest.py

Shows that (1) self time derived from a synthetic nested span list is
right, and the tracer records nesting, counts and outermost spans as
expected; (2) a flipped verdict and a deliberately wrong expected value are
caught by the verdict gate; (3) a report that passes after checking fewer
checks or trials than expected is caught.  Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit("FAIL %s" % what)
    print("ok   %s" % what)


def test_self_time() -> None:
    # A[0,10] holds B[1,4] (which holds C[2,3]) and D[5,9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    check(tracer.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0],
          "self time on a synthetic nested span list")

    tr = tracer.Tracer()

    leaf_t = tr.wrap("x.leaf", lambda: 1)
    rec_t = tr.wrap("x.rec", lambda n: leaf_t() + (rec_t(n - 1) if n else 0))
    check(rec_t(3) == 4, "wrapped calls return the wrapped result")
    names = [tr.names[i] for i in tr.name]
    check(names.count("x.rec") == 4 and names.count("x.leaf") == 4,
          "one span per wrapped call")
    check(list(tr.outer) == [1, 1, 0, 1, 0, 1, 0, 1]
          and [tr.names[tr.name[p]] if p >= 0 else None for p in tr.parent]
          == [None, "x.rec", "x.rec", "x.rec", "x.rec", "x.rec", "x.rec", "x.rec"],
          "parents and outermost flags of nested spans")
    selfs = tracer.self_times(tr.parent, tr.start, tr.end)
    check(abs(sum(selfs) - (tr.end[0] - tr.start[0])) < 1e-9,
          "self times of one call tree sum to its root span")


def test_verdict_gate() -> None:
    from blobalg import verify as vf
    expected = workloads.load_expected()
    rep = vf.suite_theorem3(2)
    gate = workloads.report_gate(expected["diagram_calculus"]["theorem3"]["2"])
    check(gate(rep) == [], "a correct theorem3 report passes the gate")
    flipped = copy.deepcopy(rep)
    flipped["checks"]["Leven"] = False
    check(gate(flipped) != [], "a flipped verdict is caught")

    # a deliberately wrong expected value fails a real job run through the gate
    wrong = copy.deepcopy(expected)
    regions = wrong["exact_chart"]["chart"]["regions"]
    label = min(regions, key=len)
    regions[label] = not regions[label]
    jobs = [j for j in workloads.build("exact_chart", 1, wrong)
            if j.name == "region " + label]
    _times, failures = child.run_jobs(jobs)
    check(len(failures) == 1, "a wrong expected chart verdict fails its job")
    raising = workloads.Job("raises", lambda: 1 / 0, workloads.truth_gate)
    _times, failures = child.run_jobs([raising])
    check(len(failures) == 1, "a job that raises is counted as failed")


def test_check_counts() -> None:
    from blobalg import calib as cb
    from blobalg import schurweyl as sw
    expected = workloads.load_expected()
    key, e = sorted(expected["tensor_space"]["modular_presentation"].items())[0]
    module = sw.module_for(sw.SWParams(6, 3), e["k"], e["l"])
    # trials=0 checks nothing yet reports passed
    vacuous = cb.check_presentation(module, trials=0, exact=False, seed=1)
    gate = workloads.presentation_gate(e)
    check(vacuous["passed"] and gate((module.n, vacuous)) != [],
          "a vacuous trials=0 pass on %s is caught" % key)
    fewer = cb.check_presentation(module, trials=1, exact=False, seed=1)
    fewer["relations"].pop(sorted(fewer["relations"])[0])
    fewer["trials"] = e["trials"]
    check(gate((module.n, fewer)) != [], "a report missing one relation is caught")
    from blobalg import verify as vf
    rep = vf.suite_relations(2)
    rep["checks"].pop(next(iter(rep["checks"])))
    check(workloads.report_gate(expected["diagram_calculus"]["relations"]["2"])(rep) != [],
          "a suite report with one check fewer is caught")


if __name__ == "__main__":
    test_self_time()
    test_verdict_gate()
    test_check_counts()
    print("selftest passed")
