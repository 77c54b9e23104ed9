"""The benchmark workloads: inputs made from the seed, the jobs a researcher
waits on, and the verdict gate each job's outcome must pass.

A job is one verdict: one identity or suite call, one region's module
verdict, one module's presentation report, or one dimension row (all
nodes of one tensor-space level).  Each
workload is a list of `Job`s run back to back in one process and thread.
`gate(outcome)` returns the list of ways the outcome differs from the
expected value recorded in `expected.json` (empty when it passes); a report
that passes after checking fewer relations, trials or checks than expected
is a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from typing import Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("diagram_calculus", "exact_chart", "tensor_space")


class Job:
    __slots__ = ("name", "run", "gate")

    def __init__(self, name: str, run: Callable[[], object],
                 gate: Callable[[object], List[str]]):
        self.name = name
        self.run = run
        self.gate = gate


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def report_gate(expected_checks: List[str]) -> Callable[[dict], List[str]]:
    """A suite report passes every one of exactly the expected checks."""
    def gate(rep: dict) -> List[str]:
        bad = []
        labels = sorted(rep["checks"])
        if labels != sorted(expected_checks):
            bad.append("checks %d, expected %d" % (len(labels), len(expected_checks)))
        failing = [k for k, ok in rep["checks"].items() if ok is not True]
        if failing:
            bad.append("failing checks %s" % failing[:3])
        if rep["passed"] is not True:
            bad.append("passed=%r" % rep["passed"])
        return bad
    return gate


def presentation_gate(expected: dict) -> Callable[[tuple], List[str]]:
    """A presentation report on a module of the expected dimension, in the
    expected mode, over exactly the expected relations and trial count."""
    def gate(outcome) -> List[str]:
        dim, rep = outcome
        bad = []
        if dim != expected["dim"]:
            bad.append("dim %d, expected %d" % (dim, expected["dim"]))
        if rep["mode"] != expected["mode"]:
            bad.append("mode %s" % rep["mode"])
        if sorted(rep["relations"]) != sorted(expected["relations"]):
            bad.append("relations %d, expected %d"
                       % (len(rep["relations"]), len(expected["relations"])))
        if rep["trials"] != expected["trials"]:
            bad.append("trials %r, expected %d" % (rep["trials"], expected["trials"]))
        failing = [k for k, ok in rep["relations"].items() if ok is not True]
        if failing or rep["passed"] is not True or rep["witness"] is not None:
            bad.append("failing relations %s" % failing[:3])
        return bad
    return gate


def truth_gate(outcome) -> List[str]:
    return [] if outcome is True else ["verdict %r" % (outcome,)]


def equal_gate(expected) -> Callable[[object], List[str]]:
    def gate(outcome) -> List[str]:
        return [] if outcome == expected else ["got %r, expected %r" % (outcome, expected)]
    return gate


# ---------------------------------------------------------------------------
# diagram_calculus
# ---------------------------------------------------------------------------

def _diagram_calculus(rng: random.Random, exp: dict) -> List[Job]:
    from blobalg import cli
    from blobalg import diagrams as dg
    from blobalg import verify as vf

    jobs = []
    for k in (2, 3, 4, 5):
        jobs.append(Job("theorem3 k=%d" % k, lambda k=k: vf.suite_theorem3(k),
                        report_gate(exp["theorem3"][str(k)])))
    for k in (2, 3, 4):
        jobs.append(Job("relations k=%d" % k, lambda k=k: vf.suite_relations(k),
                        report_gate(exp["relations"][str(k)])))

    def dims():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["dims", "--k", "5", "--json"])
        return code, json.loads(out.getvalue())

    jobs.append(Job("cli dims --k 5", dims, _dims_gate(exp)))

    # the seeded property suite of acceptance criterion 10; the seed picks
    # the diagrams, while the number of cases per strand count is fixed so
    # that the mix of case sizes does not vary between seeds
    pools = {k: dg.enumerate_basis(k, {0, 1, 2}) for k in (2, 3, 4)}
    per_kind = exp["property_cases"] // 3
    for i in range(per_kind):
        k = (2, 3, 4)[i % 3]
        x, y, z = (dg.TLElement.from_diagram(rng.choice(pools[k])) for _ in range(3))
        jobs.append(Job("assoc %d" % i,
                        lambda x=x, y=y, z=z: (x * y) * z == x * (y * z), truth_gate))
    for i in range(per_kind):
        k = (2, 3)[i % 2]
        x, y = rng.choice(pools[k]), rng.choice(pools[k])
        fold_seed = rng.randrange(1 << 32)
        jobs.append(Job("fold %d" % i, lambda x=x, y=y, s=fold_seed:
                        dg.multiply_diagrams(x, y, fold_rng=random.Random(s))
                        == dg.multiply_diagrams(x, y), truth_gate))
    for i in range(per_kind):
        d = rng.choice(pools[3])
        jobs.append(Job("json %d" % i, lambda d=d:
                        dg.diagram_from_json(dg.diagram_to_json(d)) == d, truth_gate))
    rng.shuffle(jobs)
    return jobs


def _dims_gate(exp: dict) -> Callable[[tuple], List[str]]:
    rows = exp["dims_rows"]
    counts = exp["basis_counts"]

    def gate(outcome) -> List[str]:
        code, got = outcome
        bad = []
        if code != 0:
            bad.append("exit code %r" % code)
        if [r["blob_dim"] for r in got] != counts:
            bad.append("blob dims %s" % [r["blob_dim"] for r in got])
        if got != rows:
            bad.append("dims rows differ")
        return bad
    return gate


# ---------------------------------------------------------------------------
# exact_chart
# ---------------------------------------------------------------------------

def region_label(region) -> str:
    from blobalg import regions as rg
    return "c=%s J={%s}" % (",".join(str(v) for v in region.c),
                            ",".join(rg.render_root(x) for x in
                                     sorted(region.J, key=rg.root_sort_key)))


def _exact_chart(rng: random.Random, exp: dict) -> List[Job]:
    from blobalg import calib as cb
    from blobalg import regions as rg
    from blobalg import schurweyl as sw

    chart = exp["chart"]
    params = rg.RegionParams(Fraction(chart["r1"]), Fraction(chart["r2"]))
    regions = [r for r in rg.enumerate_regions(2, params, Fraction(chart["bound"]))
               if rg.is_skew(r)]
    expected_regions = chart["regions"]
    jobs = []
    for region in regions:
        label = region_label(region)

        def run(region=region):
            module = cb.build_module(cb.ModuleSpec(region))
            nul = cb.idempotent_nullity(module)
            return (nul, rg.is_tl_shape(region),
                    rg.vanishing_predicates(region)["is_tl_module"])

        jobs.append(Job("region " + label, run,
                        _region_gate(expected_regions.get(label), chart["nullity_checks"])))
    # an expected region the enumeration no longer produces is a failed job
    produced = {j.name[len("region "):] for j in jobs}
    for label in sorted(set(expected_regions) - produced):
        jobs.append(Job("region " + label, lambda: None,
                        lambda _o, label=label: ["region %s not enumerated" % label]))

    p = sw.SWParams(exp["a"], exp["b"])
    for key, e in sorted(exp["exact_presentation"].items()):
        k, l = e["k"], e["l"]

        def run(k=k, l=l):
            module = sw.module_for(p, k, l)
            return module.n, cb.check_presentation(module, exact=True)

        jobs.append(Job("exact presentation " + key, run, presentation_gate(e)))
    rng.shuffle(jobs)
    return jobs


def _region_gate(in_quotient, checks: List[str]) -> Callable[[tuple], List[str]]:
    def gate(outcome) -> List[str]:
        nul, shape_tl, cond_tl = outcome
        bad = []
        if in_quotient is None:
            bad.append("unexpected region")
        if sorted(nul["vanish"]) != sorted(checks):
            bad.append("nullity checks %s" % sorted(nul["vanish"]))
        matrix_tl = nul["is_tl_module"]
        if not (matrix_tl == shape_tl == cond_tl == in_quotient):
            bad.append("matrix %r shape %r conditions %r expected %r"
                       % (matrix_tl, shape_tl, cond_tl, in_quotient))
        return bad
    return gate


# ---------------------------------------------------------------------------
# tensor_space
# ---------------------------------------------------------------------------

def _tensor_space(rng: random.Random, exp: dict) -> List[Job]:
    from blobalg import calib as cb
    from blobalg import schurweyl as sw

    p = sw.SWParams(exp["a"], exp["b"])
    jobs = []
    for key, e in sorted(exp["modular_presentation"].items()):
        k, l = e["k"], e["l"]
        trial_seed = rng.randrange(1 << 31)

        def run(k=k, l=l, trials=e["trials"], s=trial_seed):
            module = sw.module_for(p, k, l)
            return module.n, cb.check_presentation(
                module, trials=trials, exact=False, seed=s,
                prime_bits=exp["prime_bits"])

        jobs.append(Job("modular presentation " + key, run, presentation_gate(e)))
    levels: Dict[int, Dict[int, int]] = {}
    for key, dim in exp["dims"].items():
        k, l = (int(v) for v in key.split(","))
        levels.setdefault(k, {})[l] = dim
    for k, dims in sorted(levels.items()):
        # one row of the dimension table: every node at level k counted
        # three ways, and the dimension sum over the level
        def run(k=k):
            return ({l: [sw.dim_B(p, k, l, method) for method in
                         ("paths", "formula", "fillings")]
                     for (_l1, l) in sw.level_nodes(p, k)},
                    sw.dim_check_sum(p, k))

        jobs.append(Job("dimension row k=%d" % k, run,
                        equal_gate(({l: [d] * 3 for l, d in dims.items()}, True))))
    rng.shuffle(jobs)
    return jobs


JOB_LISTS: Dict[str, Callable[[random.Random, dict], List[Job]]] = {
    "diagram_calculus": _diagram_calculus,
    "exact_chart": _exact_chart,
    "tensor_space": _tensor_space,
}


def build(workload: str, seed: int, expected: dict = None) -> List[Job]:
    """The workload's jobs; the same seed gives the same jobs."""
    exp = (expected or load_expected())[workload]
    return JOB_LISTS[workload](random.Random("%s/%d" % (workload, seed)), exp)
