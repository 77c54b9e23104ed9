"""Command-line driver: dimensions, bases, products, regions, modules,
verification suites, and the tensor-space tables.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Only the
workbench's own input errors are usage errors; any other exception is an
internal fault and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import calib as cb
from . import diagrams as dg
from . import regions as rg
from . import schurweyl as sw
from . import words as wd
from .scalars import ScalarError, render

USAGE_ERROR = 2
CHECK_FAILED = 1


def _fail(msg: str) -> int:
    print("error: %s" % msg, file=sys.stderr)
    return USAGE_ERROR


def _fractions(text: str):
    try:
        return tuple(Fraction(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("not a comma list of rationals: %r" % text)


def _ints(text: str):
    try:
        return {int(v) for v in text.split(",")}
    except ValueError:
        raise argparse.ArgumentTypeError("not a comma list of integers: %r" % text)


def _int_from(minimum: int):
    """argparse type: an integer no smaller than `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("not an integer: %r" % text)
        if value < minimum:
            raise argparse.ArgumentTypeError("must be at least %d: %d" % (minimum, value))
        return value
    return parse


def cmd_dims(args) -> int:
    if args.k > args.max_k:
        return _fail("dims needs k <= %d" % args.max_k)
    if args.bound < 1:
        return _fail("dims needs --bound >= 1: the blob basis has wall grades 0 and 1")
    rows = []
    for k in range(1, args.k + 1):
        per_grade = {w: len(dg.enumerate_basis(k, {w}, max_wall_grade_bound=args.bound))
                     for w in range(0, args.bound + 1)}
        rows.append({"k": k, "blob_dim": per_grade[0] + per_grade[1], "per_grade": per_grade})
    if args.json:
        print(json.dumps(rows))
    else:
        for row in rows:
            grades = "  ".join("w=%d:%d" % (w, n) for w, n in row["per_grade"].items())
            print("k=%d: %d   (%s)" % (row["k"], row["blob_dim"], grades))
    return 0


def cmd_basis(args) -> int:
    basis = dg.enumerate_basis(args.k, args.grades, max_wall_grade_bound=args.bound)
    if args.json:
        print(json.dumps([dg.diagram_to_json(d) for d in basis]))
    else:
        for d in basis:
            print(repr(d))
        print("total: %d" % len(basis))
    return 0


def cmd_mul(args) -> int:
    factors = []
    for text in (args.x, args.y):
        if text.strip().startswith("{"):
            try:
                obj = json.loads(text)
            except ValueError as exc:  # malformed, or an integer past the digit limit
                return _fail("bad element JSON: %s" % exc)
            element = dg.element_from_json(obj)
            if element.k != args.k:
                return _fail("element JSON has k=%d but --k is %d" % (element.k, args.k))
            factors.append(element)
        else:
            factors.append(wd.expand_to_tl(wd.parse_genexpr(text, args.k)))
    x, y = factors
    product = dg.element_to_json(x * y)
    try:
        text = json.dumps(product)
    except ValueError as exc:  # a coefficient past sys.get_int_max_str_digits()
        return _fail("cannot print the product: %s" % exc)
    print(text)
    return 0


def _region(args) -> rg.LocalRegion:
    J = frozenset(rg.parse_root(s) for s in args.J.split(",")) if args.J else frozenset()
    return rg.LocalRegion(args.c, J, rg.RegionParams(args.r1, args.r2))


def _given(args, names) -> dict:
    """The options among `names` that were given: the callee's defaults stand."""
    return {name: getattr(args, name) for name in names if name in vars(args)}


def cmd_region(args) -> int:
    region = _region(args)
    config = rg.build_config(region)
    zset, pset = region.root_sets()
    out = {
        "region": rg.region_to_json(region),
        "Z": sorted(map(rg.render_root, zset)),
        "P": sorted(map(rg.render_root, pset)),
        "fillings": [list(f) for f in rg.enumerate_fillings(config)],
        "skew": rg.is_skew(region),
        "tl_shape": rg.is_tl_shape(region),
        "vanishing": {k2: v for k2, v in rg.vanishing_predicates(region).items()
                      if k2 != "witnesses"},
    }
    if args.json:
        print(json.dumps(out))
    else:
        print(rg.render_config(config))
        for key in ("Z", "P", "fillings", "skew", "tl_shape"):
            print("%s: %s" % (key, out[key]))
        print("vanishing: %s" % out["vanishing"])
    return 0


def _exact_refusal(args, k: int):
    """The usage error for --trials or --seed where the presentation at
    level k is checked exactly, which reads neither; None elsewhere."""
    given = [name for name in ("trials", "seed") if name in vars(args)]
    if k <= cb.EXACT_MAX_K and given:
        return "--%s is not read at k=%d: the presentation is checked exactly" % (given[0], k)
    return None


def cmd_module(args) -> int:
    refusal = _exact_refusal(args, len(args.c))
    if refusal:
        return _fail(refusal)
    module = cb.build_module(cb.ModuleSpec(_region(args), branch=args.branch))
    pres = cb.check_presentation(module, **_given(args, ("trials", "seed")))
    nul = cb.idempotent_nullity(module)
    out = {"dim": module.n,
           "symmetrizable": cb.symmetric_form(module) is not None,
           "presentation": {key: pres[key] for key in
                            ("mode", "passed", "witness", "trials", "seed", "primes")},
           "nullity": nul}
    try:
        cc = cb.central_character(module)
        out["central_character"] = {"z": render(cc["z"]),
                                    "matches_convention": cc.get("matches_convention")}
    except cb.CalibError as exc:
        cc = None
        out["central_character"] = {"error": str(exc)}
    if nul["is_tl_module"]:
        bc = cb.b_constant(module, cc)
        out["b"] = render(bc["b"]) if bc["b"] is not None else None
        out["b_verified"] = bc.get("verified")
    if args.matrices:
        n = module.n

        def dense(mat):
            return [[render(cb.mat_entry(mat, r, c)) for c in range(n)]
                    for r in range(n)]

        out["matrices"] = {
            **{"T%d" % i: dense(module.T[i]) for i in range(module.k)},
            "W": [[render(cb.mat_entry(module.W[i], j, j)) for j in range(n)]
                  for i in range(module.k)],
        }
    print(json.dumps(out))
    return 0 if pres["passed"] and out.get("b_verified") is not False else CHECK_FAILED


# each suite's own options of `verify`, as {argument of the suite: flag};
# any other suite refuses them
VERIFY_OPTIONS = {
    "presentation": {"trials": "--trials", "seed": "--seed"},
    "classification": {"r1": "--r1", "r2": "--r2", "bound": "--bound-diag"},
}


def cmd_verify(args) -> int:
    from . import verify as vf
    suite_fns = {"relations": vf.suite_relations, "theorem3": vf.suite_theorem3,
                 "presentation": vf.suite_presentation,
                 "classification": vf.suite_classification}
    for suite, options in VERIFY_OPTIONS.items():
        for name, flag in options.items():
            if name in vars(args) and suite != args.suite:
                return _fail("%s is an option of verify %s only" % (flag, suite))
    if args.suite in ("relations", "theorem3") and args.k < 2:
        return _fail("verify %s needs --k >= 2, got %d" % (args.suite, args.k))
    refusal = _exact_refusal(args, args.k) if args.suite == "presentation" else None
    if refusal:
        return _fail(refusal)
    report = suite_fns[args.suite](
        k=args.k, **_given(args, VERIFY_OPTIONS.get(args.suite, ())))
    print(json.dumps(report) if args.json else _render_report(report))
    return 0 if report["passed"] else CHECK_FAILED


def _render_report(report: dict) -> str:
    """The suite, what ran (mode, trials and seed, where the report states
    them), each check with its trial primes, discarded points and reduced
    relations, and the result."""
    lines = ["suite: %s" % report["suite"]]
    primes, reduced = report.get("primes", {}), report.get("reduced", {})
    if "mode" in report:
        lines.append("mode: %s  trials: %d  seed: %d"
                     % (report["mode"], report["trials"], report["seed"]))
    for name, ok in report["checks"].items():
        lines.append("  %-50s %s" % (name, "pass" if ok else "FAIL"))
        if primes.get(name):
            lines.append("    primes: %s" % " ".join(map(str, primes[name])))
            lines.append("    discarded: %d" % report["discarded"][name])
        if reduced.get(name):
            lines.append("    reduced: %s" % " ".join(reduced[name]))
    lines.append("result: %s" % ("pass" if report["passed"] else "FAIL"))
    return "\n".join(lines)


def cmd_schurweyl(args) -> int:
    # --out is the graph's file; without it the graph alone is printed
    if args.out and not args.dot:
        return _fail("--out names the file for --dot")
    if args.dot and not args.out and (args.dims or args.bvalues):
        return _fail("--dot prints only the graph: give --out FILE to add "
                     "--dims or --bvalues")
    try:
        params = sw.SWParams(args.a, args.b)
    except sw.SchurWeylError as exc:
        return _fail(str(exc))
    out = {}
    if args.dims or not (args.dot or args.bvalues):
        out["dims"] = sw.sw_table(params, args.k)
        out["dim_sum_ok"] = sw.dim_check_sum(params, args.k)
    if args.dot:
        br = sw.bratteli(params, args.k)
        dot = sw.bratteli_dot(br)
        if args.out:
            try:
                with open(args.out, "w") as f:
                    f.write(dot)
            except OSError as exc:  # the path is the user's, like any option
                return _fail(str(exc))
        else:
            print(dot)
            return 0
    if args.bvalues:
        rows = []
        for (l1, l) in sw.level_nodes(params, args.k):
            if sw.zero_multiplicity(params, args.k, l):
                continue
            rep = sw.gn_b_values(params, args.k, l)
            rows.append({"l": l, "agrees": rep["agrees"],
                         "b_gn": render(rep["b_gn"])})
        out["b_values"] = rows
    if out:
        print(json.dumps(out))
    return 0


def cmd_figure1(args) -> int:
    from . import verify as vf
    report = vf.suite_classification(k=2, **_given(args, ("r1", "r2", "bound")))
    print(json.dumps(report) if args.json else _render_report(report))
    return 0 if report["passed"] else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="blobalg",
                                 description="two-boundary Temperley-Lieb workbench")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    # --seed is left unset when omitted, so that a command can refuse it
    ap.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                    help="seed for randomized checks (verify presentation, module)")
    # the same flags are accepted after the subcommand without clobbering
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    # a local region, read by `region` and `module`
    region = argparse.ArgumentParser(add_help=False)
    region.add_argument("--c", type=_fractions, required=True,
                        help="comma list, e.g. 1/2,3/2")
    region.add_argument("--J", default="", help="comma list of roots, e.g. e2,e3-e2")
    region.add_argument("--r1", type=Fraction, required=True)
    region.add_argument("--r2", type=Fraction, required=True)
    # the chart of `figure1` and `verify classification`, left unset when
    # omitted: suite_classification's defaults stand
    chart = argparse.ArgumentParser(add_help=False)
    unset = dict(type=Fraction, default=argparse.SUPPRESS, help="classification chart")
    chart.add_argument("--r1", **unset)
    chart.add_argument("--r2", **unset)
    chart.add_argument("--bound-diag", dest="bound", metavar="BOUND_DIAG", **unset)
    sub = ap.add_subparsers(dest="command", parser_class=argparse.ArgumentParser)

    def add_parser(name, *parents, **kw):
        return sub.add_parser(name, parents=[shared, *parents], **kw)

    p = add_parser("dims", help="blob-basis dimension table")
    p.add_argument("--k", type=_int_from(1), required=True)
    p.add_argument("--bound", type=int, default=dg.WALL_GRADE_BOUND)
    p.add_argument("--max-k", type=int, default=6)
    p.set_defaults(fn=cmd_dims)

    p = add_parser("basis", help="enumerate basis diagrams")
    p.add_argument("--k", type=_int_from(1), required=True)
    p.add_argument("--grades", type=_ints, default="0,1")
    p.add_argument("--bound", type=int, default=dg.WALL_GRADE_BOUND)
    p.set_defaults(fn=cmd_basis)

    p = add_parser("mul", help="multiply generator expressions or elements")
    p.add_argument("--k", type=_int_from(1), required=True)
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=cmd_mul)

    p = add_parser("region", region, help="inspect a local region")
    p.set_defaults(fn=cmd_region)

    p = add_parser("module", region, help="build a calibrated module and check it")
    p.add_argument("--branch", type=int, default=1, choices=(1, -1))
    # unset when omitted, so that an exact check can refuse it
    p.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    p.add_argument("--matrices", action="store_true")
    p.set_defaults(fn=cmd_module)

    p = add_parser("verify", chart, help="run a verification suite")
    p.add_argument("suite", choices=("relations", "theorem3", "presentation",
                                     "classification"))
    p.add_argument("--k", type=_int_from(1), default=2)
    # a suite's own options are left unset when omitted, so that another
    # suite can refuse them (VERIFY_OPTIONS names them)
    p.add_argument("--trials", type=int, default=argparse.SUPPRESS,
                   help="presentation only")
    p.set_defaults(fn=cmd_verify)

    p = add_parser("schurweyl", help="tensor-space tables and graphs")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=_int_from(0), default=3)
    p.add_argument("--dims", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--bvalues", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_schurweyl)

    p = add_parser("figure1", chart, help="rank-2 classification chart data")
    p.set_defaults(fn=cmd_figure1)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "command", None):
        ap.print_help()
        return USAGE_ERROR
    if "seed" in vars(args) and args.command not in ("module", "verify"):
        return _fail("--seed is an option of verify presentation and module only")
    try:
        return args.fn(args)
    except (rg.RegionError, cb.CalibError, dg.DiagramError, wd.WordError,
            sw.SchurWeylError, ScalarError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
