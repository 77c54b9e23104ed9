"""Named verification suites shared by the CLI and the acceptance tests.

Each suite returns {"suite": name, "checks": {label: bool}, "passed": bool}
plus suite-specific extras; every check is an exact identity unless the
label says "modular", in which case it carries the stated trial count.  A
report without checks does not pass."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from . import calib as cb
from . import regions as rg
from . import schurweyl as sw
from . import words as wd
from .scalars import A0, AK, U, U0, UK, bb, qint

G = wd.GenExpr.word


def _report(suite: str, checks: Dict[str, bool], **extra) -> dict:
    out = {"suite": suite, "checks": checks, "passed": bool(checks) and all(checks.values())}
    out.update(extra)
    return out


def suite_relations(k: int = 2) -> dict:
    """The boundary-crossing relation sheet plus the cap-triple relations."""
    checks: Dict[str, bool] = {}
    ae1 = wd.ae(k, 1)
    aek1 = wd.ae(k, k - 1)

    def eq(label, lhs, rhs):
        ok, _diff = wd.verify_identity(lhs, rhs)
        checks[label] = ok

    for name, letters, lam in (("T0", [wd.T0], U0), ("T1", [wd.T(1)], U),
                               ("Tk", [wd.Tk], UK)):
        x = G(k, letters)
        eq("quadratic:%s" % name, x * x,
           x.scale(lam - lam.inv()) + wd.GenExpr.one(k))
    # the generators are eigenvectors of their own crossings, both sides
    for name, tpos, tneg, cap, lam in (
            ("e0", wd.T0, wd.T0inv, G(k, [wd.E0]), U0),
            ("ae1", wd.T(1), wd.T(1, -1), ae1, U),
            ("ek", wd.Tk, wd.Tkinv, G(k, [wd.Ek]), UK)):
        eq("eigen:%s" % name, G(k, [tpos]) * cap, cap.scale(-lam.inv()))
        eq("eigen:%s:right" % name, cap * G(k, [tpos]), cap.scale(-lam.inv()))
        eq("eigen:%s:inv" % name, G(k, [tneg]) * cap, cap.scale(-lam))
    eq("poleflip:ae1*T0*T1", ae1 * G(k, [wd.T0, wd.T(1)]),
       (ae1 * G(k, [wd.T0inv])).scale(U))
    eq("poleflip:T1*T0*ae1", G(k, [wd.T(1), wd.T0]) * ae1,
       (G(k, [wd.T0inv]) * ae1).scale(U))
    eq("poleflip:aek1*Tk*Tk1", aek1 * G(k, [wd.Tk, wd.T(k - 1)]),
       (aek1 * G(k, [wd.Tkinv])).scale(U))
    eq("poleflip:Tk1*Tk*aek1", G(k, [wd.T(k - 1), wd.Tk]) * aek1,
       (G(k, [wd.Tkinv]) * aek1).scale(U))
    eq("polebubble:left", ae1 * G(k, [wd.T0]) * ae1,
       ae1.scale(-U * (U0 - U0.inv())))
    eq("polebubble:right", aek1 * G(k, [wd.Tk]) * aek1,
       aek1.scale(-U * (UK - UK.inv())))
    e0w = G(k, [wd.E0])
    eq("wrap:e0T1T0T1e0",
       e0w * G(k, [wd.T(1, -1), wd.T0inv, wd.T(1, -1)]) * e0w,
       (e0w * ae1 * e0w).scale(-U.inv() * bb("t0"))
       - (e0w * e0w).scale(U ** -2 * U0))
    if k >= 3:
        ae2 = wd.ae(k, 2)
        eq("poleflip:odd", ae2 * G(k, [wd.T(1), wd.T0, wd.T(1), wd.T(2)]),
           (ae2 * G(k, [wd.T(1, -1), wd.T0inv, wd.T(1, -1)])).scale(U ** 3))
    for i in range(1, k - 1):
        aei, aei1 = wd.ae(k, i), wd.ae(k, i + 1)
        eq("triple:e%de%de%d" % (i, i + 1, i), aei * aei1 * aei, aei)
        eq("triple:e%de%de%d" % (i + 1, i, i + 1), aei1 * aei * aei1, aei1)
        eq("slide:e%dT%dT%d" % (i, i + 1, i),
           aei * G(k, [wd.T(i + 1), wd.T(i)]), (aei * aei1).scale(U))
        eq("slide:T%dT%de%d" % (i + 1, i, i + 1),
           G(k, [wd.T(i + 1), wd.T(i)]) * aei1, (aei * aei1).scale(U))
        eq("slide:e%dT%dT%d" % (i + 1, i, i + 1),
           aei1 * G(k, [wd.T(i), wd.T(i + 1)]), (aei1 * aei).scale(U))
        eq("slide:T%dT%de%d" % (i, i + 1, i),
           G(k, [wd.T(i), wd.T(i + 1)]) * aei, (aei1 * aei).scale(U))
        eq("slide:inv:e%d" % i,
           aei * G(k, [wd.T(i + 1, -1), wd.T(i, -1)]), (aei * aei1).scale(U.inv()))
        eq("slide:inv:e%d" % (i + 1),
           aei1 * G(k, [wd.T(i, -1), wd.T(i + 1, -1)]), (aei1 * aei).scale(U.inv()))
    eq("triple:e1e0e1", ae1 * G(k, [wd.E0]) * ae1, ae1.scale(bb("t0/t") / A0))
    eq("triple:ek", aek1 * G(k, [wd.Ek]) * aek1, aek1.scale(bb("tk/t") / AK))
    eq("braid:T0T1T0T1", G(k, [wd.T0, wd.T(1), wd.T0, wd.T(1)]),
       G(k, [wd.T(1), wd.T0, wd.T(1), wd.T0]))
    eq("braid:Tk", G(k, [wd.T(k - 1), wd.Tk, wd.T(k - 1), wd.Tk]),
       G(k, [wd.Tk, wd.T(k - 1), wd.Tk, wd.T(k - 1)]))
    return _report("relations(k=%d)" % k, checks)


def suite_theorem3(k: int = 4) -> dict:
    """Central-element expansion: the wall-wrapped diagram identities."""
    checks: Dict[str, bool] = {}

    def eq(label, lhs, rhs):
        ok, _diff = wd.verify_identity(lhs, rhs)
        checks[label] = ok

    if k % 2 == 0:
        i1 = wd.standard_element("I1", k)
        i2 = wd.standard_element("I2", k)
        eq("Leven", wd.standard_element("Leven", k), i1.scale(bb("tk/t") / AK))
        eq("Meven", wd.standard_element("Meven", k), i1.scale(bb("t0/t") / A0))
        eq("Peven", wd.standard_element("Peven", k), i1.scale(-bb("t")))
        eq("Deven", wd.standard_element("Deven", k),
           (i1 * i2 * i1).scale(A0 * AK) + i1.scale(bb("t0*tk/t")))
        eq("ZI1", wd.standard_element("ZI1", k),
           wd.standard_element("Deven", k).scale(qint(k)))
    else:
        i1 = wd.standard_element("I1", k)
        i2 = wd.standard_element("I2", k)
        m0 = -bb("t0") / A0
        eq("Lodd", wd.standard_element("Lodd", k),
           i2.scale(m0 * (bb("tk/t") / AK)))
        eq("Modd", wd.standard_element("Modd", k), i2.scale(m0))
        eq("Podd", wd.standard_element("Podd", k), i2.scale(m0 * (-bb("t"))))
        eq("Dodd", wd.standard_element("Dodd", k),
           ((i2 * i1 * i2).scale(A0 * AK) - i2.scale(bb("t0/tk")))
           .scale(U.inv() * m0))
        eq("ZI2", wd.standard_element("ZI2", k).scale(U.inv() * m0),
           wd.standard_element("Dodd", k).scale(qint(k)))
    return _report("theorem3(k=%d)" % k, checks)


def suite_presentation(k: int = 2, a: int = 6, b: int = 3, trials: int = 10,
                       seed: int = 0) -> dict:
    """Defining relations on every tensor-space module at level k.  The
    report states what ran: the mode and trial count of the modules' own
    checks (0 trials when exact), and each module's trial primes, the
    number of points its check discarded and the relations it decided on
    their reduced form."""
    params = sw.SWParams(a, b)
    checks: Dict[str, bool] = {}
    primes: Dict[str, list] = {}
    discarded: Dict[str, int] = {}
    reduced: Dict[str, list] = {}
    mode, ran = None, 0
    for (_l1, l) in sw.level_nodes(params, k):
        if sw.zero_multiplicity(params, k, l):
            continue
        module = sw.module_for(params, k, l)
        rep = cb.check_presentation(module, trials=trials, seed=seed)
        mode, ran = rep["mode"], rep["trials"]
        label = "l=%d(dim %d)" % (l, module.n)
        checks[label] = rep["passed"]
        primes[label] = rep["primes"]
        discarded[label] = rep["discarded"]
        reduced[label] = rep["reduced"]
    return _report("presentation(k=%d,%s)" % (k, mode), checks, trials=ran,
                   seed=seed, mode=mode, primes=primes, discarded=discarded,
                   reduced=reduced)


def suite_classification(k: int = 2, r1=Fraction(3, 2), r2=Fraction(11, 2),
                         bound=Fraction(7)) -> dict:
    """Matrix idempotent nullity against the two-row shape predicate over
    the exhaustive skew-region enumeration.  Each region's module is built
    right after its skew test, while its fillings are still cached.  A
    chart without a skew region is a `RegionError`."""
    params = rg.RegionParams(Fraction(r1), Fraction(r2))
    checks: Dict[str, bool] = {}
    blue = []
    for region in rg.enumerate_regions(k, params, bound):
        if not rg.is_skew(region):
            continue
        module = cb.build_module(cb.ModuleSpec(region))
        matrix_tl = cb.idempotent_nullity(module)["is_tl_module"]
        shape_tl = rg.is_tl_shape(region)
        cond_tl = rg.vanishing_predicates(region)["is_tl_module"]
        label = "c=%s J={%s}" % (",".join(str(v) for v in region.c),
                                 ",".join(rg.render_root(x) for x in
                                          sorted(region.J, key=rg.root_sort_key)))
        checks[label] = (matrix_tl == shape_tl == cond_tl)
        if shape_tl:
            blue.append(label)
    if not checks:
        raise rg.RegionError("no skew region at k=%d with weights c_i <= %s" % (k, bound))
    return _report("classification(k=%d)" % k, checks,
                   regions=len(checks), blue=blue)
