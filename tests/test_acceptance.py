"""Acceptance suite: one test per criterion, one printed verdict line each.

All arithmetic is exact; the only randomized checks are the modular
presentation trials, run at 10 points on 62-bit primes with the seed
printed in the verdict line.
"""

import random
import time
from fractions import Fraction as F

from blobalg import calib as cb
from blobalg import diagrams as dg
from blobalg import schurweyl as sw
from blobalg import verify as vf
from blobalg.scalars import AK, bb

SEED = 20260808
P63 = sw.SWParams(6, 3)


def verdict(n, label, ok, extra=""):
    print("ACCEPTANCE %2d %-28s %s%s" % (n, label, "PASS" if ok else "FAIL",
                                         " " + extra if extra else ""))
    assert ok, "criterion %d failed: %s" % (n, label)


def test_01_dimension_counts():
    t0 = time.time()
    counts = [len(dg.enumerate_basis(k, {0, 1})) for k in range(1, 6)]
    elapsed = time.time() - t0
    ok = counts == [5, 19, 84, 335, 1428] and elapsed < 60
    verdict(1, "blob dimensions k=1..5", ok,
            "counts=%s %.1fs" % (counts, elapsed))


def test_02_worked_product():
    T, B, L, R = (lambda i: ("T", i)), (lambda i: ("B", i)), \
        (lambda j: ("L", j)), (lambda j: ("R", j))
    d1 = dg.make_diagram(5, 0, 2, [(T(1), T(4)), (T(2), T(3)), (B(4), B(5)),
                                   (B(2), R(1)), (B(3), R(2)), (B(1), T(5))])
    d2 = dg.make_diagram(5, 2, 2, [(T(4), T(5)), (B(4), B(5)), (B(2), B(3)),
                                   (T(2), R(2)), (T(3), R(1)), (B(1), L(2)),
                                   (T(1), L(1))])
    coeff, prod = dg.multiply_diagrams(d1, d2)
    expected_coeff = (-bb("t")) * (-bb("tk") / AK) * (bb("tk/t") / AK)
    expected = dg.make_diagram(5, 2, 0, [(T(1), T(4)), (T(2), T(3)),
                                         (B(4), B(5)), (B(2), B(3)),
                                         (T(5), L(1)), (B(1), L(2))])
    verdict(2, "worked five-strand product",
            coeff == expected_coeff and prod == expected)


def test_03_relation_sheet():
    ok = True
    for k in (2, 3, 4):
        rep = vf.suite_relations(k)
        ok = ok and rep["passed"]
    verdict(3, "relation sheet k=2,3,4", ok)


def test_04_central_element_expansion():
    ok = True
    for k in (2, 3, 4, 5):
        rep = vf.suite_theorem3(k)
        ok = ok and rep["passed"]
    verdict(4, "wall-wrap expansion k=2..5", ok)


def test_05_module_presentations():
    ok = True
    detail = []
    for k in (1, 2, 3, 4):
        trials = 10 if k >= 3 else 0
        rep = vf.suite_presentation(k=k, trials=10, seed=SEED)
        ok = ok and rep["passed"] and rep["trials"] == trials
        ok = ok and all(len(primes) == trials for primes in rep["primes"].values())
        detail.append("k=%d:%s" % (k, rep["mode"]))
    verdict(5, "calibrated module relations", ok,
            "%s seed=%d" % (",".join(detail), SEED))


def test_06_classification_equivalence():
    rep = vf.suite_classification(k=2, r1=F(3, 2), r2=F(11, 2), bound=F(7))
    verdict(6, "rank-2 classification chart", rep["passed"],
            "%d skew regions, %d in the quotient locus"
            % (rep["regions"], len(rep["blue"])))


def test_07_central_characters():
    ok = True
    for k in (1, 2, 3, 4):
        for (_l1, l) in sw.level_nodes(P63, k):
            if sw.zero_multiplicity(P63, k, l):
                continue
            rep = cb.central_character(sw.module_for(P63, k, l))
            ok = ok and rep["scalar"] and rep["matches_convention"]
    verdict(7, "central characters k<=4", ok)


def test_08_b_constants():
    ok = True
    defined = 0
    for k in (2, 3):
        for (_l1, l) in sw.level_nodes(P63, k):
            if sw.zero_multiplicity(P63, k, l):
                continue
            module = sw.module_for(P63, k, l)
            rep = sw.gn_b_values(P63, k, l, module=module)
            ok = ok and rep["a0ak_identity"]
            if rep["defined"]:
                defined += 1
                bc = cb.b_constant(module)
                ok = ok and bc["verified"] and rep["agrees"] is True
    verdict(8, "blob parameter cross-check", ok and defined >= 6,
            "%d modules with nonzero cup projector" % defined)


def test_09_tensor_space_dimensions():
    ok = True
    for k in range(10):
        for (_l1, l) in sw.level_nodes(P63, k):
            p = sw.dim_B(P63, k, l, "paths")
            f = sw.dim_B(P63, k, l, "formula")
            g = sw.dim_B(P63, k, l, "fillings")
            ok = ok and (p == f == g)
        ok = ok and sw.dim_check_sum(P63, k)
    # published weight data reproduced verbatim
    _, r1_, _ = sw.lambda_to_region(P63, 3, 5)
    ok = ok and r1_.J == frozenset({("e", 2)}) \
        and r1_.c == (F(1, 2), F(3, 2), F(5, 2))
    _, r2_, _ = sw.lambda_to_region(P63, 9, 8)
    ok = ok and r2_.J == frozenset({("e", 3), ("d", 2, 3), ("d", 4, 5),
                                    ("d", 6, 7)})
    _, r3_, _ = sw.lambda_to_region(P63, 3, 2)
    ok = ok and r3_.J == frozenset() and r3_.c == (F(7, 2), F(9, 2), F(11, 2))
    verdict(9, "tensor-space dimensions k<=9", ok)


def test_10_property_suites():
    rng = random.Random(SEED)
    ok = True
    # associativity, 100 random triples over k <= 4, wall grades <= 2
    for trial in range(100):
        k = rng.choice((2, 3, 4))
        pool = dg.enumerate_basis(k, {0, 1, 2})
        x, y, z = (dg.TLElement.from_diagram(rng.choice(pool)) for _ in range(3))
        ok = ok and (x * y) * z == x * (y * z)
    # reduction order independence, 100 cases
    for trial in range(100):
        k = rng.choice((2, 3))
        pool = dg.enumerate_basis(k, {0, 1, 2})
        x, y = rng.choice(pool), rng.choice(pool)
        base = dg.multiply_diagrams(x, y)
        ok = ok and dg.multiply_diagrams(x, y, fold_rng=rng) == base
    # serialization round trips, 100 cases
    pool = dg.enumerate_basis(3, {0, 1, 2})
    for trial in range(100):
        d = rng.choice(pool)
        ok = ok and dg.diagram_from_json(dg.diagram_to_json(d)) == d
    verdict(10, "randomized property suites", ok, "seed=%d" % SEED)
