"""Diagram engine: canonical forms, the stacking product, enumeration."""

import functools
import hashlib
import itertools
import json
import random

import pytest

from blobalg import diagrams as dg
from blobalg import scalars as sc
from blobalg.scalars import A0, AK, bb

T = lambda i: ("T", i)
B = lambda i: ("B", i)
L = lambda j: ("L", j)
R = lambda j: ("R", j)


def through_strands(d):
    """The number of top-to-bottom lines of d."""
    return sum(1 for a, b in d.pairs if {a[0], b[0]} == {"T", "B"})


def wall_grade(d):
    """The number of wall-to-wall lines of d."""
    return sum(1 for a, b in d.pairs if {a[0], b[0]} == {"L", "R"})


class TestMakeDiagram:
    def test_identity(self):
        d = dg.make_diagram(2, 0, 0, [(T(1), B(1)), (T(2), B(2))])
        assert d == dg.identity_diagram(2)
        assert through_strands(d) == 2

    def test_e0_picture(self):
        d = dg.make_diagram(1, 2, 0, [(T(1), L(1)), (B(1), L(2))])
        assert d == dg.e0_diagram(1)

    def test_crossing_rejected(self):
        with pytest.raises(dg.DiagramError) as err:
            dg.make_diagram(2, 0, 0, [(T(1), B(2)), (T(2), B(1))])
        assert err.value.reason == "crossing"

    def test_degree_violation(self):
        with pytest.raises(dg.DiagramError) as err:
            dg.make_diagram(2, 0, 0, [(T(1), B(1)), (T(1), B(2))])
        assert err.value.reason == "degree"

    def test_same_wall_arc_rejected(self):
        with pytest.raises(dg.DiagramError) as err:
            dg.make_diagram(1, 4, 0, [(L(1), L(2)), (L(3), T(1)), (L(4), B(1))])
        assert err.value.reason == "same_wall"

    def test_odd_wall_rejected(self):
        with pytest.raises(dg.DiagramError) as err:
            dg.make_diagram(1, 1, 1, [(T(1), L(1)), (B(1), R(1))])
        assert err.value.reason == "wall_parity"

    def test_bad_node_rejected(self):
        with pytest.raises(dg.DiagramError) as err:
            dg.make_diagram(2, 0, 0, [(T(1), B(1)), (T(2), B(3))])
        assert err.value.reason == "bad_node"

    def test_self_paired_rejected(self):
        with pytest.raises(dg.DiagramError) as err:
            dg.make_diagram(1, 0, 0, [(T(1), T(1)), (B(1), B(1))])
        assert err.value.reason == "degree" and "self-paired" in str(err.value)

    def test_imperfect_matching_rejected(self):
        with pytest.raises(dg.DiagramError) as err:
            dg.make_diagram(2, 0, 0, [(T(1), B(1))])
        assert err.value.reason == "degree"


def _seeded_products():
    """Products of 2,000 seeded basis pairs at k = 2..5."""
    rng = random.Random(2000)
    out = []
    for k in (2, 3, 4, 5):
        pool = dg.enumerate_basis(k, {0, 1, 2})
        for _ in range(500):
            out.append(dg.multiply_diagrams(rng.choice(pool), rng.choice(pool)))
    return out


# sha256 of the lines "render(coeff)|diagram JSON|repr" of `_seeded_products`,
# recorded with the node-pair encoding (commit b00d301)
_SEEDED_PRODUCTS_SHA256 = "8b44bd856d83927ad3b96809b4736c1dd1138a8f3643b38c37d6ba9def9b650d"


# sha256 of the `repr` lists of `enumerate_basis(k, S)` for k = 1..5 and every
# nonempty S of {0..4} (sizes 1..5, each in `itertools.combinations` order),
# recorded when the basis was sorted by its node pairs (commit 3bed3be)
_BASIS_ORDER_SHA256 = "2c7fd88a3d6eb70696aeae444b7f8a9dc29646ac906c3a5cc5fb612a12821015"

# sha256 per (k, w) of the lines "L R partner-tuple" of `enumerate_basis(k, {w})`,
# recorded before the capacity tables were shared between calls (commit 4faaab0)
_BASIS_K56_SHA256 = {
    (5, 0): "6389ce2e4b0910fc6230ca8fb0135acfaaeddee8c04ded59edc55a2805a369ca",
    (5, 1): "66068742d185c2d198067b3cbdfa1e80aaf29f3f0b52071e4566c3959931e5ec",
    (5, 2): "3336ec611034389ac4cd05d5f02ab0a1f4de416f5b2170caf8595f1b067ba7a8",
    (5, 3): "2119f8ea36d6cdff500a113b78ce0322fbca1bd7eaa9712aedf425d4fc7ab8c3",
    (5, 4): "73213ac569ea4729cfea052cb8d35c927dc675803903ffba8ac5049296c9e757",
    (6, 0): "03ec6438365f307f9dd20769aa20bb3417f0e54fbe3b8d9a0fd2b7d42ba96aaa",
    (6, 1): "0708ba5640eb601b3e8ad4b5e72160fa3fdf1b7279ea12f1f03597e5c9d01b79",
    (6, 2): "27704fb0027f38b8af0277e5bb2264f7e9d6bb8a407f71a79530b36002ccce6d",
    (6, 3): "67cbd30db0b6778239023ca53ad936e3f242fc8d9d7447c3e360435aeb577253",
    (6, 4): "26db2703e56d92bc9c40a36bb880ff7ca4f25ff3938fdd6a98e0728721787a1a",
}


class TestUncheckedBuilders:
    """The basis search and the product build diagrams without the checks
    of `make_diagram`; what they build must pass them unchanged."""

    def test_basis_diagrams_pass_the_checks(self):
        for k in range(1, 5):
            for d in dg.enumerate_basis(k, {0, 1, 2, 3, 4}):
                assert dg.make_diagram(d.k, d.L, d.R, d.pairs) == d

    def test_products_pass_the_checks(self):
        digest = hashlib.sha256()
        for coeff, d in _seeded_products():
            assert dg.make_diagram(d.k, d.L, d.R, d.pairs) == d
            digest.update(("%s|%s|%r\n" % (sc.render(coeff), json.dumps(dg.diagram_to_json(d)),
                                           d)).encode())
        assert digest.hexdigest() == _SEEDED_PRODUCTS_SHA256


class TestGenerators:
    def test_inner_cap(self):
        d = dg.e_diagram(2, 1)
        assert d == dg.make_diagram(2, 0, 0, [(T(1), T(2)), (B(1), B(2))])

    def test_right_hooks(self):
        d = dg.ek_diagram(1)
        assert d == dg.make_diagram(1, 0, 2, [(T(1), R(1)), (B(1), R(2))])

    def test_out_of_range(self):
        with pytest.raises(dg.DiagramError):
            dg.e_diagram(3, 5)


class TestMultiply:
    def test_cap_squared_is_loop(self):
        e1 = dg.e_diagram(2, 1)
        coeff, d = dg.multiply_diagrams(e1, e1)
        assert d == e1
        assert coeff == -bb("t")

    def test_e0_squared(self):
        e0 = dg.e0_diagram(1)
        coeff, d = dg.multiply_diagrams(e0, e0)
        assert d == e0
        assert coeff == -bb("t0") / A0

    def test_ek_squared(self):
        ek = dg.ek_diagram(3)
        coeff, d = dg.multiply_diagrams(ek, ek)
        assert d == ek and coeff == -bb("tk") / AK

    def test_e1_e0_e1(self):
        k = 2
        E0 = dg.TLElement.from_diagram(dg.e0_diagram(k))
        E1 = dg.TLElement.from_diagram(dg.e_diagram(k, 1))
        assert E1 * E0 * E1 == E1.scale(bb("t0/t") / A0)

    def test_worked_product(self):
        d1 = dg.make_diagram(5, 0, 2, [
            (T(1), T(4)), (T(2), T(3)), (B(4), B(5)),
            (B(2), R(1)), (B(3), R(2)), (B(1), T(5))])
        d2 = dg.make_diagram(5, 2, 2, [
            (T(4), T(5)), (B(4), B(5)), (B(2), B(3)),
            (T(2), R(2)), (T(3), R(1)), (B(1), L(2)), (T(1), L(1))])
        coeff, prod = dg.multiply_diagrams(d1, d2)
        assert coeff == (-bb("t")) * (-bb("tk") / AK) * (bb("tk/t") / AK)
        expected = dg.make_diagram(5, 2, 0, [
            (T(1), T(4)), (T(2), T(3)), (B(4), B(5)), (B(2), B(3)),
            (T(5), L(1)), (B(1), L(2))])
        assert prod == expected

    def test_mismatched_k(self):
        with pytest.raises(dg.DiagramError):
            dg.multiply_diagrams(dg.identity_diagram(2), dg.identity_diagram(3))
        # a sum would put a k = 3 diagram into a k = 2 element
        x, y = dg.TLElement.one(2), dg.TLElement.one(3)
        for combine in (lambda: x + y, lambda: x - y, lambda: x * y):
            with pytest.raises(dg.DiagramError) as exc:
                combine()
            assert exc.value.reason == "mixed_k"

    def test_product_invariants_random(self):
        rng = random.Random(31)
        pool = dg.enumerate_basis(3, {0, 1, 2})
        for _ in range(200):
            x = rng.choice(pool)
            y = rng.choice(pool)
            coeff, d = dg.multiply_diagrams(x, y)
            assert d.L % 2 == 0 and d.R % 2 == 0
            for a, b in d.pairs:
                assert not (a[0] == b[0] and a[0] in ("L", "R"))

    def test_associativity_random(self):
        rng = random.Random(32)
        for k in (2, 3, 4):
            pool = dg.enumerate_basis(k, {0, 1, 2})
            for _ in range(30):
                x, y, z = (dg.TLElement.from_diagram(rng.choice(pool))
                           for _ in range(3))
                assert (x * y) * z == x * (y * z)

    def test_reduction_order_independence(self):
        # coefficients come from the frozen glued picture, so folding the
        # removed components in any order gives the same element
        rng = random.Random(33)
        pool = dg.enumerate_basis(2, {0, 1, 2})
        for _ in range(100):
            x = rng.choice(pool)
            y = rng.choice(pool)
            base_coeff, base = dg.multiply_diagrams(x, y)
            for _trial in range(3):
                coeff, d = dg.multiply_diagrams(x, y, fold_rng=rng)
                assert coeff == base_coeff and d == base


def _reference_matchings(nodes, target_lines):
    """The unpruned matching search, kept as the oracle for the pruned one."""
    out, pairs = [], []

    def rec(segments, lines):
        if lines > target_lines:
            return
        if not segments:
            if lines == target_lines:
                out.append(list(pairs))
            return
        seg, rest = segments[0], segments[1:]
        if not seg:
            rec(rest, lines)
            return
        a = nodes[seg[0]]
        for pos in range(1, len(seg), 2):
            b = nodes[seg[pos]]
            if a[0] in ("L", "R") and a[0] == b[0]:
                continue
            is_line = a[0] in ("L", "R") and b[0] in ("L", "R")
            pairs.append((a, b))
            rec((seg[1:pos], seg[pos + 1:]) + rest, lines + (1 if is_line else 0))
            pairs.pop()

    rec((tuple(range(len(nodes))),), 0)
    return out


def _partner_tuple(nodes, pairs):
    pos = {n: p for p, n in enumerate(nodes)}
    partner = [None] * len(nodes)
    for a, b in pairs:
        partner[pos[a]], partner[pos[b]] = pos[b], pos[a]
    return tuple(partner)


def _mirror(d):
    """d reflected left to right: T_i -> T_(k+1-i), B_i -> B_(k+1-i),
    L_j <-> R_j."""
    def node(n):
        kind, i = n
        if kind in ("T", "B"):
            return (kind, d.k + 1 - i)
        return ("R" if kind == "L" else "L", i)
    return dg.make_diagram(d.k, d.R, d.L, [(node(a), node(b)) for a, b in d.pairs])


def _flip(d):
    """d reflected top to bottom: T_i <-> B_i, L_j -> L_(L+1-j),
    R_j -> R_(R+1-j)."""
    def node(n):
        kind, i = n
        if kind in ("T", "B"):
            return ("B" if kind == "T" else "T", i)
        return (kind, (d.L if kind == "L" else d.R) + 1 - i)
    return dg.make_diagram(d.k, d.L, d.R, [(node(a), node(b)) for a, b in d.pairs])


def _swap_walls(c):
    """c with u0 <-> uk and a0 <-> ak, the coefficient side of the mirror;
    a product coefficient has no denominator."""
    assert c.den == ()
    return sc.Scalar(sc.LaurentPoly({(e[0], e[2], e[1], e[4], e[3]): v
                                     for e, v in c.num.terms.items()}))


def _symmetry_failures(k):
    """How many pairs (x, y) of basis diagrams of wall grade <= 2 at k fail
    mirror(xy) = mirror(x) mirror(y), with the walls' parameters swapped,
    and how many fail flip(xy) = flip(y) flip(x), with equal coefficients."""
    basis = dg.enumerate_basis(k, {0, 1, 2})
    images = [(x, _mirror(x), _flip(x)) for x in basis]
    mirror = flip = 0
    for x, mx, fx in images:
        for y, my, fy in images:
            c, d = dg.multiply_diagrams(x, y)
            mirror += dg.multiply_diagrams(mx, my) != (_swap_walls(c), _mirror(d))
            flip += dg.multiply_diagrams(fy, fx) != (c, _flip(d))
    return mirror, flip


class TestSymmetries:
    def test_products_respect_mirror_and_flip(self):
        for k in (1, 2, 3):
            assert _symmetry_failures(k) == (0, 0), k

    def test_mirror_catches_a_one_wall_fault(self, monkeypatch):
        # a wrong left-wall arc factor breaks the mirror on the products
        # that remove such an arc; the flip maps each wall to itself
        _clear_caches()
        monkeypatch.setitem(dg._ARC, ("L", 0), dg._ARC[("L", 0)] * sc.Scalar.from_int(2))
        try:
            assert _symmetry_failures(2) == (294, 0)
        finally:
            monkeypatch.undo()
            _clear_caches()


class TestEnumeration:
    def test_matchings_edge_cases(self):
        assert dg._matchings([], 0) == [()]
        assert dg._matchings([], 1) == []
        nodes = dg._boundary_order(2, 2, 2)
        assert dg._matchings(nodes, -1) == []
        # two points on each wall hold at most two wall-to-wall lines
        assert len(dg._matchings(nodes, 2)) == 1
        assert dg._matchings(nodes, 3) == []

    def test_basis_closed_under_mirror_and_flip(self):
        for k in range(0, 5):
            for w in range(0, 5):
                basis = set(dg.enumerate_basis(k, {w}))
                assert {_mirror(d) for d in basis} == basis, (k, w)
                assert {_flip(d) for d in basis} == basis, (k, w)

    def test_negative_k_refused(self):
        assert dg.enumerate_basis(0, {0}) == [dg.TLDiagram(0, 0, 0, ())]
        with pytest.raises(dg.DiagramError) as exc:
            dg.enumerate_basis(-1, {0})
        assert exc.value.reason == "k"

    def test_fractional_k_refused(self):
        with pytest.raises(dg.DiagramError, match="2.5") as exc:
            dg.enumerate_basis(2.5, {0})
        assert exc.value.reason == "k"
        assert dg.enumerate_basis(2.0, {0, 1}) == dg.enumerate_basis(2, {0, 1})

    def test_fractional_grade_refused(self):
        with pytest.raises(dg.DiagramError) as exc:
            dg.enumerate_basis(2, [1.5])
        assert exc.value.reason == "grade"
        assert dg.enumerate_basis(2, [1.0]) == dg.enumerate_basis(2, {1})

    def test_matchings_equal_unpruned_search(self):
        cases = 0
        for k in range(1, 5):
            for w in range(0, 5):
                for L in range(0, 2 * k + 2 * w + 1, 2):
                    for R in range(0, 2 * k + 2 * w + 1, 2):
                        nodes = dg._boundary_order(k, L, R)
                        got = dg._matchings(nodes, w)
                        want = [_partner_tuple(nodes, pairs)
                                for pairs in _reference_matchings(nodes, w)]
                        assert got == want, (k, w, L, R)
                        cases += bool(got)
        assert cases > 100

    def test_dims_row_k6(self, capsys):
        from blobalg import cli
        assert cli.main(["dims", "--k", "6", "--json"]) == 0
        row = json.loads(capsys.readouterr().out)[-1]
        assert row == {"k": 6, "blob_dim": 5748,
                       "per_grade": {"0": 3900, "1": 1848, "2": 2248,
                                     "3": 1848, "4": 2248}}

    def test_blob_dimensions_small(self):
        for k, expected in [(1, 5), (2, 19), (3, 84)]:
            assert len(dg.enumerate_basis(k, {0, 1})) == expected

    def test_grade_zero_k1(self):
        basis = dg.enumerate_basis(1, {0})
        assert len(basis) == 3
        assert dg.identity_diagram(1) in basis
        assert dg.e0_diagram(1) in basis
        assert dg.ek_diagram(1) in basis

    def test_unbounded_refused(self):
        with pytest.raises(dg.DiagramError):
            dg.enumerate_basis(2, {0, 9})

    def test_wall_grade_values(self):
        for d in dg.enumerate_basis(2, {1}):
            assert wall_grade(d) == 1

    def test_basis_order(self):
        digest = hashlib.sha256()
        for k in range(1, 6):
            for r in range(1, 6):
                for grades in itertools.combinations(range(5), r):
                    basis = dg.enumerate_basis(k, grades)
                    digest.update(("\n".join(repr(d) for d in basis) + "\n\n").encode())
        assert digest.hexdigest() == _BASIS_ORDER_SHA256

    def test_basis_k5_k6_digests(self):
        # past the reach of the unpruned reference search (k <= 4)
        for (k, w), want in _BASIS_K56_SHA256.items():
            digest = hashlib.sha256()
            for d in dg.enumerate_basis(k, {w}):
                digest.update(("%d %d %s\n" % (d.L, d.R, d.partner)).encode())
            assert digest.hexdigest() == want, (k, w)


@pytest.fixture
def fresh_room():
    dg._room.cache_clear()
    yield
    dg._room.cache_clear()


@pytest.mark.usefixtures("fresh_room")
class TestRoomTables:
    def test_cold_and_cached_tables_agree(self):
        for k in range(1, 5):
            for L in range(0, 2 * k + 5, 2):
                for R in range(0, 2 * k + 5, 2):
                    nodes = dg._boundary_order(k, L, R)
                    for w in range(0, 5):
                        dg._room.cache_clear()
                        cold = dg._matchings(nodes, w)
                        assert dg._room.cache_info().misses == 1
                        assert dg._matchings(nodes, w) == cold, (k, L, R, w)
                        assert dg._room.cache_info().hits == 1

    def test_one_table_per_pattern(self):
        # the pattern (k, L, R) = (3, 2, 2) at two grades: built once
        nodes = dg._boundary_order(3, 2, 2)
        dg._matchings(nodes, 0)
        dg._matchings(nodes, 2)
        info = dg._room.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # grades 0..4 at k = 3 ask for 24 patterns 42 times
        dg._room.cache_clear()
        dg.enumerate_basis(3, range(5))
        info = dg._room.cache_info()
        assert (info.misses, info.hits) == (24, 42 - 24)

    def test_dims_k8_within_bound(self, capsys):
        from blobalg import cli
        assert cli.main(["dims", "--k", "8", "--max-k", "8", "--json"]) == 0
        row = json.loads(capsys.readouterr().out)[-1]
        assert row == {"k": 8, "blob_dim": 97287,
                       "per_grade": {"0": 66969, "1": 30318, "2": 35218,
                                     "3": 30318, "4": 35218}}
        info = dg._room.cache_info()
        # the 324 patterns of k = 1..8 are each built once, 64 at most kept
        assert info.maxsize == 64 and info.currsize == 64
        assert info.misses == 324


def _clear_caches():
    dg._product.cache_clear()
    dg._fold_coeff.cache_clear()


@pytest.fixture
def fresh_caches():
    _clear_caches()
    yield
    _clear_caches()


def _cache_state():
    return dg._product.cache_info(), dg._fold_coeff.cache_info()


@pytest.mark.usefixtures("fresh_caches")
class TestProductMemo:
    def _pairs(self, n, seed):
        rng = random.Random(seed)
        pool = dg.enumerate_basis(3, {0, 1, 2})
        return [(rng.choice(pool), rng.choice(pool)) for _ in range(n)]

    def test_memo_equals_fresh_product(self):
        pairs = self._pairs(500, 61)
        memo = [dg.multiply_diagrams(x, y) for x, y in pairs]
        assert dg._product.cache_info().currsize
        for (x, y), value in zip(pairs, memo):
            _clear_caches()
            fresh = dg.multiply_diagrams(x, y)
            assert fresh == value
            assert dg.multiply_diagrams(x, y) is fresh  # a cache hit

    def test_fold_rng_bypasses_memo(self, monkeypatch):
        x, y = dg.e0_diagram(2), dg.e0_diagram(2)
        truth = dg.multiply_diagrams(x, y)
        for a, b in self._pairs(50, 62):
            dg.multiply_diagrams(a, b)
        before = _cache_state()
        for a, b in self._pairs(50, 63) + [(x, y)]:
            dg.multiply_diagrams(a, b, fold_rng=random.Random(1))
        assert _cache_state() == before
        # a wrong cached product or coefficient is returned by the cached
        # path but never reaches the shuffled one
        poisoned = (sc.qint(7), dg.identity_diagram(2))
        monkeypatch.setattr(dg, "_product", lambda a, b: poisoned)
        monkeypatch.setattr(dg, "_fold_coeff", lambda loops, parities: sc.qint(7))
        assert dg.multiply_diagrams(x, y) == poisoned
        assert dg.multiply_diagrams(x, y, fold_rng=random.Random(2)) == truth

    def test_cap_bounds_memo(self, monkeypatch):
        assert dg._product.cache_info().maxsize == 1 << 15
        assert dg._fold_coeff.cache_info().maxsize is not None
        monkeypatch.setattr(dg, "_product",
                            functools.lru_cache(maxsize=8)(dg._product.__wrapped__))
        pairs = self._pairs(200, 64)
        got = []
        for x, y in pairs:
            got.append(dg.multiply_diagrams(x, y))
            assert dg._product.cache_info().currsize <= 8
        monkeypatch.undo()
        assert got == [dg.multiply_diagrams(x, y) for x, y in pairs]

    def test_equal_diagrams_share_an_entry(self):
        x, y = dg.e0_diagram(3), dg.e_diagram(3, 1)
        value = dg.multiply_diagrams(x, y)
        x2, y2 = (dg.diagram_from_json(dg.diagram_to_json(d)) for d in (x, y))
        assert x2 == x and x2 is not x and y2 == y and y2 is not y
        info = dg._product.cache_info()
        assert dg.multiply_diagrams(x2, y2) is value
        after = dg._product.cache_info()
        assert (after.hits, after.misses) == (info.hits + 1, info.misses)


class TestFiltration:
    def test_identity_counts(self):
        ident = dg.identity_diagram(4)
        assert through_strands(ident) == 4
        assert through_strands(ident) <= 4 and not through_strands(ident) <= 3

    def test_cap_has_none(self):
        assert through_strands(dg.e_diagram(2, 1)) == 0

    def test_e0_k2(self):
        assert through_strands(dg.e0_diagram(2)) == 1

    def test_e1_in_k3(self):
        assert through_strands(dg.e_diagram(3, 1)) <= 1


class TestSerialization:
    def test_identity_json(self):
        blob = dg.diagram_to_json(dg.identity_diagram(1))
        assert blob == {"k": 1, "L": 0, "R": 0, "pairs": [["T1", "B1"]]}

    def test_round_trip_random(self):
        rng = random.Random(44)
        pool = dg.enumerate_basis(3, {0, 1, 2})
        for _ in range(100):
            d = rng.choice(pool)
            assert dg.diagram_from_json(json.loads(json.dumps(dg.diagram_to_json(d)))) == d

    def test_element_round_trip(self):
        x = dg.TLElement(2, {dg.identity_diagram(2): sc.qint(3),
                            dg.e_diagram(2, 1): -bb("t0") / A0})
        assert dg.element_from_json(dg.element_to_json(x)) == x

    def test_wrong_shape_json_rejected(self):
        ident = dg.diagram_to_json(dg.identity_diagram(1))
        for obj in (1, [], {"k": 1}, dict(ident, k="1"), dict(ident, L=True),
                    dict(ident, pairs=[["T1"]]), dict(ident, pairs=[[1, 2]])):
            with pytest.raises(dg.DiagramError):
                dg.diagram_from_json(obj)
        # the pair count is checked before the boundary of a huge k is built
        with pytest.raises(dg.DiagramError, match="pairs for"):
            dg.diagram_from_json({"k": 10 ** 5, "L": 0, "R": 0, "pairs": [["T1", "B1"]]})
        for obj in ({"terms": []}, {"k": 1, "terms": {}}, {"k": 1, "terms": [1]},
                    {"k": 1, "terms": [{"coeff": sc.to_json(sc.ONE)}]},
                    {"k": 1, "terms": [{"coeff": 1, "diagram": ident}]}):
            with pytest.raises(dg.DiagramError):
                dg.element_from_json(obj)

    def test_repeated_diagram_json_rejected(self):
        # two terms naming one diagram are refused, not summed or overwritten
        ident = dg.diagram_to_json(dg.identity_diagram(1))
        term = {"coeff": sc.to_json(sc.U), "diagram": ident}
        with pytest.raises(dg.DiagramError, match="repeats the diagram") as exc:
            dg.element_from_json({"k": 1, "terms": [term, term]})
        assert exc.value.reason == "json" and "T1-B1" in str(exc.value)

    def test_crossing_json_rejected(self):
        with pytest.raises(dg.DiagramError):
            dg.diagram_from_json({"k": 2, "L": 0, "R": 0,
                                  "pairs": [["T1", "B2"], ["T2", "B1"]]})
