"""Diagram engine: canonical forms, the stacking product, enumeration."""

import functools
import hashlib
import itertools
import json
import math
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
# recorded when the basis search listed every grade (commit 4faaab0)
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

# the same digests at grades 5 and 6 for k <= 6, beyond the unpruned
# search's reach, recorded at commit b5019f6; the comments count the diagrams
_BASIS_GRADE56_SHA256 = {
    (0, 5): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",  # 0
    (0, 6): "76ca9dcc30aa0d622a3657a491b78a79682991e42173eb3242295ab842bd6bb0",  # 1
    (1, 5): "d05321d211dd01f8cc93958a4ec167769a60c35177293d6220f4fdc7df80e6ff",  # 2
    (1, 6): "880f5bc83570ea83f5eb5b8c4907615c15d06a996300f700b72fa981eb2e34b4",  # 2
    (2, 5): "8c28f1a56e6f1f54a60313098ad7f54987c8a3fc176e490bd4c085180fd49651",  # 6
    (2, 6): "414b9fcfc7690d73528f9505a6d15d5a2883a275e180dfab72f222ce4331b495",  # 10
    (3, 5): "447b4d4578fccfd25294f105a0faa9e63a832d7258d8be6aa69096a4b0f816c7",  # 32
    (3, 6): "9541034728f1ddbf808eb57dc1a4a80d903a98126b53783dd33583a8fd81beb1",  # 32
    (4, 5): "e6f4a5b786cdf53f583286de67ddee2e757cbd4c6901d36884abd5fe3a6818d9",  # 110
    (4, 6): "33fe06c4c07d25e86be93b70fb21100f9e254d7891821321fced3dd26f5a6c64",  # 146
    (5, 5): "5c9eb7462b45e624d1f6905246c8b93d2f1f310264b356f2084384fa3972da05",  # 512
    (5, 6): "6b985e4ae3186fc5b4f1cd938974f05775c6b384f5cf8416fa040bf42ff7cf05",  # 512
    (6, 5): "15134e37693512a52531256cb37e682dc7932a0addcc11938e398684ed48fa55",  # 1848
    (6, 6): "8dc8e800f3b5b47a3167ee010ed6c6fdc3bf7337e3a0634adbf910971bee05a8",  # 2248
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


def _reference_matchings(kinds, target_lines):
    """The unpruned matching search, kept as the oracle for the pruned one:
    the partner tuples of the non-crossing perfect matchings of the points
    of `kinds`, a string of node kinds, with no same-wall arc and exactly
    `target_lines` wall-to-wall edges."""
    out, partner = [], [None] * len(kinds)

    def rec(segments, lines):
        if lines > target_lines:
            return
        if not segments:
            if lines == target_lines:
                out.append(tuple(partner))
            return
        seg, rest = segments[0], segments[1:]
        if not seg:
            rec(rest, lines)
            return
        a = kinds[seg[0]]
        for pos in range(1, len(seg), 2):
            b = kinds[seg[pos]]
            if a in ("L", "R") and a == b:
                continue
            is_line = a in ("L", "R") and b in ("L", "R")
            partner[seg[0]], partner[seg[pos]] = seg[pos], seg[0]
            rec((seg[1:pos], seg[pos + 1:]) + rest, lines + (1 if is_line else 0))

    rec((tuple(range(len(kinds))),), 0)
    return out


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
        # every string of 0..8 points over L, R and a dot (T and B are read
        # alike), among them the grade-0 and the half patterns: the search
        # lists the zero-line matchings of the unpruned one, in its order,
        # and finds some exactly at even length with at most half wall points
        for n in range(9):
            for kinds in map("".join, itertools.product("LRT", repeat=n)):
                got = dg._matchings(kinds)
                assert got == _reference_matchings(kinds, 0), kinds
                walls = n - kinds.count("T")
                assert bool(got) == (n % 2 == 0 and 2 * walls <= n), kinds

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

    def test_grade_zero_sub_bases(self):
        # the grade-0 diagrams with no right-wall point are a basis of the
        # blob algebra, C(2k, k) of them (Martin & Saleur 1994), and those
        # with no wall point one of TL_k, the Catalan number C_k
        blob, tl = [], []
        for k in range(1, 8):
            basis = dg.enumerate_basis(k, {0})
            blob.append(sum(d.R == 0 for d in basis))
            tl.append(sum(d.L == d.R == 0 for d in basis))
        assert blob == [math.comb(2 * k, k) for k in range(1, 8)] \
            == [2, 6, 20, 70, 252, 924, 3432]
        assert tl == [math.comb(2 * k, k) // (k + 1) for k in range(1, 8)] \
            == [1, 2, 5, 14, 42, 132, 429]

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

    def test_blocks_equal_the_sorted_search(self):
        # above grade 0 a block is built from its upper and lower halves,
        # with no search and no sort over its diagrams; for k, w <= 4 the
        # unpruned search, sorted by `pairs`, is the oracle, and past its
        # reach the recorded digests
        for k in range(0, 7):
            for w in range(0, 7):
                basis = dg.enumerate_basis(k, {w}, max_wall_grade_bound=6)
                keys = [(d.L, d.R) for d in basis]
                assert keys == sorted(keys), (k, w)
                if k <= 4 and w <= 4:
                    blocks = {}
                    for d in basis:
                        blocks.setdefault((d.L, d.R), []).append(d.partner)
                    for L in range(0, 2 * k + 2 * w + 1, 2):
                        for R in range(0, 2 * k + 2 * w + 1, 2):
                            nodes = dg._boundary_order(k, L, R)
                            want = sorted(_reference_matchings("".join(n[0] for n in nodes), w),
                                          key=dg._pairs_key(k, R, nodes))
                            assert blocks.pop((L, R), []) == want, (k, w, L, R)
                    assert not blocks, (k, w)
                elif (k, w) not in _BASIS_K56_SHA256:
                    digest = hashlib.sha256()
                    for d in basis:
                        digest.update(("%d %d %s\n" % (d.L, d.R, d.partner)).encode())
                    assert digest.hexdigest() == _BASIS_GRADE56_SHA256[k, w], (k, w)
                if not w:
                    continue
                for d in basis:
                    lines = [sorted((a, b)) for a, b in d.pairs if {a[0], b[0]} == {"L", "R"}]
                    lefts = [a[1] for a, _ in lines]
                    rights = [b[1] for _, b in lines]
                    assert len(lines) == w, d
                    # the lines sit on consecutive points of each wall
                    assert max(lefts) - min(lefts) == max(rights) - min(rights) == w - 1, d
                    assert through_strands(d) == 0, d


@pytest.fixture
def fresh_halves():
    dg._half.cache_clear()
    yield
    dg._half.cache_clear()


@pytest.mark.usefixtures("fresh_halves")
class TestRoomTables:
    """The cache of half listings that the blocks of grade >= 1 read."""

    def test_one_table_per_pattern(self):
        # grades 0..4 at k = 3 list each of the 6 half patterns (a, 3, b),
        # a + b odd, once
        dg.enumerate_basis(3, range(5))
        assert dg._half.cache_info().misses == 6

    def test_dims_k8_within_bound(self, capsys):
        from blobalg import cli
        assert cli.main(["dims", "--k", "8", "--max-k", "8", "--json"]) == 0
        row = json.loads(capsys.readouterr().out)[-1]
        assert row == {"k": 8, "blob_dim": 97287,
                       "per_grade": {"0": 66969, "1": 30318, "2": 35218,
                                     "3": 30318, "4": 35218}}
        # the 94 half patterns of k = 1..8 are each listed once
        assert dg._half.cache_info().misses == 94


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
