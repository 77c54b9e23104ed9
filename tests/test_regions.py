"""Box-configuration combinatorics: root sets, fillings, shape predicates."""

import hashlib
import itertools
import re
from fractions import Fraction as F
from math import comb

import pytest

from blobalg import calib as cb
from blobalg import regions as rg
from blobalg import schurweyl as sw

import oracles


PARAMS = rg.RegionParams(F(3, 2), F(11, 2))


class TestRootSets:
    def test_worked_small_example(self):
        params = rg.RegionParams(1, 3)
        zset, pset = rg.compute_root_sets(rg.weight_vector([2, 2, 3]), params)
        assert zset == frozenset({("d", 1, 2)})
        assert pset == frozenset({("e", 3), ("d", 1, 3), ("d", 2, 3)})

    def test_generic_empty(self):
        zset, pset = rg.compute_root_sets(rg.weight_vector([10, 20]), PARAMS)
        assert not zset and not pset

    def test_neighbor_pair(self):
        params = rg.RegionParams(5, 7)
        zset, pset = rg.compute_root_sets(rg.weight_vector([1, 2]), params)
        assert not zset and pset == frozenset({("d", 1, 2)})

    def test_j_subset_enforced(self):
        with pytest.raises(rg.RegionError):
            rg.LocalRegion((F(10), F(20)), frozenset({("e", 1)}), PARAMS)

    def test_params_hypothesis(self):
        with pytest.raises(rg.RegionError):
            rg.RegionParams(F(3, 2), F(5, 2))

    def test_root_text_round_trip(self):
        for root in (("e", 3), ("d", 1, 2), ("s", 2, 5)):
            assert rg.parse_root(rg.render_root(root)) == root
        assert rg.parse_root(" e3 - e1 ") == ("d", 1, 3)

    def test_root_text_needs_e_letters(self):
        # and the canonical form 0 < i < j, which `render_root` writes
        for text in ("x2", "q3-z1", "e3+f1", "E2", "e", "e2-", "e3-e1-e0", "e+2",
                     "e3*e1", "e2e1", "e-1", "2", "e1-e2", "e2+e2", "e0", "e2-e0", "e01"):
            with pytest.raises(rg.RegionError, match=re.escape("bad root %r" % text)):
                rg.parse_root(text)
        # a root outside P(c) is named as it is written
        with pytest.raises(rg.RegionError, match=r"extra roots e2\+e1$"):
            rg.LocalRegion((1, 2), frozenset({("s", 1, 2)}), PARAMS)


def _root_sets_reference(c, params):
    """Z(c) and P(c) from their definitions, in Fraction arithmetic."""
    marked = (params.r1, -params.r1, params.r2, -params.r2)
    zset, pset = set(), set()
    for i in range(1, len(c) + 1):
        if c[i - 1] == 0:
            zset.add(("e", i))
        if c[i - 1] in marked:
            pset.add(("e", i))
        for j in range(i + 1, len(c) + 1):
            diff, tot = c[j - 1] - c[i - 1], c[j - 1] + c[i - 1]
            if diff == 0:
                zset.add(("d", i, j))
            if tot == 0:
                zset.add(("s", i, j))
            if diff in (1, -1):
                pset.add(("d", i, j))
            if tot in (1, -1):
                pset.add(("s", i, j))
    return zset, pset


class TestDoubledRootSets:
    """`compute_root_sets` compares 2c_i and 2r as integers; it must give
    the Fraction definitions' sets, also where 2 r1 is not an integer."""

    @pytest.mark.parametrize("r1, r2", [(F(3, 2), F(11, 2)), (F(1), F(4)), (F(1, 3), F(11, 2))])
    def test_equal_the_fraction_reference(self, r1, r2):
        params = rg.RegionParams(r1, r2)
        count = 0
        for k in range(5):
            for start in (F(0), F(1, 2)):
                values = [start + n for n in range(7) if start + n <= 6]
                for c in itertools.combinations_with_replacement(values, k):
                    zset, pset = rg.compute_root_sets(c, params)
                    want = _root_sets_reference(c, params)
                    assert (zset, pset) == tuple(map(frozenset, want)), (c, r1, r2)
                    count += 1
        # the weight vectors of k <= 4 from 7 integers and 6 half-integers
        assert count == sum(comb(7 + k - 1, k) + comb(6 + k - 1, k) for k in range(5))

    def test_weight_with_no_double_refused(self):
        for c in ((F(1, 3),), (F(1), F(5, 4))):
            with pytest.raises(rg.RegionError, match="an integer or a half-integer"):
                rg.compute_root_sets(c, PARAMS)


class TestSmallExampleConfig:
    def setup_method(self):
        params = rg.RegionParams(1, 3)
        self.region = rg.LocalRegion((2, 2, 3), frozenset({("d", 2, 3)}), params)
        self.config = rg.build_config(self.region)

    def test_displayed_fillings_present(self):
        fills = rg.enumerate_fillings(self.config)
        for f in [(1, 3, 2), (-1, 3, 2), (-2, 3, 1)]:
            assert f in fills
        assert (-3, 1, -2) not in fills

    def test_not_skew_and_not_two_row(self):
        assert not rg.is_skew(self.region)
        assert not rg.is_tl_shape(self.region)

    def test_alternative_j(self):
        params = rg.RegionParams(1, 3)
        region = rg.LocalRegion((2, 2, 3),
                                frozenset({("e", 3), ("d", 1, 3), ("d", 2, 3)}),
                                params)
        config = rg.build_config(region)
        assert rg.enumerate_fillings(config)


def _chart_configs(k, params, bound):
    """The configuration of every (c, J) with c_i <= bound that builds,
    with or without fillings."""
    for start in (F(0), F(1, 2)):
        values = [start + n for n in range(bound + 1) if start + n <= bound]
        for c in itertools.combinations_with_replacement(values, k):
            _, pset = rg.compute_root_sets(c, params)
            proots = sorted(pset, key=rg.root_sort_key)
            for mask in range(1 << len(proots)):
                J = frozenset(r for b, r in enumerate(proots) if mask >> b & 1)
                try:
                    yield rg.build_config(rg.LocalRegion(c, J, params))
                except rg.RegionError:
                    pass


@pytest.fixture(scope="module")
def walk_corpus():
    """Every nonzero (6,3) node at k <= 9, and every buildable region of the
    rank-2 and rank-3 charts at diagonal bound 5 for (r1, r2) = (3/2, 11/2)
    and of the rank-3 chart for (1, 4): 677 configurations."""
    p63 = sw.SWParams(6, 3)
    configs = [sw.lambda_to_region(p63, k, l)[2] for k in range(10)
               for _, l in sw.level_nodes(p63, k) if not sw.zero_multiplicity(p63, k, l)]
    for params, ranks in ((PARAMS, (2, 3)), (rg.RegionParams(1, 4), (3,))):
        for k in ranks:
            configs += _chart_configs(k, params, 5)
    return configs


# sha256 of the lines `repr(enumerate_fillings(config))` over `walk_corpus`,
# recorded with the backtracking search the ideal walk replaced (commit cc6e484)
_WALK_CORPUS_SHA256 = "23492024bbd075d73d3c4fa31dc0bde9383258deee1bf200a3283bf1d3194868"


class TestFillingWalk:
    def test_count_equals_listing(self, walk_corpus):
        assert len(walk_corpus) == 677
        counts = [rg.count_fillings(c) for c in walk_corpus]
        assert counts == [len(rg.enumerate_fillings(c)) for c in walk_corpus]
        assert sum(counts) == 8774 and counts.count(0) > 0

    def test_listing_digest(self, walk_corpus):
        digest = hashlib.sha256()
        for config in walk_corpus:
            digest.update((repr(rg.enumerate_fillings(config)) + "\n").encode())
        assert digest.hexdigest() == _WALK_CORPUS_SHA256


class TestTwoRowShapes:
    def test_seven_fillings(self):
        # second-row length 2 at level 3: multiplicity 7
        region = rg.LocalRegion((F(7, 2), F(9, 2), F(11, 2)), frozenset(), PARAMS)
        config = rg.build_config(region)
        assert len(rg.enumerate_fillings(config)) == 7
        assert rg.is_skew(region)
        assert rg.is_tl_shape(region)

    def test_k1_two_fillings(self):
        region = rg.LocalRegion((F(1, 2),), frozenset(), PARAMS)
        config = rg.build_config(region)
        assert rg.enumerate_fillings(config) == [(-1,), (1,)]

    def test_k1_zero_diagonal_not_skew(self):
        region = rg.LocalRegion((0,), frozenset(), PARAMS)
        assert not rg.is_skew(region)

    def test_aligned_rectangle_not_skew(self):
        region = rg.two_row_region(3, F(-1, 2), PARAMS)
        assert rg.is_tl_shape(region)
        assert not rg.is_skew(region)

    def test_two_row_canonical_data(self):
        region = rg.two_row_region(3, F(1, 2), PARAMS)
        assert region.c == (F(1, 2), F(3, 2), F(5, 2))
        assert rg.is_tl_shape(region)

    def test_repeated_diagonal_pair_not_two_row(self):
        # a stacked pair on one diagonal cannot fill two rows of k
        region = rg.LocalRegion((2, 2), frozenset(), PARAMS)
        assert not rg.is_tl_shape(region)

    def test_overlapping_two_row(self):
        # boxes sit on the marked diagonal +-r1; the tensor-space map picks
        # the NW marker side for label 3, and that chamber is skew
        region = rg.two_row_region(4, F(-1, 2), PARAMS, marker_J=[("e", 3)])
        assert rg.is_tl_shape(region)
        assert rg.is_skew(region)
        plain = rg.two_row_region(4, F(-1, 2), PARAMS)
        assert rg.is_tl_shape(plain)
        assert not rg.is_skew(plain)

    def test_two_row_start_checks_more_than_weights(self):
        # both candidate starts 0 and -3 give the weight vector (0,1,2,3);
        # only -3 gives its relations and same-diagonal scan order
        region = rg.LocalRegion((0, 1, 2, 3), frozenset(),
                                rg.RegionParams(F(3, 2), F(7, 2)))
        assert rg.is_tl_shape(region) and not rg.is_skew(region)
        assert rg.two_row_start(region) == -3

    def test_two_row_start_rebuilds_the_region(self, start_corpus):
        # the canonical two-row region at the start, with the region's own
        # marker roots, is the region
        for region in start_corpus:
            c0 = rg.two_row_start(region)
            assert rg.is_tl_shape(region) == (c0 is not None)
            if c0 is not None:
                markers = [r for r in region.J if r[0] == "e"]
                assert rg.two_row_region(region.k, c0, region.params, markers) == region

    def test_two_row_start_equals_the_scan_reference(self, start_corpus):
        assert len(start_corpus) > 1000
        assert [rg.two_row_start(r) for r in start_corpus] == \
            [_two_row_start_reference(r) for r in start_corpus]
        assert any(_two_row_start_reference(r) is None for r in start_corpus)


def _two_row_start_reference(region):
    """The start found by comparing weights, relations and the same-diagonal
    scan order with the canonical placement directly, as `two_row_start`
    did before it rebuilt the region."""
    k, c = region.k, region.c
    _, pset = region.root_sets()
    for c0 in (c[-1] - (k - 1), -c[-1]):
        placement = rg._two_row_placement(k, c0)
        if tuple(sorted(placement[i][0] for i in range(1, k + 1))) != c:
            continue
        if any(rg._two_row_rel(placement, root) != (root in region.J)
               for root in pset if root[0] != "e"):
            continue
        diag = {b: ci if b > 0 else -ci
                for i, ci in enumerate(c, start=1) for b in (i, -i)}
        by_diag, target = {}, {}
        for b in sorted(diag, key=lambda b: (diag[b], b)):
            by_diag.setdefault(diag[b], []).append(b)
        for b, (d, _, _) in sorted(placement.items(), key=lambda t: (t[1][0], t[1][1])):
            target.setdefault(d, []).append(b)
        if by_diag == target:
            return c0
    return None


@pytest.fixture(scope="module")
def start_corpus():
    """Every region of ranks 1-4 at (1/2, 5/2) with diagonal bound 5, and of
    ranks 1-3 at (3/2, 7/2), where the starts 0 and -3 share a weight
    vector, and at (3/2, 11/2)."""
    regions = []
    for (r1, r2), ranks in (((F(1, 2), F(5, 2)), (1, 2, 3, 4)),
                            ((F(3, 2), F(7, 2)), (1, 2, 3)),
                            ((F(3, 2), F(11, 2)), (1, 2, 3))):
        params = rg.RegionParams(r1, r2)
        for k in ranks:
            regions += rg.enumerate_regions(k, params, F(5))
    return regions


class TestVanishing:
    def test_two_row_passes(self):
        region = rg.LocalRegion((F(1, 2), F(3, 2), F(5, 2)),
                                frozenset({("e", 2)}), PARAMS)
        rep = rg.vanishing_predicates(region)
        assert rep["is_tl_module"]

    def test_c_r1_r2_fails(self):
        # weights on both marked diagonals: no chamber annihilates everything
        region0 = rg.LocalRegion((F(3, 2), F(11, 2)), frozenset(), PARAMS)
        _, pset = region0.root_sets()
        results = []
        for mask in range(1 << len(pset)):
            proots = sorted(pset, key=rg.root_sort_key)
            J = frozenset(r for b, r in enumerate(proots) if mask >> b & 1)
            region = rg.LocalRegion(region0.c, J, PARAMS)
            config = rg.build_config(region)
            if not rg.enumerate_fillings(config):
                continue
            results.append(rg.vanishing_predicates(region)["is_tl_module"])
        assert results and not any(results)

    def test_three_row_witness(self):
        params = rg.RegionParams(1, 3)
        region = rg.LocalRegion((2, 2, 3), frozenset({("d", 2, 3)}), params)
        rep = rg.vanishing_predicates(region)
        assert not rep["p_i_111"]
        assert rep["witnesses"]["p_i_111"] is not None


class TestEnumeration:
    def test_k1_integer_bound2(self):
        regions = rg.enumerate_regions(1, PARAMS, 2)
        cs = {r.c[0] for r in regions if r.c[0].denominator == 1}
        assert cs == {0, 1, 2}

    def test_bound0_rejected_as_non_skew(self):
        regions = rg.enumerate_regions(1, PARAMS, 0)
        assert [r.c for r in regions] == [(0,)]
        assert not any(rg.is_skew(r) for r in regions)

    def test_k2_contains_figure_regions(self):
        regions = rg.enumerate_regions(2, PARAMS, 7)
        cs = {r.c for r in regions}
        r1, r2 = PARAMS.r1, PARAMS.r2
        for want in [(r1 - 1, r1), (r1, r1 + 1), (r2 - 1, r2), (r2, r2 + 1),
                     (F(1, 2), F(1, 2)), (F(5, 2), F(7, 2))]:
            assert tuple(want) in cs

    def test_dedup(self):
        regions = rg.enumerate_regions(1, PARAMS, 2)
        keys = [(r.c, r.J) for r in regions]
        assert len(keys) == len(set(keys))

    def test_counts_without_listing(self, monkeypatch):
        # a region is kept when the walk counts a filling: no listing is
        # made, so the listing cache keeps the ones its callers read
        rg._fillings.cache_clear()
        regions = rg.enumerate_regions(2, PARAMS, 5)
        info = rg._fillings.cache_info()
        assert info.hits == info.misses == 0
        monkeypatch.setattr(rg, "count_fillings", lambda config: len(rg.enumerate_fillings(config)))
        assert rg.enumerate_regions(2, PARAMS, 5) == regions

    def test_one_walk_per_configuration(self):
        # counting a region and then listing its fillings read one walk:
        # the rank-2 chart at bound 5 builds one per configuration, and
        # each listing equals one made from a walk of its own
        rg._ideal_walk.cache_clear()
        rg._fillings.cache_clear()
        regions = rg.enumerate_regions(2, PARAMS, 5)
        skew = [rg.is_skew(r) for r in regions]
        assert 0 < sum(skew) < len(regions)
        assert rg._ideal_walk.cache_info().misses == 55
        configs = [rg.build_config(r) for r in regions]
        listings = [rg.enumerate_fillings(c) for c in configs]
        assert rg._ideal_walk.cache_info().misses == 55
        for config, listing in zip(configs, listings):
            rg._ideal_walk.cache_clear()
            rg._fillings.cache_clear()
            assert rg.enumerate_fillings(config) == listing

    def test_empty_region_listed_once(self):
        # the empty weight vector is both integral and half-integral
        for bound in (0, 7):
            regions = rg.enumerate_regions(0, PARAMS, bound)
            assert [(r.c, r.J) for r in regions] == [((), frozenset())]


class TestEmptyRegion:
    def test_k0_regions(self):
        # the one region `enumerate_regions` lists at k = 0, and the region
        # of each level-0 node of (a, b) = (6, 3): one filling, no label
        params = sw.SWParams(6, 3)
        regions = rg.enumerate_regions(0, PARAMS, 5)
        regions += [sw.lambda_to_region(params, 0, lam[1])[1]
                    for lam in sw.level_nodes(params, 0)]
        assert len(regions) == 5
        for region in regions:
            assert region.k == 0
            assert rg.enumerate_fillings(rg.build_config(region)) == [()]
            assert rg.is_skew(region)
            assert rg.two_row_start(region) == 0
            assert rg.vanishing_predicates(region)["is_tl_module"] is True
            assert rg.is_tl_shape(region) is True
            with pytest.raises(cb.CalibError, match="k >= 1"):
                cb.build_module(cb.ModuleSpec(region))


class TestFillingContents:
    """`filling_contents` against the Fraction definition of the contents,
    `oracles.wc_vector`, doubled."""

    @pytest.fixture(scope="class")
    def regions(self):
        out = [r for k in (2, 3) for r in rg.enumerate_regions(k, PARAMS, 7)]
        out += rg.enumerate_regions(2, rg.RegionParams(1, 4), 7)
        p63 = sw.SWParams(6, 3)
        out += [sw.lambda_to_region(p63, k, l)[1] for k in range(8)
                for _, l in sw.level_nodes(p63, k) if not sw.zero_multiplicity(p63, k, l)]
        return out

    def test_equals_the_fraction_reference(self, regions):
        assert len(regions) > 400
        fillings = 0
        for region in regions:
            config = rg.build_config(region)
            listing = rg.enumerate_fillings(config)
            want = [tuple(2 * oracles.wc_vector(region, f)[j] for j in range(1, region.k + 1))
                    for f in listing]
            got = rg.filling_contents(config)
            assert got == want, region
            assert all(type(x) is int for wc in got for x in wc)
            fillings += len(listing)
        assert fillings > 5000

    def test_diagonals_doubled(self, regions):
        for region in regions:
            config = rg.build_config(region)
            diag = dict(config.diag)
            for i, ci in enumerate(region.c, start=1):
                assert diag[i] == 2 * ci and diag[-i] == -2 * ci
            assert all(type(d) is int and all(diag[b] == d for b in boxes)
                       for d, boxes in config.same_diag)

    def test_table_kept_with_the_listing(self):
        config = rg.build_config(rg.LocalRegion((F(7, 2), F(9, 2), F(11, 2)),
                                                frozenset(), PARAMS))
        assert rg.filling_contents(config) is rg.filling_contents(config)
        assert len(rg.filling_contents(config)) == len(rg.enumerate_fillings(config)) == 7


class TestSerialization:
    def test_region_json_round_trip(self):
        region = rg.LocalRegion((F(1, 2), F(3, 2)), frozenset({("e", 2)}), PARAMS)
        blob = rg.region_to_json(region)
        assert blob == {"c": ["1/2", "3/2"], "J": ["e2"], "r1": "3/2", "r2": "11/2"}
        params = rg.RegionParams(F(blob["r1"]), F(blob["r2"]))
        assert rg.LocalRegion(tuple(F(v) for v in blob["c"]),
                              frozenset(rg.parse_root(s) for s in blob["J"]),
                              params) == region

    def test_render_config_text(self):
        region = rg.LocalRegion((F(1, 2), F(3, 2)), frozenset(), PARAMS)
        art = rg.render_config(rg.build_config(region))
        assert "1" in art and "-2" in art
