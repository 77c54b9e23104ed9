"""Tensor-space combinatorics: branching, dimensions, weight data."""

from fractions import Fraction as F

import pytest

from blobalg import calib as cb
from blobalg import regions as rg
from blobalg import schurweyl as sw
from blobalg.scalars import U0, UK, Scalar

P63 = sw.SWParams(6, 3)


class TestLevels:
    def test_base_levels(self):
        assert sw.level_nodes(P63, -1) == [(6, 0)]
        assert sw.level_nodes(P63, 0) == [(9, 0), (8, 1), (7, 2), (6, 3)]

    def test_level_one_bound(self):
        assert [l for _, l in sw.level_nodes(P63, 1)] == list(range(6))

    def test_hypothesis(self):
        with pytest.raises(sw.SchurWeylError):
            sw.SWParams(4, 3)

    def test_b_zero_refused(self):
        # b = 0 puts r2 = r1 + 1, closer than a region's parameters may be
        with pytest.raises(sw.SchurWeylError, match=r"a > b \+ 2 >= 3: b = 0"):
            sw.SWParams(3, 0)
        assert sw.SWParams(4, 1).r2 - sw.SWParams(4, 1).r1 == 2

    def test_r_values(self):
        assert P63.r1 == F(3, 2) and P63.r2 == F(11, 2)


class TestBratteli:
    def test_edge_counts_follow_branching(self):
        br = sw.bratteli(P63, 5)
        for j in range(1, 6):
            out_edges = {}
            for mu, lam in br.edges[j]:
                out_edges.setdefault(mu, []).append(lam)
            for mu, lams in out_edges.items():
                assert len(lams) == (1 if mu[0] == mu[1] else 2)

    def test_dot_output(self):
        dot = sw.bratteli_dot(sw.bratteli(P63, 2))
        assert dot.startswith("digraph") and '"0:9,0"' in dot


class TestDimensions:
    def test_worked_value(self):
        assert sw.dim_formula(P63, 3, 2) == 3 + 3 + 1

    def test_l_zero(self):
        for k in range(6):
            assert sw.dim_formula(P63, k, 0) == 1

    def test_overlapping_case_uses_difference(self):
        # l > a+b-c forces the subtracted binomial
        assert sw.dim_formula(P63, 9, 8) == sum(
            _f(P63, 9, 8, c) for c in range(0, 4))

    def test_three_methods_agree(self):
        for k in range(13):
            for (_l1, l) in sw.level_nodes(P63, k):
                p = sw.dim_B(P63, k, l, "paths")
                f = sw.dim_B(P63, k, l, "formula")
                g = sw.dim_B(P63, k, l, "fillings")
                assert p == f == g

    def test_non_node_refused_by_every_method(self):
        # (2, 9) and (2, -1) are no partitions, level -1 has no dimension,
        # and level 0 stops at l = b; the zero-multiplicity node (1, 5) is 0
        for k, l in ((2, 9), (2, -1), (-1, 0), (0, 4)):
            for method in ("paths", "formula", "fillings"):
                with pytest.raises(sw.SchurWeylError, match="partition not at level %d" % k):
                    sw.dim_B(P63, k, l, method)
        assert [sw.dim_B(P63, 1, 5, m) for m in ("paths", "formula", "fillings")] == [0, 0, 0]

    def test_path_count_table_is_the_bratteli_count(self):
        for k in range(13):
            counts = sw.bratteli(P63, k).path_counts(k)
            assert sw._path_counts(P63, k) == counts
            assert {l: sw.dim_B(P63, k, l, "paths") for _l1, l in sw.level_nodes(P63, k)} \
                == {l: counts[(l1, l)] for l1, l in sw.level_nodes(P63, k)}
        assert sw._path_counts.cache_info().maxsize is not None

    def test_dim_check_sum(self):
        # k=0: 10+8+6+4 = 28 = 7*4
        total0 = sum((l1 - l2 + 1) * sw.dim_formula(P63, 0, l2)
                     for (l1, l2) in sw.level_nodes(P63, 0))
        assert total0 == 28
        total1 = sum((l1 - l2 + 1) * sw.dim_formula(P63, 1, l2)
                     for (l1, l2) in sw.level_nodes(P63, 1))
        assert total1 == 56
        for k in range(8):
            assert sw.dim_check_sum(P63, k)


def _f(params, k, l, c):
    from math import comb
    a, b = params.a, params.b
    if l <= a + b - c:
        return comb(k, l - c)
    return comb(k, l - c) - comb(k, l - (a + b - c) - 1)


class TestLambdaToRegion:
    def test_example_k3_l5(self):
        z, region, config = sw.lambda_to_region(P63, 3, 5)
        assert region.J == frozenset({("e", 2)})
        assert region.c == (F(1, 2), F(3, 2), F(5, 2))

    def test_example_k9_l8(self):
        _, region, _ = sw.lambda_to_region(P63, 9, 8)
        assert region.J == frozenset({("e", 3), ("d", 2, 3),
                                      ("d", 4, 5), ("d", 6, 7)})

    def test_example_k3_l2(self):
        z, region, config = sw.lambda_to_region(P63, 3, 2)
        assert region.J == frozenset()
        assert region.c == (F(7, 2), F(9, 2), F(11, 2))

    def test_small_l_has_empty_j1(self):
        for l in (0, 1, 2, 3):
            _, region, _ = sw.lambda_to_region(P63, 4, l)
            assert not any(r[0] == "e" for r in region.J)

    def test_z_statement_formula(self):
        z, _, _ = sw.lambda_to_region(P63, 2, 1)
        a, b, k, l = 6, 3, 2, 1
        e = (a + b - l) * (a + b - l - 1) + l * (l - 3) \
            - a * (a - 1) - b * (b - 1) - k * (a + b - 2)
        assert z == Scalar.monomial(u=e)

    def test_zero_multiplicity_is_error(self):
        with pytest.raises(sw.SchurWeylError):
            sw.lambda_to_region(P63, 1, 5)
        assert sw.dim_B(P63, 1, 5, "fillings") == 0

    def test_repeated_call_shares_the_tuple(self):
        first = sw.lambda_to_region(P63, 4, 3)
        assert sw.lambda_to_region(P63, 4, 3) is first
        assert sw._node_data.cache_info().maxsize is not None
        # a node past the cache's size is built again, equal to the first
        for k in range(40):
            for (_l1, l) in sw.level_nodes(P63, k):
                if not sw.zero_multiplicity(P63, k, l):
                    sw.lambda_to_region(P63, k, l)
        assert sw._node_data.cache_info().currsize == sw._node_data.cache_info().maxsize
        again = sw.lambda_to_region(P63, 4, 3)
        assert again is not first and again == first

    def test_regions_are_skew_two_row(self):
        for k in (1, 2, 3):
            for (_l1, l) in sw.level_nodes(P63, k):
                if sw.zero_multiplicity(P63, k, l):
                    continue
                _, region, _ = sw.lambda_to_region(P63, k, l)
                assert rg.is_skew(region)
                assert rg.is_tl_shape(region)

    def test_regions_equal_the_hand_built_reference(self):
        nodes = 0
        for a, b in ((4, 1), (5, 1), (6, 3), (7, 2), (8, 5), (9, 4), (10, 1)):
            params = sw.SWParams(a, b)
            for k in range(7):
                for (_l1, l) in sw.level_nodes(params, k):
                    if not sw.zero_multiplicity(params, k, l):
                        _, region, _ = sw.lambda_to_region(params, k, l)
                        assert region == _region_reference(params, k, l), (a, b, k, l)
                        nodes += 1
        assert nodes > 200

    def test_first_row_endpoints(self):
        # shifted contents of the first row run from r2-l to r2-1+k-l
        for k, l in [(3, 2), (3, 5), (4, 6)]:
            _, region, config = sw.lambda_to_region(P63, k, l)
            diag = dict(config.diag)
            first_row = sorted(diag[i] for i in range(1, k + 1))
            all_diags = sorted(v for _, v in config.diag)
            # config.diag holds the doubled diagonals
            assert all_diags[-1] == 2 * (P63.r2 - 1 + k - l)
            assert all_diags[0] == -2 * (P63.r2 - 1 + k - l)


class TestSpecialization:
    def test_ratio_identities(self):
        m = sw.module_for(P63, 1, 1)
        u0s, uks = m.spec.specialize(U0), m.spec.specialize(UK)
        # t_k^(1/2) t_0^(-1/2) = t^r1 and t_k^(1/2) t_0^(1/2) = -t^r2
        assert uks * u0s.inv() == Scalar.monomial(u=6 - 3)
        assert uks * u0s == -Scalar.monomial(u=6 + 3 + 2)

    def test_branch_configurable(self):
        region = sw.module_for(P63, 1, 1).region
        m = cb.build_module(cb.ModuleSpec(region, branch=-1))
        assert m.spec.specialize(U0) == -Scalar.monomial(u=4, coeff=(0, 1))


class TestGNValues:
    def test_intermediate_identity(self):
        rep = sw.gn_b_values(P63, 2, 2)
        assert rep["a0ak_identity"]

    def test_agreement_where_defined(self):
        for k in (2, 3):
            seen = 0
            for (_l1, l) in sw.level_nodes(P63, k):
                if sw.zero_multiplicity(P63, k, l):
                    continue
                rep = sw.gn_b_values(P63, k, l)
                if rep["defined"]:
                    assert rep["agrees"] is True, (k, l)
                    seen += 1
            assert seen >= 3

    def test_modules_are_tl(self):
        for k in (1, 2, 3):
            for (_l1, l) in sw.level_nodes(P63, k):
                if sw.zero_multiplicity(P63, k, l):
                    continue
                m = sw.module_for(P63, k, l)
                assert cb.idempotent_nullity(m)["is_tl_module"], (k, l)


def _region_reference(params, k, l):
    """The node's region with J built root by root: the marker root, and
    the roots e_(m+1) - e_m for every second m up to 2l - a - b, as
    `lambda_to_region` did before it built the two-row region."""
    a, b = params.a, params.b
    c0 = F(a + b, 2) - l + 1
    c = tuple(sorted(abs(c0 + m) for m in range(k)))
    J = set()
    if b < l <= a:
        J.add(("e", l - b))
    elif l > a:
        J.add(("e", a - b))
    if 2 * l >= a + b + 2:
        start = 1 if (a + b) % 2 == 0 else 2
        for m in range(start, 2 * l - a - b, 2):
            J.add(("d", m, m + 1))
    return rg.LocalRegion(c, frozenset(J), params.region_params())
