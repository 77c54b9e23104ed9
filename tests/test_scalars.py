"""Field arithmetic: examples with independent oracles, then properties."""

import json
import random
from fractions import Fraction

import pytest

from blobalg import scalars as sc
from blobalg.scalars import ONE, Scalar, U, U0, bb, eval_mod, qint


def poly_divide(num, den):
    """Independent long-division oracle for univariate Laurent polys in u.

    Polynomials are dicts exponent -> Fraction; returns the exact quotient
    or raises if division is not exact."""
    num = dict(num)
    out = {}
    dmax = max(den)
    while num:
        e = max(num)
        q = Fraction(num[e]) / den[dmax]
        out[e - dmax] = q
        for d, c in den.items():
            r = num.get(e - dmax + d, Fraction(0)) - q * c
            if r:
                num[e - dmax + d] = r
            else:
                num.pop(e - dmax + d, None)
    return out


def u_poly(x: Scalar):
    assert x.den.is_one()
    return {e[0]: Fraction(c[0]) for e, c in x.num.terms.items()}


class TestFieldOps:
    def test_inverse_pair(self):
        assert U * U.inv() == ONE

    def test_cancellation(self):
        x = U + U.inv()
        assert (x - x).is_zero()

    def test_quotient_against_long_division(self):
        num = Scalar.monomial(u=2) - Scalar.monomial(u=-2)
        den = U - U.inv()
        expected = poly_divide(u_poly(num), u_poly(den))
        got = num / den
        assert u_poly(got) == {e: c for e, c in expected.items() if c}
        assert got == U + U.inv()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / Scalar.zero()
        with pytest.raises(ZeroDivisionError):
            Scalar.zero().inv()

    def test_field_axioms_random(self):
        rng = random.Random(20240)
        for _ in range(150):
            a, b, c = (rand_scalar(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            if not a.is_zero():
                assert a * a.inv() == ONE
                assert (b / a) * a == b

    def test_structural_equality_of_normal_forms(self):
        x = (U ** 2 - U ** -2) / (U - U.inv())
        y = U + U.inv()
        assert x == y
        assert x.num == y.num and x.den == y.den


class TestBracketsAndQint:
    def test_bb_t(self):
        assert bb("t", 1) == U + U.inv()

    def test_bb_unit(self):
        assert bb("t", 0) == Scalar.from_int(2)

    def test_bb_composite(self):
        assert bb("t0/t", 1) == U0 * U.inv() + U0.inv() * U

    def test_bb_unrepresentable(self):
        with pytest.raises(sc.ScalarError):
            bb("t", Fraction(3, 2))

    def test_bb_difference_identity(self):
        # bb(t,s) * (t^(s/2) - t^(-s/2)) = t^s - t^(-s)
        for s in (1, 2, 3, 5):
            lhs = bb("t", s) * (Scalar.monomial(u=s) - Scalar.monomial(u=-s))
            assert lhs == Scalar.monomial(u=2 * s) - Scalar.monomial(u=-2 * s)

    def test_qint_small(self):
        assert qint(1) == ONE
        assert qint(2) == U + U.inv()

    def test_qint3_against_fraction_oracle(self):
        # [3] = (u^3 - u^-3)/(u - u^-1) by long division
        expected = poly_divide(
            u_poly(Scalar.monomial(u=3) - Scalar.monomial(u=-3)),
            u_poly(U - U.inv()))
        assert u_poly(qint(3)) == expected
        assert qint(3) == Scalar.monomial(u=2) + ONE + Scalar.monomial(u=-2)

    def test_qint_negative_rejected(self):
        with pytest.raises(sc.ScalarError):
            qint(-1)

    def test_qint_ratio_is_bracket(self):
        for s in range(1, 6):
            assert qint(2 * s) / qint(s) == bb("t", s)


class TestEvalMod:
    def test_zero_and_one(self):
        rng = random.Random(5)
        p = sc.random_prime(62, rng)
        pt = sc.random_point(p, rng)
        assert eval_mod(Scalar.zero(), p, pt) == 0
        assert eval_mod(U * U.inv(), p, pt) == 1

    def test_qint3_at_two_mod_13(self):
        pt = {"u": 2, "u0": 1, "uk": 1, "a0": 1, "ak": 1, "i": 5}
        assert eval_mod(qint(3), 13, pt) == (4 + 1 + 10) % 13

    def test_homomorphism(self):
        rng = random.Random(77)
        p = sc.random_prime(62, rng)
        pt = sc.random_point(p, rng)
        for _ in range(40):
            a, b = rand_scalar(rng), rand_scalar(rng)
            try:
                va, vb = eval_mod(a, p, pt), eval_mod(b, p, pt)
                assert eval_mod(a + b, p, pt) == (va + vb) % p
                assert eval_mod(a * b, p, pt) == va * vb % p
            except sc.EvalRetry:
                continue

    def test_equal_forms_always_agree(self):
        # one-sided identity testing: equal symbolic values evaluate equal
        rng = random.Random(11)
        p = sc.random_prime(62, rng)
        x = (U ** 2 - U ** -2) / (U - U.inv())
        y = U + U.inv()
        for _ in range(10):
            pt = sc.random_point(p, rng)
            assert eval_mod(x, p, pt) == eval_mod(y, p, pt)

    def test_distinct_forms_distinguished(self):
        rng = random.Random(12)
        p = sc.random_prime(62, rng)
        x = U + U.inv()
        y = U + U.inv() + ONE
        pt = sc.random_point(p, rng)
        assert eval_mod(x, p, pt) != eval_mod(y, p, pt)

    def test_retry_signal(self):
        rng = random.Random(13)
        p = sc.random_prime(62, rng)
        x = ONE / (U - Scalar.from_int(3))
        pt = sc.random_point(p, rng)
        pt["u"] = 3
        with pytest.raises(sc.EvalRetry):
            eval_mod(x, p, pt)


class TestSerialization:
    def test_render_parse_round_trip(self):
        rng = random.Random(99)
        for _ in range(100):
            x = rand_scalar(rng)
            assert sc.parse(sc.render(x)) == x

    def test_json_round_trip(self):
        rng = random.Random(98)
        for _ in range(100):
            x = rand_scalar(rng)
            blob = json.dumps(sc.to_json(x))
            assert sc.from_json(json.loads(blob)) == x

    def test_render_example(self):
        assert sc.render(qint(3)) == "(u^2+1+u^-2)"

    def test_parse_gaussian(self):
        assert sc.parse("i*i") == -ONE
        assert sc.parse("(1+i)*(1-i)") == Scalar.from_int(2)


def upoly(coeffs, rest=(0, 0, 0, 0)):
    """Dense coefficients in u (lowest first) -> LaurentPoly."""
    return sc.LaurentPoly({(j,) + rest: c for j, c in enumerate(coeffs)
                           if c != (0, 0)})


def gcd_path(n, d):
    """The general cancellation: polynomial gcd, exact division, monic den."""
    g = sc._poly_gcd(n, d)
    if len(g.terms) > 1:
        n, d = sc._exact_poly_div(n, g), sc._exact_poly_div(d, g)
    _, lc = d.leading()
    inv = sc._cinv(lc)
    return n.scale(inv), d.scale(inv)


def rand_gaussian_poly(rng, max_deg=5):
    coeffs = [(rng.randrange(-3, 4), rng.randrange(-2, 3))
              for _ in range(rng.randrange(1, max_deg + 2))]
    if coeffs[-1] == (0, 0):
        coeffs[-1] = (1, 0)
    return upoly(coeffs)


def binomial(a, c):
    """u^a - c for a Gaussian unit c."""
    return upoly([(-c[0], -c[1])] + [(0, 0)] * (a - 1) + [(1, 0)])


def lpow(p, k):
    out = sc.LaurentPoly.const(1)
    for _ in range(k):
        out = out * p
    return out


UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class TestCyclotomicCancel:
    def test_factor_tables(self):
        # independent oracle: Phi_m = (u^m - 1) / prod of Phi_d, d | m, d < m
        phi = {}
        for m in range(1, 41):
            q = {0: Fraction(-1), m: Fraction(1)}
            for d in range(1, m):
                if m % d == 0:
                    q = poly_divide(q, phi[d])
            phi[m] = {e: c for e, c in q.items() if c}
            factors = sc._cyclotomic_factors(m)
            assert len(factors) == (2 if m % 4 == 0 else 1)
            prod = sc.LaurentPoly.const(1)
            for f in factors:
                assert f[-1] == (1, 0)
                prod = prod * upoly(f)
            assert prod == upoly([(phi[m].get(j, 0), 0) for j in range(max(phi[m]) + 1)])
            if m % 4 == 0:
                plus, minus = (upoly(f) for f in factors)
                assert gcd_path(binomial(m // 4, (0, 1)), plus)[1].is_one()
                assert gcd_path(binomial(m // 4, (0, -1)), minus)[1].is_one()

    def test_split_factor_example(self):
        # (u - i)(u + 2) / (u^2 + 1) = (u + 2) / (u + i)
        n = upoly([(0, -1), (1, 0)]) * upoly([(2, 0), (1, 0)])
        d = upoly([(1, 0), (0, 0), (1, 0)])
        got = sc._cancel(n, d)
        assert got == (upoly([(2, 0), (1, 0)]), upoly([(0, 1), (1, 0)]))
        assert got == gcd_path(n, d)

    def test_differential_against_gcd(self):
        rng = random.Random(31337)
        taken = 0
        for case in range(200):
            # denominators of the seminormal form: products of u^a - unit
            d = sc.LaurentPoly.const(1)
            for _ in range(rng.randrange(1, 4)):
                d = d * binomial(rng.randrange(1, 13), rng.choice(UNITS))
            # numerators sharing some irreducible factors, some repeated
            n = rand_gaussian_poly(rng)
            for _ in range(rng.randrange(0, 4)):
                f = rng.choice(sc._cyclotomic_factors(rng.randrange(1, 25)))
                n = n * lpow(upoly(f), rng.randrange(1, 3))
            if case % 4 == 0:
                n = n + upoly([(1, 0), (0, 1)], rest=(0, 0, 1, 0)) * n  # times 1 + (1+i)*a0
            if case % 5 == 0:
                n = n.scale((Fraction(1, 3), 0))
            d = d.scale(rng.choice(UNITS))
            dense = sc._u_coefficients(d, sc._cinv(d.leading()[1]))
            taken += sc._cyclotomic_factorization(dense) is not None
            assert sc._cancel(n, d) == gcd_path(n, d), case
        assert taken == 200

    def test_repeated_factors(self):
        f = upoly([(1, 0), (0, 0), (1, 0)])                   # u^2 + 1
        g = upoly([(0, -1), (1, 0)])                          # u - i
        for a in range(4):
            for b in range(4):
                n = lpow(g, a) * upoly([(3, 0), (1, 0)])
                d = lpow(f, b) * lpow(binomial(3, (1, 0)), 2)
                assert sc._cancel(n, d) == gcd_path(n, d), (a, b)

    def test_other_denominators_fall_back(self):
        rng = random.Random(4242)
        u_minus_3 = upoly([(-3, 0), (1, 0)])
        golden = upoly([(-1, 0), (1, 0), (1, 0)])             # u^2 + u - 1
        u_plus_a0 = upoly([(1, 0)]) + upoly([(1, 0)], rest=(0, 0, 1, 0))
        half = upoly([(1, 0), (2, 0)])                        # 2u + 1
        # self-reciprocal like a cyclotomic product, but its roots are real
        recip = upoly([(1, 0), (-3, 0), (1, 0)])              # u^2 - 3u + 1
        for d in (u_minus_3, golden, u_plus_a0, half, recip,
                  u_minus_3 * binomial(5, (1, 0)), golden * binomial(4, (0, 1)),
                  recip * binomial(3, (1, 0))):
            _, lc = d.leading()
            dense = sc._u_coefficients(d, sc._cinv(lc))
            assert dense is None or sc._cyclotomic_factorization(dense) is None
            for _ in range(5):
                n = rand_gaussian_poly(rng) * (d if rng.random() < 0.5 else u_minus_3)
                assert sc._cancel(n, d) == gcd_path(n, d)

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(sc, "_factor_memo", {})
        monkeypatch.setattr(sc, "_FACTOR_MEMO_MAX", 4)
        n = rand_gaussian_poly(random.Random(1)) * upoly([(-1, 0), (1, 0)])
        for a in range(1, 12):
            d = binomial(a, (1, 0))
            assert sc._cancel(n, d) == gcd_path(n, d)
            assert len(sc._factor_memo) <= 4


def rand_scalar(rng, depth=0):
    choice = rng.randrange(8)
    if choice < 3 or depth > 2:
        return Scalar.monomial(
            u=rng.randrange(-3, 4), u0=rng.randrange(-2, 3),
            uk=rng.randrange(-2, 3), a0=rng.randrange(-1, 2),
            ak=rng.randrange(-1, 2),
            coeff=(rng.randrange(-4, 5), rng.randrange(-2, 3)))
    a = rand_scalar(rng, depth + 1)
    b = rand_scalar(rng, depth + 1)
    if choice < 5:
        return a + b
    if choice < 7:
        return a * b
    return a - b
