"""Field arithmetic: examples with independent oracles, then properties."""

import hashlib
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
    assert sc._expand(x.den).is_one()
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
            # a is invertible: a monomial times cyclotomic binomials and their
            # inverses; b and c are sums and products of such
            a, b, c = rand_unit(rng), rand_domain_scalar(rng), rand_domain_scalar(rng)
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


def term_by_term_eval_mod(x, p, point):
    """eval_mod as it was before the Horner form: each term's own powers,
    every variable with a negative exponent inverted once."""
    i_val = point["i"]
    inverses = {}

    def eval_poly(poly):
        total = 0
        for e, c in poly.terms.items():
            term = (sc._frac_mod(c[0], p) + i_val * sc._frac_mod(c[1], p)) % p
            for var, name in enumerate(sc.VAR_NAMES):
                power = e[var]
                if power:
                    v = point[name] % p
                    if power < 0:
                        if name not in inverses:
                            inverses[name] = sc._inv_mod(v, p)
                        v, power = inverses[name], -power
                    term = term * pow(v, power, p) % p
            total = (total + term) % p
        return total

    num, den = eval_poly(x.num), eval_poly(sc._expand(x.den))
    return num if den == 1 else num * sc._inv_mod(den, p) % p


def eval_outcome(f, x, p, point):
    try:
        return f(x, p, point)
    except sc.EvalRetry as exc:
        return ("retry", exc.residue)


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

    def test_product_modulus_is_crt(self):
        # modulo p*q, at the CRT combination of a point mod p and one mod q,
        # eval_mod gives the CRT combination of the two values
        rng = random.Random(14)
        p = sc.random_prime(62, rng)
        q = next(x for x in iter(lambda: sc.random_prime(62, rng), None) if x != p)
        pt_p, pt_q = sc.random_point(p, rng), sc.random_point(q, rng)
        n = p * q
        e_p, e_q = q * pow(q, -1, p), p * pow(p, -1, q)

        def crt(a, b):
            return (a * e_p + b * e_q) % n

        pt = {name: crt(pt_p[name], pt_q[name]) for name in pt_p}
        checked = 0
        for x in [rand_scalar(rng) for _ in range(40)] + [ONE / (U - 1), qint(4) / qint(2)]:
            try:
                vp, vq = eval_mod(x, p, pt_p), eval_mod(x, q, pt_q)
            except sc.EvalRetry:
                continue
            assert eval_mod(x, n, pt) == crt(vp, vq)
            checked += 1
        assert checked > 30
        # a denominator zero mod p only: the residue names p, not q
        pt_p["u"] = 1
        pt = {name: crt(pt_p[name], pt_q[name]) for name in pt_p}
        with pytest.raises(sc.EvalRetry) as exc:
            eval_mod(ONE / (U - 1), n, pt)
        assert exc.value.residue % p == 0 and exc.value.residue % q != 0
        with pytest.raises(sc.EvalRetry) as exc:
            eval_mod(Scalar.from_int(Fraction(1, q)), n, pt)
        assert exc.value.residue % q == 0 and exc.value.residue % p != 0

    def test_horner_equals_term_by_term(self):
        # the (6,3) module entries at k = 3..5, modulo single primes and
        # products of three, down to the residue an EvalRetry carries
        from blobalg import calib as cb
        from blobalg import schurweyl as sw
        p63 = sw.SWParams(6, 3)
        entries = {}
        for k in (3, 4, 5):
            for _l1, l in sw.level_nodes(p63, k):
                if sw.zero_multiplicity(p63, k, l):
                    continue
                m = sw.module_for(p63, k, l)
                for mat in list(m.T.values()) + list(m.W):
                    for row in mat:
                        for x in row.values():
                            entries[sc.render(x)] = x
                for x in (m.spec.specialize(cb._SHIFT[v]) for v in (U, U0, sc.UK)):
                    entries[sc.render(x)] = x
        assert len(entries) > 50
        rng = random.Random(21)
        retries = 0
        for bits in (62, 12, 8):
            for _ in range(4):
                primes = []
                while len(primes) < 3:
                    if (q := sc.random_prime(bits, rng)) not in primes:
                        primes.append(q)
                points = [sc.random_point(q, rng) for q in primes]
                n = primes[0] * primes[1] * primes[2]
                crt = {name: sum(pt[name] * (n // q) * pow(n // q, -1, q)
                                 for q, pt in zip(primes, points)) % n
                       for name in points[0]}
                for x in entries.values():
                    for q, pt in list(zip(primes, points)) + [(n, crt)]:
                        got = eval_outcome(eval_mod, x, q, pt)
                        assert got == eval_outcome(term_by_term_eval_mod, x, q, pt)
                        retries += isinstance(got, tuple)
        assert retries > 0

    def test_zero_u_or_u0_is_refused(self):
        # a point that makes a variable 0 mod p is refused for any power of
        # it: only positive powers of u, a negative one, and u0
        rng = random.Random(15)
        p = sc.random_prime(62, rng)
        for x, name in ((U ** 3 + 2 * U, "u"), (U ** 2 + U.inv(), "u"),
                        (U0 + ONE, "u0")):
            pt = sc.random_point(p, rng)
            pt[name] = p
            with pytest.raises(sc.ScalarError, match="point assigns 0 to %s$" % name) as exc:
                eval_mod(x, p, pt)
            assert type(exc.value) is sc.ScalarError, x
            pt[name] = 1
            assert eval_mod(x, p, pt) == term_by_term_eval_mod(x, p, pt)

    def test_retry_signal(self):
        rng = random.Random(13)
        p = sc.random_prime(62, rng)
        x = ONE / (U - 1)
        pt = sc.random_point(p, rng)
        pt["u"] = 1
        with pytest.raises(sc.EvalRetry):
            eval_mod(x, p, pt)


def crt_point(primes, points):
    """The CRT combination of one point per prime, modulo their product."""
    n = 1
    for q in primes:
        n *= q
    return n, {name: sum(pt[name] * (n // q) * pow(n // q, -1, q)
                         for q, pt in zip(primes, points)) % n
               for name in points[0]}


def rand_low(rng):
    """A Scalar with Gaussian-integer coefficients whose numerator holds u0,
    uk, a0 and ak to negative powers only, over 0 to 2 factors u^a - unit."""
    x = Scalar.monomial(u=rng.randrange(-3, 4), u0=-rng.randrange(3), uk=-rng.randrange(3),
                        a0=-rng.randrange(3), ak=-rng.randrange(3), coeff=rng.choice(UNITS))
    for _ in range(rng.randrange(3)):
        f = Scalar.monomial(u=rng.randrange(1, 5)) - Scalar.monomial(coeff=rng.choice(UNITS))
        x = x * f if rng.random() < 0.4 else x / f
    return x


class TestEvalModMany:
    @staticmethod
    def scalars(rng):
        """Distinct seeded Scalars: negative powers of each of the five
        variables, distinct denominators, and one denominator repeated."""
        over = ONE / (U ** 3 - sc.I)
        xs = [rand_scalar(rng) for _ in range(20)] + [rand_domain_scalar(rng) for _ in range(20)]
        xs += [x * over for x in xs[:10]] + [rand_low(rng) for _ in range(20)]
        xs = list(dict.fromkeys(xs))
        negative = {var for x in xs for e in x.num.terms for var in range(sc.NVARS) if e[var] < 0}
        assert negative == set(range(sc.NVARS))
        assert len({x.den for x in xs}) > 10 and sum(x.den == over.den for x in xs) >= 10
        return xs

    def test_equals_entrywise(self):
        # modulo a 62-bit prime and modulo the product of two
        rng = random.Random(31)
        xs = self.scalars(rng)
        primes = [sc.random_prime(62, rng) for _ in range(2)]
        points = [sc.random_point(q, rng) for q in primes]
        for p, pt in [*zip(primes, points), crt_point(primes, points)]:
            assert sc.eval_mod_many(xs, p, pt) == [eval_mod(x, p, pt) for x in xs]
        assert primes[0] != primes[1] and sc.eval_mod_many([], primes[0], points[0]) == []

    def test_retry_is_the_first_entrywise_one(self):
        # one CRT prime makes a denominator, or the residue of u, a non-unit:
        # the batch raises the EvalRetry entrywise eval_mod raises first
        rng = random.Random(32)
        xs = self.scalars(rng)

        def first_retry(p, pt):
            for x in xs:
                try:
                    eval_mod(x, p, pt)
                except sc.EvalRetry as exc:
                    return exc.residue
            return None

        for u in (1, 0):
            primes = [sc.random_prime(62, rng) for _ in range(2)]
            points = [sc.random_point(q, rng) for q in primes]
            points[0]["u"] = u
            n, pt = crt_point(primes, points)
            for order in range(5):
                want = first_retry(n, pt)
                assert want is not None and want % primes[0] == 0 and want % primes[1]
                with pytest.raises(sc.EvalRetry) as exc:
                    sc.eval_mod_many(xs, n, pt)
                assert exc.value.residue == want
                rng.shuffle(xs)

    def test_one_inverse_per_table_and_denominator(self, monkeypatch):
        # over 50 evaluations at one point, eval_mod inverts a residue once
        # per table of negative powers, and each denominator once; the
        # batch inverts the denominators together
        calls = []

        def counting(x, p):
            calls.append(x)
            return pow(x, -1, p)

        rng = random.Random(33)
        xs = list(dict.fromkeys(rand_low(rng) + rand_low(rng) for _ in range(60)))[:50]
        assert len(xs) == 50 and all(type(part) is int for x in xs
                                     for c in x.num.terms.values() for part in c)
        tables = {var for x in xs for e in x.num.terms for var in range(sc.NVARS) if e[var] < 0}
        dens = sum(1 for x in xs if x.den)
        assert len(tables) == sc.NVARS and 0 < dens < len(xs)
        p = sc.random_prime(62, rng)
        pt = sc.random_point(p, rng)
        want = [eval_mod(x, p, pt) for x in xs]
        monkeypatch.setattr(sc, "_inv_mod", counting)
        sc._power_table.cache_clear()
        assert [eval_mod(x, p, pt) for x in xs] == want
        assert len(calls) == len(tables) + dens
        calls.clear()
        sc._power_table.cache_clear()
        assert sc.eval_mod_many(xs, p, pt) == want
        assert len(calls) == len(tables) + 1


def twelve_base_is_prime(n):
    """The primality test the trial primes were first drawn with: trial
    division by the first twelve primes, then a strong Fermat test to each
    of them as base."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class TestPrimality:
    def test_agrees_below_ten_to_the_five(self):
        # and just above 1000^2, below which a number with no prime factor
        # under 1000 is prime: 1009^2 = 1018081 and 1009 * 1013 are not
        for numbers in (range(10 ** 5), range(1000 ** 2 - 10 ** 4, 1000 ** 2 + 3 * 10 ** 4)):
            assert [n for n in numbers
                    if sc.is_probable_prime(n) != twelve_base_is_prime(n)] == []

    def test_agrees_on_seeded_samples(self):
        rng = random.Random(8)
        for bits in (62, 63, 64, 80):
            primes = 0
            for _ in range(3000):
                n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
                verdict = twelve_base_is_prime(n)
                assert sc.is_probable_prime(n) == verdict, n
                primes += verdict
            assert primes > 20, bits

    def test_strong_pseudoprimes(self):
        # composites that pass the strong test to the bases 2, 3, 5, 7
        # (3215031751) and to every prime base up to 23 (3825123056546413051)
        for n in (3215031751, 3825123056546413051, 3825123056546413051 * 1009):
            assert not sc.is_probable_prime(n) and not twelve_base_is_prime(n)
        for n in (2 ** 61 - 1, 2 ** 64 - 59, 2 ** 89 - 1):
            assert sc.is_probable_prime(n) and twelve_base_is_prime(n)

    def test_random_prime_refuses_fewer_than_three_bits(self):
        # bits = 0 raised a bare ValueError; 1 and 2 looped forever
        for bits in (2, 1, 0, -1, 3.0):
            with pytest.raises(sc.ScalarError, match="bits"):
                sc.random_prime(bits, random.Random(0))
        assert {sc.random_prime(3, random.Random(s)) for s in range(20)} == {5}

    def test_trial_primes_are_pinned(self):
        # the primes random_prime draws from each seed, at both widths the
        # tests use; recorded with the twelve-base test
        text = " ".join("%d:%d:%d" % (bits, s, sc.random_prime(bits, random.Random(s)))
                        for bits in (12, 62) for s in range(200))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "711041f9ac3c4bd7863730da90555bf9f42906091ff5a5990a079471b4fdfa17"


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

    def test_malformed_json_rejected(self):
        one = [[1, 0, 0, 0, 0, 0, 0]]
        for obj in (1, "x", [], {"num": one}, {"num": one, "den": 1},
                    {"num": [[1, 0, 0]], "den": one},
                    {"num": [[1, 0, 0, 0, 0, True, 0]], "den": one},
                    {"num": [["1/x", 0, 0, 0, 0, 0, 0]], "den": one},
                    {"num": [["1/0", 0, 0, 0, 0, 0, 0]], "den": one},
                    {"num": one, "den": []}):
            with pytest.raises(sc.ScalarError):
                sc.from_json(obj)
        assert sc.from_json({"num": [["1/2", 0, 1, 0, 0, 0, 0]], "den": one}) == U / 2

    def test_repeated_exponents_rejected(self):
        # two rows with one exponent vector are refused, in "num" and in "den"
        u, one = [1, 0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0]
        for obj, exps in (({"num": [u, u], "den": [one]}, "[1, 0, 0, 0, 0]"),
                          ({"num": [u], "den": [one, one]}, "[0, 0, 0, 0, 0]")):
            with pytest.raises(sc.ScalarError, match="repeats the exponents") as exc:
                sc.from_json(obj)
            assert exps in str(exc.value)

    def test_hash_is_kept(self):
        # equal Scalars built by parsing, by arithmetic and from JSON hash
        # alike, and a Scalar's hash is hash((num, den)) on every call
        rng = random.Random(97)
        for _ in range(50):
            x = rand_scalar(rng)
            first = hash(x)
            routes = [sc.parse(sc.render(x)), (x + ONE) - ONE, x * 2 / 2,
                      sc.from_json(json.loads(json.dumps(sc.to_json(x))))]
            assert all(y == x and hash(y) == first for y in routes)
            assert hash(x) == first == hash((x.num, x.den))

    def test_render_example(self):
        assert sc.render(qint(3)) == "(u^2+1+u^-2)"

    def test_parse_gaussian(self):
        assert sc.parse("i*i") == -ONE
        assert sc.parse("(1+i)*(1-i)") == Scalar.from_int(2)


class TestReader:
    # the exponent vectors of every bb string base used in src/blobalg
    BASES = {"t": (2, 0, 0, 0, 0), "t0": (0, 2, 0, 0, 0), "tk": (0, 0, 2, 0, 0),
             "t0/t": (-2, 2, 0, 0, 0), "tk/t": (-2, 0, 2, 0, 0),
             "t0*tk/t": (-2, 2, 2, 0, 0), "t0/tk": (0, 2, -2, 0, 0)}

    def test_bb_bases(self):
        for text, expo in self.BASES.items():
            assert sc.monomial_base(text) == expo
            assert sc.parse("bb(%s)" % text) == bb(text)
        assert sc.parse("bb(t, 3)") == bb("t", 3) == bb((2, 0, 0, 0, 0), 3)
        assert sc.parse("bb(t0^2, 1/2)") == bb("t0") == U0 + U0.inv()

    def test_grammar(self):
        assert sc.parse("-u^2") == -(U * U)
        assert sc.parse("u**2 / 2^-1") == 2 * U * U
        assert sc.parse(" +u - -u0 ") == U + U0
        assert sc.parse("qint(3)*t0") == qint(3) * U0 ** 2
        assert sc.parse("1/(u^4-1)") == (U ** 4 - 1).inv()

    def test_rejected(self):
        deep = "-" * 10000 + "u"
        for text in ("qint(", "bb(t,x)", "qint(-1)", "qint(1, 2)", "bb(t, s=1)",
                     "u^u", "u^(1/2)", "bb(2*t)", "bb(t, 3/2)", "1.5*u", "u.num",
                     "__import__('os')", "[u]", "u < 1", "u % 2", "u u", "", "x",
                     "(" * 300 + "u" + ")" * 300, "-(" * 150 + "u" + ")" * 150, deep):
            with pytest.raises(sc.ScalarError) as exc:
                sc.parse(text)
            assert len(str(exc.value)) < 120, text[:50]
        with pytest.raises(sc.ScalarError, match="division by zero"):
            sc.parse("1/(u-u)")

    def test_degree_limit(self):
        # u^1000 - 1 is a cyclotomic product, but past the degree limit
        with pytest.raises(sc.ScalarError, match="degree below"):
            sc.parse("1/(u^1000-1)")

    def test_foreign_operand(self):
        for op in ("__add__", "__sub__", "__mul__", "__truediv__",
                   "__radd__", "__rsub__", "__rmul__"):
            assert getattr(U, op)("u") is NotImplemented
        with pytest.raises(TypeError):
            U + "u"


def upoly(coeffs, rest=(0, 0, 0, 0)):
    """Dense coefficients in u (lowest first) -> LaurentPoly."""
    return sc.LaurentPoly({(j,) + rest: c for j, c in enumerate(coeffs)
                           if c != (0, 0)})


def _qi_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _qi_inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    re, im = Fraction(a[0]) / n, -Fraction(a[1]) / n
    return (int(re) if re.denominator == 1 else re, int(im) if im.denominator == 1 else im)


def _trim(a):
    a = list(a)
    while a and a[-1] == (0, 0):
        a.pop()
    return a


def ref_divmod(a, b):
    """Quotient and remainder of dense polynomials in u over Q(i): lists of
    (real, imaginary) pairs, lowest degree first, b nonzero."""
    a = list(a)
    q = [(0, 0)] * max(len(a) - len(b) + 1, 0)
    lead = _qi_inv(b[-1])
    for base in range(len(a) - len(b), -1, -1):
        c = _qi_mul(a[base + len(b) - 1], lead)
        if c == (0, 0):
            continue
        q[base] = c
        for j, x in enumerate(b):
            y = _qi_mul(c, x)
            a[base + j] = (a[base + j][0] - y[0], a[base + j][1] - y[1])
    return _trim(q), _trim(a[:len(b) - 1])


def _monic_dense(a):
    lead = _qi_inv(a[-1])
    return [_qi_mul(c, lead) for c in a]


def ref_gcd(a, b):
    """Monic gcd by Euclid over Q(i), keeping each remainder monic."""
    while b:
        a, b = b, ref_divmod(a, b)[1]
        if b:
            b = _monic_dense(b)
    return _monic_dense(a)


def gcd_path(n, d):
    """Reference cancellation for a denominator d in u alone: n and d divided
    by their gcd, the gcd of d and the u-coefficient rows of n (n as a
    polynomial in u over the other variables), with d made monic."""
    def dense(terms):
        return _trim([terms.get(j, (0, 0)) for j in range(max(terms) + 1)])

    rows = {}
    for e, c in n.terms.items():
        rows.setdefault(e[1:], {})[e[0]] = c
    den = dense({e[0]: c for e, c in d.terms.items()})
    g = den
    for t in rows.values():
        g = ref_gcd(g, dense(t))
    den, r = ref_divmod(den, g)
    assert not r
    scale = _qi_inv(den[-1])
    num = {}
    for rest, t in rows.items():
        q, r = ref_divmod(dense(t), g)
        assert not r
        num.update({(j,) + rest: _qi_mul(c, scale) for j, c in enumerate(q)})
    return (sc.LaurentPoly(num),
            sc.LaurentPoly({(j, 0, 0, 0, 0): _qi_mul(c, scale) for j, c in enumerate(den)}))


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
        got = cancel(n, d)
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
            taken += sc._factor_cyclotomic(dense) is not None
            assert cancel(n, d) == gcd_path(n, d), case
        assert taken == 200

    def test_numerator_rows(self):
        # a factor of d is cancelled only if it divides every u-row of n
        f = upoly([(0, -1), (1, 0)])                          # u - i
        d = upoly([(1, 0), (0, 0), (1, 0)]) * binomial(3, (1, 0))
        a0 = upoly([(1, 0)], rest=(0, 0, 1, 0))
        g, h = upoly([(2, 1), (1, 0)]), upoly([(0, 1), (1, 0)])
        shared, one_row = f * g + a0 * f * h, f * g + a0 * h
        for n in (shared, one_row):
            assert cancel(n, d) == gcd_path(n, d)
        assert cancel(shared, d)[1].degree_in(0) == d.degree_in(0) - 1
        assert cancel(one_row, d)[1] == d

    def test_repeated_factors(self):
        f = upoly([(1, 0), (0, 0), (1, 0)])                   # u^2 + 1
        g = upoly([(0, -1), (1, 0)])                          # u - i
        for a in range(4):
            for b in range(4):
                n = lpow(g, a) * upoly([(3, 0), (1, 0)])
                d = lpow(f, b) * lpow(binomial(3, (1, 0)), 2)
                assert cancel(n, d) == gcd_path(n, d), (a, b)

    def test_other_denominators_rejected(self):
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
            den = Scalar(d)
            with pytest.raises(sc.ScalarError, match="cyclotomic"):
                den.inv()
            for _ in range(5):
                # a numerator that d divides is rejected too: the given
                # denominator is checked before anything is cancelled
                n = rand_gaussian_poly(rng) * (d if rng.random() < 0.5 else u_minus_3)
                with pytest.raises(sc.ScalarError, match="cyclotomic"):
                    Scalar(n, d)
                with pytest.raises(sc.ScalarError, match="cyclotomic"):
                    sc.parse("(%s)/(%s)" % (sc.render(Scalar(n)), sc.render(den)))
                with pytest.raises(sc.ScalarError, match="cyclotomic"):
                    sc.from_json({"num": sc.to_json(Scalar(n))["num"],
                                  "den": sc.to_json(den)["num"]})

    def test_degree_limit(self):
        # u^5000 - 1 is a cyclotomic product, but past the stated limit
        assert (U ** 4 - 1).inv() * (U ** 4 - 1) == ONE
        with pytest.raises(sc.ScalarError, match="cyclotomic"):
            (U ** 5000 - 1).inv()

    def test_memo_is_bounded(self):
        # the three caches hold at most _FACTOR_MEMO_MAX entries, however
        # many distinct denominators and divisions pass through them
        caches = (sc._factor_cyclotomic, sc._expand, sc._divide_exactly)
        for cache in caches:
            assert cache.cache_info().maxsize == sc._FACTOR_MEMO_MAX
        n = rand_gaussian_poly(random.Random(1)) * upoly([(-1, 0), (1, 0)])
        total = Scalar.zero()
        for a in range(1, 12):
            d = binomial(a, (1, 0))
            assert cancel(n, d) == gcd_path(n, d)
            total = total + Scalar(n, d)
        want = Scalar.zero()
        for a in range(1, 12):
            want = cross_multiplied_sum(want, Scalar(n, binomial(a, (1, 0))))
        assert total.num.terms == want.num.terms
        assert sc._expand(total.den).terms == sc._expand(want.den).terms
        # more distinct keys than fit: u + c for |c| > 1 is no cyclotomic
        # product, and the products of distinct pool factors are distinct
        pool = CYCLO_POOL[:11]
        for c in range(2, sc._FACTOR_MEMO_MAX + 12):
            sc._factor_cyclotomic(((c, 0), (1, 0)))
        for mask in range(1, sc._FACTOR_MEMO_MAX + 12):
            sc._expand(tuple(sorted((f, 1) for j, f in enumerate(pool) if mask >> j & 1)))
        for c in range(sc._FACTOR_MEMO_MAX + 12):
            sc._divide_exactly(pool[0], ((c, 0), (1, 0)))
        for cache in caches:
            assert cache.cache_info().currsize == sc._FACTOR_MEMO_MAX

    def test_division_memo(self):
        # a quotient is a tuple, the same when computed again after the
        # memo is emptied
        rng = random.Random(23)
        cases = []
        for case in range(40):
            f = rng.choice(CYCLO_POOL)
            n = rand_gaussian_poly(rng) * lpow(upoly(f), case % 2)
            dense = tuple(n.terms.get((j, 0, 0, 0, 0), (0, 0)) for j in range(n.degree_in(0) + 1))
            q = sc._divide_exactly(f, dense)
            assert q is None or (type(q) is tuple and upoly(q) * upoly(f) == n), case
            cases.append((f, dense, q))
        assert sum(q is not None for _, _, q in cases) >= 20
        sc._divide_exactly.cache_clear()
        for f, dense, q in cases:
            assert sc._divide_exactly(f, dense) == q


def cancel(n, d):
    """`sc._cancel` with the denominator left expanded."""
    n, factors = sc._cancel(n, d)
    return n, sc._expand(factors)


def cross_multiplied_sum(a, b):
    """a + b as it was formed before sums over the lcm: the cross-multiplied
    numerator over the product of the denominators, then normalized."""
    a_den, b_den = sc._expand(a.den), sc._expand(b.den)
    return Scalar(a.num * b_den + b.num * a_den, a_den * b_den)


def rand_numerator(rng):
    """Terms with negative u-exponents and in u0, a0 and ak; some rational."""
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        e = (rng.randrange(-4, 5), rng.choice((0, 0, 1, -1)), 0,
             rng.choice((0, 0, 1, -1)), rng.choice((0, 0, 1, -1)))
        c = (rng.randrange(-3, 4), rng.randrange(-2, 3))
        terms[e] = (Fraction(c[0], 3), c[1]) if rng.random() < 0.2 else c
    p = sc.LaurentPoly(terms)
    return sc.LaurentPoly.const(1) if p.is_zero() else p


def factor_product(factors):
    out = sc.LaurentPoly.const(1)
    for f, k in factors:
        out = out * lpow(upoly(f), k)
    return out


def rand_factors(rng, pool):
    """Up to three distinct factors of `pool`, each to a power 1 or 2."""
    return [(f, rng.randrange(1, 3)) for f in rng.sample(pool, rng.randrange(0, 4))]


CYCLO_POOL = [f for m in range(1, 13) for f in sc._cyclotomic_factors(m)]
U2_MINUS_I, U2_PLUS_I = sc._cyclotomic_factors(8)  # the Q(i)-halves of Phi_8


class TestSumOverLcm:
    """Sums over the lcm of the factored denominators are structurally the
    normalized cross-multiplied sums."""

    @staticmethod
    def check(a, b):
        for x, y in ((a, b), (a, -b)):
            got, want = x + y, cross_multiplied_sum(x, y)
            assert got.num.terms == want.num.terms, (x, y)
            assert sc._expand(got.den).terms == sc._expand(want.den).terms, (x, y)
        return a + b

    def scalar(self, rng, factors):
        return Scalar(rand_numerator(rng), factor_product(factors))

    def test_random_denominators(self):
        rng = random.Random(15)
        for _ in range(150):
            a = self.scalar(rng, rand_factors(rng, CYCLO_POOL))
            b = self.scalar(rng, rand_factors(rng, CYCLO_POOL))
            self.check(a, b)
            self.check(a, a * Scalar(rand_numerator(rng)))
        for _ in range(60):
            self.check(rand_domain_scalar(rng), rand_domain_scalar(rng))

    def test_disjoint_factors(self):
        rng = random.Random(16)
        for _ in range(50):
            fs = rng.sample(CYCLO_POOL, 4)
            a = self.scalar(rng, [(fs[0], rng.randrange(1, 3)), (fs[1], 1)])
            b = self.scalar(rng, [(fs[2], 1), (fs[3], rng.randrange(1, 3))])
            assert sc._expand(self.check(a, b).den) == \
                sc._expand(a.den) * sc._expand(b.den)

    def test_equal_multiplicity_cancels(self):
        # b = s - a, with s free of f: in a + b = s, f cancels
        rng = random.Random(17)
        cancelled = 0
        for _ in range(60):
            f, g, h = rng.sample(CYCLO_POOL, 3)
            a = self.scalar(rng, [(f, rng.randrange(1, 3)), (g, 1)])
            s = self.scalar(rng, [(g, rng.randrange(0, 3)), (h, 1)])
            b = cross_multiplied_sum(s, -a)
            assert self.check(a, b) == s
            assert multiplicity(f, s.den) == 0
            cancelled += multiplicity(f, a.den) == multiplicity(f, b.den) > 0
        assert cancelled >= 55

    def test_unequal_multiplicity(self):
        rng = random.Random(18)
        unequal = 0
        for _ in range(60):
            f, g = rng.sample(CYCLO_POOL, 2)
            k = rng.randrange(1, 3)
            a = self.scalar(rng, [(f, k)])
            b = self.scalar(rng, [(f, k + rng.randrange(1, 3)), (g, 1)])
            s = self.check(a, b)
            ka, kb = multiplicity(f, a.den), multiplicity(f, b.den)
            if 0 < ka != kb > 0:
                unequal += 1
                assert multiplicity(f, s.den) == max(ka, kb)
        assert unequal >= 55

    def test_both_halves_of_phi8(self):
        rng = random.Random(19)
        for _ in range(40):
            a = self.scalar(rng, [(U2_MINUS_I, rng.randrange(1, 3))])
            b = self.scalar(rng, [(U2_PLUS_I, rng.randrange(1, 3))])
            c = self.scalar(rng, [(U2_MINUS_I, 1), (U2_PLUS_I, 1)])
            self.check(a, b)
            self.check(a, c)
            self.check(c, b)

    def test_exact_zero_and_unit_denominator(self):
        rng = random.Random(20)
        for _ in range(40):
            a = self.scalar(rng, rand_factors(rng, CYCLO_POOL))
            assert (a - a).is_zero() and (a + (-a)).is_zero()
            assert self.check(a, -a).is_zero()
            one_den = Scalar(rand_numerator(rng))
            assert sc._expand(one_den.den).is_one()
            self.check(a, one_den)
            self.check(one_den, a)

    def test_rank2_chart_digest(self):
        # the nullity reports and relator matrices of the 34 skew regions of
        # the rank-2 chart at bound 5, recorded when every sum was still
        # formed over the product of the denominators
        import hashlib
        import oracles
        from blobalg import calib as cb
        from blobalg import regions as rg
        from blobalg import words as wd
        params = rg.RegionParams(Fraction(3, 2), Fraction(11, 2))
        regions = [r for r in rg.enumerate_regions(2, params, Fraction(5)) if rg.is_skew(r)]
        assert len(regions) == 34
        h = hashlib.sha256()
        for r in regions:
            m = cb.build_module(cb.ModuleSpec(r))
            # the quotient relators F_i, F_0, F_k, F_0v
            relators = {"F%d" % i: oracles.f_inner(i, m.k) for i in range(1, m.k - 1)}
            relators.update(F0=wd.f_element("F0", m.k), Fk=oracles.f_k(m.k),
                            F0v=wd.f_element("F0v", m.k))
            entries = {name: [sorted((c, sc.to_json(x)) for c, x in row.items())
                              for row in m.evaluate_word(expr)]
                       for name, expr in relators.items()}
            h.update(json.dumps([str(r.c), sorted(map(str, r.J)),
                                 cb.idempotent_nullity(m), entries],
                                sort_keys=True).encode())
        assert h.hexdigest() == \
            "0f44826a7187ab654927d8f23a82f2678c87631cb9d41c13e3cb7438bae054cd"


class TestProductOverFactors:
    """Products merged over the factored denominators are structurally the
    normalized products of numerators over products of denominators."""

    @staticmethod
    def check(a, b):
        want = Scalar(a.num * b.num, sc._expand(a.den) * sc._expand(b.den))
        for got in (a * b, b * a):
            assert got.num.terms == want.num.terms, (a, b)
            assert got.den == want.den, (a, b)
        return a * b

    @staticmethod
    def scalar(rng, factors, divisor=()):
        """A random numerator times the factors `divisor` over the product
        of `factors`."""
        return Scalar(rand_numerator(rng) * factor_product(divisor), factor_product(factors))

    def test_unit_denominator(self):
        rng = random.Random(40)
        for _ in range(40):
            a = self.scalar(rng, rand_factors(rng, CYCLO_POOL))
            one_den = Scalar(rand_numerator(rng))
            assert self.check(a, one_den).den == a.den
            assert self.check(one_den, one_den).den == ()

    def test_disjoint_factors(self):
        rng = random.Random(41)
        for _ in range(50):
            fs = rng.sample(CYCLO_POOL, 4)
            a = self.scalar(rng, [(fs[0], rng.randrange(1, 3)), (fs[1], 1)])
            b = self.scalar(rng, [(fs[2], 1), (fs[3], rng.randrange(1, 3))])
            assert sc._expand(self.check(a, b).den) == \
                sc._expand(a.den) * sc._expand(b.den)

    def test_shared_factors_add(self):
        rng = random.Random(42)
        for _ in range(50):
            fs = rng.sample(CYCLO_POOL, 3)
            a = self.scalar(rng, [(fs[0], rng.randrange(1, 3)), (fs[1], 1)])
            b = self.scalar(rng, [(fs[0], rng.randrange(1, 3)), (fs[2], 1)])
            prod = self.check(a, b)
            assert multiplicity(fs[0], prod.den) == \
                multiplicity(fs[0], a.den) + multiplicity(fs[0], b.den)

    def test_numerator_divisible_by_other_factor(self):
        # a's numerator holds f^j, b's denominator f^2: f^(2-j) is left
        rng = random.Random(43)
        for j in (1, 2):
            for _ in range(30):
                f, g, h = rng.sample(CYCLO_POOL, 3)
                a = self.scalar(rng, [(g, rng.randrange(1, 3))], divisor=[(f, j)])
                b = self.scalar(rng, [(f, 2), (h, 1)])
                assert multiplicity(f, self.check(a, b).den) == 2 - j, j

    def test_cancels_to_unit_denominator(self):
        rng = random.Random(44)
        for _ in range(40):
            fa, fb = rand_factors(rng, CYCLO_POOL), rand_factors(rng, CYCLO_POOL)
            a = self.scalar(rng, fa, divisor=fb)
            b = self.scalar(rng, fb, divisor=fa)
            assert self.check(a, b).den == ()


def test_canonical_form_digest():
    # every entry of T_0..T_(k-1), W_1..W_k and T_k on the 25 nonzero (6,3)
    # modules at k <= 4, in canonical JSON form: a change of how a Scalar
    # stores its value must leave this form as it is
    import hashlib
    from blobalg import schurweyl as sw
    p63 = sw.SWParams(6, 3)
    h = hashlib.sha256()
    modules = 0
    for k in range(1, 5):
        for _l1, l in sw.level_nodes(p63, k):
            if sw.zero_multiplicity(p63, k, l):
                continue
            m = sw.module_for(p63, k, l)
            modules += 1
            for mat in [m.T[i] for i in range(k)] + list(m.W) + [m.tk_matrix()]:
                for row in mat:
                    for col in sorted(row):
                        h.update(json.dumps([col, sc.to_json(row[col])]).encode())
    assert modules == 25
    assert h.hexdigest() == \
        "26436d8eb590042df76a10c9f9eb84373ade005fe2bf859c9f380fb4eae63ade"


def multiplicity(f, den):
    """How often the cyclotomic factor f divides the denominator whose
    factorization is den."""
    den = sc._expand(den)
    dense = tuple(den.terms.get((j, 0, 0, 0, 0), (0, 0)) for j in range(den.degree_in(0) + 1))
    k = 0
    while (dense := sc._divide_exactly(f, dense)) is not None:
        k += 1
    return k


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


def rand_unit(rng):
    """A nonzero monomial times binomials u^a - (unit) and their inverses."""
    x = Scalar.monomial(
        u=rng.randrange(-3, 4), u0=rng.randrange(-1, 2),
        uk=rng.randrange(-1, 2), a0=rng.randrange(-1, 2),
        ak=rng.randrange(-1, 2),
        coeff=rng.choice(((1, 0), (-2, 0), (3, 1), (0, -1))))
    for _ in range(rng.randrange(3)):
        f = Scalar.monomial(u=rng.randrange(1, 5)) - Scalar.monomial(coeff=rng.choice(UNITS))
        x = x * f if rng.random() < 0.5 else x / f
    return x


def rand_domain_scalar(rng, depth=0):
    """Sums, differences and products of `rand_unit`s."""
    choice = rng.randrange(8)
    if choice < 3 or depth > 2:
        return rand_unit(rng)
    a = rand_domain_scalar(rng, depth + 1)
    b = rand_domain_scalar(rng, depth + 1)
    if choice < 5:
        return a + b
    if choice < 7:
        return a * b
    return a - b


def naive_terms(pairs):
    """The terms of a sum of (exponents, coefficient) pairs, added one by
    one, zeros dropped at the end, and how many exponents summed to zero."""
    out = {}
    for e, c in pairs:
        s = out.get(e, (0, 0))
        out[e] = (s[0] + c[0], s[1] + c[1])
    zeros = sum(1 for c in out.values() if c == (0, 0))
    return {e: c for e, c in out.items() if c != (0, 0)}, zeros


def naive_product(p, q):
    return naive_terms((tuple(x + y for x, y in zip(e, f)), _qi_mul(c, d))
                       for e, c in p.terms.items() for f, d in q.terms.items())


# coefficients from a small set, so that terms often cancel
KERNEL_COEFFS = ((1, 0), (-1, 0), (0, 1), (0, -1), (2, -1), (Fraction(1, 2), 0),
                 (0, Fraction(-3, 2)), (Fraction(2, 3), Fraction(1, 3)))


def rand_laurent(rng, nvars):
    """Up to six terms in the first `nvars` variables, exponents -2..2."""
    return sc.LaurentPoly({
        tuple(rng.randrange(-2, 3) if v < nvars else 0 for v in range(sc.NVARS)):
        rng.choice(KERNEL_COEFFS) for _ in range(rng.randrange(1, 7))})


def dense_product(a, b):
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            p = _qi_mul(x, y)
            out[i + j] = (out[i + j][0] + p[0], out[i + j][1] + p[1])
    return out


class TestKernelOracles:
    """The written-out loops of products, sums, shifts and trial divisions
    against term-by-term references."""

    def test_products_sums_and_shifts(self):
        rng = random.Random(50)
        zeros = 0
        for case in range(600):
            nvars = 1 + case % sc.NVARS
            p, q = rand_laurent(rng, nvars), rand_laurent(rng, nvars)
            want, z = naive_product(p, q)
            zeros += z
            assert (p * q).terms == want, (p, q)
            want, z = naive_terms([*p.terms.items(), *q.terms.items()])
            zeros += z
            assert (p + q).terms == want, (p, q)
            assert (p + q - q).terms == p.terms
            assert (p - p).is_zero() and (p * (q - q)).is_zero()
            e = tuple(rng.randrange(-3, 4) for _ in range(sc.NVARS))
            assert p.shift(e).terms == {tuple(x + y for x, y in zip(f, e)): c
                                        for f, c in p.terms.items()}
        assert zeros >= 10  # sums that cancelled a term to zero

    def test_dense_divmod_against_schoolbook(self, monkeypatch):
        # the binomials u^a - c that `_binomial_ratio` divides by as it
        # builds the factor tables for m <= 120, all u^a - c for a <= 12 and
        # c a unit, every factor for m <= 120 ...
        binomials = set()
        divmod_ = sc._dense_divmod
        monkeypatch.setattr(sc, "_dense_divmod", lambda a, f: binomials.add(f) or divmod_(a, f))
        for m in range(1, 121):
            sc._cyclotomic_factors.__wrapped__(m)
        monkeypatch.undo()
        assert all(f[0] in UNITS and set(f[1:-1]) <= {(0, 0)} and f[-1] == (1, 0)
                   for f in binomials)
        binomials |= {((-c[0], -c[1]),) + ((0, 0),) * (a - 1) + ((1, 0),)
                      for a in range(1, 13) for c in UNITS}
        factors = {f for m in range(1, 121) for f in sc._cyclotomic_factors(m)}
        # Phi_105 has a coefficient -2: the multiplying path is covered too
        assert any(c not in UNITS + ((0, 0),) for f in factors for c in f)
        rng = random.Random(51)
        # and monic divisors with Gaussian coefficients no factor has
        generic = {tuple(rng.choice(((2, -1), (-1, 3), (0, 2), (1, 1), (0, 0), (0, -1)))
                         for _ in range(rng.randrange(1, 6))) + ((1, 0),) for _ in range(20)}
        for f in sorted(binomials | factors | generic):
            for size in (0, len(f) - 1, len(f), len(f) + 9):
                a = [rng.choice(KERNEL_COEFFS + ((0, 0),)) for _ in range(size)]
                q, r = sc._dense_divmod(a, f)
                assert (_trim(q), _trim(r)) == ref_divmod(a, list(f)), (f, a)
            q = [rng.choice(KERNEL_COEFFS) for _ in range(rng.randrange(1, 8))]
            got, r = sc._dense_divmod(dense_product(f, q), f)
            assert got == q and not _trim(r)
