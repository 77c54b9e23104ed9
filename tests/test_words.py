"""Generator words: expansion, named elements, the quotient idempotents."""

import pytest

from blobalg import calib as cb
from blobalg import diagrams as dg
from blobalg import scalars as sc
from blobalg import verify as vf
from blobalg import words as wd
from blobalg.scalars import A0, AK, ONE, Scalar, U, U0, UK, bb

import oracles

G = wd.GenExpr.word


class TestExpansion:
    def test_t1_image(self):
        el = wd.expand_to_tl(G(2, [wd.T(1)]))
        expected = dg.TLElement(2, {dg.e_diagram(2, 1): ONE,
                                    dg.identity_diagram(2): U})
        assert el == expected

    def test_quadratic_via_engine(self):
        x = G(2, [wd.T(1)])
        lhs = x * x - x.scale(U - U.inv()) - wd.GenExpr.one(2)
        assert wd.expand_to_tl(lhs).is_zero()

    def test_t0_inverse_reduces(self):
        el = wd.expand_to_tl(G(2, [wd.T0, wd.T0inv]))
        assert el == dg.TLElement.one(2)

    def test_index_out_of_range(self):
        with pytest.raises(wd.WordError):
            G(2, [wd.T(2)])

    def test_mixed_k_refused(self):
        # a sum would carry T2 into a k = 2 expression, out of its range
        x, y = G(2, [wd.T(1)]), G(3, [wd.T(2)])
        for combine in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: y * x):
            with pytest.raises(wd.WordError, match="k=\\d and k=\\d"):
                combine()
        # a Scalar operand is the empty word at the expression's own k
        assert x + ONE == ONE + x == x + wd.GenExpr.one(2)
        assert (x * U).k == (U - x).k == 2

    def test_diagonal_letter_renders_and_is_range_checked(self):
        rhs = {name: rhs for name, _, rhs in cb._relations(2)}["C2:T0W1"]
        assert repr(rhs) == ("(Scalar(1))*T0 + (Scalar((uk-uk^-1)))*W1"
                             " + (Scalar((u0-u0^-1)))*W1*W1")
        for j in (0, 3):
            with pytest.raises(wd.WordError, match="W%d out of range" % j):
                G(2, [wd.W(j)])
        assert repr(G(2, [wd.W(2)])) == "(Scalar(1))*W2"

    def test_diagonal_letter_expands_to_its_murphy_word(self):
        for k in range(1, 5):
            for j in range(1, k + 1):
                want = wd.expand_to_tl(wd.murphy_expr(k, j))
                assert wd.letter_element(k, wd.W(j)) == want, (k, j)
                assert wd.expand_to_tl(G(k, [wd.W(j)])) == want, (k, j)

    def test_words_multiply_in_their_order(self):
        # a mutant that multiplies each word's letters in reversed order
        # passes every suite the top-bottom flip maps to itself
        for a, b in ((wd.T(1), wd.E0), (wd.E0, wd.T(1)), (wd.T0, wd.E(1))):
            ab = wd.letter_element(2, a) * wd.letter_element(2, b)
            assert ab != wd.letter_element(2, b) * wd.letter_element(2, a), (a, b)
            assert wd.expand_to_tl(G(2, [a, b])) == ab, (a, b)

    def test_equals_left_to_right(self):
        for k in range(2, 6):
            for name in wd.STANDARD_NAMES:
                try:
                    x = wd.standard_element(name, k)
                except wd.WordError:
                    continue
                assert wd.expand_to_tl(x) == oracles.expand_left_to_right(x), (name, k)
        for k in (1, 2, 3):
            for name, lhs, rhs in cb._relations(k):
                for x in (lhs, rhs):
                    assert wd.expand_to_tl(x) == oracles.expand_left_to_right(x), (name, k)


class TestLetters:
    """A T or E letter is (kind, index, power), the walls indexed by "0" and
    "k", so that an integer index always means an inner letter."""

    @staticmethod
    def names(k):
        t_names = ["T0", "Tk"] + ["T%d" % i for i in range(1, k)]
        e_names = ["E0", "Ek"] + ["E%d" % i for i in range(1, k)]
        return t_names + [name + "^-1" for name in t_names] + e_names

    def test_names_read_back(self):
        for k in range(1, 5):
            for name in self.names(k):
                g = wd.parse_genexpr(name, k)
                ((letter,), c), = g.terms.items()
                assert c.is_one() and wd._letter_name(letter) == name, (k, name)
                assert repr(g) == "(Scalar(1))*%s" % name
                if letter[0] == "T":
                    assert wd._invert_letter(wd._invert_letter(letter)) == letter
        assert [wd.parse_genexpr(n, 2) for n in ("T0", "T0^-1", "Tk", "Tk^-1", "E0", "Ek")] \
            == [G(2, [x]) for x in (wd.T0, wd.T0inv, wd.Tk, wd.Tkinv, wd.E0, wd.Ek)]

    def test_integer_index_is_inner(self):
        # the wall T_k at k = 1 is Tk, not T(k - 1) = T(0); E(k) is no letter
        for k in range(1, 5):
            with pytest.raises(wd.WordError):
                G(k, [wd.E(k)])
            with pytest.raises(wd.WordError):
                G(k, [wd.T(k, -1)])
        for index in (0, -1):
            with pytest.raises(wd.WordError, match="index"):
                wd.T(index)
            with pytest.raises(wd.WordError, match="index"):
                wd.E(index)

    def test_letter_data(self):
        # T^power = a E + x^power on the diagrams, for every index
        for k in range(1, 5):
            for index in ["0", "k"] + list(range(1, k)):
                x, a, _ = wd.letter_data(index)
                e = G(k, [wd.E(index)])
                for power in (1, -1):
                    ok, _ = wd.verify_identity(G(k, [wd.T(index, power)]),
                                               e.scale(a) + x ** power)
                    assert ok, (k, index, power)

    def test_repr_sorts_words_by_name(self):
        # the words T1 and Tk, as tuples, would compare 1 with "k"
        g = wd.parse_genexpr("Tk + T1 + E1 + T0^-1*T1 + 2", 2)
        assert repr(g) == ("(Scalar(2))*1 + (Scalar(1))*E1 + (Scalar(1))*T0^-1*T1"
                           " + (Scalar(1))*T1 + (Scalar(1))*Tk")


class TestMurphy:
    def test_k1_empty_conjugation(self):
        assert wd.murphy_word(1, 1) == (wd.Tk, wd.T0)

    def test_k2_w1(self):
        assert wd.murphy_word(2, 1) == (wd.T(1, -1), wd.Tk, wd.T(1), wd.T0)

    def test_k2_w2_recursion(self):
        w1 = wd.murphy_word(2, 1)
        assert wd.murphy_word(2, 2) == (wd.T(1),) + w1 + (wd.T(1),)

    def test_inverse_word(self):
        w = wd.murphy_expr(2, 1) * wd.murphy_expr(2, 1, inverse=True)
        assert wd.expand_to_tl(w) == dg.TLElement.one(2)


class TestStandardElements:
    def test_i1_k2(self):
        assert wd.standard_element("I1", 2) == wd.ae(2, 1)

    def test_i1_k3_has_right_hooks(self):
        i1 = wd.standard_element("I1", 3)
        assert i1 == wd.ae(3, 1) * G(3, [wd.Ek])

    def test_i2_k2(self):
        assert wd.standard_element("I2", 2) == G(2, [wd.E0]) * G(2, [wd.Ek])

    def test_parity_mismatch(self):
        with pytest.raises(wd.WordError):
            wd.standard_element("Deven", 3)
        with pytest.raises(wd.WordError):
            wd.standard_element("Dodd", 2)

    def test_dodd_needs_k3(self):
        # its middle word holds T1^-1, which k = 1 does not have
        with pytest.raises(wd.WordError, match="Dodd"):
            wd.standard_element("Dodd", 1)
        assert wd.standard_element("Dodd", 3).terms

    def test_i_squares(self):
        for k in (2, 3, 4):
            i1 = wd.standard_element("I1", k)
            c = (-bb("t")) ** (k // 2)
            if k % 2:
                c = (-bb("t")) ** ((k - 1) // 2) * (-bb("tk") / AK)
            assert wd.expand_to_tl(i1 * i1) == wd.expand_to_tl(i1).scale(c)


class TestIdempotents:
    def test_inner_word_count(self):
        assert len(wd.inner_numerator(3, 1).terms) == 6

    def test_boundary_word_count(self):
        num, _ = oracles.boundary_idempotent("p0_e12", 2)
        assert len(num.terms) == 8

    def test_index_range(self):
        with pytest.raises(wd.WordError):
            wd.inner_numerator(2, 1)

    def test_unknown_relator(self):
        for name in ("Fk", "F1", 1, "p0_pair"):
            with pytest.raises(wd.WordError, match="unknown relator"):
                wd.f_element(name, 3)

    def test_relators_vanish_in_quotient(self):
        # the diagram algebra is exactly the quotient by these elements
        for k in (2, 3):
            assert wd.expand_to_tl(wd.f_element("F0", k)).is_zero()
            assert wd.expand_to_tl(oracles.f_k(k)).is_zero()
            assert wd.expand_to_tl(wd.f_element("F0v", k)).is_zero()
        assert wd.expand_to_tl(oracles.f_inner(1, 3)).is_zero()

    def test_idempotent_numerators_vanish_in_quotient(self):
        for k in (2,):
            for name in oracles.BOUNDARY:
                num, _ = oracles.boundary_idempotent(name, k)
                assert wd.expand_to_tl(num).is_zero(), name
        assert wd.expand_to_tl(wd.inner_numerator(3, 1)).is_zero()


class TestVerifyIdentity:
    def test_theorem_even_k2(self):
        lhs = wd.standard_element("Deven", 2)
        i1 = wd.standard_element("I1", 2)
        i2 = wd.standard_element("I2", 2)
        rhs = (i1 * i2 * i1).scale(A0 * AK) + i1.scale(bb("t0*tk/t"))
        ok, diff = wd.verify_identity(lhs, rhs)
        assert ok and diff.is_zero()

    def test_theorem_odd_k3(self):
        lhs = wd.standard_element("Dodd", 3)
        i1 = wd.standard_element("I1", 3)
        i2 = wd.standard_element("I2", 3)
        rhs = ((i2 * i1 * i2).scale(A0 * AK) - i2.scale(bb("t0/tk"))) \
            .scale(U.inv() * (-bb("t0") / A0))
        ok, _ = wd.verify_identity(lhs, rhs)
        assert ok

    def test_l_even_scalar(self):
        lhs = wd.standard_element("Leven", 2)
        rhs = wd.standard_element("I1", 2).scale(bb("tk/t") / AK)
        ok, _ = wd.verify_identity(lhs, rhs)
        assert ok

    def test_failure_returns_witness(self):
        lhs = wd.standard_element("I1", 2)
        rhs = wd.standard_element("I1", 2).scale(Scalar.from_int(2))
        ok, diff = wd.verify_identity(lhs, rhs)
        assert not ok and not diff.is_zero()

    def test_theorem3_k6_to_k12(self):
        for k in range(6, 13):
            rep = vf.suite_theorem3(k)
            assert rep["passed"], (k, rep["checks"])

    def test_theorem3_products_stay_in_the_caps_ideal(self, monkeypatch):
        # multiplied out left to right, suite_theorem3(7) makes 267,830
        # diagram products; from the cap end, about 2,000
        multiply, calls = dg.multiply_diagrams, []

        def counting(x, y, fold_rng=None):
            calls.append(None)
            return multiply(x, y, fold_rng)

        monkeypatch.setattr(dg, "multiply_diagrams", counting)
        assert vf.suite_theorem3(7)["passed"]
        assert len(calls) < 10_000, len(calls)


class TestParser:
    def test_word_round(self):
        g = wd.parse_genexpr("T1^-1 * Tk * T1 * T0", 2)
        assert g == wd.murphy_expr(2, 1)

    def test_named_identity(self):
        lhs = wd.parse_genexpr("Deven", 2)
        rhs = wd.parse_genexpr("a0*ak*I1*I2*I1 + bb(t0*tk/t)*I1", 2)
        ok, _ = wd.verify_identity(lhs, rhs)
        assert ok

    def test_scalar_factors(self):
        g = wd.parse_genexpr("2*E0 - E0", 2)
        assert g == G(2, [wd.E0])

    def test_signs_and_parentheses(self):
        t1, t2, t3 = (G(4, [wd.T(i)]) for i in (1, 2, 3))
        assert wd.parse_genexpr("-T1", 4) == -t1
        assert wd.parse_genexpr("T1*-T2", 4) == -(t1 * t2)
        assert wd.parse_genexpr("(T1+T2)*T3", 4) == t1 * t3 + t2 * t3
        assert wd.parse_genexpr("-(T1+T2)*T3", 4) == -(t1 * t3 + t2 * t3)

    def test_scalar_arithmetic(self):
        t1, t2 = G(4, [wd.T(1)]), G(4, [wd.T(2)])
        assert wd.parse_genexpr("u*T1*T2 - T2*T1/u", 4) \
            == (t1 * t2).scale(U) - (t2 * t1).scale(U.inv())
        assert wd.parse_genexpr("1 + T1^2 - u", 4) == wd.GenExpr.one(4).scale(ONE - U) + t1 * t1
        assert wd.parse_genexpr("Tk^-1*T0^-1", 4) == G(4, [wd.Tkinv, wd.T0inv])

    def test_rejected(self):
        for text, k in (("E1^-1", 4), ("(2*T1)^-1", 4), ("T1^-2", 4), ("T1 T2", 4),
                        ("1.5*T1", 4), ("u/T1", 4), ("T1/T2", 4), ("T1^T1", 4),
                        ("T5", 3), ("Deven", 3), ("x*T1", 4), ("u.num", 4),
                        ("__import__('os')", 4), ("-" * 10000 + "T1", 4),
                        ("T" + "9" * 5000, 4)):
            with pytest.raises((wd.WordError, sc.ScalarError)):
                wd.parse_genexpr(text, k)
